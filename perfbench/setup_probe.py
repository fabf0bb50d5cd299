"""Set-up probe: ``python3 setup_probe.py WORKLOAD SEED WORK_DIR``.

Builds one workload in a fresh interpreter, sampling the CPU speed as it
goes, and prints ``ready T0 T1 REF``: the ``perf_counter`` interval of the
set-up and its time at the reference speed (``speed.py``).  The parent times
the interval from spawning this process to that line and swaps the sampled
part for its reference time (``setup_s``).
"""

import sys
import time

from run import prepare_environment
from speed import SpeedSampler

with SpeedSampler() as sampler:
    t0 = time.perf_counter()
    prepare_environment()
    import workloads  # noqa: E402  (needs the environment prepared first)

    workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    t1 = time.perf_counter()
print(f"ready {t0!r} {t1!r} {sampler.reference_time(t0, t1)!r}", flush=True)
