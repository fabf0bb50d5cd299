"""CPU-speed sampling, so that timings can be put at one reference speed.

On a shared virtual machine the same code runs at one of two speeds: the
vCPU's physical core is either free or shared with another tenant's work,
and it flips between the two every few milliseconds, with slow stretches of
seconds to minutes.  On the 2-vCPU 2.0 GHz Xeon VM the benchmark was written
on, pure-Python loops, ``Fraction`` arithmetic, small numpy calls and LAPACK
solves all took 1.5-1.9 times longer in the slow state, which held 40-100%
of the time.  A pass of a workload is as slow as the share of slow time it
happened to get.

``SpeedSampler`` interrupts the process after every ``INTERVAL_S`` of its
CPU time (``ITIMER_PROF``; the kernel's tick makes it every ~5 ms there) and
times a fixed probe of ``Fraction`` arithmetic; the probe's duration is the
CPU's speed at that moment.  ``reference_time`` turns the time of an
interval into the time it would take at the speed where the probe takes
``PROBE_REFERENCE_S``: the interval's time less the probes run inside it,
times the mean of ``PROBE_REFERENCE_S / probe duration`` over the probes in
it (at least the ``MIN_PROBES`` nearest ones).

Of the probes tried (an integer loop, ``Fraction`` arithmetic, small numpy
calls, scattered reads of a 2 MB array), ``Fraction`` arithmetic slowed down
most like the workloads: over passes of one run their times went as the
probe's to the power 0.9-1.1, and over 6 runs of ``jordan-witness`` its
reference ``wall_s`` spread by 6-9% (interquartile range over median)
against 20-25% raw.  The numpy and memory probes spread by 18-24%.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.002
# duration of ``probe`` in the fast state of that VM; reference seconds there
# are seconds at its uncontended speed
PROBE_REFERENCE_S = 40e-6
MIN_PROBES = 8


def probe() -> None:
    """Fixed interpreter work: object allocation, method dispatch and gcd."""
    x = Fraction(1, 3)
    for i in range(1, 6):
        x = (x * Fraction(i, 7) + Fraction(1, i)) % 1


class SpeedSampler:
    """``with SpeedSampler() as s:`` samples the speed until the block ends;
    ``s.reference_time(t0, t1)`` then converts intervals of
    ``time.perf_counter`` inside the block."""

    def __init__(self) -> None:
        self.starts = array("d")  # perf_counter at each probe's start
        self.ends = array("d")
        self.speed = array("d")  # PROBE_REFERENCE_S / probe duration
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.speed.append(PROBE_REFERENCE_S / (t1 - t0))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def reference_time(self, t0: float, t1: float) -> float:
        """Time of the interval [t0, t1) at the reference speed, probes excluded."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = t1 - t0 - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.starts))
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return own * sum(self.speed[lo:hi]) / (hi - lo)
