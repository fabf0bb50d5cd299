"""shadowlab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports shadowlab from
``src/`` of that checkout and fails (exit code 2) when it is missing.

``--trace 0`` times the workload: fresh set-up processes give ``setup_s``,
then whole passes over the workload's items run until ``--seconds`` is used
while the CPU speed is sampled (``speed.py``).  Each item's time is its
median over the passes at the reference CPU speed; the result is their sum
(``wall_s``) and percentiles, and this process's peak resident memory.
``--trace 1`` runs the same untraced passes without sampling, then one pass
with every traced function wrapped (``tracer.py``), and reports per-layer
calls, self times and counters.

Every item checks its own result.  A failed item is counted, not fatal; the
run is ``correct`` unless an item fails that the workload does not list as a
known defect.  The last line of stdout is the JSON result; the lines before
it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("__init__", "_intmat", "cli", "config", "errors", "hyperbolicity", "pseudo",
           "shadow", "systems")
SETUP_PROBES = 3


def prepare_environment() -> None:
    """Point imports at the checkout's source and pin BLAS to one thread.

    The program is single-threaded; one BLAS thread keeps runs steady on a
    shared machine.  Must run before numpy is imported.
    """
    if not (SRC / "shadowlab" / "__init__.py").is_file():
        print(f"perfbench: no shadowlab source under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("SHADOWLAB_OUTPUT_DIR", None)  # would redirect the CLI's result files
    sys.path.insert(0, str(SRC))


def _sloc(path: Path) -> int:
    lines = path.read_text().splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def metric_module(module: str) -> str:
    """Metric names must start with a letter: _intmat -> intmat, __init__ -> init."""
    return module.strip("_")


def blas_threads() -> int | None:
    """Largest thread count among the OpenBLAS libraries loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    counts = []
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return max(counts) if counts else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads(),
    }


def measure_setup(workload: str, seed: int, work_dir: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to run the
    first item, once per probe; the part the probe sampled (all but the
    interpreter's start) is taken at the reference CPU speed."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"probe{k}")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), probe_dir],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        fields = line.split()
        if len(fields) != 4 or fields[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        t0, t1, reference = map(float, fields[1:])
        times.append(elapsed - (t1 - t0) + reference)
    return times


@dataclass
class PassResult:
    wall: float = 0.0
    spans: list[tuple[float, float]] = field(default_factory=list)  # perf_counter per item
    failures: list[tuple[str, str, str, bool]] = field(default_factory=list)  # item, type, msg, known
    digests: dict[str, str] = field(default_factory=dict)


def run_pass(wl) -> PassResult:
    import workloads

    ctx = workloads.new_pass(wl)
    res = PassResult()
    t_pass = time.perf_counter()
    for item in wl.items:
        t0 = time.perf_counter()
        try:
            item.run(ctx)
        except Exception as exc:  # a failed item is recorded and the pass goes on
            res.failures.append((item.name, type(exc).__name__, str(exc).splitlines()[0]
                                 if str(exc) else "", item.known_defect is not None))
        res.spans.append((t0, time.perf_counter()))
    res.wall = time.perf_counter() - t_pass
    res.digests = workloads.result_digests(wl)
    return res


def run_passes(wl, seconds: float) -> list[PassResult]:
    """Whole passes until the next one would overrun ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl))
        spent = time.perf_counter() - start
        if spent + statistics.median(p.wall for p in passes) > seconds:
            return passes


def item_times(passes, sampler=None) -> list[float]:
    """Each item's median time over the passes, at the reference CPU speed
    when a sampler is given."""
    convert = sampler.reference_time if sampler else (lambda t0, t1: t1 - t0)
    return [statistics.median(convert(*span) for span in spans)
            for spans in zip(*(p.spans for p in passes))]


def end_to_end_metrics(passes, sampler, setup_times) -> dict:
    """Timings are at the reference CPU speed of ``speed.py``, so that they
    do not follow the share of time a shared machine ran slow; ``wall_s``
    is the sum of the items' median times."""
    import resource

    items = item_times(passes, sampler)
    return {
        "wall_s": (math.fsum(items), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "item_p50_ms": (1e3 * statistics.median(items), "ms"),
        "item_p90_ms": (1e3 * statistics.quantiles(items, n=10, method="inclusive")[8], "ms"),
    }


def per_layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    from tracer import COMPOSITES

    out = {}
    for name, st in tracer.stats.items():
        mod, fn = name.split(".", 1)
        key = f"{metric_module(mod)}.{fn}"
        out[f"{key}.calls"] = (st.calls, "count")
        out[f"{key}.self_s"] = (st.self_s, "s")
        if name in COMPOSITES:
            out[f"{key}.total_s"] = (st.total_s, "s")
    solve = tracer.stats["shadow.find_periodic_shadow"]
    for counter in ("iterations", "unknowns", "singular"):
        out[f"shadow.find_periodic_shadow.{counter}"] = (solve.counters.get(counter, 0), "count")
    out["shadow.find_periodic_shadow.converged_ratio"] = (
        solve.counters.get("converged", 0) / solve.calls if solve.calls else 0.0, "ratio")
    for name in ("hyperbolicity.enumerate_periodic_points_exact", "pseudo.witness_jordan"):
        out[f"{name}.points"] = (tracer.stats[name].counters.get("points", 0), "count")
    out["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    total = 0
    for module in MODULES:
        lines = _sloc(SRC / "shadowlab" / f"{module}.py")
        total += lines
        out[f"{metric_module(module)}.sloc"] = (lines, "lines")
    out["total.sloc"] = (total, "lines")
    return out


def report_failures(passes) -> None:
    seen: dict[tuple, int] = {}
    for p in passes:
        for failure in p.failures:
            seen[failure] = seen.get(failure, 0) + 1
    for (item, kind, message, known), count in seen.items():
        tag = "known defect" if known else "FAILED"
        print(f"  {tag}: {item}: {kind}: {message} (x{count})")


def report_items(wl, passes, sampler) -> None:
    groups: dict[str, list[float]] = {}
    for item, t in zip(wl.items, item_times(passes, sampler)):
        groups.setdefault(re.sub(r"-\d+$", "", item.name), []).append(t)
    basis = "reference speed" if sampler else "unsampled"
    print(f"item latency, median of {len(passes)} pass(es), {basis}, by group "
          "(median ms, items):")
    for group, times in groups.items():
        print(f"  {group}: {1e3 * statistics.median(times):.3f} ms x{len(times)}")


def report_trace(tracer, untraced: PassResult, traced: PassResult, restored: bool) -> None:
    print("per-layer (traced pass): calls, self s, total s")
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        if st.calls:
            print(f"  {name:50s} {st.calls:8d} {st.self_s:10.4f} {st.total_s:10.4f}")
    print("call edges (parent -> child: calls)")
    for (parent, child), count in sorted(tracer.edges.items()):
        print(f"  {parent} -> {child}: {count}")
    print("result digests (sha256, untraced pass | traced pass)")
    for item, digest in untraced.digests.items():
        same = "same" if traced.digests.get(item) == digest else "DIFFERENT"
        print(f"  {item}: {digest} | {traced.digests.get(item)} ({same})")
    print(f"bindings restored after tracing: {'yes' if restored else 'NO'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed, work_dir)
        wl = workloads.build(args.workload, args.seed, work_dir)
        if args.trace:
            sampler = None
            passes = run_passes(wl, args.seconds)
        else:
            from speed import SpeedSampler

            with SpeedSampler() as sampler:
                passes = run_passes(wl, args.seconds)
        untraced_wall = statistics.median(p.wall for p in passes)
        if args.trace:
            from tracer import Tracer

            with Tracer() as tracer:
                traced = run_pass(wl)
            restored = tracer.restored()
            metrics = per_layer_metrics(tracer, traced.wall, untraced_wall)
            runs = passes + [traced]
        else:
            metrics = end_to_end_metrics(passes, sampler, setup_times)
            runs = passes

    attempted = sum(len(p.spans) for p in runs)
    failed = sum(len(p.failures) for p in runs)
    correct = all(known for p in runs for *_, known in p.failures)
    if args.trace:
        correct = correct and restored
    print(f"workload {args.workload}, seed {args.seed}: {len(wl.items)} items per pass, "
          f"{len(passes)} untraced pass(es) of {args.seconds:g} s"
          f"{', 1 traced pass' if args.trace else ''}")
    print(f"environment: {json.dumps(environment())}")
    print(f"items attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.6g}")
    report_failures(runs)
    if setup_times:
        print(f"setup probes (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    print(f"untraced pass walls (s): {', '.join(f'{p.wall:.4f}' for p in passes)}")
    if sampler:
        reference = [sampler.reference_time(p.spans[0][0], p.spans[-1][1]) for p in passes]
        print(f"  at reference speed (s): {', '.join(f'{t:.4f}' for t in reference)}")
        print(f"  speed samples: {len(sampler.speed)}, mean speed "
              f"{statistics.fmean(sampler.speed):.3f} of the reference")
    report_items(wl, passes, sampler)
    if args.trace:
        print(f"traced pass wall (s): {traced.wall:.4f}")
        report_trace(tracer, passes[-1], traced, restored)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
