"""Append benchmark records to BENCH_<workload>.json, one JSON line per run.

    python3 tools/record_bench.py [--tree DIR] [--out DIR] [--workloads W ...]
                                  [--seeds S ...] [--seconds T] [--trace 0|1]

For each workload, then each seed, runs

    python3 <tree>/perfbench/run.py --workload W --seed S --seconds T --trace 0|1

and reads its report: the ``environment:`` line and the last line (the JSON
result).  It appends one line to ``<out>/BENCH_<W>.json`` holding the tree's
commit and whether the tree was clean (``git status`` with the BENCH files
left out, since this script writes them), the run's workload, seed, seconds
and trace flag, the environment, ``correct``, ``attempted``, ``failed`` and
every metric by name (their units are in BENCHMARK.json).

``<tree>`` and ``<out>`` default to this checkout; the workloads and the
seconds default to those of its BENCHMARK.json, the seeds to 1.  To compare
two commits, point ``--tree`` at a clone of the other one and alternate the
runs.  The records land in the checkout, so CI does not run this script.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def record(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the tree's benchmark once and return the record of the run."""
    commit = _git(tree, "rev-parse", "HEAD")
    clean = _git(tree, "status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json") == ""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    environment = [ln.removeprefix("environment: ") for ln in lines
                   if ln.startswith("environment: ")]
    if len(environment) != 1:
        raise RuntimeError(f"{workload} seed {seed}: no single environment line in the report")
    result = json.loads(lines[-1])
    return {
        "commit": commit,
        "clean": clean,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": json.loads(environment[0]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    for workload in args.workloads:
        for seed in args.seeds:
            line = json.dumps(record(tree, workload, seed, args.seconds, args.trace))
            with open(args.out / f"BENCH_{workload}.json", "a") as fh:
                fh.write(line + "\n")
            print(f"{workload} seed {seed}: appended to BENCH_{workload}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
