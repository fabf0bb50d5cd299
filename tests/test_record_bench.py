"""tools/record_bench.py against a stub benchmark in a throw-away git tree."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
               "openblas_threads": 1}
RESULT = {
    "correct": True,
    "attempted": 120,
    "failed": 4,
    "metrics": {
        "shadow.find_periodic_shadow.self_s": {"value": 0.008, "unit": "s"},
        "shadow.find_periodic_shadow.singular": {"value": 12, "unit": "count"},
        "total.sloc": {"value": 2810, "unit": "lines"},
    },
}

# exits 3 unless called with the arguments the test expects
STUB = f"""import json, sys
if sys.argv[1:] != EXPECTED:
    sys.exit(3)
print("workload stub, seed 5: 12 items per pass")
print("environment: " + json.dumps({ENVIRONMENT!r}))
print("  total.sloc = 2810 lines")
print(json.dumps({RESULT!r}))
"""


def _git(tree, *args):
    return subprocess.run(["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], capture_output=True, text=True, check=True).stdout.strip()


def _stub_tree(tmp_path, expected):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB.replace("EXPECTED", repr(expected)))
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "stub")
    return tree


def _record(tree, out, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--tree", str(tree), "--out", str(out), "--workloads",
         "stub-load", "--seeds", "5", "--seconds", "2", *args],
        capture_output=True, text=True,
    )


def test_record_appends_one_line_per_run(tmp_path):
    expected = ["--workload", "stub-load", "--seed", "5", "--seconds", "2", "--trace", "1"]
    tree = _stub_tree(tmp_path, expected)
    out = tmp_path / "out"
    out.mkdir()
    assert _record(tree, out, "--trace", "1").returncode == 0
    (tree / "BENCH_stub-load.json").write_text("")  # a record file does not make the tree dirty
    assert _record(tree, out, "--trace", "1").returncode == 0
    (tree / "perfbench" / "run.py").write_text(STUB.replace("EXPECTED", repr(expected)) + "\n")
    assert _record(tree, out, "--trace", "1").returncode == 0
    lines = (out / "BENCH_stub-load.json").read_text().splitlines()
    assert [json.loads(ln)["clean"] for ln in lines] == [True, True, False]
    assert json.loads(lines[0]) == {
        "commit": _git(tree, "rev-parse", "HEAD"),
        "clean": True,
        "workload": "stub-load",
        "seed": 5,
        "seconds": 2.0,
        "trace": 1,
        "environment": ENVIRONMENT,
        "correct": True,
        "attempted": 120,
        "failed": 4,
        "metrics": {
            "shadow.find_periodic_shadow.self_s": 0.008,
            "shadow.find_periodic_shadow.singular": 12,
            "total.sloc": 2810,
        },
    }


def test_a_failed_run_appends_nothing(tmp_path):
    tree = _stub_tree(tmp_path, ["--never"])
    proc = _record(tree, tmp_path, "--trace", "0")
    assert proc.returncode != 0 and "exited with 3" in proc.stderr
    assert not (tmp_path / "BENCH_stub-load.json").exists()
