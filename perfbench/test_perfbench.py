"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.prepare_environment()

import numpy as np  # noqa: E402

import shadowlab as sl  # noqa: E402
import shadowlab.cli  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bindings():
    return {
        (module.__name__, attr): value
        for module in tracer._shadowlab_modules()
        for attr, value in vars(module).items()
        if callable(value)
    }


def _scan_config(tmp_path) -> str:
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "seed = 3\n[system]\nkind = toral\nmatrix = 2 1; 1 1\n"
        "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n"
        f"d-values = 1e-3 1e-4 1e-5\n[output]\ndirectory = {tmp_path}\n"
    )
    return str(cfg)


def test_tracer_records_expected_edges(tmp_path):
    cat = sl.cat_map()
    with tracer.Tracer() as tr:
        assert shadowlab.cli.run(_scan_config(tmp_path)) == 0
        sl.toral_orbit_with_period(cat, 3)
        point = np.zeros(2)
        record = sl.analyze_periodic_orbit(cat.system, point, 1)
        sl.witness_orbit_pullback(cat.system, point, 1, record.unstable_basis[:, 0], 1e-5)
    for edge in [
        ("cli.run", "shadow.lipschitz_scan"),
        ("shadow.lipschitz_scan", "shadow.find_periodic_shadow"),
        ("shadow.toral_orbit_with_period", "hyperbolicity.enumerate_periodic_points_exact"),
        ("pseudo.witness_orbit_pullback", "hyperbolicity.analyze_periodic_orbit"),
    ]:
        assert tr.edges.get(edge, 0) >= 1, edge
    # reached through the from-imports in shadow and pseudo, not only the defining module
    assert ("shadow", "enumerate_periodic_points_exact") in {
        (m.__name__.split(".")[-1], a) for m, a, _ in tr.replaced
    }
    solve = tr.stats["shadow.find_periodic_shadow"]
    assert solve.calls >= 4 and solve.counters["unknowns"] > 0
    stats = tr.stats["shadow.lipschitz_scan"]
    assert 0.0 <= stats.self_s <= stats.total_s


def test_tracer_restores_every_binding():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer() as tr:
            assert _bindings() != before
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.restored() and len(tr.replaced) > len(tracer.TRACED)


def test_singular_solves_are_counted():
    model = sl.jordan_model(block="real", size=2, eigenvalue=1, c=0.0)
    with tracer.Tracer() as tr:
        sl.lipschitz_scan(model.system, sl.JordanWitnessFamily(model, 5), [1e-4, 1e-5, 1e-6])
    solve = tr.stats["shadow.find_periodic_shadow"]
    assert solve.counters["singular"] == solve.calls == 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_second_seed_gives_the_same_items(name, tmp_path):
    first = workloads.build(name, 1, str(tmp_path / "a"))
    second = workloads.build(name, 2, str(tmp_path / "b"))
    assert [i.name for i in first.items] == [i.name for i in second.items]
    known = {"orbit-analysis": 4, "shadow-solve": 1}
    assert sum(1 for i in first.items if i.known_defect) == known.get(name, 0)


def test_benchmark_json_names_every_reported_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    passes = [run.PassResult()]
    passes[0].spans = [(0.0, 0.001), (0.001, 0.003)]
    reported = run.end_to_end_metrics(passes, None, [1.0])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: unit for k, (_, unit) in reported.items()
    }
    layer = run.per_layer_metrics(tracer.Tracer(), 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()
    }


def test_speed_sampler_converts_intervals_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGPROF)
    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 0.2:
            speed.probe()
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.speed) >= speed.MIN_PROBES
    # the interval is all probe work, so at the reference speed it takes about
    # its own length times the sampled speed; only the scale of that is checked
    assert 0.0 < sampler.reference_time(t0, t1) < 10 * (t1 - t0)
