"""The four benchmark workloads.

A workload is a closed loop: its items run one after another in a single
process, each item being one library operation or CLI command followed by the
check of its result.  ``build(name, seed, work_dir)`` is the set-up that the
``setup_s`` metric times: it imports shadowlab, constructs the systems,
generates the seeded inputs, writes the CLI configs and returns the items.

Library calls go through the ``shadowlab`` package (``sl.f``) and CLI calls
through ``shadowlab.cli.run``, so the tracer sees every one of them.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from typing import Callable

import numpy as np

import shadowlab as sl
import shadowlab.cli

CAT = [[2, 1], [1, 1]]
CAT_TEXT = "2 1; 1 1"
SCAN_D_VALUES = "1e-3 1e-4 1e-5 1e-6"
GOLDEN_CONTRACTION = (3.0 - math.sqrt(5.0)) / 2.0  # stable multiplier of the cat map

WORKLOADS = ("torus-scan", "orbit-analysis", "shadow-solve", "jordan-witness")


class CheckFailed(Exception):
    """An item ran but its result is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Item:
    name: str
    run: Callable[["PassContext"], None]
    known_defect: str | None = None  # why the current code fails this item
    cli: bool = False  # writes result files whose digests are reported


@dataclass
class Workload:
    name: str
    work_dir: str
    items: list[Item]

    @property
    def out_root(self) -> str:
        return os.path.join(self.work_dir, "out")


@dataclass
class PassContext:
    """State shared by the items of one pass."""

    records: list = field(default_factory=list)


def new_pass(workload: Workload) -> PassContext:
    """Empty every item's output directory and start a pass."""
    shutil.rmtree(workload.out_root, ignore_errors=True)
    for item in workload.items:
        if item.cli:
            os.makedirs(os.path.join(workload.out_root, item.name))
    return PassContext()


def result_digests(workload: Workload) -> dict[str, str]:
    """sha256 over the result files each CLI item wrote in the last pass."""
    digests = {}
    for item in workload.items:
        if not item.cli:
            continue
        h = hashlib.sha256()
        out = os.path.join(workload.out_root, item.name)
        for name in sorted(os.listdir(out)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
        digests[item.name] = h.hexdigest()
    return digests


# ---------------------------------------------------------------------------
# independent references used by the checks


def integer_det(rows) -> int:
    """Exact determinant by fraction-based elimination."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return int(det)


def periodic_point_count(matrix, m: int) -> int:
    """|det(M^m - I)|, the number of points with M^m x = x (mod 1)."""
    n = len(matrix)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(m):
        power = [[sum(power[i][k] * matrix[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return abs(integer_det([[power[i][j] - (i == j) for j in range(n)] for i in range(n)]))


def splitting_gap(matrix) -> float:
    """beta = sqrt(2 - 2 cos angle) between the eigenlines of a 2x2 saddle."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=float))
    s = vecs[:, int(np.argmin(np.abs(vals)))]
    u = vecs[:, int(np.argmax(np.abs(vals)))]
    cos = abs(float(s @ u)) / (np.linalg.norm(s) * np.linalg.norm(u))
    return math.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, cos)))


def random_hyperbolic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real n x n matrix with every eigenvalue modulus in [0.2, 5], at least
    0.1 away from 1: a block-diagonal of scalings and scaled rotations,
    conjugated by a random orthogonal matrix."""
    diag = np.zeros((n, n))
    at = 0
    while at < n:
        modulus = rng.uniform(0.2, 5.0)
        while abs(modulus - 1.0) < 0.1:
            modulus = rng.uniform(0.2, 5.0)
        if at + 2 <= n and rng.uniform() < 0.4:
            th = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(th), np.sin(th)
            diag[at : at + 2, at : at + 2] = modulus * np.array([[c, -s], [s, c]])
            at += 2
        else:
            diag[at, at] = modulus * rng.choice([-1.0, 1.0])
            at += 1
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ diag @ q.T


def cyclic_gaps(matrix, pts) -> np.ndarray:
    """e_i = x_{i+1 mod Q} - A x_i for a pseudotrajectory of a linear map."""
    return np.roll(pts, -1, axis=0) - pts @ np.asarray(matrix).T


def read_csv(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def torus_dist(a, b) -> float:
    d = np.mod(np.asarray(a) - np.asarray(b) + 0.5, 1.0) - 0.5
    return float(np.linalg.norm(d))


# ---------------------------------------------------------------------------
# CLI items


def _write_config(work_dir: str, name: str, out_dir: str, seed: int, system: str,
                  command: str) -> str:
    path = os.path.join(work_dir, "configs", f"{name}.cfg")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"seed = {seed}\n[system]\n{system}\n[command]\n{command}\n"
                 f"[output]\ndirectory = {out_dir}\n")
    return path


def cli_item(wl_dir: str, name: str, seed: int, system: str, command: str,
             verify: Callable[[str], None], expect_code: int = 0,
             known_defect: str | None = None) -> Item:
    """One ``shadowlab run`` of a config; ``verify`` checks the output directory."""
    out_dir = os.path.join(wl_dir, "out", name)
    config = _write_config(wl_dir, name, out_dir, seed, system, command)

    def run(ctx: PassContext) -> None:
        sink = StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = shadowlab.cli.run(config)
        check(code == expect_code,
              f"exit code {code}, expected {expect_code}: {sink.getvalue().strip()}")
        verify(out_dir)

    return Item(name, run, known_defect=known_defect, cli=True)


def _verify_scan(ceiling: float, rows_expected: int):
    def verify(out: str) -> None:
        rows = read_csv(os.path.join(out, "scan.csv"))[1:]
        check(len(rows) == rows_expected, f"{len(rows)} scan rows")
        for d, _, ratio, converged, _ in rows:
            check(converged == "true", f"row d={d} did not converge")
            check(float(ratio) <= ceiling + 1e-9, f"ratio {ratio} above ceiling {ceiling}")
    return verify


# ---------------------------------------------------------------------------
# torus-scan
#
# The base orbit is taken at period 11 (39601 lattice points), not 13
# (271441): a period-13 pass takes ~18 s, so a run holds one pass and its
# time could not be measured steadily on a shared machine.  Enumeration and
# base-orbit selection still take over 90% of a pass.


def _torus_scan(seed: int, wl_dir: str) -> list[Item]:
    items = []
    for period in (5, 8, 11):
        ceiling = sl.theoretical_linear_lipschitz_bound(CAT, period)
        items.append(cli_item(
            wl_dir, f"scan-p{period}", seed, f"kind = toral\nmatrix = {CAT_TEXT}",
            f"name = scan\nfamily = perturbed-orbit\nperiod = {period}\n"
            f"d-values = {SCAN_D_VALUES}",
            _verify_scan(ceiling, 4),
        ))
    count = periodic_point_count(CAT, 8)

    def verify_enumerate(out: str) -> None:
        rows = read_csv(os.path.join(out, "periodic_points.csv"))[1:]
        check(len(rows) == count, f"{len(rows)} points, expected |det(M^8 - I)| = {count}")
        check(len({tuple(r) for r in rows}) == count, "duplicate periodic points")

    items.append(cli_item(wl_dir, "enumerate-p8", seed, f"kind = toral\nmatrix = {CAT_TEXT}",
                          "name = enumerate\nperiod = 8", verify_enumerate))
    return items


# ---------------------------------------------------------------------------
# orbit-analysis

LONG_PERIOD_DEFECT = (
    "ROADMAP item 3: the explicit monodromy loses the stable multiplier at long "
    "periods (wrong index, telescoping failure)"
)


def _orbit_item(cat_sys, point, m: int, beta: float, name: str) -> Item:
    def run(ctx: PassContext) -> None:
        record = sl.analyze_periodic_orbit(cat_sys, point, m)
        angle = sl.subspace_angle(record)
        cert = sl.expansion_certificate(cat_sys, record, record.unstable_basis[:, 0])
        growth = sl.verify_growth_bound(cert, 1.0)
        ctx.records.append(record)
        check(record.hyperbolic and record.index == 1, f"index {record.index}")
        check(abs(angle.minimum - beta) <= 1e-8, f"beta {angle.minimum!r} != {beta!r}")
        check(abs(cert.coefficients[m]) <= 1e-9, "coefficients do not telescope")
        check(growth, "growth bound fails with constant 1")

    return Item(name, run)


def _orbit_analysis(seed: int, wl_dir: str) -> list[Item]:
    cat_sys = sl.cat_map().system
    beta = splitting_gap(CAT)
    items = []
    for m in range(1, 9):
        for k, point in enumerate(sl.enumerate_periodic_points_toral(CAT, m)):
            items.append(_orbit_item(cat_sys, point, m, beta, f"orbit-m{m}-{k}"))
    orbits = len(items)

    def constants(ctx: PassContext) -> None:
        fitted = sl.extract_uniform_constants(cat_sys, ctx.records, 8)
        check(len(ctx.records) == orbits, f"{len(ctx.records)} records, expected {orbits}")
        check(abs(fitted.rate - GOLDEN_CONTRACTION) <= 1e-9, f"rate {fitted.rate!r}")
        check(1.0 <= fitted.growth_constant <= 1.0 + 1e-9, f"C {fitted.growth_constant!r}")

    items.append(Item("uniform-constants", constants))
    toral = f"kind = toral\nmatrix = {CAT_TEXT}"
    angles_rows = sum(periodic_point_count(CAT, m) for m in range(1, 5))

    def verify_angles(out: str) -> None:
        rows = read_csv(os.path.join(out, "angles.csv"))[1:]
        check(len(rows) == angles_rows, f"{len(rows)} angle rows")
        check(all(abs(float(r[2]) - beta) <= 1e-8 for r in rows), "non-uniform angles")

    items.append(cli_item(wl_dir, "angles-p4", seed, toral, "name = angles\nmax-period = 4",
                          verify_angles))

    def verify_orbit(out: str) -> None:
        row = read_csv(os.path.join(out, "orbit.csv"))[1]
        check(row[1] == "1", f"index {row[1]}")
        check(abs(float(row[5]) - beta) <= 1e-8, f"beta_min {row[5]}")

    for period in (20, 40, 60, 200):
        items.append(cli_item(wl_dir, f"orbit-p{period}", seed, toral,
                              f"name = orbit\npoint = 0 0\nperiod = {period}",
                              verify_orbit, known_defect=LONG_PERIOD_DEFECT))
    return items


# ---------------------------------------------------------------------------
# shadow-solve

ORACLE_UNKNOWNS = (1000, 1800, 2000, 2002, 4000, 8000)  # n = 2, both sides of 2000

# A normal saddle with multipliers -0.25 and -1.2.  Its cyclic system is well
# conditioned (rcond ~ 0.09), but dense LU with partial pivoting grows like
# 1.2^Q, about 1e39 at 2000 unknowns, so the dense path reports it singular;
# the sparse path solves the same map.
WEAK_SADDLE_DEFECT = (
    "dense LU of the cyclic matrix has growth ~|lambda|^Q: residual ~1e22, reported singular"
)


def _pullback_item(cat_sys, point, m: int, name: str) -> Item:
    d = 1e-5

    def run(ctx: PassContext) -> None:
        record = sl.analyze_periodic_orbit(cat_sys, point, m)
        xi, _, _ = sl.witness_orbit_pullback(cat_sys, point, m, record.unstable_basis[:, 0], d)
        sol = sl.find_periodic_shadow(cat_sys, xi)
        check(sol.converged, "shadow did not converge")
        check(xi.defect <= 4.0 * d, f"defect {xi.defect!r} above 4d")
        back = max(cat_sys.space.dist(sol.orbit[i], record.points[i % m])
                   for i in range(xi.period))
        check(back <= 1e-8, f"shadow returns within {back!r}")

    return Item(name, run)


def _oracle_item(matrix, pts, name: str, known_defect: str | None = None) -> Item:
    lin = sl.linear_system(matrix)

    def run(ctx: PassContext) -> None:
        xi = sl.make_pseudotrajectory(lin, pts)
        sol = sl.find_periodic_shadow(lin, xi)
        oracle = pts - sl.closed_form_linear_shadow(matrix, cyclic_gaps(matrix, pts))
        check(sol.converged, "shadow did not converge")
        dev = float(np.max(np.abs(oracle - sol.orbit)))
        check(dev < 1e-9, f"deviation from the linear oracle {dev!r}")

    return Item(name, run, known_defect=known_defect)


def _splice_item(cat_sys, p, k: int, ceiling: float) -> Item:
    def run(ctx: PassContext) -> None:
        fwd = sl.orbit_segment(cat_sys, p, 0, k - 1)
        bwd = sl.orbit_segment(cat_sys, p, -k, -1)
        xi = sl.splice_cycle(cat_sys, [fwd, bwd])
        sol = sl.find_periodic_shadow(cat_sys, xi)
        check(sol.converged and sol.residual <= 1e-10, "not a periodic orbit")
        check(sol.sup_distance <= ceiling * xi.defect, "shadow farther than L d")
        check(cat_sys.space.dist(sol.orbit_point, p) <= ceiling * xi.defect,
              "shadow does not return near the splice point")

    return Item(f"splice-k{k}", run)


def _shadow_solve(seed: int, wl_dir: str) -> list[Item]:
    cat = sl.cat_map()
    cat_sys = cat.system
    items = []
    for m in range(1, 7):
        for k, point in enumerate(sl.enumerate_periodic_points_toral(CAT, m)):
            items.append(_pullback_item(cat_sys, point, m, f"pullback-m{m}-{k}"))
    rng = np.random.default_rng([seed, 1])
    for j in range(100):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, 33))
        matrix = random_hyperbolic_matrix(rng, n)
        items.append(_oracle_item(matrix, rng.normal(scale=0.01, size=(q, n)), f"oracle-{j}"))
    for unknowns in ORACLE_UNKNOWNS:
        pts = rng.normal(scale=0.01, size=(unknowns // 2, 2))
        items.append(_oracle_item(np.array(CAT, dtype=float), pts, f"oracle-n{unknowns}"))
    c, s = math.cos(0.5), math.sin(0.5)
    turn = np.array([[c, -s], [s, c]])
    weak_saddle = turn @ np.diag([-0.25, -1.2]) @ turn.T
    items.append(_oracle_item(weak_saddle, rng.normal(scale=0.01, size=(1000, 2)),
                              "oracle-weak-saddle-n2000", known_defect=WEAK_SADDLE_DEFECT))
    p = sl.homoclinic_point(cat)
    ceiling = max(sl.theoretical_linear_lipschitz_bound(CAT, q) for q in (5, 8, 13))
    items += [_splice_item(cat_sys, p, k, ceiling) for k in range(2, 17)]

    toral = f"kind = toral\nmatrix = {CAT_TEXT}"
    splice_csv = os.path.join(wl_dir, "out", "cli-splice", "splice.csv")

    def verify_splice(out: str) -> None:
        check(read_csv(os.path.join(out, "splice.csv"))[1][0] == "16", "splice period")

    def verify_shadow(out: str) -> None:
        rows = read_csv(os.path.join(out, "shadow_orbit.csv"))[1:]
        orbit = np.array([[float(v) for v in r[1:]] for r in rows])
        check(len(orbit) == 16, f"{len(orbit)} orbit points")
        images = orbit @ np.asarray(CAT, dtype=float).T
        gap = max(torus_dist(images[i], orbit[(i + 1) % 16]) for i in range(16))
        check(gap <= 1e-9, f"shadow orbit gap {gap!r}")

    lemma_point = sl.enumerate_periodic_points_toral(CAT, 4)[1]

    def verify_lemma6(out: str) -> None:
        rows = read_csv(os.path.join(out, "certificate.csv"))[1:]
        check(len(rows) == 4, f"{len(rows)} certificate rows")

    items.append(cli_item(wl_dir, "cli-splice", seed, toral,
                          "name = splice\nforward = 8\nbackward = 8", verify_splice))
    items.append(cli_item(wl_dir, "cli-shadow", seed, toral,
                          f"name = shadow\npseudotrajectory = {splice_csv}", verify_shadow))
    items.append(cli_item(wl_dir, "cli-lemma6", seed, toral,
                          "name = lemma6\npoint = "
                          f"{' '.join(repr(float(c)) for c in lemma_point)}\nperiod = 4",
                          verify_lemma6))
    items.append(cli_item(wl_dir, "cli-scan-perturbed-p8", seed,
                          f"kind = perturbed-toral\nmatrix = {CAT_TEXT}",
                          f"name = scan\nfamily = perturbed-orbit\nperiod = 8\n"
                          f"d-values = {SCAN_D_VALUES}",
                          _verify_scan(math.inf, 4)))
    return items


# ---------------------------------------------------------------------------
# jordan-witness


def _witness_item(model, k_steps: int) -> Item:
    d = 1e-6
    e1 = np.array([d, 0.0])

    def run(ctx: PassContext) -> None:
        xi, meta = sl.witness_jordan(model, d, k_steps)
        check(meta.params["Z1"] == k_steps * (k_steps - 1) // 2, "Z1")
        check(meta.params["Z2"] == k_steps * k_steps, "Z2")
        check(meta.period == 2 * k_steps + k_steps * k_steps, "period")
        check(xi.points[k_steps][1] == k_steps * d, "y_K second coordinate")
        check(np.array_equal(xi.points[0], np.zeros(2)), "y_0")
        check(np.array_equal(model.matrix @ xi.points[-1] - e1, np.zeros(2)), "closure")

    return Item(f"witness-{k_steps}", run)


def _scan_item(model, k_steps: int) -> Item:
    d_values = [1e-4, 1e-5, 1e-6]

    def run(ctx: PassContext) -> None:
        scan = sl.lipschitz_scan(model.system, sl.JordanWitnessFamily(model, k_steps), d_values)
        for d, row in zip(d_values, scan.rows):
            check(abs(row.lower_bound / d - k_steps) <= 1e-12 * k_steps,
                  f"lower bound {row.lower_bound!r} != K d")
        check(scan.diverging, "verdict is not diverging")

    return Item(f"scan-K{k_steps}", run)


def _jordan_witness(seed: int, wl_dir: str) -> list[Item]:
    model = sl.jordan_model(block="real", size=2, eigenvalue=1, c=0.0)
    items = [_witness_item(model, k) for k in range(1, 101)]
    items += [_scan_item(model, k) for k in (25, 50, 100)]
    items.append(cli_item(
        wl_dir, "cli-scan-K25", seed, "kind = jordan\nblock = real\nl = 2\nc = 0",
        "name = scan\nfamily = jordan-witness\nK = 25\nd-values = 1e-4 1e-5 1e-6",
        lambda out: check(len(read_csv(os.path.join(out, "scan.csv"))) == 4, "scan rows"),
        expect_code=2,
    ))
    witnesses = (
        ("staircase", "block = real\nl = 2", 2 * 10),
        ("jordan", "block = real\nl = 2", 2 * 10 + 10 * 10),
        ("jordan-general", "block = real\nl = 3", None),
        ("rotation", "block = rotation\nl = 2\ntheta = 0.3", None),
    )
    for wtype, block, period in witnesses:
        def verify(out: str, period=period) -> None:
            rows = read_csv(os.path.join(out, "witness.csv"))
            q = int(rows[1][0])
            check(len(rows) - 2 == q, f"{len(rows) - 2} points, header Q {q}")
            check(period is None or q == period, f"period {q}, expected {period}")
            check(float(rows[1][1]) <= 1e-5 * (1.0 + 1e-9), f"defect {rows[1][1]}")

        items.append(cli_item(wl_dir, f"cli-witness-{wtype}", seed,
                              f"kind = jordan\n{block}",
                              f"name = witness\ntype = {wtype}\nd = 1e-5\nK = 10", verify))
    return items


_ITEM_FACTORIES = {
    "torus-scan": _torus_scan,
    "orbit-analysis": _orbit_analysis,
    "shadow-solve": _shadow_solve,
    "jordan-witness": _jordan_witness,
}


def build(name: str, seed: int, work_dir: str) -> Workload:
    """Construct the systems, seeded inputs and configs of one workload."""
    wl_dir = os.path.join(work_dir, name)
    os.makedirs(wl_dir, exist_ok=True)
    return Workload(name, wl_dir, _ITEM_FACTORIES[name](seed, wl_dir))
