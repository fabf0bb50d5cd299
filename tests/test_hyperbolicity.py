import itertools
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import matrix_balance, schur
from scipy.stats import norm, qmc

import shadowlab as sl
from shadowlab import _intmat
from shadowlab import hyperbolicity
from shadowlab.errors import (
    DegenerateMatrixError,
    LostPrecisionError,
    NotPeriodicError,
    StepLimitError,
    TooManyPeriodicPointsError,
)
from shadowlab.hyperbolicity import (
    MAX_PERIODIC_POINTS,
    ExpansionCertificate,
    expansion_coefficients,
)

from conftest import field_bytes, reset_memos

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# orbit analysis


def test_cat_fixed_point_record(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    moduli = sorted(np.abs(rec.multipliers))
    assert moduli[1] == pytest.approx(GOLDEN, rel=1e-12)
    assert moduli[0] == pytest.approx(1.0 / GOLDEN, rel=1e-12)
    assert rec.index == 1
    assert rec.hyperbolic
    assert rec.stable_basis.shape == (2, 1)
    assert rec.unstable_basis.shape == (2, 1)


def test_jordan_double_unit_multiplier():
    model = sl.jordan_model(block="real", size=2, c=0.0)
    rec = sl.analyze_periodic_orbit(model.system, np.zeros(2), 1)
    assert not rec.hyperbolic
    assert np.allclose(np.abs(rec.multipliers), 1.0)


def test_multiplier_similarity_invariance(cat_sys):
    pts = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 3)
    p = pts[3]
    rec0 = sl.analyze_periodic_orbit(cat_sys, p, 3)
    p1 = sl.evaluate(cat_sys, p, 1)
    rec1 = sl.analyze_periodic_orbit(cat_sys, p1, 3)
    m0 = sorted(np.abs(rec0.multipliers))
    m1 = sorted(np.abs(rec1.multipliers))
    assert np.allclose(m0, m1, atol=1e-8)


def test_not_periodic_rejected(cat_sys):
    with pytest.raises(NotPeriodicError):
        sl.analyze_periodic_orbit(cat_sys, [0.123, 0.456], 3)


def test_nan_point_is_not_periodic(cat_sys):
    # a NaN gap fails the check instead of passing it
    with pytest.raises(NotPeriodicError):
        sl.analyze_periodic_orbit(cat_sys, [float("nan"), 0.0], 1)


@pytest.mark.parametrize("m", [20, 40, 740, 800])
def test_lost_multipliers_are_a_typed_error(cat_sys, m):
    # the explicit product at the cat origin carries the stable multiplier
    # phi^-2m below its own rounding; at m = 40 it used to come out as index 2,
    # and from m = 738 on the product itself overflows to inf
    with pytest.raises(LostPrecisionError):
        sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], m)


def test_finite_monodromy_past_the_norm_overflow_is_analysed():
    # entries near 3^330 ~ 1e157 overflow a Frobenius norm's sum of squares,
    # not the product: the overflow check looks at the monodromy itself, and
    # the invariance check scales it down before taking a norm
    model = sl.jordan_model(block=None, tail=(3.0, 0.5, 0.25), c=0)
    with np.errstate(over="raise"):
        rec = sl.analyze_periodic_orbit(model.system, np.zeros(3), 330)
    assert rec.hyperbolic and rec.index == 1
    assert np.abs(rec.multipliers[0]) == pytest.approx(3.0**330, rel=1e-12)


def test_subnormal_monodromy_is_analysed():
    # 2^-1070 is subnormal: the invariance check scales only down, since 2^1070
    # would overflow
    model = sl.jordan_model(block=None, tail=(0.5, 0.5), c=0)
    with np.errstate(over="raise"):
        rec = sl.analyze_periodic_orbit(model.system, np.zeros(2), 1070)
    assert rec.hyperbolic and rec.index == 0


@pytest.mark.parametrize("m", [3, 330])
def test_invariance_check_rejects_a_tilted_basis(m, monkeypatch):
    # at m = 330 the norm of the monodromy overflows, which once made the
    # residual bound infinite and let any basis through
    split = hyperbolicity._split_bases

    def tilted(t, z, moduli, band):
        stable, unstable = split(t, z, moduli, band)
        return stable, (unstable + stable[:, :1]) / math.sqrt(2.0)

    monkeypatch.setattr(hyperbolicity, "_split_bases", tilted)
    model = sl.jordan_model(block=None, tail=(3.0, 0.5, 0.25), c=0)
    with pytest.raises(RuntimeError, match="invariant subspace residual"):
        sl.analyze_periodic_orbit(model.system, np.zeros(3), m)


def test_period_12_keeps_its_multipliers(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 12)
    assert rec.hyperbolic and rec.index == 1
    assert np.abs(rec.multipliers[0]) == pytest.approx(GOLDEN**12, rel=1e-12)


def _monodromy(record):
    """A_{m-1} ... A_0, multiplied in the order analyze_periodic_orbit uses."""
    b = np.eye(record.jacobians.shape[-1])
    for a in record.jacobians:
        b = a @ b
    return b


def test_invariant_subspaces(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    b = _monodromy(rec)
    for basis in (rec.stable_basis, rec.unstable_basis):
        image = b @ basis
        residual = image - basis @ (basis.T @ image)
        assert np.linalg.norm(residual) <= 1e-8


# ---------------------------------------------------------------------------
# the splitting memo


def _count_schur(monkeypatch):
    calls = []
    schur_form = hyperbolicity._schur

    def counted(monodromy):
        calls.append(len(monodromy))
        return schur_form(monodromy)

    monkeypatch.setattr(hyperbolicity, "_schur", counted)
    return calls


def test_one_schur_reduction_per_jacobian_stack(cat_sys, monkeypatch):
    calls = _count_schur(monkeypatch)
    points = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 8)
    records = [sl.analyze_periodic_orbit(cat_sys, p, 8) for p in points]
    assert len(records) == 2205 and len(calls) == 1
    assert all(r.unstable_basis is records[0].unstable_basis for r in records)


# the period-3 cat orbit through (1/2, 0) stays an orbit of the perturbed map,
# whose g vanishes (to rounding) on coordinates 0 and 1/2
@pytest.mark.parametrize("amplitude", [None, 0.1])
def test_pullback_after_analysis_reduces_nothing(amplitude, monkeypatch):
    cat = sl.cat_map()
    sys_ = cat.system if amplitude is None else sl.perturbed_toral(cat.matrix, amplitude)
    point = np.array([0.5, 0.0])
    record = sl.analyze_periodic_orbit(sys_, point, 3)
    calls = _count_schur(monkeypatch)
    sl.witness_orbit_pullback(sys_, point, 3, record.unstable_basis[:, 0], 1e-5)
    assert calls == []


def test_shared_record_arrays_are_read_only(cat_sys):
    record = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    for shared in (record.multipliers, record.stable_basis, record.unstable_basis):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0


def test_lost_precision_is_raised_on_every_call(cat_sys, monkeypatch):
    calls = _count_schur(monkeypatch)
    for _ in range(2):
        with pytest.raises(LostPrecisionError):
            sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 40)
    assert calls == [2, 2] and hyperbolicity._splitting.last is None


def test_splitting_memo_keeps_the_last_stack_only(monkeypatch):
    model = sl.jordan_model(block=None, tail=(2.0, 0.5), c=0.0)
    calls = _count_schur(monkeypatch)
    for m in (2, 3, 2):  # stacks A, B, A: B replaced A
        sl.analyze_periodic_orbit(model.system, np.zeros(2), m)
    assert len(calls) == 3
    sl.analyze_periodic_orbit(model.system, np.zeros(2), 2)  # A is the last stack
    assert len(calls) == 3


def _memo_cases():
    """(system, point, period) over toral, perturbed and Jordan-tail orbits."""
    for matrix, periods in (([[2, 1], [1, 1]], 5), ([[3, 2], [1, 1]], 3),
                            ([[-1, -1, -1], [2, 0, -1], [2, 1, 0]], 3)):
        toral = sl.toral_automorphism(matrix)
        for m in range(1, periods + 1):
            for point in sl.enumerate_periodic_points_toral(matrix, m):
                yield toral.system, point, m
    cat = sl.cat_map()
    pert = sl.perturbed_toral(cat.matrix, 0.1)
    for record in _continued_orbits(cat, 0.1, range(1, 5), 6):
        yield pert, record.points[0], record.period
    model = sl.jordan_model(block=None, tail=(3.0, 0.5, 0.25), c=0)
    yield model.system, np.zeros(3), 330


def test_warm_records_equal_cold_ones_bit_for_bit(monkeypatch):
    cases = list(_memo_cases())
    cold = []
    for sys_, point, m in cases:
        reset_memos(monkeypatch)
        cold.append(field_bytes(sl.analyze_periodic_orbit(sys_, point, m)))
    reset_memos(monkeypatch)
    # each case analysed twice in a row: the first may reuse the previous
    # case's splitting, the second reads its own
    warm = [[field_bytes(sl.analyze_periodic_orbit(sys_, p, m)) for _ in range(2)]
            for sys_, p, m in cases]
    assert warm == [[c, c] for c in cold]


def test_threads_share_the_memo():
    # more threads than cores, switching every microsecond, over four stacks
    # of the last-stack memo: every lookup races a replacement by another thread
    model = sl.jordan_model(block=None, tail=(2.0, 0.5), c=0.0)
    periods = range(1, 5)
    expected = {m: field_bytes(sl.analyze_periodic_orbit(model.system, np.zeros(2), m))
                for m in periods}
    results, errors = [], []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for m in rng.choice(periods, size=400).tolist():
                record = sl.analyze_periodic_orbit(model.system, np.zeros(2), m)
                results.append((m, field_bytes(record)))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(results) == 8 * 400
    assert all(got == expected[m] for m, got in results)


# ---------------------------------------------------------------------------
# expansion certificates


def _forward_tau(rates):
    """The closed form (lam_{m-1}..lam_1 + ... + lam_{m-1} + 1) / (lam_{m-1}..lam_0)
    from suffix products, as an oracle for a_0."""
    rates = np.asarray(rates, dtype=float)
    m = len(rates)
    return sum(float(np.prod(rates[j:m])) for j in range(1, m + 1)) / float(np.prod(rates))


def _forward_coefficients(rates, tau):
    """a_0 = tau, a_{i+1} = lambda_i a_i - 1 run forward, as an oracle."""
    a = [tau]
    for lam in rates:
        a.append(lam * a[-1] - 1.0)
    return np.array(a)


def test_tau_single_rate():
    a = expansion_coefficients([2.0])
    assert a.tolist() == [0.5, 0.0]


def test_tau_isometric_toy():
    # all rates 1: tau = m and a_i = m - i, exactly
    m = 6
    a = expansion_coefficients([1.0] * m)
    assert a.tolist() == [float(m - i) for i in range(m + 1)]


@pytest.mark.parametrize("m", [20, 200, 1000])
def test_backward_recursion_closes_at_long_periods(m):
    # the cat origin's rate phi^2 at every step: a_i = (1 - phi^-2(m-i)) / (phi^2 - 1)
    a = expansion_coefficients(np.full(m, GOLDEN))
    assert a[m] == 0.0 and np.all(a[:m] > 0.0)
    exact = (1.0 - GOLDEN ** -np.arange(m, 0, -1.0)) / (GOLDEN - 1.0)
    assert np.max(np.abs(a[:m] - exact) / exact) <= 1e-14
    if m == 20:
        # the forward loop multiplies the rounding of tau by phi^40
        forward = _forward_coefficients(np.full(m, GOLDEN), _forward_tau(np.full(m, GOLDEN)))
        assert abs(forward[m]) > 1e-9


def test_backward_recursion_matches_exact_arithmetic():
    rates = np.random.default_rng(11).uniform(0.5, 4.0, 200)
    a = expansion_coefficients(rates)
    exact = [Fraction(0)]
    for lam in reversed(rates.tolist()):
        exact.append((exact[-1] + 1) / Fraction(lam))
    exact = np.array([float(x) for x in reversed(exact)])
    assert a[200] == 0.0
    assert np.max(np.abs(a[:200] - exact[:200]) / exact[:200]) <= 1e-13


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_backward_recursion_rejects_nonfinite_rates(bad):
    with pytest.raises(RuntimeError, match="telescoping failure"):
        expansion_coefficients([2.0, bad, 3.0])


def test_backward_recursion_matches_the_forward_oracle():
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = int(rng.integers(1, 9))
        rates = rng.uniform(1.0, 3.0, m)
        a = expansion_coefficients(rates)
        tau = _forward_tau(rates)
        assert abs(a[0] - tau) <= 2e-12 * tau
        forward = _forward_coefficients(rates, tau)
        assert np.all(np.abs(a[:m] - forward[:m]) <= 2e-12 * np.abs(a[:m]))
        assert abs(forward[m]) <= 2e-12 and a[m] == 0.0


def test_certificate_cat_period2(cat_sys):
    pts = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 2)
    p = pts[1]  # (1/5, 2/5) orbit
    rec = sl.analyze_periodic_orbit(cat_sys, p, 2)
    cert = sl.expansion_certificate(cat_sys, rec, rec.unstable_basis[:, 0])
    assert float(np.prod(cert.rates)) == pytest.approx(GOLDEN**2, rel=1e-10)
    assert cert.coefficients[2] == 0.0
    assert cert.tau == pytest.approx(_forward_tau(cert.rates), rel=1e-14)


def test_certificate_telescopes_everywhere(cat_sys):
    for m in (1, 2, 3, 4):
        for p in sl.enumerate_periodic_points_toral(sl.cat_map().matrix, m):
            rec = sl.analyze_periodic_orbit(cat_sys, p, m)
            cert = sl.expansion_certificate(cat_sys, rec, rec.unstable_basis[:, 0])
            assert cert.coefficients[m] == 0.0
            assert np.all(cert.coefficients[:m] > 0.0)


def test_certificate_rejects_nonhyperbolic(linear_jordan2):
    record = sl.analyze_periodic_orbit(linear_jordan2.system, np.zeros(2), 1)
    with pytest.raises(sl.NonhyperbolicOrbitError, match="requires a hyperbolic orbit"):
        sl.expansion_certificate(linear_jordan2.system, record, np.array([1.0, 0.0]))


def test_certificate_rejects_stable_vector(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    with pytest.raises(sl.VectorNotUnstableError):
        sl.expansion_certificate(cat_sys, rec, rec.stable_basis[:, 0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_certificate_rejects_nonfinite_vector(cat_sys, bad):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    with pytest.raises(sl.VectorNotUnstableError, match="nonzero and finite"):
        sl.expansion_certificate(cat_sys, rec, np.array([bad, 1.0]))


# ---------------------------------------------------------------------------
# growth bound


def test_growth_bound_m1_empty_product():
    cert = ExpansionCertificate(
        rates=np.array([2.0]), coefficients=np.array([0.5, 0.0]),
        products=np.array([1.0]),
    )
    assert sl.verify_growth_bound(cert, 1.0)  # 1 > 1/16


def test_growth_bound_cat_fixed_point(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    cert = sl.expansion_certificate(cat_sys, rec, rec.unstable_basis[:, 0])
    assert sl.verify_growth_bound(cert, 1.0)


def test_growth_bound_fails_for_contraction():
    # rates 0.5 misused as "unstable": 0.5^7 < (1/16) 1.125^7
    rates = np.full(8, 0.5)
    products = np.concatenate(([1.0], np.cumprod(rates[:-1])))
    cert = ExpansionCertificate(
        rates=rates, coefficients=expansion_coefficients(rates), products=products,
    )
    assert not sl.verify_growth_bound(cert, 1.0)
    assert 0.5**7 < (1.0 / 16.0) * 1.125**7


def test_growth_bound_rejects_small_constant():
    cert = ExpansionCertificate(
        rates=np.array([2.0]), coefficients=np.array([0.5, 0.0]),
        products=np.array([1.0]),
    )
    with pytest.raises(ValueError):
        sl.verify_growth_bound(cert, 0.5)


def test_growth_bound_rejects_nan_constant(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    cert = sl.expansion_certificate(cat_sys, rec, rec.unstable_basis[:, 0])
    with pytest.raises(ValueError, match="constant must be >= 1"):
        sl.verify_growth_bound(cert, float("nan"))


# ---------------------------------------------------------------------------
# uniform constants


def test_constants_cat_map(cat_sys):
    recs = [
        sl.analyze_periodic_orbit(cat_sys, p, 2)
        for p in sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 2)
    ]
    const = sl.extract_uniform_constants(cat_sys, recs, 8)
    assert const.rate == pytest.approx(1.0 / GOLDEN, rel=1e-9)
    assert const.growth_constant == pytest.approx(1.0, rel=1e-9)


def test_constants_diagonal_tail():
    model = sl.jordan_model(block=None, tail=(2.0, 0.5), c=0.0)
    rec = sl.analyze_periodic_orbit(model.system, np.zeros(2), 1)
    const = sl.extract_uniform_constants(model.system, [rec], 6)
    assert const.rate == pytest.approx(0.5, rel=1e-12)
    assert const.growth_constant == pytest.approx(1.0, rel=1e-12)


def test_constants_self_consistency(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    const = sl.extract_uniform_constants(cat_sys, [rec], 4)
    # replay (H2.1)-style inequality with the returned constants on fresh vectors
    rng = np.random.default_rng(2)
    for _ in range(20):
        coeff = rng.standard_normal(1)
        v = rec.stable_basis @ coeff
        v /= np.linalg.norm(v)
        cur = v.copy()
        for j in range(1, 5):
            cur = rec.jacobians[0] @ cur
            assert np.linalg.norm(cur) <= const.growth_constant * const.rate**j + 1e-9


def test_constants_empty_input(cat_sys):
    with pytest.raises(ValueError):
        sl.extract_uniform_constants(cat_sys, [], 4)


def _unit_sphere_sample(dim: int, count: int):
    """Deterministic low-discrepancy sample of the unit sphere in R^dim."""
    if dim == 1:
        return np.array([[1.0]])
    raw = qmc.Halton(d=dim, scramble=False).random(count + 1)[1:]  # drop the origin-ish point
    gauss = norm.ppf(np.clip(raw, 1e-12, 1.0 - 1e-12))
    return gauss / np.linalg.norm(gauss, axis=1, keepdims=True)


def _sampled_stretches(records, horizon, samples):
    """g(0..horizon) from ``samples`` unit vectors of each subspace, every
    record and step on its own: stable vectors pushed forward through the
    Jacobians, unstable ones back through their inverses."""
    g = np.zeros(horizon + 1)
    g[0] = 1.0
    steps = np.arange(horizon)
    for record in records:
        m = record.period
        for basis, backward in ((record.stable_basis, False), (record.unstable_basis, True)):
            k = basis.shape[1]
            if k == 0:
                continue
            rows = (basis @ _unit_sphere_sample(k, samples).T).T
            if backward:
                jac_seq = np.linalg.inv(record.jacobians)[(m - 1 - steps) % m]
            else:
                jac_seq = record.jacobians[steps % m]
            for j in range(1, horizon + 1):
                rows = rows @ jac_seq[j - 1].T
                g[j] = max(g[j], float(np.max(np.linalg.norm(rows, axis=1))))
    return g


def _loop_uniform_constants(records, horizon):
    """The per-record fit: each record's frames from _frames, with no record
    skipped, its k x k factors one step at a time and their products kept as a
    mantissa times a power of two."""
    log_g = np.full(horizon + 1, -np.inf)
    log_g[0] = 0.0
    for record in records:
        m, jacobians = record.period, record.jacobians
        frames = hyperbolicity._frames(jacobians, record.stable_basis, record.unstable_basis)
        for basis, backward in zip(frames, (False, True)):
            if basis.shape[-1] == 0:
                continue
            factors = [basis[(i + 1) % m].T @ (jacobians[i] @ basis[i]) for i in range(m)]
            if backward:
                factors = [np.linalg.inv(f) for f in factors[::-1]]
            product, exponent = np.eye(basis.shape[-1]), 0
            for j in range(1, horizon + 1):
                product = factors[(j - 1) % m] @ product
                shift = math.frexp(np.abs(product).max())[1]
                product = product * math.ldexp(1.0, -shift)
                exponent += shift
                top = math.sqrt(np.linalg.eigvalsh(product.T @ product)[-1])
                log_g[j] = max(log_g[j], np.log2(top) + exponent)
    steps = np.arange(horizon + 1)
    lam = min(float(np.exp2(np.max(log_g[1:] / steps[1:]))), 1.0 - 1e-12)
    c = float(np.exp2(np.max(log_g - steps * math.log2(lam))))
    return sl.HyperbolicityConstants(growth_constant=c, rate=lam)


def _continued_orbits(toral, amplitude, periods, per_period):
    """Records of perturbed-torus orbits continued from enumerated points."""
    pert = sl.perturbed_toral(toral.matrix, amplitude)
    for m in periods:
        points = sl.enumerate_periodic_points_toral(toral.matrix, m)
        for point in points[:: max(1, len(points) // per_period)]:
            base = sl.orbit_segment(toral.system, point, 0, m - 1)
            sol = sl.find_periodic_shadow(pert, sl.make_pseudotrajectory(pert, base))
            assert sol.converged
            yield sl.analyze_periodic_orbit(pert, sol.orbit[0], m)


def _uniform_constant_cases():
    cat = sl.cat_map()
    records = [
        sl.analyze_periodic_orbit(cat.system, point, m)
        for m in range(1, 7)
        for point in sl.enumerate_periodic_points_toral(cat.matrix, m)
    ]
    order = np.random.default_rng(6).permutation(len(records))  # periods interleaved
    yield "cat-m1-6", cat.system, [records[i] for i in order]
    toral3 = sl.toral_automorphism([[-1, -1, -1], [2, 0, -1], [2, 1, 0]])
    records = [
        sl.analyze_periodic_orbit(toral3.system, point, m)
        for m in range(1, 4)
        for point in sl.enumerate_periodic_points_toral(toral3.matrix, m)
    ]
    yield "toral3-m1-3", toral3.system, records
    pert = sl.perturbed_toral(cat.matrix, 0.2)
    yield "perturbed-cat", pert, list(_continued_orbits(cat, 0.2, range(1, 6), 6))
    repeller = sl.jordan_model(block=None, tail=(2.0, 3.0), c=0.0)
    records = [sl.analyze_periodic_orbit(repeller.system, np.zeros(2), m) for m in (1, 2, 3)]
    yield "stable-side-empty", repeller.system, records
    for tail in ((2.0, 0.5), (3.0, 0.5, 0.25)):
        model = sl.jordan_model(block=None, tail=tail, c=0.0)
        zero = np.zeros(len(tail))
        records = [sl.analyze_periodic_orbit(model.system, zero, m) for m in (1, 2, 5, 1)]
        yield f"jordan-tail-{len(tail)}", model.system, records


def test_constants_stacked_equal_the_per_record_loop():
    names, splits = [], set()
    for name, sys_, records in _uniform_constant_cases():
        assert len(records) > 1, name
        for horizon in (1, 8):
            expected = _loop_uniform_constants(records, horizon)
            assert sl.extract_uniform_constants(sys_, records, horizon) == expected, name
        names.append(name)
        splits.update((r.stable_basis.shape[1], r.unstable_basis.shape[1]) for r in records)
    assert len(names) == 6
    assert splits == {(1, 1), (1, 2), (0, 2), (2, 1)}


def test_exact_stretches_bound_the_sampled_ones():
    """The fitted C lam^j bounds the stretch of every unit vector, so also the
    worst of 100 sampled ones; where every subspace is a line the sample is
    the basis vector itself, and the bound is reached."""
    lines = 0
    for name, sys_, records in _uniform_constant_cases():
        const = sl.extract_uniform_constants(sys_, records, 8)
        bound = const.growth_constant * const.rate ** np.arange(9)
        ratio = _sampled_stretches(records, 8, 100) / bound
        assert np.all(ratio <= 1.0 + 1e-12), name
        if all(max(r.stable_basis.shape[1], r.unstable_basis.shape[1]) == 1 for r in records):
            assert np.max(ratio) == pytest.approx(1.0, rel=1e-9), name
            lines += 1
    assert lines == 3


@pytest.mark.parametrize("tail", [(3.0, 0.5, 0.25), (2.0, 3.0)])
@pytest.mark.parametrize("horizon", [1, 8, 40, 800])
def test_constants_exact_rate_on_diagonal_models(tail, horizon):
    """A diagonal map contracts its stable (or inverse-unstable) subspace by
    exactly 0.5 per step at worst; a vector sample only reaches it from below."""
    model = sl.jordan_model(block=None, tail=tail, c=0.0)
    zero = np.zeros(len(tail))
    records = [sl.analyze_periodic_orbit(model.system, zero, m) for m in (1, 2, 5)]
    assert sl.extract_uniform_constants(model.system, records, horizon).rate == 0.5


def test_constants_hold_at_long_horizons(cat_sys):
    """Products of the k x k factors neither overflow nor lose the contraction,
    so the fit does not drift with the horizon."""
    cat = sl.cat_map()
    records = [
        sl.analyze_periodic_orbit(cat_sys, point, m)
        for m in range(1, 5)
        for point in sl.enumerate_periodic_points_toral(cat.matrix, m)
    ]
    for horizon in (20, 24, 40, 60, 800):
        const = sl.extract_uniform_constants(cat_sys, records, horizon)
        assert const.rate == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-14), horizon
        assert const.growth_constant == pytest.approx(1.0, rel=1e-12), horizon
    toral3 = sl.toral_automorphism([[-1, -1, -1], [2, 0, -1], [2, 1, 0]])
    records = [
        sl.analyze_periodic_orbit(toral3.system, point, m)
        for m in range(1, 4)
        for point in sl.enumerate_periodic_points_toral(toral3.matrix, m)
    ]
    expected = sl.extract_uniform_constants(toral3.system, records, 1)
    for horizon in (20, 60, 800):
        assert sl.extract_uniform_constants(toral3.system, records, horizon) == expected, horizon


def test_constants_reject_nonhyperbolic(linear_jordan2):
    record = sl.analyze_periodic_orbit(linear_jordan2.system, np.zeros(2), 1)
    with pytest.raises(sl.NonhyperbolicOrbitError, match="requires a hyperbolic orbit"):
        sl.extract_uniform_constants(linear_jordan2.system, [record], 4)


def test_constants_horizon_is_step_limited_before_transport(cat_sys, monkeypatch):
    record = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    monkeypatch.setattr(sl.hyperbolicity, "MAX_ITERATE_STEPS", 50)
    assert sl.extract_uniform_constants(cat_sys, [record], 50).rate == pytest.approx(1.0 / GOLDEN)

    def transport(*args):
        raise AssertionError("transported before the horizon check")

    monkeypatch.setattr(hyperbolicity, "_frames", transport)
    with pytest.raises(StepLimitError, match="horizon must be <= 50, got 51"):
        sl.extract_uniform_constants(cat_sys, [record], 51)


# ---------------------------------------------------------------------------
# splitting angles


def test_angle_orthogonal_split():
    model = sl.jordan_model(block=None, tail=(2.0, 0.5), c=0.0)
    rec = sl.analyze_periodic_orbit(model.system, np.zeros(2), 1)
    angles = sl.subspace_angle(rec)
    assert angles.minimum == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_angle_cat_map_from_eigenvectors(cat_sys):
    # explicit unit eigenvectors (1, (-1+sqrt 5)/2) and (1, (-1-sqrt 5)/2)
    e_u = np.array([1.0, (-1.0 + math.sqrt(5.0)) / 2.0])
    e_s = np.array([1.0, (-1.0 - math.sqrt(5.0)) / 2.0])
    cos_angle = abs(e_u @ e_s) / (np.linalg.norm(e_u) * np.linalg.norm(e_s))
    expected = math.sqrt(2.0 - 2.0 * cos_angle)
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    got = sl.subspace_angle(rec)
    assert got.minimum == pytest.approx(expected, rel=1e-12)
    assert got.minimum == pytest.approx(math.sqrt(2.0), rel=1e-12)  # eigenvectors orthogonal


def test_angle_constant_along_orbit(cat_sys):
    pts = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 4)
    rec = sl.analyze_periodic_orbit(cat_sys, pts[11], 4)
    angles = sl.subspace_angle(rec)
    assert np.max(angles.per_point) - np.min(angles.per_point) <= 1e-8


def _per_point_schur_angles(record):
    """The splitting gap from the monodromy based at each orbit point and its
    sorted real Schur forms (m products and two Schur forms per point)."""
    m, n = record.points.shape
    betas = np.empty(m)
    for i in range(m):
        monodromy = np.eye(n)
        for j in range(m):
            monodromy = record.jacobians[(i + j) % m] @ monodromy
        _, zs, ks = schur(monodromy, output="real", sort=lambda x, y: np.hypot(x, y) < 1.0)
        _, zu, ku = schur(monodromy, output="real", sort=lambda x, y: np.hypot(x, y) > 1.0)
        if ks == 0 or ku == 0:
            betas[i] = 2.0
            continue
        sigma = np.linalg.svd(zs[:, :ks].T @ zu[:, :ku], compute_uv=False)
        betas[i] = np.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, float(sigma[0]))))
    return betas


def _refined_orbits(toral, amplitude, periods):
    """Records of perturbed-torus orbits, refined from the automorphism's."""
    pert = sl.perturbed_toral(toral.matrix, amplitude)
    for m in periods:
        base = sl.toral_orbit_with_period(toral, m)
        sol = sl.find_periodic_shadow(pert, sl.make_pseudotrajectory(pert, base))
        assert sol.converged
        yield sl.analyze_periodic_orbit(pert, sol.orbit[0], m)


def _angle_records():
    cat = sl.cat_map()
    for m in range(1, 9):
        points = sl.enumerate_periodic_points_toral(cat.matrix, m)
        for point in points[:: max(1, len(points) // 24)]:
            yield f"cat-m{m}", sl.analyze_periodic_orbit(cat.system, point, m)
    toral3 = sl.toral_automorphism([[-1, -1, -1], [2, 0, -1], [2, 1, 0]])
    for m in range(1, 4):
        for point in sl.enumerate_periodic_points_toral(toral3.matrix, m):
            yield f"toral3-m{m}", sl.analyze_periodic_orbit(toral3.system, point, m)
    for record in _refined_orbits(cat, 0.05, range(1, 7)):
        yield f"perturbed-cat-m{record.period}", record
    for record in _refined_orbits(toral3, 0.05, range(1, 4)):  # 2-D unstable basis
        yield f"perturbed-toral3-m{record.period}", record
    jordan = sl.jordan_model(block=None, tail=(3.0, 0.5, 0.25), c=0)  # 2-D stable basis
    for m in (1, 2, 5):
        yield f"jordan-tail-m{m}", sl.analyze_periodic_orbit(jordan.system, np.zeros(3), m)
    # a non-normal map with an unstable complex pair of modulus 1.64
    linear = sl.linear_system([[1.2, -1.5, 0.4], [1.1, 0.9, 0.2], [0.3, 0.1, 0.4]])
    for m in (1, 2, 5):
        yield f"linear-complex-m{m}", sl.analyze_periodic_orbit(linear, np.zeros(3), m)


def _split_records(linear_jordan2):
    """Orbit records of cat, 3-D toral and linear maps, hyperbolic or not."""
    cat = sl.cat_map()
    records = []
    for m in range(1, 9):
        points = sl.enumerate_periodic_points_toral(cat.matrix, m)
        for point in points[:: max(1, len(points) // 40)]:
            records.append(sl.analyze_periodic_orbit(cat.system, point, m))
    toral3 = sl.toral_automorphism([[-1, -1, -1], [2, 0, -1], [2, 1, 0]])
    for m in range(1, 4):
        for point in sl.enumerate_periodic_points_toral(toral3.matrix, m):
            records.append(sl.analyze_periodic_orbit(toral3.system, point, m))
    linear = sl.linear_system([[1.2, -1.5, 0.4], [1.1, 0.9, 0.2], [0.3, 0.1, 0.4]])
    for m in (1, 2, 5):
        records.append(sl.analyze_periodic_orbit(linear, np.zeros(3), m))
    records.append(sl.analyze_periodic_orbit(linear_jordan2.system, np.zeros(2), 1))  # unit band
    assert {r.hyperbolic for r in records} == {True, False}
    return records


def _split_cases(linear_jordan2):
    """(monodromy, band) pairs: orbit records with their own band, and seeded
    random matrices of sizes 1..6 at both bands."""
    for record in _split_records(linear_jordan2):
        yield _monodromy(record), 0.0 if record.hyperbolic else hyperbolicity.UNIT_MODULUS_BAND
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for band in (0.0, hyperbolicity.UNIT_MODULUS_BAND):
            for _ in range(50):
                yield rng.standard_normal((n, n)), band


def test_split_basis_matches_scipy_schur(linear_jordan2, monkeypatch):
    callbacks = []
    monkeypatch.setattr(hyperbolicity, "_unsorted", lambda x, y: callbacks.append((x, y)))
    dims = set()
    for monodromy, band in _split_cases(linear_jordan2):
        t, z, eigenvalues = hyperbolicity._schur(monodromy)
        got = hyperbolicity._split_bases(t, z, np.abs(eigenvalues), band)
        for basis, select in zip(
            got,
            (lambda x, y: np.hypot(x, y) < 1.0 - band, lambda x, y: np.hypot(x, y) > 1.0 + band),
        ):
            _, z, sdim = schur(monodromy, output="real", sort=select)
            assert basis.shape == (monodromy.shape[0], sdim)
            assert basis.tobytes() == z[:, :sdim].tobytes()
            dims.add((monodromy.shape[0], sdim))
    assert callbacks == []  # gees sorts nothing itself
    assert {n for n, _ in dims} == set(range(1, 7))
    assert all((n, 0) in dims and (n, n) in dims for n in range(1, 7))


def test_multipliers_are_numpys_eigvals_bit_for_bit(linear_jordan2):
    # the record keeps gees's eigenvalues, sorted as eigvals' once were (numpy and
    # scipy each bundle an OpenBLAS; this assumes the two builds round alike)
    for record in _split_records(linear_jordan2):
        monodromy = _monodromy(record)
        assert np.array_equal(matrix_balance(monodromy, permute=False)[0], monodromy)
        expected = np.linalg.eigvals(monodromy)
        expected = expected[np.lexsort((expected.imag, expected.real, -np.abs(expected)))]
        assert record.multipliers.dtype == expected.dtype
        assert record.multipliers.tobytes() == expected.tobytes()
    # gees and eigvals' geev share dhseqr; geev alone also rescales the matrix by
    # powers of two (dgebal job 'B'), so the two agree bit for bit, in Schur order,
    # on the matrix geev balances to, which for the orbit monodromies above is B
    rescaled = 0
    for monodromy, _ in _split_cases(linear_jordan2):
        balanced = matrix_balance(monodromy, permute=False)[0]
        rescaled += not np.array_equal(balanced, monodromy)
        got = hyperbolicity._schur(balanced)[2]
        expected = np.linalg.eigvals(monodromy)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert rescaled > 0


def test_angle_transport_matches_per_point_schur():
    names, splits = set(), set()
    for name, record in _angle_records():
        got = sl.subspace_angle(record)
        expected = _per_point_schur_angles(record)
        assert got.per_point.shape == (record.period,)
        np.testing.assert_allclose(got.per_point, expected, rtol=0, atol=1e-12, err_msg=name)
        assert got.minimum == np.min(got.per_point)
        names.add(name)
        splits.add((record.stable_basis.shape[1], record.unstable_basis.shape[1]))
    assert len(names) == 8 + 3 + 6 + 3 + 3 + 3
    assert splits == {(1, 1), (1, 2), (2, 1)}


def _qr_solve_gaps(record):
    """Splitting gaps from the LAPACK transport: one QR factorisation per
    step, and one linear solve per step of the stable pullback."""
    m = record.period
    s_path = np.empty((m,) + record.stable_basis.shape)
    u_path = np.empty((m,) + record.unstable_basis.shape)
    s_path[0], u_path[0] = record.stable_basis, record.unstable_basis
    for i in range(1, m):
        u_path[i] = np.linalg.qr(record.jacobians[i - 1] @ u_path[i - 1])[0]
    for i in range(m - 1, 0, -1):
        s_path[i] = np.linalg.qr(np.linalg.solve(record.jacobians[i], s_path[(i + 1) % m]))[0]
    sigma = np.linalg.svd(np.swapaxes(s_path, -1, -2) @ u_path, compute_uv=False)
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.minimum(1.0, sigma[:, 0])))


def test_angle_transport_matches_qr_solve_transport():
    names = set()
    for name, record in _angle_records():
        got = sl.subspace_angle(record).per_point
        np.testing.assert_allclose(got, _qr_solve_gaps(record), rtol=0, atol=4.5e-16, err_msg=name)
        names.add(name.rsplit("-m", 1)[0])
    assert {"cat", "toral3", "perturbed-cat", "perturbed-toral3", "linear-complex"} <= names


def test_orthonormal_columns_of_nearly_parallel_stacks():
    rng = np.random.default_rng(7)
    first = rng.standard_normal((64, 3, 1))
    x = np.concatenate((first, first + 1e-6 * rng.standard_normal((64, 3, 1))), axis=-1)
    q = hyperbolicity._orthonormal_columns(x, np.empty_like(x))
    assert q.shape == x.shape
    gram = np.swapaxes(q, -1, -2) @ q
    assert np.max(np.linalg.norm(gram - np.eye(2), axis=(-2, -1))) <= 1e-14
    # Q spans x, and its first column is the first column of x scaled
    residual = x - q @ (np.swapaxes(q, -1, -2) @ x)
    assert np.max(np.linalg.norm(residual, axis=-2) / np.linalg.norm(x, axis=-2)) <= 1e-14
    assert np.allclose(q[..., :1] * np.linalg.norm(first, axis=-2, keepdims=True), first)


def _separate_carry_frames(jacobians, stable, unstable):
    """Stable and unstable frames, p_0 first, from two separate carries, each
    step's Gram-Schmidt result in a temporary copied into the path."""

    def gram_schmidt(x):
        q = np.empty_like(x)
        for j in range(x.shape[-1]):
            v = x[..., j : j + 1]
            if j:
                done = q[..., :j]
                for _ in range(2):
                    v = v - done @ (np.swapaxes(done, -1, -2) @ v)
            q[..., j : j + 1] = v / np.sqrt(np.swapaxes(v, -1, -2) @ v)
        return q

    def carry(maps, basis):
        path = np.empty((len(maps) + 1,) + basis.shape)
        path[0] = basis
        for i, a in enumerate(maps):
            path[i + 1] = gram_schmidt(a @ path[i])
        return path

    m = len(jacobians)
    u_path = carry(jacobians[: m - 1], unstable)
    s_back = carry(np.linalg.inv(jacobians[:0:-1]), stable)
    return np.concatenate((s_back[:1], s_back[:0:-1])), u_path


def _separate_carry_gaps(jacobians, stable, unstable):
    """Splitting gaps from the frames of _separate_carry_frames."""
    s_path, u_path = _separate_carry_frames(jacobians, stable, unstable)
    sigma = np.linalg.svd(np.swapaxes(s_path, -1, -2) @ u_path, compute_uv=False)
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.minimum(1.0, sigma[..., 0])))


def test_stacked_carry_equals_separate_carries_bit_for_bit():
    _, records = zip(*_angle_records())
    splits = set()
    for record in records:
        args = record.jacobians, record.stable_basis, record.unstable_basis
        got = sl.subspace_angle(record).per_point
        assert got.tobytes() == _separate_carry_gaps(*args).tobytes()
        for got, expected in zip(hyperbolicity._frames(*args), _separate_carry_frames(*args)):
            assert got.tobytes() == expected.tobytes()
        splits.add((record.stable_basis.shape[1], record.unstable_basis.shape[1]))
    assert splits == {(1, 1), (1, 2), (2, 1)}


def _norm_loop_certificate(record, v_u):
    """(rates, tau, coefficients, products, directions) from a step loop that
    indexes the Jacobians, normalises v_u with a second norm call and measures
    every rate with np.linalg.norm."""
    m = record.period
    rates = np.empty(m)
    directions = np.empty((m, len(v_u)))
    v = v_u / np.linalg.norm(v_u)
    for i in range(m):
        directions[i] = v
        w = record.jacobians[i] @ v
        rates[i] = np.linalg.norm(w)
        v = w / rates[i]
    coefficients = expansion_coefficients(rates)
    products = np.concatenate(([1.0], np.cumprod(rates[: m - 1])))
    return rates, coefficients[0], coefficients, products, directions


def test_certificate_equals_norm_loop_bit_for_bit():
    dims = set()
    for name, record in _angle_records():
        for v_u in (record.unstable_basis[:, 0], 3.0 * record.unstable_basis.sum(axis=1)):
            cert = sl.expansion_certificate(None, record, v_u)
            expected = _norm_loop_certificate(record, v_u)
            fields = ("rates", "tau", "coefficients", "products", "directions")
            for field, want in zip(fields, expected):
                got = np.asarray(getattr(cert, field))
                assert got.tobytes() == np.asarray(want).tobytes(), (name, field)
        dims.add(record.points.shape[1])
    assert dims == {2, 3}


def test_angle_one_side_empty_is_two_everywhere():
    model = sl.jordan_model(block=None, tail=(2.0, 3.0), c=0.0)
    angles = sl.subspace_angle(sl.analyze_periodic_orbit(model.system, np.zeros(2), 3))
    assert np.array_equal(angles.per_point, [2.0, 2.0, 2.0]) and angles.minimum == 2.0


def test_angle_rejects_nonhyperbolic(linear_jordan2):
    record = sl.analyze_periodic_orbit(linear_jordan2.system, np.zeros(2), 1)
    with pytest.raises(sl.NonhyperbolicOrbitError):
        sl.subspace_angle(record)


# ---------------------------------------------------------------------------
# periodic point enumeration


@pytest.mark.parametrize("m,count", [(1, 1), (2, 5), (3, 16), (4, 45)])
def test_enumeration_counts(m, count):
    mat = sl.cat_map().matrix
    pts = sl.enumerate_periodic_points_toral(mat, m)
    assert len(pts) == count
    d = _intmat.mat_sub(_intmat.mat_power(_intmat.int_matrix(mat), m), _intmat.identity(2))
    assert abs(_intmat.det(d)) == count


def test_enumeration_m1_is_the_fixed_point():
    pts = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 1)
    assert np.array_equal(pts, [[0.0, 0.0]])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumeration_exact_congruence_and_brute_force(m):
    mat = _intmat.int_matrix(sl.cat_map().matrix)
    power = _intmat.mat_power(mat, m)
    exact = sl.enumerate_periodic_points_exact(sl.cat_map().matrix, m)
    # every returned point satisfies M^m x = x (mod 1) in exact arithmetic
    for point in exact:
        image = tuple(
            (sum(Fraction(power[i][j]) * point[j] for j in range(2))) % 1 for i in range(2)
        )
        assert image == point
    # independent brute-force scan over the q-grid, q = |det(M^m - I)|
    d = _intmat.mat_sub(power, _intmat.identity(2))
    q = abs(_intmat.det(d))
    brute = set()
    for i in range(q):
        for j in range(q):
            v = (d[0][0] * i + d[0][1] * j, d[1][0] * i + d[1][1] * j)
            if v[0] % q == 0 and v[1] % q == 0:
                brute.add((Fraction(i, q), Fraction(j, q)))
    assert set(exact) == brute


def test_enumeration_sorted_deterministic():
    a = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 3)
    b = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 3)
    assert np.array_equal(a, b)
    keys = [tuple(p) for p in a]
    assert keys == sorted(keys)


def test_enumeration_degenerate():
    with pytest.raises(DegenerateMatrixError):
        sl.enumerate_periodic_points_toral([[0, 1], [-1, 0]], 4)  # rotation^4 = identity


# ---------------------------------------------------------------------------
# the enumerator against the rational algorithm it replaced


def fraction_enumeration_oracle(matrix, m):
    """Periodic points as first enumerated: each Smith-form counter vector
    y_i = c_i / s_i mapped through V in exact rationals, then sorted."""
    a = _intmat.int_matrix(matrix)
    n = len(a)
    d = _intmat.mat_sub(_intmat.mat_power(a, m), _intmat.identity(n))
    _, s, v = _intmat.smith_normal_form(d)
    orders = [s[i][i] for i in range(n)]
    points = []
    for counters in itertools.product(*(range(order) for order in orders)):
        y = [Fraction(c, order) for c, order in zip(counters, orders)]
        points.append(tuple(sum(Fraction(v[i][j]) * y[j] for j in range(n)) % 1 for i in range(n)))
    return sorted(points)


def minimal_period_start_oracle(matrix, m, points):
    """Lexicographically first point not fixed by M^div for a proper divisor div."""
    a = _intmat.int_matrix(matrix)
    powers = [_intmat.mat_power(a, div) for div in range(1, m) if m % div == 0]
    for candidate in points:
        images = (
            tuple(sum(Fraction(p[i][j]) * candidate[j] for j in range(len(a))) % 1
                  for i in range(len(a)))
            for p in powers
        )
        if all(image != candidate for image in images):
            return candidate
    return None


# 3x3 unimodular and hyperbolic; the first invariant factor of M^m - I is 2
# at m = 2, 4, 6 (for m = 2 the Smith diagonal is 2, 2, 8)
UNIMODULAR_3 = [[-1, -1, -1], [2, 0, -1], [2, 1, 0]]
# companion of the Salem polynomial x^4 - x^3 - x^2 - x + 1: two eigenvalues
# on the unit circle, so the count cap is always decided exactly
SALEM_4 = [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
# block sum of 2 1; 1 1 and 3 2; 1 1: Z/2 x Z/2 points at period 1
BLOCK_SUM_4 = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 2], [0, 0, 1, 1]]
ENUMERATION_CASES = [
    pytest.param(matrix, m, id=f"{name}-m{m}")
    for name, matrix, periods in (
        ("cat", [[2, 1], [1, 1]], range(1, 10)),
        ("3121", [[3, 1], [2, 1]], range(1, 7)),
        ("unimodular3", UNIMODULAR_3, range(1, 6)),
        ("salem4", SALEM_4, range(1, 7)),
        ("blocksum4", BLOCK_SUM_4, range(1, 3)),
    )
    for m in periods
]


@pytest.mark.parametrize("matrix,m", ENUMERATION_CASES)
def test_enumeration_matches_fraction_oracle(matrix, m):
    oracle = fraction_enumeration_oracle(matrix, m)
    assert sl.enumerate_periodic_points_exact(matrix, m) == oracle
    floats = np.array([[float(c) for c in p] for p in oracle])
    toral = sl.enumerate_periodic_points_toral(matrix, m)
    assert toral.dtype == floats.dtype and toral.tobytes() == floats.tobytes()
    start = minimal_period_start_oracle(matrix, m, oracle)
    if start is None:  # salem4 at period 3 has only the fixed point
        with pytest.raises(ValueError, match="no orbit of minimal period"):
            sl.toral_orbit_with_period(sl.toral_automorphism(matrix), m)
        return
    orbit = sl.toral_orbit_with_period(sl.toral_automorphism(matrix), m)
    assert orbit[0].tobytes() == np.array([float(c) for c in start]).tobytes()


def sorted_lattice_reference(matrix, m):
    """(k, e) as first built in int64: every Smith counter vector scaled by
    e / s_i through a meshgrid, mapped through V mod e by one int64 matmul,
    then sorted by lexsort."""
    a = _intmat.int_matrix(matrix)
    n = len(a)
    d = _intmat.mat_sub(_intmat.mat_power(a, m), _intmat.identity(n))
    _, s, v = _intmat.smith_normal_form(d)
    orders = [s[i][i] for i in range(n)]
    e = orders[-1]
    axes = [np.arange(order, dtype=np.int64) * (e // order) for order in orders]
    scaled = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    v_mod = np.array([[x % e for x in row] for row in v], dtype=np.int64)
    k = (scaled @ v_mod.T) % e
    return k[np.lexsort(k.T[::-1])], e


@pytest.mark.parametrize(
    "matrix,m",
    [
        pytest.param(matrix, m, id=f"{name}-m{m}")
        for name, matrix, periods in (
            ("cat", [[2, 1], [1, 1]], range(1, 14)),
            ("3211", [[3, 2], [1, 1]], range(1, 10)),
            ("5221", [[5, 2], [2, 1]], range(1, 9)),  # period 9 passes the cap
            ("unimodular3", UNIMODULAR_3, range(1, 9)),
            ("211110100", [[2, 1, 1], [1, 1, 0], [1, 0, 0]], range(1, 9)),
            ("salem4", SALEM_4, range(1, 16)),
            ("blocksum4", BLOCK_SUM_4, range(1, 6)),
        )
        for m in periods
    ],
)
def test_echelon_walk_matches_sorted_lattice(matrix, m):
    k, e = hyperbolicity._periodic_numerators(matrix, m)
    want, want_e = sorted_lattice_reference(matrix, m)
    assert e == want_e
    assert k.dtype == want.dtype and k.shape == want.shape
    assert np.array_equal(k, want)


def test_unimodular_3_smith_factor():
    d = _intmat.mat_sub(_intmat.mat_power(UNIMODULAR_3, 2), _intmat.identity(3))
    _, s, _ = _intmat.smith_normal_form(d)
    assert [s[i][i] for i in range(3)] == [2, 2, 8]


# ---------------------------------------------------------------------------
# count cap


def _peak_bytes(call):
    tracemalloc.start()
    try:
        with pytest.raises(TooManyPeriodicPointsError) as err:
            call()
        return tracemalloc.get_traced_memory()[1], err.value
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [20, 30])
@pytest.mark.parametrize(
    "enumerate_points",
    [sl.enumerate_periodic_points_exact, sl.enumerate_periodic_points_toral],
)
def test_enumeration_count_cap(m, enumerate_points):
    # 228,826,125 points at period 20, 3,461,452,808,000 at period 30
    peak, err = _peak_bytes(lambda: enumerate_points(sl.cat_map().matrix, m))
    assert peak < 1 << 20  # far below one int64 row per point: nothing allocated
    assert err.code == "too-many-points" and f"period {m} has" in str(err)


@pytest.mark.parametrize("m", [10300, 10**7])
def test_enumeration_cap_is_fast_at_huge_periods(m):
    # the exact count at period 10300 has over 4300 digits, past Python's
    # int-to-string limit, and M^m alone takes over a minute at 10^7
    start = time.perf_counter()
    with pytest.raises(TooManyPeriodicPointsError) as err:
        sl.enumerate_periodic_points_toral(sl.cat_map().matrix, m)
    assert time.perf_counter() - start < 1.0
    assert f"period {m} has at least 10^" in str(err.value)


def test_enumeration_cap_writes_long_exact_counts_as_a_magnitude():
    # eigenvalues on the unit circle: no float bound, the exact count decides
    with pytest.raises(TooManyPeriodicPointsError) as err:
        sl.enumerate_periodic_points_toral(SALEM_4, 20000)
    assert "period 20000 has about 10^4720.8 periodic points" in str(err.value)


def test_enumeration_keeps_exact_counts_for_defective_unit_eigenvalues():
    # companion of (x^2 + 1)^3: the float eigenvalues +-i miss the unit circle
    # by about 2e-6, which without their condition-number slack would claim
    # over 10^33 points at this period; |det(M^m - I)| = |i^m - 1|^6 = 8
    matrix = [[0, 0, 0, 0, 0, -1], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, -3],
              [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, -3], [0, 0, 0, 0, 1, 0]]
    m = 10**7 + 1
    points = sl.enumerate_periodic_points_exact(matrix, m)
    power = _intmat.mat_power(matrix, m)
    assert len(points) == 8
    for point in points:
        assert all(sum(c * x for c, x in zip(row, point)) % 1 == x for row, x in zip(power, point))


def test_enumeration_memory_at_period_15():
    n_points = 1860496
    tracemalloc.start()
    try:
        points = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (n_points, 2)
    assert peak < 3 * n_points * 2 * 8


def test_enumeration_cap_admits_period_15():
    mat = _intmat.int_matrix(sl.cat_map().matrix)
    d = _intmat.mat_sub(_intmat.mat_power(mat, 15), _intmat.identity(2))
    assert abs(_intmat.det(d)) == 1860496 <= MAX_PERIODIC_POINTS


def test_enumeration_int64_guard(monkeypatch):
    # period 50: e = 62,931,345,125 and 2 e^2 passes 2^63
    monkeypatch.setattr(hyperbolicity, "MAX_PERIODIC_POINTS", 2**200)
    peak, err = _peak_bytes(lambda: sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 50))
    assert peak < 1 << 20
    assert "int64" in str(err)
