import itertools
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag, eig, schur
from scipy.stats import norm, qmc

import shadowlab as sl
from shadowlab import _intmat
from shadowlab import hyperbolicity
from shadowlab.errors import (
    DegenerateMatrixError,
    LostPrecisionError,
    NotAnOrbitError,
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
    # a NaN point is never taken for periodic: the walk rejects it at the start
    with pytest.raises(NotAnOrbitError, match="start point holds a non-finite value"):
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
    # the splitting scales it down before taking a norm
    model = sl.jordan_model(block=None, tail=(3.0, 0.5, 0.25), c=0)
    with np.errstate(over="raise"):
        rec = sl.analyze_periodic_orbit(model.system, np.zeros(3), 330)
    assert rec.hyperbolic and rec.index == 1
    assert np.abs(rec.multipliers[0]) == pytest.approx(3.0**330, rel=1e-12)


def test_subnormal_monodromy_is_analysed():
    # 2^-1070 is subnormal: the splitting scales it up by an exact power of two,
    # so its residual check sees entries in [1/2, 1)
    model = sl.jordan_model(block=None, tail=(0.5, 0.5), c=0)
    with np.errstate(over="raise"):
        rec = sl.analyze_periodic_orbit(model.system, np.zeros(2), 1070)
    assert rec.hyperbolic and rec.index == 0


@pytest.mark.parametrize("m", [3, 330])
def test_invariance_check_rejects_a_tilted_basis(m, monkeypatch):
    # the deflation's unstable column turned by 0.7 rad: the splitting either
    # refines it back to rounding level or is lost, never returned tilted; at
    # m = 330 the norm of the monodromy overflows, which once made the residual
    # bound infinite and let any basis through
    deflation = hyperbolicity._deflation
    turn = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    turned = []

    def tilted(a, w, count, largest):
        q = deflation(a, w, count, largest)
        if largest:
            turned.append(count)
            q = q.copy()
            q[:, [0, count]] = q[:, [0, count]] @ turn
        return q

    monkeypatch.setattr(hyperbolicity, "_deflation", tilted)
    model = sl.jordan_model(block=None, tail=(3.0, 0.5, 0.25), c=0)
    try:
        rec = sl.analyze_periodic_orbit(model.system, np.zeros(3), m)
    except LostPrecisionError:
        rec = None
    assert turned == [1]
    if rec is None:
        return
    b = _monodromy(rec)
    b = np.ldexp(b, -hyperbolicity._binary_exponent(b))
    assert _residual(b, rec.unstable_basis) <= 2.0 * hyperbolicity.SPLIT_RESIDUAL_TOL


def test_period_12_keeps_its_multipliers(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 12)
    assert rec.hyperbolic and rec.index == 1
    assert np.abs(rec.multipliers[0]) == pytest.approx(GOLDEN**12, rel=1e-12)


def _residual(b, basis):
    """||B V - V V^T B V||_F for an orthonormal V."""
    image = b @ basis
    return np.linalg.norm(image - basis @ (basis.T @ image))


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


def _count_splits(monkeypatch):
    """The shape of each Jacobian stack the splitting memo computes for."""
    calls = []
    split = hyperbolicity._splitting.compute

    def counted(jacs):
        calls.append(jacs.shape)
        return split(jacs)

    monkeypatch.setattr(hyperbolicity._splitting, "compute", counted)
    return calls


def test_one_splitting_per_jacobian_stack(cat_sys, monkeypatch):
    calls = _count_splits(monkeypatch)
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
    calls = _count_splits(monkeypatch)
    sl.witness_orbit_pullback(sys_, point, 3, record.unstable_basis[:, 0], 1e-5)
    assert calls == []


def test_shared_record_arrays_are_read_only(cat_sys):
    record = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    for shared in (record.multipliers, record.stable_basis, record.unstable_basis):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0


def test_lost_precision_is_raised_on_every_call(cat_sys, monkeypatch):
    calls = _count_splits(monkeypatch)
    for _ in range(2):
        with pytest.raises(LostPrecisionError):
            sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 40)
    assert calls == [(40, 2, 2)] * 2 and hyperbolicity._splitting.last is None


def test_splitting_memo_keeps_the_last_stack_only(monkeypatch):
    model = sl.jordan_model(block=None, tail=(2.0, 0.5), c=0.0)
    calls = _count_splits(monkeypatch)
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


def test_records_of_one_period_share_one_read_only_stack(cat_sys):
    points = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 5)
    records = [sl.analyze_periodic_orbit(cat_sys, p, 5) for p in points]
    stack = records[0].jacobians
    assert len(records) == 121 and all(r.jacobians is stack for r in records)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.0


def test_record_points_are_a_compact_array_of_their_own(cat_sys):
    for m in (1, 5):
        point = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, m)[-1]
        record = sl.analyze_periodic_orbit(cat_sys, point, m)
        assert record.points.shape == (m, 2) and record.points.flags.owndata
        assert record.points.flags.c_contiguous and record.points.flags.writeable


# ---------------------------------------------------------------------------
# the certificate memo


def _count_certificates(monkeypatch):
    """The shape of each Jacobian stack the certificate memo computes for."""
    calls = []
    certify = hyperbolicity._certificate.compute

    def counted(jacs, v_u):
        calls.append(jacs.shape)
        return certify(jacs, v_u)

    monkeypatch.setattr(hyperbolicity._certificate, "compute", counted)
    return calls


def _cat_orbits():
    """(point, period) of all 3554 cat periodic points of periods 1 to 8, in
    period order."""
    matrix = sl.cat_map().matrix
    return [(p, m) for m in range(1, 9) for p in sl.enumerate_periodic_points_toral(matrix, m)]


def _certified(sys_, point, m):
    record = sl.analyze_periodic_orbit(sys_, point, m)
    return record, sl.expansion_certificate(sys_, record, record.unstable_basis[:, 0])


def test_reset_memos_empties_the_certificate_memo(cat_sys, monkeypatch):
    _certified(cat_sys, np.zeros(2), 1)
    assert hyperbolicity._certificate.last is not None
    reset_memos(monkeypatch)
    assert hyperbolicity._certificate.last is None


def test_pullback_takes_its_certificate_from_the_memo(cat_sys, monkeypatch):
    record, cert = _certified(cat_sys, np.zeros(2), 1)
    calls = _count_certificates(monkeypatch)
    v_u = record.unstable_basis[:, 0]
    pulled = sl.witness_orbit_pullback(cat_sys, np.zeros(2), 1, v_u, 1e-5)[2]
    assert calls == [] and pulled.rates is cert.rates and pulled.directions is cert.directions


def test_one_certificate_per_period_on_cat(cat_sys, monkeypatch):
    calls = _count_certificates(monkeypatch)
    certs = [_certified(cat_sys, p, m)[1] for p, m in _cat_orbits()]
    assert len(certs) == 3554 and calls == [(m, 2, 2) for m in range(1, 9)]


def test_warm_certificates_equal_cold_ones_bit_for_bit(cat_sys, monkeypatch):
    cases = [(cat_sys, p, m) for p, m in _cat_orbits()]
    # the period-3 cat orbit through (1/2, 0) is an orbit of the perturbed map too,
    # with a Jacobian stack of its own
    cases.append((sl.perturbed_toral(sl.cat_map().matrix, 0.1), np.array([0.5, 0.0]), 3))
    cold = []
    for case in cases:
        reset_memos(monkeypatch)
        cold.append([field_bytes(x) for x in _certified(*case)])
    reset_memos(monkeypatch)
    # each case twice in a row: the first may reuse the previous case's
    # entries, the second reads its own
    warm = [[[field_bytes(x) for x in _certified(*case)] for _ in range(2)] for case in cases]
    assert warm == [[c, c] for c in cold]


def test_certificates_of_one_stack_are_one_read_only_object(cat_sys):
    points = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 3)
    certs = [_certified(cat_sys, p, 3)[1] for p in points]
    assert len(certs) == 16 and all(c is certs[0] for c in certs)
    for shared in (certs[0].rates, certs[0].coefficients, certs[0].products,
                   certs[0].directions):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0


def test_certificate_checks_run_on_a_warm_memo(cat_sys, monkeypatch):
    record, cert = _certified(cat_sys, np.zeros(2), 1)
    v_u = record.unstable_basis[:, 0]
    calls = _count_certificates(monkeypatch)
    # hand-built records on the memoised stack and vector: each is checked
    # against its own flag and basis
    with pytest.raises(sl.NonhyperbolicOrbitError):
        sl.expansion_certificate(cat_sys, replace(record, hyperbolic=False), v_u)
    with pytest.raises(sl.VectorNotUnstableError, match="does not lie in the unstable"):
        sl.expansion_certificate(cat_sys, replace(record, unstable_basis=record.stable_basis), v_u)
    assert sl.expansion_certificate(cat_sys, record, v_u) is cert and calls == []


def test_telescoping_failure_is_raised_on_every_call(monkeypatch):
    # rates 1e-150 three times, then 1e150 four times along e_1: a_0 overflows
    rates = [1e-150] * 3 + [1e150] * 4
    jacs = np.array([np.diag([r, 1.0]) for r in rates])
    e = np.eye(2)
    record = hyperbolicity.PeriodicOrbitRecord(
        7, None, jacs, np.array([1e150, 1.0]), 1, True, e[:, 1:], e[:, :1]
    )
    calls = _count_certificates(monkeypatch)
    for _ in range(2):
        with pytest.raises(LostPrecisionError, match="telescoping failure"):
            sl.expansion_certificate(None, record, e[0])
    assert len(calls) == 2 and hyperbolicity._certificate.last is None


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
    with pytest.raises(LostPrecisionError, match="telescoping failure"):
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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda s: sl.analyze_periodic_orbit(s, [0.0, 0.0], 0), "period must be >= 1"),
        (lambda s: sl.enumerate_periodic_points_exact([[2, 1], [1, 1]], 0), "period must be >= 1"),
        (lambda s: sl.enumerate_periodic_points_toral([[2, 1], [1, 1]], 0), "period must be >= 1"),
        (
            lambda s: sl.extract_uniform_constants(
                s, [sl.analyze_periodic_orbit(s, [0.0, 0.0], 1)], 0
            ),
            "horizon must be >= 1",
        ),
    ],
    ids=["analysis", "exact", "toral", "horizon"],
)
def test_periods_and_horizons_below_one_are_rejected(cat_sys, call, message):
    with pytest.raises(ValueError, match=message):
        call(cat_sys)


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


def _jordan(eigenvalue, size):
    return eigenvalue * np.eye(size) + np.eye(size, k=1)


def _defective_cases():
    """Defective and non-normal monodromies, each also conjugated by a seeded
    orthogonal matrix: Jordan blocks with an unstable and a stable eigenvalue,
    upper-triangular 2 x 2 matrices with off-diagonal entries up to 1e6, and
    splittings with a central part of unit modulus."""
    blocks = [(_jordan(u, ku), _jordan(s, ks))
              for u in (2.0, 3.0, -2.0) for s in (0.5, -0.25, 0.1)
              for ku in (1, 2, 3) for ks in (1, 2, 3)]
    blocks += [(np.array([[a, c], [0.0, b]]),)
               for a, b in ((1.5, 0.4), (0.4, 1.5), (-2.0, 0.5), (0.25, -3.0))
               for c in (1.0, 1e2, 1e4, 1e6)]
    rotation = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    blocks += [(_jordan(2.0, 2), [[1.0]], [[0.5]]), (rotation, [[3.0]], [[0.2]]),
               (_jordan(1.0, 2), [[2.0]], _jordan(0.5, 2)), (2.0 * rotation, [[-1.0]]),
               (_jordan(-1.0, 2), 0.5 * rotation), ([[1.0]], _jordan(3.0, 3))]
    rng = np.random.default_rng(12)
    for parts in blocks:
        matrix = block_diag(*parts)
        q = np.linalg.qr(rng.standard_normal(matrix.shape))[0]
        yield matrix
        yield q @ matrix @ q.T


def _non_normal_cases():
    """Seeded upper-triangular matrices of sizes 4 to 6 with eigenvalues among
    0.3, 0.5, 2, 3 and -1.7 and entries above the diagonal up to 1e2, 1e3 and
    1e4 in size, each also orthogonally conjugated."""
    rng = np.random.default_rng(13)
    for magnitude in (2, 3, 4):
        for _ in range(100):
            n = rng.integers(4, 7)
            t = np.triu(rng.standard_normal((n, n)) * 10.0 ** rng.uniform(0, magnitude, (n, n)), 1)
            t[np.diag_indices(n)] = rng.choice([0.3, 0.5, 2.0, 3.0, -1.7], n)
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            yield t
            yield q @ t @ q.T


def _kernel_basis(monodromy, band, stable):
    """One side's basis as _split_monodromy takes it at ``band``, and its
    invariance residual on B 2^shift (max entry in [1/2, 1)), which the
    kernel brings to SPLIT_RESIDUAL_TOL, measured here once more, where the
    measurement adds its own rounding; and relative to |B|_F."""
    w = np.linalg.eigvals(monodromy)
    moduli = np.abs(w)
    w = w[np.lexsort((w.imag, w.real, -moduli))]
    count = int(np.sum(moduli < 1.0 - band if stable else moduli > 1.0 + band))
    shift = -hyperbolicity._binary_exponent(monodromy)
    b = np.ldexp(monodromy, shift)
    basis = hyperbolicity._invariant_basis(b, w, shift, count, stable)
    residual = _residual(b, basis)
    assert residual <= 2.0 * hyperbolicity.SPLIT_RESIDUAL_TOL
    return basis, residual / np.linalg.norm(b)


def _sorted_schur(monodromy, band, stable):
    """One side's leading sorted Schur vectors, their invariance residual and
    the separation of the two diagonal blocks T11, T22 (the smallest singular
    value of X -> T22 X - X T11), both relative to |B|_F."""
    if stable:
        select = lambda x, y: np.hypot(x, y) < 1.0 - band  # noqa: E731
    else:
        select = lambda x, y: np.hypot(x, y) > 1.0 + band  # noqa: E731
    t, z, k = schur(monodromy, output="real", sort=select)
    n, scale, z = len(t), np.linalg.norm(monodromy), z[:, :k]
    sylvester = np.kron(np.eye(k), t[k:, k:]) - np.kron(t[:k, :k].T, np.eye(n - k))
    sep = np.linalg.svd(sylvester, compute_uv=False)[-1] if 0 < k < n else math.inf
    image = monodromy @ z
    return z, np.linalg.norm(image - z @ (z.T @ image)) / scale, sep / scale


def _projector_gap(x, y):
    return np.linalg.norm(x @ x.T - y @ y.T, 2)


def test_split_bases_span_the_sorted_schur_subspaces(linear_jordan2):
    # each basis is an orthonormal basis of the subspace the leading sorted Schur
    # vectors span, not those vectors themselves
    dims = set()
    cases = list(_split_cases(linear_jordan2))
    cases += [(b, hyperbolicity.UNIT_MODULUS_BAND) for b in _defective_cases()]
    for monodromy, band in cases:
        for stable in (True, False):
            basis, residual = _kernel_basis(monodromy, band, stable)
            z = _sorted_schur(monodromy, band, stable)[0]
            assert basis.shape == z.shape
            assert _projector_gap(basis, z) <= 1e-13 and residual <= 1e-12
            dims.add(z.shape)
    assert len(cases) == 978 + 206
    assert {n for n, _ in dims} == set(range(1, 7))
    assert all((n, 0) in dims and (n, n) in dims for n in range(1, 7))


def test_non_normal_splittings_are_backward_stable_or_lost():
    # off-diagonal entries of 1e3 and 1e4 make the splitting ill-conditioned:
    # each basis is then an exact invariant subspace of a matrix within its
    # residual of B, as sorted Schur vectors are, so the two differ by about
    # their residuals over the separation of the sides; a splitting that
    # Newton steps cannot bring to that residual is lost to rounding, and
    # there the separation is below 1e-9 |B|_F, so that Schur vectors, too,
    # are off by eps / 1e-9 or more
    compared = lost = 0
    for monodromy in _non_normal_cases():
        for stable in (True, False):
            z, schur_residual, sep = _sorted_schur(monodromy, 0.0, stable)
            try:
                basis, residual = _kernel_basis(monodromy, 0.0, stable)
            except LostPrecisionError:
                assert sep <= 1e-9
                lost += 1
                continue
            if basis.shape != z.shape:  # sorting moved a lost multiplier across the circle
                assert sep <= 1e-9
                continue
            assert _projector_gap(basis, z) <= 4.0 * (residual + schur_residual) / sep + 1e-14
            compared += 1
    assert compared >= 1150 and lost > 0


def test_newton_steps_refine_what_deflation_leaves(monkeypatch):
    def lost_sides():
        count = 0
        for monodromy in _non_normal_cases():
            for stable in (True, False):
                try:
                    _kernel_basis(monodromy, 0.0, stable)
                except LostPrecisionError:
                    count += 1
        return count

    refined = lost_sides()
    monkeypatch.setattr(hyperbolicity, "NEWTON_STEPS", 0)
    assert lost_sides() >= refined + 10


def test_deflation_rejects_a_count_that_splits_a_conjugate_pair():
    # eigenvalues 3 and 2 +- 2i: after 3 the pair is deflated whole, one past
    # the count of 2.  The splitting counts a pair's equal moduli together, so
    # only a count at odds with the spectrum reaches this guard
    a = block_diag([[3.0]], [[2.0, -2.0], [2.0, 2.0]])
    with pytest.raises(LostPrecisionError, match="conjugate pair straddles the splitting"):
        hyperbolicity._deflation(a, 3 + 0j, 2, True)
    assert hyperbolicity._deflation(a, 3 + 0j, 3, True).shape == (3, 3)


def test_multipliers_are_numpys_eigvals_bit_for_bit(linear_jordan2):
    for record in _split_records(linear_jordan2):
        expected = np.linalg.eigvals(_monodromy(record))
        expected = expected[np.lexsort((expected.imag, expected.real, -np.abs(expected)))]
        assert record.multipliers.dtype == expected.dtype
        assert record.multipliers.tobytes() == expected.tobytes()


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
    k, e = hyperbolicity._periodic_numerators(hyperbolicity._periodic_count(matrix, m)[0], m)
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
    [
        sl.enumerate_periodic_points_exact,
        sl.enumerate_periodic_points_toral,
        # the cap names period m before a lower period is enumerated
        pytest.param(
            lambda matrix, m: sl.toral_orbit_with_period(sl.toral_automorphism(matrix), m),
            id="toral_orbit_with_period",
        ),
    ],
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


def test_eigenvalue_conditions_match_scipys_left_and_right_eigenvectors():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        for _ in range(20):
            matrix = rng.standard_normal((n, n))
            w, kappa = hyperbolicity._eigenvalue_conditions(matrix)
            expected, left, right = eig(matrix, left=True, right=True)
            np.testing.assert_allclose(w, expected, rtol=1e-13)
            np.testing.assert_allclose(kappa, 1.0 / np.abs(np.sum(left.conj() * right, axis=0)),
                                       rtol=1e-8)


@pytest.mark.parametrize("matrix", [[[0, 1], [0, 0]], [[2, 1, 0], [0, 2, 1], [0, 0, 2]]])
def test_eigenvalue_conditions_of_a_defective_matrix_give_the_trivial_bound(matrix):
    # numpy's eigenvectors of a Jordan block are (nearly) parallel: kappa is huge or inf
    _, kappa = hyperbolicity._eigenvalue_conditions(np.array(matrix, dtype=float))
    assert np.all(kappa > 1e15)
    assert hyperbolicity._log_count_lower_bound(matrix, 100) == -math.inf


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
