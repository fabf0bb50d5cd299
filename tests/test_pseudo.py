import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowlab as sl
from shadowlab.errors import ConstraintViolatedError, NotAnOrbitError, StepLimitError
from shadowlab.pseudo import _real_block_coefficients

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# independent oracle: symbolic iteration of the unit-block recursion in exact
# integer arithmetic (pure python, no shadowlab code paths)


def block_witness_oracle(l, K):
    """One period of coefficient vectors of the driven unit Jordan block."""

    def step(c, axis, sign):
        nxt = [c[i] + (c[i + 1] if i + 1 < l else 0) for i in range(l)]
        nxt[axis] += sign
        return nxt

    c = [0] * l
    path = []
    for _ in range(K):
        path.append(c)
        c = step(c, l - 1, +1)
    for _ in range(K):
        path.append(c)
        c = step(c, l - 1, -1)
    for axis in range(l - 2, -1, -1):
        while c[axis] != 0:
            path.append(c)
            c = step(c, axis, -1)
    assert c == [0] * l
    return path


def list_loop_block_coefficients(l, K):
    """The unit-block coefficient path as first implemented: the block applied
    as a list matrix product at every step; returns (path, phase lengths)."""
    b = [[1 if i == j else (1 if j == i + 1 else 0) for j in range(l)] for i in range(l)]
    c = [0] * l
    coeffs, lengths = [], []

    def apply(axis, sign, count):
        nonlocal c
        for _ in range(count):
            coeffs.append(c[:])
            c = [sum(b[i][j] * c[j] for j in range(l)) for i in range(l)]
            c[axis] += sign
        lengths.append(count)

    apply(l - 1, +1, K)
    apply(l - 1, -1, K)
    for axis in range(l - 2, -1, -1):
        apply(axis, -1, c[axis])
    return coeffs, lengths


def rotation_step_loop(model, d, k_steps, w0=(1.0, 0.0)):
    """The rotation witness as first implemented: the block applied to the
    point at every step plus an impulse d (cos, sin) in the driven plane,
    re-aimed by atan2 at each retired plane; returns (points, phase lengths)."""
    w0 = np.asarray(w0, dtype=float) / np.linalg.norm(w0)
    theta, planes, a = model.theta, model.size, model.matrix
    alpha0 = math.atan2(w0[1], w0[0])
    y = np.zeros(model.dim)
    pts, lengths = [], []

    def drive(plane, sign, count, angle_at):
        nonlocal y
        for i in range(count):
            pts.append(y.copy())
            step = np.zeros(model.dim)
            step[2 * plane] = sign * d * math.cos(angle_at(i))
            step[2 * plane + 1] = sign * d * math.sin(angle_at(i))
            y = a @ y + step
        lengths.append(count)

    last = planes - 1
    drive(last, +1.0, k_steps, lambda i: alpha0 + i * theta)
    drive(last, -1.0, k_steps, lambda i: alpha0 + (k_steps + i) * theta)
    for plane in range(planes - 2, -1, -1):
        z = y[2 * plane : 2 * plane + 2]
        alpha = math.atan2(z[1], z[0])
        drive(plane, -1.0, int(round(np.linalg.norm(z) / d)), lambda i: alpha + (i + 1) * theta)
    return np.array(pts), lengths


# ---------------------------------------------------------------------------
# defect


def test_defect_fixed_point(cat_sys):
    assert sl.defect(cat_sys, [[0.0, 0.0]]) == 0.0


def test_defect_hand_value(cat_sys):
    # gaps: dist((0,0)->(0.01,0)) = 0.01 and dist((0.02,0.01),(0,0)) = sqrt(5)*0.01
    d = sl.defect(cat_sys, [[0.0, 0.0], [0.01, 0.0]])
    assert d == pytest.approx(math.sqrt(0.0005), rel=1e-12)


def test_defect_single_point(cat_sys):
    x = np.array([0.3, 0.1])
    assert sl.defect(cat_sys, [x]) == pytest.approx(
        cat_sys.space.dist(sl.evaluate(cat_sys, x, 1), x)
    )


# ---------------------------------------------------------------------------
# staircase witness


def test_staircase_values():
    model = sl.jordan_model(block="real", size=1, tail=(2.0, 0.5), c=0.0)
    xi, meta = sl.witness_eigenvalue_one(model, 0.1, 4)
    assert meta.period == 8 and xi.period == 8
    assert np.allclose(xi.points[4], [0.2, 0.0, 0.0])  # peak K d / 2
    assert xi.points[0] @ xi.points[0] == 0.0
    assert xi.defect == pytest.approx(0.05, rel=1e-12)


def test_staircase_size_constraint():
    model = sl.jordan_model(block="real", size=1, c=0.0, a_ball=0.5)
    with pytest.raises(ConstraintViolatedError):
        sl.witness_eigenvalue_one(model, 0.1, 10)  # K d = 1.0 >= 2 a_ball


def test_staircase_core_ball_check_only_when_nonlinear():
    lin = sl.jordan_model(block="real", size=1, c=0.0, a_ball=0.01, halfwidth=100.0)
    with pytest.raises(ConstraintViolatedError):
        sl.witness_eigenvalue_one(lin, 0.01, 3)  # K d = 0.03 >= 2 a_ball still enforced
    big = sl.jordan_model(block="real", size=1, c=0.0, a_ball=10.0, halfwidth=100.0)
    xi, _ = sl.witness_eigenvalue_one(big, 0.01, 3)
    assert xi.defect == pytest.approx(0.005)


# ---------------------------------------------------------------------------
# size-2 and general unit-block witnesses


def test_jordan_witness_k2_matches_oracle(linear_jordan2):
    d = 0.5
    xi, meta = sl.witness_jordan(linear_jordan2, d, 2)
    oracle = block_witness_oracle(2, 2)
    assert meta.period == len(oracle) == 8
    assert np.array_equal(xi.points, d * np.array(oracle, dtype=float))
    assert meta.params["Z1"] == 1 and meta.params["Z2"] == 4
    assert np.allclose(xi.points[2], [d, 2 * d])  # y_2 = (Z1 d, K d)
    assert np.allclose(xi.points[4], [4 * d, 0.0])  # y_2K = (Z2 d, 0)


@pytest.mark.parametrize("K", [1, 2, 3, 5, 13, 50, 100])
def test_jordan_witness_structure_constants(linear_jordan2, K):
    d = 1e-6
    xi, meta = sl.witness_jordan(linear_jordan2, d, K)
    assert meta.params["Z1"] == K * (K - 1) // 2
    assert meta.params["Z2"] == K * K
    assert meta.period == 2 * K + K * K
    assert xi.points[K][1] == K * d  # exact product of int and float
    oracle = d * np.array(block_witness_oracle(2, K), dtype=float)
    assert np.array_equal(xi.points, oracle)


@pytest.mark.parametrize("l", [2, 3])
def test_block_coefficients_match_list_loop(l):
    for K in range(1, 13):
        coeffs, lengths = _real_block_coefficients(l, K)
        oracle, oracle_lengths = list_loop_block_coefficients(l, K)
        assert coeffs.dtype == np.int64
        assert coeffs.tolist() == oracle
        assert lengths == oracle_lengths
        if l == 2:
            model = sl.jordan_model(block="real", size=2, c=0.0)
            _, meta = sl.witness_jordan(model, 1e-6, K)
            assert meta.params["Y"] == max(math.hypot(*c) for c in oracle)


def test_jordan_witness_defect_linear(linear_jordan2):
    xi, _ = sl.witness_jordan(linear_jordan2, 1e-4, 10)
    assert xi.defect == pytest.approx(1e-4, rel=1e-9)


def test_jordan_witness_step_vectors_unit(linear_jordan2):
    # every gap vector has magnitude exactly d: independent check from points
    d, K = 1e-3, 4
    xi, _ = sl.witness_jordan(linear_jordan2, d, K)
    a = linear_jordan2.matrix
    q = xi.period
    for i in range(q):
        gap = xi.points[(i + 1) % q] - a @ xi.points[i]
        assert np.linalg.norm(gap) == pytest.approx(d, rel=1e-9)


def test_jordan_witness_nonlinear_core_check(nonlinear_jordan2):
    with pytest.raises(ConstraintViolatedError):
        sl.witness_jordan(nonlinear_jordan2, 1e-3, 100)  # peak K^2 d = 10 > a_ball
    xi, _ = sl.witness_jordan(nonlinear_jordan2, 1e-5, 25)  # peak 0.00625 < 0.5
    assert xi.defect == pytest.approx(1e-5, rel=1e-9)


def test_jordan_general_matches_size2(linear_jordan2):
    d, K = 1e-4, 7
    xi_a, _ = sl.witness_jordan(linear_jordan2, d, K)
    xi_b, _ = sl.witness_jordan_general(linear_jordan2, d, K)
    assert np.array_equal(xi_a.points, xi_b.points)


def test_jordan_general_l1():
    model = sl.jordan_model(block="real", size=1, c=0.0)
    d, K = 1e-3, 6
    xi, meta = sl.witness_jordan_general(model, d, K)
    assert meta.period == 2 * K
    assert xi.points[K][0] == K * d  # peak K d with steps of size d


def test_jordan_general_l3_oracle():
    model = sl.jordan_model(block="real", size=3, c=0.0)
    d, K = 1.0, 2
    xi, meta = sl.witness_jordan_general(model, d, K)
    oracle = block_witness_oracle(3, 2)
    assert meta.period == len(oracle)
    assert np.array_equal(xi.points, np.array(oracle, dtype=float))
    assert xi.points[K][2] == K * d  # top coordinate peaks at K d


def test_unit_block_witness_over_the_step_limit_is_a_typed_error(linear_jordan2):
    # Q = 2 K + K^2 = 10 004 568: every coefficient is below the limit, the period is not
    with pytest.raises(StepLimitError, match="period over"):
        sl.witness_jordan(linear_jordan2, 1e-12, 3162)
    with pytest.raises(StepLimitError, match="retirement count"):
        sl.witness_jordan(linear_jordan2, 1e-12, 100000)
    with pytest.raises(StepLimitError, match="retirement count"):
        sl.witness_jordan_general(sl.jordan_model(block="real", size=10, c=0.0), 1e-12, 2)
    rot = sl.jordan_model(block="rotation", size=10, theta=0.3, c=0.0)
    with pytest.raises(StepLimitError):
        sl.witness_rotation(rot, 1e-12, 2)


def test_jordan_witness_rejects_wrong_block():
    rot = sl.jordan_model(block="rotation", size=1, theta=0.5, c=0.0)
    with pytest.raises(ValueError):
        sl.witness_jordan(rot, 1e-3, 5)
    minus = sl.jordan_model(block="real", size=2, eigenvalue=-1, c=0.0)
    with pytest.raises(ValueError):
        sl.witness_jordan(minus, 1e-3, 5)


# ---------------------------------------------------------------------------
# rotation witness


def test_rotation_theta_zero_reduces_to_real_case():
    rot = sl.jordan_model(block="rotation", size=1, theta=0.0, c=0.0)
    d, K = 1e-3, 5
    xi, meta = sl.witness_rotation(rot, d, K)
    assert meta.period == 2 * K
    assert np.linalg.norm(xi.points[K]) == pytest.approx(K * d, rel=1e-12)


def test_rotation_peak_and_steps():
    theta = 0.7
    rot = sl.jordan_model(block="rotation", size=1, theta=theta, c=0.0)
    d, K = 1e-4, 25
    xi, meta = sl.witness_rotation(rot, d, K)
    peaks = np.linalg.norm(xi.points, axis=1)
    assert np.max(peaks) == pytest.approx(K * d, rel=1e-9)
    # independent oracle: accumulate K aligned unit impulses under isometric rotation
    r = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    y = np.zeros(2)
    w = np.array([1.0, 0.0])
    for k in range(K):
        y = r @ y + d * np.linalg.matrix_power(r, k) @ w
    assert np.allclose(xi.points[K], y, atol=1e-15)
    # every step is a unit impulse scaled by d
    a = rot.matrix
    q = xi.period
    for i in range(q):
        gap = xi.points[(i + 1) % q] - a @ xi.points[i]
        assert np.linalg.norm(gap) == pytest.approx(d, rel=1e-9)


def test_rotation_header_writes_plain_floats(tmp_path):
    rot = sl.jordan_model(block="rotation", size=2, theta=0.3)
    xi, _ = sl.witness_rotation(rot, 1e-5, 10, w0=(2.0, 0.0))
    sl.save_pseudotrajectory(xi, tmp_path / "w.csv")
    header = (tmp_path / "w.csv").read_text().splitlines()[1]
    assert "w0=1.0 0.0" in header.split(",", 3)[3].split(";")


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, math.pi, 2.5])
def test_rotation_two_planes_period(theta):
    rot = sl.jordan_model(block="rotation", size=2, theta=theta, c=0.0)
    d, K = 1e-4, 4
    xi, meta = sl.witness_rotation(rot, d, K)
    # retirement counts match the real-block case for every angle
    assert meta.period == 2 * K + K * K
    assert xi.defect == pytest.approx(d, rel=1e-9)


ROTATION_CASES = [
    (planes, K)
    for planes in (1, 2, 3)
    for K in (1, 2, 5, 10, 25)
    if planes < 3 or K <= 10
]


@pytest.mark.parametrize("planes,K", ROTATION_CASES)
def test_rotation_matches_the_step_loop(planes, K):
    d = 1e-4
    for theta in (0.0, 0.3, 0.7, math.pi / 2, math.pi, 2.5, -1.1):
        model = sl.jordan_model(block="rotation", size=planes, theta=theta, c=0.0)
        for w0 in ((1.0, 0.0), (2.0, 0.0), (0.3, -0.8)):
            xi, meta = sl.witness_rotation(model, d, K, w0)
            oracle, lengths = rotation_step_loop(model, d, K, w0)
            assert meta.period == xi.period == len(oracle)
            assert meta.params["phase_lengths"] == " ".join(str(v) for v in lengths)
            peak = np.max(np.linalg.norm(oracle, axis=1))
            assert np.max(np.abs(xi.points - oracle)) <= 1e-10 * peak
            assert xi.defect == pytest.approx(d, rel=1e-9)


def test_rotation_three_plane_steps_are_exactly_d():
    # the step loop's gaps drift by 1e-7 d here; the integer path keeps them at d
    model = sl.jordan_model(block="rotation", size=3, theta=0.3, c=0.0)
    d = 1e-4
    xi, _ = sl.witness_rotation(model, d, 10)
    gaps = np.roll(xi.points, -1, axis=0) - xi.points @ model.matrix.T
    assert np.max(np.abs(np.linalg.norm(gaps, axis=1) - d)) <= 1e-11 * d


def test_rotation_four_planes_close():
    # the step loop does not close here: its float retirement leaves y_Q far from 0
    model = sl.jordan_model(block="rotation", size=4, theta=0.3, c=0.0)
    d = 1e-4
    xi, meta = sl.witness_rotation(model, d, 6)
    coeffs, lengths = _real_block_coefficients(4, 6)
    assert meta.period == len(coeffs) == 381660
    assert meta.params["phase_lengths"] == " ".join(str(v) for v in lengths)
    assert xi.defect == pytest.approx(d, rel=1e-9)


# ---------------------------------------------------------------------------
# orbit displacement (pullback) witness


def test_pullback_cat_fixed_point(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    v_u = rec.unstable_basis[:, 0]
    xi, meta, cert = sl.witness_orbit_pullback(cat_sys, [0.0, 0.0], 1, v_u, 1e-5)
    assert cert.tau == pytest.approx(1.0 / GOLDEN, rel=1e-12)
    assert abs(cert.coefficients[1]) <= 1e-12
    assert meta.period == 1 * (meta.params["n_pullback"] + 1)
    assert xi.defect <= 4e-5


def test_pullback_displacement_estimate(cat_sys):
    # |w_{i+1} - A_i w_i| < 2 along the whole periodic sequence
    pts = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 3)
    p = pts[5]
    rec = sl.analyze_periodic_orbit(cat_sys, p, 3)
    xi, meta, cert = sl.witness_orbit_pullback(cat_sys, p, 3, rec.unstable_basis[:, 0], 1e-6)
    w = cert.displacement
    q = len(w)
    for i in range(q):
        a_i = rec.jacobians[i % 3]
        gap = np.linalg.norm(w[(i + 1) % q] - a_i @ w[i])
        assert gap < 2.0


def test_pullback_coefficient_positivity(cat_sys):
    pts = sl.enumerate_periodic_points_toral(sl.cat_map().matrix, 4)
    p = pts[7]
    rec = sl.analyze_periodic_orbit(cat_sys, p, 4)
    _, _, cert = sl.witness_orbit_pullback(cat_sys, p, 4, rec.unstable_basis[:, 0], 1e-6)
    assert abs(cert.coefficients[4]) <= 1e-9
    assert np.all(cert.coefficients[:4] > 0.0)


def test_pullback_displacement_matches_pushed_unit_loop(cat_sys):
    # oracle: push the unit unstable vector along the orbit again, as the
    # witness once did itself; the certificate's directions must equal it bit for bit
    cat = sl.cat_map()
    cases = []
    for m in (1, 3, 5):
        cases += [(cat_sys, p, m) for p in sl.enumerate_periodic_points_toral(cat.matrix, m)[1:3]]
    pert = sl.perturbed_toral(cat.matrix, 0.05)  # Jacobians vary along the orbit
    for m in (2, 4):
        base = sl.make_pseudotrajectory(pert, sl.toral_orbit_with_period(cat, m))
        cases.append((pert, sl.find_periodic_shadow(pert, base).orbit[0], m))
    for sys_, p, m in cases:
        rec = sl.analyze_periodic_orbit(sys_, p, m)
        v_u = 3.0 * rec.unstable_basis[:, 0]
        _, _, cert = sl.witness_orbit_pullback(sys_, p, m, v_u, 1e-6)
        units = [v_u / np.linalg.norm(v_u)]
        for i in range(1, m):
            w = rec.jacobians[i - 1] @ units[i - 1]
            units.append(w / np.linalg.norm(w))
        assert np.array_equal(cert.directions, np.array(units))
        assert np.array_equal(cert.displacement[:m], cert.coefficients[:m, None] * cert.directions)
        for i in range(m):
            assert np.array_equal(cert.displacement[i], cert.coefficients[i] * units[i])


def test_pullback_rejects_nonhyperbolic():
    model = sl.jordan_model(block="real", size=2, c=0.0)
    with pytest.raises(sl.NonhyperbolicOrbitError):
        sl.witness_orbit_pullback(model.system, np.zeros(2), 1, np.array([1.0, 0.0]), 1e-5)


def test_pullback_rejects_stable_vector(cat_sys):
    rec = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1)
    with pytest.raises(sl.VectorNotUnstableError):
        sl.witness_orbit_pullback(cat_sys, [0.0, 0.0], 1, rec.stable_basis[:, 0], 1e-5)


def _pullback_orbits():
    cat = sl.cat_map()
    toral3 = sl.toral_automorphism([[-1, -1, -1], [2, 0, -1], [2, 1, 0]])  # 2-D unstable
    yield cat, np.zeros(2), 1
    yield cat, sl.enumerate_periodic_points_toral(cat.matrix, 3)[5], 3
    yield cat, sl.enumerate_periodic_points_toral(cat.matrix, 6)[7], 6
    yield toral3, np.zeros(3), 1
    yield toral3, sl.enumerate_periodic_points_toral(toral3.matrix, 3)[4], 3


@pytest.mark.parametrize("n_pullback", [1, 14, 40, 100, 300])
def test_pullback_stays_within_2_at_depth(n_pullback):
    # a pullback through the whole monodromy grows the rounding in the stable
    # direction by B^-1 until it overflows; in unstable coordinates it has none
    d = 1e-6
    for toral, p, m in _pullback_orbits():
        rec = sl.analyze_periodic_orbit(toral.system, p, m)
        xi, meta, cert = sl.witness_orbit_pullback(
            toral.system, p, m, rec.unstable_basis[:, 0], d, n_pullback
        )
        assert meta.params["n_pullback"] == n_pullback
        assert meta.period == xi.period == m * (n_pullback + 1)
        assert xi.defect <= 2 * d
        w = cert.displacement
        pushed = np.einsum("qij,qj->qi", np.tile(rec.jacobians, (n_pullback + 1, 1, 1)), w)
        assert np.max(np.linalg.norm(np.roll(w, -1, axis=0) - pushed, axis=1)) < 2.0


def _pushed_tail(rec, cert, n):
    """The displacement as the witness once built it: B^-n tau e_0 from n solves
    in unstable coordinates, then pushed forward one Jacobian per step."""
    m, u = rec.period, rec.unstable_basis
    image = u
    for a in rec.jacobians:
        image = a @ image
    restriction = u.T @ image
    coords = u.T @ (cert.tau * cert.directions[0])
    for _ in range(n):
        coords = np.linalg.solve(restriction, coords)
    w = np.empty((m * (n + 1), u.shape[0]))
    w[:m] = cert.coefficients[:m, None] * cert.directions
    w[m] = u @ coords
    for i in range(m, len(w) - 1):
        w[i + 1] = rec.jacobians[i % m] @ w[i]
    return w


@pytest.mark.parametrize("n_pullback", [1, 2, 5, 40])
def test_pullback_displacement_matches_the_forward_push(n_pullback):
    for toral, p, m in _pullback_orbits():
        rec = sl.analyze_periodic_orbit(toral.system, p, m)
        _, meta, cert = sl.witness_orbit_pullback(
            toral.system, p, m, rec.unstable_basis[:, 0], 1e-6, n_pullback
        )
        expected = _pushed_tail(rec, cert, meta.params["n_pullback"])
        w = cert.displacement
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-12 * np.max(np.abs(w)))


def test_deep_pullback_stops_solving_at_underflow(cat_sys, monkeypatch):
    v_u = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1).unstable_basis[:, 0]
    solve, calls = np.linalg.solve, []

    def counted(a, b):
        calls.append(None)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    n = 100_000
    xi, meta, cert = sl.witness_orbit_pullback(cat_sys, [0.0, 0.0], 1, v_u, 1e-5, n)
    assert meta.period == xi.period == n + 1
    # tau phi^-2i underflows to exactly 0 at the 774th pullback
    assert 700 <= len(calls) <= 800
    # period r of the tail holds depth n - r: the deepest rows are exactly 0, the
    # ones the solves reached before the last (which gave 0) are not
    w, depth = cert.displacement, len(calls) - 1
    assert not w[1 : n - depth + 1].any()
    assert np.all(w[n - depth + 1 :].any(axis=1))
    assert xi.defect <= 2e-5


def test_pullback_that_cannot_shrink_is_a_typed_error():
    # the multiplier 1.00001^10 ~ 1.0001 is hyperbolic, but tau ~ 10 needs about
    # 23000 pullbacks to fall below 1, far past MAX_PULLBACK_TRIES
    weak = sl.linear_system(np.diag([1.00001, 0.5]))
    rec = sl.analyze_periodic_orbit(weak, np.zeros(2), 10)
    assert rec.hyperbolic
    with pytest.raises(sl.PullbackFailedError):
        sl.witness_orbit_pullback(weak, np.zeros(2), 10, rec.unstable_basis[:, 0], 1e-5)


def test_pullback_period_is_bounded(cat_sys, monkeypatch):
    v_u = sl.analyze_periodic_orbit(cat_sys, [0.0, 0.0], 1).unstable_basis[:, 0]
    with pytest.raises(StepLimitError, match="depth 1000000000"):
        sl.witness_orbit_pullback(cat_sys, [0.0, 0.0], 1, v_u, 1e-5, 10**9)
    # a depth raised past the requested one meets the limit as well
    monkeypatch.setattr(sl.pseudo, "MAX_ITERATE_STEPS", 50)
    weak = sl.linear_system(np.diag([1.00001, 0.5]))
    with pytest.raises(StepLimitError, match="period 10 and depth 5 "):
        sl.witness_orbit_pullback(weak, np.zeros(2), 10, np.array([1.0, 0.0]), 1e-5)


# ---------------------------------------------------------------------------
# splices


def test_splice_exact_orbit(cat_sys):
    orbit = sl.orbit_segment(cat_sys, [0.2, 0.4], 0, 4)  # not periodic, one junction
    xi = sl.splice_cycle(cat_sys, [orbit])
    expected = cat_sys.space.dist(sl.evaluate(cat_sys, orbit[-1], 1), orbit[0])
    assert xi.defect == pytest.approx(expected, rel=1e-12)


def test_splice_true_periodic_orbit(cat_sys):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 2)
    xi = sl.splice_cycle(cat_sys, [orbit])
    assert xi.defect <= 1e-12


def test_splice_rejects_non_orbit(cat_sys):
    with pytest.raises(NotAnOrbitError):
        sl.splice_cycle(cat_sys, [np.array([[0.1, 0.1], [0.9, 0.9]])])


@pytest.mark.parametrize("rows,row", [(3, 0), (3, 1), (3, 2), (1, 0)])
def test_splice_rejects_a_nan_row(cat_sys, rows, row):
    segment = sl.orbit_segment(cat_sys, [0.2, 0.4], 0, rows - 1)
    segment[row, 1] = float("nan")
    with pytest.raises(NotAnOrbitError, match="segment 1 holds a non-finite value"):
        sl.splice_cycle(cat_sys, [np.zeros((1, 2)), segment])


def test_splice_rejects_a_nan_interior_gap():
    # a finite point whose image overflows: the gap is nan, and nan fails the check
    sys = sl.perturbed_toral([[2, 1], [1, 1]], amplitude=0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotAnOrbitError, match="interior gap nan"):
            sl.splice_cycle(sys, [np.array([[1e308, 0.0], [0.0, 0.0]])])


def test_homoclinic_splice_contraction(cat_sys):
    p = sl.homoclinic_point(sl.cat_map())
    assert np.allclose(p, [1.0 / math.sqrt(5.0), (math.sqrt(5.0) - 1.0) / (2.0 * math.sqrt(5.0))])
    defects = []
    for k in (2, 4, 8, 16):
        fwd = sl.orbit_segment(cat_sys, p, 0, k - 1)
        bwd = sl.orbit_segment(cat_sys, p, -k, -1)
        xi = sl.splice_cycle(cat_sys, [fwd, bwd])
        defects.append(xi.defect)
    assert all(b < a for a, b in zip(defects, defects[1:]))
    # junction gaps contract roughly at the stable rate per extra step
    assert defects[2] / defects[1] < (1.0 / GOLDEN) ** 2


# ---------------------------------------------------------------------------
# noise helper and serialization


def test_perturb_orbit_defect(cat_sys):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 5)
    d = 1e-4
    xi = sl.perturb_orbit(cat_sys, orbit, d, seed=11)
    assert 0.0 < xi.defect <= (GOLDEN + 1.0) * d
    for i in range(5):
        assert cat_sys.space.dist(xi.points[i], orbit[i]) <= d


def test_perturb_orbit_deterministic(cat_sys):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 5)
    a = sl.perturb_orbit(cat_sys, orbit, 1e-3, seed=7)
    b = sl.perturb_orbit(cat_sys, orbit, 1e-3, seed=7)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("d", [-1e-3, float("nan")])
def test_perturb_orbit_rejects_negative_and_nan_sizes(cat_sys, d):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 5)
    with pytest.raises(ValueError, match="d must be >= 0"):
        sl.perturb_orbit(cat_sys, orbit, d)


NAN_WITNESSES = {
    "staircase": lambda: sl.witness_eigenvalue_one(
        sl.jordan_model(block="real", size=2, c=0.0), float("nan"), 3
    ),
    "jordan": lambda: sl.witness_jordan(
        sl.jordan_model(block="real", size=2, c=0.0), float("nan"), 3
    ),
    "jordan-general": lambda: sl.witness_jordan_general(
        sl.jordan_model(block="real", size=3, c=0.0), float("nan"), 3
    ),
    "rotation": lambda: sl.witness_rotation(
        sl.jordan_model(block="rotation", size=1, theta=0.7, c=0.0), float("nan"), 3
    ),
    "pullback": lambda: sl.witness_orbit_pullback(
        sl.cat_map().system, [0.0, 0.0], 1, [1.0, GOLDEN - 2.0], float("nan")
    ),
}


@pytest.mark.parametrize("kind", sorted(NAN_WITNESSES))
def test_witnesses_reject_a_nan_step(kind):
    with pytest.raises(ValueError, match="d > 0|d must be positive"):
        NAN_WITNESSES[kind]()


def test_save_load_round_trip(tmp_path, cat_sys, linear_jordan2):
    xi, _ = sl.witness_jordan(linear_jordan2, 1e-4, 7)
    path = tmp_path / "w.csv"
    sl.save_pseudotrajectory(xi, path)
    loaded = sl.load_pseudotrajectory(path, linear_jordan2.system)
    assert np.array_equal(loaded.points, xi.points)
    assert loaded.defect == xi.defect
    assert loaded.kind == xi.kind
    # second save is byte-identical
    path2 = tmp_path / "w2.csv"
    sl.save_pseudotrajectory(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "kind, params",
    [("a,b", {}), ("a\nb", {}), ("a\rb", {}), ("custom", {"k=v": 1.0}),
     ("custom", {"k": "a;b"}), ("custom", {"k,": 1}), ("custom", {"k": "a\nb"})],
)
def test_save_rejects_what_would_not_load_back(tmp_path, cat_sys, kind, params):
    xi = sl.make_pseudotrajectory(cat_sys, [[0.1, 0.2]], kind=kind, params=params)
    path = tmp_path / "xi.csv"
    with pytest.raises(ValueError, match="contains a reserved character"):
        sl.save_pseudotrajectory(xi, path)
    assert not path.exists()


def test_load_rejects_a_wrong_column_count(tmp_path, cat_sys):
    xi = sl.make_pseudotrajectory(sl.linear_system(np.eye(3), halfwidth=10.0), [[0.1, 0.2, 0.3]])
    path = tmp_path / "xi.csv"
    sl.save_pseudotrajectory(xi, path)
    with pytest.raises(ValueError, match="have 3 columns, the system has dimension 2"):
        sl.load_pseudotrajectory(path, cat_sys)


def test_load_rejects_rows_past_q(tmp_path, cat_sys):
    path = tmp_path / "xi.csv"
    path.write_text("Q,defect,kind,params\n2,0.0,custom,\n0.1,0.2\n0.3,0.4\n\n\n")
    assert sl.load_pseudotrajectory(path, cat_sys).points.shape == (2, 2)  # trailing blanks
    path.write_text("Q,defect,kind,params\n2,0.0,custom,\n0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n")
    with pytest.raises(ValueError, match="expected 2 points, found 4"):
        sl.load_pseudotrajectory(path, cat_sys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_a_non_finite_value(tmp_path, cat_sys, value):
    path = tmp_path / "xi.csv"
    path.write_text(f"Q,defect,kind,params\n2,0.0,custom,\n0.1,0.2\n{value},0.2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: the points hold a non-finite")):
        sl.load_pseudotrajectory(path, cat_sys)


@given(
    st.integers(1, 12),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_random_points(tmp_path_factory, q, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(q, n))
    space_sys = sl.linear_system(np.eye(n), halfwidth=10.0)
    xi = sl.make_pseudotrajectory(space_sys, pts)
    path = tmp_path_factory.mktemp("rt") / "xi.csv"
    sl.save_pseudotrajectory(xi, path)
    loaded = sl.load_pseudotrajectory(path, space_sys)
    assert np.array_equal(loaded.points, xi.points)
