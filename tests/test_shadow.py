import math
import re
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import shadowlab as sl
from shadowlab import cli, hyperbolicity, shadow
from shadowlab.errors import NonhyperbolicMonodromyError, OrbitEscapeError, SingularJacobianError
from shadowlab.shadow import _cyclic_matrix

from conftest import field_bytes, random_hyperbolic_matrix, reset_memos

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0
PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# closed-form linear solve


def test_closed_form_zero_gaps():
    z = sl.closed_form_linear_shadow([[2.0, 1.0], [1.0, 1.0]], np.zeros((6, 2)))
    assert np.allclose(z, 0.0, atol=1e-14)


def test_closed_form_scalar_q1():
    z = sl.closed_form_linear_shadow([[2.0]], [[1.0]])
    assert z[0, 0] == pytest.approx(-1.0, rel=1e-14)


def test_closed_form_self_substitution_cat():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    gaps = np.array([[1e-3, 0.0], [0.0, 0.0]])
    z = sl.closed_form_linear_shadow(a, gaps)
    for i in range(2):
        residual = z[(i + 1) % 2] - a @ z[i] - gaps[i]
        assert np.linalg.norm(residual) < 1e-12


def test_closed_form_self_substitution_random():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, 20))
        a = random_hyperbolic_matrix(rng, n)
        gaps = rng.normal(scale=1e-3, size=(q, n))
        z = sl.closed_form_linear_shadow(a, gaps)
        scale = max(1.0, np.max(np.abs(z)))
        for i in range(q):
            residual = z[(i + 1) % q] - a @ z[i] - gaps[i]
            assert np.linalg.norm(residual) < 1e-10 * scale


def test_closed_form_rejects_nonhyperbolic():
    with pytest.raises(NonhyperbolicMonodromyError):
        sl.closed_form_linear_shadow([[1.0, 1.0], [0.0, 1.0]], np.zeros((3, 2)))


def test_closed_form_names_the_singular_mode_when_the_power_overflows():
    # A^Q overflows, so no guard on I - A^Q could see the unit multiplier; the
    # resolvent omega_0 I - A = diag(0, 1 - 1e200) is singular and is named
    with pytest.raises(NonhyperbolicMonodromyError, match="at angle 2 pi 0/2"):
        sl.closed_form_linear_shadow(np.diag([1.0, 1e200]), np.zeros((2, 2)))


@pytest.mark.parametrize(
    "tail,q,constant",
    # A^Q overflows at Q = 400, and at Q = 100 ||(I - A^Q)^-1|| ~ 1e11 is
    # below the bound, yet the mode at omega_0 = 1 has constant ~ 1e14 / 1e13
    [((1.0 + 1e-14, 10.0), 400, "1.00e+14"), ((1.0 + 1e-13, 2.0), 100, "1.00e+13")],
)
def test_closed_form_guards_every_mode(tail, q, constant):
    gaps = np.random.default_rng(0).normal(scale=1e-3, size=(q, 2))
    message = re.escape(f"{constant} exceeds 1e12 at angle 2 pi 0/{q}")
    with pytest.raises(NonhyperbolicMonodromyError, match=message):
        sl.closed_form_linear_shadow(np.diag(tail), gaps)


def test_closed_form_survives_monodromy_overflow():
    # 2^2000 overflows float, but the periodic solve itself is well posed
    a = np.diag([2.0, 0.5])
    gaps = np.zeros((2000, 2))
    gaps[0] = [1e-3, 1e-3]
    z = sl.closed_form_linear_shadow(a, gaps)
    for i in (0, 1, 2, 1999):
        residual = z[(i + 1) % 2000] - a @ z[i] - gaps[i]
        assert np.linalg.norm(residual) < 1e-12


# ---------------------------------------------------------------------------
# theoretical bound


def test_bound_scalar_cases():
    assert sl.theoretical_linear_lipschitz_bound([[2.0]], 4) == pytest.approx(1.0)
    assert sl.theoretical_linear_lipschitz_bound([[0.5]], 4) == pytest.approx(2.0)


def test_bound_is_inf_without_a_warning_at_a_root_of_unity_eigenvalue():
    # RuntimeWarnings are errors under the suite's filterwarnings
    assert sl.theoretical_linear_lipschitz_bound(np.eye(2), 4) == math.inf


def test_linear_oracles_reject_empty_periods():
    a = [[2.0, 1.0], [1.0, 1.0]]
    for q in (0, -1):
        with pytest.raises(ValueError, match="period must be >= 1"):
            sl.theoretical_linear_lipschitz_bound(a, q)
    with pytest.raises(ValueError, match="period must be >= 1"):
        sl.closed_form_linear_shadow(a, np.zeros((0, 2)))


def test_bound_cat_q8_brute_force():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    got = sl.theoretical_linear_lipschitz_bound(a, 8)
    roots = [np.exp(2j * np.pi * k / 8) for k in range(8)]
    brute = max(
        1.0 / np.linalg.svd(w * np.eye(2) - a, compute_uv=False)[-1] for w in roots
    )
    assert got == pytest.approx(brute, rel=1e-12)
    assert got == pytest.approx(PHI, rel=1e-12)  # the worst root is omega = 1


# ---------------------------------------------------------------------------
# Newton shadow solver


def _cyclic_matrix_oracle(jacobians):
    """The former triple loop: COO triples in block, row, column order,
    identity entry before -A_i entry, explicit zeros kept."""
    q, n, _ = jacobians.shape
    rows, cols, vals = [], [], []
    eye = np.eye(n)
    for i in range(q):
        r0 = i * n
        c_next = ((i + 1) % q) * n
        for a in range(n):
            for b in range(n):
                rows.append(r0 + a)
                cols.append(c_next + b)
                vals.append(eye[a, b])
                rows.append(r0 + a)
                cols.append(i * n + b)
                vals.append(-jacobians[i][a, b])
    size = q * n
    return scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))


@pytest.mark.parametrize(
    "q,n",
    [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (5, 1), (7, 2), (4, 3), (12, 2), (33, 3),
     (1000, 2)],
)
def test_cyclic_matrix_matches_triple_loop(q, n):
    rng = np.random.default_rng(q * 10 + n)
    jacobians = rng.normal(size=(q, n, n))
    jacobians[0, 0, 0] = 0.0  # an exact zero, negated to -0.0 in the triples
    if n > 1:
        jacobians[-1, 0, 1] = 1.0  # cancels an identity entry at q = 1
    got, want = _cyclic_matrix(jacobians), _cyclic_matrix_oracle(jacobians)
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)
    assert got.indices.dtype == want.indices.dtype and got.indptr.dtype == want.indptr.dtype
    # a broadcast constant Jacobian, as linear systems return it
    cat = sl.cat_map().system
    constant = cat.jacobian(np.zeros((q, 2)))
    got, want = _cyclic_matrix(constant), _cyclic_matrix_oracle(constant)
    assert got.data.tobytes() == want.data.tobytes()


def _per_point_sup(sys_, orbit, points):
    """The former sup: one ``dist`` call per point."""
    return max(sys_.space.dist(orbit[i], points[i]) for i in range(len(points)))


def _rolled_minimal_period(sys_, orbit, tol=1e-8):
    """The former minimal period: one ``np.roll`` per divisor of Q."""
    q = orbit.shape[0]
    for cand in range(1, q + 1):
        if q % cand:
            continue
        shifts = np.linalg.norm(sys_.space.diff(np.roll(orbit, -cand, axis=0), orbit), axis=1)
        if np.all(shifts <= tol):
            return cand
    return q


def _shadow_cases(cat):
    rng = np.random.default_rng(2024)
    for q in (12, 24, 36, 60):
        for n in (1, 2, 3, 4):
            lin = sl.linear_system(random_hyperbolic_matrix(rng, n))
            yield lin, sl.make_pseudotrajectory(lin, rng.normal(scale=0.01, size=(q, n)))
        for m in (1, 2, 3, 4, 6):  # noise on an orbit run Q/m times round: period m
            orbit = sl.toral_orbit_with_period(cat, m)
            yield cat.system, sl.perturb_orbit(cat.system, np.tile(orbit, (q // m, 1)), 1e-6, q)
    for m in range(1, 7):
        for point in sl.enumerate_periodic_points_toral(cat.matrix, m)[:4]:
            record = sl.analyze_periodic_orbit(cat.system, point, m)
            v_u = record.unstable_basis[:, 0]
            yield cat.system, sl.witness_orbit_pullback(cat.system, point, m, v_u, 1e-5)[0]
    # the shadow of [p] under 2I is exactly 0, so the sup is |p|, and
    # np.linalg.norm(d, axis=1) rounds |(2e-4, 5e-4)| one ulp away from np.linalg.norm(d[0])
    double = sl.linear_system(2.0 * np.eye(2))
    yield double, sl.make_pseudotrajectory(double, [[2e-4, 5e-4]])


def test_shadow_solution_matches_per_point_loops(cat):
    for sys_, xi in _shadow_cases(cat):
        sol = sl.find_periodic_shadow(sys_, xi)
        assert sol.converged
        sup = _per_point_sup(sys_, sol.orbit, xi.points)
        assert sol.sup_distance == sup
        assert sol.ratio == sup / xi.defect
        assert sol.minimal_period == _rolled_minimal_period(sys_, sol.orbit)


def test_exact_orbit_returns_immediately(cat_sys):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 2)
    xi = sl.make_pseudotrajectory(cat_sys, orbit)
    sol = sl.find_periodic_shadow(cat_sys, xi)
    assert sol.iterations == 0
    assert sol.sup_distance == 0.0
    assert sol.converged and sol.ratio == 0.0
    assert sol.minimal_period == 2


def test_solver_matches_oracle_on_linear_systems():
    rng = np.random.default_rng(4242)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, 33))
        a = random_hyperbolic_matrix(rng, n)
        lin = sl.linear_system(a)
        pts = rng.normal(scale=0.01, size=(q, n))
        xi = sl.make_pseudotrajectory(lin, pts)
        sol = sl.find_periodic_shadow(lin, xi)
        assert sol.converged
        gaps = np.stack([pts[(i + 1) % q] - a @ pts[i] for i in range(q)])
        oracle = pts - sl.closed_form_linear_shadow(a, gaps)
        assert np.max(np.abs(oracle - sol.orbit)) < 1e-9


def test_solver_ratio_below_linear_ceiling():
    rng = np.random.default_rng(7)
    a = random_hyperbolic_matrix(rng, 3)
    lin = sl.linear_system(a)
    for q in (1, 2, 5, 16, 32):
        pts = rng.normal(scale=1e-3, size=(q, 3))
        xi = sl.make_pseudotrajectory(lin, pts)
        sol = sl.find_periodic_shadow(lin, xi)
        ceiling = sl.theoretical_linear_lipschitz_bound(a, q)
        assert sol.ratio <= ceiling + 1e-9


def test_solver_cat_perturbed_fixed_point(cat_sys):
    d = 1e-4
    xi = sl.perturb_orbit(cat_sys, np.zeros((7, 2)), d, seed=3)
    sol = sl.find_periodic_shadow(cat_sys, xi)
    assert sol.converged
    assert sol.ratio <= sl.theoretical_linear_lipschitz_bound(cat_sys.linear_matrix, 7) + 1e-9
    assert sol.minimal_period == 1  # it found the fixed point


def test_solver_residual_contract(cat_sys):
    xi = sl.perturb_orbit(cat_sys, sl.toral_orbit_with_period(sl.cat_map(), 5), 1e-3, seed=0)
    sol = sl.find_periodic_shadow(cat_sys, xi)
    assert sol.converged
    assert sol.residual <= 1e-10
    q = sol.period
    for i in range(q):
        image = cat_sys.space.wrap(cat_sys.forward(sol.orbit[i]))
        assert cat_sys.space.dist(image, sol.orbit[(i + 1) % q]) <= sol.residual + 1e-15


def test_solver_deterministic(cat_sys):
    xi = sl.perturb_orbit(cat_sys, sl.toral_orbit_with_period(sl.cat_map(), 5), 1e-3, seed=1)
    a = sl.find_periodic_shadow(cat_sys, xi)
    b = sl.find_periodic_shadow(cat_sys, xi)
    assert np.array_equal(a.orbit, b.orbit)
    assert a.iterations == b.iterations


def test_solver_nonlinear_jordan(nonlinear_jordan2):
    # small perturbation of the fixed point on the nonlinear model with a
    # hyperbolic tail direction only: use the tail-only model to stay regular
    model = sl.jordan_model(block=None, tail=(2.0, 0.5), c=1.0, a_ball=0.5)
    sysm = model.system
    xi = sl.perturb_orbit(sysm, np.zeros((6, 2)), 1e-3, seed=5)
    sol = sl.find_periodic_shadow(sysm, xi)
    assert sol.converged
    assert sol.sup_distance <= 5e-3


def _linear_pseudotrajectory():
    lin = sl.linear_system([[2.0, 1.0], [1.0, 1.0]])
    pts = np.random.default_rng(11).normal(scale=1e-3, size=(5, 2))
    return lin, sl.make_pseudotrajectory(lin, pts)


def test_solver_halves_an_overlong_step(monkeypatch):
    # on a linear map the gaps after step s * delta are (1 - s) times the old
    # ones: at 3 delta the full step doubles the residual, the half step halves it
    lin, xi = _linear_pseudotrajectory()
    expected = sl.find_periodic_shadow(lin, xi)
    solve = shadow._solve_cyclic
    monkeypatch.setattr(shadow, "_solve_cyclic", lambda jacobians, rhs: 3.0 * solve(jacobians, rhs))
    sol = sl.find_periodic_shadow(lin, xi)
    assert sol.converged and sol.iterations > 1
    assert np.max(np.abs(sol.orbit - expected.orbit)) <= 1e-9


def test_solver_stops_when_no_step_lowers_the_residual(monkeypatch):
    lin, xi = _linear_pseudotrajectory()
    monkeypatch.setattr(shadow, "_solve_cyclic", lambda jacobians, rhs: np.zeros_like(rhs))
    sol = sl.find_periodic_shadow(lin, xi)
    assert not sol.converged and sol.iterations == 1
    assert sol.orbit.tobytes() == xi.points.tobytes()


def test_solver_weak_saddle_at_2000_unknowns():
    # a normal saddle with multipliers -0.25 and -1.2: the cyclic system is
    # well conditioned, but LU of its dense form grows like 1.2^Q
    c, s = math.cos(0.5), math.sin(0.5)
    turn = np.array([[c, -s], [s, c]])
    a = turn @ np.diag([-0.25, -1.2]) @ turn.T
    pts = np.random.default_rng(7).normal(scale=0.01, size=(1000, 2))
    lin = sl.linear_system(a)
    sol = sl.find_periodic_shadow(lin, sl.make_pseudotrajectory(lin, pts))
    assert sol.converged
    gaps = np.roll(pts, -1, axis=0) - pts @ a.T
    oracle = pts - sl.closed_form_linear_shadow(a, gaps)
    assert np.max(np.abs(oracle - sol.orbit)) < 1e-9


@pytest.mark.parametrize("K", [10, 50])  # 240 and 5200 unknowns
def test_solver_singular_on_unit_block_witness(linear_jordan2, K):
    xi, _ = sl.witness_jordan(linear_jordan2, 1e-4, K)
    with pytest.raises(SingularJacobianError):
        sl.find_periodic_shadow(linear_jordan2.system, xi)


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


@pytest.mark.parametrize(
    "matrix,q,singular",
    [
        # R^Q = I for a rotation R by 2 pi / Q, so the cyclic matrix is singular
        (_rotation(2 * math.pi / 7), 7, True),
        (_rotation(2 * math.pi / 50), 50, True),
        (_rotation(2 * math.pi / 400), 400, True),
        # 1e-9 off resonance: rcond ~ 4e-10, far above the floor
        (_rotation(2 * math.pi / 7 + 1e-9), 7, False),
        (_rotation(2 * math.pi / 400 + 1e-9), 400, False),
        # rcond ~ 3e-13, three times the floor
        (np.diag([1.0 + 1e-12, 2.0]), 5, False),
    ],
)
def test_rcond_floor_separates_near_singular_cyclic_solves(matrix, q, singular):
    lin = sl.linear_system(matrix)
    pts = np.random.default_rng(0).normal(scale=0.01, size=(q, 2))
    xi = sl.make_pseudotrajectory(lin, pts)
    if singular:
        with pytest.raises(SingularJacobianError, match="rcond"):
            sl.find_periodic_shadow(lin, xi)
    else:
        assert sl.find_periodic_shadow(lin, xi).converged


def _jacobian_stacks(q):
    torus = sl.perturbed_toral([[2, 1], [1, 1]], amplitude=0.05)
    orbit = sl.orbit_segment(torus, np.array([0.3, 0.7]), 0, q - 1)
    linear = [sl.cat_map().system, sl.linear_system(np.diag([1.1, 1 / 1.1]))]
    linear.append(sl.linear_system(_rotation(0.7)))
    return [s.jacobian(np.zeros((q, 2))) for s in linear] + [torus.jacobian(orbit)]


@pytest.mark.parametrize("q", [1, 2, 5])  # at Q = 1 the two blocks of M are summed
def test_cyclic_norm_bound_covers_the_cyclic_matrix(q):
    for jacobians in _jacobian_stacks(q):
        bound = 1.0 + np.sqrt(np.max(np.sum(jacobians * jacobians, axis=(-2, -1))))
        assert bound >= np.linalg.norm(_cyclic_matrix(jacobians).toarray(), 2)


# ---------------------------------------------------------------------------
# the factor memo


def _count_splu(monkeypatch):
    """Record the size of each SuperLU factorisation made from now on."""
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    return calls


def test_scan_rows_and_oracle_note_share_one_factor(tmp_path, capsys, monkeypatch):
    calls = _count_splu(monkeypatch)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "[system]\nkind = toral\nmatrix = 2 1; 1 1\n"
        + "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n"
        + "d-values = 1e-3 1e-4 1e-5 1e-6\n"
        + f"[output]\ndirectory = {tmp_path}\n"
    )
    assert cli.run(str(cfg)) == 0
    out = capsys.readouterr().out
    assert "4/4 rows converged" in out and "linear oracle deviation" in out
    assert calls == [10]  # four rows and the oracle note solve one cat stack


def test_memo_keeps_the_last_stack_only(monkeypatch):
    calls = _count_splu(monkeypatch)
    a, b = _jacobian_stacks(5)[:2]
    rhs = np.random.default_rng(0).normal(size=(5, 2))
    for stack in (a, b, a):
        shadow._solve_cyclic(stack, rhs)
    assert len(calls) == 3
    key, (lu, _) = shadow._cyclic_factor.last
    assert key == hyperbolicity._stack_key(a) and lu.shape == (10, 10)


def test_distinct_newton_stacks_are_factored_once_each(monkeypatch):
    pert = sl.perturbed_toral([[2, 1], [1, 1]], 0.1)
    xi = sl.make_pseudotrajectory(pert, sl.toral_orbit_with_period(sl.cat_map(), 2))
    calls = _count_splu(monkeypatch)
    sol = sl.find_periodic_shadow(pert, xi)
    assert sol.converged and sol.iterations == 2
    assert calls == [4, 4]


def _memo_corpus():
    """(system, pseudotrajectory) pairs whose solves reuse stacks in runs."""
    cat = sl.cat_map()
    # both at period 5: equal shapes, distinct stacks
    for matrix, period in (([[2, 1], [1, 1]], 5), ([[3, 2], [1, 1]], 5)):
        toral = sl.toral_automorphism(matrix)
        family = shadow.PerturbedOrbitFamily(
            toral.system, sl.toral_orbit_with_period(toral, period), seed=3
        )
        for row, d in enumerate((1e-3, 1e-4, 1e-5, 1e-6)):
            yield toral.system, family.generate(d, row)
    pert = sl.perturbed_toral(cat.matrix, 0.1)
    for m in (2, 3, 5):
        yield pert, sl.make_pseudotrajectory(pert, sl.toral_orbit_with_period(cat, m))
    double = sl.linear_system(2.0 * np.eye(2))
    yield double, sl.make_pseudotrajectory(double, [[2e-4, 5e-4]])  # Q = 1
    rng = np.random.default_rng(4242)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        lin = sl.linear_system(random_hyperbolic_matrix(rng, n))
        q = int(rng.integers(1, 33))
        yield lin, sl.make_pseudotrajectory(lin, rng.normal(scale=0.01, size=(q, n)))
    c, s = math.cos(0.5), math.sin(0.5)
    turn = np.array([[c, -s], [s, c]])
    saddle = sl.linear_system(turn @ np.diag([-0.25, -1.2]) @ turn.T)
    pts = np.random.default_rng(7).normal(scale=0.01, size=(1000, 2))
    yield saddle, sl.make_pseudotrajectory(saddle, pts)
    jordan = sl.jordan_model(block="real", size=2, eigenvalue=1, c=0.0)
    yield jordan.system, sl.witness_jordan(jordan, 1e-4, 5)[0]


def _solve_bytes(sys_, xi):
    """Every ShadowSolution field, or the error's type and message."""
    try:
        return field_bytes(sl.find_periodic_shadow(sys_, xi))
    except Exception as exc:
        return type(exc), str(exc)


def test_warm_solves_equal_cold_ones_bit_for_bit(monkeypatch):
    cases = list(_memo_corpus())
    cold = []
    for sys_, xi in cases:
        reset_memos(monkeypatch)
        cold.append(_solve_bytes(sys_, xi))
    reset_memos(monkeypatch)
    # each case solved twice in a row: the first may reuse the previous case's
    # factor, the second starts on its own last one
    warm = [[_solve_bytes(sys_, xi) for _ in range(2)] for sys_, xi in cases]
    assert warm == [[c, c] for c in cold]
    assert any(isinstance(c, tuple) for c in cold)  # the Jordan witness raised


def test_threads_share_the_memoised_factor(cat_sys):
    # more threads than cores, switching every microsecond, over three stacks
    # of one shape in turn: every lookup races a replacement by another thread
    pts = np.random.default_rng(5).normal(scale=0.01, size=(7, 2))
    other = sl.linear_system([[3.0, 2.0], [1.0, 1.0]])
    resonant = sl.linear_system(_rotation(2 * math.pi / 7))  # R^7 = I: rcond error
    cases = [
        (cat_sys, sl.perturb_orbit(cat_sys, np.zeros((7, 2)), 1e-4, seed=3)),
        (other, sl.make_pseudotrajectory(other, pts)),
        (resonant, sl.make_pseudotrajectory(resonant, pts)),
    ]
    expected = [_solve_bytes(sys_, xi) for sys_, xi in cases]
    results, errors = [], []

    def work(offset):
        try:
            for k in range(400):
                j = (k + offset) % len(cases)
                results.append((j, _solve_bytes(*cases[j])))
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
    assert all(got == expected[j] for j, got in results)


def test_exact_singularity_is_raised_on_every_call(linear_jordan2, monkeypatch):
    xi, _ = sl.witness_jordan(linear_jordan2, 1e-4, 5)
    calls = _count_splu(monkeypatch)
    for _ in range(2):
        with pytest.raises(SingularJacobianError, match="exactly singular"):
            sl.find_periodic_shadow(linear_jordan2.system, xi)
    assert calls == [70]  # 35 points of 2 unknowns


def test_rcond_floor_is_checked_on_every_call(monkeypatch):
    lin = sl.linear_system(_rotation(2 * math.pi / 7))  # R^7 = I
    xi = sl.make_pseudotrajectory(lin, np.random.default_rng(0).normal(scale=0.01, size=(7, 2)))
    calls = _count_splu(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(SingularJacobianError, match=r"rcond ~") as info:
            sl.find_periodic_shadow(lin, xi)
        messages.append(str(info.value))
    assert calls == [14] and messages[0] == messages[1]


def test_step_checks_run_on_a_reused_factor(monkeypatch):
    calls = _count_splu(monkeypatch)
    stack = _jacobian_stacks(5)[0]
    rhs = np.random.default_rng(0).normal(size=(5, 2))
    shadow._solve_cyclic(stack, rhs)
    rhs[2, 1] = np.nan
    with pytest.raises(SingularJacobianError, match="non-finite Newton step"):
        shadow._solve_cyclic(stack, rhs)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# direct lower bound


def test_lower_bound_values(linear_jordan2):
    xi, _ = sl.witness_jordan(linear_jordan2, 1e-4, 50)
    lb = sl.direct_shadow_lower_bound(linear_jordan2, xi)
    assert lb == pytest.approx(5e-3, rel=1e-12)


@pytest.mark.parametrize("K", [10, 25, 50, 100])
@pytest.mark.parametrize("d", [1e-3, 1e-5])
def test_lower_bound_law(linear_jordan2, K, d):
    xi, _ = sl.witness_jordan(linear_jordan2, d, K)
    lb = sl.direct_shadow_lower_bound(linear_jordan2, xi)
    assert abs(lb / d - K) <= 1e-12 * K


def test_lower_bound_inapplicable_nonlinear(nonlinear_jordan2):
    xi, _ = sl.witness_jordan(nonlinear_jordan2, 1e-5, 10)
    with pytest.raises(sl.InapplicableError):
        sl.direct_shadow_lower_bound(nonlinear_jordan2, xi)


# ---------------------------------------------------------------------------
# expansivity-style periodicity check


def test_expansivity_fixed_point(cat_sys):
    assert sl.verify_periodicity_by_expansivity(cat_sys, [0.0, 0.0], 1, 0.3, 5)


def test_expansivity_rational_period2(cat_sys):
    # (1/5, 2/5) -> (4/5, 3/5) -> (1/5, 2/5)
    assert sl.verify_periodicity_by_expansivity(cat_sys, [0.2, 0.4], 2, 0.5, 6)


def test_expansivity_walks_both_ways_from_p(cat_sys):
    # a start at f^-20(p) reached by inverse steps grows its rounding over all
    # 2 * 20 + 10 expanding steps after it; walked from p, this period-10 point
    # (residual 3.1e-13) stays within a at every |i| <= 20
    p = [0.09818181818181818, 0.5054545454545455]
    assert sl.verify_periodicity_by_expansivity(cat_sys, p, 10, 0.5, 20)


def test_expansivity_generic_point(cat_sys):
    assert not sl.verify_periodicity_by_expansivity(
        cat_sys, [0.123456789, 0.654321987], 3, 0.01, 8
    )


def test_expansivity_nan_point_is_not_periodic(cat_sys):
    assert not sl.verify_periodicity_by_expansivity(cat_sys, [float("nan"), 0.0], 1, 0.5, 2)


def test_expansivity_rejects_nan_constant(cat_sys):
    with pytest.raises(ValueError, match="expansivity constant must be positive"):
        sl.verify_periodicity_by_expansivity(cat_sys, [0.0, 0.0], 1, float("nan"), 2)


@pytest.mark.parametrize("mu", [0, -1])
def test_expansivity_rejects_periods_below_one(cat_sys, mu):
    # mu = 0 would compare p with itself and call any point periodic
    with pytest.raises(ValueError, match="period must be >= 1"):
        sl.verify_periodicity_by_expansivity(cat_sys, [0.3, 0.1], mu, 0.3, 5)


def test_expansivity_false_when_the_orbit_leaves_the_box():
    # the first backward step from (0, 0.9) reaches (0, 1.8), outside the box
    lin = sl.linear_system(np.diag([2.0, 0.5]), halfwidth=1.0)
    with pytest.raises(OrbitEscapeError):
        sl.orbit_segment(replace(lin, forward=lin.inverse), [0.0, 0.9], 0, 2)
    assert not sl.verify_periodicity_by_expansivity(lin, [0.0, 0.9], 1, 0.5, 2)


# ---------------------------------------------------------------------------
# scans


def test_scan_cat_bounded(cat_sys):
    base = sl.toral_orbit_with_period(sl.cat_map(), 8)
    family = sl.PerturbedOrbitFamily(cat_sys, base, seed=0)
    scan = sl.lipschitz_scan(cat_sys, family, [1e-3, 1e-4, 1e-5, 1e-6])
    assert all(r.converged for r in scan.rows)
    ceiling = sl.theoretical_linear_lipschitz_bound(cat_sys.linear_matrix, 8)
    assert all(r.ratio <= ceiling + 1e-9 for r in scan.rows)
    assert not scan.diverging
    assert scan.estimated_constant == max(r.ratio for r in scan.rows)


def test_scan_jordan_witness_diverges(linear_jordan2):
    family = sl.JordanWitnessFamily(linear_jordan2, 25)
    scan = sl.lipschitz_scan(linear_jordan2.system, family, [1e-3, 1e-4, 1e-5])
    assert scan.diverging
    for r in scan.rows:
        assert not r.converged
        assert r.error == "singular-jacobian"
        assert r.lower_bound == pytest.approx(25.0 * r.defect, rel=1e-9)


@dataclass(frozen=True)
class ExactOrbitFamily:
    """Scan family returning one exact orbit regardless of d."""

    sys: sl.DiscreteSystem
    orbit_points: np.ndarray

    def generate(self, d, row):
        return sl.make_pseudotrajectory(self.sys, self.orbit_points, kind="exact")


def test_scan_exact_orbit_family(cat_sys):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 2)
    family = ExactOrbitFamily(cat_sys, orbit)
    scan = sl.lipschitz_scan(cat_sys, family, [1e-3, 1e-4, 1e-5])
    assert all(r.epsilon_star == 0.0 for r in scan.rows)
    assert scan.estimated_constant == 0.0
    assert not scan.diverging


def test_scan_validates_d_values(cat_sys):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 2)
    family = ExactOrbitFamily(cat_sys, orbit)
    with pytest.raises(ValueError):
        sl.lipschitz_scan(cat_sys, family, [1e-3, 1e-4])
    with pytest.raises(ValueError):
        sl.lipschitz_scan(cat_sys, family, [1e-5, 1e-4, 1e-3])


@pytest.mark.parametrize(
    "d_values",
    [[1e-3, float("nan"), 1e-5], [float("nan"), 1e-4, 1e-5], [1e-3, 1e-4, float("nan")],
     [1e-3, 1e-4, 0.0], [1e-3, 1e-4, -1e-5]],
)
def test_scan_rejects_nan_and_nonpositive_d_values(cat_sys, d_values):
    orbit = sl.toral_orbit_with_period(sl.cat_map(), 2)
    with pytest.raises(ValueError, match="positive and strictly decreasing"):
        sl.lipschitz_scan(cat_sys, ExactOrbitFamily(cat_sys, orbit), d_values)


def test_scan_csv_shape(cat_sys, tmp_path):
    base = sl.toral_orbit_with_period(sl.cat_map(), 5)
    family = sl.PerturbedOrbitFamily(cat_sys, base, seed=0)
    scan = sl.lipschitz_scan(cat_sys, family, [1e-3, 1e-4, 1e-5])
    path = tmp_path / "scan.csv"
    sl.write_scan_csv(scan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "d,epsilon_star,ratio,converged,lower_bound"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        assert cells[3] == "true"
        assert float(cells[0]) > 0
    table = sl.format_scan_table(scan)
    assert "estimated_constant" in table and "diverging" in table


# ---------------------------------------------------------------------------
# base orbits


def test_toral_orbit_with_period(cat_sys):
    for q in (2, 5, 8, 13):
        orbit = sl.toral_orbit_with_period(sl.cat_map(), q)
        assert orbit.shape == (q, 2)
        assert sl.defect(cat_sys, orbit) <= 1e-12
        # truly minimal: no proper divisor closes the orbit
        for div in range(1, q):
            if q % div == 0:
                assert cat_sys.space.dist(orbit[div % q], orbit[0]) > 1e-6 or div == q
