import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import shadowlab as sl
from shadowlab.errors import (
    InverseNotFoundError,
    NotAnOrbitError,
    OrbitEscapeError,
    SingularJacobianError,
    StepLimitError,
)
from shadowlab.systems import (
    MAX_A_BALL,
    PhaseSpace,
    _newton_inverse,
    _row_norms,
    low_discrepancy_sample,
)

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0  # largest cat-map multiplier


# ---------------------------------------------------------------------------
# phase spaces


def test_torus_distance_wraps():
    space = PhaseSpace.torus(2)
    assert space.dist([0.95, 0.0], [0.05, 0.0]) == pytest.approx(0.1)
    assert space.dist([0.5, 0.5], [0.0, 0.0]) == pytest.approx(math.sqrt(0.5))


@given(
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_torus_metric_properties(a, b, c):
    space = PhaseSpace.torus(3)
    a, b, c = np.array(a), np.array(b), np.array(c)
    assert space.dist(a, b) == pytest.approx(space.dist(b, a))
    assert space.dist(a, c) <= space.dist(a, b) + space.dist(b, c) + 1e-12
    assert space.dist(a, b) <= math.sqrt(3.0) / 2.0 + 1e-12


def test_box_contains():
    space = PhaseSpace.cube(2, 1.0)
    assert space.contains(np.array([0.5, -0.5]))
    assert space.contains(np.array([1.0, -1.0]))  # the faces belong to the box
    for outside in ([1.5, 0.0], [0.0, -1.5], [np.nan, 0.0], [-np.inf, 0.0]):
        assert not space.contains(np.array(outside))


def test_box_sample_is_the_halton_sample_scaled_to_the_box():
    w = 2.5
    unit = qmc.Halton(d=3, scramble=False).random(1000)
    ours = low_discrepancy_sample(PhaseSpace.cube(3, w), 1000)
    assert ours.tobytes() == (-w + unit * (w - -w)).tobytes()


# ---------------------------------------------------------------------------
# toral automorphisms


def test_cat_map_evaluate(cat_sys):
    assert np.allclose(sl.evaluate(cat_sys, [0.0, 0.0], 5), [0.0, 0.0])
    assert np.allclose(sl.evaluate(cat_sys, [0.2, 0.4], 1), [0.8, 0.6])
    x = np.array([0.37, 0.81])
    assert np.array_equal(sl.evaluate(cat_sys, x, 0), x)


def test_orbit_segment_consistency(cat_sys):
    x = np.array([0.2, 0.4])
    seg = sl.orbit_segment(cat_sys, x, 0, 1)
    assert np.allclose(seg, [[0.2, 0.4], [0.8, 0.6]])
    fixed = sl.orbit_segment(cat_sys, [0.0, 0.0], -2, 2)
    assert np.allclose(fixed, np.zeros((5, 2)))
    single = sl.orbit_segment(cat_sys, x, 3, 3)
    assert np.allclose(single[0], sl.evaluate(cat_sys, x, 3))


def test_round_trip_and_jacobian(cat_sys):
    pts = low_discrepancy_sample(cat_sys.space, 1000)
    for p in pts:
        back = cat_sys.space.wrap(cat_sys.inverse(cat_sys.space.wrap(cat_sys.forward(p))))
        assert cat_sys.space.dist(back, p) <= 1e-10


@pytest.mark.parametrize("dim", range(1, 9))
def test_low_discrepancy_sample_is_scipy_halton(dim):
    for count in (1, 2, 7, 1024, 10_000):
        ours = low_discrepancy_sample(PhaseSpace.torus(dim), count)
        oracle = qmc.Halton(d=dim, scramble=False).random(count)
        assert ours.tobytes() == oracle.tobytes(), count


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, shadowlab; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sl.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


# In a fresh interpreter: the analysis calls and the analysis-only commands,
# then one cyclic solve.  Prints the scipy modules loaded after each stage.
ANALYSIS_FOOTPRINT = r"""
import os, sys
import numpy as np
import shadowlab as sl
from shadowlab import cli

def loaded():
    print(sorted(name for name in sys.modules if name.startswith("scipy")))

cat = sl.cat_map()
records = [sl.analyze_periodic_orbit(cat.system, p, 3)
           for p in sl.enumerate_periodic_points_toral(cat.matrix, 3)]
sl.subspace_angle(records[1])
sl.expansion_certificate(cat.system, records[1], records[1].unstable_basis[:, 0])
sl.extract_uniform_constants(cat.system, records, 4)
loaded()
cat_system = "[system]\nkind = toral\nmatrix = 2 1; 1 1\n"
jordan_system = "[system]\nkind = jordan\nblock = real\nl = 2\neigenvalue = 1\nc = 0\n"
runs = [(cat_system, "name = enumerate\nperiod = 2"),
        (cat_system, "name = orbit\npoint = 0.2 0.4\nperiod = 2"),
        (cat_system, "name = angles\nmax-period = 2"),
        (cat_system, "name = splice\nforward = 4\nbackward = 4"),
        (jordan_system, "name = witness\ntype = jordan\nd = 1e-4\nK = 3")]
with open(os.devnull, "w") as sys.stdout:
    cli.describe("toral")
    for i, (system, command) in enumerate(runs):
        path = os.path.join(sys.argv[1], f"run{i}.cfg")
        with open(path, "w") as fh:
            fh.write(f"{system}[command]\n{command}\n[output]\ndirectory = {sys.argv[1]}\n")
        assert cli.run(path) == 0
sys.stdout = sys.__stdout__
loaded()
perturbed = sl.perturbed_toral(cat.matrix, 0.05)
xi = sl.make_pseudotrajectory(perturbed, sl.toral_orbit_with_period(cat, 3))
assert sl.find_periodic_shadow(perturbed, xi).converged
loaded()
"""


def test_analysis_leaves_scipy_unloaded(tmp_path):
    # scipy costs about 0.3 s and 30 MB at start-up; only the band LU of the
    # cyclic solve loads it (scipy.linalg.lapack, never scipy.sparse), on first use
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sl.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", ANALYSIS_FOOTPRINT, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    analysis, commands, solve = out.stdout.splitlines()
    assert analysis == "[]" and commands == "[]"
    assert "'scipy.linalg.lapack'" in solve and "scipy.sparse" not in solve


def test_norm_bound_cat(cat_sys):
    assert sl.estimate_norm_bound(cat_sys) == pytest.approx(GOLDEN, rel=1e-12)


def test_norm_bound_identity():
    ident = sl.linear_system(np.eye(3))
    assert sl.estimate_norm_bound(ident, samples=7) == pytest.approx(1.0)


def test_norm_bound_linear_jordan_sample_independent(linear_jordan2):
    a = sl.estimate_norm_bound(linear_jordan2.system, samples=1)
    b = sl.estimate_norm_bound(linear_jordan2.system, samples=5000)
    assert a == b


def test_toral_rejects_bad_matrices():
    with pytest.raises(ValueError):
        sl.toral_automorphism([[2, 0], [0, 2]])  # det 4
    with pytest.raises(ValueError):
        sl.toral_automorphism([[1.5, 0], [0, 1]])


def test_toral_inverse_is_exact_past_float_precision():
    # F_46 F_44 - F_45^2 = -1; the float inverse rounds to entries off by about 1e9
    f46, f45, f44 = 1836311903, 1134903170, 701408733
    toral = sl.toral_automorphism([[f46, f45], [f45, f44]])
    assert toral.inverse_matrix.tolist() == [[-f44, f45], [f45, -f46]]


def test_toral_inverse_beyond_int64_is_rejected():
    a = 2**32  # the inverse holds a^2 = 2^64
    with pytest.raises(ValueError, match="inverse matrix has entries beyond int64"):
        sl.toral_automorphism([[1, a, 0], [0, 1, a], [0, 0, 1]])


def test_toral_hyperbolicity_flag():
    assert sl.cat_map().hyperbolic
    assert not sl.toral_automorphism([[0, 1], [-1, 0]]).hyperbolic  # rotation by 90 degrees


def test_evaluate_rejects_huge_k(cat_sys):
    with pytest.raises(ValueError):
        sl.evaluate(cat_sys, [0.1, 0.1], 10**7 + 1)


def test_orbit_segment_checks_its_length_before_iterating(cat_sys):
    # start = 0 passes evaluate; the length alone is over the limit
    with pytest.raises(StepLimitError):
        sl.orbit_segment(cat_sys, [0.1, 0.1], 0, 10**7 + 1)
    assert issubclass(StepLimitError, ValueError)
    with pytest.raises(StepLimitError):
        sl.evaluate(cat_sys, [0.1, 0.1], -(10**7) - 1)
    # a step limit is not an escape: the expansivity check does not answer False
    with pytest.raises(StepLimitError):
        sl.verify_periodicity_by_expansivity(cat_sys, [0.0, 0.0], 1, 0.5, 6 * 10**6)


# ---------------------------------------------------------------------------
# Jordan models


def test_jordan_exact_linear_core(nonlinear_jordan2):
    sys = nonlinear_jordan2.system
    a = nonlinear_jordan2.matrix
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=2)
        v *= rng.uniform(0.0, nonlinear_jordan2.a_ball) / np.linalg.norm(v)
        image = sys.forward(v)
        assert np.array_equal(image, a @ v)  # bit-for-bit linear branch
        assert np.array_equal(sys.forward(v), image)  # reproducible


def test_jordan_nonlinearity_cubic_bound():
    model = sl.jordan_model(block="real", size=2, c=1.0, a_ball=0.5)
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(size=2)
        v *= rng.uniform(0.0, 2.0) / np.linalg.norm(v)
        assert np.linalg.norm(model.phi(v)) <= model.c * np.linalg.norm(v) ** 3 + 1e-15


def test_jordan_round_trip_and_jacobian_fd():
    model = sl.jordan_model(block="real", size=2, tail=(2.0, 0.5), c=1.0, a_ball=0.5)
    sys = model.system
    pts = low_discrepancy_sample(sys.space, 1000)
    h = 1e-6
    for p in pts:
        back = sys.inverse(sys.forward(p))
        assert np.linalg.norm(back - p) <= 1e-10
        jac = sys.jacobian(p)
        fd = np.empty_like(jac)
        for j in range(sys.dim):
            e = np.zeros(sys.dim)
            e[j] = h
            fd[:, j] = (sys.forward(p + e) - sys.forward(p - e)) / (2.0 * h)
        assert np.linalg.norm(fd - jac) <= 1e-5 * max(1.0, np.linalg.norm(jac))


def test_jordan_matrix_shapes():
    model = sl.jordan_model(block="rotation", size=2, theta=0.3, tail=(2.0,))
    assert model.matrix.shape == (5, 5)
    r = model.matrix[:2, :2]
    assert np.allclose(r, [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    assert np.allclose(model.matrix[:2, 2:4], np.eye(2))
    assert model.matrix[4, 4] == 2.0


def test_jordan_tail_validation():
    with pytest.raises(ValueError):
        sl.jordan_model(tail=(1.0,))
    with pytest.raises(ValueError):
        sl.jordan_model(tail=(0.0,))


def test_orbit_escape_error():
    # expanding tail map escapes a small box
    model = sl.jordan_model(block=None, tail=(3.0, 0.5), c=0.0, a_ball=0.5, halfwidth=1.0)
    with pytest.raises(OrbitEscapeError) as err:
        sl.evaluate(model.system, [0.9, 0.0], 5)
    assert err.value.step == 1


# ---------------------------------------------------------------------------
# perturbed toral systems


def test_perturbed_toral_round_trip():
    sys = sl.perturbed_toral([[2, 1], [1, 1]], amplitude=0.05)
    pts = low_discrepancy_sample(sys.space, 1000)
    for p in pts:
        back = sys.inverse(sys.forward(p))
        assert sys.space.dist(back, p) <= 1e-10


def test_perturbed_toral_jacobian_fd():
    sys = sl.perturbed_toral([[2, 1], [1, 1]], amplitude=0.05)
    h = 1e-6
    for p in low_discrepancy_sample(sys.space, 1000):
        jac = sys.jacobian(p)
        fd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            plus = sys.forward(p + e)
            minus = sys.forward(p - e)
            fd[:, j] = (sys.space.diff(plus, minus)) / (2.0 * h)
        assert np.linalg.norm(fd - jac) <= 1e-5 * np.linalg.norm(jac)


def test_perturbed_toral_amplitude_guard():
    with pytest.raises(ValueError):
        sl.perturbed_toral([[2, 1], [1, 1]], amplitude=1.0)


def test_a_cycling_newton_inverse_is_a_typed_error():
    # from x0 = 0, Newton on x^3 - 2x = -2 steps to 1 and back to 0 forever
    space = PhaseSpace.cube(1, 100.0)
    with pytest.raises(InverseNotFoundError, match="failed to converge"):
        _newton_inverse(space, lambda x: x**3 - 2.0 * x, lambda x: (3.0 * x**2 - 2.0)[..., None],
                        np.array([[-2.0]]), np.array([[0.0]]), 1e-14)


def test_a_singular_newton_inverse_step_is_a_typed_error():
    # from x0 = 2, Newton on arctan x = 0 diverges until 1 / (1 + x^2) is 0
    space = PhaseSpace.cube(1, 100.0)
    with np.errstate(over="ignore"), pytest.raises(SingularJacobianError, match="singular"):
        _newton_inverse(space, np.arctan, lambda x: (1.0 / (1.0 + x**2))[..., None],
                        np.array([[0.0]]), np.array([[2.0]]), 1e-14)


# ---------------------------------------------------------------------------
# batch contract: every map takes (n,) or (Q, n), and row i of a batch call
# equals the single-point call on row i


EPS = np.finfo(float).eps

BATCH_SYSTEMS = {
    "linear": lambda: (sl.linear_system([[2.0, 1.0], [0.5, 1.5]]), "linear"),
    "toral-cat": lambda: (sl.cat_map().system, "integer"),
    "toral-3": lambda: (
        sl.toral_automorphism([[2, 1, 1], [1, 1, 0], [1, 0, 0]]).system, "integer"
    ),
    "jordan-linear": lambda: (sl.jordan_model(block="real", size=2, c=0.0).system, "linear"),
    "jordan-real": lambda: (
        sl.jordan_model(block="real", size=2, tail=(2.0,), c=1.0).system, "nonlinear"
    ),
    "jordan-rotation": lambda: (
        sl.jordan_model(block="rotation", size=1, theta=0.3, tail=(0.5,), c=1.0).system,
        "nonlinear",
    ),
    "jordan-none": lambda: (
        sl.jordan_model(block=None, tail=(3.0, 0.25), c=1.0).system, "nonlinear"
    ),
    "perturbed": lambda: (sl.perturbed_toral([[2, 1], [1, 1]], amplitude=0.05), "nonlinear"),
}


def _batch_points(sys, count=40):
    """Halton points of the torus, or of [-0.6, 0.6]^n on a box: inside and
    outside the Jordan core ball (radius 0.5), with images inside the box."""
    pts = qmc.Halton(d=sys.dim, scramble=False).random(count)
    if sys.space.kind == "euclidean":
        pts = 1.2 * pts - 0.6
        pts[1] = -0.0
    return pts


def _linear_part(sys):
    return np.asarray(sys.jacobian(np.zeros(sys.dim)))


@pytest.mark.parametrize("name", sorted(BATCH_SYSTEMS))
def test_batch_shapes(name):
    sys, _ = BATCH_SYSTEMS[name]()
    n = sys.dim
    pts = _batch_points(sys, 7)
    for fn in (sys.forward, sys.inverse):
        assert fn(pts[3]).shape == (n,)
        assert fn(pts).shape == (7, n)
    assert sys.jacobian(pts[3]).shape == (n, n)
    assert sys.jacobian(pts).shape == (7, n, n)
    assert sl.evaluate(sys, pts, 1).shape == (7, n)


@pytest.mark.parametrize("name", sorted(BATCH_SYSTEMS))
def test_batch_rows_equal_single_points(name):
    sys, kind = BATCH_SYSTEMS[name]()
    pts = _batch_points(sys)
    a = _linear_part(sys)
    if kind == "nonlinear" and sys.space.kind == "euclidean":
        radii = np.linalg.norm(pts, axis=1)
        assert np.any(radii > 0.5) and np.any(radii < 0.5)  # both sides of the core ball
    images = sys.forward(pts)
    jacs = sys.jacobian(pts)
    back = sys.inverse(images)
    for i, p in enumerate(pts):
        single = sys.forward(p)
        if kind == "integer":
            assert images[i].tobytes() == single.tobytes()
            assert np.array_equal(jacs[i], sys.jacobian(p))
            assert np.array_equal(back[i], sys.inverse(images[i]))
        else:
            scale = np.abs(a) @ np.abs(p)
            assert np.all(np.abs(images[i] - single) <= 4 * EPS * scale)
            assert np.all(np.abs(jacs[i] - sys.jacobian(p)) <= 4 * EPS * np.abs(a).max())
            inv_scale = np.abs(np.linalg.inv(a)) @ np.abs(images[i])
            assert np.all(np.abs(sys.space.diff(back[i], sys.inverse(images[i])))
                          <= 4 * EPS * inv_scale + 1e-14 * (1.0 + np.linalg.norm(images[i])))
        assert sys.space.dist(back[i], p) <= 1e-10
    assert np.array_equal(sl.evaluate(sys, pts, 1)[5], sl.evaluate(sys, pts[5], 1))


LINEAR_JORDAN = {
    "jordan-linear": dict(block="real", size=2, c=0.0),
    "jordan-tiny-tail": dict(block="real", size=2, tail=(1.1e-8, 40.0), c=0.0),
}


@pytest.mark.parametrize("name", ["linear", "toral-cat", "toral-3", *LINEAR_JORDAN])
def test_linear_systems_are_x_times_a_bit_for_bit(name):
    if name in BATCH_SYSTEMS:
        sys = BATCH_SYSTEMS[name]()[0]
    else:
        sys = sl.jordan_model(**LINEAR_JORDAN[name]).system
    a = sys.linear_matrix
    pts = _batch_points(sys)  # row 1 is -0.0 on a box
    if sys.space.kind == "torus":
        pts[2] = 0.0
        pts[2, 0] = -1e-20
        a_inv = np.rint(np.linalg.inv(a))
        # the strict chart: -1e-20 maps to 0.0, not to the 1.0 of a single np.mod
        expected = (np.mod(np.mod(pts @ a.T, 1.0), 1.0), np.mod(np.mod(pts @ a_inv.T, 1.0), 1.0))
    else:
        a_inv = np.linalg.inv(a)
        expected = pts @ a.T, pts @ a_inv.T
    for got, want in zip((sys.forward(pts), sys.inverse(pts)), expected):
        assert got.tobytes() == want.tobytes()
    for row in (1, 2):
        assert sys.forward(pts[row]).tobytes() == expected[0][row].tobytes()
        assert sys.inverse(pts[row]).tobytes() == expected[1][row].tobytes()
    jacs = sys.jacobian(pts)
    assert np.array_equal(jacs, np.broadcast_to(a, (len(pts),) + a.shape))
    assert not jacs.flags.writeable
    if name in LINEAR_JORDAN:
        assert np.array_equal(a, sl.jordan_model(**LINEAR_JORDAN[name]).matrix)


def test_jordan_batch_keeps_the_linear_branch_bits():
    model = sl.jordan_model(block="real", size=2, c=1.0, a_ball=0.5)
    a = model.matrix
    pts = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.1, 0.2], [0.3, -0.35], [0.9, 0.4]])
    images = model.system.forward(pts)
    for i in range(4):  # rows inside the core ball are the linear image, bit for bit
        assert images[i].tobytes() == (pts[i] @ a.T).tobytes()
    assert not np.array_equal(images[4], pts[4] @ a.T)
    jacs = model.system.jacobian(pts)
    assert np.array_equal(jacs[:4], np.broadcast_to(a, (4, 2, 2)))


def test_constant_jacobian_is_a_read_only_view(cat_sys):
    jacs = cat_sys.jacobian(np.zeros((5, 2)))
    assert jacs.shape == (5, 2, 2) and not jacs.flags.writeable
    assert np.array_equal(jacs[3], cat_sys.linear_matrix)


# ---------------------------------------------------------------------------
# the one torus chart: wrap returns [0, 1), maps apply it once, callers never


def _every_exponent() -> np.ndarray:
    # 10^5 finite values of either sign with random mantissas, each of the
    # 2047 finite exponents (subnormals included) taken about 49 times
    rng = np.random.default_rng(29)
    count = 10**5
    exponent = np.arange(count, dtype=np.int64) % 2047
    mantissa = rng.integers(0, 1 << 52, count, dtype=np.int64)
    sign = rng.integers(0, 2, count, dtype=np.int64) << 63
    return (sign | exponent << 52 | mantissa).view(float)


@pytest.mark.parametrize(
    "value",
    [-1e-20, -(2.0**-54), -0.0, np.nextafter(1.0, 0.0), 1.0, 2.0, -1.0,
     pytest.param(_every_exponent(), id="every-exponent")],
)
def test_torus_wrap_lands_in_the_unit_interval_and_is_idempotent(value):
    space = PhaseSpace.torus(1)
    x = np.atleast_1d(value)
    once = space.wrap(x)
    assert np.all((0.0 <= once) & (once < 1.0))
    assert space.wrap(once).tobytes() == once.tobytes()
    # the floor form has the bits of numpy's float mod by 1.0 taken twice
    assert once.tobytes() == np.mod(np.mod(x, 1.0), 1.0).tobytes()


def _torus_systems():
    systems = {name: make()[0] for name, make in BATCH_SYSTEMS.items()}
    systems = {name: sys for name, sys in systems.items() if sys.space.kind == "torus"}
    systems["perturbed-0.1"] = sl.perturbed_toral([[2, 1], [1, 1]], amplitude=0.1)
    return systems


@pytest.mark.parametrize("name", sorted(_torus_systems()))
def test_walks_are_a_hand_iteration_of_the_maps(name):
    sys = _torus_systems()[name]
    pts = _batch_points(sys, count=8)
    pts[0] = 0.0
    pts[0, 0] = -1e-20  # an input the chart reads as 0.0
    for p in pts:
        ahead, behind = [sys.space.wrap(p)], [sys.space.wrap(p)]
        for _ in range(4):
            ahead.append(sys.forward(ahead[-1]))
            behind.append(sys.inverse(behind[-1]))
        for k in range(5):
            assert sl.evaluate(sys, p, k).tobytes() == ahead[k].tobytes()
            assert sl.evaluate(sys, p, -k).tobytes() == behind[k].tobytes()
        segment = [behind[2]]
        for _ in range(4):
            segment.append(sys.forward(segment[-1]))
        assert sl.orbit_segment(sys, p, -2, 2).tobytes() == np.array(segment).tobytes()


def test_orbit_segment_keeps_the_chart_at_an_inverse_image_just_below_zero(cat_sys):
    x = np.array([np.nextafter(0.2, 0.0), 0.2])
    assert cat_sys.inverse(x)[0] == 0.0  # the pre-image -2.8e-17 reads 0.0, not 1.0
    assert sl.orbit_segment(cat_sys, x, -1, 1).tolist() == [
        [0.0, 0.20000000000000004],
        [0.20000000000000004, 0.20000000000000004],
        [0.6000000000000001, 0.4000000000000001],
    ]


def test_torus_map_image_just_below_zero_reads_zero():
    sys = sl.toral_automorphism([[-1, -1, -1], [2, 0, -1], [2, 1, 0]]).system
    assert sys.forward(np.array([1e-17, 0.0, 0.0])).tolist() == [0.0, 2e-17, 2e-17]


# ---------------------------------------------------------------------------
# input guards: NaN fails every check, and no parameter may be infinite


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PhaseSpace.cube(2, float("nan")), "positive halfwidth"),
        (lambda: PhaseSpace.cube(0, 1.0), "dimension >= 1"),
        (lambda: sl.linear_system(np.zeros((0, 0))), "dimension >= 1"),
        (lambda: sl.jordan_model(c=float("nan")), "c must be >= 0"),
        (lambda: sl.jordan_model(a_ball=float("nan")), "a_ball must be positive"),
        (lambda: sl.jordan_model(tail=(float("nan"),)), "tail entries"),
        (lambda: sl.jordan_model("rotation", 1, theta=float("nan"), c=0), "theta must be finite"),
        (lambda: sl.jordan_model("rotation", 1, theta=float("inf")), "theta must be finite"),
        (lambda: sl.jordan_model(a_ball=float("inf")), "a_ball must be positive and finite"),
        (lambda: sl.jordan_model(a_ball=1e300), "a_ball must be at most 5.6438e\\+102"),
        (lambda: sl.jordan_model(halfwidth=float("nan")), "halfwidth must be positive and finite"),
        (lambda: sl.linear_system([[float("nan"), 0], [0, 1]]), "matrix entries must be finite"),
        (lambda: sl.linear_system([[2, float("inf")], [0, 1]]), "matrix entries must be finite"),
        (lambda: sl.linear_system(np.eye(2), float("inf")), "finite positive halfwidth"),
        (lambda: PhaseSpace.torus(0), "dimension must be >= 1"),
        (lambda: sl.linear_system([1.0, 2.0]), "matrix must be square"),
        (lambda: sl.toral_automorphism([[1, 0, 0]]), "matrix must be square"),
        (lambda: sl.jordan_model(size=0), "block size must be >= 1"),
        (lambda: sl.jordan_model("rotation", 0), "number of planes must be >= 1"),
        (lambda: sl.jordan_model(None), "needs a nonempty tail"),
        (lambda: sl.jordan_model("skew"), "unknown block kind 'skew'"),
    ],
    ids=["cube-nan", "cube-0", "linear-0", "jordan-c", "jordan-a-ball", "jordan-tail",
         "jordan-theta-nan", "jordan-theta-inf", "jordan-a-ball-inf", "jordan-a-ball-cube",
         "jordan-halfwidth",
         "linear-nan", "linear-inf", "linear-halfwidth", "torus-0", "linear-not-square",
         "toral-not-square", "jordan-size-0", "rotation-0", "jordan-no-block", "jordan-skew"],
)
def test_constructors_reject_nan_and_empty_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_jordan_nonlinearity_is_finite_up_to_the_largest_a_ball():
    # the nonlinearity's scale a_ball^3 / 4 is a finite float up to MAX_A_BALL
    model = sl.jordan_model(a_ball=MAX_A_BALL, c=1e-300)
    assert math.isfinite(model._phi_lipschitz())
    assert np.isfinite(model.system.forward(np.array([2.0 * MAX_A_BALL, 0.0]))).all()
    with pytest.raises(ValueError, match="a_ball must be at most"):
        sl.jordan_model(a_ball=math.nextafter(MAX_A_BALL, math.inf), c=1e-300)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: sl.orbit_segment(sl.cat_map().system, [0.1, 0.2], 2, 1), "start must be <= stop"),
        (lambda: low_discrepancy_sample(PhaseSpace.torus(2), 0), "count must be >= 1"),
        (lambda: sl.estimate_norm_bound(sl.cat_map().system, samples=0), "samples must be >= 1"),
    ],
    ids=["segment", "sample", "norm-bound"],
)
def test_walks_and_samples_reject_empty_ranges(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_start_point_outside_the_box_escapes_at_step_zero():
    lin = sl.linear_system(np.diag([2.0, 0.5]), halfwidth=1.0)
    for k in (0, 1, -1):
        with pytest.raises(OrbitEscapeError, match="at step 0") as info:
            sl.evaluate(lin, [1.5, 0.0], k)
        assert info.value.point.tolist() == [1.5, 0.0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", ["torus", "box"])
def test_walks_reject_a_non_finite_start_point(kind, value):
    # before the chart: on the torus np.mod(inf, 1.0) would warn and walk NaN rows
    sys_ = sl.cat_map().system if kind == "torus" else sl.linear_system([[2, 1], [1, 1]])
    walks = (
        lambda x: sl.evaluate(sys_, x, 2),
        lambda x: sl.evaluate(sys_, x, -2),
        lambda x: sl.orbit_segment(sys_, x, 0, 2),
        lambda x: sl.orbit_segment(sys_, x, -2, 0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in ([value, 0.0], [[0.1, 0.2], [0.3, value]]):
            for walk in walks:
                with pytest.raises(NotAnOrbitError, match="start point holds a non-finite value"):
                    walk(start)


# ---------------------------------------------------------------------------
# row-norm kernel and chart parity with the numpy calls they replace


def _norm_rows(n: int) -> np.ndarray:
    """Rows of width n over every magnitude class: zeros and signed zeros,
    subnormals, values whose squares underflow or overflow, random rows with
    spread exponents, and rows holding inf, -inf and NaN."""
    tiny = np.finfo(float).smallest_subnormal
    rng = np.random.default_rng(n)
    special = [0.0, -0.0, tiny, -3 * tiny, 1e-310, 1e-160, 1.0, 1e154, 1e200, -1e308]
    rows = [np.full(n, v) for v in special]
    rows += [np.resize(special, n), np.resize(special[::-1], n)]
    spread = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-320, 300, (500, n))
    rows += list(spread)
    for bad in (np.inf, -np.inf, np.nan):
        for j in range(n):
            row = rng.standard_normal(n)
            row[j] = bad
            rows.append(row)
    rows.append(np.resize([np.inf, np.nan], n))
    return np.array(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_row_norms_are_numpys_norm_bit_for_bit(n):
    rows = _norm_rows(n)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = rows[: len(rows) // 2 * 2].reshape(-1, 2, n)[:, ::-1]  # (..., n), strided
        for x in (rows, batch, rows[:0], rows[7], np.asfortranarray(rows)):
            got, want = _row_norms(x), np.linalg.norm(x, axis=-1)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("kind", ["torus", "box"])
def test_chart_diff_and_dist_are_the_numpy_forms_bit_for_bit(kind, n):
    space = PhaseSpace.torus(n) if kind == "torus" else PhaseSpace.cube(n, 10.0)
    rng = np.random.default_rng(100 + n)
    # half-integer offsets put rint's ties (half to even) on the torus
    a = np.concatenate((rng.uniform(-2, 2, (300, n)), np.full((2, n), 0.5), np.zeros((1, n))))
    b = np.concatenate((rng.uniform(-2, 2, (300, n)), np.full((2, n), -1.0), np.full((1, n), -0.0)))
    d = a - b
    old_diff = d - np.round(d) if kind == "torus" else d
    assert space.diff(a, b).tobytes() == old_diff.tobytes()
    for i in range(len(a)):
        dist = space.dist(a[i], b[i])
        assert type(dist) is float
        assert dist == float(_row_norms(space.diff(a[i], b[i])))
    assert space.dist(a, b) == float(_row_norms(space.diff(a, b).ravel()))
