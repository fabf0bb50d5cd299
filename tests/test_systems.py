import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import shadowlab as sl
from shadowlab.errors import OrbitEscapeError, StepLimitError
from shadowlab.systems import PhaseSpace, low_discrepancy_sample

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
    assert not space.contains(np.array([1.5, 0.0]))


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


@pytest.mark.parametrize(
    "value", [-1e-20, -(2.0**-54), -0.0, np.nextafter(1.0, 0.0), 1.0, 2.0, -1.0]
)
def test_torus_wrap_lands_in_the_unit_interval_and_is_idempotent(value):
    space = PhaseSpace.torus(1)
    once = space.wrap([value])
    assert 0.0 <= once[0] < 1.0
    assert space.wrap(once).tobytes() == once.tobytes()


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
# input guards: NaN fails every check


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PhaseSpace.cube(2, float("nan")), "positive halfwidth"),
        (lambda: PhaseSpace.cube(0, 1.0), "dimension >= 1"),
        (lambda: sl.linear_system(np.zeros((0, 0))), "dimension >= 1"),
        (lambda: sl.jordan_model(c=float("nan")), "c must be >= 0"),
        (lambda: sl.jordan_model(a_ball=float("nan")), "a_ball must be positive"),
        (lambda: sl.jordan_model(tail=(float("nan"),)), "tail entries"),
    ],
    ids=["cube-nan", "cube-0", "linear-0", "jordan-c", "jordan-a-ball", "jordan-tail"],
)
def test_constructors_reject_nan_and_empty_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()
