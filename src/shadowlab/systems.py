"""Dynamical systems on flat phase spaces.

A system is an invertible map together with its Jacobians on either the unit
torus [0,1)^n (wrap-around metric) or a Euclidean box.  Built-in families:

* toral automorphisms  x -> M x  (mod 1)  for an integer matrix with |det| = 1,
* Jordan-block models  v -> A v + phi(v)  with A = diag(B, P), where B is a
  unit-modulus Jordan-type block, P is a hyperbolic diagonal tail and phi is a
  configurable nonlinearity that vanishes identically on a core ball,
* smoothly perturbed toral automorphisms,
* arbitrary linear maps on a box (mostly used as test oracles).

Every map is batch-native: ``forward``, ``inverse`` and ``jacobian`` take one
point of shape (n,) or a batch of shape (..., n) and return (..., n) for
points and (..., n, n) for Jacobians, row by row.  Maps return chart points
(``PhaseSpace.wrap`` applied once), so no caller wraps an image again.  Linear
parts are ``wrap(x @ A.T)``; a constant Jacobian is a read-only broadcast view
of its matrix.  Every globally linear system (a toral automorphism, a linear
map on a box, a Jordan model with c = 0) is built by the one helper ``_linear``.

Every Euclidean length (defects, residuals, sup distances, peaks, ``dist``) is
the one kernel ``_row_norms``: the squares are summed column by column in
order, then ``np.sqrt`` is taken.  numpy's ``norm`` over the last axis sums
fewer than 8 terms in the same order, so for n <= 7 the two agree bit for bit,
and the kernel takes a tenth of the time on a long sequence.  For n >= 8 numpy
sums pairwise and the last bit may differ; no built-in system or benchmark
workload has n >= 8.

All systems are immutable after construction and evaluation is pure, so they
are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _intmat
from .errors import NotAnOrbitError, OrbitEscapeError, StepLimitError

Array = np.ndarray

MAX_ITERATE_STEPS = 10**7


def _frozen(a, dtype=float) -> Array:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhaseSpace:
    """Flat phase space: the unit torus or a Euclidean box.

    ``diff`` returns the displacement vector between two points in chart
    coordinates (shortest wrapped representative on the torus) and ``dist``
    its Euclidean length, so the torus metric never exceeds sqrt(n)/2.
    """

    kind: str  # "torus" | "euclidean"
    dim: int
    halfwidth: float | None = None  # of the box

    @staticmethod
    def torus(dim: int) -> "PhaseSpace":
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        return PhaseSpace("torus", dim)

    @staticmethod
    def cube(dim: int, halfwidth: float) -> "PhaseSpace":
        if dim < 1 or not 0 < halfwidth < math.inf:
            raise ValueError("need dimension >= 1 and a finite positive halfwidth")
        return PhaseSpace("euclidean", dim, float(halfwidth))

    def wrap(self, x: Array) -> Array:
        """The one chart: [0, 1) on the torus (idempotent), x itself on a box.

        On the torus y = x - floor(x) is the correctly rounded x mod 1, the
        value numpy's float mod by 1.0 gives: floor(x) is exact, and for x < 0
        the exact fraction x - trunc(x) is rounded once on adding 1, just as
        mod rounds it.  Only an x in [-2**-54, 0) rounds up to 1.0, which the
        second pass sends to 0.0.  So the result has the bits of mod 1 taken
        twice, in about a tenth of the time on a long batch; an integral x
        gives +0.0, and inf or nan gives nan.
        """
        x = np.asarray(x, dtype=float)
        if self.kind != "torus":
            return x
        y = x - np.floor(x)
        y -= np.floor(y)
        return y

    def contains(self, x: Array) -> bool:
        if self.kind == "torus":
            return True
        return bool(np.all(np.abs(x) <= self.halfwidth))

    def diff(self, a: Array, b: Array) -> Array:
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.kind == "torus":
            d = d - np.rint(d)
        return d

    def dist(self, a: Array, b: Array) -> float:
        # the row-norm kernel over the raveled displacement: its column sum,
        # not a BLAS dot product, which rounds some pairs one ulp apart
        return float(_row_norms(self.diff(a, b).ravel()))


@dataclass(frozen=True)
class DiscreteSystem:
    """Invertible map with Jacobians on a flat phase space.

    Each map takes a point (n,) or a batch (..., n) (see the module docstring);
    ``forward`` and ``inverse`` return wrapped points, which callers never wrap
    again.  ``linear_matrix`` holds A for a globally linear map; no solver needs it.
    """

    space: PhaseSpace
    forward: Callable[[Array], Array]
    inverse: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    linear_matrix: Array | None = None

    @property
    def dim(self) -> int:
        return self.space.dim


def _row_norms(x: Array) -> Array:
    """Euclidean norms over the last axis, the squares summed in column order
    (see the module docstring)."""
    squares = np.square(x)
    total = squares[..., 0]
    for j in range(1, squares.shape[-1]):
        total = total + squares[..., j]
    return np.sqrt(total)


def evaluate(sys: DiscreteSystem, x: Array, k: int) -> Array:
    """Return the k-th iterate of x, a point or a batch of points (negative k
    uses the inverse map).  A non-finite start point raises NotAnOrbitError;
    finite torus images stay finite, and a box stops an escape."""
    if abs(k) > MAX_ITERATE_STEPS:
        raise StepLimitError(f"|k| must be <= {MAX_ITERATE_STEPS}, got {k}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NotAnOrbitError("the start point holds a non-finite value")
    x = sys.space.wrap(x)
    if not sys.space.contains(x):
        raise OrbitEscapeError(0, x)
    step = sys.forward if k >= 0 else sys.inverse
    for i in range(abs(k)):
        x = step(x)
        if not sys.space.contains(x):
            raise OrbitEscapeError(i + 1, x)
    return x


def orbit_segment(sys: DiscreteSystem, x: Array, start: int, stop: int) -> Array:
    """Return the iterates f^i(x) for i = start..stop as a (stop-start+1, n) array."""
    if start > stop:
        raise ValueError("start must be <= stop")
    if stop - start > MAX_ITERATE_STEPS:
        raise StepLimitError(f"stop - start must be <= {MAX_ITERATE_STEPS}, got {stop - start}")
    current = evaluate(sys, x, start)
    out = np.empty((stop - start + 1, sys.dim))
    out[0] = current
    space, forward = sys.space, sys.forward
    for j in range(1, stop - start + 1):
        current = forward(current)
        if not space.contains(current):
            raise OrbitEscapeError(start + j, current)
        out[j] = current
    return out


def _primes():
    """2, 3, 5, 7, ...: every prime, in increasing order."""
    return (p for p in itertools.count(2) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def low_discrepancy_sample(space: PhaseSpace, count: int) -> Array:
    """Deterministic Halton sample of the phase space (same points every run):
    column j holds the radical inverses of 0 .. count-1 in the j-th prime, the
    digits summed in the order of SciPy's unscrambled Halton, equal to the bit."""
    if count < 1:
        raise ValueError("count must be >= 1")
    unit = np.zeros((count, space.dim))
    for j, base in zip(range(space.dim), _primes()):
        q, scale = np.arange(count), 1.0 / base
        while q.any():
            unit[:, j] += (q % base) * scale
            q, scale = q // base, scale / base
    if space.kind == "torus":
        return unit
    return unit * (2.0 * space.halfwidth) - space.halfwidth


def estimate_norm_bound(sys: DiscreteSystem, samples: int = 10_000) -> float:
    """Max operator norm of the Jacobian over a deterministic sample.

    Exact (and independent of ``samples``) for globally linear systems.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    jacs = sys.jacobian(low_discrepancy_sample(sys.space, samples))
    return float(np.linalg.svd(jacs, compute_uv=False)[:, 0].max())


def _constant_jacobian(a: Array) -> Callable[[Array], Array]:
    return lambda x: np.broadcast_to(a, np.shape(x)[:-1] + a.shape)


def _newton_inverse(space: PhaseSpace, forward, jacobian, y: Array, x: Array, tol) -> Array:
    """Solve forward(x) = y by Newton from x, row by row: a row stops moving
    once its residual is within tol, and the iteration ends when all have."""
    for _ in range(100):
        r = space.diff(forward(x), y)
        todo = _row_norms(r) > tol
        if not todo.any():
            return x
        step = np.linalg.solve(jacobian(x), r[..., None])[..., 0]
        x = np.where(todo[..., None], space.wrap(x - step), x)
    raise RuntimeError("inverse Newton iteration failed to converge")


# ---------------------------------------------------------------------------
# linear systems


def _linear(space: PhaseSpace, a: Array, a_inv: Array) -> DiscreteSystem:
    """x -> A x on ``space`` (mod 1 on the torus), with inverse x -> A^-1 x."""
    a_t, a_inv_t, wrap = a.T, a_inv.T, space.wrap
    forward, inverse = lambda x: wrap(x @ a_t), lambda x: wrap(x @ a_inv_t)
    return DiscreteSystem(space, forward, inverse, _constant_jacobian(a), linear_matrix=a)


def linear_system(matrix, halfwidth: float = 1e6) -> DiscreteSystem:
    """Invertible linear map v -> A v on a centered Euclidean box."""
    a = _frozen(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return _linear(PhaseSpace.cube(a.shape[0], halfwidth), a, _frozen(np.linalg.inv(a)))


# ---------------------------------------------------------------------------
# toral automorphisms


def _integer_matrix(matrix) -> Array:
    m = np.asarray(matrix)
    m_int = np.rint(m).astype(np.int64)
    if not np.all(np.abs(m - m_int) < 1e-9):
        raise ValueError("toral automorphism matrix must have integer entries")
    if m_int.ndim != 2 or m_int.shape[0] != m_int.shape[1]:
        raise ValueError("matrix must be square")
    return m_int


@dataclass(frozen=True)
class ToralAutomorphism:
    """x -> M x (mod 1) for an integer matrix with |det M| = 1."""

    matrix: Array  # int64, read-only
    inverse_matrix: Array
    hyperbolic: bool

    @cached_property
    def system(self) -> DiscreteSystem:
        return _linear(
            PhaseSpace.torus(self.matrix.shape[0]),
            _frozen(self.matrix),
            _frozen(self.inverse_matrix),
        )


def toral_automorphism(matrix) -> ToralAutomorphism:
    m_int = _integer_matrix(matrix)
    det = _intmat.det(_intmat.int_matrix(m_int))
    if abs(det) != 1:
        raise ValueError(f"|det| must be 1, got {det}")
    inv = np.rint(np.linalg.inv(m_int.astype(float))).astype(np.int64)
    if not np.array_equal(m_int @ inv, np.eye(m_int.shape[0], dtype=np.int64)):
        raise ValueError("failed to compute the exact integer inverse")
    moduli = np.abs(np.linalg.eigvals(m_int.astype(float)))
    hyperbolic = bool(np.all(np.abs(moduli - 1.0) > 1e-9))
    return ToralAutomorphism(_frozen(m_int, np.int64), _frozen(inv, np.int64), hyperbolic)


def cat_map() -> ToralAutomorphism:
    """The standard hyperbolic automorphism [[2, 1], [1, 1]] of the 2-torus."""
    return toral_automorphism([[2, 1], [1, 1]])


# ---------------------------------------------------------------------------
# Jordan-block models


def _bump(t: Array) -> Array:
    # exp(-1/t) continued by zero: the standard C-infinity mollifier leg
    pos = t > 0.0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def _bump_deriv(t: Array) -> Array:
    s = np.where(t > 0.0, t, 1.0)
    return _bump(t) / (s * s)


def _smoothstep(t: Array) -> Array:
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1 (h1 + h2 > 0 for every finite t)."""
    h1, h2 = _bump(t), _bump(1.0 - t)
    return h1 / (h1 + h2)


def _smoothstep_deriv(t: Array) -> Array:
    h1, h2 = _bump(t), _bump(1.0 - t)
    s = h1 + h2
    return (_bump_deriv(t) * h2 + h1 * _bump_deriv(1.0 - t)) / (s * s)


def real_jordan_block(size: int, eigenvalue: int) -> Array:
    """size x size block: ``eigenvalue`` on the diagonal, ones on the superdiagonal."""
    if size < 1:
        raise ValueError("block size must be >= 1")
    if eigenvalue not in (1, -1):
        raise ValueError("eigenvalue must be +1 or -1")
    b = np.eye(size) * eigenvalue
    for i in range(size - 1):
        b[i, i + 1] = 1.0
    return b


def rotation_jordan_block(planes: int, theta: float) -> Array:
    """2*planes x 2*planes block: rotation blocks R(theta) on the diagonal, identity couplings above."""
    if planes < 1:
        raise ValueError("number of planes must be >= 1")
    a, b = math.cos(theta), math.sin(theta)
    r = np.array([[a, -b], [b, a]])
    out = np.zeros((2 * planes, 2 * planes))
    for i in range(planes):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = r
        if i + 1 < planes:
            out[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = np.eye(2)
    return out


@dataclass(frozen=True)
class JordanModel:
    """Fixed point at the origin with differential A = diag(B, P).

    ``block`` selects B: "real" (unit Jordan block of size ``size`` with
    eigenvalue +-1), "rotation" (size 2*``size`` with rotation angle
    ``theta``), or None for a purely hyperbolic diagonal map A = P.

    The map is F(v) = A v + phi(v) where phi vanishes identically for
    |v| <= a_ball, satisfies |phi(v)| <= c |v|^3 everywhere, and saturates
    smoothly beyond 2 a_ball so the map stays a global diffeomorphism for the
    default scale c = 1.  Inside the core ball the evaluation takes the exact
    linear branch, bit-for-bit reproducible.  At c = 0 the map is exactly
    linear and ``system`` is ``linear_system(matrix, halfwidth)``.
    """

    block: str | None
    size: int
    eigenvalue: int
    theta: float
    tail: tuple[float, ...]
    c: float
    a_ball: float
    halfwidth: float
    matrix: Array = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _phi_profile(self, r: Array) -> tuple[Array, Array]:
        """Radial profile beta(r) of the nonlinearity and its derivative."""
        a = self.a_ball
        t = (r - a) / a
        return a**3 / 4.0 * _smoothstep(t), a**3 / 4.0 * _smoothstep_deriv(t) / a

    def _outside_core(self, v: Array) -> tuple[Array, Array]:
        """Row norms |v| (keepdims; a_ball on rows inside the core ball) and the
        mask |v| > a_ball of rows outside it."""
        r = _row_norms(v)[..., None]
        outside = r > self.a_ball
        return np.where(outside, r, self.a_ball), outside

    def phi(self, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        r, outside = self._outside_core(v)
        beta, _ = self._phi_profile(r)
        return np.where(outside, (self.c * beta / r) * v, 0.0)

    def phi_jacobian(self, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        n = v.shape[-1]
        r, outside = self._outside_core(v)
        beta, dbeta = self._phi_profile(r[..., None])
        unit = v / r
        proj = unit[..., :, None] * unit[..., None, :]
        jac = self.c * (dbeta * proj + (beta / r[..., None]) * (np.eye(n) - proj))
        return np.where(outside[..., None], jac, 0.0)

    @cached_property
    def system(self) -> DiscreteSystem:
        if self.c == 0.0:
            return linear_system(self.matrix, self.halfwidth)
        a = self.matrix
        a_t, a_inv_t = a.T, np.linalg.inv(a).T
        space = PhaseSpace.cube(self.dim, self.halfwidth)
        linear_jacobian = _constant_jacobian(a)

        # rows inside the core ball take the exact linear branch; np.where
        # keeps their bits (lin + 0 would turn -0.0 into 0.0)
        def forward(v: Array) -> Array:
            v = np.asarray(v, dtype=float)
            lin = v @ a_t
            return np.where(self._outside_core(v)[1], lin + self.phi(v), lin)

        def jacobian(v: Array) -> Array:
            v = np.asarray(v, dtype=float)
            lin = linear_jacobian(v)
            outside = self._outside_core(v)[1][..., None]
            return np.where(outside, lin + self.phi_jacobian(v), lin)

        def inverse(y: Array) -> Array:
            y = np.asarray(y, dtype=float)
            tol = 1e-14 * (1.0 + _row_norms(y))
            return _newton_inverse(space, forward, jacobian, y, y @ a_inv_t, tol)

        return DiscreteSystem(space=space, forward=forward, inverse=inverse, jacobian=jacobian)

    def _phi_lipschitz(self) -> float:
        # sup over r of max(beta'(r), beta(r)/r), evaluated on a fine grid
        rs = np.linspace(self.a_ball, 2.5 * self.a_ball, 2001)
        beta, dbeta = self._phi_profile(rs)
        return float(max(0.0, np.max(np.abs(dbeta)), np.max(beta / rs)))


def jordan_model(
    block: str | None = "real",
    size: int = 2,
    eigenvalue: int = 1,
    theta: float = 0.0,
    tail: Sequence[float] = (),
    c: float = 1.0,
    a_ball: float = 0.5,
    halfwidth: float | None = None,
) -> JordanModel:
    """Construct a Jordan-block model (see JordanModel for the map definition)."""
    tail = tuple(float(t) for t in tail)
    for t in tail:
        if not (abs(t) >= 1e-9 and abs(abs(t) - 1.0) >= 1e-9):
            raise ValueError("tail entries must have modulus away from 0 and 1")
    if not c >= 0:
        raise ValueError("nonlinearity scale c must be >= 0")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not 0 < a_ball < math.inf:
        raise ValueError(f"a_ball must be positive and finite, got {a_ball!r}")
    if halfwidth is None:
        halfwidth = 4.0 * a_ball
    if not 0 < halfwidth < math.inf:
        raise ValueError(f"halfwidth must be positive and finite, got {halfwidth!r}")
    if block == "real":
        b = real_jordan_block(size, eigenvalue)
    elif block == "rotation":
        b = rotation_jordan_block(size, theta)
    elif block is None:
        if not tail:
            raise ValueError("a model without a block needs a nonempty tail")
        b = np.zeros((0, 0))
    else:
        raise ValueError(f"unknown block kind {block!r}")
    n_block = b.shape[0]
    a = np.zeros((n_block + len(tail), n_block + len(tail)))
    a[:n_block, :n_block] = b
    if tail:
        a[n_block:, n_block:] = np.diag(tail)
    model = JordanModel(
        block=block,
        size=size,
        eigenvalue=int(eigenvalue),
        theta=float(theta),
        tail=tail,
        c=float(c),
        a_ball=float(a_ball),
        halfwidth=float(halfwidth),
        matrix=_frozen(a),
    )
    if model.c > 0.0:
        sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
        if model.c * model._phi_lipschitz() >= 0.95 * sigma_min:
            raise ValueError(
                "nonlinearity scale too large for global invertibility; reduce c or a_ball"
            )
    return model


# ---------------------------------------------------------------------------
# perturbed toral automorphisms


def perturbed_toral(matrix, amplitude: float = 0.05) -> DiscreteSystem:
    """x -> M x + amplitude * g(x) (mod 1) with g_i(x) = sin(2 pi x_{i+1}) / (2 pi).

    The perturbation is 1-periodic and smooth; the amplitude must stay below
    0.9 times the smallest singular value of M to keep a diffeomorphism.
    """
    base = toral_automorphism(matrix)
    m = base.matrix.astype(float)
    n = m.shape[0]
    amplitude = float(amplitude)
    sigma_min = float(np.linalg.svd(m, compute_uv=False)[-1])
    if not 0 <= amplitude < 0.9 * sigma_min:
        raise ValueError(f"amplitude must be in [0, {0.9 * sigma_min:.3f}) for invertibility")
    space = PhaseSpace.torus(n)
    shift = np.arange(1, n + 1) % n  # coordinate driving g_i
    m_t = m.T

    def g(x: Array) -> Array:
        return np.sin(2.0 * math.pi * x[..., shift]) / (2.0 * math.pi)

    def dg(x: Array) -> Array:
        out = np.zeros(x.shape + (n,))
        out[..., np.arange(n), shift] = np.cos(2.0 * math.pi * x[..., shift])
        return out

    def forward(x: Array) -> Array:
        return space.wrap(x @ m_t + amplitude * g(x))

    def jacobian(x: Array) -> Array:
        return m + amplitude * dg(x)

    def inverse(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        x = space.wrap(np.linalg.solve(m, y[..., None])[..., 0])
        return _newton_inverse(space, forward, jacobian, y, x, 1e-14)

    return DiscreteSystem(
        space=space,
        forward=forward,
        inverse=inverse,
        jacobian=jacobian,
        linear_matrix=None if amplitude > 0 else m,
    )
