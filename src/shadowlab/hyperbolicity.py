"""Analysis of periodic orbits: multipliers, splittings, expansion certificates.

The monodromy of a period-m orbit is the ordered Jacobian product
Df(p_{m-1}) ... Df(p_0).  Its spectrum splits the tangent space at p_0 into
stable and unstable invariant subspaces: one unsorted real Schur form from
LAPACK's gees gives the multipliers, and reordered by trsen once for each
side, the bases, so complex pairs stay together and the bases are real and
orthonormal.
subspace_angle carries these bases along the orbit, E(p_{i+1}) = Df(p_i) E(p_i),
re-orthonormalised at each step by two-pass classical Gram-Schmidt, which is
orthogonal to working precision ("twice is enough"): the unstable basis moves
forward from p_0 through the Jacobians, the stable one backward from
p_m = p_0 through their inverses, taken in one batched call, so each moves
in its numerically stable direction and the splitting gap at every point
costs O(m) per orbit.  When the two bases have one shape (every 2-D orbit)
they move as one stack, each step one batched product over both.

extract_uniform_constants runs that one transport on many records: it groups
them by (period, dim S, dim U) and carries each group as one stack, one
batched product and Gram-Schmidt sweep per step, then multiplies the k x k
factors of Df in those frames.  A group's Jacobians are stacked step axis
first, (m, N, n, n), so step i is the contiguous (N, n, n) slab jacobians[i];
a single record's own (m, n, n) Jacobians are the same layout without the N
axis, and subspace_angle runs the same kernel on them.

The expansion certificate attaches to an unstable vector the per-step growth
rates lambda_i and the coefficients a_m = 0, a_i = (a_{i+1} + 1) / lambda_i,
run backward, where rounding errors are damped rather than multiplied by rate
products; tau = a_0.  Products of the rates are then checked against the
uniform lower bound curve (1 / (16 L)) (1 + 1 / (8 L))^i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import _intmat
from .errors import (
    DegenerateMatrixError,
    LostPrecisionError,
    NonhyperbolicOrbitError,
    NotPeriodicError,
    StepLimitError,
    TooManyPeriodicPointsError,
    VectorNotUnstableError,
)
from .systems import MAX_ITERATE_STEPS, DiscreteSystem, orbit_segment

Array = np.ndarray

UNIT_MODULUS_BAND = 1e-6
PERIODICITY_TOL = 1e-8
# largest |det(M^m - I)| the enumerator materialises (period 15 of the cat map
# has 1860496 points, period 16 has 4870845)
MAX_PERIODIC_POINTS = 2**22


@dataclass(frozen=True)
class PeriodicOrbitRecord:
    """Multipliers and splitting of a periodic orbit.

    ``index`` counts multipliers of modulus > 1 and equals the dimension of
    the unstable subspace when the orbit is hyperbolic.  The bases at p_0 are
    orthonormal and invariant, to within 1e-8, under the monodromy
    jacobians[m-1] ... jacobians[0].
    """

    period: int
    points: Array  # (m, n) orbit, p_0 first
    jacobians: Array  # (m, n, n) per-step Jacobians
    multipliers: Array  # complex, sorted by decreasing modulus
    index: int
    hyperbolic: bool
    stable_basis: Array  # (n, dim S)
    unstable_basis: Array  # (n, dim U)


@dataclass(frozen=True)
class ExpansionCertificate:
    """Per-orbit expansion data for one unstable vector.

    ``products[i]`` is lambda_0 * ... * lambda_{i-1} (empty product 1), the
    factor by which the i-th differential stretches the chosen vector.
    ``directions[i]`` is that stretched vector normalised to unit length, the
    vector lambda_i is measured on.  ``displacement`` is only set by the
    pullback witness constructor and holds the periodic tangent displacement
    sequence w_i.
    """

    rates: Array  # lambda_0 .. lambda_{m-1}
    coefficients: Array  # a_0 .. a_m, a_m = 0
    products: Array  # length m
    directions: Array | None = None  # (m, n) unit vectors v_0 .. v_{m-1}
    displacement: Array | None = None

    @property
    def period(self) -> int:
        return len(self.rates)

    @property
    def tau(self) -> float:
        return float(self.coefficients[0])

    def bound_curve(self, constant: float) -> Array:
        i = np.arange(self.period)
        return (1.0 / (16.0 * constant)) * (1.0 + 1.0 / (8.0 * constant)) ** i


def expansion_coefficients(rates) -> Array:
    """a_0 .. a_m from a_m = 0 backward, a_i = (a_{i+1} + 1) / lambda_i; a step
    off a_{i+1} = lambda_i a_i - 1 by 1e-12 relative (a NaN or inf rate) raises."""
    a = [0.0]  # a_m, a_{m-1}, ..., a_0
    for lam in reversed(np.asarray(rates, dtype=float).tolist()):
        a.append((a[-1] + 1.0) / lam)
        if not (abs(lam * a[-1] - 1.0 - a[-2]) <= 1e-12 * (a[-2] + 1.0)):
            raise RuntimeError(f"telescoping failure at rate {lam!r}: a_i = {a[-1]!r}")
    return np.array(a[::-1])


_GEES, _TRSEN = get_lapack_funcs(("gees", "trsen"), dtype=np.float64)


def _unsorted(wr: float, wi: float) -> bool:
    """gees's selection callback; never called, since no sort is asked for."""
    return False


def _schur(monodromy: Array) -> tuple[Array, Array, Array]:
    """Unsorted real Schur form (T, Z) of the monodromy from gees, and its
    eigenvalues wr + i wi, real when every wi is 0 (numpy's convention)."""
    lwork = _GEES(_unsorted, monodromy, lwork=-1)[-2][0].real.astype(np.int_)
    t, _, wr, wi, z, _, info = _GEES(_unsorted, monodromy, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"gees failed to reduce the monodromy (info {info})")
    # (wr, wi) pairs viewed as complex keep the sign of a zero real part
    return t, z, np.stack((wr, wi), axis=-1).view(np.complex128)[:, 0] if wi.any() else wr


def _split_bases(t: Array, z: Array, moduli: Array, band: float) -> tuple[Array, Array]:
    """Orthonormal bases of the stable and unstable invariant subspaces.

    The Schur form of _schur, reordered by trsen with the selections
    |w| < 1 - band and |w| > 1 + band (``moduli`` is |w| in Schur order): the
    steps gees takes when it sorts (dhseqr, dtrsen, dgebak's row permutation,
    which commutes with trsen's column rotations), so each basis equals the
    leading Schur vectors of ``scipy.linalg.schur(..., sort=...)`` bit for bit.
    """
    bases = []
    for select in (moduli < 1.0 - band, moduli > 1.0 + band):
        _, q, _, _, k, _, _, info = _TRSEN(select, t, z, job="N")
        if info != 0:
            raise np.linalg.LinAlgError(f"trsen failed to reorder the Schur form (info {info})")
        bases.append(q[:, :k])
    return bases[0], bases[1]


def analyze_periodic_orbit(sys: DiscreteSystem, p: Array, m: int) -> PeriodicOrbitRecord:
    """Monodromy, multipliers, index and stable/unstable splitting at f^i(p).

    One unsorted Schur form of the monodromy gives the multipliers (sorted by
    decreasing modulus, then real and imaginary part) and, reordered once per
    side, the bases.  ``m`` need not be the minimal period.  A unit-modulus
    multiplier (within 1e-6) yields hyperbolic=False, which is a result, not
    an error.  A monodromy that overflows, or multipliers lost to rounding
    (log-moduli off sum log|det Df(p_i)|), raise LostPrecisionError.
    """
    if m < 1:
        raise ValueError("period must be >= 1")
    pts = orbit_segment(sys, p, 0, m)  # p wrapped first, and f^m(p) for the periodicity check
    gap = sys.space.dist(pts[m], pts[0])
    if gap > PERIODICITY_TOL:
        raise NotPeriodicError(f"f^{m}(p) is {gap:.3e} away from p (tolerance {PERIODICITY_TOL})")
    pts = pts[:m]
    jacs = sys.jacobian(pts)
    monodromy = np.eye(sys.dim)
    # an overflowing product or a multiplier rounded to 0 is a typed error below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a in jacs:
            monodromy = a @ monodromy
        if not np.isfinite(monodromy).all():
            raise LostPrecisionError(f"period-{m} monodromy overflows")
        t, z, multipliers = _schur(monodromy)
        moduli = np.abs(multipliers)  # in Schur order
        order = np.lexsort((multipliers.imag, multipliers.real, -moduli))
        # log|det B| two ways: from the multipliers and from the Jacobians
        drift = abs(float(np.log(moduli[order]).sum() - np.linalg.slogdet(jacs)[1].sum()))
    if not (drift <= UNIT_MODULUS_BAND):
        raise LostPrecisionError(f"period-{m} multipliers lost to rounding (log drift {drift:.3g})")
    hyperbolic = bool(np.all(np.abs(moduli - 1.0) >= UNIT_MODULUS_BAND))
    band = 0.0 if hyperbolic else UNIT_MODULUS_BAND
    stable, unstable = _split_bases(t, z, moduli, band)
    # the residual check runs on B 2^-e, e >= 0 the binary exponent of max|B_ij|:
    # scaling by a power of two is exact, so it decides as on B itself, but no
    # norm of B 2^-e overflows
    unit = math.ldexp(1.0, -max(0, math.frexp(np.abs(monodromy).max())[1]))
    scaled = monodromy * unit
    scale = max(unit, np.linalg.norm(scaled))
    for basis in (stable, unstable):
        image = scaled @ basis
        residual = image - basis @ (basis.T @ image)
        if np.linalg.norm(residual) > 1e-8 * scale:
            raise RuntimeError("invariant subspace residual too large; eigensolver failure")
    return PeriodicOrbitRecord(
        period=m,
        points=pts,
        jacobians=jacs,
        multipliers=multipliers[order],
        index=int(np.sum(moduli > 1.0 + band)),
        hyperbolic=hyperbolic,
        stable_basis=stable,
        unstable_basis=unstable,
    )


def expansion_certificate(
    sys: DiscreteSystem | None, record: PeriodicOrbitRecord, v_u: Array
) -> ExpansionCertificate:
    """Growth rates along the orbit for an unstable vector, with the
    coefficient sequence of expansion_coefficients (a_m = 0 by construction).

    ``sys`` is accepted for interface symmetry with the other orbit
    operations; all data comes from the record's stored Jacobians.
    """
    if not record.hyperbolic:
        raise VectorNotUnstableError("orbit is not hyperbolic")
    v_u = np.asarray(v_u, dtype=float)
    norm = np.linalg.norm(v_u)
    if norm == 0.0:
        raise VectorNotUnstableError("unstable vector must be nonzero")
    u = record.unstable_basis
    if u.shape[1] == 0 or np.linalg.norm(v_u - u @ (u.T @ v_u)) / norm > 1e-8:
        raise VectorNotUnstableError("vector does not lie in the unstable subspace")
    m = record.period
    rates = np.empty(m)
    directions = np.empty((m, len(v_u)))
    v = v_u / norm
    for i, a in enumerate(record.jacobians):
        directions[i] = v
        w = a @ v
        rates[i] = math.sqrt(w @ w)
        v = w / rates[i]
    products = np.concatenate(([1.0], np.cumprod(rates[: m - 1])))
    return ExpansionCertificate(rates, expansion_coefficients(rates), products, directions)


def verify_growth_bound(data: ExpansionCertificate, constant: float) -> bool:
    """True iff products[i] > (1/(16 L)) (1 + 1/(8 L))^i for all i < m."""
    if constant < 1.0:
        raise ValueError("the certificate constant must be >= 1")
    return bool(np.all(data.products > data.bound_curve(constant)))


@dataclass(frozen=True)
class HyperbolicityConstants:
    """Empirical uniform constants: |Df^j v| <= C lam^j |v| on stable vectors
    (and symmetrically under Df^{-j} on unstable ones).  Fitted over a finite
    horizon and a finite set of orbits; never a certificate."""

    growth_constant: float  # C
    rate: float  # lam in (0, 1)


def _orbit_groups(records: list[PeriodicOrbitRecord]):
    """Records grouped by (period, dim S, dim U), in order of first appearance.

    Yields for each group its indices into ``records``, the step-first
    Jacobian stack (m, N, n, n) and the bases at p_0, (N, n, dim S) and
    (N, n, dim U).
    """
    groups: dict[tuple, list[int]] = {}
    for i, r in enumerate(records):
        key = (r.period, r.stable_basis.shape, r.unstable_basis.shape)
        groups.setdefault(key, []).append(i)
    for indices in groups.values():
        group = [records[i] for i in indices]
        yield (
            indices,
            np.stack([r.jacobians for r in group], axis=1),
            np.stack([r.stable_basis for r in group]),
            np.stack([r.unstable_basis for r in group]),
        )


def extract_uniform_constants(
    sys: DiscreteSystem, records: list[PeriodicOrbitRecord], horizon: int
) -> HyperbolicityConstants:
    """Fit the smallest (C, lam) consistent with the orbit data.

    g(j) is the worst stretch of unit stable vectors under Df^j and of
    unstable ones under Df^{-j}, exact over each subspace.  On the frames B_i
    of _frames (B_m = B_0) Df(p_i) acts as F_i = B_{i+1}^T Df(p_i) B_i, k x k,
    so g(j) is the top singular value of F_{j-1} ... F_0 (stable side) or of
    F_{m-j}^-1 ... F_{m-1}^-1 (unstable side, indices mod m), each product a
    mantissa times an exact power of two.  lam = max_j g(j)^(1/j) and
    C = max_j g(j) / lam^j are fitted in log2, one stack per period and
    splitting dimensions.  A horizon over MAX_ITERATE_STEPS is a StepLimitError.

    ``sys`` is accepted for interface symmetry with the other orbit
    operations; all data comes from the records' stored Jacobians.
    """
    if not records:
        raise ValueError("empty input: need at least one orbit record")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > MAX_ITERATE_STEPS:
        raise StepLimitError(f"horizon must be <= {MAX_ITERATE_STEPS}, got {horizon}")
    _require_hyperbolic(records)
    log_g = np.concatenate(([0.0], np.full(horizon, -np.inf)))  # log2 g(j)
    for _, jacobians, stable, unstable in _orbit_groups(records):
        m = len(jacobians)
        for frames, backward in zip(_frames(jacobians, stable, unstable), (False, True)):
            if frames.shape[-1] == 0:
                continue
            factors = np.roll(frames, -1, axis=0).swapaxes(-1, -2) @ (jacobians @ frames)
            # step j applies maps[(j - 1) % m]: backward, F_{m-1}^-1 first
            maps = np.linalg.inv(factors)[::-1] if backward else factors
            product, exponent = np.eye(frames.shape[-1]), 0
            for j in range(1, horizon + 1):
                product = maps[(j - 1) % m] @ product
                # max|product| is brought into [1/2, 1) by an exact power of two
                shift = np.frexp(np.abs(product).max(axis=(-2, -1)))[1]
                product = np.ldexp(product, -shift[..., None, None])
                exponent = exponent + shift
                # top singular value from the k x k Gram matrix; at k = 1 it is |product|
                top = np.sqrt(np.linalg.eigvalsh(product.swapaxes(-1, -2) @ product)[..., -1])
                log_g[j] = max(log_g[j], np.max(np.log2(top) + exponent))
    steps = np.arange(horizon + 1)
    lam = min(float(np.exp2(np.max(log_g[1:] / steps[1:]))), 1.0 - 1e-12)
    c = float(np.exp2(np.max(log_g - steps * math.log2(lam))))
    return HyperbolicityConstants(growth_constant=c, rate=lam)


@dataclass(frozen=True)
class SplittingAngles:
    """Minimum gap beta = min |v_s - v_u| over unit stable/unstable vectors,
    per orbit point, computed from principal angles: beta = sqrt(2 - 2 cos(theta_min))."""

    per_point: Array
    minimum: float


def _orthonormal_columns(x: Array, q: Array) -> Array:
    """Orthonormal columns spanning those of ``x``, (..., n, k), batched over
    the leading axes and written into ``q`` (which must not overlap ``x``):
    two-pass classical Gram-Schmidt, each column projected out against the
    earlier ones twice, then scaled to unit length."""
    for j in range(x.shape[-1]):
        v = x[..., j : j + 1]
        if j:
            done = q[..., :j]
            for _ in range(2):
                v = v - done @ (done.swapaxes(-1, -2) @ v)
        np.divide(v, np.sqrt(v.swapaxes(-1, -2) @ v), out=q[..., j : j + 1])
    return q


def _carry(maps: Array, basis: Array) -> Array:
    """Path of ``basis`` through ``maps``, (m, ..., n, n) with the step axis
    first, orthonormalised after every map: (m + 1, ..., n, k), from ``basis``."""
    path = np.empty((len(maps) + 1,) + basis.shape)
    path[0] = basis
    for i, a in enumerate(maps):
        _orthonormal_columns(a @ path[i], path[i + 1])
    return path


def _frames(jacobians: Array, stable: Array, unstable: Array) -> tuple[Array, Array]:
    """Orthonormal stable and unstable bases at every point of one orbit or of
    a stack of orbits, (m, ..., n, dim S) and (m, ..., n, dim U), p_0 first.

    ``jacobians`` is (m, ..., n, n), step axis first, and ``stable`` and
    ``unstable`` the bases at p_0.  Bases of one shape (every 2-D orbit) are
    carried as one stack, the forward Jacobians beside the inverses.
    """
    # the stable basis is pulled back from p_m = p_0 through p_{m-1}, ..., p_1
    forward, backward = jacobians[:-1], jacobians[:0:-1]
    if stable.shape == unstable.shape:
        # the inverses are written into the stack rather than held beside it
        maps = np.stack((forward, backward), axis=1)
        maps[:, 1] = np.linalg.inv(maps[:, 1])
        u_path, s_back = _carry(maps, np.stack((unstable, stable))).swapaxes(0, 1)
    else:
        u_path, s_back = _carry(forward, unstable), _carry(np.linalg.inv(backward), stable)
    return np.concatenate((s_back[:1], s_back[:0:-1])), u_path  # in orbit order


def _require_hyperbolic(records) -> None:
    if any(not r.hyperbolic for r in records):
        raise NonhyperbolicOrbitError("the splitting requires a hyperbolic orbit")


def subspace_angle(record: PeriodicOrbitRecord) -> SplittingAngles:
    _require_hyperbolic([record])
    s, u = record.stable_basis, record.unstable_basis
    if s.shape[1] == 0 or u.shape[1] == 0:
        # one side empty: the minimum over pairs is vacuous
        return SplittingAngles(per_point=np.full(record.period, 2.0), minimum=2.0)
    s_path, u_path = _frames(record.jacobians, s, u)
    sigma = np.linalg.svd(s_path.swapaxes(-1, -2) @ u_path, compute_uv=False)
    betas = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.minimum(1.0, sigma[:, 0])))
    return SplittingAngles(per_point=betas, minimum=float(np.min(betas)))


# ---------------------------------------------------------------------------
# exact enumeration of periodic points of toral automorphisms


def _periodic_numerators(matrix, m: int) -> tuple[Array, int]:
    """Integer numerators k of the points x = k / e with M^m x = x (mod 1).

    With S = U (M^m - I) V the Smith normal form, the solutions are
    x = V y (mod 1) for y_i = c_i / s_i, 0 <= c_i < s_i.  Over the largest
    invariant factor e every such x is k / e with k = V (c * e / s) mod e,
    computed in int64 from V reduced mod e (each entry of the product stays
    below n e^2).  Returns the (N, n) numerators in lexicographic order,
    N = |det(M^m - I)|, and e.
    """
    a = _intmat.int_matrix(matrix)
    if m < 1:
        raise ValueError("period must be >= 1")
    n = len(a)
    d = _intmat.mat_sub(_intmat.mat_power(a, m), _intmat.identity(n))
    count = abs(_intmat.det(d))
    if count == 0:
        raise DegenerateMatrixError("det(M^m - I) = 0: the periodic-point set is degenerate")
    if count > MAX_PERIODIC_POINTS:
        raise TooManyPeriodicPointsError(
            f"period {m} has {count} periodic points, more than the "
            f"{MAX_PERIODIC_POINTS} that are enumerated"
        )
    _, s, v = _intmat.smith_normal_form(d)
    orders = [s[i][i] for i in range(n)]
    e = orders[-1]
    if n * e * e >= 2**63:
        raise TooManyPeriodicPointsError(
            f"period {m} needs numerators over {e}, beyond int64 arithmetic"
        )
    axes = [np.arange(order, dtype=np.int64) * (e // order) for order in orders]
    scaled = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    v_mod = np.array([[x % e for x in row] for row in v], dtype=np.int64)
    k = (scaled @ v_mod.T) % e
    return k[np.lexsort(k.T[::-1])], e


def enumerate_periodic_points_exact(matrix, m: int) -> list[tuple[Fraction, ...]]:
    """All x in [0,1)^n with M^m x = x (mod 1), as exact rationals.

    Solved through the Smith normal form of M^m - I; the count equals
    |det(M^m - I)| and the list is sorted lexicographically.  Raises
    TooManyPeriodicPointsError above MAX_PERIODIC_POINTS points.
    """
    k, e = _periodic_numerators(matrix, m)
    return [tuple(Fraction(c, e) for c in row) for row in k.tolist()]


def enumerate_periodic_points_toral(matrix, m: int) -> Array:
    """Float version of enumerate_periodic_points_exact (same ordering).

    k / e is the correctly rounded value of each exact coordinate, since
    both operands are integers below 2^53.
    """
    k, e = _periodic_numerators(matrix, m)
    return k / e
