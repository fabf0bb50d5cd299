"""Analysis of periodic orbits: multipliers, splittings, expansion certificates.

The monodromy of a period-m orbit is the ordered Jacobian product
Df(p_{m-1}) ... Df(p_0).  Its spectrum splits the tangent space at p_0 into
stable and unstable invariant subspaces: one unsorted real Schur form from
LAPACK's gees, reordered by trsen once for each side, so complex pairs stay
together and the bases are real and orthonormal.
subspace_angle carries these bases along the orbit, E(p_{i+1}) = Df(p_i) E(p_i),
re-orthonormalised at each step by two-pass classical Gram-Schmidt, which is
orthogonal to working precision ("twice is enough"): the unstable basis moves
forward from p_0 through the Jacobians, the stable one backward from
p_m = p_0 through their inverses, taken in one batched call, so each moves
in its numerically stable direction and the splitting gap at every point
costs O(m) per orbit.  When the two bases have one shape (every 2-D orbit)
they move as one stack, each step one batched product over both.

subspace_angles and extract_uniform_constants work on stacks: they group the
records by (period, dim S, dim U) and push each group through one batched
product per step, followed by one batched Gram-Schmidt sweep in the splitting
transport.  The Jacobians of a group are stacked with the step axis first,
(m, N, n, n), so step i is the contiguous (N, n, n) slab jacobians[i]; a
single record's own (m, n, n) Jacobians are the same layout without the N
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
    TooManyPeriodicPointsError,
    VectorNotUnstableError,
)
from .systems import DiscreteSystem, orbit_segment

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


def _split_bases(monodromy: Array, band: float) -> tuple[Array, Array]:
    """Orthonormal bases of the stable and unstable invariant subspaces.

    One unsorted real Schur form from gees, reordered twice by trsen with the
    selections |w| < 1 - band and |w| > 1 + band: the steps gees takes when it
    sorts (dhseqr, dtrsen on the selection, dgebak's row permutation, which
    commutes with trsen's column rotations), so each basis equals the leading
    Schur vectors of ``scipy.linalg.schur(..., sort=...)`` bit for bit.
    """
    lwork = _GEES(_unsorted, monodromy, lwork=-1)[-2][0].real.astype(np.int_)
    t, _, wr, wi, z, _, info = _GEES(_unsorted, monodromy, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"gees failed to reduce the monodromy (info {info})")
    moduli = np.hypot(wr, wi)
    bases = []
    for select in (moduli < 1.0 - band, moduli > 1.0 + band):
        _, q, _, _, k, _, _, info = _TRSEN(select, t, z, job="N")
        if info != 0:
            raise np.linalg.LinAlgError(f"trsen failed to reorder the Schur form (info {info})")
        bases.append(q[:, :k])
    return bases[0], bases[1]


def analyze_periodic_orbit(sys: DiscreteSystem, p: Array, m: int) -> PeriodicOrbitRecord:
    """Monodromy, multipliers, index and stable/unstable splitting at f^i(p).

    ``m`` need not be the minimal period.  A unit-modulus multiplier (within
    1e-6) yields hyperbolic=False, which is a result, not an error.  A monodromy
    that overflows, or multipliers lost to rounding (log-moduli off
    sum log|det Df(p_i)|), raise LostPrecisionError.
    """
    if m < 1:
        raise ValueError("period must be >= 1")
    p = sys.space.wrap(np.asarray(p, dtype=float))
    pts = orbit_segment(sys, p, 0, m)  # includes f^m(p) for the periodicity check
    if sys.space.dist(pts[m], p) > PERIODICITY_TOL:
        raise NotPeriodicError(
            f"f^{m}(p) is {sys.space.dist(pts[m], p):.3e} away from p (tolerance {PERIODICITY_TOL})"
        )
    pts = pts[:m]
    jacs = sys.jacobian(pts)
    monodromy = np.eye(sys.dim)
    # an overflowing product or a multiplier rounded to 0 is a typed error below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a in jacs:
            monodromy = a @ monodromy
        try:
            multipliers = np.linalg.eigvals(monodromy)
        except np.linalg.LinAlgError as exc:
            if np.isfinite(monodromy).all():
                raise
            raise LostPrecisionError(f"period-{m} monodromy overflows") from exc
        order = np.lexsort((multipliers.imag, multipliers.real, -np.abs(multipliers)))
        multipliers = multipliers[order]
        moduli = np.abs(multipliers)
        # log|det B| two ways: from the multipliers and from the Jacobians
        drift = abs(float(np.log(moduli).sum() - np.linalg.slogdet(jacs)[1].sum()))
    if not (drift <= UNIT_MODULUS_BAND):
        raise LostPrecisionError(f"period-{m} multipliers lost to rounding (log drift {drift:.3g})")
    hyperbolic = bool(np.all(np.abs(moduli - 1.0) >= UNIT_MODULUS_BAND))
    band = 0.0 if hyperbolic else UNIT_MODULUS_BAND
    stable, unstable = _split_bases(monodromy, band)
    # the residual check runs on B 2^-e, e >= 0 the binary exponent of max|B_ij|:
    # scaling by a power of two is exact, so it decides as on B itself, but no
    # norm of B 2^-e overflows
    unit = math.ldexp(1.0, -max(0, math.frexp(np.abs(monodromy).max())[1]))
    scaled = monodromy * unit
    scale = max(unit, np.linalg.norm(scaled))
    for basis in (stable, unstable):
        if basis.shape[1]:
            image = scaled @ basis
            residual = image - basis @ (basis.T @ image)
            if np.linalg.norm(residual) > 1e-8 * scale:
                raise RuntimeError("invariant subspace residual too large; eigensolver failure")
    return PeriodicOrbitRecord(
        period=m,
        points=pts,
        jacobians=jacs,
        multipliers=multipliers,
        index=int(np.sum(moduli > 1.0 + (0.0 if hyperbolic else UNIT_MODULUS_BAND))),
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
    unstable ones under Df^{-j}, exact over each subspace: the largest
    singular value of the pushed basis, from the top eigenvalue of its Gram
    matrix.  Then lam = max_j g(j)^(1/j) and C = max_j g(j) / lam^j.  The
    orbits of one period and splitting dimensions are pushed as one stack,
    backward through the batched inverse of its Jacobians.

    ``sys`` is accepted for interface symmetry with the other orbit
    operations; all data comes from the records' stored Jacobians.
    """
    if not records:
        raise ValueError("empty input: need at least one orbit record")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if any(not r.hyperbolic for r in records):
        raise ValueError("all records must be hyperbolic")
    g = np.zeros(horizon + 1)
    g[0] = 1.0
    steps = np.arange(horizon)
    for _, jacobians, stable, unstable in _orbit_groups(records):
        m = len(jacobians)
        for basis, backward in ((stable, False), (unstable, True)):
            if basis.shape[-1] == 0:
                continue
            if backward:
                jac_seq = np.linalg.inv(jacobians)[(m - 1 - steps) % m]
            else:
                jac_seq = jacobians[steps % m]
            current = np.swapaxes(basis, -1, -2)  # basis vectors as rows, (N, k, n)
            for j in range(1, horizon + 1):
                current = current @ np.swapaxes(jac_seq[j - 1], -1, -2)
                # summed the way a row norm is, so at k = 1 this is the vector's norm
                gram = (current[..., :, None, :] * current[..., None, :, :]).sum(axis=-1)
                g[j] = max(g[j], math.sqrt(np.max(np.linalg.eigvalsh(gram)[..., -1])))
    with np.errstate(divide="ignore"):
        lam = float(np.max(g[1:] ** (1.0 / np.arange(1, horizon + 1))))
    lam = min(lam, 1.0 - 1e-12)
    c = float(np.max(g / lam ** np.arange(horizon + 1)))
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


def _splitting_gaps(jacobians: Array, stable: Array, unstable: Array) -> Array:
    """Splitting gap at every point of one orbit or of a stack of orbits.

    ``jacobians`` is (m, ..., n, n) with the step axis first; ``stable`` and
    ``unstable`` are the bases at p_0, (..., n, dim S) and (..., n, dim U),
    both sides nonempty.  Returns the gaps, (m, ...).  Bases of one shape
    (every 2-D orbit) are carried as one stack, the forward Jacobians beside
    the inverses, (m - 1, 2, ..., n, n).
    """
    m = len(jacobians)
    forward = jacobians[: m - 1]
    # pulled back from p_m = p_0 through p_{m-1}, ..., p_1
    backward = np.linalg.inv(jacobians[:0:-1])
    if stable.shape == unstable.shape:
        paths = _carry(np.stack((forward, backward), axis=1), np.stack((unstable, stable)))
        u_path, s_back = paths.swapaxes(0, 1)
    else:
        u_path, s_back = _carry(forward, unstable), _carry(backward, stable)
    s_path = np.concatenate((s_back[:1], s_back[:0:-1]))  # in orbit order
    sigma = np.linalg.svd(s_path.swapaxes(-1, -2) @ u_path, compute_uv=False)
    cos_min_angle = np.minimum(1.0, sigma[..., 0])
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * cos_min_angle))


def _require_hyperbolic(records) -> None:
    if any(not r.hyperbolic for r in records):
        raise NonhyperbolicOrbitError("splitting angle requires a hyperbolic orbit")


def subspace_angle(record: PeriodicOrbitRecord) -> SplittingAngles:
    _require_hyperbolic([record])
    s, u = record.stable_basis, record.unstable_basis
    if s.shape[1] == 0 or u.shape[1] == 0:
        # one side empty: the minimum over pairs is vacuous
        return SplittingAngles(per_point=np.full(record.period, 2.0), minimum=2.0)
    betas = _splitting_gaps(record.jacobians, s, u)
    return SplittingAngles(per_point=betas, minimum=float(np.min(betas)))


def subspace_angles(records: list[PeriodicOrbitRecord]) -> list[SplittingAngles]:
    """subspace_angle of every record, each group of one period and splitting
    dimensions transported as one stack."""
    _require_hyperbolic(records)
    angles: list[SplittingAngles | None] = [None] * len(records)
    for indices, jacobians, stable, unstable in _orbit_groups(records):
        if stable.shape[-1] == 0 or unstable.shape[-1] == 0:
            betas = np.full((len(indices), len(jacobians)), 2.0)
        else:
            betas = np.ascontiguousarray(_splitting_gaps(jacobians, stable, unstable).T)
        for i, per_point in zip(indices, betas):
            angles[i] = SplittingAngles(per_point=per_point, minimum=float(np.min(per_point)))
    return angles


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
