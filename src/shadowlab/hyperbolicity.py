"""Analysis of periodic orbits: multipliers, splittings, expansion certificates.

The monodromy of a period-m orbit is the ordered Jacobian product
Df(p_{m-1}) ... Df(p_0).  Its spectrum splits the tangent space at p_0 into
stable and unstable invariant subspaces: one unsorted real Schur form from
LAPACK's gees gives the multipliers, and reordered by trsen once for each
side, the bases, so complex pairs stay together and the bases are real and
orthonormal.
That splitting depends on the Jacobian stack alone, so it is memoised for the
last stack seen by _LastStack, keyed on the stack's dtype, its shape and a
copy of its bytes, so a hit means an equal stack; the cyclic factor of the
shadow module uses the same memo.  Callers analyse one stack in
runs: on a toral automorphism Df = M everywhere, so all orbits of one period
share an entry.  Errors are raised again on every call, never stored, and the
memoised multipliers and bases are read-only arrays that records may share.

subspace_angle carries these bases along the orbit, E(p_{i+1}) = Df(p_i) E(p_i),
re-orthonormalised at each step by two-pass classical Gram-Schmidt, which is
orthogonal to working precision ("twice is enough"): the unstable basis moves
forward from p_0 through the Jacobians, the stable one backward from
p_m = p_0 through their inverses, taken in one batched call, so each moves
in its numerically stable direction and the splitting gap at every point
costs O(m) per orbit.  When the two bases have one shape (every 2-D orbit)
they move as one stack, each step one batched product over both.

extract_uniform_constants runs that transport once per distinct Jacobian
stack among its records, keyed as the memo is, and multiplies the k x k
factors of Df in those frames.  Its stretches depend on the stack alone, so
records with equal stacks add nothing to the fit.

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
from scipy.linalg import eig, get_lapack_funcs

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
    jacobians[m-1] ... jacobians[0].  ``multipliers`` and both bases come
    from the splitting memo, keyed on the bytes of ``jacobians`` (see the
    module docstring): they are read-only and may be the same arrays as in
    another record with an equal Jacobian stack.
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


def _stack_key(jacs: Array) -> tuple:
    """The stack's dtype, its shape and its bytes: equal keys, equal stacks."""
    return jacs.dtype.str, jacs.shape, jacs.tobytes()


class _LastStack:
    """``compute(jacs)`` memoised for the last Jacobian stack seen.

    ``last`` is one (_stack_key, value) tuple, read once and replaced in one
    assignment, so threads need no lock and never pair one stack's key with
    another stack's value.  An exception from ``compute`` propagates and is
    never stored.
    """

    __slots__ = ("compute", "last")

    def __init__(self, compute):
        self.compute, self.last = compute, None

    def __call__(self, jacs: Array):
        key, last = _stack_key(jacs), self.last
        if last is None or last[0] != key:
            last = self.last = (key, self.compute(jacs))
        return last[1]


def _split_monodromy(jacs: Array) -> tuple[Array, int, bool, Array, Array]:
    """Sorted multipliers, index, hyperbolic flag and the stable and unstable
    bases of the monodromy jacs[m-1] ... jacs[0]; the arrays are read-only."""
    m = len(jacs)
    monodromy = np.eye(jacs.shape[-1])
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
    multipliers = multipliers[order]
    for shared in (multipliers, stable, unstable):
        shared.setflags(write=False)
    return multipliers, int(np.sum(moduli > 1.0 + band)), hyperbolic, stable, unstable


_splitting = _LastStack(_split_monodromy)


def analyze_periodic_orbit(sys: DiscreteSystem, p: Array, m: int) -> PeriodicOrbitRecord:
    """Monodromy, multipliers, index and stable/unstable splitting at f^i(p).

    One unsorted Schur form of the monodromy gives the multipliers (sorted by
    decreasing modulus, then real and imaginary part) and, reordered once per
    side, the bases.  ``m`` need not be the minimal period.  A unit-modulus
    multiplier (within 1e-6) yields hyperbolic=False, which is a result, not
    an error.  A monodromy that overflows, or multipliers lost to rounding
    (log-moduli off sum log|det Df(p_i)|), raise LostPrecisionError.  The
    splitting depends on the Jacobian stack alone and is memoised on it (see
    the module docstring), so orbits with equal stacks share its read-only
    arrays.
    """
    if m < 1:
        raise ValueError("period must be >= 1")
    pts = orbit_segment(sys, p, 0, m)  # p wrapped first, and f^m(p) for the periodicity check
    gap = sys.space.dist(pts[m], pts[0])
    if not gap <= PERIODICITY_TOL:
        raise NotPeriodicError(f"f^{m}(p) is {gap:.3e} away from p (tolerance {PERIODICITY_TOL})")
    pts = pts[:m]
    jacs = sys.jacobian(pts)
    multipliers, index, hyperbolic, stable, unstable = _splitting(jacs)
    return PeriodicOrbitRecord(
        period=m,
        points=pts,
        jacobians=jacs,
        multipliers=multipliers,
        index=index,
        hyperbolic=hyperbolic,
        stable_basis=stable,
        unstable_basis=unstable,
    )


def expansion_certificate(
    sys: DiscreteSystem | None, record: PeriodicOrbitRecord, v_u: Array
) -> ExpansionCertificate:
    """Growth rates along the orbit for an unstable vector, with the
    coefficient sequence of expansion_coefficients (a_m = 0 by construction).
    A nonhyperbolic record raises NonhyperbolicOrbitError, a zero or
    non-finite vector or one off the unstable subspace VectorNotUnstableError.

    ``sys`` is accepted for interface symmetry with the other orbit
    operations; all data comes from the record's stored Jacobians.
    """
    _require_hyperbolic([record])
    v_u = np.asarray(v_u, dtype=float)
    norm = np.linalg.norm(v_u)
    if not 0.0 < norm < math.inf:
        raise VectorNotUnstableError("unstable vector must be nonzero and finite")
    u = record.unstable_basis
    if u.shape[1] == 0 or not np.linalg.norm(v_u - u @ (u.T @ v_u)) / norm <= 1e-8:
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
    if not constant >= 1.0:
        raise ValueError("the certificate constant must be >= 1")
    return bool(np.all(data.products > data.bound_curve(constant)))


@dataclass(frozen=True)
class HyperbolicityConstants:
    """Empirical uniform constants: |Df^j v| <= C lam^j |v| on stable vectors
    (and symmetrically under Df^{-j} on unstable ones).  Fitted over a finite
    horizon and a finite set of orbits; never a certificate."""

    growth_constant: float  # C
    rate: float  # lam in (0, 1)


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
    C = max_j g(j) / lam^j are fitted in log2, one transport per distinct
    Jacobian stack.  A horizon over MAX_ITERATE_STEPS is a StepLimitError.

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
    # records with equal stacks share their splitting, so one of each is fitted
    for record in {_stack_key(r.jacobians): r for r in records}.values():
        jacobians, m = record.jacobians, record.period
        frame_pair = _frames(jacobians, record.stable_basis, record.unstable_basis)
        for frames, backward in zip(frame_pair, (False, True)):
            if frames.shape[-1] == 0:
                continue
            factors = np.roll(frames, -1, axis=0).swapaxes(-1, -2) @ (jacobians @ frames)
            # step j applies maps[(j - 1) % m]: backward, F_{m-1}^-1 first
            maps = np.linalg.inv(factors)[::-1] if backward else factors
            product, exponent = np.eye(frames.shape[-1]), 0
            for j in range(1, horizon + 1):
                product = maps[(j - 1) % m] @ product
                # max|product| is brought into [1/2, 1) by an exact power of two
                shift = np.frexp(np.abs(product).max())[1]
                product = np.ldexp(product, -shift)
                exponent = exponent + shift
                # top singular value from the k x k Gram matrix; at k = 1 it is |product|
                top = np.sqrt(np.linalg.eigvalsh(product.T @ product)[-1])
                log_g[j] = max(log_g[j], np.log2(top) + exponent)
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
    """Orthonormal stable and unstable bases at every point of one orbit,
    (m, n, dim S) and (m, n, dim U), p_0 first.

    ``jacobians`` is the orbit's (m, n, n) stack and ``stable`` and
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


def _log_count_lower_bound(a: _intmat.IntMatrix, m: int) -> float:
    """ln of prod_{|w|>1} (|w|^m - 1) prod_{|w|<1} (1 - |w|^m) <= |det(M^m - I)|
    over the eigenvalues w of M, or the trivial bound -inf when one may lie
    within UNIT_MODULUS_BAND of the unit circle, where |w|^m - 1 has no
    reliable sign or size.

    Each float modulus is first moved toward 1 by 1000 n eps ||M||_F kappa,
    kappa = 1 / |y^H x| the condition number of w (unit left and right
    eigenvectors y, x): many times its first-order rounding error.  A
    defective w, whose error grows like eps^(1/k), has a kappa near
    eps^(1/k - 1), so its slack covers that error too.
    """
    matrix = np.array(a, dtype=float)
    w, left, right = eig(matrix, left=True, right=True)
    with np.errstate(divide="ignore"):
        kappa = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))
    slack = 1000.0 * len(a) * np.finfo(float).eps * np.linalg.norm(matrix) * kappa
    moduli = np.abs(w)
    gap = np.abs(moduli - 1.0) - slack
    if not np.all(gap >= UNIT_MODULUS_BAND):
        return -math.inf
    big, small = 1.0 + gap[moduli > 1.0], 1.0 - gap[moduli < 1.0]
    return float(m * np.log(big).sum() + np.log1p(-(big**-m)).sum() + np.log1p(-(small**m)).sum())


def _magnitude(log_count: float) -> str:
    """10^x for a count of natural log ``log_count``, x rounded down to 0.1."""
    return f"10^{math.floor(log_count / math.log(10) * 10) / 10:.1f}"


def _periodic_count(matrix, m: int) -> tuple[_intmat.IntMatrix, int]:
    """M^m - I and N = |det(M^m - I)|, the number of points of period m.

    Raises DegenerateMatrixError when N = 0 and TooManyPeriodicPointsError
    when N > MAX_PERIODIC_POINTS.  A float lower bound on ln N that passes
    2 ln MAX_PERIODIC_POINTS decides the second before the exact power M^m
    (over a million digits at cat period 10^7) is formed; the bound's
    eigenvalue slack and the further factor MAX_PERIODIC_POINTS keep that
    decision clear of rounding.  Counts past 20 digits are written as a
    power of ten.
    """
    a = _intmat.int_matrix(matrix)
    if m < 1:
        raise ValueError("period must be >= 1")
    cap = f"more than the {MAX_PERIODIC_POINTS} that are enumerated"
    margin = 2 * math.log(MAX_PERIODIC_POINTS)
    # the bound is below n m ln max(||M||_inf, 1), so short periods skip it
    norm = max(1, *(sum(abs(x) for x in row) for row in a))
    bound = _log_count_lower_bound(a, m) if len(a) * m * math.log(norm) > margin else -math.inf
    if bound > margin:
        raise TooManyPeriodicPointsError(
            f"period {m} has at least {_magnitude(bound)} periodic points, {cap}"
        )
    d = _intmat.mat_sub(_intmat.mat_power(a, m), _intmat.identity(len(a)))
    count = abs(_intmat.det(d))
    if count == 0:
        raise DegenerateMatrixError("det(M^m - I) = 0: the periodic-point set is degenerate")
    if count > MAX_PERIODIC_POINTS:
        text = str(count) if count < 10**20 else f"about {_magnitude(math.log(count))}"
        raise TooManyPeriodicPointsError(f"period {m} has {text} periodic points, {cap}")
    return d, count


def _periodic_numerators(matrix, m: int) -> tuple[Array, int]:
    """Integer numerators k of the points x = k / e with M^m x = x (mod 1).

    With S = U (M^m - I) V the Smith normal form, the solutions are
    x = V y (mod 1) for y_i = c_i / s_i, 0 <= c_i < s_i.  Over the largest
    invariant factor e every such x is k / e with k in [0, e)^n a point of
    the lattice L spanned by the columns (e / s_i) V_i and e Z^n.  An
    upper-triangular basis b_0 .. b_{n-1} of L (pivots h_j dividing e) walks
    L one coordinate at a time: under a prefix k_0 .. k_{j-1}, reached with
    coefficients c_0 .. c_{j-1}, k_j runs over r + h_j t, t = 0 .. e / h_j - 1,
    with r the residue mod h_j of sum_{i<j} c_i b_i[j].  The prefixes stay
    in order and each progression rises, so the (N, n) int64 numerators,
    N = |det(M^m - I)|, come out in lexicographic order with no sort.  Every
    intermediate is below e + e^2 (below e when n = 1), within the guard
    n e^2 < 2^63.  Returns the numerators and e.
    """
    d, _ = _periodic_count(matrix, m)
    n = len(d)
    _, s, v = _intmat.smith_normal_form(d)
    orders = [s[i][i] for i in range(n)]
    e = orders[-1]
    if n * e * e >= 2**63:
        raise TooManyPeriodicPointsError(
            f"period {m} needs numerators over {e}, beyond int64 arithmetic"
        )
    generators = [[v[i][j] * (e // orders[j]) for i in range(n)] for j in range(n)]
    # a row of k holds its numerators in columns < j and the running sums
    # sum_{i<j} c_i b_i mod e in columns >= j
    k = np.zeros((1, n), dtype=np.int64)
    for j, b in enumerate(_intmat.echelon_basis(generators, e)):
        h, tail = b[j], np.array(b[j + 1 :], dtype=np.int64)
        t = np.arange(e // h, dtype=np.int64)
        walked = np.empty((len(k), len(t), n), dtype=np.int64)
        walked[:, :, :j] = k[:, None, :j]
        np.remainder(k[:, j, None], h, out=walked[:, :, j])
        walked[:, :, j] += h * t
        # c_j = t - k_j // h adds c_j b_j past column j
        base = (k[:, j + 1 :] - k[:, j, None] // h * tail) % e
        np.add(base[:, None, :], t[:, None] * tail, out=walked[:, :, j + 1 :])
        np.remainder(walked[:, :, j + 1 :], e, out=walked[:, :, j + 1 :])
        k = walked.reshape(-1, n)
    return k, e


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
