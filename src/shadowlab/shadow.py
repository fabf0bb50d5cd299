"""Exact periodic shadows of periodic pseudotrajectories and Lipschitz scans.

The solver runs damped Newton on the cyclic residual map

    G(z_0 .. z_{Q-1})_i = z_{i+1 mod Q} - f(z_i),

initialized at the pseudotrajectory.  Each Newton step solves the full cyclic
block-bidiagonal linear system with a band LU, which is stable even when
per-step Jacobian products over one period are astronomically large.  Folding
the block order (0, Q-1, 1, Q-2, ...) makes the cyclic matrix banded, with
3n - 1 diagonals on each side; it is written straight into LAPACK band storage
and factored with partial pivoting, whose pivot growth is bounded by the
bandwidth, not by Q.  A numerically singular cyclic linearization signals
nonhyperbolicity along the pseudotrajectory and raises SingularJacobianError.

The part of a solve that depends on the Jacobian stack alone (the band
matrix, its LU factor and the rcond estimate) is memoised for the last stack
seen by hyperbolicity._LastStack, the memo of the orbit splitting and of the
pullback witness's tangent template, so consecutive solves on an equal stack
(Newton steps on a linear map, the rows of a scan, the pullback witnesses of
one period) reuse one factor and one estimate.  An exactly singular verdict
(a zero pivot) is stored as a message and raised as a fresh error on every
call; the rcond floor and the checks on the Newton step run on every call.

For globally linear maps the unique periodic solution of z_{i+1} = A z_i + e_i
is also computed in closed form by diagonalizing the cyclic shift with the
DFT: (w_j I - A) zhat_j = ehat_j over the Q-th roots of unity w_j.  This is
the independent oracle for the Newton path.  (Eliminating to
z_0 = (I - A^Q)^{-1} sum A^{Q-1-i} e_i and substituting forward computes the
same point in exact arithmetic but amplifies rounding by the expanding part
of A^Q, so the resolvent form is used.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import (
    InapplicableError,
    NonhyperbolicMonodromyError,
    NotAnOrbitError,
    OrbitEscapeError,
    ShadowlabError,
    SingularJacobianError,
    StepLimitError,
)
from .hyperbolicity import (
    PERIODICITY_TOL,
    _LastStack,
    _periodic_count,
    _periodic_numerators,
    enumerate_periodic_points_exact,
)
from .pseudo import (
    PeriodicPseudotrajectory,
    _csv_text,
    _fmt,
    _table_text,
    _write_text,
    cyclic_gaps,
    perturb_orbit,
    witness_jordan,
)
from .systems import MAX_ITERATE_STEPS, DiscreteSystem, JordanModel, ToralAutomorphism
from .systems import _row_norms, orbit_segment

Array = np.ndarray

SINGULAR_BLOWUP = 1e12


@dataclass(frozen=True)
class ShadowSolution:
    """An exact periodic orbit near a pseudotrajectory, in [0, 1) on the torus.

    ``residual`` is the final max cyclic gap of the orbit equation;
    ``sup_distance`` the largest row norm (``_row_norms``) of the orbit's
    displacement from the pseudotrajectory and ``ratio`` its quotient by the
    defect.  ``minimal_period`` divides the ansatz period Q.
    """

    orbit_point: Array
    period: int
    orbit: Array
    sup_distance: float
    ratio: float
    converged: bool
    residual: float
    iterations: int
    minimal_period: int


RCOND_FLOOR = 1e-13
RCOND_SWEEPS = 6


def _estimate_rcond(jacobians: Array, solve: Callable, fold: Array) -> float:
    """sigma_min / ||M||_2 estimate of the cyclic matrix M of ``jacobians``.

    sigma_min comes from inverse power iteration on M^T M through the band
    solver ``solve`` of ``_factor_cyclic`` (deterministic start, permuted once
    into the folded order ``fold``; the folded matrix is P M P^T for a
    permutation P, so the norms are the same).  M is the cyclic shift minus
    the block diagonal of the A_i, so ||M||_2 <= 1 + max_i ||A_i||_2, and the
    Frobenius norms bound the ||A_i||_2.
    """
    q, n, _ = jacobians.shape
    size = q * n
    u = np.full(size, 1.0 / np.sqrt(size))
    u[1::2] -= 1e-3 / np.sqrt(size)
    u /= np.linalg.norm(u)
    u = u.reshape(q, n)[fold].ravel()
    inv_norm = 1.0
    for _ in range(RCOND_SWEEPS):
        w = solve(solve(u), trans=1)  # inverse power iteration on M^T M
        inv_norm = math.sqrt(w @ w)
        if not math.isfinite(inv_norm):
            return 0.0  # garbage from a singular factor
        if inv_norm == 0.0:
            return 1.0  # inverse annihilates u: perfectly conditioned direction
        u = w / inv_norm
    sigma_min = inv_norm**-0.5
    bound = 1.0 + float(np.sqrt(np.max(np.sum(jacobians * jacobians, axis=(-2, -1)))))
    return sigma_min / bound


def _cyclic_band(jacobians: Array) -> tuple[Array, int, Array]:
    """The cyclic matrix M of ``jacobians`` in folded LAPACK band storage: the
    array ``ab``, the bandwidth ``kl`` on either side and the fold.

    (M delta)_i = delta_{i+1 mod Q} - A_i delta_i.  With the blocks in the
    folded order and equation i in the row block of delta_i, every block row
    touches column blocks at most two positions away, so the folded matrix
    P M P^T is banded with kl = ku = 3n - 1 (n - 1 at Q = 1, where the
    identity and -A_0 share one block and are summed).  ``ab`` is the
    Fortran-ordered (2 kl + ku + 1) x Qn array dgbtrf takes, entry (i, j) in
    row 2 kl + i - j and the first kl rows left for the fill-in.
    """
    q, n, _ = jacobians.shape
    fold = np.empty(q, dtype=np.intp)  # the block at each position: 0, Q-1, 1, Q-2, ...
    fold[0::2] = np.arange((q + 1) // 2)
    fold[1::2] = np.arange(q - 1, (q - 1) // 2, -1)
    at = np.empty(q, dtype=np.intp)  # the position of each block
    at[fold] = np.arange(q)
    kl = 3 * n - 1 if q > 1 else n - 1
    diag = 2 * kl  # band row of the main diagonal: kl + ku
    ab = np.zeros((3 * kl + 1, q * n), order="F")
    r = np.arange(n)
    ab[diag + r[:, None] - r, (np.arange(q) * n)[:, None, None] + r] = -jacobians[fold]
    # row block p, equation fold[p], holds the identity in the column block of
    # delta_{fold[p] + 1}; no two share an entry, so += sums only at Q = 1
    nxt = at[(fold + 1) % q]
    ab[diag + (np.arange(q) - nxt)[:, None] * n, nxt[:, None] * n + r] += 1.0
    return ab, kl, fold


def _factor_cyclic(jacobians: Array) -> tuple[Callable, Array, float] | str:
    """The band LU solver of the cyclic matrix of ``jacobians``, its fold and
    its rcond estimate, or the message "Factor is exactly singular" at a zero
    pivot.

    dgbtrf factors the folded band (``_cyclic_band``) with partial pivoting,
    whose pivot growth on a band matrix is bounded by a constant of the
    bandwidth alone, not of Q (Z. Bohte, J. Inst. Maths Applics 16, 1975).
    ``solve(b, trans)`` runs dgbtrs on b in the folded order: the folded
    M^-1 b, or M^-T b at ``trans = 1``.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs  # on first use: analysis never loads scipy

    ab, kl, fold = _cyclic_band(jacobians)
    lu, ipiv, info = dgbtrf(ab, kl, kl, overwrite_ab=True)
    if info > 0:
        return "Factor is exactly singular"

    def solve(b: Array, trans: int = 0) -> Array:
        return dgbtrs(lu, kl, kl, b, ipiv, trans=trans)[0]

    with np.errstate(all="ignore"):
        return solve, fold, _estimate_rcond(jacobians, solve, fold)


_cyclic_factor = _LastStack(_factor_cyclic)


def _solve_cyclic(jacobians: Array, rhs: Array) -> Array:
    """Solve delta_{i+1 mod Q} - A_i delta_i = rhs_i for all i.

    One dgbtrs call on the memoised band factor, with rhs taken into the
    folded order and the solution taken back out of it.  Raises
    SingularJacobianError when the cyclic matrix is numerically singular
    (estimated sigma_min over its norm bound below 1e-13), which for a
    pseudotrajectory signals a unit-modulus direction of the linearization.
    """
    factor = _cyclic_factor(jacobians)
    if isinstance(factor, str):
        raise SingularJacobianError(factor)
    solve, fold, rcond = factor
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularJacobianError(
            f"cyclic linearization is numerically singular (rcond ~ {rcond:.1e})"
        )
    delta = np.empty(rhs.shape)
    with np.errstate(all="ignore"):
        delta[fold] = solve(rhs[fold].ravel()).reshape(rhs.shape)
    if not np.all(np.isfinite(delta)):
        raise SingularJacobianError("cyclic linearization produced non-finite Newton step")
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if float(np.max(np.abs(delta))) > SINGULAR_BLOWUP * scale:
        raise SingularJacobianError(
            "cyclic linearization is numerically singular (Newton step blow-up)"
        )
    return delta


def _minimal_period(sys: DiscreteSystem, orbit: Array) -> int:
    """The least divisor c of Q with every orbit[(i + c) mod Q] within
    PERIODICITY_TOL of orbit[i].  Row 0 of that shift check is the distance of
    orbit[c] to orbit[0]; it is taken for every c at once, and the full check
    runs only on the divisors it passes."""
    q = orbit.shape[0]
    near = np.flatnonzero(_row_norms(sys.space.diff(orbit[1:], orbit[0])) <= PERIODICITY_TOL) + 1
    for cand in near[q % near == 0].tolist():
        shifted = np.concatenate((orbit[cand:], orbit[:cand]))
        if np.all(_row_norms(sys.space.diff(shifted, orbit)) <= PERIODICITY_TOL):
            return cand
    return q


def find_periodic_shadow(
    sys: DiscreteSystem,
    xi: PeriodicPseudotrajectory,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> ShadowSolution:
    """Damped Newton search for the exact Q-periodic orbit near ``xi``: each
    Newton step is halved until the largest cyclic gap falls, for at most
    ``max_iterations`` steps or until that gap is within ``tolerance``; every
    trial is reduced by the chart ``space.wrap``, so a torus orbit is in [0, 1).

    Returns immediately (0 iterations) when the pseudotrajectory already
    satisfies the orbit equation.  On failure to converge the best iterate is
    returned with converged=False; a numerically singular cyclic linearization
    raises SingularJacobianError.
    """
    z = np.array(xi.points)
    gaps = cyclic_gaps(sys, z)
    residual = float(np.max(_row_norms(gaps)))
    iterations = 0
    while residual > tolerance and iterations < max_iterations:
        delta = _solve_cyclic(sys.jacobian(z), -gaps)
        iterations += 1
        step = 1.0
        while step > 2.0**-30:
            trial = sys.space.wrap(z + step * delta)
            trial_gaps = cyclic_gaps(sys, trial)
            trial_res = float(np.max(_row_norms(trial_gaps)))
            if trial_res < residual:
                z, gaps, residual = trial, trial_gaps, trial_res
                break
            step *= 0.5
        else:
            break  # no step length lowers the residual
    # a step is taken only when it lowers the residual, so z is the best iterate
    sup = float(np.max(_row_norms(sys.space.diff(z, xi.points))))
    if xi.defect > 0:
        ratio = sup / xi.defect
    else:
        ratio = 0.0 if sup == 0.0 else float("inf")
    return ShadowSolution(
        orbit_point=z[0],
        period=xi.period,
        orbit=z,
        sup_distance=sup,
        ratio=ratio,
        converged=bool(residual <= tolerance),
        residual=residual,
        iterations=iterations,
        minimal_period=_minimal_period(sys, z),
    )


# ---------------------------------------------------------------------------
# linear oracles


def closed_form_linear_shadow(matrix, gaps) -> Array:
    """Unique Q-periodic solution of z_{i+1} = A z_i + e_i for hyperbolic A.

    Computed by discrete Fourier diagonalization of the cyclic shift: mode j
    solves (omega_j I - A) z_j = e_j.  Raises NonhyperbolicMonodromyError
    when a resolvent omega_j I - A is singular or when
    max_j ||(omega_j I - A)^{-1}|| exceeds 1e12, at every Q.  The norm is the
    Frobenius norm of the batched inverses, at most sqrt(n) times the
    spectral norm, so the guard may reject a spectral constant that much
    below 1e12.
    """
    a = np.asarray(matrix, dtype=float)
    e = np.atleast_2d(np.asarray(gaps, dtype=float))
    q = len(e)
    resolvents = _resolvents(a, q)
    try:
        inverses = np.linalg.inv(resolvents)
    except np.linalg.LinAlgError as exc:
        # a singular resolvent means omega_j is a unit-modulus eigenvalue
        j = int(np.argmin(np.linalg.svd(resolvents, compute_uv=False)[:, -1]))
        raise NonhyperbolicMonodromyError(
            f"spectrum touches the unit circle at angle 2 pi {j}/{q}"
        ) from exc
    norms = np.linalg.norm(inverses, axis=(-2, -1))
    j = int(np.argmax(norms))
    if not norms[j] <= SINGULAR_BLOWUP:  # an inf or NaN norm fails too
        raise NonhyperbolicMonodromyError(
            f"||(omega_j I - A)^-1|| ~ {norms[j]:.2e} exceeds 1e12 at angle 2 pi {j}/{q}"
        )
    z_hat = np.linalg.solve(resolvents, np.fft.fft(e, axis=0)[..., None])[..., 0]
    return np.real(np.fft.ifft(z_hat, axis=0))


def _resolvents(a: Array, q: int) -> Array:
    """The (Q, n, n) stack of omega_j I - A over the Q-th roots of unity
    omega_j = exp(i 2 pi j / Q), with the angle rounded in real arithmetic."""
    if q < 1:
        raise ValueError("period must be >= 1")
    omega = np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
    return omega[:, None, None] * np.eye(a.shape[0]) - a


def theoretical_linear_lipschitz_bound(matrix, q: int) -> float:
    """max over Q-th roots w of unity of ||(w I - A)^{-1}||_2, inf when some w is an eigenvalue.

    By Parseval this is the l2 norm of the cyclic linear solve, not a bound
    on the block-sup ratio that scans measure: on cat at Q = 5 a chosen
    pseudotrajectory reaches 1.65738 against this 1.61803.
    """
    sigma = np.linalg.svd(_resolvents(np.asarray(matrix, dtype=float), q), compute_uv=False)
    with np.errstate(divide="ignore"):
        return float(np.max(1.0 / sigma[:, -1]))


# ---------------------------------------------------------------------------
# lower bound at the size-2 unit Jordan block


def direct_shadow_lower_bound(model: JordanModel, xi: PeriodicPseudotrajectory) -> float:
    """Proven lower bound on the sup shadowing distance over ALL periodic
    orbits of the exactly linear model.

    Periodicity forces the second block coordinate of any periodic orbit to
    vanish (the second coordinate is preserved by the block and feeds the
    first, so a nonzero value drifts forever), hence
    eps* >= max_k |x_k^(2)|, which is K d for the size-2 witness.
    """
    if model.block != "real" or model.size < 2 or model.eigenvalue != 1:
        raise InapplicableError("the bound needs a real unit Jordan block of size >= 2")
    if model.c != 0.0:
        raise InapplicableError(
            "with c > 0 the argument is only asymptotic as d -> 0; "
            "set c = 0 for the exactly linear model"
        )
    return float(np.max(np.abs(xi.points[:, 1])))


# ---------------------------------------------------------------------------
# expansivity-style periodicity check


def verify_periodicity_by_expansivity(
    sys: DiscreteSystem, p: Array, mu: int, a: float, window: int
) -> bool:
    """Finite-window surrogate for the expansivity argument.

    True iff the orbits of p and q = f^mu(p) stay within ``a`` of each other
    for all |i| <= window AND dist(f^mu(p), p) <= PERIODICITY_TOL.  Both ways are walked
    from p, so the rounding of f^i(p) grows over |i| steps only.  A finite
    window checks, it does not prove.
    """
    if mu < 1:
        raise ValueError("period must be >= 1")
    if not a > 0:
        raise ValueError("expansivity constant must be positive")
    if window < mu:
        raise ValueError("window must be >= the candidate period")
    if 2 * window + mu > MAX_ITERATE_STEPS:
        raise StepLimitError(f"2 window + mu must be <= {MAX_ITERATE_STEPS}, got {2 * window + mu}")
    try:
        behind = orbit_segment(replace(sys, forward=sys.inverse), p, 0, window)  # f^-i(p)
        pts = np.concatenate((behind[:0:-1], orbit_segment(sys, p, 0, window + mu)))
    except (OrbitEscapeError, NotAnOrbitError):  # an escape, or a non-finite p
        return False
    # gaps[window + i] = dist(f^{i+mu}(p), f^i(p)) for |i| <= window
    gaps = _row_norms(sys.space.diff(pts[mu:], pts[: 2 * window + 1]))
    return bool(gaps[window] <= PERIODICITY_TOL and np.all(gaps <= a))


# ---------------------------------------------------------------------------
# Lipschitz scans


@dataclass(frozen=True)
class ScanRow:
    defect: float
    epsilon_star: float  # nan when the solve failed
    ratio: float  # nan when the solve failed
    converged: bool
    lower_bound: float | None
    error: str | None = None


@dataclass(frozen=True)
class LipschitzScan:
    """Rows ordered by decreasing defect.

    ``estimated_constant`` is the sup of converged ratios (0 when none).
    ``diverging`` is set only by certified lower bounds: some solves fail, every
    failed row carries a lower bound, and the bound's ratio to the defect does
    not decay across those rows.  Converged ratios never set it, however they
    trend (seeded noise on a bounded family can make them rise).  No finite
    computation certifies unboundedness, so this is a verdict, not a proof.
    """

    rows: tuple[ScanRow, ...]
    estimated_constant: float
    diverging: bool


class ScanFamily(Protocol):
    def generate(self, d: float, row: int) -> PeriodicPseudotrajectory: ...


@dataclass(frozen=True)
class PerturbedOrbitFamily:
    """Uniform noise of size <= d applied to a fixed exact periodic orbit."""

    sys: DiscreteSystem
    orbit_points: Array
    seed: int = 0

    def generate(self, d: float, row: int) -> PeriodicPseudotrajectory:
        return perturb_orbit(self.sys, self.orbit_points, d, seed=(self.seed, row))


@dataclass(frozen=True)
class JordanWitnessFamily:
    """Size-2 unit-block witnesses at fixed K, one per defect level."""

    model: JordanModel
    k_steps: int

    def generate(self, d: float, row: int) -> PeriodicPseudotrajectory:
        return witness_jordan(self.model, d, self.k_steps)[0]

    def lower_bound(self, xi: PeriodicPseudotrajectory) -> float:
        return direct_shadow_lower_bound(self.model, xi)


def _diverging_verdict(rows: Sequence[ScanRow]) -> bool:
    failed = [r for r in rows if not r.converged]
    if not failed or any(r.lower_bound is None for r in failed):
        return False
    # certified ratio lower bounds that do not decay while the solver fails
    lb_ratios = [r.lower_bound / r.defect for r in failed if r.defect > 0]
    return bool(lb_ratios) and all(b >= a * (1.0 - 1e-9) for a, b in zip(lb_ratios, lb_ratios[1:]))


def lipschitz_scan(
    sys: DiscreteSystem,
    family: ScanFamily,
    d_values: Sequence[float],
) -> LipschitzScan:
    """Generate, shadow and tabulate the family at each defect level.

    Rows keep the order of ``d_values`` (which must be finite, positive and
    strictly decreasing, at least 3 of them); solver errors are recorded per
    row and are not fatal.
    """
    d_values = [float(d) for d in d_values]
    if len(d_values) < 3:
        raise ValueError("need at least 3 defect levels")
    if not d_values[0] < math.inf or not all(a > b > 0 for a, b in zip(d_values, d_values[1:])):
        raise ValueError("d values must be positive and strictly decreasing, and finite")
    rows: list[ScanRow] = []
    for idx, d in enumerate(d_values):
        xi = family.generate(d, idx)
        lower = None
        if hasattr(family, "lower_bound"):
            lower = float(family.lower_bound(xi))
        try:
            sol = find_periodic_shadow(sys, xi)
            epsilon_star, ratio, converged = sol.sup_distance, sol.ratio, sol.converged
            error = None if converged else "no-convergence"
        except ShadowlabError as exc:
            epsilon_star = ratio = float("nan")
            converged, error = False, exc.code
        rows.append(ScanRow(defect=xi.defect, epsilon_star=epsilon_star, ratio=ratio,
                            converged=converged, lower_bound=lower, error=error))
    converged_ratios = [r.ratio for r in rows if r.converged and np.isfinite(r.ratio)]
    estimated = max(converged_ratios) if converged_ratios else 0.0
    return LipschitzScan(
        rows=tuple(rows),
        estimated_constant=float(estimated),
        diverging=_diverging_verdict(rows),
    )


# ---------------------------------------------------------------------------
# exact base orbits on the torus


def toral_orbit_with_period(toral: ToralAutomorphism, period: int) -> Array:
    """An exact orbit of minimal period ``period``, chosen deterministically
    (lexicographically smallest starting point among the enumerated periodic
    points, decided in exact integer arithmetic).

    A period-``period`` point has a smaller minimal period exactly when it is
    periodic with period ``period / p`` for a prime p dividing ``period``;
    those few points are excluded, so the answer lies within the first
    (number excluded + 1) rows of the numerators.  The echelon walk of
    _periodic_numerators emits them in lexicographic order with no sort
    (each coordinate rises through an arithmetic progression under prefixes
    that are already in order), so it walks only that many rows, counting a
    point of several lower periods once per period.  The count check of
    period ``period`` runs first: a period past the cap is named before any
    lower period is enumerated.
    """
    d, _ = _periodic_count(toral.matrix, period)
    lower = [
        point
        for p in _prime_divisors(period)
        for point in enumerate_periodic_points_exact(toral.matrix, period // p)
    ]
    numerators, e = _periodic_numerators(d, period, len(lower) + 1)
    excluded = {tuple(c.numerator * (e // c.denominator) for c in point) for point in lower}
    for row in numerators:
        if tuple(row.tolist()) not in excluded:
            return orbit_segment(toral.system, row / e, 0, period - 1)
    raise ValueError(f"no orbit of minimal period {period}")


def _prime_divisors(q: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            primes.append(p)
            while q % p == 0:
                q //= p
        p += 1
    if q > 1:
        primes.append(q)
    return primes


# ---------------------------------------------------------------------------
# scan output


def _scan_cells(scan: LipschitzScan) -> list[list[str]]:
    """Header and one row of cells per defect level; the csv leaves out the
    last column (the row's error note)."""
    return [["d", "epsilon_star", "ratio", "converged", "lower_bound", "note"]] + [
        [
            _fmt(r.defect),
            _fmt(r.epsilon_star),
            _fmt(r.ratio),
            "true" if r.converged else "false",
            _fmt(r.lower_bound),
            _fmt(r.error),
        ]
        for r in scan.rows
    ]


def write_scan_csv(scan: LipschitzScan, path) -> None:
    _write_text(path, _csv_text([row[:-1] for row in _scan_cells(scan)]))


def format_scan_table(scan: LipschitzScan) -> str:
    return (
        _table_text(_scan_cells(scan))
        + f"\nestimated_constant  {_fmt(scan.estimated_constant)}\n"
        + f"diverging           {'true' if scan.diverging else 'false'}\n"
    )
