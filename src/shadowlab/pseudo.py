"""Periodic pseudotrajectories and their witness constructions.

A periodic pseudotrajectory is one period x_0 .. x_{Q-1} of points; its
defect is the largest cyclic gap max_i dist(f(x_i), x_{(i+1) mod Q}).

Witness constructions defeat any fixed Lipschitz shadowing constant at a
nonhyperbolic fixed point of a Jordan-block model:

* the staircase drives the unit-eigenvalue coordinate up for K steps by d/2
  and back down for K steps, peaking at K d / 2;
* the size-2 (and general size-l) unit Jordan witnesses drive the top block
  coordinate to K d, then retire the coordinates one by one back to zero, so
  the period is Q = 2 K + K^2 for l = 2 with structure constants
  Z1(K) = K (K - 1) / 2 and Z2(K) = K^2;
* the rotation-block witness is the unit-block witness in the frame that
  turns with the block: plane p carries coefficient c_p at an angle that
  advances by theta per step, so the last plane is driven by co-rotating
  impulses to magnitude K d and back and the others are retired pairwise;
* the orbit displacement (pullback) witness perturbs a hyperbolic periodic
  orbit along its unstable direction with coefficients a_i and returns through
  an n-fold pullback by the monodromy restricted to the unstable subspace,
  staying step-wise within 2 of the linearized push-forward.

In the exactly linear regime every block construction is carried out on
integer coefficient vectors, so the closure y_Q = y_0 is exact; on a real
block every point equals d times an integer vector bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConstraintViolatedError,
    NotAnOrbitError,
    PullbackFailedError,
    StepLimitError,
)
from .hyperbolicity import (
    ExpansionCertificate,
    analyze_periodic_orbit,
    expansion_certificate,
)
from .systems import MAX_ITERATE_STEPS, DiscreteSystem, JordanModel, ToralAutomorphism, _frozen

Array = np.ndarray

SEGMENT_GAP_TOL = 1e-8
# most pullback solves the pullback witness takes beyond n_pullback
MAX_PULLBACK_TRIES = 1000


@dataclass(frozen=True)
class PeriodicPseudotrajectory:
    """One period of points with its measured defect (never declared)."""

    points: Array  # (Q, n), read-only
    defect: float
    kind: str = "custom"
    params: dict | None = None

    @property
    def period(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class WitnessMeta:
    """Construction record: the kind plus every parameter needed to rebuild it."""

    kind: str
    period: int
    params: dict


def cyclic_gaps(sys: DiscreteSystem, pts: Array) -> Array:
    """Rows x_{(i+1) mod Q} - f(x_i) of a (Q, n) sequence, as chart displacements."""
    return sys.space.diff(np.concatenate((pts[1:], pts[:1])), sys.forward(pts))


def defect(sys: DiscreteSystem, points: Array) -> float:
    """Largest cyclic gap max_i dist(f(x_i), x_{(i+1) mod Q}); 0 iff an exact orbit."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    return float(np.max(np.linalg.norm(cyclic_gaps(sys, pts), axis=1)))


def make_pseudotrajectory(
    sys: DiscreteSystem, points: Array, kind: str = "custom", params: dict | None = None
) -> PeriodicPseudotrajectory:
    pts = sys.space.wrap(np.atleast_2d(np.asarray(points, dtype=float)))
    return PeriodicPseudotrajectory(
        points=_frozen(pts), defect=defect(sys, pts), kind=kind, params=dict(params or {})
    )


# ---------------------------------------------------------------------------
# witnesses on Jordan-block models


def _require_real_unit_block(model: JordanModel, op: str) -> None:
    if model.block != "real":
        raise ValueError(f"{op} needs a real Jordan block model, got {model.block!r}")
    if model.eigenvalue != 1:
        raise ValueError(f"{op} is implemented for eigenvalue +1 only")


def _embed(coeffs: Array, scale: float, dim: int) -> Array:
    """points[k] = scale * coeffs[k] on the block coordinates, zero tail."""
    pts = np.zeros((len(coeffs), dim))
    block = np.array(coeffs, dtype=float)
    pts[:, : block.shape[1]] = scale * block
    return pts


def _check_core_ball(model: JordanModel, pts: Array) -> None:
    # exactness of the construction needs the linear branch; vacuous when c = 0
    if model.c == 0.0:
        return
    peak = float(np.max(np.linalg.norm(pts, axis=1)))
    if peak > model.a_ball:
        raise ConstraintViolatedError(
            f"witness points reach |v| = {peak:.3g} > a_ball = {model.a_ball:.3g}; "
            "shrink d or enlarge the linear core"
        )


def _real_block_coefficients(l: int, k_steps: int) -> tuple[Array, list[int]]:
    """Integer coefficient path of the general unit-block witness.

    Drive the top coordinate up then down for k_steps each, then retire
    coordinates l-2 .. 0; returns one period of coefficient vectors as an
    int64 (Q, l) array and the per-phase step counts.

    The block step is c_i += c_{i+1}.  In a phase driving axis a, the
    coordinates above a are zero and c_a moves by the impulse sign each step,
    so each coordinate below a is its start value plus the running sum of the
    one above it: one cumsum per coordinate, from a down to 0.  Every
    coefficient is nonnegative, so a coordinate is largest at the end of a
    phase, and that value is a later retirement count: a StepLimitError is
    raised once it or the period passes MAX_ITERATE_STEPS.  With every count
    and coefficient at most 10^7 the cumsums stay below 10^15, far inside int64.
    """
    c = np.zeros(l, dtype=np.int64)
    phases: list[Array] = []
    lengths: list[int] = []

    def apply(axis: int, sign: int, count: int) -> None:
        nonlocal c
        if sum(lengths) + count > MAX_ITERATE_STEPS:
            raise StepLimitError(
                f"the unit-block witness at l = {l}, K = {k_steps} has a period over "
                f"{MAX_ITERATE_STEPS} steps"
            )
        path = np.zeros((count + 1, l), dtype=np.int64)  # row count is the next start
        path[:, axis] = c[axis] + sign * np.arange(count + 1)
        for i in range(axis - 1, -1, -1):
            path[0, i] = c[i]
            path[1:, i] = c[i] + np.cumsum(path[:-1, i + 1])
            if path[-1, i] > MAX_ITERATE_STEPS:
                raise StepLimitError(
                    f"the unit-block witness at l = {l}, K = {k_steps} needs a retirement "
                    f"count over {MAX_ITERATE_STEPS} steps"
                )
        phases.append(path[:-1])
        lengths.append(count)
        c = path[-1]

    apply(l - 1, +1, k_steps)
    apply(l - 1, -1, k_steps)
    for axis in range(l - 2, -1, -1):
        apply(axis, -1, int(c[axis]))
    return np.concatenate(phases), lengths


def _unit_block_witness(
    model: JordanModel, d: float, k_steps: int, op: str
) -> tuple[Array, list[int], Array]:
    """Coefficient path, phase lengths and points (step magnitude d) of the
    unit-block witness on the model's whole block."""
    _require_real_unit_block(model, op)
    if not d > 0 or k_steps < 1:
        raise ValueError("need d > 0 and K >= 1")
    coeffs, lengths = _real_block_coefficients(model.size, k_steps)
    pts = _embed(coeffs, d, model.dim)
    _check_core_ball(model, pts)
    return coeffs, lengths, pts


def witness_eigenvalue_one(
    model: JordanModel, d: float, k_steps: int
) -> tuple[PeriodicPseudotrajectory, WitnessMeta]:
    """Staircase witness along the unit eigendirection.

    2K-periodic: K steps of +d/2 along the eigenvector followed by K steps of
    -d/2, peaking at K d / 2.  Requires K d < 2 a_ball.
    """
    _require_real_unit_block(model, "the staircase witness")
    if not d > 0 or k_steps < 1:
        raise ValueError("need d > 0 and K >= 1")
    if k_steps * d >= 2.0 * model.a_ball:
        raise ConstraintViolatedError(
            f"K d = {k_steps * d:.3g} must stay below 2 a_ball = {2 * model.a_ball:.3g}"
        )
    # the l = 1 unit-block path in units of d/2: K steps up, K steps down along e_0
    pts = _embed(_real_block_coefficients(1, k_steps)[0], d / 2.0, model.dim)
    _check_core_ball(model, pts)
    xi = make_pseudotrajectory(
        model.system, pts, kind="staircase", params={"d": d, "K": k_steps}
    )
    meta = WitnessMeta(
        kind="staircase",
        period=2 * k_steps,
        params={"d": d, "K": k_steps, "peak": k_steps * d / 2.0},
    )
    return xi, meta


def witness_jordan_general(
    model: JordanModel, d: float, k_steps: int
) -> tuple[PeriodicPseudotrajectory, WitnessMeta]:
    """Unit-block witness for any block size l >= 1 (step magnitude d)."""
    coeffs, lengths, pts = _unit_block_witness(model, d, k_steps, "the unit-block witness")
    params = {
        "d": d,
        "K": k_steps,
        "l": model.size,
        "phase_lengths": " ".join(str(v) for v in lengths),
    }
    xi = make_pseudotrajectory(model.system, pts, kind="jordan-general", params=params)
    return xi, WitnessMeta(kind="jordan-general", period=len(coeffs), params=params)


def witness_jordan(
    model: JordanModel, d: float, k_steps: int
) -> tuple[PeriodicPseudotrajectory, WitnessMeta]:
    """Size-2 unit-block witness with its structure constants.

    Drives the second coordinate to K d, back to zero (first coordinate then
    sits at Z2(K) d = K^2 d), and retires the first coordinate, closing after
    Q = 2 K + K^2 steps.  Z1(K) = K (K - 1) / 2 is the first coordinate at
    step K; Y is the peak point norm in units of d.
    """
    if model.block != "real" or model.size != 2:
        raise ValueError("this witness needs a real unit Jordan block of size 2")
    coeffs, lengths, pts = _unit_block_witness(
        model, d, k_steps, "the size-2 unit-block witness"
    )
    z1 = int(coeffs[k_steps, 0])
    z2 = lengths[2]
    peak = float(np.max(np.hypot(coeffs[:, 0], coeffs[:, 1])))
    params = {
        "d": d,
        "K": k_steps,
        "Z1": z1,
        "Z2": z2,
        "Y": peak,
        "Q": len(coeffs),
    }
    xi = make_pseudotrajectory(model.system, pts, kind="jordan", params=params)
    return xi, WitnessMeta(kind="jordan", period=len(coeffs), params=params)


def witness_rotation(
    model: JordanModel, d: float, k_steps: int, w0: Sequence[float] = (1.0, 0.0)
) -> tuple[PeriodicPseudotrajectory, WitnessMeta]:
    """Rotation-block witness: the real unit-block witness in the turning frame.

    With l planes and c the integer unit-block path, plane p at step k is
    d c[k, p] (cos, sin)(alpha0 + (k - l + p) theta), alpha0 the angle of w0.
    The block rotates every plane by theta and adds the plane above it at
    the same angle, so each step is the real block step plus one impulse of
    magnitude d co-rotating with the block: the last plane is driven to K d
    and back, the others are retired pairwise, and the defect is d in the
    linear regime.  The closure is exact for every rotation angle.
    """
    if model.block != "rotation":
        raise ValueError("the rotation witness needs a rotation block model")
    if not d > 0 or k_steps < 1:
        raise ValueError("need d > 0 and K >= 1")
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (2,) or np.linalg.norm(w0) == 0:
        raise ValueError("w0 must be a nonzero 2-vector")
    w0 = w0 / np.linalg.norm(w0)
    planes = model.size
    coeffs, lengths = _real_block_coefficients(planes, k_steps)
    steps = np.arange(len(coeffs))[:, None] + np.arange(-planes, 0)  # k - l + p
    angles = math.atan2(w0[1], w0[0]) + steps * model.theta
    pts = np.zeros((len(coeffs), model.dim))
    pts[:, 0 : 2 * planes : 2] = d * coeffs * np.cos(angles)
    pts[:, 1 : 2 * planes : 2] = d * coeffs * np.sin(angles)
    _check_core_ball(model, pts)
    params = {
        "d": d,
        "K": k_steps,
        "theta": model.theta,
        "w0": " ".join(repr(float(c)) for c in w0),
        "phase_lengths": " ".join(str(v) for v in lengths),
    }
    xi = make_pseudotrajectory(model.system, pts, kind="rotation", params=params)
    return xi, WitnessMeta(kind="rotation", period=len(coeffs), params=params)


# ---------------------------------------------------------------------------
# orbit displacement (pullback) witness around a hyperbolic periodic orbit


def _require_pullback_period(m: int, depth: int) -> None:
    if m * (depth + 1) > MAX_ITERATE_STEPS:
        raise StepLimitError(
            f"the pullback witness at period {m} and depth {depth} has a period over "
            f"{MAX_ITERATE_STEPS} steps"
        )


def witness_orbit_pullback(
    sys: DiscreteSystem,
    p: Array,
    m: int,
    v_u: Array,
    d: float,
    n_pullback: int = 1,
) -> tuple[PeriodicPseudotrajectory, WitnessMeta, ExpansionCertificate]:
    """Displace a hyperbolic period-m orbit along its unstable direction.

    Builds the m(n+1)-periodic displacement sequence w_i (coefficients a_i on
    the unit unstable directions for one period, then the pullback
    B^{-n} tau e_0 pushed forward for the remaining n periods) and returns the
    pseudotrajectory x_i = p_i + d w_i.  The pullback is taken in the
    coordinates of the orthonormal unstable basis U, through the k x k
    restriction U^T B U of the monodromy B, so it never leaves the unstable
    subspace.  The depth n is raised from ``n_pullback`` until
    |B^{-n} tau e_0| < 1, by at most MAX_PULLBACK_TRIES (PullbackFailedError);
    a period m(n+1) over MAX_ITERATE_STEPS raises StepLimitError before the
    solve that would reach it.  The solves stop once the coordinates c_i are
    exactly 0.  Step j of tail period r is A_{j-1} ... A_0 U c_{n-r}, from the
    partial products U^T B U is built from, in one batched product.

    Every step satisfies |w_{i+1} - A_i w_i| < 2, so the measured defect is
    below 2 d in the linear regime and at most 4 d for small d in general.
    """
    if not d > 0:
        raise ValueError("d must be positive")
    if n_pullback < 1:
        raise ValueError("n_pullback must be >= 1")
    record = analyze_periodic_orbit(sys, p, m)
    cert = expansion_certificate(sys, record, v_u)
    u = record.unstable_basis
    # partials[j] = A_{j-1} ... A_0 U, so partials[m] = B U
    partials = np.empty((m + 1,) + u.shape)
    partials[0] = u
    for j, a in enumerate(record.jacobians):
        np.matmul(a, partials[j], out=partials[j + 1])
    restriction = u.T @ partials[m]
    _require_pullback_period(m, n_pullback)
    # coords[i] = (U^T B U)^-i U^T tau e_0, left 0 past an underflow
    coords = np.zeros((n_pullback + MAX_PULLBACK_TRIES + 1, u.shape[1]))
    coords[0] = u.T @ (cert.tau * cert.directions[0])
    n = 0
    while (n < n_pullback and coords[n].any()) or float(np.linalg.norm(coords[n])) >= 1.0:
        if n >= n_pullback + MAX_PULLBACK_TRIES:
            raise PullbackFailedError(
                f"|B^-n tau e_0| stayed >= 1 after {MAX_PULLBACK_TRIES} extra pullbacks"
            )
        _require_pullback_period(m, n + 1)
        coords[n + 1] = np.linalg.solve(restriction, coords[n])
        n += 1
    n = max(n, n_pullback)

    q = m * (n + 1)
    w_seq = np.empty((q, sys.dim))
    w_seq[:m] = cert.coefficients[:m, None] * cert.directions
    np.matmul(partials[:m], coords[n:0:-1, None, :, None], out=w_seq[m:].reshape(n, m, sys.dim, 1))

    pts = np.tile(record.points, (n + 1, 1)) + d * w_seq
    params = {"d": d, "m": m, "n_pullback": n, "Q": q, "tau": cert.tau}
    xi = make_pseudotrajectory(sys, pts, kind="pullback", params=params)
    meta = WitnessMeta(kind="pullback", period=q, params=params)
    return xi, meta, replace(cert, displacement=_frozen(w_seq))


# ---------------------------------------------------------------------------
# splices of exact orbit segments


def splice_cycle(sys: DiscreteSystem, segments: Sequence[Array]) -> PeriodicPseudotrajectory:
    """Concatenate exact orbit segments into one periodic pseudotrajectory.

    Interior gaps of each segment must not exceed 1e-8 (they are recomputed
    here); the defect of the result is then the largest junction gap.
    """
    if len(segments) == 0:
        raise ValueError("need at least one segment")
    cleaned = []
    for k, seg in enumerate(segments):
        seg = np.atleast_2d(np.asarray(seg, dtype=float))
        if not np.isfinite(seg).all():
            raise NotAnOrbitError(f"segment {k} holds a non-finite value")
        gaps = np.linalg.norm(cyclic_gaps(sys, seg)[:-1], axis=1)  # the last row closes the cycle
        bad = np.flatnonzero(~(gaps <= SEGMENT_GAP_TOL))
        if bad.size:
            i = int(bad[0])
            raise NotAnOrbitError(
                f"segment {k} has interior gap {gaps[i]:.3e} at index {i} "
                f"(tolerance {SEGMENT_GAP_TOL})"
            )
        cleaned.append(seg)
    points = np.vstack(cleaned)
    params = {"segment_lengths": " ".join(str(s.shape[0]) for s in cleaned)}
    return make_pseudotrajectory(sys, points, kind="splice", params=params)


def homoclinic_point(toral: ToralAutomorphism, shift: Sequence[int] = (0, 1)) -> Array:
    """A point of the 2-torus on both eigenlines of the fixed point 0.

    Solves t e_u = s e_s + shift for the integer translate ``shift``; the
    orbit of the returned point approaches 0 in both time directions.
    """
    m = toral.matrix.astype(float)
    if m.shape != (2, 2) or not toral.hyperbolic:
        raise ValueError("homoclinic construction needs a 2x2 hyperbolic automorphism")
    vals, vecs = np.linalg.eig(m)
    unstable = vecs[:, int(np.argmax(np.abs(vals)))].real
    stable = vecs[:, int(np.argmin(np.abs(vals)))].real
    coeffs = np.linalg.solve(np.column_stack([unstable, -stable]), np.asarray(shift, dtype=float))
    return toral.system.space.wrap(coeffs[0] * unstable)


def perturb_orbit(
    sys: DiscreteSystem, orbit_points: Array, d: float, seed=0
) -> PeriodicPseudotrajectory:
    """Perturb an exact periodic orbit by deterministic uniform noise of size <= d.

    ``seed`` is anything numpy's default_rng accepts (int or sequence of ints).
    """
    if not d >= 0:
        raise ValueError("d must be >= 0")
    pts = np.atleast_2d(np.asarray(orbit_points, dtype=float))
    rng = np.random.default_rng(seed)
    n = pts.shape[1]
    noisy = np.empty_like(pts)
    for i in range(pts.shape[0]):
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        radius = d * rng.uniform() ** (1.0 / n)
        noisy[i] = pts[i] + radius * direction
    return make_pseudotrajectory(
        sys, noisy, kind="noise", params={"d": d, "seed": str(seed), "Q": pts.shape[0]}
    )


# ---------------------------------------------------------------------------
# serialization (round-trips bit-exactly through repr formatting)


def _format_param(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def save_pseudotrajectory(xi: PeriodicPseudotrajectory, path) -> None:
    """Write the CSV-like text format: header names, header values, one point per row."""
    params = xi.params or {}
    # a line break ends the header line, a comma the kind field, a semicolon a
    # parameter and the first "=" its key
    if any(ch in xi.kind for ch in ",\r\n"):
        raise ValueError(f"kind {xi.kind!r} contains a reserved character")
    for key, value in params.items():
        if "=" in f"{key}" or any(ch in f"{key}{_format_param(value)}" for ch in ",;\r\n"):
            raise ValueError(f"parameter {key!r} contains a reserved character")
    header = ";".join(f"{k}={_format_param(v)}" for k, v in params.items())
    lines = ["Q,defect,kind,params", f"{xi.period},{xi.defect!r},{xi.kind},{header}"]
    for row in xi.points:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_pseudotrajectory(path, sys: DiscreteSystem) -> PeriodicPseudotrajectory:
    """Read the format written by save_pseudotrajectory, exactly Q non-blank
    point rows; the defect is recomputed."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if len(lines) < 3 or lines[0] != "Q,defect,kind,params":
        raise ValueError(f"{path}: not a pseudotrajectory file")
    q_str, _, kind, header = lines[1].split(",", 3)
    q = int(q_str)
    params: dict = {}
    if header:
        for item in header.split(";"):
            key, _, value = item.partition("=")
            params[key] = value
    rows = [ln for ln in lines[2:] if ln.strip()]
    if len(rows) != q:
        raise ValueError(f"{path}: expected {q} points, found {len(rows)}")
    points = np.array([[float(v) for v in ln.split(",")] for ln in rows])
    if points.shape[1:] != (sys.dim,):
        raise ValueError(
            f"{path}: the points have {points.shape[-1]} columns, "
            f"the system has dimension {sys.dim}"
        )
    if not np.isfinite(points).all():
        raise ValueError(f"{path}: the points hold a non-finite value")
    return make_pseudotrajectory(sys, points, kind=kind, params=params)
