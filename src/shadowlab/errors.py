"""Exception hierarchy for shadowlab.

Every operation that can fail for a domain reason raises a subclass of
ShadowlabError carrying a short machine-readable ``code`` in addition to the
human message, so the CLI can surface failures verbatim.
"""

from __future__ import annotations


class ShadowlabError(Exception):
    """Base class for all shadowlab domain errors."""

    code = "error"


class StepLimitError(ShadowlabError, ValueError):
    """More iterates were asked for than ``systems.MAX_ITERATE_STEPS``.

    Also a ValueError, since the limit bounds an argument's value."""

    code = "step-limit"


class OrbitEscapeError(ShadowlabError):
    """An iterate left the Euclidean bounding box."""

    code = "orbit-escape"

    def __init__(self, step: int, point=None):
        self.step = step
        self.point = point
        super().__init__(f"orbit escaped the bounding box at step {step}")


class ConstraintViolatedError(ShadowlabError):
    """A witness construction violated its size constraint."""

    code = "constraint-violated"


class NotAnOrbitError(ShadowlabError):
    """A splice segment is not an exact orbit segment, or a point that starts
    a walk or a pseudotrajectory is not finite."""

    code = "not-an-orbit"


class NotPeriodicError(ShadowlabError):
    """The supplied point is not periodic with the stated period."""

    code = "not-periodic"


class NonhyperbolicOrbitError(ShadowlabError):
    """A periodic orbit has a unit-modulus multiplier where hyperbolicity is required."""

    code = "nonhyperbolic-orbit"


class LostPrecisionError(ShadowlabError):
    """The monodromy product has lost multipliers to rounding (log|det| check)."""

    code = "lost-precision"


class PullbackFailedError(ShadowlabError):
    """The pullback step of the displacement witness could not be made small."""

    code = "pullback-failed"


class VectorNotUnstableError(ShadowlabError):
    """The supplied vector does not lie in the unstable subspace."""

    code = "vector-not-unstable"


class SingularJacobianError(ShadowlabError):
    """A Newton linearization is numerically singular: the cyclic one of the
    shadow equations, or the Jacobian of a step of a map's Newton inverse."""

    code = "singular-jacobian"


class InverseNotFoundError(ShadowlabError):
    """The Newton iteration for a map's inverse did not converge."""

    code = "inverse-not-found"


class NonhyperbolicMonodromyError(ShadowlabError):
    """A resolvent omega_j I - A of the closed-form cyclic solve is singular
    or its inverse exceeds 1e12 in norm."""

    code = "nonhyperbolic-monodromy"


class DegenerateMatrixError(ShadowlabError):
    """det(M^m - I) = 0, so the periodic-point congruence is degenerate."""

    code = "degenerate"


class TooManyPeriodicPointsError(ShadowlabError):
    """|det(M^m - I)| periodic points are more than the enumerator will hold."""

    code = "too-many-points"


class InapplicableError(ShadowlabError):
    """The requested bound does not apply to this model configuration."""

    code = "inapplicable"


class ConfigError(ShadowlabError):
    """Experiment configuration is malformed; carries file path and line."""

    code = "config"

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{where}{message}")
