"""Error taxonomy for the whole package.

Every failure mode that callers are expected to branch on gets its own
class under :class:`KcurvError`; everything else surfaces as ordinary
``ValueError``/``TypeError`` from input validation.
"""


class KcurvError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(KcurvError):
    """Vector or matrix length does not match the form's variable count."""


class WrongArgumentCount(KcurvError):
    """Polarization called with a number of vectors != the degree."""


class ZeroVector(KcurvError):
    """The zero vector cannot be classified against the cone."""


class NearDegenerate(KcurvError):
    """An eigenvalue of the quadratic form sits inside the tolerance band.

    The point is too close to the cone boundary for a trustworthy
    classification; downstream curvature would be ill-conditioned there.
    """


class NonFiniteInput(KcurvError):
    """A point or direction has a NaN or infinite coordinate."""


class NonpositiveValue(KcurvError):
    """Normalization to the unit level set needs a positive form value."""


class ZeroGradient(KcurvError):
    """No tangent space: the gradient vanishes at this point."""


class NotInIndexCone(KcurvError):
    """Operation requires an index-cone point and this is not one."""


class DegenerateMetric(KcurvError):
    """Tangent metric Gram is not numerically positive definite (no Cholesky
    factor), or a reduced metric determinant is zero."""


class ChartExit(KcurvError):
    """Radial chart left the positive cone (form value <= 0 along the ray)."""


class DegeneratePlane(KcurvError):
    """The two plane-spanning vectors are dependent after tangent projection."""


class IllConditioned(KcurvError):
    """Finite-difference error estimate or tangent Gram conditioning too poor."""


class SingularPoint(KcurvError):
    """Reduction requested at a point with vanishing gradient."""


class DegenerateReduction(KcurvError):
    """Reduction base point lies on the cubic itself (form value zero), so the
    reduction basis cannot be completed to an invertible matrix."""


class NoSmoothPointFound(KcurvError):
    """Deterministic base-point search exhausted (form is a perfect cube or
    similarly degenerate)."""


class HessianZero(KcurvError):
    """Closed-form curvature undefined where the Hessian determinant vanishes."""


class GeodesicFailure(KcurvError):
    """Base class for geodesic integration failures.  A mid-run failure
    carries ``step`` (the 1-based RK4 step that failed) and ``t`` (the time
    at the end of that step); both are None otherwise."""

    step = None
    t = None


class LeftIndexCone(GeodesicFailure):
    """Trajectory left the index cone (or hit the boundary band) mid-run."""


class StepRejected(GeodesicFailure):
    """Energy drift in a single step exceeded the per-step budget; increase
    the step count."""


class NonpositiveDimension(KcurvError):
    """Configuration matrix describes a complete intersection of dimension < 1."""


class RegionEmpty(KcurvError):
    """Rejection sampling found no admissible point within the attempt budget."""


class CrossCheckError(KcurvError):
    """Two independent computations of the same quantity disagree beyond
    tolerance.  This is a loud failure by design: it means a bug, not noise."""
