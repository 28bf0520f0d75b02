"""Exception types raised across the package.

Metric-axiom violations all derive from :class:`MetricViolationError` and
carry the offending indices, so callers (and the CLI) can report exactly
which entries broke which axiom.
"""

from __future__ import annotations


class MetricViolationError(ValueError):
    """A candidate distance matrix violates one of the metric axioms."""

    def __init__(self, message: str, indices: tuple[int, ...]):
        super().__init__(message)
        self.indices = indices


class AsymmetricError(MetricViolationError):
    """d[i][j] != d[j][i] beyond tolerance."""


class NegativeDistanceError(MetricViolationError):
    """d[i][j] < 0."""


class NonzeroDiagonalError(MetricViolationError):
    """d[i][i] != 0."""


class CoincidentPointsError(MetricViolationError):
    """d[i][j] == 0 for i != j (points must be distinct)."""


class TriangleViolationError(MetricViolationError):
    """d[i][j] > d[i][k] + d[k][j] beyond tolerance."""


class IndexOutOfRangeError(IndexError):
    """A tuple refers to a point index outside the space."""


class NonpositiveScaleError(ValueError):
    """Metric rescaling factor must be finite and > 0."""


class TupleTooShortError(ValueError):
    """Determinant machinery needs tuples of at least 2 points."""


class NotSymmetricError(ValueError):
    """A matrix argument that is not square, or not exactly symmetric."""


class DimensionOutOfRangeError(ValueError):
    """Target dimension n must be an integer >= 1."""


class DistanceOutOfRangeError(ValueError):
    """The distances span more than any power of two brings into the range
    where their squares are normal floats, so no finite decision can be
    made on the space; or a rescaling takes a distance past the largest
    float or a positive one to 0."""


class NotEmbeddableError(ValueError):
    """Coordinate realization requested for a non-embeddable space."""


class RankExceedsRequestedError(ValueError):
    """Gram factorization needs more dimensions than were requested."""


class NonpositiveExponentError(ValueError):
    """epsilon_scale exponent s must be > 0."""


class ArityMismatchError(ValueError):
    """A sampler asked for a sample of order k returned other than k + 1 points
    (:meth:`~metricembed.spaces.MarkedSpace.sample`)."""


class DegenerateNormalizerError(ArithmeticError):
    """Normalizing sequence hit zero/underflow before the requested depth."""


class UnstableInputError(ValueError):
    """Metric identification needs an all-stable pseudometric matrix."""


class MergeInconsistencyError(ValueError):
    """Near-zero chains linked points that sit far apart."""


class EmptySampleError(ValueError):
    """A scan was asked for ``samples_per_scale < 1`` tuples per order and rung."""


class SamplerScaleMismatchError(ValueError):
    """A rung's cloud has its delta (largest distance to p) outside [s/4, 2s]
    for the rung's scale s."""


class NonconvergentSequenceError(ValueError):
    """Point sequence does not converge to the marked point."""


class MarkedPointOutsideRegionError(ValueError):
    """Marked point p must lie inside the sampling region."""


class AlphaOutOfRangeError(ValueError):
    """Snowflake exponent must lie strictly between 0 and 1."""
