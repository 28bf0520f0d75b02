"""Exception types raised across the package, and the input rules that need
no numpy.

Metric-axiom violations all derive from :class:`MetricViolationError` and
carry the offending indices, so callers (and the CLI) can report exactly
which entries broke which axiom.

What a number, a count, a tolerance, a positive finite number, a target
dimension and a scale ladder are is said once here, for every layer and
every option of the CLI, so parsing its arguments loads no numpy.
"""

from __future__ import annotations

import math
import numbers


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


#: Tolerance of the zero rule: a step of a tuple is flat when its relative
#: squared height, the Schur pivot of tau that adds its last point over the
#: tuple's largest squared distance, lies within ``tol_det``
#: (:func:`~metricembed.determinants.within_band`). That is degree 1 and
#: unit-free: no verdict depends on the unit of distance, and a well-spread
#: simplex reads no flatter as it grows. The scans judge the delta-normalized
#: Theta and S against one noise floor, ``10 * tol_det``. Every function
#: taking a ``tol_det`` refuses one outside (0, 1): a relative squared height
#: never exceeds 2, and a band of 1 or more takes in steps whose point lies
#: D / sqrt(2) or more off the span of a tuple of diameter D.
DEFAULT_TOL_DET = 1e-8


def is_number(value) -> bool:
    """Whether ``value`` is a real number that a float holds, Python's or numpy's; a bool, a
    string, None or an integer past the largest float is not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked_tol(tol: float, name: str) -> float:
    """``tol``, refused with ValueError naming it ``name`` unless it is a number (:func:`is_number`) >= 0."""
    if not is_number(tol) or not tol >= 0:
        raise ValueError(f"{name} must be a number >= 0, got {tol!r}")
    return tol


def _checked_tol_det(tol_det: float) -> float:
    """``tol_det``, refused with ValueError unless it is a number (:func:`is_number`) in (0, 1)."""
    if not is_number(tol_det) or not 0 < tol_det < 1:
        raise ValueError(f"tol_det must be in (0, 1), got {tol_det!r}")
    return tol_det


def _checked_count(value, name: str, least: int = 1, error: type = ValueError):
    """``value``, refused with ``error`` naming it ``name`` unless it is an integer (:func:`is_integer`) >= least."""
    if not is_integer(value) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _check_target(n: int) -> int:
    """``n``, refused with DimensionOutOfRangeError unless it is a target dimension, an integer >= 1."""
    return _checked_count(n, "target dimension", error=DimensionOutOfRangeError)


def _checked_positive(value, name: str, error: type = ValueError) -> float:
    """``value`` as a float, refused with ``error`` naming it ``name`` unless it is a positive finite number."""
    if not is_number(value) or not 0 < value < math.inf:
        raise error(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _checked_space(space, kind: type, builder: str):
    """``space``, refused with TypeError unless it is a ``kind``, naming what it is and ``builder``."""
    if not isinstance(space, kind):
        raise TypeError(f"expected a {kind.__name__}, built by {builder}, got {type(space).__name__}")
    return space


def checked_scales(scales) -> list[float]:
    """The ladder rule of every scan: at least two scales, each a finite
    positive number (:func:`is_number`), strictly decreasing. Returns them
    as floats; raises ValueError otherwise."""
    scales = list(scales)
    if (len(scales) < 2 or not all(is_number(s) and 0 < s < math.inf for s in scales)
            or any(b >= a for a, b in zip(scales, scales[1:]))):
        raise ValueError("scales must be at least two finite positive values, strictly decreasing")
    return [float(s) for s in scales]


def scale_ladder(r0: float = 0.5, q: float = 0.5, rungs: int = 12) -> list[float]:
    """Geometric scale ladder r0 * q^j, j = 0..rungs-1, of numbers r0 and q and an integer
    ``rungs``, under the rule of :func:`checked_scales`. A last rung that underflows to 0
    is refused before the ladder is built, however many rungs it asks for."""
    if not (is_number(r0) and is_number(q) and is_integer(rungs) and 0 < r0 < math.inf and 0 < q < 1):
        raise ValueError(f"need a finite r0 > 0 and 0 < q < 1 and an integer rungs, got {r0!r}, {q!r}, {rungs!r}")
    # an exponent past 2^1023 is no float, and q to that power is 0 anyway
    if rungs >= 2 and not r0 * q ** min(rungs - 1, 2**1023) > 0:
        raise ValueError("the last rung r0 * q^(rungs - 1) underflows to 0")
    return checked_scales([r0 * q**j for j in range(rungs)])
