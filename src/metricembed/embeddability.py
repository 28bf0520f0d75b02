"""Isometric embeddability of finite metric spaces into E^n.

Every finite decision reads one diagonal-pivoted factorization of the
base-point form tau (``psd_check``) on each part of the space: the whole,
then, under a PSD whole, each ball of :func:`_neighbourhoods`. By
Schoenberg's theorem a space embeds in E^n iff tau is PSD of rank <= n, so
the minimal dimension m is the largest rank of a part, and there is none
when a part is not PSD. One ``_Decision`` per space reads the parts in one
loop, stops at the first that is not PSD, and answers every question from
the part that decides, that one or else the first of largest rank:

* ``menger_check`` / ``schoenberg_check``: ``yes`` iff m <= n. Otherwise
  the deciding part names one tuple of at most n+3 points that breaks a
  sign condition ``(-1)^(k+1) D_k >= 0`` (k <= n) or a vanishing
  condition (orders n+1, n+2), and each engine judges it by its smallest
  relative squared height, signed like its own determinant: ``no`` when
  that confirms, ``undetermined`` when it falls inside the zero band.
* ``min_embedding_dimension``: m, or the deciding part's witness.
* ``blumenthal_basis_search``: when m == n, the base followed by the n
  pivots of the deciding part; every prefix determinant is positive and
  every one- or two-point extension vanishes.
* ``realize_coordinates``: refuses iff there is no m or m > n; otherwise
  m coordinates per point, from the factor over all points, continued past
  its band when a smaller part has a larger rank on its leftover
  tau - F F^T, the Schur complement the ball search reads too.

Every relative squared height is judged by
:func:`~metricembed.determinants.within_band`, and one inside the band is
zero, which satisfies ``>= 0``. No answer depends on the unit: a space
with a distance outside :data:`CERTIFIABLE_RANGE` is decided scaled by the
power of two that brings every distance into it, which is exact.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .determinants import PsdReport, psd_check, tuple_heights, within_band
from .errors import (
    DEFAULT_TOL_DET,
    DistanceOutOfRangeError,
    NotEmbeddableError,
    RankExceedsRequestedError,
    _check_target,
    _checked_space,
    _checked_tol_det,
)
from .metric import FiniteMetricSpace, euclidean_matrix, readonly, row_blocks, scale_metric, submatrix


class Witness(NamedTuple):
    """A tuple of point indices violating (or grazing) a criterion."""

    indices: tuple[int, ...]
    k: int
    value: float
    #: "sign" for the k <= n conditions, "vanishing" for orders n+1 / n+2
    kind: str


class EmbedVerdict(NamedTuple):
    """Outcome of an embeddability check against a target dimension."""

    embeddable: str  # "yes" | "no" | "undetermined"
    dim_tested: int
    criterion: str
    witness: Witness | None = None


class Realization(NamedTuple):
    """Coordinates realizing a space in R^m, with the worst distance error."""

    #: (points x m), read-only
    coords: np.ndarray
    m: int
    max_residual: float


class MinDimResult(NamedTuple):
    """Minimal embedding dimension, or infeasibility with a PSD witness:
    the report of the part that decided, in point indices, with its base
    point ``base`` (also in ``witness_subset``); its factor has a row per
    point, or is None when a ball decided."""

    feasible: bool
    dim: int | None
    psd: PsdReport
    base: int


def _factorization(dist: np.ndarray, tol_det: float) -> tuple[PsdReport, int]:
    """The pivoted factorization of tau over the points of a distance
    matrix, about the point whose farthest distance is least: (report,
    base). The base's zero row is never a pivot, so the report's pivots,
    witness points and factor rows are point indices."""
    base = int(np.argmin(np.max(dist, axis=1)))
    return psd_check(dist * dist, base, tol_det), base


def _neighbourhoods(dist: np.ndarray, leftover: np.ndarray, tol_det: float):
    """Balls the factorization did not judge on their own scale.

    It judges each leftover on a tuple holding its base and pivots, so a
    feature far smaller than the space is judged on the space's scale.
    ``rho`` is what the factor leaves of each squared distance, read off
    the ``leftover`` L of tau as ``|L_ii/2 + L_jj/2 - L_ij|``. A tuple of
    diameter in (R/2, R] has all its leftovers within the band of its own
    scale, or a point y with a leftover above ``tol_det R^2 / 4`` to a
    point within R; it then lies in B(y, R). Yields each such distinct
    ball, R = D/2, D/4, ..., with three points or more, short of all.
    """
    npts = dist.shape[0]
    if npts < 4:
        return
    half = np.diag(leftover) / 2.0

    def rho(rows):
        """Rows of rho."""
        return np.abs(half[rows, None] + half[None, :] - leftover[rows])

    floor, most = np.inf, 0.0
    for rows in row_blocks(npts):
        sq = dist[rows] * dist[rows]
        # below the second-nearest distance of every point no ball holds three
        floor = min(floor, float(np.min(np.partition(np.where(sq > 0, sq, np.inf), 1, axis=1)[:, 1])))
        most = max(most, float(np.max(rho(rows))))
    reach = 4.0 * most / tol_det
    seen = set()
    top = float(np.max(dist))
    r2 = top * top / 4.0
    while r2 >= floor:
        if r2 < reach:
            for rows in row_blocks(npts):
                within = dist[rows] * dist[rows] <= r2
                for y in np.flatnonzero(np.any(within & ~within_band(rho(rows), r2 / 4.0, tol_det), axis=1)):
                    ball = np.flatnonzero(within[y])
                    key = ball.tobytes()
                    if 3 <= ball.size < npts and key not in seen:
                        seen.add(key)
                        yield ball
        r2 /= 4.0


def _continued(report: PsdReport, m: int) -> np.ndarray:
    """The factor of a PSD report continued to m columns past its band by
    diagonal-pivoted Cholesky steps on its leftover, a column at a time,
    stopping early only where nothing positive is left."""
    factor = np.zeros((report.factor.shape[0], m))
    factor[:, :report.rank] = report.factor
    added = factor[:, report.rank:]
    diag = np.diag(report.leftover).copy()
    for c in range(m - report.rank):
        j = int(np.argmax(diag))
        if diag[j] <= 0.0:
            break
        added[:, c] = (report.leftover[:, j] - added[:, :c] @ added[j, :c]) / math.sqrt(diag[j])
        diag -= added[:, c] * added[:, c]
    return factor


class _Decision:
    """Every finite answer for one space at one ``tol_det``, read off the
    part that decided (:func:`_decide`). It refuses attribute assignment;
    its realization is computed on first read."""

    #: the space decided: the one asked about, or that space's distances
    #: times 2^shift, all in :data:`CERTIFIABLE_RANGE`
    space: FiniteMetricSpace
    #: m, or infeasibility, with the deciding part's report and base, its
    #: factor in the unit of the space asked about
    result: MinDimResult
    #: the factor over all points, in the decided space's unit, continued
    #: to m columns when a ball outranks the whole
    factor: np.ndarray
    #: the power of two, 2^shift, the decided space's distances are the
    #: asked space's times: 0 unless a distance lies outside the range
    shift: int

    def __init__(self, space: FiniteMetricSpace, result: MinDimResult, factor: np.ndarray, shift: int):
        self.__dict__.update(space=space, result=result, factor=factor, shift=shift)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def witness(self, n: int) -> tuple[int, ...] | None:
        """A tuple of at most n+3 points on which E^n fails, or None, named
        by the deciding part: its base plus its first n+1 pivots when it
        took more than n (an order n+1 determinant that fails to vanish),
        else its witness."""
        _check_target(n)
        report = self.result.psd
        if report.rank > n:
            return tuple(sorted([self.result.base, *report.pivots[:n + 1]]))
        return report.witness_subset

    @cached_property
    def realization(self) -> Realization:
        """Coordinates in R^m of a feasible space, point 0 at the origin,
        from the factor over all points, in the decided space's unit."""
        dist = self.space.dist
        # tau = 2 G with the base at the origin
        coords = self.factor / math.sqrt(2.0)
        coords = coords - coords[0]
        residual = np.float64(0.0)
        for rows in row_blocks(dist.shape[0]):
            error = euclidean_matrix(coords[rows], coords)
            np.subtract(error, dist[rows], out=error)
            residual = np.maximum(residual, np.max(np.abs(error, out=error)))
        return Realization(coords=readonly(coords), m=coords.shape[1], max_residual=float(residual))


def _decide(space: FiniteMetricSpace, tol_det: float, /) -> _Decision:
    """The decision for ``space``, factored once while it is the last one
    asked (:func:`_cached_decision`); ``space`` and ``tol_det`` are judged
    before the cache hashes them, so a list or an array is refused in the rule's words."""
    return _cached_decision(_checked_space(space, FiniteMetricSpace, "validate_metric"), _checked_tol_det(tol_det))


@lru_cache(maxsize=1)
def _cached_decision(space: FiniteMetricSpace, tol_det: float, /) -> _Decision:
    """The decision for ``space``, on the space scaled by the power of two
    :func:`_shift` names (the space itself when every distance is in
    :data:`CERTIFIABLE_RANGE`); refuses a space that no power of two brings
    into the range.

    ``FiniteMetricSpace`` is a plain class that refuses attribute
    assignment, hashes by identity and keeps ``dist`` read-only, so a
    decision cached on the space object cannot go stale.
    """
    shift = _shift(space)
    if shift is None:
        raise DistanceOutOfRangeError("the distances span more than [%.4g, %.4g] holds at any power of two"
                                      % CERTIFIABLE_RANGE)
    decided = scale_metric(space, math.ldexp(1.0, shift)) if shift else space
    whole, base = _factorization(decided.dist, tol_det)
    report, ball = whole, None
    # the first ball that is not PSD decides, and ends the reading; else the first of largest rank
    for part in _neighbourhoods(decided.dist, whole.leftover, tol_det) if whole.psd else ():
        found, at = _factorization(decided.dist[np.ix_(part, part)], tol_det)
        if found.rank > report.rank or not found.psd:
            report, base, ball = found, at, part
            if not found.psd:
                break
    psd = report._replace(leftover=None)
    if ball is not None:
        # only the deciding ball is read in point indices, and its factor is dropped
        rows = report.witness_subset
        psd = psd._replace(pivots=tuple(ball[list(report.pivots)].tolist()), factor=None,
                           witness_subset=None if rows is None else tuple(ball[list(rows)].tolist()))
        base = int(ball[base])
    elif shift:
        psd = psd._replace(factor=readonly(psd.factor * math.ldexp(1.0, -shift)))
    result = MinDimResult(report.psd, report.rank if report.psd else None, psd, base)
    # the leftover has served the ball search, and the factor is continued
    # on it only past a ball's larger rank: else the result holds the same factor
    factor = readonly(_continued(whole, result.dim)) if result.feasible and result.dim > whole.rank else whole.factor
    return _Decision(decided, result, factor, shift)


def _engine_verdict(space: FiniteMetricSpace, n: int, engine: str, tol_det: float) -> EmbedVerdict:
    """One engine's verdict on the decision's witness for E^n: ``yes`` when
    there is none, else ``no`` when the witness's smallest relative squared
    height (:func:`~metricembed.determinants.tuple_heights`), signed like
    the engine's determinant (Menger: signed ``D_k`` for a sign condition,
    raw ``D_k`` for a vanishing one; Schoenberg: ``det tau``), confirms the
    violation, and ``undetermined`` when it lies inside the zero band (or,
    for a sign condition, is not negative)."""
    decision = _decide(space, tol_det)
    t = decision.witness(n)
    if t is None:
        return EmbedVerdict("yes", n, engine)
    k = len(t) - 1
    kind = "sign" if k <= n else "vanishing"
    cm, sch = tuple_heights(submatrix(decision.space, t))
    value = sch if engine == "schoenberg" else cm if kind == "sign" else (-1.0) ** (k + 1) * cm
    confirmed = not within_band(value, 1.0, tol_det) and (kind == "vanishing" or value < 0)
    return EmbedVerdict("no" if confirmed else "undetermined", n, engine, Witness(t, k, value, kind))


#: Smallest and largest distances a decision or certificate reads.
#: Between them every squared distance, and every sum of a few, is a
#: normal float: the decision's sums of squares cannot overflow, and the
#: realized distances keep the relative rounding the allowance assumes.
#: The range spans 2^995, about 3.3e299.
CERTIFIABLE_RANGE = (math.sqrt(np.finfo(float).tiny / np.finfo(float).eps), math.sqrt(np.finfo(float).max) / 4.0)


def _shift(space: FiniteMetricSpace) -> int | None:
    """The k for which 2^k times every positive distance lies in
    :data:`CERTIFIABLE_RANGE`: 0 when every one does already, else the least
    shift that brings in the end outside it; None when no power of two
    brings in both ends. The range's floor is a power of two and its
    ceiling's mantissa the largest below 1, so matching the exponent of the
    end with the range's own is that least shift."""
    low, high = CERTIFIABLE_RANGE
    top = float(np.max(space.dist, initial=0.0))
    least = float(np.min(space.dist, where=space.dist > 0, initial=np.inf))
    if top > high:
        k = math.frexp(high)[1] - math.frexp(top)[1]
        return k if least >= math.ldexp(low, -k) else None
    if least < low:
        k = math.frexp(low)[1] - math.frexp(least)[1]
        return k if top <= math.ldexp(high, -k) else None
    return 0


def triangles_certified(space: FiniteMetricSpace, tol_det: float = DEFAULT_TOL_DET) -> bool:
    """True when the decision's realization proves every triangle holds
    within ``space.tol`` (a ``certificate`` for ``validate_metric``).

    Coordinates e reproducing d within r give d_ij <= e_ij + r <= e_ik +
    e_kj + r <= d_ik + d_kj + 3r. Rounding in the realized distances (at
    most (m/2 + 2) eps relative) and in the triangle check's own sums adds
    less than ``4 (m + 3) eps max d``. All of it is read in the decided
    space's unit, where the power of two scales ``tol`` exactly too. False
    for a space no power of two brings into :data:`CERTIFIABLE_RANGE`, for
    an infeasible space, or when the bound exceeds ``tol`` or is not finite.
    """
    try:
        decision = _decide(space, tol_det)
    except DistanceOutOfRangeError:
        return False
    if not decision.result.feasible:
        return False
    decided = decision.space
    allowance = 4.0 * (decision.result.dim + 3) * np.finfo(float).eps * float(np.max(decided.dist, initial=0.0))
    return bool(3.0 * decision.realization.max_residual + allowance <= decided.tol)


def menger_check(space: FiniteMetricSpace, n: int, tol_det: float = DEFAULT_TOL_DET) -> EmbedVerdict:
    """Cayley-Menger embeddability test against E^n."""
    return _engine_verdict(space, n, "menger", tol_det)


def schoenberg_check(space: FiniteMetricSpace, n: int, tol_det: float = DEFAULT_TOL_DET) -> EmbedVerdict:
    """Schoenberg-determinant embeddability test against E^n."""
    return _engine_verdict(space, n, "schoenberg", tol_det)


def min_embedding_dimension(space: FiniteMetricSpace, tol_det: float = DEFAULT_TOL_DET) -> MinDimResult:
    """Minimal E^m admitting the space: the largest rank of a part, or
    infeasibility with the violating tuple of the first part not PSD."""
    return _decide(space, tol_det).result


def realize_coordinates(space: FiniteMetricSpace, n: int, tol_det: float = DEFAULT_TOL_DET) -> Realization:
    """Coordinates in R^m reproducing the distance matrix, m the minimal
    dimension, point 0 at the origin; raises when min-dim is infeasible or
    exceeds ``n``."""
    _check_target(n)
    decision = _decide(space, tol_det)
    res = decision.result
    if not res.feasible:
        raise NotEmbeddableError(f"space is not embeddable in E^{n}: tau minor on points {res.psd.witness_subset} "
                                 f"is {res.psd.witness_value}")
    if res.dim > n:
        raise RankExceedsRequestedError(f"minimal dimension {res.dim} exceeds requested dimension {n}")
    real = decision.realization
    if decision.shift:
        unit = math.ldexp(1.0, -decision.shift)
        real = Realization(coords=readonly(real.coords * unit), m=real.m, max_residual=real.max_residual * unit)
    return real


def blumenthal_basis_search(
    space: FiniteMetricSpace,
    n: int,
    tol_det: float = DEFAULT_TOL_DET,
) -> tuple[int, ...] | None:
    """n+1 points witnessing embeddability with rank exactly n, or None.

    The base of the first part of rank n followed by its n pivots: every
    prefix has a determinant outside the zero band, and the factorization's
    vanishing Schur complement is the vanishing of every order n+1 / n+2
    determinant on the basis extended by one or two points. Succeeds
    exactly when min-dim is n.
    """
    _check_target(n)
    res = _decide(space, tol_det).result
    return (res.base, *res.psd.pivots) if res.dim == n else None
