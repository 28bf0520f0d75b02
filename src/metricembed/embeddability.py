"""Isometric embeddability of finite metric spaces into E^n.

Every finite decision reads one diagonal-pivoted factorization of the
base-point form tau (``psd_check``) on each part of the space
(:func:`_parts`). By Schoenberg's theorem a space embeds in E^n iff tau is
PSD of rank <= n, so the minimal dimension m is the largest rank of a
part, and there is none when a part is not PSD. One ``_Decision`` per
space factors every part once and answers every question from m:

* ``menger_check`` / ``schoenberg_check``: ``yes`` iff m <= n. Otherwise
  the first failing part names one tuple of at most n+3 points that breaks
  a sign condition ``(-1)^(k+1) D_k >= 0`` (k <= n) or a vanishing
  condition (orders n+1, n+2), and each engine evaluates its own
  determinant (bordered Cayley-Menger, or Schoenberg ``det tau``) on that
  tuple as a cross-check: ``no`` when it confirms, ``undetermined`` when
  its value falls inside the zero band.
* ``min_embedding_dimension``: m, or the first non-PSD part's witness.
* ``blumenthal_basis_search``: when m == n, the base followed by the n
  pivots of the first part of rank n; every prefix determinant is positive
  and every one- or two-point extension vanishes.
* ``realize_coordinates``: refuses iff there is no m or m > n; otherwise
  m coordinates per point, from the factor over all points, continued past
  its band when a smaller part has a larger rank on its leftover
  tau - F F^T, the Schur complement the ball search reads too.

Every determinant is judged by :func:`~metricembed.determinants.within_band`,
and a value inside the band is zero, which satisfies ``>= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .determinants import (
    DEFAULT_TOL_DET,
    PsdReport,
    cm_determinant,
    psd_check,
    sch_determinant,
    within_band,
)
from .errors import (
    DimensionOutOfRangeError,
    DistanceOutOfRangeError,
    NotEmbeddableError,
    RankExceedsRequestedError,
)
from .metric import FiniteMetricSpace, euclidean_matrix, readonly, row_blocks, submatrix


@dataclass(frozen=True)
class Witness:
    """A tuple of point indices violating (or grazing) a criterion."""

    indices: tuple[int, ...]
    k: int
    value: float
    #: "sign" for the k <= n conditions, "vanishing" for orders n+1 / n+2
    kind: str


@dataclass(frozen=True)
class EmbedVerdict:
    """Outcome of an embeddability check against a target dimension."""

    embeddable: str  # "yes" | "no" | "undetermined"
    dim_tested: int
    criterion: str
    witness: Witness | None = None
    tol_det: float = DEFAULT_TOL_DET

    def to_json_dict(self) -> dict:
        w = self.witness
        return {
            "criterion": self.criterion,
            "n": self.dim_tested,
            "verdict": self.embeddable,
            "witness_tuple": list(w.indices) if w else None,
            "witness_value": w.value if w else None,
            "witness_kind": w and (f"vanishing(order {w.k})" if w.kind == "vanishing" else f"sign(k={w.k})"),
            # the witness whose determinant fell inside the zero band
            "borderline_count": int(self.embeddable == "undetermined"),
            "residual": None,
        }


@dataclass(frozen=True)
class Realization:
    """Coordinates realizing a space in R^m, with the worst distance error."""

    coords: np.ndarray
    m: int
    max_residual: float

    def __post_init__(self):
        object.__setattr__(self, "coords", readonly(self.coords))


@dataclass(frozen=True)
class MinDimResult:
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
    base). The base's zero row is never a pivot nor in a witness, so the
    report's pivots, witness rows and factor rows are point indices."""
    if dist.shape[0] == 0:
        raise ValueError("empty space")
    base = int(np.argmin(np.max(dist, axis=1)))
    return psd_check(dist * dist, base, tol_det), base


def _factored_witness(report: PsdReport, base: int, n: int) -> tuple[int, ...] | None:
    """The tuple on which a factorization finds E^n violated, or None: the
    base plus the first n+1 pivots when more than n were accepted (an order
    n+1 determinant that fails to vanish), else its violating minor."""
    if report.psd and report.rank <= n:
        return None
    rows = report.pivots[:n + 1] if report.rank > n else report.witness_subset
    return tuple(sorted([base, *rows]))


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
                for y in np.flatnonzero(np.any(within & ~within_band(rho(rows), r2 / 4.0, 1, tol_det), axis=1)):
                    ball = np.flatnonzero(within[y])
                    key = ball.tobytes()
                    if 3 <= ball.size < npts and key not in seen:
                        seen.add(key)
                        yield ball
        r2 /= 4.0


def _parts(space: FiniteMetricSpace, tol_det: float):
    """The factorizations every finite question reads, as (report, base) in
    point indices: first the one over all points, then, when it is PSD, one
    of each ball of :func:`_neighbourhoods` on its own, its pivots, witness
    and base mapped to the space and its factor and leftover dropped."""
    report, base = _factorization(space.dist, tol_det)
    yield report, base
    if report.psd:
        for ball in _neighbourhoods(space.dist, report.leftover, tol_det):
            part, base = _factorization(space.dist[np.ix_(ball, ball)], tol_det)
            rows = part.witness_subset
            yield (replace(part, pivots=tuple(ball[list(part.pivots)].tolist()), factor=None, leftover=None,
                           witness_subset=None if rows is None else tuple(ball[list(rows)].tolist())), int(ball[base]))


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


def _check_target(n: int) -> None:
    """Refuse a target dimension below 1."""
    if n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be >= 1, got {n}")


@dataclass(frozen=True)
class _Decision:
    """Every finite answer for one space at one ``tol_det``, read off one
    round of :func:`_parts`."""

    space: FiniteMetricSpace
    #: every part, as :func:`_parts` yields them, the first with no leftover
    #: and, in a feasible space, its factor continued to m columns
    parts: tuple
    #: m, or infeasibility, read off the part that decided: the first that
    #: is not PSD, else the first of largest rank
    result: MinDimResult

    def witness(self, n: int) -> tuple[int, ...] | None:
        """A tuple of at most n+3 points on which E^n fails, named by the
        first part that is not PSD of rank <= n, or None."""
        _check_target(n)
        for report, base in self.parts:
            t = _factored_witness(report, base, n)
            if t is not None:
                return t
        return None

    @cached_property
    def realization(self) -> Realization:
        """Coordinates in R^m of a feasible space, point 0 at the origin,
        from the first part's factor."""
        dist = self.space.dist
        # tau = 2 G with the base at the origin
        coords = self.parts[0][0].factor / math.sqrt(2.0)
        coords = coords - coords[0]
        residual = np.float64(0.0)
        for rows in row_blocks(dist.shape[0]):
            error = euclidean_matrix(coords[rows], coords)
            np.subtract(error, dist[rows], out=error)
            residual = np.maximum(residual, np.max(np.abs(error, out=error)))
        return Realization(coords=coords, m=coords.shape[1], max_residual=float(residual))


@lru_cache(maxsize=1)
def _decide(space: FiniteMetricSpace, tol_det: float, /) -> _Decision:
    """The decision for ``space``, factored once while it is the last one
    asked; refuses a space with a distance outside :data:`CERTIFIABLE_RANGE`.

    ``FiniteMetricSpace`` is frozen, hashes by identity and keeps ``dist``
    read-only, so a decision cached on the space object cannot go stale.
    """
    if not _in_range(space):
        raise DistanceOutOfRangeError("a distance lies outside [%.4g, %.4g]" % CERTIFIABLE_RANGE)
    parts = tuple(_parts(space, tol_det))
    report, base = next((p for p in parts if not p[0].psd), None) or max(parts, key=lambda p: p[0].rank)
    report = replace(report, witness_subset=_factored_witness(report, base, report.rank), leftover=None)
    result = MinDimResult(report.psd, report.rank if report.psd else None, report, base)
    # the leftover has served the ball search and the continued factor
    whole, origin = parts[0]
    factor = _continued(whole, result.dim) if result.feasible else whole.factor
    return _Decision(space, ((replace(whole, factor=factor, leftover=None), origin), *parts[1:]), result)


def _engine_verdict(space: FiniteMetricSpace, n: int, engine: str, tol_det: float) -> EmbedVerdict:
    """One engine's verdict on the decision's witness for E^n: ``yes`` when
    there is none, else ``no`` when the engine's determinant on it (Menger:
    signed ``D_k`` for a sign condition, raw ``D_k`` for a vanishing one;
    Schoenberg: ``det tau``; both from one evaluator) confirms the
    violation, and ``undetermined`` when that value lies inside the zero
    band (or, for a sign condition, is not negative)."""
    t = _decide(space, tol_det).witness(n)
    if t is None:
        return EmbedVerdict("yes", n, engine, tol_det=tol_det)
    k = len(t) - 1
    kind = "sign" if k <= n else "vanishing"
    if engine == "schoenberg":
        value = sch_determinant(space, t)
    else:
        cm = cm_determinant(space, t)
        value = cm.signed_value if kind == "sign" else cm.value
    witness = Witness(t, k, value, kind)
    sq_max = float(np.max(submatrix(space, t))) ** 2
    confirmed = not within_band(value, sq_max, k, tol_det) and (kind == "vanishing" or value < 0)
    return EmbedVerdict("no" if confirmed else "undetermined", n, engine, witness, tol_det=tol_det)


#: Smallest and largest distances a decision or certificate trusts.
#: Between them every squared distance, and every sum of a few, is a
#: normal float: the decision's sums of squares cannot overflow, and the
#: realized distances keep the relative rounding the allowance assumes.
CERTIFIABLE_RANGE = (math.sqrt(np.finfo(float).tiny / np.finfo(float).eps), math.sqrt(np.finfo(float).max) / 4.0)


def _in_range(space: FiniteMetricSpace) -> bool:
    """Whether every positive distance lies in :data:`CERTIFIABLE_RANGE`."""
    low, high = CERTIFIABLE_RANGE
    return (float(np.max(space.dist, initial=0.0)) <= high
            and float(np.min(space.dist, where=space.dist > 0, initial=np.inf)) >= low)


def triangles_certified(space: FiniteMetricSpace, tol_det: float = DEFAULT_TOL_DET) -> bool:
    """True when the decision's realization proves every triangle holds
    within ``space.tol`` (a ``certificate`` for ``validate_metric``).

    Coordinates e reproducing d within r give d_ij <= e_ij + r <= e_ik +
    e_kj + r <= d_ik + d_kj + 3r. Rounding in the realized distances (at
    most (m/2 + 2) eps relative) and in the triangle check's own sums adds
    less than ``4 (m + 3) eps max d``. False, without deciding, when a
    distance lies outside :data:`CERTIFIABLE_RANGE`; False for an
    infeasible space, or when the bound exceeds ``space.tol`` or is not
    finite.
    """
    if not _in_range(space):
        return False
    decision = _decide(space, tol_det)
    if not decision.result.feasible:
        return False
    allowance = 4.0 * (decision.result.dim + 3) * np.finfo(float).eps * float(np.max(space.dist, initial=0.0))
    return bool(3.0 * decision.realization.max_residual + allowance <= space.tol)


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
    return decision.realization


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
