"""Isometric embeddability of finite metric spaces into E^n.

Every finite decision reads one diagonal-pivoted factorization of the
base-point form tau (``psd_check``). By Schoenberg's theorem the space
embeds in E^n iff tau is PSD of rank <= n, whichever point is the base:

* ``menger_check`` / ``schoenberg_check``: ``yes`` iff tau is PSD of rank
  <= n, and so is the tau of every neighbourhood the factorization judged
  on a scale far above its own. Otherwise the failing factorization names
  one tuple of at most n+3 points that breaks a sign condition
  ``(-1)^(k+1) D_k >= 0`` (k <= n) or a vanishing condition (orders n+1,
  n+2), and each engine evaluates its own determinant (bordered
  Cayley-Menger, or Schoenberg ``det tau``) on that tuple as a
  cross-check: ``no`` when it confirms, ``undetermined`` when its value
  falls inside the zero band.
* ``min_embedding_dimension``: the rank, or the violating minor, of the
  factorization over all points.
* ``realize_coordinates``: coordinates from the factor.
* ``blumenthal_basis_search``: the base followed by the n pivots, when tau
  is PSD of rank exactly n; every prefix determinant is positive and every
  one- or two-point extension vanishes.

Every determinant is judged by :func:`~metricembed.determinants.within_band`,
and a value inside the band is zero, which satisfies ``>= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinants import (
    DEFAULT_TOL_DET,
    PsdReport,
    cm_determinant,
    psd_check,
    sch_determinant,
    tau_from_matrix,
    within_band,
)
from .errors import (
    DimensionOutOfRangeError,
    NotEmbeddableError,
    RankExceedsRequestedError,
)
from .metric import FiniteMetricSpace, submatrix


@dataclass(frozen=True)
class Witness:
    """A tuple of point indices violating (or grazing) a criterion."""

    indices: tuple[int, ...]
    k: int
    value: float
    #: "sign" for the k <= n conditions, "vanishing" for orders n+1 / n+2
    kind: str
    base: int | None = None


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
        c = np.asarray(self.coords, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)


@dataclass(frozen=True)
class MinDimResult:
    """Minimal embedding dimension, or infeasibility with a PSD witness."""

    feasible: bool
    dim: int | None
    psd: PsdReport
    base: int


def _factorization(dist: np.ndarray, tol_det: float) -> tuple[PsdReport, int, list[int]]:
    """The pivoted factorization of tau over the points of a distance
    matrix, based at the point whose farthest distance is least: (report,
    base, order), ``order`` mapping tau row r to point ``order[r + 1]``."""
    if dist.shape[0] == 0:
        raise ValueError("empty space")
    base = int(np.argmin(np.max(dist, axis=1)))
    order = [base] + [i for i in range(dist.shape[0]) if i != base]
    if len(order) == 1:
        return psd_check(np.zeros((0, 0)), tol_det), base, order
    ix = np.asarray(order)
    return psd_check(tau_from_matrix(dist[np.ix_(ix, ix)]), tol_det), base, order


def _coordinates(report: PsdReport, order: list[int]) -> np.ndarray:
    """Point coordinates read off the factor of tau = 2 G, base at the origin."""
    x = np.zeros((len(order), report.rank))
    x[order[1:]] = report.factor / math.sqrt(2.0)
    return x


def _factored_witness(report: PsdReport, base: int, order: list[int], n: int) -> tuple[int, ...] | None:
    """The tuple on which a factorization finds E^n violated, or None: the
    base plus the first n+1 pivots when more than n were accepted (an order
    n+1 determinant that fails to vanish), else its violating minor."""
    if report.psd and report.rank <= n:
        return None
    rows = report.pivots[:n + 1] if report.rank > n else report.witness_subset
    return tuple(sorted([base] + [order[1 + r] for r in rows]))


def _neighbourhoods(dist: np.ndarray, report: PsdReport, order: list[int], tol_det: float):
    """Balls the factorization did not judge on their own scale.

    It judges each leftover on a tuple holding its base and pivots, so a
    feature far smaller than the space is judged on the space's scale.
    ``rho`` is what the factor leaves of each squared distance. A tuple of
    diameter in (R/2, R] has all its leftovers within the band of its own
    scale, or a point y with a leftover above ``tol_det R^2 / 4`` to a
    point within R; it then lies in B(y, R). Yields each such distinct
    ball, R = D/2, D/4, ..., with three points or more, short of all.
    """
    npts = dist.shape[0]
    if npts < 4:
        return
    sq = dist * dist
    x = _coordinates(report, order)
    gram = x @ x.T
    norms = np.diag(gram)
    rho = np.abs(sq - (norms[:, None] + norms[None, :] - 2.0 * gram))
    # below the second-nearest distance of every point no ball holds three
    floor = float(np.min(np.partition(np.where(sq > 0, sq, np.inf), 1, axis=1)[:, 1]))
    reach = 4.0 * float(np.max(rho)) / tol_det
    seen = set()
    r2 = float(np.max(sq)) / 4.0
    while r2 >= floor:
        if r2 < reach:
            within = sq <= r2
            for y in np.flatnonzero(np.any(within & (rho > tol_det * r2 / 4.0), axis=1)):
                ball = np.flatnonzero(within[y])
                key = ball.tobytes()
                if 3 <= ball.size < npts and key not in seen:
                    seen.add(key)
                    yield ball
        r2 /= 4.0


def _violating_tuple(space: FiniteMetricSpace, n: int, tol_det: float) -> tuple[int, ...] | None:
    """A tuple of at most n+3 points on which E^n fails, or None.

    The factorization over all points names one when tau is not PSD of rank
    <= n. Otherwise each ball of :func:`_neighbourhoods` is factored on its
    own, and the first one that fails names it.
    """
    if n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be >= 1, got {n}")
    report, base, order = _factorization(space.dist, tol_det)
    t = _factored_witness(report, base, order, n)
    if t is not None:
        return t
    for ball in _neighbourhoods(space.dist, report, order, tol_det):
        t = _factored_witness(*_factorization(space.dist[np.ix_(ball, ball)], tol_det), n)
        if t is not None:
            return tuple(int(ball[i]) for i in t)
    return None


def engine_verdict(space: FiniteMetricSpace, n: int, engine: str, t: tuple[int, ...] | None,
                   tol_det: float = DEFAULT_TOL_DET) -> EmbedVerdict:
    """One engine's verdict on the tuple :func:`_violating_tuple` names:
    ``yes`` when there is none, else ``no`` when the engine's determinant on
    it (Menger: signed ``D_k`` for a sign condition, raw ``D_k`` for a
    vanishing one; Schoenberg: ``det tau`` based at its first point)
    confirms the violation, and ``undetermined`` when that value lies inside
    the zero band (or, for a sign condition, is not negative)."""
    if t is None:
        return EmbedVerdict("yes", n, engine, tol_det=tol_det)
    k = len(t) - 1
    kind = "sign" if k <= n else "vanishing"
    if engine == "schoenberg":
        value = sch_determinant(space, t)
    else:
        cm = cm_determinant(space, t)
        value = cm.signed_value if kind == "sign" else cm.value
    witness = Witness(t, k, value, kind, base=t[0] if engine == "schoenberg" else None)
    sq_max = float(np.max(submatrix(space, t))) ** 2
    confirmed = not within_band(value, sq_max, k, tol_det) and (kind == "vanishing" or value < 0)
    return EmbedVerdict("no" if confirmed else "undetermined", n, engine, witness, tol_det=tol_det)


def menger_check(space: FiniteMetricSpace, n: int, tol_det: float = DEFAULT_TOL_DET) -> EmbedVerdict:
    """Cayley-Menger embeddability test against E^n."""
    return engine_verdict(space, n, "menger", _violating_tuple(space, n, tol_det), tol_det)


def schoenberg_check(space: FiniteMetricSpace, n: int, tol_det: float = DEFAULT_TOL_DET) -> EmbedVerdict:
    """Schoenberg-determinant embeddability test against E^n."""
    return engine_verdict(space, n, "schoenberg", _violating_tuple(space, n, tol_det), tol_det)


def min_embedding_dimension(space: FiniteMetricSpace, tol_det: float = DEFAULT_TOL_DET) -> MinDimResult:
    """Minimal E^m admitting the space: the rank of the pivoted factorization
    of the full tau matrix, or infeasibility with its violating minor."""
    report, base, _ = _factorization(space.dist, tol_det)
    return MinDimResult(report.psd, report.rank if report.psd else None, report, base)


def realize_coordinates(space: FiniteMetricSpace, n: int, tol_det: float = DEFAULT_TOL_DET) -> Realization:
    """Coordinates in R^m (m <= n) reproducing the distance matrix.

    Read off the factor of tau = 2 G: point 0 ends up at the origin.
    Raises when tau is not PSD or its rank exceeds ``n``.
    """
    if n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be >= 1, got {n}")
    report, _, order = _factorization(space.dist, tol_det)
    if not report.psd:
        raise NotEmbeddableError(f"space is not embeddable in E^{n}: tau minor on rows {report.witness_subset} "
                                 f"is {report.witness_value}")
    if report.rank > n:
        raise RankExceedsRequestedError(f"gram rank {report.rank} exceeds requested dimension {n}")

    coords = _coordinates(report, order)
    coords = coords - coords[0]

    diff = coords[:, None, :] - coords[None, :, :]
    realized = np.sqrt(np.sum(diff * diff, axis=-1))
    residual = float(np.max(np.abs(realized - space.dist)))
    return Realization(coords=coords, m=report.rank, max_residual=residual)


def blumenthal_basis_search(
    space: FiniteMetricSpace,
    n: int,
    tol_det: float = DEFAULT_TOL_DET,
) -> tuple[int, ...] | None:
    """n+1 points witnessing embeddability with rank exactly n, or None.

    The base of the factorization followed by its n pivots: every prefix
    has a determinant outside the zero band, and the factorization's
    vanishing Schur complement is the vanishing of every order n+1 / n+2
    determinant on the basis extended by one or two points. Succeeds
    exactly when tau is PSD of rank n.
    """
    if n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be >= 1, got {n}")
    if space.n_points < n + 1:
        return None
    report, base, order = _factorization(space.dist, tol_det)
    if not (report.psd and report.rank == n):
        return None
    return (base,) + tuple(order[1 + p] for p in report.pivots)
