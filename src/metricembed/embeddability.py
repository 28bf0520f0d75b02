"""Isometric embeddability of finite metric spaces into E^n.

Three decision routes over the same space:

* ``menger_check``: sign conditions ``(-1)^(k+1) D_k >= 0`` for all
  (k+1)-tuples with k <= n, plus ``D_k = 0`` for k = n+1, n+2. Subsets of
  at most n+3 points suffice, so enumeration stops there.
* ``schoenberg_check``: the same tuple ranges with ``Sch >= 0`` / ``= 0``,
  each tuple evaluated once with its first point as the base (the value
  does not depend on the base).
* ``blumenthal_basis_search``: n+1 points with strictly positive signed
  determinants at every prefix order such that adding any one or two
  further points keeps the order n+1 / n+2 determinants at zero. Success
  pins the minimal embedding dimension to exactly n.

Both engines judge each tuple by :func:`~metricembed.determinants.within_band`.
``blumenthal_basis_search``, ``min_embedding_dimension`` and
``realize_coordinates`` read one diagonal-pivoted factorization of the
base-point form tau (``psd_check``), which applies the same rule: its rank
is the minimal dimension, its pivot order the basis, its factor the
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .determinants import (
    DEFAULT_TOL_DET,
    PsdReport,
    psd_check,
    tau_from_matrix,
    within_band,
)
from .errors import (
    DimensionOutOfRangeError,
    NotEmbeddableError,
    RankExceedsRequestedError,
)
from .metric import FiniteMetricSpace

#: Exhaustive subset enumeration above this point count switches to seeded
#: random sampling (verdicts then carry exhaustive=False).
MAX_EXHAUSTIVE_POINTS = 24
DEFAULT_SAMPLE_BUDGET = 5000


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
    exhaustive: bool = True
    borderline_count: int = 0
    tol_det: float = DEFAULT_TOL_DET

    def to_json_dict(self) -> dict:
        kind = None
        if self.witness:
            kind = self.witness.kind
            if kind == "vanishing":
                kind = f"vanishing(order {self.witness.k})"
            else:
                kind = f"sign(k={self.witness.k})"
        return {
            "criterion": self.criterion,
            "n": self.dim_tested,
            "verdict": self.embeddable,
            "witness_tuple": list(self.witness.indices) if self.witness else None,
            "witness_value": self.witness.value if self.witness else None,
            "witness_kind": kind,
            "exhaustive": self.exhaustive,
            "borderline_count": self.borderline_count,
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


def _subsets(n_points: int, size: int, seed: int, budget: int) -> tuple[np.ndarray, bool]:
    """Index arrays of distinct-point subsets; sampled when too many."""
    total = math.comb(n_points, size)
    if n_points <= MAX_EXHAUSTIVE_POINTS or total <= budget:
        return np.array(list(combinations(range(n_points), size)), dtype=int), True
    rng = np.random.default_rng(np.random.SeedSequence([seed, size]))
    combos = np.array([rng.choice(n_points, size=size, replace=False) for _ in range(budget)])
    return combos, False


def _normalized(sq: np.ndarray, combos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared-distance submatrices of a stack of index tuples, each divided
    by its own largest entry, and those largest entries."""
    sub = sq[combos[:, :, None], combos[:, None, :]]
    scale = sub.reshape(len(combos), -1).max(axis=1)
    return sub / scale[:, None, None], scale


def _cm_batch(sq: np.ndarray, combos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed CM determinants and largest squared distances of index tuples."""
    sub, scale = _normalized(sq, combos)
    c, s = combos.shape
    b = np.ones((c, s + 1, s + 1))
    b[:, 0, 0] = 0.0
    b[:, 1:, 1:] = sub
    k = s - 1
    return (-1.0) ** (k + 1) * np.linalg.det(b) * scale**k, scale


def _sch_batch(sq: np.ndarray, combos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sch determinants, base = first index, and largest squared distances.

    The value does not depend on the base (it equals the signed CM
    determinant), so each tuple is evaluated once.
    """
    sub, scale = _normalized(sq, combos)
    s0 = sub[:, 0, 1:]
    tau = s0[:, :, None] + s0[:, None, :] - sub[:, 1:, 1:]
    return np.linalg.det(tau) * scale ** (combos.shape[1] - 1), scale


def _scan_criterion(
    space: FiniteMetricSpace,
    n: int,
    engine: str,
    tol_det: float,
    seed: int,
    sample_budget: int,
) -> EmbedVerdict:
    if n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be >= 1, got {n}")
    npts = space.n_points
    sq = space.dist * space.dist
    exhaustive = True
    borderline = 0
    worst_borderline: Witness | None = None

    def evaluate(size: int):
        nonlocal exhaustive
        combos, exact = _subsets(npts, size, seed, sample_budget)
        exhaustive = exhaustive and exact
        if combos.size == 0:
            return None
        values, scale = (_cm_batch if engine == "menger" else _sch_batch)(sq, combos)
        return values, within_band(values, scale, size - 1, tol_det), combos

    def witness(tuples, i, value, kind):
        t = tuple(int(x) for x in tuples[i])
        return Witness(t, len(t) - 1, float(value), kind, base=t[0] if engine == "schoenberg" else None)

    # Sign conditions for k = 1 .. n (tuple sizes 2 .. n+1).
    for size in range(2, min(n + 1, npts) + 1):
        out = evaluate(size)
        if out is None:
            continue
        values, zero, tuples = out
        negative = values < 0
        hard = negative & ~zero
        if np.any(hard):
            i = int(np.argmax(hard))
            return EmbedVerdict("no", n, engine, witness(tuples, i, values[i], "sign"), exhaustive, borderline,
                                tol_det)
        if np.any(negative):
            borderline += int(np.sum(negative))
            i = int(np.argmin(values))
            worst_borderline = witness(tuples, i, values[i], "sign")

    # Vanishing conditions at orders k = n+1 and n+2 (sizes n+2, n+3).
    for size in (n + 2, n + 3):
        if size > npts:
            continue
        out = evaluate(size)
        if out is None:
            continue
        values, zero, tuples = out
        if not np.all(zero):
            i = int(np.argmin(zero))
            # report the raw determinant that failed to vanish (the menger
            # engine computes the embeddability-signed variant internally)
            raw = values[i] * (-1.0) ** size if engine == "menger" else values[i]
            return EmbedVerdict("no", n, engine, witness(tuples, i, raw, "vanishing"), exhaustive, borderline,
                                tol_det)

    if borderline:
        return EmbedVerdict("undetermined", n, engine, worst_borderline, exhaustive, borderline, tol_det)
    return EmbedVerdict("yes", n, engine, None, exhaustive, 0, tol_det)


def menger_check(
    space: FiniteMetricSpace,
    n: int,
    tol_det: float = DEFAULT_TOL_DET,
    seed: int = 0,
    sample_budget: int = DEFAULT_SAMPLE_BUDGET,
) -> EmbedVerdict:
    """Cayley-Menger embeddability test against E^n."""
    return _scan_criterion(space, n, "menger", tol_det, seed, sample_budget)


def schoenberg_check(
    space: FiniteMetricSpace,
    n: int,
    tol_det: float = DEFAULT_TOL_DET,
    seed: int = 0,
    sample_budget: int = DEFAULT_SAMPLE_BUDGET,
) -> EmbedVerdict:
    """Schoenberg-determinant embeddability test against E^n."""
    return _scan_criterion(space, n, "schoenberg", tol_det, seed, sample_budget)


def _stability_base(space: FiniteMetricSpace) -> int:
    """Base point for the quadratic form: minimizes the maximum distance."""
    return int(np.argmin(np.max(space.dist, axis=1)))


def full_tau(space: FiniteMetricSpace, base: int | None = None) -> tuple[np.ndarray, int, list[int]]:
    """tau matrix over all points relative to a base; returns (tau, base, order)."""
    if base is None:
        base = _stability_base(space)
    others = [i for i in range(space.n_points) if i != base]
    order = [base] + others
    ix = np.asarray(order)
    dm = space.dist[np.ix_(ix, ix)]
    return tau_from_matrix(dm), base, order


def min_embedding_dimension(space: FiniteMetricSpace, tol_det: float = DEFAULT_TOL_DET) -> MinDimResult:
    """Minimal E^m admitting the space: the rank of the pivoted factorization
    of the full tau matrix, or infeasibility with its violating minor."""
    if space.n_points == 0:
        raise ValueError("empty space")
    if space.n_points == 1:
        return MinDimResult(True, 0, psd_check(np.zeros((0, 0))), base=0)
    tau, base, _ = full_tau(space)
    report = psd_check(tau, tol_det)
    return MinDimResult(report.psd, report.rank if report.psd else None, report, base)


def realize_coordinates(space: FiniteMetricSpace, n: int, tol_det: float = DEFAULT_TOL_DET) -> Realization:
    """Coordinates in R^m (m <= n) reproducing the distance matrix.

    Read off the factor of tau = 2 G: point 0 ends up at the origin.
    Raises when tau is not PSD or its rank exceeds ``n``.
    """
    if n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be >= 1, got {n}")
    npts = space.n_points
    if npts == 1:
        return Realization(coords=np.zeros((1, 0)), m=0, max_residual=0.0)
    tau, _, order = full_tau(space)
    report = psd_check(tau, tol_det)
    if not report.psd:
        raise NotEmbeddableError(f"space is not embeddable in E^{n}: tau minor on rows {report.witness_subset} "
                                 f"is {report.witness_value}")
    if report.rank > n:
        raise RankExceedsRequestedError(f"gram rank {report.rank} exceeds requested dimension {n}")

    coords = np.zeros((npts, report.rank))
    coords[order[1:]] = report.factor / math.sqrt(2.0)
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
    tau, base, order = full_tau(space)
    report = psd_check(tau, tol_det)
    if not (report.psd and report.rank == n):
        return None
    return (base,) + tuple(order[1 + p] for p in report.pivots)
