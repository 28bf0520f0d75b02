"""Cayley-Menger and Schoenberg determinant engines, the zero rule, and
the pivoted factorization of the base-point form.

Two independent determinant routes over the same distance data:

* ``cm_*``: the bordered Cayley-Menger determinant ``D_k`` of a
  (k+1)-point tuple, whose sign pattern characterizes Euclidean
  realizability and whose magnitude encodes squared simplex volume.
* ``sch_*``: the determinant of the base-point quadratic form with
  entries ``tau_ij = d^2(x0,xi) + d^2(x0,xj) - d^2(xi,xj)``.

The two agree as ``Sch = (-1)^(k+1) D_k`` for arbitrary symmetric
zero-diagonal data; the test suite verifies that identity by brute force
rather than assuming it, and the embeddability module keeps both routes
alive as mutual cross-checks. :func:`tuple_determinants` evaluates both
for the engines and the scans, and :func:`tau_about` is the only builder
of tau.

Every finite decision asks one question of a determinant: does it count
as zero? :func:`within_band` is the only answer. ``psd_check`` factors the
tau of a whole squared-distance matrix with diagonal pivoting and asks
that question of each pivot and each leftover Schur entry, so its rank,
witness and pivot order follow the same rule as the determinant engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionOutOfRangeError, NonzeroDiagonalError, NotSymmetricError, TupleTooShortError
from .metric import (FiniteMetricSpace, as_matrix, check_finite, first_worst, is_integer, is_number, point_index,
                     readonly, row_blocks, submatrix)

#: Tolerance of the zero rule. A determinant of a (k+1)-point tuple counts
#: as zero when, divided by the tuple's own largest distance to the power
#: 2k, it lies within ``tol_det``. That quotient is the determinant taken
#: after dividing the tuple's distances by the largest one, the degree-0
#: form ``theta`` uses, so a verdict does not depend on the unit of
#: distance. The scans judge the delta-normalized Theta and S against one
#: noise floor, ``10 * tol_det``, for sign, vanishing and positivity. Every
#: function taking a ``tol_det`` refuses one that is not finite and > 0.
DEFAULT_TOL_DET = 1e-8


def _checked_tol_det(tol_det: float) -> float:
    """``tol_det``, refused with ValueError unless it is a finite number (:func:`is_number`) > 0."""
    if not is_number(tol_det) or not 0 < tol_det < math.inf:
        raise ValueError(f"tol_det must be finite and > 0, got {tol_det!r}")
    return tol_det


def _check_target(n: int) -> None:
    """Refuse a target dimension that is not an integer (:func:`is_integer`) >= 1."""
    if not is_integer(n) or n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be an integer >= 1, got {n!r}")


def within_band(det, sq_max, k: int, tol_det: float = DEFAULT_TOL_DET):
    """Whether the determinant of a (k+1)-point tuple counts as zero.

    ``det`` is its Cayley-Menger or Schoenberg determinant and ``sq_max``
    its largest squared distance; both may be arrays over a stack of
    tuples. The test is ``|det| / sq_max**k <= tol_det``, written without
    the division so that a tuple of coincident points (``sq_max = 0``)
    counts as zero exactly when its determinant is.
    """
    if not is_integer(k) or k < 1:
        raise TupleTooShortError(f"a tuple of k+1 points needs an integer k >= 1, got {k!r}")
    return np.abs(det) <= _checked_tol_det(tol_det) * np.power(sq_max, k)


@dataclass(frozen=True)
class CMValue:
    """A Cayley-Menger determinant with its embeddability-signed variant."""

    k: int
    value: float

    @property
    def signed_value(self) -> float:
        """``(-1)^(k+1) * value``; >= 0 on Euclidean-realizable tuples."""
        return float((-1.0) ** (self.k + 1) * self.value)


def tau_about(sq: np.ndarray, base: int = 0) -> np.ndarray:
    """Schoenberg's tau of a squared-distance matrix over every point in its
    own order, ``tau_ij = sq[base, i] + sq[base, j] - sq[i, j]``; the row and
    column of ``base`` are exact zeros. A stack of matrices gives the stack
    of tau matrices."""
    s0 = sq[..., base, :]
    out = np.add(s0[..., :, None], s0[..., None, :])
    return np.subtract(out, sq, out=out)


def tuple_determinants(dm: np.ndarray) -> np.ndarray:
    """The signed Cayley-Menger determinant ``(-1)^(k+1) D_k`` and the
    Schoenberg determinant of a stack of (k+1)-tuples, given as their
    distance matrices: an array of shape (2, len(dm)).

    Neither determinant depends on the order of the points, so the stack is
    gathered once, each matrix from the point nearest its tuple's centroid
    (the least sum of squared distances): as the Schoenberg base and the
    first row of the bordered matrix it keeps the entries short, and the
    rounding small against the volume of a thin simplex. On a triple with
    two points 2e-3 of the diameter apart, a far base costs three orders of
    magnitude in relative error.
    """
    sq = np.asarray(dm, dtype=float) ** 2
    count, size = sq.shape[0], sq.shape[-1]
    if size < 2:
        raise TupleTooShortError(f"tuple of {size} points; need >= 2")
    base = np.argmin(np.sum(sq, axis=-1), axis=-1)
    rows = np.arange(count)
    order = np.tile(np.arange(size), (count, 1))
    # swap each base with the first point
    order[rows, base] = 0
    order[rows, 0] = base
    sq = sq[rows[:, None, None], order[:, :, None], order[:, None, :]]
    bordered = np.ones((count, size + 1, size + 1))
    bordered[:, 0, 0] = 0.0
    bordered[:, 1:, 1:] = sq
    return np.array([(-1.0) ** size * np.linalg.det(bordered), np.linalg.det(tau_about(sq)[:, 1:, 1:])])


def cm_value(dm: np.ndarray) -> CMValue:
    """Cayley-Menger determinant of a (k+1)x(k+1) distance matrix (:func:`~metricembed.metric.as_matrix`)."""
    dm = as_matrix(dm)
    k = len(dm) - 1
    return CMValue(k=k, value=float((-1.0) ** (k + 1) * tuple_determinants([dm])[0, 0]))


def cm_determinant(space: FiniteMetricSpace, t: Sequence[int]) -> CMValue:
    """``D_k`` for a tuple of k+1 point indices (repeats allowed)."""
    return cm_value(submatrix(space, t))


def sch_value(dm: np.ndarray) -> float:
    """Schoenberg determinant det(tau) of a (k+1)x(k+1) distance matrix (:func:`~metricembed.metric.as_matrix`)."""
    return float(tuple_determinants([as_matrix(dm)])[1, 0])


def sch_determinant(space: FiniteMetricSpace, t: Sequence[int]) -> float:
    """``Sch(x_0, ..., x_k)``, independent of which point is the base."""
    return sch_value(submatrix(space, t))


@dataclass(frozen=True)
class PsdReport:
    """Outcome of the pivoted factorization of a symmetric matrix."""

    psd: bool
    #: accepted pivots: the rank when ``psd``, else the count taken before
    #: the violation was found
    rank: int
    #: sorted row subset of a violating principal minor, or None
    witness_subset: tuple[int, ...] | None = None
    #: determinant of that principal minor
    witness_value: float | None = None
    #: accepted pivot rows in the order taken
    pivots: tuple[int, ...] = ()
    #: (order x rank) factor F over the accepted pivots; the matrix is
    #: F F^T up to the zero rule when ``psd``
    factor: np.ndarray | None = None
    #: what F leaves of the matrix, its Schur complement on the pivots
    #: (order x order), when ``psd``; else None
    leftover: np.ndarray | None = None

    def __post_init__(self):
        for name in ("factor", "leftover"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, readonly(getattr(self, name)))


def psd_check(sq: np.ndarray, base: int, tol_det: float = DEFAULT_TOL_DET) -> PsdReport:
    """Decide positive semidefiniteness and rank by diagonal-pivoted Cholesky.

    ``sq`` is a square, exactly symmetric matrix of squared distances with a
    zero diagonal (:func:`~metricembed.metric.as_matrix`), and the matrix factored is its tau about the point
    ``base`` (:func:`tau_about`), whose row and column are zero, a point
    index (:func:`~metricembed.metric.point_index`). A pivot or a Schur
    entry of the rows B taken so far stands for a principal minor of tau,
    the Schoenberg determinant of the tuple (base, B, ...), and
    :func:`within_band` judges it on that tuple's own largest distance:

    * each step takes the largest diagonal Schur entry S_cc whose minor
      ``det tau[B+c] = det tau[B] * S_cc`` is outside the band; an entry
      whose minor is outside the band and negative is a violation. Pivoting
      on the largest S_cc grows the largest-volume simplex greedily (Higham
      1990; Blumenthal 1953).
    * once no pivot is left, the Schur complement must vanish: every
      single S_yy and every pair ``S_yy S_zz - S_yz^2``, the latter
      judged on the tuple (base, B, y, z).

    The report carries the accepted pivots (their count is the rank), the
    factor and, for a PSD matrix, the leftover tau - F F^T, else the
    violating minor, all in the rows of ``sq``. Besides ``sq`` it holds one
    N x N work array, the Schur complement, which becomes the leftover, and
    scratch of :data:`~metricembed.metric.ROW_BLOCK` rows.
    """
    _checked_tol_det(tol_det)
    sq = as_matrix(sq)
    if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
        raise NotSymmetricError(f"matrix must be square, got shape {sq.shape}")
    n = sq.shape[0]
    base = point_index(base, n)
    check_finite(sq, "squared distance")
    if not all(np.array_equal(sq[rows], sq[:, rows].T) for rows in row_blocks(n)):
        raise NotSymmetricError("matrix is not symmetric")
    if np.diag(sq).any():
        i = int(np.flatnonzero(np.diag(sq))[0])
        raise NonzeroDiagonalError(f"squared distance of point {i} to itself is not 0", (i, i))
    scale = float(np.maximum(np.max(sq, initial=0.0), -np.min(sq, initial=0.0)))
    if scale == 0.0:
        return PsdReport(psd=True, rank=0, factor=np.zeros((n, 0)), leftover=np.zeros((n, n)))
    # work relative to the largest distance, so that no step depends on the unit
    s = tau_about(sq, base)
    s /= scale

    def rel(rows):
        """Rows of |sq| / scale."""
        return np.abs(sq[rows]) / scale

    # largest squared distance from each row to the base and the pivots taken
    reach = rel(base)
    rest = np.arange(n)
    pivots: list[int] = []
    cols: list[np.ndarray] = []
    det = 1.0  # det s[B]
    taken = 0.0  # largest squared distance within (base, B)

    def finish(rows=None, value=None) -> PsdReport:
        factor = np.stack(cols, axis=1) * math.sqrt(scale) if cols else np.zeros((n, 0))
        if rows is None:
            np.multiply(s, scale, out=s)
            return PsdReport(psd=True, rank=len(pivots), pivots=tuple(pivots), factor=factor, leftover=s)
        return PsdReport(psd=False, rank=len(pivots), witness_subset=tuple(sorted(int(r) for r in rows)),
                         witness_value=float(value), pivots=tuple(pivots), factor=factor)

    while rest.size:
        k = len(pivots) + 1
        d = s[rest, rest]
        minors = det * d
        live = ~within_band(minors, np.maximum(taken, reach[rest]), k, tol_det)
        if np.any(live & (d < 0)):
            j = int(np.argmin(np.where(live, d, np.inf)))
            return finish(pivots + [rest[j]], minors[j] * scale**k)
        if not np.any(live):
            break
        j = int(np.argmax(np.where(live, d, -np.inf)))
        c = int(rest[j])
        col = s[:, c] / math.sqrt(d[j])
        for rows in row_blocks(n):
            s[rows] -= np.multiply.outer(col[rows], col)
        det *= d[j]
        taken = max(taken, reach[c])
        reach = np.maximum(reach, rel(c))
        pivots.append(c)
        cols.append(col)
        rest = np.delete(rest, j)

    # every pair (y, z) of leftovers, a block of y at a time. The minors are
    # symmetric with zeros on the diagonal, so the first worst has y before z.
    k = len(pivots) + 2
    d = s[rest, rest]
    r = reach[rest]

    def pair_minors(ys):
        block = s[np.ix_(rest[ys], rest)]
        minors = det * (d[ys, None] * d[None, :] - block * block)
        pair_sq = np.maximum(np.maximum(taken, rel(np.ix_(rest[ys], rest))), np.maximum(r[ys, None], r[None, :]))
        return np.where(~within_band(minors, pair_sq, k, tol_det) & (minors < 0), minors, np.inf)

    worst, at = first_worst(((ys.start * rest.size, pair_minors(ys)) for ys in row_blocks(rest.size)), least=True)
    if worst < np.inf:
        y, z = divmod(at, rest.size)
        return finish(pivots + [rest[y], rest[z]], worst * scale**k)
    return finish()
