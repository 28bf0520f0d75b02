"""Cayley-Menger and Schoenberg determinant engines, the zero rule, and
the pivoted factorization of the base-point form.

Two independent determinant routes over the same distance data:

* ``cm_*``: the bordered Cayley-Menger determinant ``D_k`` of a
  (k+1)-point tuple, whose sign pattern characterizes Euclidean
  realizability and whose magnitude encodes squared simplex volume.
* ``sch_*``: the determinant of the base-point quadratic form with
  entries ``tau_ij = d^2(x0,xi) + d^2(x0,xj) - d^2(xi,xj)``.

The two agree as ``Sch = (-1)^(k+1) D_k`` for arbitrary symmetric
zero-diagonal data; the test suite verifies that identity by brute force.
:func:`tuple_determinants` evaluates both for the scans, and
:func:`tau_about` is the only builder of tau.

Every finite decision asks one question, is a step flat, of one unit-free
statistic, a relative squared height; :func:`within_band` is the only
answer. ``psd_check`` asks it of each pivot and leftover pair of tau's
pivoted factorization, the engines of each witness (:func:`tuple_heights`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DEFAULT_TOL_DET, NonzeroDiagonalError, NotSymmetricError, TupleTooShortError, _checked_tol_det
from .metric import FiniteMetricSpace, as_matrix, check_finite, first_worst, point_index, readonly, row_blocks, submatrix


def within_band(value, sq_max, tol_det: float = DEFAULT_TOL_DET):
    """Whether a relative squared height counts as zero: ``|value| / sq_max
    <= tol_det``, for a Schur pivot of tau or a tuple's ratio of determinants
    ``value`` and the tuple's largest squared distance ``sq_max`` (either may
    be an array), written without the division so that coincident points
    (``sq_max = 0``) are zero exactly when ``value`` is."""
    return np.abs(value) <= _checked_tol_det(tol_det) * sq_max


class CMValue(NamedTuple):
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


def tuple_heights(dm: np.ndarray) -> tuple[float, float]:
    """A tuple's smallest relative squared height ``min_i |D(t)| / |D(t \\
    i)|``, D the Cayley-Menger determinant of its distances (a matrix) over
    their largest, signed like ``(-1)^(k+1) D_k`` and like its Schoenberg
    determinant: ``1 / max_i |(B^-1)_ii|`` of the bordered matrix B, signs
    from ``slogdet``, so nothing under- or overflows at hundreds of points;
    0 for a singular B. Where every facet is flat (the 4-cycle), the pairs'
    ``1 / max (B^-1)_ij^2``, as :func:`psd_check`'s pair test reads them."""
    sq = (dm / np.max(dm)) ** 2
    bordered = np.pad(sq, (1, 0), constant_values=1.0)
    bordered[0, 0] = 0.0
    signs = np.array([(-1.0) ** len(sq) * np.linalg.slogdet(bordered)[0], np.linalg.slogdet(tau_about(sq)[1:, 1:])[0]])
    if not signs[0]:
        return 0.0, 0.0
    inv = np.linalg.inv(bordered)[1:, 1:]
    facets = np.max(np.abs(np.diag(inv)))
    height = 1.0 / (facets if facets else np.max(inv * inv))
    return float(signs[0] * height), float(signs[1] * height)


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


class PsdReport(NamedTuple):
    """Outcome of the pivoted factorization of a symmetric matrix."""

    psd: bool
    #: accepted pivots: the rank when ``psd``, else the count taken before
    #: the violation was found
    rank: int
    #: the sorted points of the violating tuple, the base and the rows of
    #: its principal minor, or None
    witness_subset: tuple[int, ...] | None = None
    #: its relative squared height: the negative pivot or pair value over
    #: its tuple's largest squared distance (squared for a pair)
    witness_value: float | None = None
    #: accepted pivot rows in the order taken
    pivots: tuple[int, ...] = ()
    #: (order x rank) factor F over the accepted pivots, read-only; the
    #: matrix is F F^T up to the zero rule when ``psd``
    factor: np.ndarray | None = None
    #: what F leaves of the matrix, its Schur complement on the pivots
    #: (order x order), read-only, when ``psd``; else None
    leftover: np.ndarray | None = None


def psd_check(sq: np.ndarray, base: int, tol_det: float = DEFAULT_TOL_DET) -> PsdReport:
    """Decide positive semidefiniteness and rank by diagonal-pivoted Cholesky.

    ``sq`` is a square (:func:`~metricembed.metric.as_matrix`), exactly
    symmetric matrix of squared distances with a zero diagonal, and the
    matrix factored is its tau about the point ``base`` (:func:`tau_about`),
    whose row and column are zero, a point index
    (:func:`~metricembed.metric.point_index`). A diagonal Schur entry S_cc
    over the rows B taken is c's relative squared height over (base, B)
    once :func:`within_band` divides it by that tuple's largest squared
    distance:

    * each step takes the largest S_cc outside the band, and one outside
      it and negative is a violation. This grows the largest-volume simplex
      greedily (Higham 1990; Blumenthal 1953).
    * then every pair ``S_yy S_zz - S_yz^2`` must vanish, on the square of
      the largest squared distance of (base, B, y, z).

    The report carries the accepted pivots (their count is the rank), the
    factor and the leftover tau - F F^T of a PSD matrix, else the violating
    tuple's sorted points, ``base`` included, and its relative value, all in
    the rows of ``sq``. It holds one N x N work array, the Schur complement,
    and scratch of :data:`~metricembed.metric.ROW_BLOCK` rows.
    """
    _checked_tol_det(tol_det)
    sq = as_matrix(sq)
    n = sq.shape[0]
    base = point_index(base, n)
    check_finite(sq, "squared distance")
    if not all(np.array_equal(sq[rows], sq[:, rows].T) for rows in row_blocks(n)):
        raise NotSymmetricError("matrix is not symmetric")
    if np.diag(sq).any():
        i = int(np.flatnonzero(np.diag(sq))[0])
        raise NonzeroDiagonalError(f"squared distance of point {i} to itself is not 0", (i, i))
    # work relative to the largest distance (1 when all are 0), so that no step depends on the unit
    scale = float(np.maximum(np.max(sq, initial=0.0), -np.min(sq, initial=0.0))) or 1.0
    s = tau_about(sq, base)
    s /= scale

    def rel(rows):
        """Rows of |sq| / scale."""
        return np.abs(sq[rows]) / scale

    # largest squared distance from each row to the base and the pivots taken
    reach = rel(base)
    rest = np.arange(n)
    pivots, cols = [], []  # accepted rows and their columns of the factor
    taken = 0.0  # largest squared distance within (base, B)

    def finish(rows=None, value=None) -> PsdReport:
        factor = readonly(np.stack(cols, axis=1) * math.sqrt(scale) if cols else np.zeros((n, 0)))
        if rows is None:
            np.multiply(s, scale, out=s)
            return PsdReport(psd=True, rank=len(pivots), pivots=tuple(pivots), factor=factor, leftover=readonly(s))
        return PsdReport(psd=False, rank=len(pivots), witness_subset=tuple(sorted(int(r) for r in [base, *rows])),
                         witness_value=float(value), pivots=tuple(pivots), factor=factor)

    while rest.size:
        d = s[rest, rest]
        bound = np.maximum(taken, reach[rest])
        live = ~within_band(d, bound, tol_det)
        if np.any(live & (d < 0)):
            j = int(np.argmin(np.where(live, d, np.inf)))
            return finish(pivots + [rest[j]], d[j] / bound[j])
        if not np.any(live):
            break
        j = int(np.argmax(np.where(live, d, -np.inf)))
        c = int(rest[j])
        col = s[:, c] / math.sqrt(d[j])
        for rows in row_blocks(n):
            s[rows] -= np.multiply.outer(col[rows], col)
        taken = max(taken, reach[c])
        reach = np.maximum(reach, rel(c))
        pivots.append(c)
        cols.append(col)
        rest = np.delete(rest, j)

    # every pair (y, z) of leftovers, a block of y at a time. The values are
    # symmetric with zeros on the diagonal, so the first worst has y before z.
    d = s[rest, rest]
    r = reach[rest]

    def pair_values(ys):
        block = s[np.ix_(rest[ys], rest)]
        minors = d[ys, None] * d[None, :] - block * block
        bound = np.maximum(np.maximum(taken, rel(np.ix_(rest[ys], rest))), np.maximum(r[ys, None], r[None, :])) ** 2
        bad = ~within_band(minors, bound, tol_det) & (minors < 0)
        return np.divide(minors, bound, out=np.full(minors.shape, np.inf), where=bad)

    worst, at = first_worst(((ys.start * rest.size, pair_values(ys)) for ys in row_blocks(rest.size)), least=True)
    if worst < np.inf:
        y, z = divmod(at, rest.size)
        return finish(pivots + [rest[y], rest[z]], worst)
    return finish()
