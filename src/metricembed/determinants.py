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
alive as mutual cross-checks.

Every finite decision asks one question of a determinant: does it count
as zero? :func:`within_band` is the only answer. ``psd_check`` factors a
whole tau matrix with diagonal pivoting and asks that question of each
pivot and each leftover Schur entry, so its rank, witness and pivot order
follow the same rule as the determinant engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotSymmetricError, TupleTooShortError
from .metric import FiniteMetricSpace, submatrix

#: Tolerance of the zero rule. A determinant of a (k+1)-point tuple counts
#: as zero when, divided by the tuple's own largest distance to the power
#: 2k, it lies within ``tol_det``. That quotient is the determinant taken
#: after dividing the tuple's distances by the largest one, the degree-0
#: form ``theta`` uses, so a verdict does not depend on the unit of
#: distance. The scans judge the delta-normalized Theta and S against one
#: noise floor, ``10 * tol_det``, for sign, vanishing and positivity.
DEFAULT_TOL_DET = 1e-8


def within_band(det, sq_max, k: int, tol_det: float = DEFAULT_TOL_DET):
    """Whether the determinant of a (k+1)-point tuple counts as zero.

    ``det`` is its Cayley-Menger or Schoenberg determinant and ``sq_max``
    its largest squared distance; both may be arrays over a stack of
    tuples. The test is ``|det| / sq_max**k <= tol_det``, written without
    the division so that a tuple of coincident points (``sq_max = 0``)
    counts as zero exactly when its determinant is.
    """
    return np.abs(det) <= tol_det * np.power(sq_max, k)


@dataclass(frozen=True)
class CMValue:
    """A Cayley-Menger determinant with its embeddability-signed variant."""

    k: int
    value: float

    @property
    def signed_value(self) -> float:
        """``(-1)^(k+1) * value``; >= 0 on Euclidean-realizable tuples."""
        return float((-1.0) ** (self.k + 1) * self.value)


def bordered_matrix(dm: np.ndarray) -> np.ndarray:
    """(k+2)x(k+2) bordered matrix of squared distances for a (k+1)-tuple;
    a stack of distance matrices gives the stack of bordered matrices."""
    dm = np.asarray(dm, dtype=float)
    n = dm.shape[-1] + 1
    b = np.ones(dm.shape[:-2] + (n, n))
    b[..., 0, 0] = 0.0
    b[..., 1:, 1:] = dm * dm
    return b


def cm_value(dm: np.ndarray) -> CMValue:
    """Cayley-Menger determinant of a (k+1)x(k+1) distance matrix."""
    dm = np.asarray(dm, dtype=float)
    if dm.shape[0] < 2:
        raise TupleTooShortError("Cayley-Menger determinant needs at least 2 points")
    k = dm.shape[0] - 1
    return CMValue(k=k, value=float(np.linalg.det(bordered_matrix(dm))))


def cm_determinant(space: FiniteMetricSpace, t: Sequence[int]) -> CMValue:
    """``D_k`` for a tuple of k+1 point indices (repeats allowed)."""
    if len(t) < 2:
        raise TupleTooShortError(f"tuple of {len(t)} points; need >= 2")
    return cm_value(submatrix(space, t))


def tau_from_matrix(dm: np.ndarray) -> np.ndarray:
    """tau matrix (k x k) of a (k+1)x(k+1) distance matrix, base = row 0;
    a stack of distance matrices gives the stack of tau matrices."""
    dm = np.asarray(dm, dtype=float)
    if dm.shape[-1] < 2:
        raise TupleTooShortError("tau matrix needs at least 2 points")
    sq = dm * dm
    s0 = sq[..., 0, 1:]
    return s0[..., :, None] + s0[..., None, :] - sq[..., 1:, 1:]


def sch_value(dm: np.ndarray) -> float:
    """Schoenberg determinant det(tau) of a (k+1)x(k+1) distance matrix."""
    tau = tau_from_matrix(dm)
    return float(np.linalg.det(tau))


def sch_determinant(space: FiniteMetricSpace, t: Sequence[int]) -> float:
    """``Sch(x_0, ..., x_k)`` with ``t[0]`` as the base point."""
    if len(t) < 2:
        raise TupleTooShortError(f"tuple of {len(t)} points; need >= 2")
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

    def __post_init__(self):
        if self.factor is not None:
            f = np.asarray(self.factor, dtype=float)
            f.flags.writeable = False
            object.__setattr__(self, "factor", f)


def psd_check(m: np.ndarray, tol_det: float = DEFAULT_TOL_DET) -> PsdReport:
    """Decide positive semidefiniteness and rank by diagonal-pivoted Cholesky.

    ``m`` is read as the tau matrix of a tuple (base, row 0, row 1, ...),
    whose squared distances it determines: ``d^2(base, i) = m_ii / 2`` and
    ``d^2(i, j) = (m_ii + m_jj) / 2 - m_ij``. A pivot or a Schur entry of
    the rows B taken so far stands for a principal minor of ``m``, the
    Schoenberg determinant of a tuple, and :func:`within_band` judges it on
    that tuple's own largest distance:

    * each step takes the largest diagonal Schur entry S_cc whose minor
      ``det m[B+c] = det m[B] * S_cc`` is outside the band; an entry whose
      minor is outside the band and negative is a violation. Pivoting on
      the largest S_cc grows the largest-volume simplex greedily (Higham
      1990; Blumenthal 1953).
    * once no pivot is left, the Schur complement must vanish: every
      single S_yy and every pair ``S_yy S_zz - S_yz^2``, the latter
      judged on the tuple (base, B, y, z).

    The report carries the accepted pivots (their count is the rank), the
    factor and, for a matrix that is not PSD, the violating minor.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if np.max(np.abs(m - m.T), initial=0.0) > tol_det * np.max(np.abs(m), initial=0.0):
        raise NotSymmetricError("matrix is not symmetric")
    diag = np.diag(m)
    sq = np.abs((diag[:, None] + diag[None, :]) / 2.0 - m)
    # largest squared distance from each row to the base and the pivots taken
    reach = np.abs(diag) / 2.0
    scale = max(np.max(sq, initial=0.0), np.max(reach, initial=0.0))
    if scale == 0.0:
        # every recovered distance vanishes only for the zero matrix
        return PsdReport(psd=True, rank=0, factor=np.zeros((n, 0)))
    # work relative to the largest distance, so that no step depends on the unit
    s = (m + m.T) / (2.0 * scale)
    sq /= scale
    reach /= scale
    rest = np.arange(n)
    pivots: list[int] = []
    cols: list[np.ndarray] = []
    det = 1.0  # det s[B]
    taken = 0.0  # largest squared distance within (base, B)

    def finish(rows=None, value=None) -> PsdReport:
        factor = np.stack(cols, axis=1) * math.sqrt(scale) if cols else np.zeros((n, 0))
        subset = None if rows is None else tuple(sorted(int(r) for r in rows))
        return PsdReport(psd=rows is None, rank=len(pivots), witness_subset=subset,
                         witness_value=None if value is None else float(value),
                         pivots=tuple(pivots), factor=factor)

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
        s -= np.outer(col, col)
        det *= d[j]
        taken = max(taken, reach[c])
        reach = np.maximum(reach, sq[c])
        pivots.append(c)
        cols.append(col)
        rest = np.delete(rest, j)

    if rest.size > 1:
        k = len(pivots) + 2
        block = s[np.ix_(rest, rest)]
        d = np.diag(block)
        minors = det * (d[:, None] * d[None, :] - block * block)
        r = reach[rest]
        pair_sq = np.maximum(np.maximum(taken, sq[np.ix_(rest, rest)]), np.maximum(r[:, None], r[None, :]))
        bad = np.triu(~within_band(minors, pair_sq, k, tol_det) & (minors < 0), 1)
        if np.any(bad):
            y, z = np.unravel_index(int(np.argmin(np.where(bad, minors, np.inf))), bad.shape)
            return finish(pivots + [rest[y], rest[z]], minors[y, z] * scale**k)
    return finish()
