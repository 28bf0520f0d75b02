"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from metricembed import validate_metric
from metricembed.determinants import DEFAULT_TOL_DET, PsdReport, tau_about, within_band

#: Most tuples :func:`enumerated_verdict` evaluates before refusing an input.
ORACLE_TUPLE_BUDGET = 100_000


@pytest.fixture
def equilateral():
    return validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


@pytest.fixture
def star_k13():
    """K_{1,3}: a center at distance 1 from three leaves, leaves pairwise 2.

    Not embeddable in any E^n: three leaves form an equilateral triangle of
    side 2 whose circumradius 2/sqrt(3) exceeds 1, so no Euclidean point is
    at distance 1 from all of them.
    """
    return validate_metric([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]])


@pytest.fixture
def unit_square():
    s = np.sqrt(2.0)
    return validate_metric([[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]])


@pytest.fixture(scope="session")
def large_cloud() -> np.ndarray:
    """Distance matrix of 2000 points of affine rank 4 in R^6."""
    from metricembed.metric import euclidean_matrix

    rng = np.random.default_rng(0)
    return euclidean_matrix(rng.normal(size=(2000, 4)) @ np.linalg.qr(rng.normal(size=(6, 4)))[0].T)


def cloud_space(points: np.ndarray):
    """Validated metric space from a Euclidean point cloud."""
    diff = points[:, None, :] - points[None, :, :]
    dm = np.sqrt(np.sum(diff * diff, axis=-1))
    return validate_metric(dm)


def random_cloud(rng: np.random.Generator, n_points: int, dim: int, min_distance: float = 0.1,
                 side: float = 2.0) -> np.ndarray:
    """Point cloud in a cube with a minimum pairwise separation."""
    for _ in range(500):
        pts = rng.uniform(0.0, side, size=(n_points, dim))
        diff = pts[:, None, :] - pts[None, :, :]
        dm = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dm, np.inf)
        if np.min(dm) >= min_distance:
            return pts
    raise RuntimeError("could not draw a separated cloud")


def affine_rank(points: np.ndarray, tol: float = 1e-9) -> int:
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def square_with_tetrahedron(edge: float, apex=(0.0, 0.0, 1.0)):
    """A unit square with a tetrahedron of the given edge at its centre,
    whose fourth point is ``edge * apex`` off the centre (by default a
    right corner, off the square's plane by ``edge``)."""
    corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    tet = np.array([0.5, 0.5, 0.0]) + edge * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], apex])
    return cloud_space(np.vstack([corners, tet]))


def line_with_triangle(edge: float):
    """Two points a unit apart with an equilateral triangle of the given
    edge between them."""
    tri = np.array([0.5, 0.0]) + edge * np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    return cloud_space(np.vstack([[[0.0, 0.0], [1.0, 0.0]], tri]))


def square_with_star(edge: float):
    """A unit square, its centre c, and three leaves at ``edge`` from c and
    2 * edge from one another, each as far from the corners as c is: a
    K_{1,3} star of scale ``edge`` that no Euclidean space holds."""
    return _with_star(np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]]), 4, edge)


def plane_with_star(count: int, edge: float = 1e-5):
    """``count`` uniform points of ``default_rng(1)`` in the unit square and
    three leaves at ``edge`` from point 0 and 2 * edge from one another,
    each as far from the other points as point 0 is."""
    return _with_star(np.random.default_rng(1).uniform(size=(count, 2)), 0, edge)


def _with_star(pts: np.ndarray, centre: int, edge: float):
    """The points ``pts`` and three leaves at ``edge`` from ``centre`` and
    2 * edge from one another, each as far from the other points as the
    centre is: a K_{1,3} star of scale ``edge`` that no Euclidean space
    holds."""
    d = np.sqrt(np.sum((pts[:, None] - pts[None]) ** 2, axis=-1))
    n = len(d)
    m = np.full((n + 3, n + 3), 2 * edge)
    m[:n, :n] = d
    m[n:, :n] = d[centre]
    m[:n, n:] = d[:, centre:centre + 1]
    m[n:, centre] = m[centre, n:] = edge
    np.fill_diagonal(m, 0.0)
    return validate_metric(m)


def exact_psd_rank(sq) -> tuple[bool, int]:
    """Exact PSD status and rank of tau for integer squared distances
    ``sq``: a pivoted LDL^T over ``fractions.Fraction``, base point 0.

    tau[i][j] = (sq[0][i] + sq[0][j] - sq[i][j]) / 2 over the other points
    is their Gram matrix seen from point 0 (Schoenberg): the space embeds
    in E^m exactly when tau is PSD, and its least such m is the rank. Each
    step pivots on the largest diagonal entry left; once that is <= 0, tau
    is PSD exactly when what is left is zero. A negative diagonal entry
    under a positive pivot needs no test of its own: by Haynsworth's
    inertia formula it leaves a Schur complement that is not PSD either.
    """
    return exact_psd_reading(sq)[:2]


def exact_psd_reading(sq) -> tuple[bool, int, Fraction | None]:
    """:func:`exact_psd_rank` and, from the same LDL^T, the relative
    squared height nearest the zero band, or None when there is none: the
    least accepted pivot of tau = 2 Gram over the largest squared distance
    of its tuple (point 0, the pivots before it and its own point), and,
    when tau is not PSD, the least absolute value the zero rule reads of
    what is left, a diagonal entry over its tuple's largest squared
    distance or a pair's ``S_yy S_zz - S_yz^2`` over its square."""
    n = len(sq)
    a = [[Fraction(int(sq[0][i]) + int(sq[0][j]) - int(sq[i][j]), 2) for j in range(1, n)] for i in range(1, n)]
    live = list(range(n - 1))
    taken = [0]

    def sq_max(*points):
        rows = taken + [p + 1 for p in points]
        return max(int(sq[i][j]) for i in rows for j in rows)

    heights = []
    while live:
        k = max(live, key=lambda i: a[i][i])
        if a[k][k] <= 0:
            psd = all(a[i][j] == 0 for i in live for j in live)
            if not psd:
                heights += [abs(2 * a[i][i]) / sq_max(i) for i in live if a[i][i]]
                heights += [abs(4 * (a[i][i] * a[j][j] - a[i][j] ** 2)) / sq_max(i, j) ** 2
                            for i in live for j in live if i < j and a[i][i] * a[j][j] != a[i][j] ** 2]
            return psd, len(taken) - 1, min(heights, default=None)
        heights.append(2 * a[k][k] / sq_max(k))
        live.remove(k)
        taken.append(k + 1)
        for i in live:
            f = a[i][k] / a[k][k]
            for j in live:
                a[i][j] -= f * a[k][j]
    return True, len(taken) - 1, min(heights, default=None)


def reference_psd_check(sq, base: int, tol_det: float = DEFAULT_TOL_DET) -> PsdReport:
    """``determinants.psd_check`` as it was before its updates and pair test
    went to row blocks: whole N x N temporaries, the same operations in the
    same order, so its report must match bit for bit; when PSD its
    leftover is the whole Schur complement, times ``scale``."""
    n = sq.shape[0]
    scale = float(np.max(np.abs(sq), initial=0.0))
    if scale == 0.0:
        return PsdReport(psd=True, rank=0, factor=np.zeros((n, 0)), leftover=np.zeros((n, n)))
    s = tau_about(sq, base) / scale
    sq = np.abs(sq) / scale
    reach, rest, pivots, cols, taken = sq[base], np.arange(n), [], [], 0.0

    def finish(rows=None, value=None):
        factor = np.stack(cols, axis=1) * math.sqrt(scale) if cols else np.zeros((n, 0))
        return PsdReport(psd=rows is None, rank=len(pivots),
                         witness_subset=None if rows is None else tuple(sorted(int(r) for r in [base, *rows])),
                         witness_value=None if value is None else float(value), pivots=tuple(pivots), factor=factor,
                         leftover=s * scale if rows is None else None)

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
        s -= np.outer(col, col)
        taken = max(taken, reach[c])
        reach = np.maximum(reach, sq[c])
        pivots.append(c)
        cols.append(col)
        rest = np.delete(rest, j)
    if rest.size > 1:
        block = s[np.ix_(rest, rest)]
        d = np.diag(block)
        minors = d[:, None] * d[None, :] - block * block
        r = reach[rest]
        bound = np.maximum(np.maximum(taken, sq[np.ix_(rest, rest)]), np.maximum(r[:, None], r[None, :])) ** 2
        bad = np.triu(~within_band(minors, bound, tol_det) & (minors < 0), 1)
        if np.any(bad):
            values = np.divide(minors, bound, out=np.full(bad.shape, np.inf), where=bad)
            y, z = np.unravel_index(int(np.argmin(values)), bad.shape)
            return finish(pivots + [rest[y], rest[z]], values[y, z])
    return finish()


def _bordered_stack(sq: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Bordered Cayley-Menger matrices of index tuples, each tuple's squared
    distances divided by their own largest."""
    sub = sq[tuples[:, :, None], tuples[:, None, :]]
    c, s = tuples.shape
    b = np.ones((c, s + 1, s + 1))
    b[:, 0, 0] = 0.0
    b[:, 1:, 1:] = sub / sub.reshape(c, -1).max(axis=1)[:, None, None]
    return b


def _flat(b: np.ndarray, tol_det: float) -> np.ndarray:
    """The zero rule on a stack of bordered matrices: whether each tuple's
    smallest relative squared height, ``|det b|`` over the largest ``|det|``
    of b less one point row and column (less a pair where every such facet
    is flat), lies within ``tol_det``. This is the ratio
    ``determinants.tuple_heights`` reads off the inverse, here taken
    directly."""
    size = b.shape[-1]

    def largest(drops):
        most = np.zeros(len(b))
        for drop in drops:
            keep = [i for i in range(size) if i not in drop]
            most = np.maximum(most, np.abs(np.linalg.det(b[:, keep][:, :, keep])))
        return most

    facets = largest([(i,) for i in range(1, size)])
    if not np.all(facets):
        facets = np.where(facets > 0, facets, largest(combinations(range(1, size), 2)))
    return within_band(np.linalg.det(b), facets, tol_det)


def _signed_cm_stack(sq: np.ndarray, tuples: np.ndarray,
                     tol_det: float = DEFAULT_TOL_DET) -> tuple[np.ndarray, np.ndarray]:
    """Signed CM determinants ``(-1)^(k+1) D_k`` of index tuples, on
    distances divided by each tuple's largest, and their zero-rule
    verdicts."""
    b = _bordered_stack(sq, tuples)
    return (-1.0) ** tuples.shape[1] * np.linalg.det(b), _flat(b, tol_det)


def _sch_stack(sq: np.ndarray, tuples: np.ndarray,
               tol_det: float = DEFAULT_TOL_DET) -> tuple[np.ndarray, np.ndarray]:
    """Schoenberg determinants of index tuples, base = first index, on
    distances divided by each tuple's largest, and their zero-rule
    verdicts."""
    b = _bordered_stack(sq, tuples)
    sub = b[:, 1:, 1:]
    s0 = sub[:, 0, 1:]
    return np.linalg.det(s0[:, :, None] + s0[:, None, :] - sub[:, 1:, 1:]), _flat(b, tol_det)


def enumerated_verdict(space, n: int, engine: str, tol_det: float = DEFAULT_TOL_DET) -> str:
    """Reference verdict of the Menger or Schoenberg criterion by enumeration.

    Evaluates the engine's determinant on every tuple of 2 .. n+3 distinct
    points: ``no`` when a sign condition (k <= n) is negative outside the
    zero band or a vanishing condition (orders n+1, n+2) is outside it;
    otherwise ``undetermined`` when some sign value is negative inside the
    band, which the oracle declines to read as zero, else ``yes``. Refuses
    inputs with more than ``ORACLE_TUPLE_BUDGET`` tuples.
    """
    npts = space.n_points
    sizes = range(2, min(n + 3, npts) + 1)
    count = sum(math.comb(npts, size) for size in sizes)
    if count > ORACLE_TUPLE_BUDGET:
        raise ValueError(f"{count} tuples exceed the oracle budget of {ORACLE_TUPLE_BUDGET}")
    stack = {"menger": _signed_cm_stack, "schoenberg": _sch_stack}[engine]
    sq = space.dist * space.dist
    borderline = False
    for size in sizes:
        values, zero = stack(sq, np.array(list(combinations(range(npts), size))), tol_det)
        if size > n + 1:
            if not np.all(zero):
                return "no"
        elif np.any((values < 0) & ~zero):
            return "no"
        else:
            borderline = borderline or bool(np.any(values < 0))
    return "undetermined" if borderline else "yes"


def part_psd_flags(space, tol_det: float = DEFAULT_TOL_DET) -> list[bool]:
    """Whether each part a finite decision may read is PSD, in its reading
    order: the factorization over all points, then, when that is PSD, the
    factorization of each ball of ``embeddability._neighbourhoods``."""
    from metricembed.embeddability import _factorization, _neighbourhoods

    whole, _ = _factorization(space.dist, tol_det)
    balls = _neighbourhoods(space.dist, whole.leftover, tol_det) if whole.psd else ()
    return [whole.psd] + [_factorization(space.dist[np.ix_(ball, ball)], tol_det)[0].psd for ball in balls]
