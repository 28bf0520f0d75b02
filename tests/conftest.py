"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from metricembed import validate_metric
from metricembed.determinants import DEFAULT_TOL_DET, within_band

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
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]])
    d = np.sqrt(np.sum((pts[:, None] - pts[None]) ** 2, axis=-1))
    m = np.full((8, 8), 2 * edge)
    m[:5, :5] = d
    m[5:, :5] = d[4]
    m[:5, 5:] = d[:, 4:5]
    m[5:, 4] = m[4, 5:] = edge
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
    n = len(sq)
    a = [[Fraction(int(sq[0][i]) + int(sq[0][j]) - int(sq[i][j]), 2) for j in range(1, n)] for i in range(1, n)]
    live = list(range(n - 1))
    rank = 0
    while live:
        k = max(live, key=lambda i: a[i][i])
        if a[k][k] <= 0:
            return all(a[i][j] == 0 for i in live for j in live), rank
        live.remove(k)
        for i in live:
            f = a[i][k] / a[k][k]
            for j in live:
                a[i][j] -= f * a[k][j]
        rank += 1
    return True, rank


def _normalized_stack(sq: np.ndarray, tuples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared-distance submatrices of index tuples, each divided by its own
    largest entry, and those largest entries."""
    sub = sq[tuples[:, :, None], tuples[:, None, :]]
    scale = sub.reshape(len(tuples), -1).max(axis=1)
    return sub / scale[:, None, None], scale


def _signed_cm_stack(sq: np.ndarray, tuples: np.ndarray,
                     tol_det: float = DEFAULT_TOL_DET) -> tuple[np.ndarray, np.ndarray]:
    """Signed CM determinants ``(-1)^(k+1) D_k`` of index tuples and their
    zero-rule verdicts."""
    sub, scale = _normalized_stack(sq, tuples)
    c, s = tuples.shape
    b = np.ones((c, s + 1, s + 1))
    b[:, 0, 0] = 0.0
    b[:, 1:, 1:] = sub
    k = s - 1
    signed = (-1.0) ** (k + 1) * np.linalg.det(b) * scale**k
    return signed, within_band(signed, scale, k, tol_det)


def _sch_stack(sq: np.ndarray, tuples: np.ndarray,
               tol_det: float = DEFAULT_TOL_DET) -> tuple[np.ndarray, np.ndarray]:
    """Schoenberg determinants of index tuples, base = first index, and
    their zero-rule verdicts."""
    sub, scale = _normalized_stack(sq, tuples)
    s0 = sub[:, 0, 1:]
    tau = s0[:, :, None] + s0[:, None, :] - sub[:, 1:, 1:]
    k = tuples.shape[1] - 1
    values = np.linalg.det(tau) * scale**k
    return values, within_band(values, scale, k, tol_det)


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
