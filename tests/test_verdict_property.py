"""Verdicts against the exact rank, on inputs hypothesis draws and shrinks.

Each input is a small metric with integer squared distances, labelled by
``conftest.exact_psd_reading``, a rational LDL^T that shares no zero rule
with the package: either a point set in Z^d with small coordinates, a tail
of its axes scaled by 2^j (exact in floats, so it plants features of
several scales) and its points relabelled, or the path metric of a small
graph (a path, a cycle, a star or K_{2,3}), most of which embed nowhere.

Where the exact relative squared height nearest the band lies more than
100x from ``tol_det`` on either side, ``min-dim`` reads the exact rank or
the exact infeasibility, and neither engine says ``yes`` below that rank
or ``no`` at or above it. A zero rule on the product of a tuple's k
heights, planted in ``psd_check``, breaks the property within the budget.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from metricembed import determinants, menger_check, min_embedding_dimension, schoenberg_check, validate_metric
from metricembed.determinants import DEFAULT_TOL_DET

from conftest import exact_psd_reading

BUDGET = settings(max_examples=800, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])


@st.composite
def point_sets(draw):
    """Integer squared distances of 2 .. d + 7 distinct points of Z^d, d <=
    12, coordinates in [-3, 3], the axes from a drawn one on scaled by 2^j,
    j <= 11, the points in a drawn order."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, d + 7))
    x = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=n, max_size=n,
                               unique_by=tuple)), dtype=np.int64)
    x[:, draw(st.integers(0, d)):] *= 2 ** draw(st.integers(0, 11))
    x = x[draw(st.permutations(range(n)))]
    return np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)


def _graph_metric(n: int, edges) -> np.ndarray:
    """Squared shortest-path distances of a connected graph with unit edges."""
    d = np.full((n, n), n)
    np.fill_diagonal(d, 0)
    for i, j in edges:
        d[i, j] = d[j, i] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d * d


GRAPHS = st.one_of(
    st.integers(2, 8).map(lambda n: _graph_metric(n, [(i, i + 1) for i in range(n - 1)])),
    st.integers(3, 8).map(lambda n: _graph_metric(n, [(i, (i + 1) % n) for i in range(n)])),
    st.integers(2, 7).map(lambda n: _graph_metric(n + 1, [(0, i) for i in range(1, n + 1)])),
    st.just(_graph_metric(5, [(i, j) for i in range(2) for j in range(2, 5)])),
)
CASES = st.one_of(point_sets(), GRAPHS)


def _failures(sq: np.ndarray) -> list:
    """Where the package departs from the exact reading of ``sq``: empty
    when the case lies within 100x of the band, or agrees."""
    psd, rank, height = exact_psd_reading(sq.tolist())
    if height is not None and DEFAULT_TOL_DET / 100 <= height <= 100 * DEFAULT_TOL_DET:
        return []
    space = validate_metric(np.sqrt(sq))
    res = min_embedding_dimension(space)
    wrong = [] if (res.feasible, res.dim) == (psd, rank if psd else None) else [("min-dim", res.feasible, res.dim)]
    for n in range(max(rank - 1, 1), rank + 2):
        truth = "yes" if psd and n >= rank else "no"
        for check in (menger_check, schoenberg_check):
            verdict = check(space, n).embeddable
            if verdict != truth and verdict != "undetermined":
                wrong.append((check.__name__, n, verdict))
    return wrong


def _agrees(sq: np.ndarray) -> None:
    assert _failures(sq) == [], sq.tolist()


test_verdicts_follow_the_exact_rank = BUDGET(given(CASES)(_agrees))


def _degree_k_band(value, sq_max, tol_det=DEFAULT_TOL_DET):
    """The zero rule on the product of k heights: ``psd_check``'s pivot test
    on the determinant of tau over (base, B, c), ``|det tau[B] S_cc| <=
    tol_det sq_max^k``, the running det read off the caller's accepted
    columns (each holds sqrt(S_cc) at its pivot row)."""
    caller = sys._getframe(1).f_locals
    pivots = caller.get("pivots") or []
    det = np.prod([caller["cols"][i][p] ** 2 for i, p in enumerate(pivots)])
    return np.abs(det * value) <= tol_det * np.power(sq_max, len(pivots) + 1)


def test_degree_k_band_breaks_the_property(monkeypatch):
    # the same examples, not shrunk: finding one failure is enough
    monkeypatch.setattr(determinants, "within_band", _degree_k_band)
    with pytest.raises(AssertionError):
        settings(BUDGET, phases=[Phase.generate])(given(CASES)(_agrees))()
