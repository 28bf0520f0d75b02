"""Metric validation, submatrices, rescaling, file parsing."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricembed import scale_metric, submatrix, validate_metric
from metricembed.errors import (
    AsymmetricError,
    CoincidentPointsError,
    IndexOutOfRangeError,
    NegativeDistanceError,
    NonpositiveScaleError,
    NonzeroDiagonalError,
    TriangleViolationError,
)
from metricembed.metric import load_space, parse_csv_space


def test_smallest_metric():
    sp = validate_metric([[0, 1], [1, 0]], tol=1e-12)
    assert sp.n_points == 2
    assert sp.distance(0, 1) == 1.0


def test_triangle_violation_reports_indices():
    with pytest.raises(TriangleViolationError) as err:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert err.value.indices == (0, 2, 1)


def _full_cube_offender(d: np.ndarray) -> tuple[tuple[int, int, int], float]:
    """Worst triangle offender (i, j, k) from the whole n^3 slack cube."""
    slack = d[:, None, :] - (d[:, :, None] + d.T[None, :, :])
    i, k, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
    return (int(i), int(j), int(k)), float(np.max(slack))


def test_triangle_offender_matches_full_cube():
    # rounded entries create ties (the first maximum in (i, k, j) order is
    # reported); asymmetry inside the tolerance tells d[j,k] from d[k,j]
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(3, 12))
        a = rng.uniform(0.1, 1.0, size=(n, n))
        d = np.round(a + a.T, 1) if trial % 2 else a + a.T + rng.uniform(0, 1e-12, size=(n, n))
        np.fill_diagonal(d, 0.0)
        expected, worst = _full_cube_offender(d)
        if worst <= 1e-9:
            continue
        with pytest.raises(TriangleViolationError) as err:
            validate_metric(d, tol=1e-9)
        assert err.value.indices == expected, trial
        checked += 1
    assert checked >= 100


def test_triangle_check_memory_is_quadratic():
    # the n^3 slack cube alone would take 8 GB at N = 1000
    pts = np.random.default_rng(7).uniform(size=(1000, 3))
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    tracemalloc.start()
    try:
        sp = validate_metric(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.n_points == 1000
    assert peak < 200 * 2**20, peak


def test_label_count_checked_before_triangles():
    # a wrong label count is an O(1) check: it must not wait for the O(N^3) one
    with pytest.raises(ValueError, match="2 labels for 3 points"):
        validate_metric({"labels": ["a", "b"], "distances": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]})


def test_certificate_skips_triangles_only_on_exact_symmetry(tmp_path, monkeypatch):
    from metricembed import metric

    calls = []
    check = metric._check_triangles
    monkeypatch.setattr(metric, "_check_triangles", lambda d, tol: calls.append(d.copy()) or check(d, tol))
    pts = np.random.default_rng(3).normal(size=(30, 2))
    d = metric.euclidean_matrix(pts)
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({"distances": d.tolist()}))
    # without a certificate every triangle is checked
    validate_metric(d)
    load_space(str(path))
    assert len(calls) == 2
    # a certificate that holds skips the check on an exactly symmetric input
    seen = []
    sp = load_space(str(path), certificate=lambda s: seen.append(s) or True)
    assert len(calls) == 2 and len(seen) == 1 and seen[0] is sp
    sp = validate_metric(d, certificate=lambda s: False)
    assert len(calls) == 3
    # asymmetry within tol: the raw matrix is checked, whatever the certificate says
    skew = d.copy()
    skew[0, 1] += 1e-12
    sp = validate_metric(skew, certificate=lambda s: True)
    assert len(calls) == 4 and np.array_equal(calls[-1], skew)
    assert sp.dist[0, 1] == sp.dist[1, 0] != skew[0, 1]
    # a certificate cannot hide a violation the check would report
    with pytest.raises(TriangleViolationError):
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0.0]], certificate=lambda s: False)


def test_euclidean_matrix_matches_broadcast_formula():
    # summing one coordinate at a time adds in np.sum's order below 8
    # coordinates; from 8 up the sums may differ in the last bit
    from metricembed.metric import euclidean_matrix

    for dim in range(1, 13):
        for seed in range(20):
            rng = np.random.default_rng([dim, seed])
            x = rng.normal(size=(int(rng.integers(2, 40)), dim)) * 10.0 ** rng.uniform(-3, 3)
            diff = x[:, None, :] - x[None, :, :]
            ref = np.sqrt(np.sum(diff * diff, axis=-1))
            got = euclidean_matrix(x)
            if dim < 8:
                assert np.array_equal(got, ref), (dim, seed)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(ref), (dim, seed)


def test_asymmetry_detected():
    with pytest.raises(AsymmetricError) as err:
        validate_metric([[0, 1], [1.1, 0]], tol=1e-12)
    assert set(err.value.indices) == {0, 1}


def test_symmetrization_does_not_overflow():
    # (d + d.T) / 2 overflowed to inf above about 9e307
    assert validate_metric([[0, 1e308], [1e308, 0]]).dist[0, 1] == 1e308
    top = np.finfo(float).max
    assert validate_metric([[0, top], [top * (1 - 1e-15), 0]]).dist[1, 0] == pytest.approx(top, rel=1e-15)


def test_symmetrization_is_the_mean_bit_for_bit():
    # wherever (d + d.T) / 2 is finite the space holds exactly it, down to
    # subnormal distances, where halving each entry first would round
    rng = np.random.default_rng(0)
    for scale in (1.0, 5e-324, 1e300):
        d = np.round(rng.uniform(8, 16, size=(5, 5))) * scale
        np.fill_diagonal(d, 0.0)
        assert np.array_equal(validate_metric(d, tol=np.inf).dist, (d + d.T) / 2.0), scale


def test_negative_distance():
    with pytest.raises(NegativeDistanceError):
        validate_metric([[0, -1], [-1, 0]])


def test_nonzero_diagonal_exact():
    with pytest.raises(NonzeroDiagonalError):
        validate_metric([[1e-15, 1], [1, 0]])


def test_coincident_points():
    with pytest.raises(CoincidentPointsError):
        validate_metric([[0, 0], [0, 0]])


def test_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        validate_metric([[0, 1, 2], [1, 0, 1]])
    with pytest.raises(ValueError):
        validate_metric([[0, np.inf], [np.inf, 0]])


def test_default_tolerance_is_relative():
    # asymmetry of 1e-7 on distances of order 1e3 sits inside 1e-9 relative
    sp = validate_metric([[0, 1000.0], [1000.0 + 1e-7, 0]])
    assert sp.tol == pytest.approx(1e-9 * (1000.0 + 1e-7))


def _axioms_hold(d: np.ndarray, tol: float) -> bool:
    n = d.shape[0]
    for i in range(n):
        if d[i, i] != 0:
            return False
        for j in range(n):
            if d[i, j] < 0 or abs(d[i, j] - d[j, i]) > tol:
                return False
            if i != j and d[i, j] == 0:
                return False
            for k in range(n):
                if d[i, j] > d[i, k] + d[k, j] + tol:
                    return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=6, max_size=6))
def test_validate_matches_direct_axiom_loop(upper):
    # random symmetric 4x4 candidate: accepted exactly when the axiom loop agrees
    d = np.zeros((4, 4))
    idx = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for (i, j), v in zip(idx, upper):
        d[i, j] = d[j, i] = v
    tol = 1e-9 * float(np.max(d))
    try:
        validate_metric(d, tol=tol)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _axioms_hold(d, tol)


def test_submatrix_basic(equilateral):
    pair = validate_metric([[0, 1], [1, 0]])
    assert submatrix(pair, (0, 1)).tolist() == [[0, 1], [1, 0]]
    assert submatrix(pair, (0, 0)).tolist() == [[0, 0], [0, 0]]
    m = submatrix(equilateral, (0, 1, 2))
    assert m.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_submatrix_bad_index(equilateral):
    with pytest.raises(IndexOutOfRangeError):
        submatrix(equilateral, (0, 5))


def test_submatrix_permutation_naturality():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(5, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    sp = validate_metric(np.sqrt((diff * diff).sum(-1)))
    t = (0, 2, 3, 4)
    perm = (2, 0, 3, 1)
    permuted_t = tuple(t[i] for i in perm)
    p = np.eye(len(t))[list(perm)]
    direct = submatrix(sp, permuted_t)
    conjugated = p @ submatrix(sp, t) @ p.T
    assert np.allclose(direct, conjugated)


def test_scale_metric(equilateral):
    pair = validate_metric([[0, 1], [1, 0]])
    assert scale_metric(pair, 3).distance(0, 1) == 3.0
    assert np.array_equal(scale_metric(pair, 1).dist, pair.dist)
    half = scale_metric(equilateral, 0.5)
    assert np.allclose(half.dist, equilateral.dist * 0.5)
    with pytest.raises(NonpositiveScaleError):
        scale_metric(pair, 0)


def test_scale_metric_composes_multiplicatively(equilateral):
    twice = scale_metric(scale_metric(equilateral, 2.0), 3.0)
    direct = scale_metric(equilateral, 6.0)
    assert np.allclose(twice.dist, direct.dist)


def test_json_roundtrip(tmp_path, equilateral):
    path = tmp_path / "space.json"
    path.write_text(equilateral.to_json(), encoding="utf-8")
    loaded = load_space(str(path))
    assert loaded.labels == equilateral.labels
    assert np.array_equal(loaded.dist, equilateral.dist)


def test_json_labels_kept(tmp_path):
    path = tmp_path / "sp.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "distances": [[0, 2], [2, 0]]}))
    sp = load_space(str(path))
    assert sp.labels == ("a", "b")


def test_csv_with_and_without_header():
    sp = parse_csv_space("a,b\n0,1\n1,0\n")
    assert sp.labels == ("a", "b")
    sp2 = parse_csv_space("0,1.5\n1.5,0\n")
    assert sp2.labels == ("x0", "x1")
    assert sp2.distance(0, 1) == 1.5


def test_immutability(equilateral):
    with pytest.raises(ValueError):
        equilateral.dist[0, 1] = 5.0


def test_spaces_hash_and_compare_by_identity(equilateral):
    twin = validate_metric(np.array(equilateral.dist))
    assert hash(equilateral) == hash(equilateral)
    assert equilateral == equilateral
    assert equilateral != twin
    assert {equilateral: 1, twin: 2}[equilateral] == 1
