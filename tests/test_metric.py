"""Metric validation, submatrices, rescaling, file parsing."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricembed import (cm_value, menger_check, min_embedding_dimension, psd_check, scale_metric, sch_value,
                         submatrix, validate_metric)
from metricembed.errors import (
    AsymmetricError,
    CoincidentPointsError,
    DistanceOutOfRangeError,
    IndexOutOfRangeError,
    NegativeDistanceError,
    NonpositiveScaleError,
    NonzeroDiagonalError,
    TriangleViolationError,
    is_integer,
    is_number,
)
from metricembed.metric import load_space, parse_csv_space


def test_smallest_metric():
    sp = validate_metric([[0, 1], [1, 0]], tol=1e-12)
    assert sp.n_points == len(sp) == 2
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
    # reported); an input asymmetric inside the tolerance is checked as the
    # space holds it, symmetrized
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(3, 12))
        a = rng.uniform(0.1, 1.0, size=(n, n))
        d = np.round(a + a.T, 1) if trial % 2 else a + a.T + rng.uniform(0, 1e-12, size=(n, n))
        np.fill_diagonal(d, 0.0)
        expected, worst = _full_cube_offender((d + d.T) / 2.0)
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


def test_certificate_skips_triangles_whenever_it_holds(tmp_path, monkeypatch):
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
    # asymmetry within tol: a certificate that holds skips the check too,
    # and one that fails has the space's symmetrized matrix checked
    skew = d.copy()
    skew[0, 1] += 1e-12
    sp = validate_metric(skew, certificate=lambda s: True)
    assert len(calls) == 3
    assert sp.dist[0, 1] == sp.dist[1, 0] != skew[0, 1]
    sp = validate_metric(skew, certificate=lambda s: False)
    assert len(calls) == 4 and np.array_equal(calls[-1], sp.dist)
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


def test_empty_matrix_refused_by_name():
    # an empty array gave a space of 0 points, which min-dim refused as "empty
    # space"; psd_check named the base out of range, and cm_value and
    # sch_value a tuple too short: metric.as_matrix now refuses it for all
    for call in (validate_metric, lambda d: psd_check(d, 0), cm_value, sch_value):
        with pytest.raises(ValueError, match="^the distance matrix is empty: a space needs a point$"):
            call(np.zeros((0, 0)))


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
    # the rule of psd_check's base; 1.7, True, "1" and 1.0 each read as
    # point 1 while submatrix kept a rule of its own
    for t in ([0, 1.7], [0, True], ["1"], [np.float64(1.0)], [-1]):
        with pytest.raises(IndexOutOfRangeError, match=r"is not an index of the 3 points$"):
            submatrix(equilateral, t)
    assert submatrix(equilateral, [np.int64(1), 2]).tolist() == [[0, 1], [1, 0]]


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


@pytest.mark.parametrize("call,error,message", [
    # an integer past the largest float passed the number rule and ended in a bare OverflowError
    (lambda: scale_metric(validate_metric([[0, 1], [1, 0]]), 10**400), NonpositiveScaleError,
     f"scale factor must be a positive finite number, got {10**400!r}"),
    (lambda: validate_metric([[0, 1], [1, 0]], tol=10**400), ValueError, f"tol must be a number >= 0, got {10**400!r}"),
    # a matrix met the decision cache's "unhashable type: 'numpy.ndarray'", a list "unhashable type: 'list'"
    (lambda: menger_check(np.array([[0.0, 1.0], [1.0, 0.0]]), 2), TypeError,
     "expected a FiniteMetricSpace, built by validate_metric, got ndarray"),
    (lambda: min_embedding_dimension([[0, 1], [1, 0]]), TypeError,
     "expected a FiniteMetricSpace, built by validate_metric, got list"),
])
def test_metric_layer_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("value,integer,number", [
    # the rules read the numbers ABCs, which numpy's integers and floats join and np.bool_ does not
    (1, True, True),
    (True, False, False),
    (np.bool_(True), False, False),
    (np.int8(1), True, True),
    (np.uint64(2**64 - 1), True, True),
    (1.0, False, True),
    (np.float32(1), False, True),
    (10**400, True, False),
    ("1", False, False),
    (None, False, False),
], ids=repr)
def test_number_rules(value, integer, number):
    assert is_integer(value) is integer
    assert is_number(value) is number


def test_scale_metric_composes_multiplicatively(equilateral):
    twice = scale_metric(scale_metric(equilateral, 2.0), 3.0)
    direct = scale_metric(equilateral, 6.0)
    assert np.allclose(twice.dist, direct.dist)


def test_scale_metric_refuses_non_finite(equilateral):
    # an infinite factor gave a NaN diagonal and infinite distances, and so
    # did a product past the largest float, with only a RuntimeWarning
    with pytest.raises(NonpositiveScaleError):
        scale_metric(equilateral, float("inf"))
    big = scale_metric(equilateral, 1e300)
    with pytest.raises(DistanceOutOfRangeError):
        scale_metric(big, 1e300)


def test_scale_metric_refuses_zeroing_a_distance():
    # the factor took d[1][2] to 0.0, and the scaled space embedded in E^1
    space = validate_metric([[0, 1, 1], [1, 0, 1e-300], [1, 1e-300, 0]])
    with pytest.raises(DistanceOutOfRangeError, match="takes a positive distance to 0"):
        scale_metric(space, 1e-30)
    assert scale_metric(space, 1e-10).distance(1, 2) > 0.0


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


@pytest.fixture(scope="module")
def large_files(large_cloud, tmp_path_factory):
    """The 2000-point cloud as a CSV and a JSON file."""
    directory = tmp_path_factory.mktemp("large")
    csv_path, json_path = directory / "cloud.csv", directory / "cloud.json"
    csv_path.write_text("\n".join(",".join(map(repr, row)) for row in large_cloud.tolist()))
    json_path.write_text(json.dumps({"distances": large_cloud.tolist()}))
    return {"csv": str(csv_path), "json": str(json_path)}


@pytest.mark.parametrize("kind,bound", [("csv", 2.5), ("json", 5.0)])
def test_reader_at_the_memory_floor(large_files, large_cloud, kind, bound):
    # rows go straight into one array, which the space keeps; the CSV
    # reader held a list of lists and the JSON reader the parsed document
    # (21x and 6.45x the matrix). The certificate, which holds here, is
    # measured with the decision.
    tracemalloc.start()
    try:
        sp = load_space(large_files[kind], certificate=lambda space: True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(sp.dist, large_cloud)
    assert peak <= bound * large_cloud.nbytes, peak / large_cloud.nbytes


@pytest.mark.parametrize("kind", ["csv", "json"])
def test_near_symmetric_reader_at_the_memory_floor(large_cloud, tmp_path, kind):
    # an asymmetry within tol is averaged away in place and takes the
    # certificate: the whole-matrix mean and the O(N^3) loop took 3.5x
    d = large_cloud[:700, :700]
    skew = d.copy()
    skew[0, 1] += 1e-12 * np.max(d)
    peaks = []
    for name, matrix in (("sym", d), ("skew", skew)):
        path = tmp_path / f"{name}.{kind}"
        if kind == "csv":
            path.write_text("\n".join(",".join(map(repr, row)) for row in matrix.tolist()))
        else:
            path.write_text(json.dumps({"distances": matrix.tolist()}))
        tracemalloc.start()
        try:
            sp = load_space(str(path), certificate=lambda space: True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(sp.dist, (skew + skew.T) / 2.0)
    assert peaks[1] <= 1.2 * peaks[0], peaks[1] / peaks[0]


JSON_DOCUMENTS = [
    '{"distances": [[0, 1], [1, 0]]}',
    # a number longer than the buffer holds when it is reached
    '{"n": 1234567, "distances": [[0, 1], [1, 0]]}',
    ' {\n "labels" : ["a", "b"] ,\n "distances" : [ [0, 1.5] , [1.5, 0] ] }\n\n',
    '{"distances": [[0, 1], [1, 0]], "labels": ["p", "q"], "note": {"x": [1, true, null]}}',
    '[[0, 2.5], [2.5, 0]]',
    '{"distances": [[0, 1], [1, 0]], "distances": [[0, 2], [2, 0]], "labels": ["a", "b"], "labels": ["c", "d"]}',
    '{"labels": ["x\\u00e9", "y\\n"], "distances": [[0, 1e-300], [1e-300, 0]]}',
    '{"distances": [[0, 12345678901234567890], [12345678901234567890, 0]], "n": 1234567}',
    '{"distances": []}', '[]', '{}', '5', '"text"', 'null', '', '{"distances": 5}',
    '{"distances": [[0, NaN], [NaN, 0]]}', '{"distances": [[0, %s], [%s, 0]]}' % ("9" * 401, "9" * 401),
    '{not json', '{"distances": [[0, 1], [1, 0]]} x', '{"distances": [[0, 1], [1, 0]],}',
    '{"distances": [[0, 1] [1, 0]]}', '{"distances": [[0, 1], [1, 0]]\n "labels": []}',
    '{\n "distances": [[0, 1],\n [1, 0]],\n "labels": ["a", "b\n}', '{"distances": [[0, 1],\n [1, 0],]}',
    '{"distances": [[0, 1], [1, 0]], "x": tru}', '{"distances": [[0, 1], [1, 0]], "x": 12',
    '{"distances": [[0, 1], [1, 0]], 5: 1}', '{"distances" [[0, 1], [1, 0]]}', '\ufeff{"distances": [[0]]}',
    '{"distances": [[0, 1], [1, 0]], "distances": [[0, 1], [1]]}',
    json.dumps({"distances": np.arange(900.0).reshape(30, 30).tolist()}, indent=1),
]


@pytest.mark.parametrize("chunk", [1, 3, 64, 1 << 16])
def test_json_reader_matches_json_loads(chunk, monkeypatch):
    # whatever the chunk size, the chunked reader gives json.loads' space,
    # or its error message with the same position in the document
    from metricembed import metric

    monkeypatch.setattr(metric, "JSON_CHUNK", chunk)

    def outcome(read):
        try:
            sp = read()
            return sp.labels, sp.dist.tolist()
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            # json's own errors are JSONDecodeError, the chunked reader's ValueError
            return ValueError.__name__ if isinstance(exc, ValueError) else type(exc).__name__, str(exc)

    def reference(doc):
        raw = json.loads(doc)
        if isinstance(raw, dict):
            if "distances" not in raw:
                # named, where json.loads' dict gives a bare KeyError
                raise ValueError('the JSON object has no "distances" key')
            return metric._validated(raw["distances"], raw.get("labels"), None, None)
        return metric._validated(raw, None, None, None)

    for doc in JSON_DOCUMENTS:
        assert outcome(lambda: metric._validated(*metric._json_payload(io.StringIO(doc)), None, None)) \
            == outcome(lambda: reference(doc)), doc


@pytest.mark.parametrize("raw,error", [
    ([[0, 1], [1]], "row 1 of the distance matrix is not a list of 2 numbers"),
    ([5, [0]], "row 0 of the distance matrix is not a list of numbers"),
    # numpy reads "1" and true as 1.0
    ([[0, 1], ["1", 0]], "row 1 of the distance matrix is not a list of 2 numbers"),
    ([[0, True], [True, 0]], "row 0 of the distance matrix is not a list of 2 numbers"),
    # these gave numpy's or float()'s own text, a {} entry as a TypeError
    ([[0, "a"], ["a", 0]], "row 0 of the distance matrix is not a list of 2 numbers"),
    ([[0, 1], [[1], 0]], "row 1 of the distance matrix is not a list of 2 numbers"),
    ([[0, [1]], [[1], 0]], "row 0 of the distance matrix is not a list of 2 numbers"),
    ([[0, 1], [{}, 0]], "row 1 of the distance matrix is not a list of 2 numbers"),
    ([[0, 1], [None, 0]], "row 1 of the distance matrix is not a list of 2 numbers"),
    # a tuple went to numpy: True was read as 1, "a" and {} gave numpy's or float()'s text
    (((0, True), (True, 0)), "row 0 of the distance matrix is not a list of 2 numbers"),
    (((0, "a"), ("a", 0)), "row 0 of the distance matrix is not a list of 2 numbers"),
    (((0, 1), ({}, 0)), "row 1 of the distance matrix is not a list of 2 numbers"),
    # a value that is no list at all gave numpy's text or a matrix of shape ()
    ("abc", "distances must be a list, got str"),
    (5, "distances must be a list, got int"),
    (None, "distances must be a list, got NoneType"),
], ids=["ragged", "scalar-first-row", "string", "bool", "letter", "list", "list-first-row", "object", "null",
        "tuple-bool", "tuple-letter", "tuple-object", "no-list-str", "no-list-int", "no-list-none"])
def test_lists_follow_the_rules_of_file_rows(raw, error, tmp_path):
    # one row reader fills both; a list passed in gave numpy's message
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"distances": raw}))
    with pytest.raises(ValueError) as from_file:
        load_space(str(path))
    with pytest.raises(ValueError) as from_list:
        validate_metric(raw)
    assert str(from_list.value) == str(from_file.value) == error


def _object_array(rows: list) -> np.ndarray:
    """``rows`` as a 2-D object array, a list entry kept as one object."""
    a = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        a[i, :] = row
    return a


def _from_file(rows: list, path):
    path.write_text(json.dumps({"distances": rows}))
    return load_space(str(path))


@pytest.mark.parametrize("entry", ["1", "a", True, None, [1], {}], ids=repr)
def test_every_entry_that_is_no_number_raises_value_error(entry, tmp_path):
    # judged before numpy reads the row, in the first row and in a later
    # one, by every entry that reads a matrix; psd_check, cm_value and
    # sch_value read a True entry as 1
    readers = {
        "list": validate_metric,
        "tuple": lambda rows: validate_metric(tuple(map(tuple, rows))),
        "object array": lambda rows: validate_metric(_object_array(rows)),
        "dict": lambda rows: validate_metric({"distances": rows}),
        "file": lambda rows: _from_file(rows, tmp_path / "rows.json"),
        "psd_check": lambda rows: psd_check(rows, 0),
        "cm_value": cm_value,
        "sch_value": sch_value,
    }
    for name, read in readers.items():
        for rows, row in (([[0, 1], [entry, 0]], 1), ([[0, entry], [1, 0]], 0)):
            with pytest.raises(ValueError) as exc:
                read(rows)
            assert type(exc.value) is ValueError, name
            assert str(exc.value) == f"row {row} of the distance matrix is not a list of 2 numbers", name


@pytest.mark.parametrize("raw", [
    np.array([[False, True], [True, False]]),
    np.array([[0, 1j], [1j, 0]]),
    np.array([[0, "a"], ["a", 0]], dtype=object),
    np.array([["0", "1"], ["1", "0"]]),
], ids=["bool", "complex", "object-letter", "strings"])
def test_arrays_that_hold_no_reals_are_read_by_the_row_rule(raw):
    # numpy cast them: the bool array was the unit pair, the complex one
    # lost its imaginary part with only a ComplexWarning, and the letters
    # gave numpy's text
    with pytest.raises(ValueError) as exc:
        validate_metric(raw)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "row 0 of the distance matrix is not a list of 2 numbers"


def test_every_form_of_the_same_numbers_gives_the_same_space():
    ints = np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    floats = ints.astype(float)
    forms = (ints, floats, ints.tolist(), tuple(map(tuple, ints.tolist())), ints.astype(np.uint8),
             _object_array(ints.tolist()))
    spaces = [validate_metric(raw) for raw in forms]
    for sp in spaces:
        assert type(sp.dist) is np.ndarray and sp.dist.dtype == float
        assert sp.dist.tobytes() == spaces[0].dist.tobytes() and sp.labels == spaces[0].labels
    # a caller's array is copied: neither frozen nor shared
    assert floats.flags.writeable and not np.shares_memory(spaces[1].dist, floats)


@pytest.mark.parametrize("text", ["0,1\nzz,0\n", "a,b\n0,1\n1,\n", "a,b\n0,1\n1,0x1\n"],
                         ids=["no-header", "empty-cell", "hex"])
def test_csv_cell_float_cannot_read_names_its_row(text, tmp_path):
    # float()'s own text named no row
    path = tmp_path / "cells.csv"
    path.write_text(text)
    for read in (lambda: load_space(str(path)), lambda: parse_csv_space(text)):
        with pytest.raises(ValueError, match=r"^row 1 of the distance matrix is not a list of 2 numbers$"):
            read()


def test_invalid_utf8_reported_where_json_load_reports_it(tmp_path):
    # past the first chunk, the chunked reader gave an offset inside the chunk
    d = np.ones((200, 200)) - np.eye(200)
    data = bytearray(json.dumps({"distances": d.tolist()}).encode())
    data[150000] = 0xFF
    path = tmp_path / "bad-byte.json"
    path.write_bytes(bytes(data))
    with pytest.raises(UnicodeDecodeError) as read:
        load_space(str(path))
    with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as loaded:
        json.load(fh)
    assert str(read.value) == str(loaded.value)
    assert "position 150000" in str(read.value)


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


@pytest.mark.parametrize("doc", [{}, {"labels": ["a"]}])
def test_document_without_distances_refused_alike(doc, tmp_path):
    # a dict passed in and a file read from disk go through one document
    # reader; the dict once raised a bare KeyError('distances')
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as from_file:
        load_space(str(path))
    with pytest.raises(ValueError) as from_dict:
        validate_metric(doc)
    assert str(from_dict.value) == str(from_file.value) == 'the JSON object has no "distances" key'


def test_csv_byte_order_mark_is_no_label(tmp_path):
    # Excel's "CSV UTF-8" starts with a byte-order mark, once read into the first label
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n0,1\n1,0\n")
    assert load_space(str(path)).labels == ("a", "b")


def test_negative_tolerance_refused():
    with pytest.raises(ValueError) as exc:
        validate_metric([[0, 1], [1, 0]], tol=-1.0)
    assert str(exc.value) == "tol must be a number >= 0, got -1.0"


@pytest.mark.parametrize("matrix", [[[0, 1, 5], [1, 0, 1], [5, 1, 0]], [[0, 1, 1], [2, 0, 1], [1, 1, 0]]],
                         ids=["triangle-violated-by-3", "asymmetric"])
def test_nan_tolerance_refused(matrix):
    # every comparison with a NaN tol is false: both matrices were accepted,
    # the asymmetric entry averaged to 1.5
    with pytest.raises(ValueError) as exc:
        validate_metric(matrix, tol=math.nan)
    assert str(exc.value) == "tol must be a number >= 0, got nan"


def test_tolerance_and_factor_must_be_numbers(equilateral):
    # True passed both bounds as the number 1
    with pytest.raises(ValueError, match="^tol must be a number >= 0, got True$"):
        validate_metric([[0, 1], [1, 0]], tol=True)
    with pytest.raises(NonpositiveScaleError, match=r"^scale factor must be a positive finite number, got True$"):
        scale_metric(equilateral, True)
    with pytest.raises(NonpositiveScaleError, match=r"^scale factor must be a positive finite number, got '2'$"):
        scale_metric(equilateral, "2")
