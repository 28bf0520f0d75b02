"""Metamorphic relations: the deciders must agree with themselves.

A permutation of the points, or one factor on every distance, gives the
same metric space, so it must keep feasibility, the minimal dimension m,
both engines' verdicts at every n up to m + 1 (up to N for an
infeasible space) and the realization's residual relative to the largest
distance. A factor must also keep both engines' witness values and
min-dim's, and a permutation must carry the witness at n = m - 1 along
with the points. The
factors 1e-60 and 1e60 lie inside the certifiable range, where a
determinant of a few points already underflows or overflows: every
statistic the zero rule reads is a relative squared height, so none of
them sees the unit. The factors 1e-200 and 1e200 take the distances
outside it, where a squared distance leaves the normal floats: the space
is decided scaled back into the range by a power of two.
Likewise a scan of a Euclidean region must not see a joint rescaling of
the region, the marked point and the ladder, out to factors 1e-300 and
1e300, nor a translation of the region and the marked point; the
stability of a sequence's rescaled distances to p must not see a factor
on the space, the sequence and the normalizer, which carries the space's
unit; and the metric identification of rescaled limits must not see a
factor on every limit: it keeps the classes and scales the quotient
metric.

A subspace reads no larger m and no ``no`` where the space reads
``yes``, and the l2 product with a segment adds one to m (cloud30 with
point 14 or 26 dropped, and cloud30 x {0, h D} for h <= 1).
"""

from functools import lru_cache

import numpy as np
import pytest

from metricembed import (
    NormalizingSequence,
    PseudometricMatrix,
    constant_sequence,
    marked_family,
    marked_space_from_config,
    menger_check,
    metric_identification,
    min_embedding_dimension,
    mutual_stability,
    pseudometric_matrix,
    realize_coordinates,
    scale_ladder,
    scale_metric,
    schoenberg_check,
    transfer_check,
    validate_metric,
)

from conftest import cloud_space, line_with_triangle, square_with_star, square_with_tetrahedron


def _cloud30_points():
    return np.random.default_rng(0).normal(size=(30, 29))


def _rank3_cloud():
    rng = np.random.default_rng(1)
    return cloud_space(rng.normal(size=(40, 3)) @ rng.normal(size=(3, 6)))


def _integer_simplex(d: int):
    return cloud_space(np.random.default_rng(0).integers(-20, 21, size=(d + 1, d)).astype(float))


SPACES = {
    "cloud30": lambda: cloud_space(_cloud30_points()),
    **{f"simplex{d}": (lambda d=d: _integer_simplex(d)) for d in (3, 5, 8, 10, 13)},
    "star": lambda: validate_metric([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]),
    "cycle4": lambda: validate_metric([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]),
    "square-with-tetrahedron": lambda: square_with_tetrahedron(1e-5),
    "line-with-triangle": lambda: line_with_triangle(1e-4),
    "square-with-star": lambda: square_with_star(1e-3),
    "rank3-cloud": _rank3_cloud,
}

#: each relation's transform of a space
RELATIONS = {
    **{f"relabel{k}": (lambda space, k=k: _relabelled(space, np.random.default_rng(k))) for k in range(5)},
    **{f"scale{name}": (lambda space, factor=float(name): scale_metric(space, factor))
       for name in ("1e-200", "1e-60", "1e-3", "1e3", "1e60", "1e200")},
}


def _relabelled(space, rng):
    return _relabelled_by(space, rng.permutation(space.n_points))


def _relabelled_by(space, perm):
    """The space whose point i is point ``perm[i]`` of ``space``."""
    return validate_metric(space.dist[np.ix_(perm, perm)])


def _reading(space) -> tuple:
    """Feasibility, m, both engines' verdicts at n = 1 ... m + 1 (... N if
    infeasible), their witness values and min-dim's, and the residual over
    the largest distance of a feasible space's realization."""
    res = min_embedding_dimension(space)
    top = res.dim + 1 if res.feasible else space.n_points
    checks = [(menger_check(space, n), schoenberg_check(space, n)) for n in range(1, top + 1)]
    verdicts = [tuple(v.embeddable for v in pair) for pair in checks]
    values = [res.psd.witness_value, *(v.witness and v.witness.value for pair in checks for v in pair)]
    residual = None
    if res.feasible:
        residual = realize_coordinates(space, max(res.dim, 1)).max_residual / float(np.max(space.dist))
    return res.feasible, res.dim, verdicts, values, residual


@lru_cache(maxsize=None)
def _base(name: str) -> tuple:
    space = SPACES[name]()
    return space, _reading(space)


@pytest.mark.parametrize("relation", list(RELATIONS))
@pytest.mark.parametrize("name", list(SPACES))
def test_finite_reading_kept(name, relation):
    space, (feasible, m, verdicts, values, residual) = _base(name)
    got = _reading(RELATIONS[relation](space))
    assert got[:3] == (feasible, m, verdicts)
    if relation.startswith("scale"):
        # the same witnesses; a relabelling may pick a mirror copy of one
        assert got[3] == pytest.approx(values, rel=1e-6)
    if residual is None:
        assert got[4] is None
    else:
        assert got[4] == pytest.approx(residual, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("name", ["cloud30", "rank3-cloud"])
def test_witness_follows_the_relabelling(name):
    # the witness at n = m - 1 on a relabelled space is the same tuple of
    # points. The clouds' distances have no ties. The star and the 4-cycle
    # have no m, and their witness at every n is all four points. The
    # planted features hold mirror copies of a violating tuple at equal or
    # nearly equal distances, of which the labels pick one
    space, (_, m, _, _, _) = _base(name)
    witness = menger_check(space, m - 1).witness.indices
    rng = np.random.default_rng(0)
    for _ in range(20):
        perm = rng.permutation(space.n_points)
        moved = menger_check(_relabelled_by(space, perm), m - 1).witness.indices
        assert tuple(sorted(int(perm[i]) for i in moved)) == witness, perm


#: (region, marked point, n) of each scan: the square's corner is refuted
#: at n = 1 and consistent at n = 2, the circle consistent at n = 1
SCANS = {
    "corner-n1": ({"kind": "cube", "low": [0, 0], "high": [1, 1]}, [0, 0], 1),
    "corner-n2": ({"kind": "cube", "low": [0, 0], "high": [1, 1]}, [0, 0], 2),
    "circle-n1": ({"kind": "sphere-surface", "center": [0, 0], "radius": 1.0}, [1, 0], 1),
}


def _scan_verdicts(region: dict, p, n: int, seed: int, factor: float = 1.0, shift=(0.0, 0.0)) -> tuple:
    """Every verdict of a 64-sample scan of ``factor * X + shift`` on the
    ladder 0.5 * factor * 0.5^j."""
    def moved(point):
        return [factor * x + s for x, s in zip(point, shift)]

    region = {key: moved(value) if key in ("low", "high", "center") else value for key, value in region.items()}
    if "radius" in region:
        region["radius"] *= factor
    space = marked_space_from_config({"type": "euclidean", "dim": 2, "region": region, "p": moved(p)})
    report = transfer_check(space, n, samples_per_scale=64, scales=scale_ladder(0.5 * factor, 0.5, 12), seed=seed)
    return report.verdict, tuple(scan.verdict for scan in report.scans)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", list(SCANS))
def test_scan_verdicts_kept(case, seed):
    region, p, n = SCANS[case]
    base = _scan_verdicts(region, p, n, seed)
    assert base[0] == ("refuted" if case == "corner-n1" else "consistent-with-embeddable")
    for factor in (1e-300, 1e-200, 1e-150, 1e-3, 3.0, 1e3, 1e150, 1e200, 1e300):
        assert _scan_verdicts(region, p, n, seed, factor=factor) == base, factor
    for shift in ((3.0, -7.0), (1e3, 0.25)):
        assert _scan_verdicts(region, p, n, seed, shift=shift) == base, shift


def _stability_at(ratio, factor: float):
    """mutual_stability of x_m = ratio(m) * r_m e1 against p = 0, the
    corner of the square [0, factor]^2, on r_m = 0.5 * factor * 0.5^m,
    the normalizer in the space's unit, at depth 40."""
    space = marked_space_from_config({"type": "euclidean", "dim": 2, "p": [0, 0],
                                      "region": {"kind": "cube", "low": [0, 0], "high": [factor, factor]}})
    r = NormalizingSequence.geometric(0.5 * factor, 0.5)
    return mutual_stability(space, lambda m: ratio(m) * r(m) * np.array([1.0, 0.0]), constant_sequence(space.p), r,
                            depth=40)


@pytest.mark.parametrize("factor", [1e-200, 1e-6, 1e-3, 1e3, 1e6, 1e200])
def test_stable_limit_kept_under_a_factor(factor):
    # the ratio 1 + 0.5^(m+1) converges; past 1e±162 the squared
    # distances left the normal floats and read 0 or inf
    converging = lambda m: 1.0 + 0.5 ** (m + 1)
    unit, scaled = _stability_at(converging, 1.0), _stability_at(converging, factor)
    assert unit.status == scaled.status == "stable"
    assert scaled.limit == pytest.approx(unit.limit, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("factor", [1e-200, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e200])
def test_oscillation_kept_under_a_factor(factor):
    # the ratio alternates between 2 and 1
    assert _stability_at(lambda m: 2.0 - m % 2, factor).status == "unstable"


def _corner_pseudometric():
    """The limits at the corner of the unit square of p, r e1, (1 + 1e-12) r e1
    and r e2; the middle two lie 1e-12 apart in the limit."""
    space = marked_space_from_config({"type": "euclidean", "dim": 2, "region": {"kind": "cube"}, "p": [0, 0]})
    r = NormalizingSequence.geometric(0.5, 0.5)
    offsets = (np.array([1.0, 0.0]), np.array([1.0 + 1e-12, 0.0]), np.array([0.0, 1.0]))
    return pseudometric_matrix(space, marked_family(space, *(lambda m, e=e: r(m) * e for e in offsets)), r, depth=40)


@pytest.mark.parametrize("factor", [1e-200, 1e-60, 1e-3, 1e3, 1e60, 1e200])
def test_quotient_kept_under_a_factor_on_the_limits(factor):
    pm = _corner_pseudometric()
    scaled = PseudometricMatrix(tuple(tuple(v._replace(limit=factor * v.limit, oscillation=factor * v.oscillation)
                                            for v in row) for row in pm.verdicts))
    unit, quotient = metric_identification(pm), metric_identification(scaled)
    assert quotient.classes == unit.classes == ((0,), (1, 2), (3,))
    assert np.array_equal(quotient.rho.dist, factor * unit.rho.dist)


@pytest.mark.parametrize("drop", [14, 26])
def test_subspace_reads_no_more(drop):
    # m(S') <= m(S) for S' in S, and a yes at n on S means no no at n on S'.
    # A band on the product of k heights read cloud30 at m = 22 and these
    # subspaces at m = 23
    space, (_, m, verdicts, _, _) = _base("cloud30")
    # 30 points in general position in R^29
    assert m == 29 and verdicts[21] == ("no", "no")
    keep = np.delete(np.arange(space.n_points), drop)
    sub = validate_metric(space.dist[np.ix_(keep, keep)])
    assert min_embedding_dimension(sub).dim <= m
    for n, verdict in enumerate(verdicts, 1):
        if "yes" in verdict:
            assert "no" not in (menger_check(sub, n).embeddable, schoenberg_check(sub, n).embeddable), n


@pytest.mark.parametrize("h", [1e-2, 1.0])
def test_product_with_a_segment_adds_one(h):
    # X x {0, h D} in l2, D the diameter of X, has m(X) + 1. A band on the
    # product of k heights read m = 22 at h = 1e-2 and 21 at h = 1
    space, (_, m, _, _, _) = _base("cloud30")
    x = _cloud30_points()
    top = h * float(np.max(space.dist))
    product = cloud_space(np.vstack([np.hstack([x, np.zeros((30, 1))]), np.hstack([x, np.full((30, 1), top)])]))
    assert min_embedding_dimension(product).dim == m + 1
