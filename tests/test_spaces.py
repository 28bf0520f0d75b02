"""Marked spaces: sampler contracts, freezing, construction errors."""

import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from metricembed import (
    CurveSpec,
    as_marked,
    freeze,
    make_euclidean_subset,
    make_snowflake,
    make_ultrametric,
    marked_space_from_config,
    schoenberg_check,
    validate_metric,
)
from metricembed.errors import (AlphaOutOfRangeError, ArityMismatchError, IndexOutOfRangeError,
                               MarkedPointOutsideRegionError)
from metricembed.pretangent import delta_scale, transfer_check
from metricembed.spaces import perturbed_euclidean_space


def segment():
    return make_euclidean_subset(1, {"kind": "cube", "low": [0.0], "high": [1.0]}, [0.0])


def plane():
    return make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [1, 1]}, [0, 0])


def circle():
    return make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0], "radius": 1.0}, [1, 0])


ALL_SPACES = {
    "segment": segment,
    "plane": plane,
    "circle": circle,
    "snowflake": lambda: make_snowflake(0.5, 2, [0.0, 0.0]),
    "ultrametric": lambda: make_ultrametric(8, 3),
}


@pytest.mark.parametrize("name", sorted(ALL_SPACES))
def test_sampler_contract_delta_in_half_scale_band(name):
    space = ALL_SPACES[name]()
    for scale in (0.4, 0.11, 0.013):
        for seed in range(8):
            t = space.sample(scale, 2, seed)
            assert len(t) == 3
            d = delta_scale(space, t)
            assert scale / 2 <= d <= scale, (name, scale, seed, d)


@pytest.mark.parametrize("name", sorted(ALL_SPACES))
def test_sampler_reproducible_under_seed(name):
    space = ALL_SPACES[name]()
    a = space.sample(0.2, 3, 42)
    b = space.sample(0.2, 3, 42)
    for x, y in zip(a, b):
        assert space.metric(x, y) == 0.0


def _curve():
    spec = CurveSpec(fn=lambda t: np.array([np.cos(t), np.sin(t)]), t0=0.0,
                     t_min=-3.0, t_max=3.0, lipschitz=1.0)
    return make_euclidean_subset(2, {"kind": "curve", "spec": spec}, [1.0, 0.0])


def _grid():
    return make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": 2.0**-14},
                                 [0.5, 0.5])


#: every built-in carrier, with the scales its clouds are drawn at
CARRIERS = {
    **{name: (make, (0.4, 0.013)) for name, make in ALL_SPACES.items()},
    "curve": (_curve, (0.4, 0.013)),
    "grid": (_grid, (0.05, 2.0**-12)),
    # deep leaves share hundreds of digits; at 2^-1074 some equal p
    "deep-ultrametric": (lambda: make_ultrametric(1075, 3), (0.4, 2.0**-600, 2.0**-1074)),
    "finite": (lambda: as_marked(perturbed_euclidean_space(12, seed=2), 0), (1.0,)),
}


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_batched_matrix_equals_scalar_metric(name):
    make, scales = CARRIERS[name]
    space = make()
    scalar = dataclasses.replace(space, pairwise=None)
    assert space.pairwise is not None
    for scale in scales:
        if name == "finite":
            scale = float(np.max(space.matrix(range(12))[0]))
        for seed in range(3):
            pts = (space.p,) + space.sample(scale, 40, seed)
            assert np.array_equal(space.matrix(pts), scalar.matrix(pts)), (name, scale, seed)


def test_scalar_ultrametric_metric_is_cheap_at_full_depth():
    # the leaves sort on one key each; a sort on one key per digit took
    # 2.15 s for these calls
    space = make_ultrametric(1075, 2)
    leaf = space.sample(2.0**-600, 1, 0)[0]
    start = time.perf_counter()
    for _ in range(1000):
        space.metric(space.p, leaf)
    assert time.perf_counter() - start < 1.0
    assert space.metric(space.p, leaf) == 2.0**-600


def test_cloud_matrix_holds_two_results_at_most():
    # a capped scan cloud: the distance matrix is built in one N x N
    # buffer plus one scratch array, with no (N, N, d) temporaries
    space = plane()
    cloud = (space.p,) + space.sample(0.5, 2050, 0)
    tracemalloc.start()
    try:
        dm = space.matrix(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.shape == (2052, 2052)
    assert peak <= 2.5 * dm.nbytes, peak


def test_pitched_grid_serves_large_clouds():
    # a point snapped past the scale is dropped on its own: redrawing the
    # whole cloud until all 256 snapped points stay within scale would fail
    grid = _grid()
    scale = 2.0**-12
    for seed in range(10):
        cloud = grid.sample(scale, 255, seed)
        assert len(cloud) == 256
        to_p = grid.matrix((grid.p,) + cloud)[0, 1:]
        assert scale / 2 <= to_p.max() <= scale, (seed, to_p.max())


def test_marked_point_outside_region():
    with pytest.raises(MarkedPointOutsideRegionError):
        make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [1, 1]}, [2, 0])
    with pytest.raises(MarkedPointOutsideRegionError):
        make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0], "radius": 1.0}, [0.5, 0])


def test_marked_point_snapped_out_of_the_cube():
    # p = 1 snaps to 1.2, where no sample of the cube could ever be drawn
    with pytest.raises(MarkedPointOutsideRegionError, match="snapped"):
        make_euclidean_subset(1, {"kind": "cube", "low": [0], "high": [1], "pitch": 0.6}, [1])
    # within the 1e-12 slack, as before snapping
    sp = make_euclidean_subset(1, {"kind": "cube", "low": [0], "high": [1 - 1e-13], "pitch": 0.5}, [1 - 1e-13])
    assert sp.p.tolist() == [1.0]


@pytest.mark.parametrize("pitch", [0, -0.5, float("inf"), float("nan")])
def test_pitch_must_be_positive_and_finite(pitch):
    with pytest.raises(ValueError, match="pitch"):
        make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": pitch}, [0, 0])


def test_curve_region():
    spec = CurveSpec(fn=lambda t: np.array([np.cos(t), np.sin(t)]), t0=0.0,
                     t_min=-3.0, t_max=3.0, lipschitz=1.0)
    sp = make_euclidean_subset(2, {"kind": "curve", "spec": spec}, [1.0, 0.0])
    t = sp.sample(0.05, 2, 1)
    assert 0.025 <= delta_scale(sp, t) <= 0.05


@pytest.mark.parametrize("seed", range(4))
def test_flat_box_draws_in_its_affine_hull(seed):
    # a normal draw in the whole space left every point off a zero-width
    # side, and the first rung spun 500 rejection batches into "sampler
    # failed to draw 1 points"; a segment's tangent is a line, a flat
    # square's a plane
    seg = make_euclidean_subset(2, {"kind": "cube", "low": [-3e-134, 0], "high": [3, 0]}, [0, 0])
    assert {float(x[1]) for x in seg.sample(0.5, 8, seed)} == {0.0}
    flat = make_euclidean_subset(3, {"kind": "cube", "low": [0, 0, 0], "high": [1, 1, 0]}, [0, 0, 0])
    consistent = "consistent-with-embeddable"
    assert [transfer_check(seg, n, seed=seed).verdict for n in (1, 2)] == [consistent, consistent]
    assert [transfer_check(flat, n, seed=seed).verdict for n in (1, 2)] == ["refuted", consistent]


def test_degenerate_cube_is_one_point_space():
    sp = make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [0, 0]}, [0, 0])
    t = sp.sample(0.1, 2, 0)
    assert delta_scale(sp, t) == 0.0


class TestSnowflake:
    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRangeError):
            make_snowflake(1.0, 2, [0, 0])
        with pytest.raises(AlphaOutOfRangeError):
            make_snowflake(0.0, 2, [0, 0])

    def test_metric_sanity(self):
        sp = make_snowflake(0.5, 1, [0.0])
        a, b = np.array([0.04]), np.array([0.09])
        assert sp.metric(a, b) == pytest.approx(np.sqrt(0.05))
        assert sp.metric(a, b) == sp.metric(b, a)
        assert sp.metric(a, a) == 0.0

    def test_frozen_subsets_are_metric(self):
        sp = make_snowflake(0.5, 2, [0.0, 0.0])
        for seed in range(100):
            fs, marked = freeze(sp, 0.3, 4, seed=seed)
            assert fs.n_points == 5
            assert marked == 0


class TestUltrametric:
    def test_dyadic_leaf_count(self):
        sp = make_ultrametric(3, 2)
        assert sp.description["depth"] == 3
        assert sp.metric((0, 0, 0), (1, 0, 0)) == 1.0
        assert sp.metric((0, 0, 0), (0, 0, 1)) == 0.25

    def test_ultra_triangle_exact(self):
        sp = make_ultrametric(5, 3)
        rng = np.random.default_rng(0)
        for _ in range(300):
            x, y, z = (tuple(rng.integers(0, 3, size=5)) for _ in range(3))
            assert sp.metric(x, z) <= max(sp.metric(x, y), sp.metric(y, z))

    def test_frozen_subsets_ultra_triangle(self):
        sp = make_ultrametric(6, 2)
        fs, _ = freeze(sp, 0.5, 6, seed=3)
        d = fs.dist
        n = fs.n_points
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= max(d[i, k], d[k, j]) + 0.0

    def test_scale_below_resolution(self):
        sp = make_ultrametric(3, 2)
        with pytest.raises(ValueError):
            sp.sample(1e-3, 2, 0)

    def test_depth_limit(self):
        # beyond depth 1075 distinct leaves can sit at 2^-1075 == 0.0
        with pytest.raises(ValueError, match="1075"):
            make_ultrametric(1076, 2)
        sp = make_ultrametric(1075, 2)
        assert sp.metric(sp.p, sp.p[:-1] + (1,)) == 2.0**-1074 > 0.0

    def test_arity_limit(self):
        # past 2^62 the sampler's int64 sum of two digits can wrap, and numpy
        # refused an arity past int64 in its own words
        for arity in (2**62 + 1, 2**63, 10**30):
            with pytest.raises(ValueError, match=rf"^arity {arity} > 2\^62: "):
                make_ultrametric(6, arity)
        sp = make_ultrametric(6, 2**62)
        assert all(0 <= d < 2**62 for leaf in sp.sample(0.5, 8, 0) for d in leaf)

    def test_deep_draws_stay_resolvable(self):
        # at level j no drawn leaf shares more than j + 53 digits with p,
        # so none collapses onto p against the anchor at 2^-j
        sp = make_ultrametric(400, 3)
        for j in (1, 6, 12):
            for seed in range(20):
                for x in sp.sample(2.0**-j, 4, seed):
                    assert x != sp.p and sp.metric(x, sp.p) >= 2.0 ** -(j + 53)

    @pytest.mark.parametrize("depth", [3, 1075])
    def test_matrix_of_no_point_and_of_one_point(self, depth):
        # the lexicographic path serves both, with no branch of its own
        sp = make_ultrametric(depth, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts in ((), (sp.p,)):
                m = sp.matrix(pts)
                assert m.shape == (len(pts), len(pts)) and not m.any()


class TestFreeze:
    def test_segment_freeze(self):
        fs, marked = freeze(segment(), 0.1, 4, seed=0)
        assert fs.n_points == 5
        assert marked == 0
        assert fs.labels[0] == "p"

    def test_deterministic(self):
        a, _ = freeze(circle(), 0.2, 5, seed=7)
        b, _ = freeze(circle(), 0.2, 5, seed=7)
        assert np.array_equal(a.dist, b.dist)
        c, _ = freeze(circle(), 0.2, 5, seed=8)
        assert not np.array_equal(a.dist, c.dist)

    def test_seed_sequence_children_freeze_distinct_spaces(self):
        # the attempt's seed dropped the sequence's spawn key, so both
        # children froze the space of the int seed 7
        a, b = np.random.SeedSequence(7).spawn(2)
        fa, _ = freeze(circle(), 0.2, 5, seed=a)
        fb, _ = freeze(circle(), 0.2, 5, seed=b)
        fs, _ = freeze(circle(), 0.2, 5, seed=7)
        assert not np.array_equal(fa.dist, fb.dist)
        assert not np.array_equal(fa.dist, fs.dist)
        # an int seed keeps its stream: attempt 0 draws from spawn key (0,)
        pts = [circle().p, *circle().sample(0.2, 4, np.random.SeedSequence(7, spawn_key=(0,)))]
        assert np.array_equal(fs.dist, circle().matrix(pts))

    def test_coincident_draws_are_redrawn(self):
        # a depth-3 tree has 8 leaves, so the first draw of seed 0 repeats one
        sp = make_ultrametric(3, 2)
        first = sp.matrix([sp.p, *sp.sample(0.5, 2, np.random.SeedSequence(0, spawn_key=(0,)))])
        assert np.min(first + np.diag(np.full(4, np.inf))) == 0.0
        fs, _ = freeze(sp, 0.5, 3, seed=0)
        assert fs.n_points == 4 and np.min(fs.dist + np.diag(np.full(4, np.inf))) > 0.0

    def test_euclidean_freezes_pass_schoenberg_at_ambient_dim(self):
        for seed in range(10):
            fs, _ = freeze(plane(), 0.3, 5, seed=seed)
            assert schoenberg_check(fs, 2).embeddable == "yes"
        for seed in range(5):
            fs, _ = freeze(circle(), 0.2, 5, seed=seed)
            assert schoenberg_check(fs, 2).embeddable == "yes"


class TestAsMarked:
    def test_finite_view(self):
        fin = validate_metric([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        mk = as_marked(fin, 0)
        assert mk.metric(1, 2) == 2.0
        # gathered through submatrix: -1 read the last point's distances
        with pytest.raises(IndexOutOfRangeError):
            mk.metric(-1, 0)
        t = mk.sample(1.0, 2, 0)
        assert 0.5 <= delta_scale(mk, t) <= 1.0
        assert mk.point_repr(1) == "x1"

    def test_no_anchor_raises(self):
        fin = validate_metric([[0, 1], [1, 0]])
        mk = as_marked(fin, 0)
        with pytest.raises(ValueError):
            mk.sample(0.1, 1, 0)


class TestGenerators:
    def test_perturbed_spaces_are_valid_and_deterministic(self):
        a = perturbed_euclidean_space(6, seed=1)
        b = perturbed_euclidean_space(6, seed=1)
        assert np.array_equal(a.dist, b.dist)
        assert a.n_points == 6

    def test_perturbed_space_redraws_only_on_axiom_failures(self, monkeypatch):
        # any ValueError was redrawn 500 times and surfaced as a RuntimeError
        def fault(raw):
            raise ValueError("fault")

        monkeypatch.setattr("metricembed.spaces.validate_metric", fault)
        with pytest.raises(ValueError, match="^fault$"):
            perturbed_euclidean_space(5, seed=0)

    def test_config_round(self):
        sp = marked_space_from_config({"type": "euclidean", "dim": 2,
                                       "region": {"kind": "cube", "low": [0, 0], "high": [1, 1]},
                                       "p": [0, 0]})
        assert sp.description["type"] == "euclidean"
        sp2 = marked_space_from_config({"type": "snowflake", "alpha": 0.5, "dim": 1, "p": [0.0]})
        assert sp2.description["alpha"] == 0.5
        sp3 = marked_space_from_config({"type": "ultrametric", "depth": 4, "arity": 2})
        assert sp3.description["arity"] == 2
        with pytest.raises(ValueError):
            marked_space_from_config({"type": "hyperbolic"})


def _one_too_many():
    space = plane()
    return dataclasses.replace(space, sampler=lambda scale, k, seed: space.sample(scale, k + 1, seed))


def _away_from_curve():
    spec = CurveSpec(fn=lambda t: np.array([t, 0.0]), t0=0.0, t_min=-1.0, t_max=1.0)
    return make_euclidean_subset(2, {"kind": "curve", "spec": spec}, [0.0, 1.0])


@pytest.mark.parametrize("call,error,message", [
    (lambda: make_euclidean_subset(0, {"kind": "cube"}, []), ValueError, "dimension must be an integer >= 1, got 0"),
    (lambda: make_euclidean_subset(2, {"kind": "cube"}, [0.0]), ValueError, "marked point must have 2 coordinates"),
    (lambda: make_euclidean_subset(2, {"kind": "cube", "low": [0], "high": [1]}, [0.5, 0.5]),
     ValueError, "low must have 2 coordinates"),
    (lambda: make_euclidean_subset(2, {"kind": "cube", "low": [[0, 0]]}, [0.5, 0.5]),
     ValueError, "low must have 2 coordinates"),
    (lambda: make_euclidean_subset(2, {"kind": "cube", "low": [0, 0, 0], "high": [1, 1, 1]}, [0.5, 0.5]),
     ValueError, "low must have 2 coordinates"),
    (lambda: make_euclidean_subset(2, {"kind": "cube", "high": [1, 1, 1]}, [0.5, 0.5]),
     ValueError, "high must have 2 coordinates"),
    (lambda: make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0, 0], "radius": 1}, [1, 0]),
     ValueError, "center must have 2 coordinates"),
    (lambda: make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0], "radius": "1"}, [1, 0]),
     ValueError, "radius must be a positive finite number, got '1'"),
    (lambda: make_euclidean_subset(2, {"kind": "cube", "pitch": "0.25"}, [0.5, 0.5]),
     ValueError, "pitch must be a positive finite number, got '0.25'"),
    (lambda: make_euclidean_subset(2, {"kind": "cube", "pitch": True}, [0.5, 0.5]),
     ValueError, "pitch must be a positive finite number, got True"),
    (lambda: make_snowflake("0.5", 1, [0.5]), AlphaOutOfRangeError, "alpha must lie in (0,1), got '0.5'"),
    (lambda: make_snowflake(True, 1, [0.5]), AlphaOutOfRangeError, "alpha must lie in (0,1), got True"),
    # the default region multiplied a list by the dimension: Python's own TypeError
    (lambda: make_snowflake(0.5, 2.5, [0.0, 0.0]), ValueError, "dimension must be an integer >= 1, got 2.5"),
    (lambda: make_euclidean_subset(1, {"kind": "sphere-surface", "center": [0.0], "radius": 1.0}, [1.0]),
     ValueError, "sphere-surface region needs dim >= 2"),
    (_away_from_curve, MarkedPointOutsideRegionError, "p must equal fn(t0)"),
    (lambda: make_euclidean_subset(2, {"kind": "curve", "spec": CurveSpec(
        fn=lambda t: np.array([t, 0.0, 0.0]), t0=0.0, t_min=-1.0, t_max=1.0)}, [0.0, 0.0]),
     ValueError, "fn(t0) must have 2 coordinates"),
    (lambda: make_euclidean_subset(2, {"kind": "curve", "spec": CurveSpec(
        fn=lambda t: [t, "0"], t0=0.0, t_min=-1.0, t_max=1.0)}, [0.0, 0.0]),
     ValueError, "fn(t0) has a coordinate that is not a number: [0.0, '0']"),
    (lambda: make_euclidean_subset(2, {"kind": "cube"}, [0.0, None]), ValueError,
     "marked point has a coordinate that is not a number: [0.0, None]"),
    (lambda: make_euclidean_subset(1, {"kind": "ball"}, [0.0]), ValueError, "unknown region kind 'ball'"),
    (lambda: make_euclidean_subset(1, {}, [0.0]), ValueError, 'the region has no "kind" key'),
    (lambda: make_snowflake(0.5, 1, [0.0], ["cube"]), ValueError, "the region must be a JSON object, got list"),
    (lambda: make_snowflake(0.5, 2, [0.0, 1.0], {"kind": "sphere-surface", "center": [0, 0], "radius": 1.0}),
     ValueError, "snowflake spaces support cube regions only"),
    (lambda: make_ultrametric(1, 3), ValueError, "depth must be an integer >= 2, got 1"),
    (lambda: make_ultrametric(4, 1), ValueError, "arity must be an integer >= 2, got 1"),
    (lambda: make_ultrametric(3, 2, [0, 2, 1]), MarkedPointOutsideRegionError, "marked leaf (0, 2, 1) not in the tree"),
    (lambda: freeze(segment(), 0.5, count=0), ValueError, "count must be an integer >= 1, got 0"),
    # every draw of a one-point cube coincides with p
    (lambda: freeze(make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [0, 0]}, [0, 0]), 0.1, 2),
     RuntimeError, "freeze: coincident samples persisted over 100 attempts at scale 0.1"),
    # no 4 points of the unit square are 2 apart
    (lambda: perturbed_euclidean_space(4, min_distance=2.0), RuntimeError,
     "failed to draw a valid perturbed metric space"),
    (lambda: as_marked(validate_metric([[0, 1], [1, 0]]), 2), IndexOutOfRangeError, "2 is not an index of the 2 points"),
    (lambda: as_marked(validate_metric([[0, 1], [1, 0]]), 1.0), IndexOutOfRangeError,
     "1.0 is not an index of the 2 points"),
    # an integer past the largest float passed the number rule and ended in a bare OverflowError
    (lambda: segment().sample(10**400, 2), ValueError, f"scale must be a positive finite number, got {10**400!r}"),
    (lambda: freeze(segment(), 10**400, 2), ValueError, f"scale must be a positive finite number, got {10**400!r}"),
    # NaN, -1 and inf spun 500 rejection batches into "sampler failed to draw 1 points"
    *[(lambda scale=scale: plane().sample(scale, 2), ValueError,
       f"scale must be a positive finite number, got {scale!r}") for scale in (math.nan, -1, math.inf)],
    # a scale below the float resolution at p spun 500 rejection batches into "sampler failed to draw 1 points"
    *[(lambda scale=scale: make_euclidean_subset(2, {"kind": "cube"}, [0.5, 0.5]).sample(scale, 2), ValueError,
       f"cannot sample scale {scale!r} at p = [0.5, 0.5]: it lies below the float resolution there, "
       "so no point but p is within it") for scale in (1e-300, 4e-17)],
    # k = -1 drew 6 points on the cube, and met numpy's "negative dimensions are not allowed" on the others
    *[(lambda make=make: make().sample(0.5, -1), ValueError, "k must be an integer >= 0, got -1")
      for make in (plane, lambda: make_ultrametric(4, 2), lambda: as_marked(validate_metric([[0, 1], [1, 0]]), 0))],
    # 1.5 and "1" met numpy's TypeError, -1 its ValueError, and True drew as 1
    *[(lambda seed=seed: plane().sample(0.5, 2, seed=seed), ValueError, f"seed must be an integer >= 0, got {seed!r}")
      for seed in (1.5, -1, True, "1")],
    # one point too many was drawn as it came, and freeze reported "4 labels for 5 points"
    (lambda: _one_too_many().sample(0.5, 2), ArityMismatchError, "sampler returned 4 points where k = 2 asks for 3"),
    (lambda: freeze(_one_too_many(), 0.5, 3), ArityMismatchError, "sampler returned 4 points where k = 2 asks for 3"),
    # a seed is a count: 1.5 met numpy's TypeError, -1 its ValueError, and True ran as 1
    *[(lambda seed=seed: freeze(segment(), 0.5, 2, seed=seed), ValueError,
       f"seed must be an integer >= 0, got {seed!r}") for seed in (1.5, -1, True)],
    *[(lambda seed=seed: perturbed_euclidean_space(4, seed=seed), ValueError,
       f"seed must be an integer >= 0, got {seed!r}") for seed in (1.5, -1, True)],
    # "a" met a unary minus, NaN numpy's "high - low range exceeds valid bounds", None a comparison, and
    # a negative or NaN bound was taken as it came
    *[(lambda v=v: perturbed_euclidean_space(4, perturbation=v), ValueError,
       f"perturbation must be a finite number >= 0, got {v!r}") for v in ("a", math.nan, math.inf, -0.1)],
    *[(lambda v=v: perturbed_euclidean_space(4, min_distance=v), ValueError,
       f"min_distance must be a number >= 0, got {v!r}") for v in (None, math.nan, -1.0)],
    # a scale whose half lies past every point of the region spun 500
    # rejection batches into "sampler failed to draw 1 points"
    (lambda: make_euclidean_subset(2, {"kind": "cube"}, [0.5, 0.5]).sample(4.0, 2), ValueError,
     "cannot sample scale 4.0 at p = [0.5, 0.5]: its half exceeds 0.7071067811865476, the region's reach from p"),
    (lambda: make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0], "radius": 1.0}, [1, 0]).sample(
        5.0, 2), ValueError, "cannot sample scale 5.0 at p = [1.0, 0.0]: its half exceeds 2.0, the region's reach from p"),
    # the marked point was judged at an absolute slack: the centre of a
    # sphere of radius 1e-12 was on its surface, and a point five widths
    # outside a box of width 1e-13 inside it
    (lambda: make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0], "radius": 1e-12}, [0, 0]),
     MarkedPointOutsideRegionError, "p=[0.0, 0.0] not on the sphere surface"),
    (lambda: make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [1e-13, 1e-13]}, [-5e-13, 0]),
     MarkedPointOutsideRegionError, "p=[-5e-13, 0.0] outside cube [[0.0, 0.0], [1e-13, 1e-13]]"),
    # a Euclidean scale that underflowed to 0 drew p alone, and one that
    # overflowed ended in "(34, 'Numerical result out of range')"
    (lambda: make_snowflake(5e-4, 1, [0.5]).sample(0.5, 2), ValueError,
     "a snowflake of alpha 0.0005 cannot sample scale 0.5: its Euclidean scale, scale ** (1 / alpha), is 0.0"),
    (lambda: make_snowflake(1e-300, 1, [0.5]).sample(1e10, 2), ValueError,
     "a snowflake of alpha 1e-300 cannot sample scale 10000000000.0: its Euclidean scale, scale ** (1 / alpha), "
     "is inf"),
])
def test_construction_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_sample_refuses_what_is_not_a_number_or_a_count():
    # sample cast its arguments: k = 2.7 drew 3 points and the scale "0.25"
    # was read as a number
    for scale, k, message in ((0.25, 2.7, "k must be an integer >= 0, got 2.7"),
                              ("0.25", 2, "scale must be a positive finite number, got '0.25'"),
                              (0.25, True, "k must be an integer >= 0, got True"),
                              (None, 2, "scale must be a positive finite number, got None")):
        with pytest.raises(ValueError) as exc:
            segment().sample(scale, k)
        assert str(exc.value) == message
    assert len(segment().sample(0.25, 2)) == len(segment().sample(np.float64(0.25), np.int64(2))) == 3


@pytest.mark.parametrize("call", [
    lambda: freeze(segment(), 0.5, count=2.5),
    lambda: freeze(segment(), "0.5", count=2),
    lambda: make_euclidean_subset(2.0, {"kind": "cube"}, [0.5, 0.5]),
    lambda: make_ultrametric(3.5, 2),
    lambda: make_ultrametric(3, 2.0),
    lambda: perturbed_euclidean_space(5.0),
    lambda: perturbed_euclidean_space(5, dim=2.0),
    lambda: perturbed_euclidean_space(0),
], ids=["freeze-count", "freeze-scale", "euclidean-dim", "ultrametric-depth", "ultrametric-arity",
        "perturbed-n-points", "perturbed-dim", "perturbed-no-points"])
def test_counts_refused_at_the_entry(call):
    # each reached a TypeError inside numpy or range, except the arity 2.0,
    # which built a tree, and no points, which numpy refused as an empty reduction
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
