"""Infinitesimal layer: functionals, stability, identification, scanners.

Derived values used below:

* diametral pair (both points at distance 1 from p, 2 apart):
  D_1 = 2 * 2^2 = 8, delta = 1, so Theta_2 = S_2 = 8.
* epsilon-square triple in the plane, p at the corner: the right isoceles
  triangle has area eps^2/2, so D_2 = -16 (eps^2/2)^2 = -4 eps^4 while
  delta = eps * sqrt(2), giving Theta_3 = 4 eps^4 / (4 eps^4) = 1.
* orthogonal-axes sequences x1_m = (r_m, 0), x2_m = (0, r_m): rescaled
  limits are exactly 1, 1, sqrt(2).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricembed import (
    MarkedSpace,
    NormalizingSequence,
    as_marked,
    blumenthal_basis_search,
    blumenthal_sequence_scan,
    build_probe_battery,
    constant_sequence,
    delta_scale,
    epsilon_scale,
    liminf_scan,
    make_euclidean_subset,
    make_snowflake,
    make_ultrametric,
    marked_family,
    metric_identification,
    min_embedding_dimension,
    mutual_stability,
    pseudometric_matrix,
    s_functional,
    scale_ladder,
    theta,
    transfer_check,
    validate_metric,
)
from metricembed.errors import (
    ArityMismatchError,
    AsymmetricError,
    DegenerateNormalizerError,
    DimensionOutOfRangeError,
    EmptySampleError,
    MergeInconsistencyError,
    NonconvergentSequenceError,
    NonpositiveExponentError,
    NonzeroDiagonalError,
    SamplerScaleMismatchError,
    TupleTooShortError,
    UnstableInputError,
)
from metricembed import pretangent
from metricembed.determinants import within_band
from metricembed.sequences import PseudometricMatrix, StabilityVerdict


E1, E2 = np.eye(2)

#: tolerances of the zero rule that every function taking one refuses
BAD_TOL_DET = (math.nan, math.inf, -1.0, 0.0)


def plane(p=(0.0, 0.0)):
    return make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [1, 1]}, list(p))


def segment():
    return make_euclidean_subset(1, {"kind": "cube", "low": [0.0], "high": [1.0]}, [0.0])


def circle():
    return make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0], "radius": 1.0}, [1, 0])


def stretched_triple(stretch=1.5e-8):
    # at every scale s the sampler draws p and k points at distance s from
    # it, each pair of them 2s(1 + stretch) apart. A triple (p, a, b) has
    # normalized sides 1, 1, c = 2(1 + stretch), so
    # Theta_3 = (2 + c) c^2 (2 - c) ~ -32 * stretch = -4.8e-7; a triple
    # off p is equilateral with side c, so Theta_3 = 3 c^4 > 0
    p = ("p", 0.0)

    def metric(x, y):
        if x == y:
            return 0.0
        if p in (x, y):
            return max(x[1], y[1])
        return (x[1] + y[1]) * (1.0 + stretch)

    return MarkedSpace(metric=metric, p=p,
                       sampler=lambda scale, k, seed: (p,) + tuple((i, scale) for i in range(k)))


def tripod():
    # three rays from p under the path metric, so every rescaled limit at
    # p is the tripod itself. Four points on all three rays embed in no
    # E^n: the one nearer p of the two on one ray lies between the other
    # three, which puts two of them on one Euclidean ray from it at their
    # tree distance apart, impossible. Every triangle embeds, so it is the
    # k = 3 sign condition that breaks.
    def metric(x, y):
        return abs(x[1] - y[1]) if x[0] == y[0] else x[1] + y[1]

    def sampler(scale, k, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(scale / 2, scale, size=k + 1)
        return tuple(zip(rng.integers(0, 3, size=k + 1).tolist(), t.tolist()))

    return MarkedSpace(metric=metric, p=(0, 0.0), sampler=sampler)


def diametral_marked():
    # p = index 0; two points at distance 1 from p and 2 from each other
    return as_marked(validate_metric([[0, 1, 1], [1, 0, 2], [1, 2, 0]]), 0)


class TestScales:
    def test_delta(self):
        sp = plane()
        assert delta_scale(sp, (np.zeros(2), np.zeros(2))) == 0.0
        assert delta_scale(sp, (np.array([0, 2.0]), np.zeros(2))) == 2.0
        pts = (np.array([1.0, 0]), np.array([3.0, 0]), np.array([2.0, 0]))
        sp_wide = make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [4, 4]}, [0, 0])
        assert delta_scale(sp_wide, pts) == 3.0

    def test_epsilon(self):
        sp = make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [5, 5]}, [0, 0])
        assert epsilon_scale(sp, (np.zeros(2), np.zeros(2)), 2) == 0.0
        t = (np.array([3.0, 0.0]), np.array([0.0, 4.0]))
        assert epsilon_scale(sp, t, 2) == pytest.approx(5.0)
        ones = (np.array([1.0, 0]),) * 3
        assert epsilon_scale(sp, ones, 1) == pytest.approx(3.0)
        with pytest.raises(NonpositiveExponentError):
            epsilon_scale(sp, t, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=4))
    def test_epsilon_delta_comparability(self, s, seed, k):
        sp = plane()
        t = sp.sample(0.3, k, seed)
        delta = delta_scale(sp, t)
        eps = epsilon_scale(sp, t, s)
        n = len(t)
        assert delta <= eps * (1 + 1e-12)
        assert eps <= n ** (1.0 / s) * delta * (1 + 1e-12)

    @pytest.mark.parametrize("s", [1e3, 1e6, math.inf])
    def test_epsilon_at_large_exponents(self, s):
        # the unscaled s-norm underflowed to 0.0 at s = 1e6 and read 1.0 at s = inf
        sp = make_euclidean_subset(2, {"kind": "cube", "low": [-1, -1], "high": [1, 1]}, [0, 0])
        t = (np.array([0.3, 0.0]), np.array([0.0, 0.4]))
        assert 0.4 <= epsilon_scale(sp, t, s) <= 2 ** (1.0 / s) * 0.4 * (1 + 1e-12)


class TestThetaAndS:
    def test_diametral_pair(self):
        sp = diametral_marked()
        assert theta(sp, (1, 2)) == pytest.approx(8.0)
        assert s_functional(sp, (1, 2)) == pytest.approx(8.0)
        # both points at distance 1 from p and 1 apart: the normalized
        # matrix has unit entries, so D_1 = 2
        tri = as_marked(validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), 0)
        assert theta(tri, (1, 2)) == pytest.approx(2.0)
        assert s_functional(tri, (1, 2)) == pytest.approx(2.0)

    def test_epsilon_square_triple(self):
        sp = plane()
        for eps in (0.25, 1e-2, 1e-5, 1e-8):
            t = (np.array([eps, 0.0]), np.array([0.0, eps]), np.array([eps, eps]))
            assert theta(sp, t) == pytest.approx(1.0, rel=1e-9)
            assert s_functional(sp, t) == pytest.approx(1.0, rel=1e-9)

    def test_all_p_tuple(self):
        sp = plane()
        for k in (1, 2):
            assert theta(sp, (np.zeros(2),) * (k + 1)) == 0.0
            assert s_functional(sp, (np.zeros(2),) * (k + 1)) == 0.0

    def test_too_short(self):
        with pytest.raises(TupleTooShortError):
            theta(plane(), (np.zeros(2),))

    def test_theta_equals_s_pointwise(self):
        sp = plane((0.3, 0.4))
        for seed in range(50):
            k = 1 + seed % 4
            t = sp.sample(0.2, k, seed)
            a, b = theta(sp, t), s_functional(sp, t)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_scale_invariance_of_theta(self):
        # scaling the whole configuration (p's distances included) cancels:
        # degree-2k numerator against delta^2k
        sp_small = plane()
        sp_big = make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [100, 100]}, [0, 0])
        base = (np.array([0.1, 0.0]), np.array([0.0, 0.1]), np.array([0.07, 0.09]))
        lam = 37.0
        scaled = tuple(lam * x for x in base)
        for functional in (theta, s_functional):
            assert functional(sp_big, scaled) == pytest.approx(functional(sp_small, base), rel=1e-9)

    def test_normalized_entries_bounded_and_hadamard(self):
        # entries of m/delta never exceed 2; |Theta| obeys the Hadamard
        # bound of the bordered matrix, computed here rather than hard-coded
        sp = plane((0.5, 0.5))
        for seed in range(30):
            k = 1 + seed % 4
            t = sp.sample(0.3, k, seed)
            delta = delta_scale(sp, t)
            if delta == 0:
                continue
            norm = sp.matrix(t) / delta
            assert float(norm.max()) <= 2.0 + 1e-12
            order = k + 2
            hadamard = (math.sqrt(order) * 4.0) ** order
            assert abs(theta(sp, t)) <= hadamard


class TestMutualStability:
    def test_same_sequence_stable_zero(self):
        sp = segment()
        r = NormalizingSequence.geometric(1.0, 0.5)
        x = lambda m: np.array([0.5**m])
        v = mutual_stability(sp, x, x, r)
        assert v.status == "stable" and v.limit == 0.0

    def test_exact_ratio_three(self):
        sp = segment()
        r = NormalizingSequence.geometric(1.0, 0.5)
        x = lambda m: np.array([3.0 * 0.5**m])
        v = mutual_stability(sp, x, constant_sequence(sp.p), r)
        assert v.status == "stable"
        assert v.limit == pytest.approx(3.0)
        assert v.oscillation <= 1e-12

    def test_oscillating_unstable(self):
        sp = segment()
        r = NormalizingSequence.geometric(1.0, 0.5)
        x = lambda m: np.array([(1.0 if m % 2 == 0 else 2.0) * 0.5**m])
        v = mutual_stability(sp, x, constant_sequence(sp.p), r)
        assert v.status == "unstable"
        assert v.oscillation == pytest.approx(1.0)

    def test_slow_convergence_undetermined_not_unstable(self):
        sp = segment()
        r = NormalizingSequence.geometric(1.0, 0.5)
        x = lambda m: np.array([(1.0 + 1.0 / (m + 1)) * 0.5**m])
        v = mutual_stability(sp, x, constant_sequence(sp.p), r, depth=64, tol=1e-4)
        assert v.status == "undetermined"

    def test_degenerate_normalizer(self):
        sp = segment()
        r = NormalizingSequence(fn=lambda m: 1e-3 ** (m + 100))
        with pytest.raises(DegenerateNormalizerError):
            mutual_stability(sp, constant_sequence(sp.p), constant_sequence(sp.p), r)

    def test_depth_minimum(self):
        sp = segment()
        r = NormalizingSequence.geometric()
        with pytest.raises(ValueError):
            mutual_stability(sp, constant_sequence(sp.p), constant_sequence(sp.p), r, depth=8)


def orthogonal_axes_family(sp, r):
    from metricembed import marked_family
    x1 = lambda m: np.array([r(m), 0.0])
    x2 = lambda m: np.array([0.0, r(m)])
    return marked_family(sp, x1, x2)


class TestPseudometric:
    def test_single_constant_family(self):
        sp = plane()
        r = NormalizingSequence.geometric()
        pm = pseudometric_matrix(sp, [constant_sequence(sp.p)], r)
        assert pm.all_stable
        assert pm.limits.tolist() == [[0.0]]

    def test_orthogonal_axes_limits(self):
        sp = plane()
        r = NormalizingSequence.geometric()
        pm = pseudometric_matrix(sp, orthogonal_axes_family(sp, r), r)
        expected = np.array([[0, 1, 1], [1, 0, np.sqrt(2)], [1, np.sqrt(2), 0]])
        assert pm.all_stable
        assert np.allclose(pm.limits, expected, atol=1e-12)

    def test_oscillating_member_flags_unstable(self):
        sp = plane()
        r = NormalizingSequence.geometric()
        osc = lambda m: np.array([(1.0 if m % 2 == 0 else 2.0) * r(m), 0.0])
        pm = pseudometric_matrix(sp, orthogonal_axes_family(sp, r) + (osc,), r)
        assert not pm.all_stable
        with pytest.raises(UnstableInputError):
            _ = pm.limits


class TestMetricIdentification:
    def _stable(self, value):
        return StabilityVerdict("stable", float(value), 64, 0.0)

    def _pm(self, limits):
        n = len(limits)
        grid = tuple(tuple(self._stable(limits[i][j]) for j in range(n)) for i in range(n))
        return PseudometricMatrix(grid)

    def test_all_zero_single_class(self):
        q = metric_identification(self._pm([[0, 0], [0, 0]]))
        assert q.classes == ((0, 1),)
        assert q.rho.n_points == 1

    def test_orthogonal_axes_three_classes(self):
        sp = plane()
        r = NormalizingSequence.geometric()
        pm = pseudometric_matrix(sp, orthogonal_axes_family(sp, r), r)
        q = metric_identification(pm)
        assert q.classes == ((0,), (1,), (2,))
        d = q.rho.dist
        assert sorted([d[0, 1], d[0, 2], d[1, 2]]) == pytest.approx([1.0, 1.0, np.sqrt(2)])

    def test_tolerance_merge(self):
        q = metric_identification(self._pm([[0, 1e-15], [1e-15, 0]]), merge_tol=1e-9)
        assert q.classes == ((0, 1),)

    def test_merge_inconsistency(self):
        # a near-zero chain 0~1, 1~2 linking 0 and 2 at distance 1
        limits = [[0, 1e-12, 1.0], [1e-12, 0, 1e-12], [1.0, 1e-12, 0]]
        with pytest.raises(MergeInconsistencyError):
            metric_identification(self._pm(limits), merge_tol=1e-9)

    def test_merge_inconsistency_message_prints_a_float(self):
        # under numpy 2 the message read "sit at np.float64(1.0)"
        limits = [[0, 1e-12, 1.0], [1e-12, 0, 1e-12], [1.0, 1e-12, 0]]
        with pytest.raises(MergeInconsistencyError) as exc:
            metric_identification(self._pm(limits), merge_tol=1e-9)
        assert str(exc.value) == "indices 0 and 2 merged through a near-zero chain but sit at 1.0"

    @pytest.mark.parametrize("limits,error", [
        ([[0, 1], [1, 0.5]], NonzeroDiagonalError),
        ([[0, 1], [2, 0]], AsymmetricError),
    ], ids=["diagonal", "asymmetric"])
    def test_malformed_grid_is_refused_not_repaired(self, limits, error):
        # the representatives' limits were symmetrized and zero-filled
        # before validation, so a grid that is no pseudometric passed
        with pytest.raises(error):
            metric_identification(self._pm(limits))

    def test_unstable_input(self):
        grid = ((StabilityVerdict("unstable", None, 64, 1.0),),)
        with pytest.raises(UnstableInputError):
            metric_identification(PseudometricMatrix(grid))

    def test_quotient_is_valid_metric(self):
        # slower normalizer: with q = 0.5 the offsets would fall below the
        # double-precision resolution of p = (0.2, 0.7) inside the window
        sp = plane((0.2, 0.7))
        r = NormalizingSequence.geometric(0.5, 0.8)
        x1 = lambda m: np.clip(np.array([0.2 + r(m), 0.7]), 0, 1)
        x1b = lambda m: np.clip(np.array([0.2 + r(m) * (1 + 1e-14), 0.7]), 0, 1)
        x2 = lambda m: np.clip(np.array([0.2, 0.7 + 2 * r(m)]), 0, 1)
        pm = pseudometric_matrix(sp, [constant_sequence(sp.p), x1, x1b, x2], r)
        q = metric_identification(pm, merge_tol=1e-6)
        assert q.classes == ((0,), (1, 2), (3,))
        assert q.rho.n_points == 3  # validate_metric ran inside
        d = q.rho.dist
        assert d[0, 1] == pytest.approx(1.0, abs=1e-8)
        assert d[0, 2] == pytest.approx(2.0, abs=1e-8)
        assert d[1, 2] == pytest.approx(np.sqrt(5.0), abs=1e-8)


    @pytest.mark.parametrize("offsets,merge_tol,classes,dim", [
        ((lambda r: r * E1, lambda r: r * E2, lambda r: -r * E1), 1e-9, ((0,), (1,), (2,), (3,)), 2),
        ((lambda r: r * E1, lambda r: 2 * r * E1, lambda r: -r * E1), 1e-9, ((0,), (1,), (2,), (3,)), 1),
        ((lambda r: r * E1, lambda r: r * E1 + r**2 * E2, lambda r: r * E2), 1e-6, ((0,), (1, 2), (3,)), 2),
    ], ids=["axes", "collinear", "merged"])
    def test_limit_space_goes_to_the_finite_decider(self, offsets, merge_tol, classes, dim):
        # the quotient's rho is a finite metric space as it stands: the
        # finite decider reads the limit space's dimension off it. The
        # unit square is marked at its centre, so every offset stays inside
        sp = plane((0.5, 0.5))
        r = NormalizingSequence.geometric(0.5, 0.5)
        family = marked_family(sp, *(lambda m, f=f: sp.p + f(r(m)) for f in offsets))
        q = metric_identification(pseudometric_matrix(sp, family, r, depth=40), merge_tol=merge_tol)
        assert q.classes == classes
        assert min_embedding_dimension(q.rho).dim == dim
        assert blumenthal_basis_search(q.rho, dim) is not None

    @pytest.mark.parametrize("depth", [40, 48])
    def test_slowly_vanishing_distance_merges_at_default_merge_tol(self, depth):
        # d(x_m, y_m) / r_m = r_m tends to 0. The window's last ratio reads
        # 0 (r_m^2 is below the resolution of p's coordinates by then); the
        # window mean, 4.7e-8 at depth 40, still carried the early terms
        sp = plane((0.5, 0.5))
        r = NormalizingSequence.geometric(0.5, 0.5)
        family = marked_family(sp, lambda m: sp.p + r(m) * E1, lambda m: sp.p + r(m) * E1 + r(m) ** 2 * E2)
        q = metric_identification(pseudometric_matrix(sp, family, r, depth=depth))
        assert q.classes == ((0,), (1, 2))


class TestScanLadder:
    def test_ladder(self):
        s = scale_ladder(0.5, 0.5, 12)
        assert len(s) == 12
        assert s[0] == 0.5 and s[-1] == pytest.approx(0.5 * 2.0**-11)
        with pytest.raises(ValueError):
            scale_ladder(0.5, 1.5, 4)

    @pytest.mark.parametrize("args", [(5e-324, 0.9, 3), (1.3983181038818222, 0.9999999999999999, 6),
                                      (0.5, 0.5, 1), (0.5, 0.5, 10**8)])
    def test_ladder_that_collapses_is_refused(self, args):
        # subnormal rungs, or q within an ulp of 1, round two rungs to one
        # float; one rung is no ladder; the last of 10^8 rungs underflows
        with pytest.raises(ValueError):
            scale_ladder(*args)

    @pytest.mark.parametrize("scales", [[float("nan"), 0.1], [float("inf"), 0.5], [0.5, float("nan")],
                                        [0.5, 0.5], [0.5, 0.0], [0.5]])
    def test_scan_refuses_bad_scales_before_any_draw(self, scales):
        draws = []
        sp = dataclasses.replace(plane((0.3, 0.4)), sampler=lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="strictly decreasing"):
            transfer_check(sp, 1, scales=scales)
        assert draws == []


class TestLiminfScan:
    def test_segment_collinear_theta3_at_noise_floor(self):
        rep = liminf_scan(segment(), 2, samples_per_scale=48, condition="vanishing", seed=0)
        # collinear triples: D_2 = 0, so per-scale extremes sit at rounding noise
        assert all(abs(v) <= 1e-12 for v in rep.per_scale_inf)
        assert all(abs(v) <= 1e-12 for v in rep.per_scale_sup)
        assert rep.verdict == "supports"

    def test_theta2_always_nonnegative(self):
        rep = liminf_scan(circle(), 1, samples_per_scale=48, condition="sign", seed=2)
        assert rep.running_liminf >= 0.0
        assert rep.verdict == "supports"

    def test_circle_theta3_decays_quadratically(self):
        rep = liminf_scan(circle(), 2, samples_per_scale=96, condition="vanishing", seed=1)
        assert rep.verdict == "supports"
        assert rep.trend == pytest.approx(2.0, abs=0.3)

    def test_report_invariants_and_json(self):
        rep = liminf_scan(circle(), 2, samples_per_scale=32, condition="vanishing", seed=9)
        assert len(rep.per_scale_inf) == len(rep.scales)
        assert len(rep.per_scale_sup) == len(rep.scales)
        tail = len(rep.scales) // 2
        assert rep.running_liminf == min(rep.per_scale_inf[tail:])
        assert rep.running_limsup == max(rep.per_scale_sup[tail:])
        d = rep.to_json_dict()
        assert d["k"] == 2 and len(d["scales"]) == 12
        assert d["witness_sup"] is not None

    def test_determinism(self):
        a = liminf_scan(circle(), 2, samples_per_scale=16, seed=3)
        b = liminf_scan(circle(), 2, samples_per_scale=16, seed=3)
        assert a.per_scale_inf == b.per_scale_inf
        assert a.per_scale_sup == b.per_scale_sup

    def test_sampler_scale_mismatch(self):
        sp = plane()
        bad = dataclasses.replace(sp, sampler=lambda scale, k, seed: sp.sample(min(0.5, scale * 8), k, seed))
        with pytest.raises(SamplerScaleMismatchError):
            liminf_scan(bad, 1, scales=[0.01, 0.005], samples_per_scale=4)

    def test_sampler_arity_mismatch(self):
        # a sampler asked for k more points must return k + 1 in all
        sp = plane()
        short = dataclasses.replace(sp, sampler=lambda scale, k, seed: sp.sample(scale, k, seed)[:-1])
        with pytest.raises(ArityMismatchError):
            liminf_scan(short, 2, samples_per_scale=4)

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            liminf_scan(plane(), 1, samples_per_scale=0)
        with pytest.raises(EmptySampleError):
            transfer_check(plane(), 1, samples_per_scale=0)

    @pytest.mark.parametrize("mode", ["theta", "s"])
    def test_sign_threshold_follows_tol_det(self, mode):
        # Theta_3 = -4.8e-7 lies below -1e-7 (the floor at the default
        # tol_det 1e-8) and above -1e-6 (the floor at tol_det 1e-7)
        rep = liminf_scan(stretched_triple(), 2, samples_per_scale=2, mode=mode)
        assert rep.running_liminf == pytest.approx(-4.8e-7, rel=1e-3)
        assert rep.verdict == "inconclusive"
        assert liminf_scan(stretched_triple(), 2, samples_per_scale=2, mode=mode,
                           tol_det=1e-7).verdict == "supports"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: every rung takes the same index tuples, so a seed whose "
                                       "tuples miss the violating triple misses it on every rung")
def test_stretched_triple_never_supported():
    # every cloud holds the triple (p, a, b) with Theta_3 = -4.8e-7; seeds
    # 3, 4, 13, 14, 18, 20, 27, 32, 33, 35, 37 and 39 read supports
    verdicts = [liminf_scan(stretched_triple(), 2, samples_per_scale=2, seed=s).verdict for s in range(40)]
    assert "supports" not in verdicts


class TestTransferCheck:
    def test_plane_consistent_at_2(self):
        rep = transfer_check(plane(), 2, samples_per_scale=42, seed=0)
        assert rep.verdict == "consistent-with-embeddable"
        vanishing = [s for s in rep.scans if s.condition == "vanishing"]
        assert len(vanishing) == 4  # k = 3, 4 in both functional modes
        for s in vanishing:
            assert max(max(map(abs, s.per_scale_sup)), max(map(abs, s.per_scale_inf))) <= 1e-7
        # scans[i] (Theta) and scans[i + n + 2] (S) read the same draws;
        # Sch = (-1)^(k+1) D_k, so their extremes agree to rounding, judged
        # against a unit floor as in the cross-engine acceptance criterion
        assert [s.mode for s in rep.scans] == ["theta"] * 4 + ["s"] * 4
        for th, sc in zip(rep.scans[:4], rep.scans[4:]):
            assert (th.k, th.condition, th.samples_per_scale) == (sc.k, sc.condition, sc.samples_per_scale)
            for a, b in zip(th.per_scale_inf + th.per_scale_sup, sc.per_scale_inf + sc.per_scale_sup):
                assert abs(a - b) / max(abs(a), abs(b), 1.0) <= 1e-9

    def test_one_sampler_call_per_rung(self):
        # one cloud per rung serves every order and both modes: one sampler
        # call per rung, for 2 * samples + n + 3 points, with the same seed
        sp = plane((0.3, 0.4))
        calls = []

        def counting(scale, k, seed):
            calls.append((scale, k, seed.entropy, tuple(seed.spawn_key)))
            return sp.sampler(scale, k, seed)

        n, scales, samples = 2, scale_ladder(0.5, 0.5, 6), 8
        rep = transfer_check(dataclasses.replace(sp, sampler=counting), n,
                             samples_per_scale=samples, scales=scales, seed=1)
        assert all(s.samples_per_scale == samples for s in rep.scans)
        assert [scale for scale, *_ in calls] == scales
        assert {tuple(rest) for _, *rest in calls} == {(2 * samples + n + 2, 1, (0,))}

    @pytest.mark.parametrize("make", [plane, circle, lambda: make_ultrametric(40, 3)])
    def test_index_tuples_distinct_and_in_band(self, make, monkeypatch):
        # every tuple is an anchor plus k distinct other cloud points, and
        # the anchor puts its delta in [s/2, s]
        sp = make()
        clouds, tuples = [], []
        draw = pretangent._index_tuples

        def recording_sampler(scale, k, seed):
            clouds.append((scale, sp.sampler(scale, k, seed)))
            return clouds[-1][1]

        def recording_tuples(rng, anchors, size, k, count):
            tuples.append((len(clouds) - 1, draw(rng, anchors, size, k, count)))
            return tuples[-1][1]

        monkeypatch.setattr(pretangent, "_index_tuples", recording_tuples)
        transfer_check(dataclasses.replace(sp, sampler=recording_sampler), 2, samples_per_scale=16, seed=3)
        assert len(tuples) == 12 * 4
        for rung, idx in tuples:
            scale, cloud = clouds[rung]
            to_p = sp.matrix((sp.p,) + tuple(cloud))[0, 1:]
            assert all(len(set(t)) == len(t) for t in idx.tolist())
            delta = to_p[idx].max(axis=1)
            assert np.all((scale / 2 <= delta) & (delta <= scale)), (scale, delta.min(), delta.max())

    def test_index_tuple_blocks_read_one_stream(self):
        # sort keys drawn in row blocks give the tuples of one (count, size)
        # draw, so the cap on key memory leaves the scan stream unchanged
        anchors, size, k, count = np.arange(5, 40), 40, 3, 2 * pretangent.KEY_BLOCK + 7
        got = pretangent._index_tuples(np.random.default_rng(4), anchors, size, k, count)
        rng = np.random.default_rng(4)
        first = rng.choice(anchors, size=count)
        keys = rng.random((count, size))
        keys[np.arange(count), first] = np.inf
        assert np.array_equal(got, np.column_stack([first, np.argsort(keys, axis=1)[:, :k]]))

    @pytest.mark.parametrize("make", [plane, circle, lambda: make_ultrametric(40, 3),
                                      lambda: make_snowflake(0.5, 1, [0.0])])
    def test_scan_witnesses_reproduce(self, make):
        # theta and s_functional are the scan's own evaluator: each
        # witness tuple gives back its recorded value exactly
        sp = make()
        functional = {"theta": theta, "s": s_functional}
        for seed in range(5):
            for scan in transfer_check(sp, 2, samples_per_scale=16, seed=seed).scans:
                for w in (scan.witness_inf, scan.witness_sup):
                    assert functional[scan.mode](sp, w.points) == w.value, (seed, scan.k, scan.mode)

    def test_tied_extremes_witnessed_on_the_earliest_rung(self):
        # on the ultrametric Theta_2 is exactly 2.0 on every rung, so every
        # rung ties: the witness sits on the earliest rung holding the
        # extreme, in both modes and on both sides
        rep = transfer_check(make_ultrametric(40, 3), 1, samples_per_scale=8, seed=0)
        theta2 = [s for s in rep.scans if s.k == 1 and s.mode == "theta"]
        assert theta2 and all(set(s.per_scale_inf) == set(s.per_scale_sup) == {2.0} for s in theta2)
        k1 = [s for s in rep.scans if s.k == 1]
        assert sorted(s.mode for s in k1) == sorted(pretangent.MODES)
        for scan in k1:
            assert scan.witness_inf.rung == scan.witness_sup.rung == 0, scan.mode

    def test_plane_refuted_at_1_with_witness(self):
        rep = transfer_check(plane(), 1, samples_per_scale=56, seed=0)
        assert rep.verdict == "refuted"
        scan = rep.scans[rep.witness_scan]
        assert scan.k == 2 and scan.condition == "vanishing"
        assert scan.witness_sup is not None

    def test_grid_consistent_at_2(self):
        # a lattice sample of the plane: the coplanarity-driven vanishing
        # survives the snap to grid points
        grid = make_euclidean_subset(
            2, {"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": 2.0**-14}, [0, 0])
        rep = transfer_check(grid, 2, samples_per_scale=24, seed=4)
        assert rep.verdict == "consistent-with-embeddable"

    def test_one_point_space_consistent(self):
        one = make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [0, 0]}, [0, 0])
        for n in (1, 2, 3):
            rep = transfer_check(one, n, samples_per_scale=8, seed=0)
            assert rep.verdict == "consistent-with-embeddable"
            for s in rep.scans:
                assert set(s.per_scale_inf) == {0.0} and set(s.per_scale_sup) == {0.0}

    def test_conservation_on_euclidean_subsets(self):
        # marked subsets of E^n never refute at their ambient dimension
        for seed, p in [(0, [0.0]), (1, [0.5])]:
            rep = transfer_check(
                make_euclidean_subset(1, {"kind": "cube", "low": [0.0], "high": [1.0]}, p),
                1, samples_per_scale=28, seed=seed)
            assert rep.verdict != "refuted"
        for seed, p in [(5, (0.3, 0.3)), (6, (0.0, 1.0)), (7, (0.9, 0.1))]:
            assert transfer_check(plane(p), 2, samples_per_scale=21, seed=seed).verdict != "refuted"
        rep = transfer_check(circle(), 2, samples_per_scale=21, seed=8)
        assert rep.verdict != "refuted"

    def test_snowflake_refutes_vanishing(self):
        # the snowflaked line is exactly self-similar, so its normalized
        # functionals are scale-invariant: Theta_3 stays bounded away from
        # zero at every rung and the vanishing condition is refuted
        snow = make_snowflake(0.5, 1, [0.0])
        rep = liminf_scan(snow, 2, samples_per_scale=64, condition="vanishing", seed=3)
        assert rep.verdict == "refutes"
        assert abs(rep.trend) < 0.1
        tc = transfer_check(snow, 1, samples_per_scale=48, seed=3)
        assert tc.verdict == "refuted"
        sign = liminf_scan(snow, 1, samples_per_scale=64, condition="sign", seed=3)
        assert sign.verdict == "supports"

    @pytest.mark.parametrize("seed", range(5))
    def test_tripod_refutes_sign_at_3(self, seed):
        rep = transfer_check(tripod(), 3, samples_per_scale=32, seed=seed)
        assert rep.verdict == "refuted"
        scan = rep.scans[rep.witness_scan]
        assert (scan.k, scan.condition) == (3, "sign")
        sign3 = [s for s in rep.scans if (s.k, s.condition) == (3, "sign")]
        assert sorted(s.mode for s in sign3) == sorted(pretangent.MODES)
        assert all(s.verdict == "refutes" for s in sign3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deep_ultrametric_refuted_at_1(self, seed):
        # p and leaves in the two other branches at one level form an
        # equilateral triple, which no limit space in E^1 holds
        rep = transfer_check(make_ultrametric(120, 3), 1, samples_per_scale=32, seed=seed)
        assert rep.verdict == "refuted"

    def test_dimension_out_of_range(self):
        with pytest.raises(DimensionOutOfRangeError):
            transfer_check(plane(), 0)
        # True scanned as n = 1 and reported "n": true
        for n in (True, 1.5):
            with pytest.raises(DimensionOutOfRangeError, match=r"^target dimension must be an integer >= 1"):
                transfer_check(circle(), n)


class TestBlumenthalScan:
    def _axes(self, r):
        sp = plane()
        x1 = lambda m: np.array([r(m), 0.0])
        x2 = lambda m: np.array([0.0, r(m)])
        return sp, [constant_sequence(sp.p), x1, x2]

    def test_orthogonal_axes_support_n2(self):
        r = NormalizingSequence.geometric(0.5, 0.5)
        sp, seqs = self._axes(r)
        rep = blumenthal_sequence_scan(sp, seqs, r=r)
        assert rep.verdict == "supports"
        tails = {k: (lo, hi) for k, lo, hi in rep.condition_i}
        assert tails[1][0] == pytest.approx(2.0, abs=1e-9)
        assert tails[2][0] == pytest.approx(4.0, abs=1e-9)
        assert all(hi <= 1e-7 for _, _, _, hi in rep.condition_ii)
        singles = [f"probe{i}" for i in range(4)]
        pairs = [f"probe{i}+probe{j}" for i in range(4) for j in range(i + 1, 4)]
        assert [label for _, label, _, _ in rep.condition_ii] == singles + pairs
        assert [order for order, _, _, _ in rep.condition_ii] == [3] * 4 + [4] * 6

    def test_single_axis_supports_n1(self):
        r = NormalizingSequence.geometric(0.5, 0.5)
        seg = segment()
        seqs = [constant_sequence(seg.p), lambda m: np.array([r(m)])]
        rep = blumenthal_sequence_scan(seg, seqs, r=r)
        assert rep.verdict == "supports"
        assert rep.condition_i[0][1] == pytest.approx(2.0, abs=1e-9)

    def test_duplicate_sequence_refutes(self):
        r = NormalizingSequence.geometric(0.5, 0.5)
        sp, seqs = self._axes(r)
        rep = blumenthal_sequence_scan(sp, [seqs[0], seqs[1], seqs[1]], r=r)
        assert rep.verdict == "refutes"

    def test_probe_that_alternates_is_inconclusive(self):
        # y sits on x0 at even m and off the axis at odd m, so its tail
        # Theta_3 is 0 on some rungs and far above the floor on others:
        # condition (ii) neither holds nor fails throughout
        r = NormalizingSequence.geometric()
        sp = plane((0.5, 0.5))
        e1, e2 = np.eye(2)
        x0 = lambda m: sp.p + r(m) * e1
        x1 = lambda m: sp.p - r(m) * e1
        y = lambda m: sp.p + r(m) * (e1 if m % 2 == 0 else e2)
        z = lambda m: sp.p + 0.5 * r(m) * e1
        rep = blumenthal_sequence_scan(sp, [x0, x1], probes=[(y, z)], r=r, depth=32)
        assert rep.condition_ii[0][1:] == ("probe0", 0.0, pytest.approx(16.0))
        assert rep.verdict == "inconclusive"

    def test_nonconvergent_raises(self):
        sp = plane()
        stuck = constant_sequence(np.array([0.5, 0.5]))
        with pytest.raises(NonconvergentSequenceError):
            blumenthal_sequence_scan(sp, [constant_sequence(sp.p), stuck])

    def test_probe_battery_shape(self):
        sp = plane()
        r = NormalizingSequence.geometric()
        battery = build_probe_battery(sp, r)
        assert len(battery) == 4  # two axes, diagonal, super-slow
        # super-slow probe: distance shrinks but d/r_m diverges
        slow = battery[-1]
        d20 = np.linalg.norm(slow(20) - sp.p)
        assert d20 < 1e-2
        assert d20 / r(20) > 1e2

    def test_positivity_inside_floor_not_positive(self):
        # x2 leaves x1's axis at angle phi with 4 sin^2(phi) = 1e-8: the tail
        # Theta_3 = 1e-8 lies inside the floor 10 * tol_det = 1e-7
        r = NormalizingSequence.geometric(0.5, 0.5)
        sp = plane()
        phi = math.asin(5e-5)
        x1 = lambda m: np.array([r(m), 0.0])
        x2 = lambda m: r(m) * np.array([math.cos(phi), math.sin(phi)])
        seqs = [constant_sequence(sp.p), x1, x2]
        rep = blumenthal_sequence_scan(sp, seqs, r=r)
        assert rep.condition_i[1][1] == pytest.approx(1e-8, rel=1e-6)
        assert rep.verdict == "refutes"
        assert blumenthal_sequence_scan(sp, seqs, r=r, tol_det=1e-10).verdict == "supports"

    def test_battery_requires_cube_region(self):
        with pytest.raises(ValueError):
            build_probe_battery(circle(), NormalizingSequence.geometric())


class TestSequenceDistances:
    """Sequence tests read every distance off one ``matrix`` call per index."""

    DEPTH = 24

    def _setup(self):
        scalar_calls = []
        sp = dataclasses.replace(plane(), metric=lambda a, b: scalar_calls.append((a, b)) or 0.0)
        r = NormalizingSequence.geometric(0.5, 0.5)
        reads = {}

        def counted(name, seq):
            def read(m):
                reads[name] = reads.get(name, 0) + 1
                return seq(m)
            return read

        x1 = counted("x1", lambda m: np.array([r(m), 0.0]))
        x2 = counted("x2", lambda m: np.array([0.0, r(m)]))
        p = counted("p", constant_sequence(sp.p))
        return sp, r, scalar_calls, reads, counted, (p, x1, x2)

    def test_pseudometric_matrix(self):
        sp, r, scalar_calls, reads, _, family = self._setup()
        pm = pseudometric_matrix(sp, family, r, depth=self.DEPTH)
        assert pm.all_stable
        assert scalar_calls == []
        assert reads == {"p": self.DEPTH, "x1": self.DEPTH, "x2": self.DEPTH}

    def test_mutual_stability(self):
        sp, r, scalar_calls, reads, _, (_, x1, x2) = self._setup()
        v = mutual_stability(sp, x1, x2, r, depth=self.DEPTH)
        assert v.limit == pytest.approx(math.sqrt(2.0))
        assert scalar_calls == []
        assert reads == {"x1": self.DEPTH, "x2": self.DEPTH}

    def test_blumenthal_sequence_scan(self):
        sp, r, scalar_calls, reads, counted, family = self._setup()
        y = counted("y", lambda m: np.array([r(m), r(m)]))
        u = counted("u", lambda m: np.array([2.0 * r(m), 0.0]))
        rep = blumenthal_sequence_scan(sp, family, probes=[(y, u)], r=r, depth=self.DEPTH)
        assert rep.verdict == "supports"
        assert scalar_calls == []
        assert reads == {name: self.DEPTH for name in ("p", "x1", "x2", "y", "u")}


@pytest.mark.parametrize("call,error,message", [
    (lambda: liminf_scan(plane(), 0), TupleTooShortError, "scan needs an integer k >= 1, got 0"),
    (lambda: liminf_scan(plane(), 1, condition="limit"), ValueError, "unknown condition 'limit'"),
    (lambda: liminf_scan(plane(), 1, mode="sch"), ValueError, "unknown mode 'sch'"),
    (lambda: delta_scale(plane(), ()), ValueError, "a scale needs a nonempty tuple"),
    # the noise floor 10 * tol_det read NaN, inf or <= 0, and the scans decided on it
    *[(lambda t=t: transfer_check(plane(), 1, samples_per_scale=4, tol_det=t), ValueError,
       f"tol_det must be finite and > 0, got {t!r}") for t in BAD_TOL_DET],
])
def test_scan_layer_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call,error,message", [
    (lambda: NormalizingSequence(lambda m: 1.0).values(16), ValueError,
     "normalizing sequence not strictly decreasing at m=0"),
    (lambda: pseudometric_matrix(plane(), (), NormalizingSequence.geometric()), ValueError,
     "family must be nonempty"),
    (lambda: blumenthal_sequence_scan(plane(), [constant_sequence(plane().p)]), DimensionOutOfRangeError,
     "need at least two sequences (n >= 1)"),
    (lambda: blumenthal_sequence_scan(plane(), [constant_sequence(plane().p)] * 2, depth=15), ValueError,
     "depth must be an integer >= 16, got 15"),
    # a negative tol read an oscillation of 0.0 as unstable, a NaN one as
    # undetermined; a negative or NaN merge_tol ended in CoincidentPointsError
    *[(lambda t=t: mutual_stability(plane(), constant_sequence(plane().p), constant_sequence(plane().p),
                                    NormalizingSequence.geometric(), tol=t), ValueError,
       "tolerance must be nonnegative") for t in (-1.0, math.nan)],
    *[(lambda t=t: pseudometric_matrix(plane(), (constant_sequence(plane().p),), NormalizingSequence.geometric(),
                                       tol=t), ValueError, "tolerance must be nonnegative") for t in (-1.0, math.nan)],
    *[(lambda t=t: metric_identification(PseudometricMatrix(((StabilityVerdict("stable", 0.0, 64, 0.0),),)),
                                         merge_tol=t), ValueError, "tolerance must be nonnegative")
      for t in (-1.0, math.nan)],
    *[(lambda t=t: blumenthal_sequence_scan(plane(), [constant_sequence(plane().p)] * 2, tol_det=t), ValueError,
       f"tol_det must be finite and > 0, got {t!r}") for t in BAD_TOL_DET],
])
def test_sequence_layer_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("r0,q", [(math.inf, 0.5), (0.0, 0.5), (math.nan, 0.5), (0.5, 1.0), (0.5, 0.0)])
def test_geometric_normalizer_takes_the_ladder_rule(r0, q):
    # an infinite r0 was accepted, and failed on first use as a degenerate normalizer
    with pytest.raises(ValueError, match=r"need a finite r0 > 0 and 0 < q < 1"):
        NormalizingSequence.geometric(r0, q)


@pytest.mark.parametrize("call,error", [
    (lambda: transfer_check(plane(), 1, samples_per_scale=2.5), EmptySampleError),
    (lambda: transfer_check(plane(), 1, samples_per_scale=True), EmptySampleError),
    (lambda: liminf_scan(plane(), 1.5), TupleTooShortError),
    (lambda: liminf_scan(plane(), True), TupleTooShortError),
    (lambda: scale_ladder(0.5, 0.5, 3.5), ValueError),
    (lambda: scale_ladder("0.5", 0.5, 3), ValueError),
    (lambda: scale_ladder(0.5, "0.5", 3), ValueError),
    (lambda: transfer_check(plane(), 1, samples_per_scale=4, scales=["0.5", "0.25"]), ValueError),
    (lambda: transfer_check(plane(), 1, samples_per_scale=4, scales=[2.0, True]), ValueError),
    (lambda: transfer_check(plane(), 1, samples_per_scale=4, tol_det=True), ValueError),
    (lambda: pseudometric_matrix(plane(), (constant_sequence(plane().p),), NormalizingSequence.geometric(),
                                 depth=20.5), ValueError),
    (lambda: mutual_stability(plane(), constant_sequence(plane().p), constant_sequence(plane().p),
                              NormalizingSequence.geometric(), tol=True), ValueError),
    (lambda: epsilon_scale(plane(), (np.ones(2),), True), NonpositiveExponentError),
    (lambda: epsilon_scale(plane(), (np.ones(2),), "a"), NonpositiveExponentError),
    (lambda: within_band(1.0, 1.0, True), TupleTooShortError),
    (lambda: within_band(1.0, 1.0, 2.5), TupleTooShortError),
    (lambda: NormalizingSequence.geometric().values(2.5), ValueError),
    (lambda: NormalizingSequence.geometric().values(True), ValueError),
    (lambda: NormalizingSequence(lambda m: True)(0), DegenerateNormalizerError),
    (lambda: NormalizingSequence(lambda m: "x")(0), DegenerateNormalizerError),
], ids=["samples-float", "samples-bool", "k-float", "k-bool", "rungs-float", "r0-string", "q-string",
        "scales-strings", "scales-bool", "tol-det-bool", "depth-float", "tol-bool", "exponent-bool",
        "exponent-string", "band-k-bool", "band-k-float", "values-depth-float", "values-depth-bool",
        "normalizer-bool", "normalizer-string"])
def test_counts_and_reals_refused_at_the_entry(call, error):
    # a float count reached a TypeError inside numpy or range; a bool count,
    # a bool tolerance and a ladder of strings or bools were read as numbers.
    # The exponent True was read as 1 and "a" met Python's comparison error,
    # within_band's k True or 2.5 was read as a number, values(True) gave a
    # one-rung ladder, and a normalizer's True was read as 1.0 and its "x"
    # met float()'s text
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
