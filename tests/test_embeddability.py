"""Embeddability criteria, dimension search, realization, basis search."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from metricembed import (
    CurveSpec,
    FiniteMetricSpace,
    NormalizingSequence,
    blumenthal_basis_search,
    blumenthal_sequence_scan,
    cm_value,
    embeddability,
    marked_family,
    menger_check,
    metric_identification,
    min_embedding_dimension,
    pseudometric_matrix,
    realize_coordinates,
    scale_metric,
    schoenberg_check,
    submatrix,
    transfer_check,
    validate_metric,
)
from metricembed.determinants import DEFAULT_TOL_DET, PsdReport, psd_check, within_band
from metricembed.errors import (
    DimensionOutOfRangeError,
    DistanceOutOfRangeError,
    NotEmbeddableError,
    RankExceedsRequestedError,
)
from metricembed.spaces import make_euclidean_subset, perturbed_euclidean_space

from conftest import (
    _signed_cm_stack,
    affine_rank,
    cloud_space,
    enumerated_verdict,
    exact_psd_rank,
    line_with_triangle,
    part_psd_flags,
    plane_with_star,
    random_cloud,
    square_with_star,
    square_with_tetrahedron,
)


class TestMenger:
    def test_equilateral_plane(self, equilateral):
        assert menger_check(equilateral, 2).embeddable == "yes"

    def test_equilateral_line_rejected_with_witness(self, equilateral):
        v = menger_check(equilateral, 1)
        assert v.embeddable == "no"
        assert v.witness is not None
        assert v.witness.indices == (0, 1, 2)
        assert v.witness.kind == "vanishing"
        # D_2 = -3 over the largest facet's D_1 = 2: twice the squared
        # height of sqrt(3)/2 over the largest squared distance 1, signed like D_2
        assert v.witness.value == pytest.approx(-1.5, rel=1e-9)

    def test_star_rejected_everywhere(self, star_k13):
        for n in range(1, 5):
            v = menger_check(star_k13, n)
            assert v.embeddable == "no", n
            assert v.witness is not None

    def test_dimension_out_of_range(self, equilateral, star_k13):
        with pytest.raises(DimensionOutOfRangeError):
            menger_check(equilateral, 0)
        # a dimension is an integer: 1.5 answered "no" with "n": 1.5 on the
        # star and ended in a slicing TypeError on a feasible space
        for space in (star_k13, equilateral):
            for n in (1.5, True, np.float64(2.0)):
                for check in (menger_check, schoenberg_check, blumenthal_basis_search, realize_coordinates):
                    with pytest.raises(DimensionOutOfRangeError, match=r"^target dimension must be an integer >= 1"):
                        check(space, n)
        assert menger_check(equilateral, np.int64(2)).embeddable == "yes"

    def test_monotone_in_dimension(self):
        for seed in range(20):
            sp = perturbed_euclidean_space(int(5 + seed % 3), seed=seed)
            prev = None
            for n in range(1, 6):
                got = menger_check(sp, n).embeddable
                if prev == "yes":
                    assert got == "yes", (seed, n)
                prev = got

    def test_borderline_negative_counts_as_zero(self):
        # d(0,2) exceeds d(0,1)+d(1,2) by an amount inside both the metric
        # tolerance and the determinant zero band: the signed determinant
        # comes out minutely negative, and a value inside the band is zero
        eps = 1e-13
        sp = validate_metric([[0, 1, 2 + eps], [1, 0, 1], [2 + eps, 1, 0]])
        for check in (menger_check, schoenberg_check):
            v = check(sp, 2)
            assert v.embeddable == "yes", check
            assert v.witness is None


class TestSchoenberg:
    def test_equilateral_plane(self, equilateral):
        assert schoenberg_check(equilateral, 2).embeddable == "yes"

    def test_unit_square_plane(self, unit_square):
        assert schoenberg_check(unit_square, 2).embeddable == "yes"

    def test_star_rejected(self, star_k13):
        for n in range(1, 5):
            assert schoenberg_check(star_k13, n).embeddable == "no"

    def test_agreement_with_menger_on_random_spaces(self):
        undetermined = 0
        for seed in range(60):
            sp = perturbed_euclidean_space(4 + seed % 4, seed=seed, perturbation=0.15)
            for n in range(1, 6):
                a = menger_check(sp, n).embeddable
                b = schoenberg_check(sp, n).embeddable
                for engine, got in (("menger", a), ("schoenberg", b)):
                    expected = enumerated_verdict(sp, n, engine)
                    assert expected == "undetermined" or got == expected, (seed, n, engine, got, expected)
                if "undetermined" in (a, b):
                    undetermined += 1
                    continue
                assert a == b, (seed, n, a, b)
        assert undetermined <= 6  # < 2% of 300 cases

    def test_oracle_refuses_over_budget(self):
        # 30 points at n = 3: C(30, 2) + ... + C(30, 6) tuples exceed the budget
        sp = cloud_space(random_cloud(np.random.default_rng(2), 30, 3, min_distance=0.05))
        with pytest.raises(ValueError, match="oracle budget"):
            enumerated_verdict(sp, 3, "menger")


def _is_blumenthal_basis(space, basis) -> bool:
    """Brute force for one basis: every prefix has a positive signed
    determinant outside the zero band, and every one- or two-point
    extension lies inside it."""
    sq = space.dist * space.dist
    b = np.array([basis])
    if not all(bool(signed[0] > 0 and not zero[0])
               for signed, zero in (_signed_cm_stack(sq, b[:, :size]) for size in range(2, len(basis) + 1))):
        return False
    rest = [i for i in range(space.n_points) if i not in basis]
    extensions = ([list(basis) + [y] for y in rest],
                  [list(basis) + [y, z] for i, y in enumerate(rest) for z in rest[i + 1:]])
    return all(np.all(_signed_cm_stack(sq, np.array(e))[1]) for e in extensions if e)


class TestMultiScale:
    """A feature far smaller than the space is judged on its own scale,
    as the enumeration oracle judges every tuple on its own."""

    RATIOS = [1e-2, 1e-4, 1e-5, 1e-6, 1e-8]
    #: (builder, arguments) of every space below, for the agreement tests
    FAMILIES = ([pytest.param(square_with_tetrahedron, (e,), id=f"tetrahedron-{e:g}") for e in RATIOS]
                + [pytest.param(square_with_tetrahedron, (e, (1 / 3, 1 / 3, lift)), id=f"thin-{e:g}")
                   for e, lift in ((1e-3, 1e-3), (1e-4, 3e-3))]
                + [pytest.param(line_with_triangle, (e,), id=f"triangle-{e:g}") for e in RATIOS]
                + [pytest.param(square_with_star, (e,), id=f"star-{e:g}") for e in RATIOS[:4]])

    @pytest.mark.parametrize("edge", RATIOS)
    def test_tiny_tetrahedron_leaves_the_plane(self, edge):
        sp = square_with_tetrahedron(edge)
        for n in (1, 2, 3):
            for check, engine in ((menger_check, "menger"), (schoenberg_check, "schoenberg")):
                got = check(sp, n).embeddable
                expected = enumerated_verdict(sp, n, engine)
                assert expected == "undetermined" or got == expected, (edge, n, engine, got, expected)
        v = menger_check(sp, 2)
        assert v.embeddable == "no" and v.witness.kind == "vanishing" and v.witness.k == 3
        assert menger_check(sp, 3).embeddable == schoenberg_check(sp, 3).embeddable == "yes"

    @pytest.mark.parametrize("edge,lift", [(1e-3, 1e-3), (1e-4, 3e-3)])
    def test_thin_tetrahedron_judged_on_its_own_scale(self, edge, lift):
        # the apex is lift * edge off the plane: D_3 over its own scale is
        # about lift^2, 1e-6 .. 1e-5, outside the 1e-8 band but far inside
        # it on the square's scale
        sp = square_with_tetrahedron(edge, apex=(1 / 3, 1 / 3, lift))
        for check, engine in ((menger_check, "menger"), (schoenberg_check, "schoenberg")):
            assert enumerated_verdict(sp, 2, engine) == "no", engine
            assert check(sp, 2).embeddable == "no", engine

    @pytest.mark.parametrize("edge", RATIOS)
    def test_tiny_triangle_leaves_the_line(self, edge):
        # at the smallest edges only a ball of exactly three points, the
        # triangle alone, shows it
        sp = line_with_triangle(edge)
        for check, engine in ((menger_check, "menger"), (schoenberg_check, "schoenberg")):
            assert enumerated_verdict(sp, 1, engine) == "no", (edge, engine)
            v = check(sp, 1)
            assert v.embeddable == "no" and v.witness.k == 2, (edge, engine)
            assert check(sp, 2).embeddable == "yes", (edge, engine)

    @pytest.mark.parametrize("edge", RATIOS[:4])
    def test_tiny_star_is_not_euclidean(self, edge):
        sp = square_with_star(edge)
        for n in (1, 2, 3):
            for check, engine in ((menger_check, "menger"), (schoenberg_check, "schoenberg")):
                assert enumerated_verdict(sp, n, engine) == "no", (edge, n, engine)
                assert check(sp, n).embeddable == "no", (edge, n, engine)
        # down to edge 1e-4 the whole space's factorization names the first
        # violation: leaf 5, at a relative squared height of edge^2 over
        # the plane of three corners and the centre, yet as far from each
        # corner as the centre is. Below, that height lies in the band, and
        # the star's own ball names the star
        witness = (0, 1, 2, 4, 5) if edge >= 1e-4 else (4, 5, 6, 7)
        assert menger_check(sp, 3).witness.indices == witness

    @staticmethod
    def _check_embed_dim(sp):
        """The least n in 1..4 at which check-embed answers yes, or None."""
        return next((n for n in range(1, 5) if menger_check(sp, n).embeddable == "yes"), None)

    @pytest.mark.parametrize("build,args", FAMILIES)
    def test_min_dim_agrees(self, build, args):
        sp = build(*args)
        res = min_embedding_dimension(sp)
        for n in range(1, 5):
            assert (menger_check(sp, n).embeddable == "yes") == (res.feasible and res.dim <= n), (args, n)

    @pytest.mark.parametrize("build,args", FAMILIES)
    def test_blumenthal_basis_agrees(self, build, args):
        sp = build(*args)
        m = self._check_embed_dim(sp)
        for n in range(1, 5):
            basis = blumenthal_basis_search(sp, n)
            assert (basis is not None) == (m == n), (args, n, basis)
            assert basis is None or _is_blumenthal_basis(sp, basis), (args, n, basis)

    @pytest.mark.parametrize("build,args", FAMILIES)
    def test_realize_refusal_agrees(self, build, args):
        sp = build(*args)
        m = self._check_embed_dim(sp)
        for n in range(1, 5):
            if m is None or m > n:
                with pytest.raises(NotEmbeddableError if m is None else RankExceedsRequestedError):
                    realize_coordinates(sp, n)
            else:
                assert realize_coordinates(sp, n).coords.shape[1] <= n


def _prism(edge: float):
    """An equilateral triangle of the given edge and its translate a unit
    off its plane: 6 points of exact affine rank 3."""
    tri = edge * np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
    return cloud_space(np.vstack([tri, tri + [0.0, 0.0, 1.0]])), 3


def _orthogonal_triangles(edge: float):
    """Equilateral triangles of the given edge at the two ends of a unit
    segment, in planes orthogonal to each other and to the segment: 6
    points of exact affine rank 5."""
    tri = edge * np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    x = np.zeros((6, 5))
    x[:3, :2] = tri
    x[3:, 3:] = tri
    x[3:, 2] = 1.0
    return cloud_space(x), 5


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20")
@pytest.mark.parametrize("build,edge", [(_prism, 1e-5), (_prism, 1e-7), (_orthogonal_triangles, 1e-5)],
                         ids=["prism-1e-05", "prism-1e-07", "orthogonal-triangles-1e-05"])
def test_multi_scale_rank_adds_across_scales(build, edge):
    # directions that live at different scales: the largest rank of one
    # part reads m = 2, and both engines answer yes at n = 2, realizing the
    # space with a residual of about the small edge (ROADMAP item 20)
    sp, rank = build(edge)
    assert min_embedding_dimension(sp).dim == rank
    assert menger_check(sp, 2).embeddable != "yes" and schoenberg_check(sp, 2).embeddable != "yes"


class TestMinDimension:
    def test_equilateral(self, equilateral):
        assert min_embedding_dimension(equilateral).dim == 2

    def test_tetrahedron(self):
        tet = validate_metric(np.ones((4, 4)) - np.eye(4))
        assert min_embedding_dimension(tet).dim == 3

    def test_star_infeasible(self, star_k13):
        res = min_embedding_dimension(star_k13)
        assert not res.feasible
        assert not res.psd.psd
        assert res.psd.witness_value is not None

    def test_single_point_and_pair(self):
        assert min_embedding_dimension(validate_metric([[0.0]])).dim == 0
        assert min_embedding_dimension(validate_metric([[0, 5], [5, 0]])).dim == 1

    def test_pivots_are_point_indices(self):
        # base 2: the pivots name points, as the Blumenthal basis does, and
        # the factor has one row per point, the base's zero
        sp = cloud_space(np.array([(0, 0), (3, 0), (1.5, 0.2), (0, 2), (3, 2.5)]))
        res = min_embedding_dimension(sp)
        assert res.base == 2
        assert res.psd.pivots == (4, 3) == blumenthal_basis_search(sp, 2)[1:]
        assert res.psd.factor.shape == (5, 2) and not np.any(res.psd.factor[2])
        assert res.psd.leftover is None

    def test_ball_decides_in_point_indices(self):
        # the tetrahedron of points 4-7 decides m = 3 from its own ball,
        # whose factor nothing reads
        sp = square_with_tetrahedron(1e-5)
        res = min_embedding_dimension(sp)
        assert res.dim == 3 and res.psd.factor is None and res.psd.leftover is None
        assert {res.base, *res.psd.pivots} == {4, 5, 6, 7}
        assert blumenthal_basis_search(sp, 3) == (res.base, *res.psd.pivots)

    @pytest.mark.parametrize("build,m", [(lambda: cloud_space(np.eye(5)), 4),
                                         (lambda: square_with_tetrahedron(1e-5), 3),
                                         (lambda: line_with_triangle(1e-5), 2)])
    def test_decision_keeps_no_leftover(self, build, m):
        # the leftover of tau serves the ball search and the continued
        # factor inside the decision; the one report it keeps holds none
        sp = build()
        decision = embeddability._decide(sp, DEFAULT_TOL_DET)
        assert decision.result.dim == m and decision.factor.shape == (sp.n_points, m)
        assert decision.result.psd.leftover is None

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e-160, 1e-300])
    def test_distances_outside_certifiable_range_read_the_unit_answers(self, scale, unit_square):
        # squared distances that would overflow or leave the normal floats:
        # the space is decided scaled by a power of two into the range, and
        # reads the unit square's answers, its factor and coordinates in its
        # own unit (the ball search once never ended above 1e154)
        sp = scale_metric(unit_square, scale)
        res, unit = min_embedding_dimension(sp), min_embedding_dimension(unit_square)
        assert (res.feasible, res.dim, res.base, res.psd.pivots) == (True, 2, unit.base, unit.psd.pivots)
        assert res.psd.factor / scale == pytest.approx(unit.psd.factor, rel=1e-9, abs=1e-14)
        for n in (1, 2, 3):
            for check in (menger_check, schoenberg_check):
                got, want = check(sp, n), check(unit_square, n)
                assert (got.embeddable, got.witness and got.witness.indices) == (
                    want.embeddable, want.witness and want.witness.indices), (check.__name__, n)
                if want.witness:
                    assert got.witness.value == pytest.approx(want.witness.value, rel=1e-6)
        assert blumenthal_basis_search(sp, 2) == blumenthal_basis_search(unit_square, 2)
        real, want = realize_coordinates(sp, 2), realize_coordinates(unit_square, 2)
        assert real.m == 2 and real.coords / scale == pytest.approx(want.coords, rel=1e-9, abs=1e-14)
        assert real.max_residual / scale == pytest.approx(want.max_residual, abs=1e-14)
        assert embeddability.triangles_certified(sp)

    @pytest.mark.parametrize("ends", [(1e-170, 1e140), (1.0, 2.0**995), (1e-300, 1e10)])
    def test_distance_ratio_past_the_range_refused(self, ends):
        # no power of two brings both ends into the range, whose own ratio is
        # 2^995 less an ulp: no question is decided, and no certificate given
        least, top = ends
        sp = validate_metric([[0, least, top], [least, 0, top], [top, top, 0]])
        for ask in (min_embedding_dimension, lambda sp: menger_check(sp, 1), lambda sp: realize_coordinates(sp, 2),
                    lambda sp: blumenthal_basis_search(sp, 2)):
            with pytest.raises(DistanceOutOfRangeError, match="at any power of two"):
                ask(sp)
        assert not embeddability.triangles_certified(sp)

    @pytest.mark.parametrize("least", [1.0, 1.5, 2.0**-1074])
    def test_distance_ratio_of_half_the_range_decided(self, least):
        # a ratio up to 2^994 always fits at some power of two, wherever the
        # ends fall between powers of two, a subnormal end included
        top = least * 2.0**994
        sp = validate_metric([[0, least, top], [least, 0, top], [top, top, 0]])
        assert min_embedding_dimension(sp).feasible and embeddability.triangles_certified(sp)


class TestRealize:
    def test_pair(self):
        sp = validate_metric([[0, 5], [5, 0]])
        real = realize_coordinates(sp, 1)
        assert real.m == 1
        assert np.allclose(np.abs(real.coords[1] - real.coords[0]), 5.0)
        assert np.allclose(real.coords[0], 0.0)  # point 0 at the origin
        assert real.max_residual < 1e-12

    def test_equilateral_roundtrip(self, equilateral):
        real = realize_coordinates(equilateral, 2)
        assert real.m == 2
        d01 = np.linalg.norm(real.coords[0] - real.coords[1])
        assert d01 == pytest.approx(1.0, abs=1e-9)
        assert real.max_residual < 1e-9

    def test_random_cloud_roundtrip(self):
        rng = np.random.default_rng(17)
        pts = random_cloud(rng, 10, 3)
        sp = cloud_space(pts)
        real = realize_coordinates(sp, 3)
        assert real.max_residual <= 1e-7
        assert np.allclose(real.coords[0], 0.0)

    def test_not_embeddable_raises(self, star_k13):
        with pytest.raises(NotEmbeddableError):
            realize_coordinates(star_k13, 3)

    @pytest.mark.parametrize("build,m", [pytest.param(square_with_tetrahedron, 3, id="square_with_tetrahedron"),
                                         pytest.param(line_with_triangle, 2, id="line_with_triangle")])
    @pytest.mark.parametrize("edge", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_sub_band_feature_realized_at_min_dim(self, build, m, edge):
        # the factor over all points reads a feature of edge <= 1e-5 as flat;
        # the realization continues it up to min-dim's m columns
        sp = build(edge)
        assert min_embedding_dimension(sp).dim == m
        real = realize_coordinates(sp, m)
        assert real.m == m == real.coords.shape[1]
        assert real.max_residual <= 1e-3 * edge

    def test_residual_row_by_row(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            sp = cloud_space(random_cloud(rng, 8 + 2 * trial, 2 + trial % 3))
            real = realize_coordinates(sp, 4)
            diff = real.coords[:, None, :] - real.coords[None, :, :]
            assert real.max_residual == float(np.max(np.abs(np.sqrt(np.sum(diff * diff, axis=-1)) - sp.dist)))

    def test_bounded_memory(self):
        # the residual of a 1000-point rank-12 cloud needs no N x N x m tensor
        x = np.random.default_rng(5).normal(size=(1000, 12))
        norms = np.sum(x * x, axis=1)
        d = np.sqrt(np.maximum(norms[:, None] + norms[None, :] - 2.0 * x @ x.T, 0.0))
        np.fill_diagonal(d, 0.0)
        sp = validate_metric(d)
        tracemalloc.start()
        try:
            real = realize_coordinates(sp, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert real.m == 12 and real.max_residual < 1e-9
        assert peak < 120e6, peak

    def test_decision_at_the_memory_floor(self, large_cloud):
        # the factorization holds sq and one tau work array; rho, the
        # leftover of tau and the residual reuse or need no more; every
        # other temporary is a block of rows (the seed peaked at 7.1x)
        sp = validate_metric(large_cloud, certificate=lambda space: True)
        tracemalloc.start()
        try:
            m = min_embedding_dimension(sp).dim
            real = realize_coordinates(sp, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == real.m == 4 and real.max_residual < 1e-9
        assert peak <= 3 * large_cloud.nbytes, peak / large_cloud.nbytes

    def test_rank_exceeds_requested(self):
        # the factorization itself refuses to squeeze rank 3 into R^2
        tet = validate_metric(np.ones((4, 4)) - np.eye(4))
        with pytest.raises(RankExceedsRequestedError):
            realize_coordinates(tet, 2)


class TestSharedDecision:
    def test_threads_read_their_own_space(self):
        # the readers share one memoized decision; threads that interleave
        # on different spaces must each get the answers of their own
        rng = np.random.default_rng(11)
        spaces = [cloud_space(random_cloud(rng, 8, rank)) for rank in (1, 2, 3, 4)]
        expected = [(min_embedding_dimension(sp).dim, realize_coordinates(sp, 4).coords.shape) for sp in spaces]
        wrong = []

        def work(i):
            sp = spaces[i]
            for _ in range(200):
                got = (min_embedding_dimension(sp).dim, realize_coordinates(sp, 4).coords.shape)
                if got != expected[i] or blumenthal_basis_search(sp, got[0]) is None:
                    wrong.append((i, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i % 4,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong, wrong[:3]


class TestRoundTrip:
    def test_min_dim_equals_affine_rank(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            dim = int(rng.integers(1, 6))
            n_pts = int(rng.integers(dim + 1, 11 if dim > 1 else 6))
            pts = random_cloud(rng, n_pts, dim)
            sp = cloud_space(pts)
            res = min_embedding_dimension(sp)
            assert res.feasible
            assert res.dim == affine_rank(pts), trial
            real = realize_coordinates(sp, max(res.dim, 1))
            assert real.max_residual <= 1e-7

    def test_low_rank_cloud_detected(self):
        # a planar cloud sitting inside E^5 still has minimal dimension 2
        rng = np.random.default_rng(4)
        flat = random_cloud(rng, 7, 2)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        pts = np.hstack([flat, np.zeros((7, 3))]) @ q.T
        sp = cloud_space(pts)
        res = min_embedding_dimension(sp)
        assert res.dim == 2
        real = realize_coordinates(sp, 5)
        assert real.m == 2
        assert real.max_residual <= 1e-7


class TestBlumenthal:
    def test_unit_square(self, unit_square):
        basis = blumenthal_basis_search(unit_square, 2)
        assert basis is not None
        assert len(basis) == 3

    def test_equilateral(self, equilateral):
        assert blumenthal_basis_search(equilateral, 2) == (0, 1, 2)

    def test_collinear(self):
        line = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert blumenthal_basis_search(line, 2) is None
        assert blumenthal_basis_search(line, 1) is not None

    def test_star_rejected(self, star_k13):
        for n in range(1, 6):
            assert blumenthal_basis_search(star_k13, n) is None

    def test_consistency_with_other_criteria(self):
        # success at n forces schoenberg yes at n and minimal dimension n
        rng = np.random.default_rng(31)
        found = 0
        for trial in range(15):
            dim = int(rng.integers(1, 4))
            pts = random_cloud(rng, dim + 3, dim)
            sp = cloud_space(pts)
            basis = blumenthal_basis_search(sp, dim)
            if basis is None:
                continue
            found += 1
            assert schoenberg_check(sp, dim).embeddable == "yes"
            assert min_embedding_dimension(sp).dim == dim
        assert found >= 10


class TestVerdictShape:
    def test_verdict_fields(self, equilateral):
        # the verdict is plain data; cli renders its result
        v = menger_check(equilateral, 2)
        assert (v.embeddable, v.dim_tested, v.criterion, v.witness) == ("yes", 2, "menger", None)

    def test_thirty_points_decided_exactly(self):
        # beyond any enumeration budget, the factorization decides exactly:
        # a full-rank cloud in E^3 embeds at n = 3, and at n = 2 each engine
        # confirms an order-3 witness that fails to vanish
        rng = np.random.default_rng(2)
        pts = random_cloud(rng, 30, 3, min_distance=0.05)
        sp = cloud_space(pts)
        for check in (menger_check, schoenberg_check):
            v = check(sp, 3)
            assert v.embeddable == "yes" and v.witness is None, check
            v = check(sp, 2)
            assert v.embeddable == "no", check
            w = v.witness
            assert w.kind == "vanishing" and w.k == 3 and len(w.indices) == 4
            # the smallest relative squared height, |D_3| over the largest
            # |D_2| of a facet on the distances over their largest, signed
            # like raw D_3 for Menger and like (-1)^(k+1) D_3 for Schoenberg
            dm = submatrix(sp, w.indices) / np.max(submatrix(sp, w.indices))
            cm = cm_value(dm)
            height = abs(cm.value) / max(abs(cm_value(np.delete(np.delete(dm, i, 0), i, 1)).value) for i in range(4))
            assert w.value == pytest.approx(np.sign(cm.value if check is menger_check else cm.signed_value) * height,
                                            rel=1e-9)
            assert not within_band(w.value, 1.0)


def _squared_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return (diff * diff).sum(axis=-1)


def _integer_simplex(d: int) -> np.ndarray:
    return np.random.default_rng(0).integers(-20, 21, size=(d + 1, d))


def _integer_cloud(seed: int) -> np.ndarray:
    """At most 60 distinct integer points of rank at most 10: integer
    combinations of at most 10 integer vectors."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 11))
    count, dim = int(rng.integers(rank + 2, 61)), int(rng.integers(rank, 13))
    return np.unique(rng.integers(-3, 4, size=(count, rank)) @ rng.integers(-3, 4, size=(rank, dim)), axis=0)


def _lifted(r: int, L: int) -> np.ndarray:
    """r + 3 integer points in [-L, L]^r on a flat of E^(r+1), and one more
    at height 1 above it: exact rank r + 1, with (height / diameter)^2 near
    1 / (4 r L^2), so L moves the input across the zero band's edge."""
    rng = np.random.default_rng(r)
    flat = np.hstack([rng.integers(-L, L + 1, size=(r + 3, r)), np.zeros((r + 3, 1), dtype=np.int64)])
    return np.vstack([flat, np.append(rng.integers(-L, L + 1, size=r), 1)])


SWEEP = {**{f"simplex{d}": _integer_simplex(d) for d in range(1, 31)},
         **{f"cloud{s}": _integer_cloud(s) for s in range(8)},
         **{f"lifted{r}_L{L}": _lifted(r, L) for r in (1, 2, 3, 5) for L in (10, 100, 10**3, 10**4, 10**5)}}

#: the rows whose smallest relative squared height lies inside the band,
#: read at the rank below the exact one: simplex14's is 9.9e-11, and the
#: lifted rows sit past the band's designed edge, (height / diameter)^2 <
#: tol_det
ZERO_RULE_FLATTENS = {"simplex14": 13, **{f"lifted{r}_L{L}": r for r in (1, 2, 3, 5) for L in (10**4, 10**5)}}


class TestExactOracle:
    """The finite layer against an exact rational LDL^T of tau
    (``conftest.exact_psd_rank``), which shares no zero rule with it."""

    def test_oracle_on_known_spaces(self):
        assert exact_psd_rank([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (True, 2)  # equilateral
        assert exact_psd_rank([[0, 1, 4], [1, 0, 1], [4, 1, 0]]) == (True, 1)  # collinear
        star = [[0, 1, 1, 1], [1, 0, 4, 4], [1, 4, 0, 4], [1, 4, 4, 0]]
        assert exact_psd_rank(star)[0] is False  # K_{1,3}
        assert exact_psd_rank([[0, 1, 9], [1, 0, 1], [9, 1, 0]])[0] is False  # triangle violation
        assert exact_psd_rank(_squared_distances(_integer_simplex(29)).tolist()) == (True, 29)

    @pytest.mark.parametrize("name", list(SWEEP))
    def test_package_agrees_with_exact_rank(self, name):
        # at the exact rank m: min-dim, both engines at n = m (yes) and at
        # n = m - 1 (no), the columns realized at n = m, and a Blumenthal
        # basis at n = m, each at unit scale and rescaled
        sq = _squared_distances(SWEEP[name])
        psd, m = exact_psd_rank(sq.tolist())
        assert psd
        flat = ZERO_RULE_FLATTENS.get(name)
        expected = ((m, ["yes"] * 2, ["no"] * 2 if m > 1 else None, m, True) if flat is None
                    else (flat, ["yes"] * 2, ["yes"] * 2, flat, False))
        for scale in (1.0, 1e-3, 1e3):
            space = validate_metric(np.sqrt(sq) * scale)
            engines = (menger_check, schoenberg_check)
            got = (min_embedding_dimension(space).dim,
                   [check(space, m).embeddable for check in engines],
                   [check(space, m - 1).embeddable for check in engines] if m > 1 else None,
                   realize_coordinates(space, m).coords.shape[1],
                   blumenthal_basis_search(space, m) is not None)
            assert got == expected, (name, scale)


def test_decision_cache_takes_positional_arguments_only(equilateral):
    # a keyword call would take an entry of its own in the one-entry cache,
    # evicting the decision every other caller reads
    with pytest.raises(TypeError):
        embeddability._decide(equilateral, tol_det=DEFAULT_TOL_DET)


@pytest.mark.parametrize("tol_det", [math.nan, math.inf, -1.0, 0.0, 1.0, 10.0, [0.5], np.array([0.5])], ids=repr)
def test_zero_rule_refuses_a_tol_det_not_finite_and_positive(star_k13, tol_det):
    # at inf the star, which embeds in no E^n, read m = 4, at 1 m = 1 and at
    # 10 m = 0; at nan, -1 and 0 the decision warned and decided anyway (the
    # suite makes a RuntimeWarning an error). The deciders' cache hashed a
    # list or an array before any rule judged it: unhashable type
    calls = (lambda: min_embedding_dimension(star_k13, tol_det=tol_det),
             lambda: menger_check(star_k13, 2, tol_det=tol_det),
             lambda: schoenberg_check(star_k13, 2, tol_det=tol_det),
             lambda: realize_coordinates(star_k13, 2, tol_det=tol_det),
             lambda: blumenthal_basis_search(star_k13, 2, tol_det=tol_det),
             lambda: embeddability.triangles_certified(star_k13, tol_det=tol_det),
             lambda: psd_check(star_k13.dist ** 2, 0, tol_det),
             lambda: within_band(1.0, 1.0, tol_det))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"tol_det must be in (0, 1), got {tol_det!r}"


@pytest.mark.parametrize("dist", [[[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]],
                                  [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]], ids=["star", "4-cycle"])
def test_one_witness_tuple_from_psd_check_up(dist):
    # psd_check names the violating tuple's points, the base included, and
    # min-dim and both engines name the same tuple; min-dim once rewrote
    # the report's minor rows into it
    space = validate_metric(dist)
    res = min_embedding_dimension(space)
    assert not res.feasible
    assert psd_check(space.dist ** 2, res.base).witness_subset == res.psd.witness_subset == (0, 1, 2, 3)
    for n in range(max(res.psd.rank, 1), len(space) + 1):
        for check in (menger_check, schoenberg_check):
            assert check(space, n).witness.indices == res.psd.witness_subset, (check.__name__, n)


def test_decision_keeps_one_copy_of_the_whole_factor():
    # when the whole decides, min-dim's report and the realization read one
    # factor; a ball that outranks the whole continues it into a new array
    whole = embeddability._decide(cloud_space(random_cloud(np.random.default_rng(3), 12, 3)), DEFAULT_TOL_DET)
    assert whole.result.dim == 3 and whole.result.psd.factor is whole.factor
    ball = embeddability._decide(square_with_tetrahedron(1e-5), DEFAULT_TOL_DET)
    assert ball.result.dim == 3 and ball.result.psd.factor is None and ball.factor.shape == (8, 3)


def test_continuation_stops_where_nothing_positive_is_left():
    # a leftover with no positive diagonal past the rank, zero or rounding
    # below it, gives zero columns past the rank, not a division by zero
    factor = np.array([[0.0], [1.0], [2.0]])
    report = PsdReport(psd=True, rank=1, pivots=(1,), factor=factor, leftover=np.diag([0.0, -1e-17, 0.0]))
    with np.errstate(all="raise"):
        got = embeddability._continued(report, 3)
    assert got.shape == (3, 3) and np.array_equal(got[:, :1], factor)
    assert not np.any(got[:, 1:]) and not np.any(np.isnan(got))


@pytest.mark.parametrize("build,args", [pytest.param(build, (e,), id=f"{name}-{e:g}")
                                        for name, build in (("tetrahedron", square_with_tetrahedron),
                                                            ("triangle", line_with_triangle),
                                                            ("star", square_with_star))
                                        for e in (1e-3, 1e-5, 1e-7)]
                         + [pytest.param(plane_with_star, (300,), id="plane-with-star-300")])
def test_the_deciding_part_names_every_witness(build, args):
    # check-embed names a tuple of the part min-dim reports, as the basis
    # does; an engine once read the first part that failed E^n, so where a
    # ball decided, n = 1 named the whole space's first pivots
    sp = build(*args)
    res = min_embedding_dimension(sp)
    for n in range(1, 6):
        witness = tuple(sorted([res.base, *res.psd.pivots[:n + 1]])) if res.psd.rank > n else res.psd.witness_subset
        for check in (menger_check, schoenberg_check):
            v = check(sp, n)
            assert (v.witness.indices if v.witness else None) == witness, (args, n, check.__name__)


def test_decision_stops_at_the_first_part_not_psd(monkeypatch):
    # the plane's parts are the whole, then five balls, and the star's ball
    # is the fourth part: nothing after it is factored
    sp = plane_with_star(300)
    assert part_psd_flags(sp) == [True] * 3 + [False, True, False]
    calls = []
    factor = embeddability.psd_check
    monkeypatch.setattr(embeddability, "psd_check", lambda *a, **k: calls.append(1) or factor(*a, **k))
    res = min_embedding_dimension(sp)
    assert not res.feasible and res.psd.witness_subset == (0, 116, 130, 228, 300)
    assert len(calls) == 4


def _shifted():
    """A small cloud scaled by 1e-200: decided and realized on the space
    scaled back into range by a power of two."""
    return scale_metric(cloud_space(random_cloud(np.random.default_rng(5), 6, 2)), 1e-200)


def _scan():
    return transfer_check(make_euclidean_subset(2, {"kind": "cube"}, [0.5, 0.5]), 1, samples_per_scale=4,
                          scales=[0.25, 0.125])


def _pseudometric():
    """The orthogonal-axes family at the centre of the unit square."""
    sp = make_euclidean_subset(2, {"kind": "cube"}, [0.5, 0.5])
    r = NormalizingSequence.geometric()
    family = marked_family(sp, lambda m: sp.p + r(m) * np.array([1.0, 0.0]),
                           lambda m: sp.p + r(m) * np.array([0.0, 1.0]))
    return pseudometric_matrix(sp, family, r, depth=40)


_RECORDS = {
    "space": lambda: cloud_space(random_cloud(np.random.default_rng(5), 6, 2)),
    "space-scaled": lambda: scale_metric(cloud_space(random_cloud(np.random.default_rng(5), 6, 2)), 3.0),
    "space-from-a-writable-array": lambda: FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]])),
    "cm-value": lambda: cm_value([[0, 1], [1, 0]]),
    "psd-report": lambda: psd_check(np.array([[0.0, 1.0], [1.0, 0.0]]), 0),
    "psd-report-not-psd": lambda: psd_check(np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]), 0),
    "min-dim-whole": lambda: min_embedding_dimension(cloud_space(random_cloud(np.random.default_rng(5), 6, 2))),
    "min-dim-ball": lambda: min_embedding_dimension(square_with_tetrahedron(1e-5)),
    "min-dim-shifted": lambda: min_embedding_dimension(_shifted()),
    "witness-verdict": lambda: menger_check(square_with_star(0.1), 1),
    "witness": lambda: menger_check(square_with_star(0.1), 1).witness,
    "realization": lambda: realize_coordinates(cloud_space(random_cloud(np.random.default_rng(5), 6, 2)), 2),
    "realization-shifted": lambda: realize_coordinates(_shifted(), 2),
    "decision": lambda: embeddability._decide(square_with_tetrahedron(1e-5), DEFAULT_TOL_DET),
    "transfer-report": _scan,
    "scan-report": lambda: _scan().scans[0],
    "scan-witness": lambda: _scan().scans[0].witness_inf,
    "curve-spec": lambda: CurveSpec(fn=abs, t0=0.0, t_min=-1.0, t_max=1.0),
    "normalizing-sequence": NormalizingSequence.geometric,
    "stability-verdict": lambda: _pseudometric().verdicts[0][1],
    "pseudometric-matrix": _pseudometric,
    "quotient-space": lambda: metric_identification(_pseudometric()),
    "blumenthal-report": lambda: blumenthal_sequence_scan(
        make_euclidean_subset(2, {"kind": "cube"}, [0.5, 0.5]),
        [lambda m: np.array([0.5, 0.5]), lambda m: np.array([0.5 + 0.5**m, 0.5]), lambda m: np.array([0.5, 0.5 + 0.5**m])],
        depth=40),
}


@pytest.mark.parametrize("build", list(_RECORDS.values()), ids=list(_RECORDS))
def test_records_stay_frozen_and_read_only(build):
    # no decorator freezes a record or its arrays, so every construction
    # path must
    record = build()
    names = getattr(record, "_fields", None) or list(vars(record))
    values = [getattr(record, name) for name in names]
    assert values
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    held = values + [v for nested in values if hasattr(nested, "_fields") for v in nested]
    assert all(not v.flags.writeable for v in held if isinstance(v, np.ndarray))
    if isinstance(record, FiniteMetricSpace):
        # spaces compare and hash by identity, which the decision cache keys on
        twin = FiniteMetricSpace(record.labels, np.array(record.dist), record.tol)
        assert np.array_equal(twin.dist, record.dist) and twin != record and hash(twin) != hash(record)


def test_every_public_record_is_a_named_tuple():
    # values are NamedTuples; the two spaces are objects, compared by identity
    # or swapped field by field with dataclasses.replace
    import metricembed

    classes = {name: getattr(metricembed, name) for name in metricembed.__all__}
    objects = {name for name, value in classes.items() if isinstance(value, type) and not issubclass(value, tuple)}
    assert objects == {"FiniteMetricSpace", "MarkedSpace"}
