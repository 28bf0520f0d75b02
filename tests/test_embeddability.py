"""Embeddability criteria, dimension search, realization, basis search."""

import numpy as np
import pytest

from metricembed import (
    blumenthal_basis_search,
    menger_check,
    min_embedding_dimension,
    realize_coordinates,
    schoenberg_check,
    validate_metric,
)
from metricembed.errors import DimensionOutOfRangeError, NotEmbeddableError
from metricembed.spaces import perturbed_euclidean_space

from conftest import affine_rank, cloud_space, random_cloud


class TestMenger:
    def test_equilateral_plane(self, equilateral):
        assert menger_check(equilateral, 2).embeddable == "yes"

    def test_equilateral_line_rejected_with_witness(self, equilateral):
        v = menger_check(equilateral, 1)
        assert v.embeddable == "no"
        assert v.witness is not None
        assert v.witness.indices == (0, 1, 2)
        assert v.witness.kind == "vanishing"
        assert v.witness.value == pytest.approx(-3.0, rel=1e-9)

    def test_star_rejected_everywhere(self, star_k13):
        for n in range(1, 5):
            v = menger_check(star_k13, n)
            assert v.embeddable == "no", n
            assert v.witness is not None

    def test_dimension_out_of_range(self, equilateral):
        with pytest.raises(DimensionOutOfRangeError):
            menger_check(equilateral, 0)

    def test_monotone_in_dimension(self):
        for seed in range(20):
            sp = perturbed_euclidean_space(int(5 + seed % 3), seed=seed)
            prev = None
            for n in range(1, 6):
                got = menger_check(sp, n).embeddable
                if prev == "yes":
                    assert got == "yes", (seed, n)
                prev = got

    def test_borderline_downgrades_to_undetermined(self):
        # d(0,2) exceeds d(0,1)+d(1,2) by an amount inside both the metric
        # tolerance and the determinant zero band: the signed determinant
        # comes out minutely negative, which must not read as a rejection
        eps = 1e-13
        sp = validate_metric([[0, 1, 2 + eps], [1, 0, 1], [2 + eps, 1, 0]])
        v = menger_check(sp, 2)
        assert v.embeddable == "undetermined"
        assert v.borderline_count == 1
        assert v.witness is not None  # worst borderline reported


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
                if "undetermined" in (a, b):
                    undetermined += 1
                    continue
                assert a == b, (seed, n, a, b)
        assert undetermined <= 6  # < 2% of 300 cases


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

    def test_rank_exceeds_requested(self):
        # the factorization itself refuses to squeeze rank 3 into R^2
        from metricembed.errors import RankExceedsRequestedError
        tet = validate_metric(np.ones((4, 4)) - np.eye(4))
        with pytest.raises(RankExceedsRequestedError):
            realize_coordinates(tet, 2)


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
    def test_json_dict_keys(self, equilateral):
        d = menger_check(equilateral, 2).to_json_dict()
        for key in ("criterion", "n", "verdict", "witness_tuple", "witness_value", "residual"):
            assert key in d

    def test_sampling_mode_declares_non_exhaustive(self):
        rng = np.random.default_rng(2)
        pts = random_cloud(rng, 30, 3, min_distance=0.05)
        sp = cloud_space(pts)
        v = menger_check(sp, 3, sample_budget=200)
        assert not v.exhaustive
        assert v.embeddable == "yes"
