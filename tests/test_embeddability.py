"""Embeddability criteria, dimension search, realization, basis search."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from metricembed import (
    blumenthal_basis_search,
    cm_determinant,
    menger_check,
    min_embedding_dimension,
    realize_coordinates,
    scale_metric,
    schoenberg_check,
    validate_metric,
)
from metricembed.determinants import within_band
from metricembed.errors import (
    DimensionOutOfRangeError,
    DistanceOutOfRangeError,
    NotEmbeddableError,
    RankExceedsRequestedError,
)
from metricembed.spaces import perturbed_euclidean_space

from conftest import (
    _signed_cm_stack,
    affine_rank,
    cloud_space,
    enumerated_verdict,
    exact_psd_rank,
    line_with_triangle,
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

    def test_borderline_negative_counts_as_zero(self):
        # d(0,2) exceeds d(0,1)+d(1,2) by an amount inside both the metric
        # tolerance and the determinant zero band: the signed determinant
        # comes out minutely negative, and a value inside the band is zero
        eps = 1e-13
        sp = validate_metric([[0, 1, 2 + eps], [1, 0, 1], [2 + eps, 1, 0]])
        for check in (menger_check, schoenberg_check):
            v = check(sp, 2)
            assert v.embeddable == "yes", check
            assert v.to_json_dict()["borderline_count"] == 0
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
        assert menger_check(sp, 3).witness.indices == (4, 5, 6, 7)

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

    def test_ball_decides_in_point_indices(self):
        # the tetrahedron of points 4-7 decides m = 3 from its own ball,
        # whose factor nothing reads
        sp = square_with_tetrahedron(1e-5)
        res = min_embedding_dimension(sp)
        assert res.dim == 3 and res.psd.factor is None
        assert {res.base, *res.psd.pivots} == {4, 5, 6, 7}
        assert blumenthal_basis_search(sp, 3) == (res.base, *res.psd.pivots)

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e-160, 1e-300])
    def test_distances_outside_certifiable_range_refused(self, scale, unit_square):
        # squared distances that overflow or leave the normal floats: no
        # question is decided (the ball search would never end above 1e154)
        sp = scale_metric(unit_square, scale)
        for ask in (min_embedding_dimension, lambda sp: menger_check(sp, 1), lambda sp: realize_coordinates(sp, 2),
                    lambda sp: blumenthal_basis_search(sp, 2)):
            with pytest.raises(DistanceOutOfRangeError):
                ask(sp)


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
    def test_json_dict_keys(self, equilateral):
        d = menger_check(equilateral, 2).to_json_dict()
        for key in ("criterion", "n", "verdict", "witness_tuple", "witness_value", "residual"):
            assert key in d

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
            assert v.to_json_dict()["witness_kind"] == "vanishing(order 3)"
            assert "exhaustive" not in v.to_json_dict()
            cm = cm_determinant(sp, w.indices)
            # Menger reports raw D_3 for a vanishing witness, Schoenberg (-1)^(k+1) D_3
            assert w.value == pytest.approx(cm.value if check is menger_check else cm.signed_value, rel=1e-6)
            sq_max = float(np.max(sp.dist[np.ix_(w.indices, w.indices)])) ** 2
            assert not within_band(w.value, sq_max, 3)


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


SWEEP = {**{f"simplex{d}": _integer_simplex(d) for d in (2, 4, 8, 12, 13, 14, 16, 20, 24, 29)},
         **{f"cloud{s}": _integer_cloud(s) for s in range(8)}}

#: Inputs of the sweep whose exact rank m the zero rule reads lower: name
#: -> the package's min-dim (ROADMAP item 7). Each row becomes an
#: agreement once the zero rule stops flattening well-spread simplices.
ZERO_RULE_FLATTENS = {"simplex13": 12, "simplex14": 13, "simplex16": 14, "simplex20": 17, "simplex24": 20,
                      "simplex29": 23, "cloud2": 8}


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
