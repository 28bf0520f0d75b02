"""Determinant engines: frozen oracle values, identities, PSD checks.

Expected values are hand-derived:

* pair at distance d: cofactor expansion of the 3x3 bordered matrix gives
  D_1 = 2 d^2, so d=3 -> 18 and the tau matrix is [[2 d^2]].
* equilateral side 1: area sqrt(3)/4, so the volume relation
  V^2 = (-1)^(k+1) D_k / (2^k (k!)^2) gives D_2 = -16 * 3/16 = -3, and
  tau = [[2, 1], [1, 2]] has determinant 3.
* coplanar quadruples (unit square) have zero 3-simplex volume: D_3 = 0.
"""

import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricembed import (
    cm_determinant,
    cm_value,
    psd_check,
    scale_metric,
    sch_determinant,
    sch_value,
    submatrix,
    validate_metric,
)
from metricembed.determinants import tau_about, tuple_heights, within_band
from metricembed.errors import IndexOutOfRangeError, NonzeroDiagonalError, NotSymmetricError, TupleTooShortError
from metricembed.metric import ROW_BLOCK, euclidean_matrix
from metricembed.spaces import perturbed_euclidean_space

from conftest import reference_psd_check


def pair(d):
    return validate_metric([[0, d], [d, 0]])


class TestCayleyMenger:
    def test_pair_d3(self):
        cm = cm_determinant(pair(3.0), (0, 1))
        assert cm.k == 1
        assert cm.value == pytest.approx(18.0, rel=1e-12)
        assert cm.signed_value == pytest.approx(18.0, rel=1e-12)

    def test_equilateral(self, equilateral):
        cm = cm_determinant(equilateral, (0, 1, 2))
        assert cm.value == pytest.approx(-3.0, rel=1e-12)
        assert cm.signed_value == pytest.approx(3.0, rel=1e-12)

    def test_unit_square_coplanar(self, unit_square):
        cm = cm_determinant(unit_square, (0, 1, 2, 3))
        assert cm.value == pytest.approx(0.0, abs=1e-12)
        assert within_band(tuple_heights(unit_square.dist)[0], 1.0)
        # a regular tetrahedron of the same size is not flat
        tet = validate_metric(np.ones((4, 4)) - np.eye(4))
        assert not within_band(tuple_heights(tet.dist)[0], 1.0)

    def test_signed_value_parity(self):
        # signed_value = (-1)^(k+1) * value by definition
        for k, expected_sign in [(1, 1.0), (2, -1.0), (3, 1.0), (4, -1.0)]:
            cm = cm_value(np.ones((k + 1, k + 1)) - np.eye(k + 1))
            assert cm.signed_value == pytest.approx(expected_sign * cm.value)

    def test_tuple_too_short(self, equilateral):
        with pytest.raises(TupleTooShortError):
            cm_determinant(equilateral, (0,))

    def test_permutation_invariance(self):
        sp = perturbed_euclidean_space(5, seed=11)
        rng = np.random.default_rng(0)
        t = (0, 1, 2, 3, 4)
        base = cm_determinant(sp, t).value
        for _ in range(6):
            perm = tuple(rng.permutation(5))
            assert cm_determinant(sp, perm).value == pytest.approx(base, rel=1e-9)

    def test_duplicate_collapse(self):
        sp = perturbed_euclidean_space(5, seed=2)
        for t in [(0, 0, 1), (0, 1, 1, 2), (3, 2, 3)]:
            for value in tuple_heights(submatrix(sp, t)):
                assert within_band(value, 1.0, 1e-12), t


def simplex_volume_sq(space, t):
    """Squared k-simplex volume ``(-1)^(k+1) D_k / (2^k (k!)^2)``, raw."""
    cm = cm_determinant(space, t)
    return cm.signed_value / (2.0**cm.k * float(math.factorial(cm.k)) ** 2)


def tau(space, t):
    """tau matrix of a tuple whose first entry is the base point."""
    return tau_about(submatrix(space, t) ** 2)[1:, 1:]


class TestVolume:
    def test_segment_length_squared(self):
        assert simplex_volume_sq(pair(2.0), (0, 1)) == pytest.approx(4.0, rel=1e-12)

    def test_equilateral_area_squared(self, equilateral):
        assert simplex_volume_sq(equilateral, (0, 1, 2)) == pytest.approx(3.0 / 16.0, rel=1e-12)

    def test_repeated_point_zero(self):
        assert simplex_volume_sq(pair(1.0), (0, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_negative_for_unrealizable(self, star_k13):
        # K_{1,3} full quadruple is not realizable: squared volume negative
        assert simplex_volume_sq(star_k13, (0, 1, 2, 3)) < 0


class TestTauAndSch:
    def test_pair(self):
        assert tau(pair(1.0), (0, 1)).tolist() == [[2.0]]
        assert sch_determinant(pair(1.0), (0, 1)) == pytest.approx(2.0)

    def test_equilateral(self, equilateral):
        assert tau(equilateral, (0, 1, 2)).tolist() == [[2.0, 1.0], [1.0, 2.0]]
        assert sch_determinant(equilateral, (0, 1, 2)) == pytest.approx(3.0)

    def test_base_duplicate_zero_row(self, equilateral):
        # a point equal to the base makes its tau row and column vanish
        tm = tau(equilateral, (0, 0, 1))
        assert np.allclose(tm[0, :], 0.0)
        assert np.allclose(tm[:, 0], 0.0)

    def test_symmetry(self):
        sp = perturbed_euclidean_space(6, seed=5)
        tm = tau(sp, (2, 0, 1, 3, 4))
        assert np.allclose(tm, tm.T)
        assert np.allclose(np.diag(tm), 2.0 * sp.dist[2, [0, 1, 3, 4]] ** 2)


class TestCrossEngine:
    def test_identity_on_random_symmetric_data(self):
        # Sch = (-1)^(k+1) D_k for arbitrary symmetric zero-diagonal data,
        # realizable or not; brute-force check before anything relies on it
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            m = rng.uniform(0.02, 2.0, size=(n, n))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.0)
            cm = cm_value(m)
            sch = sch_value(m)
            assert sch == pytest.approx(cm.signed_value, rel=1e-8, abs=1e-10)

    def test_sch_independent_of_base(self):
        # Sch is evaluated with one base per tuple; verify by brute force
        # that every rotation of the tuple (every base) gives the same value
        rng = np.random.default_rng(43)
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            m = rng.uniform(0.02, 2.0, size=(n, n))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.0)
            first = sch_value(m)
            for r in range(1, n):
                order = np.roll(np.arange(n), -r)
                assert sch_value(m[np.ix_(order, order)]) == pytest.approx(first, rel=1e-8)


def exact_det(a) -> Fraction:
    """Determinant of an integer matrix by elimination over Fraction."""
    a = [[Fraction(int(x)) for x in row] for row in a]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for j in range(c, len(a)):
                a[r][j] -= f * a[c][j]
    return det


class TestAccuracy:
    def test_thin_tuples_listed_far_point_first(self):
        # k near points 5000 away from a far point listed first: evaluated
        # from the far point, Sch was off by up to 2.7e-2 relative; from
        # the point nearest the centroid both engines stay within 1e-4
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(200):
            k = int(rng.integers(2, 5))
            pts = np.vstack([rng.integers(-2000, 2001, size=(1, k)), rng.integers(-3, 4, size=(k, k)) + 5000])
            sq = ((pts[:, None] - pts[None]) ** 2).sum(axis=-1)
            exact = exact_det(tau_about(sq)[1:, 1:])
            if exact == 0:
                continue
            checked += 1
            dm = np.sqrt(sq.astype(float))
            for value in (cm_value(dm).signed_value, sch_value(dm)):
                assert abs(Fraction(value) - exact) <= 1e-4 * abs(exact), (pts.tolist(), value, exact)
        assert checked >= 190


class TestHomogeneity:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0), st.integers(min_value=0, max_value=10**6))
    def test_cm_and_sch_scale_as_lambda_2k(self, lam, seed):
        sp = perturbed_euclidean_space(5, seed=seed)
        scaled = scale_metric(sp, lam)
        for t in [(0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4)]:
            k = len(t) - 1
            assert cm_determinant(scaled, t).value == pytest.approx(
                lam ** (2 * k) * cm_determinant(sp, t).value, rel=1e-9, abs=1e-12)
            assert sch_determinant(scaled, t) == pytest.approx(
                lam ** (2 * k) * sch_determinant(sp, t), rel=1e-9, abs=1e-12)


def sq_about_0(m) -> np.ndarray:
    """The squared distances whose tau about point 0 is ``m``, row i of
    ``m`` becoming point i + 1: d^2(0, i) = m_ii / 2 and d^2(i, j) =
    (m_ii + m_jj) / 2 - m_ij."""
    m = np.asarray(m, dtype=float)
    half = np.diag(m) / 2.0
    sq = np.zeros((len(m) + 1,) * 2)
    sq[0, 1:] = sq[1:, 0] = half
    sq[1:, 1:] = half[:, None] + half[None, :] - m
    return sq


class TestPsd:
    def test_psd_rank2(self):
        rep = psd_check(sq_about_0([[2.0, 1.0], [1.0, 2.0]]), 0)
        assert rep.psd and rep.rank == 2

    def test_zero_matrix(self):
        rep = psd_check(sq_about_0(np.zeros((2, 2))), 0)
        assert rep.psd and rep.rank == 0

    def test_indefinite_with_witness(self):
        rep = psd_check(sq_about_0([[1.0, 2.0], [2.0, 1.0]]), 0)
        assert not rep.psd
        # the violating tuple's points, the base included
        assert rep.witness_subset == (0, 1, 2)
        assert rep.witness_value == pytest.approx(-3.0)

    def test_modes_agree_on_small_integer_matrices(self):
        # the pivoted factorization against the classical criterion: a
        # symmetric matrix is PSD iff every principal minor is >= 0
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = rng.integers(-2, 3, size=(n, n)).astype(float)
            m = (m + m.T) / 2
            rep = psd_check(sq_about_0(m), 0)
            assert rep.psd == _all_minors_psd(m), m
            if rep.psd:
                assert rep.rank == np.linalg.matrix_rank(m), m
            else:
                # the violating minor over the pivots' minor, which is the
                # Schur pivot or pair value, over its tuple's largest
                # squared distance to the power of the points it adds
                # the witness names the base 0; m is tau without its row
                assert rep.witness_subset[0] == 0
                ix, pv = np.asarray(rep.witness_subset[1:]) - 1, np.asarray(rep.pivots, dtype=int) - 1
                sq = np.abs(sq_about_0(m))
                sq_max = np.max(sq[np.ix_(rep.witness_subset, rep.witness_subset)])
                schur = np.linalg.det(m[np.ix_(ix, ix)]) / np.linalg.det(m[np.ix_(pv, pv)])
                assert rep.witness_value == pytest.approx(schur / sq_max ** (len(ix) - len(pv)))
                assert rep.witness_value < 0

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            psd_check(np.array([[0.0, 1.0], [2.0, 0.0]]), 0)

    def test_refuses_non_square_and_nonzero_diagonal(self):
        with pytest.raises(NotSymmetricError):
            psd_check(np.zeros((2, 3)), 0)
        with pytest.raises(NonzeroDiagonalError):
            psd_check(np.array([[1.0, 1.0], [1.0, 0.0]]), 0)
        # an infinite entry read psd=True with a NaN factor, and a NaN one
        # was refused as asymmetric
        for entry in (np.inf, np.nan):
            with pytest.raises(ValueError, match=r"^non-finite squared distance at \(0,1\)$"):
                psd_check(np.array([[0.0, entry], [entry, 0.0]]), 0)

    def test_refuses_a_base_that_is_not_a_point_index(self):
        # -1 factored about the last point; 3, True and 1.5 met numpy's IndexError
        sq = sq_about_0([[2.0, 1.0], [1.0, 2.0]])
        for base in (-1, 3, True, 1.5):
            with pytest.raises(IndexOutOfRangeError, match=r"is not an index of the 3 points$"):
                psd_check(sq, base)
        assert psd_check(sq, np.int64(2)).rank == 2

    def test_tau_about_any_base_of_the_same_space(self):
        # the base row and column are exact zeros, and every base of a
        # Euclidean cloud gives the same rank
        sq = perturbed_euclidean_space(6, seed=5, dim=3, perturbation=0.0).dist ** 2
        for base in range(6):
            tm = tau_about(sq, base)
            assert not tm[base].any() and not tm[:, base].any()
            assert psd_check(sq, base).rank == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_leftover_is_what_the_factor_leaves_of_tau(self, seed):
        # the read-only Schur complement: tau - F F^T, in the units of sq
        rng = np.random.default_rng(seed)
        for rank in (1, 3, 6):
            sq = euclidean_matrix(rng.normal(size=(40, rank)) * 10.0 ** rng.uniform(-3, 3)) ** 2
            rep = psd_check(sq, seed)
            assert rep.psd and rep.rank == rank and not rep.leftover.flags.writeable
            rest = tau_about(sq, seed) - rep.factor @ rep.factor.T
            assert np.max(np.abs(rep.leftover - rest)) <= 1e-12 * np.max(sq)

    def test_no_leftover_when_not_psd(self, star_k13):
        assert psd_check(star_k13.dist ** 2, 0).leftover is None


def _blocked_inputs(n: int):
    """Seeded squared-distance matrices of n points, as (name, sq, base)."""
    rng = np.random.default_rng(n)

    def cloud(rank, size=n):
        return rng.normal(size=(size, rank)) * rng.uniform(0.5, 2.0, size=rank)

    yield "rank-4", euclidean_matrix(cloud(4)) ** 2, 0
    yield "rank-12", euclidean_matrix(cloud(12)) ** 2, n // 2
    # one distance stretched: a diagonal Schur entry goes negative
    d = euclidean_matrix(cloud(3))
    d[1, n - 2] = d[n - 2, 1] = 1.3 * d[1, n - 2]
    yield "stretched", d * d, n - 1
    # two pairs of copies of point 1, each pair at a positive distance: the
    # copies' own Schur entries vanish, and the two pairs' minors are equal
    # and negative, in different blocks once n > ROW_BLOCK + 2
    sq = euclidean_matrix(cloud(2)) ** 2
    twins = [2, 3, n - 2, n - 1]
    sq[twins] = sq[1]
    sq[:, twins] = sq[:, [1]]
    sq[np.ix_([1] + twins, [1] + twins)] = 0.0
    sq[2, 3] = sq[3, 2] = sq[n - 2, n - 1] = sq[n - 1, n - 2] = 0.5
    yield "twins", sq, 0
    # multi-scale: a K_{1,3} star of edge 1e-6 about point 0 of a rank-3 cloud
    x = cloud(3, n - 3)
    d = np.zeros((n, n))
    d[:n - 3, :n - 3] = euclidean_matrix(x)
    d[n - 3:, :n - 3] = d[0, :n - 3]
    d[:n - 3, n - 3:] = d[n - 3:, :n - 3].T
    d[n - 3:, 0] = d[0, n - 3:] = 1e-6
    d[n - 3:, n - 3:] = 2e-6
    np.fill_diagonal(d, 0.0)
    yield "star", d * d, 0


class TestBlockedFactorization:
    """``psd_check`` runs its updates and its pair test in row blocks; its
    report is the unblocked reference's, bit for bit, on either side of
    the block edges."""

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_matches_unblocked_reference(self, n):
        seen = set()
        for name, sq, base in _blocked_inputs(n):
            got, ref = psd_check(sq, base), reference_psd_check(sq, base)
            assert (got.psd, got.rank, got.pivots) == (ref.psd, ref.rank, ref.pivots), name
            assert (got.witness_subset, got.witness_value) == (ref.witness_subset, ref.witness_value), name
            assert np.array_equal(got.factor, ref.factor), name
            assert (got.leftover is None) == (ref.leftover is None) == (not got.psd), name
            assert not got.psd or np.array_equal(got.leftover, ref.leftover), name
            seen.add((got.psd, got.rank))
            if name == "twins":
                # found by the pair test, on the first pair of copies
                assert not got.psd and {2, 3} <= set(got.witness_subset)
            if name == "stretched":
                assert not got.psd
        assert len(seen) >= 4


def _all_minors_psd(m: np.ndarray) -> bool:
    """Brute-force oracle: no principal minor is negative. The matrices hold
    halves of integers, so a nonzero minor of order <= 6 is at least 2^-6."""
    n = m.shape[0]
    return all(np.linalg.det(m[np.ix_(s, s)]) > -1e-9
               for size in range(1, n + 1) for s in map(list, combinations(range(n), size)))


@pytest.mark.parametrize("shape", [(2, 3), (3,)])
def test_engines_refuse_a_matrix_that_is_not_square(shape):
    # one type and one text from every reader, for an array and for a list;
    # numpy's IndexError once stood for this refusal, and a list and
    # validate_metric raised a plain ValueError
    matrices = [np.zeros(shape)]
    if shape == (2, 3):
        matrices.append([[0, 1, 2], [1, 0, 3]])
    for call in (cm_value, sch_value, lambda m: psd_check(m, 0), validate_metric):
        for matrix in matrices:
            with pytest.raises(NotSymmetricError,
                               match=rf"^distance matrix must be square, got shape {re.escape(str(shape))}$"):
                call(matrix)


def test_psd_check_tol_det_must_be_a_number():
    # True passed the bounds as the number 1, the widest band
    sq = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"^tol_det must be in \(0, 1\), got True$"):
        psd_check(sq, 0, tol_det=True)
