"""Acceptance suite: one test per criterion, each printing a PASS line.

Run standalone with ``pytest -s tests/test_acceptance.py``. Every
criterion is oracle- or property-based: expected values come from
independent computations (circumradius geometry, least-squares embedding,
chord-product areas, affine rank via SVD), never from the code under test.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import least_squares

from metricembed import (
    as_marked,
    blumenthal_basis_search,
    blumenthal_sequence_scan,
    cm_determinant,
    cm_value,
    constant_sequence,
    freeze,
    liminf_scan,
    make_euclidean_subset,
    make_ultrametric,
    menger_check,
    min_embedding_dimension,
    realize_coordinates,
    s_functional,
    scale_metric,
    sch_determinant,
    sch_value,
    schoenberg_check,
    theta,
    transfer_check,
    validate_metric,
    NormalizingSequence,
)
from metricembed.spaces import perturbed_euclidean_space

from conftest import _signed_cm_stack, affine_rank, cloud_space, enumerated_verdict, random_cloud

TOL_DET = 1e-8
ZERO_BAND = 10 * TOL_DET

STAR = validate_metric([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]])


def report(num: int, text: str):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def plane_space(pitch=None):
    region = {"kind": "cube", "low": [0, 0], "high": [1, 1]}
    if pitch is not None:
        region["pitch"] = pitch
    return make_euclidean_subset(2, region, [0, 0])


def circle_space():
    return make_euclidean_subset(2, {"kind": "sphere-surface", "center": [0, 0], "radius": 1.0},
                                 [1, 0])


def test_criterion_1_homogeneity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        sp = perturbed_euclidean_space(int(4 + trial % 4), seed=trial)
        n = sp.n_points
        tuples = [tuple(range(size)) for size in range(2, n + 1)]
        tuples += [tuple(sorted(rng.choice(n, size=3, replace=False)))]
        base_cm = {t: cm_determinant(sp, t).value for t in tuples}
        base_sch = {t: sch_determinant(sp, t) for t in tuples}
        for lam in (0.1, 0.5, 2.0, 10.0):
            scaled = scale_metric(sp, lam)
            for t in tuples:
                k = len(t) - 1
                factor = lam ** (2 * k)
                got_cm = cm_determinant(scaled, t).value
                got_sch = sch_determinant(scaled, t)
                rel_cm = abs(got_cm - factor * base_cm[t]) / max(abs(factor * base_cm[t]), 1e-300)
                rel_sch = abs(got_sch - factor * base_sch[t]) / max(abs(factor * base_sch[t]), 1e-300)
                worst = max(worst, rel_cm, rel_sch)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, worst
    assert elapsed < 5.0, elapsed
    report(1, f"D_k and Sch scale as lambda^2k; worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_cross_engine_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(10_000):
        order = 3 + trial % 4
        m = rng.uniform(0.05, 2.0, size=(order, order))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        signed = cm_value(m).signed_value
        sch = sch_value(m)
        worst = max(worst, abs(sch - signed) / max(abs(signed), abs(sch), 1e-12))
    assert worst <= 1e-8, worst

    # Theta and S are bounded by the Hadamard constant of the normalized
    # matrix, so a unit absolute floor is the natural scale for agreement:
    # near-degenerate tuples put both values at rounding noise ~1e-16,
    # where a bare ratio would be meaningless.
    sp = make_euclidean_subset(2, {"kind": "cube", "low": [0, 0], "high": [1, 1]}, [0.3, 0.4])
    worst_ts = 0.0
    for seed in range(1000):
        k = 1 + seed % 5
        t = sp.sample(0.2, k, seed)
        a, b = theta(sp, t), s_functional(sp, t)
        worst_ts = max(worst_ts, abs(a - b) / max(abs(a), abs(b), 1.0))
    assert worst_ts <= 1e-9, worst_ts
    report(2, f"Sch = (-1)^(k+1) D_k on 1e4 matrices (worst {worst:.2e}); "
              f"Theta = S on 1e3 marked tuples (worst {worst_ts:.2e})")


def test_criterion_3_criterion_agreement():
    start = time.perf_counter()
    cases = undetermined = compared = 0
    for trial in range(500):
        sp = perturbed_euclidean_space(int(4 + trial % 4), seed=10_000 + trial, perturbation=0.15)
        for n in range(1, 6):
            cases += 1
            a = menger_check(sp, n, tol_det=TOL_DET).embeddable
            b = schoenberg_check(sp, n, tol_det=TOL_DET).embeddable
            # each decider equals the enumeration oracle wherever it is determined
            for engine, got in (("menger", a), ("schoenberg", b)):
                expected = enumerated_verdict(sp, n, engine, TOL_DET)
                if expected != "undetermined":
                    compared += 1
                    assert got == expected, (trial, n, engine, got, expected)
            if "undetermined" in (a, b):
                undetermined += 1
                continue
            assert a == b, (trial, n, a, b)
    elapsed = time.perf_counter() - start
    assert undetermined / cases < 0.02, undetermined
    assert elapsed < 60.0, elapsed
    report(3, f"menger and schoenberg agree on {cases} cases "
              f"({undetermined} undetermined = {100 * undetermined / cases:.2f}%) and equal the "
              f"enumeration oracle on {compared} determined checks, {elapsed:.1f}s")


def test_criterion_4_round_trip():
    rng = np.random.default_rng(404)
    checked = 0
    for trial in range(100):
        dim = int(rng.integers(1, 6))
        n_pts = int(rng.integers(dim + 1, 6 if dim == 1 else 11))
        pts = random_cloud(rng, n_pts, dim, min_distance=0.1)
        if trial % 5 == 0 and dim >= 2:
            # flatten onto a lower-dimensional subspace to exercise rank < dim
            flat_dim = int(rng.integers(1, dim))
            pts[:, flat_dim:] = pts[0, flat_dim:]
        sp = cloud_space(pts)
        rank = affine_rank(pts)
        res = min_embedding_dimension(sp)
        assert res.feasible and res.dim == rank, (trial, res.dim, rank)
        real = realize_coordinates(sp, max(rank, 1))
        assert real.max_residual <= 1e-7, (trial, real.max_residual)
        checked += 1
    report(4, f"{checked} clouds: min_embedding_dimension = affine rank, "
              f"realization residual <= 1e-7")


def _k13_lsq_residual(dim: int) -> float:
    """Best-effort isometric embedding of K_{1,3} into E^dim by
    least-squares; returns the max distance error at the best optimum."""
    d = STAR.dist
    pairs = list(combinations(range(4), 2))

    def residuals(flat):
        x = flat.reshape(4, dim)
        return np.array([np.linalg.norm(x[i] - x[j]) - d[i, j] for i, j in pairs])

    best = np.inf
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        x0 = rng.normal(scale=1.0, size=4 * dim)
        sol = least_squares(residuals, x0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        best = min(best, float(np.max(np.abs(residuals(sol.x)))))
    return best


def test_criterion_5_known_negatives():
    # Oracle 1: the three leaves form an equilateral triangle of side 2;
    # its circumradius is 2/sqrt(3) > 1, so no point sits at distance 1
    # from all three leaves in any Euclidean space.
    leaves = validate_metric([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    tri = realize_coordinates(leaves, 2)
    center = tri.coords.mean(axis=0)  # circumcenter of an equilateral triangle
    circumradius = float(np.linalg.norm(tri.coords[0] - center))
    assert circumradius == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    assert circumradius > 1.0 + 0.1

    # Oracle 2: nonlinear least squares cannot push the distortion under 0.01
    residuals = {}
    for dim in range(1, 6):
        residuals[dim] = _k13_lsq_residual(dim)
        assert residuals[dim] > 0.01, (dim, residuals[dim])

    for n in range(1, 6):
        mv = menger_check(STAR, n, tol_det=TOL_DET)
        sv = schoenberg_check(STAR, n, tol_det=TOL_DET)
        assert mv.embeddable == "no" and mv.witness is not None, n
        assert sv.embeddable == "no" and sv.witness is not None, n
        assert blumenthal_basis_search(STAR, n, tol_det=TOL_DET) is None, n
    mv3 = menger_check(STAR, 3)
    sv3 = schoenberg_check(STAR, 3)
    report(5, f"K_13 rejected for n=1..5 by all three criteria; witnesses e.g. "
              f"CM sign {mv3.witness.value:.1f} on {mv3.witness.indices}, "
              f"Sch minor {sv3.witness.value:.1f}; LSQ residuals "
              + ", ".join(f"E^{d}:{residuals[d]:.3f}" for d in residuals))


def test_criterion_6_exact_vanishing_conservation():
    plane = plane_space()
    # frozen subsets of the plane: every 4- and 5-point tuple has a zero
    # determinant, hence Theta_4 = Theta_5 = 0 within the zero band
    for scale in (0.5, 0.05, 0.005, 0.0005):
        frozen, marked = freeze(plane, scale, 6, seed=int(scale * 1e6))
        mk = as_marked(frozen, marked)
        idx = range(frozen.n_points)
        worst = 0.0
        for t in combinations(idx, 5):
            worst = max(worst, abs(theta(mk, t)))
        for t in combinations(idx, 6):
            worst = max(worst, abs(theta(mk, t)))
        assert worst <= ZERO_BAND, (scale, worst)

    # scan form: per-rung magnitudes of Theta_4, Theta_5 at the noise floor
    for k in (3, 4):
        rep = liminf_scan(plane, k, samples_per_scale=48, condition="vanishing", seed=6)
        rung_mag = [max(abs(a), abs(b)) for a, b in zip(rep.per_scale_inf, rep.per_scale_sup)]
        assert all(m <= ZERO_BAND for m in rung_mag), (k, rung_mag)
        assert rep.verdict == "supports"

    verdicts = []
    for seed in range(20):
        rep = transfer_check(plane, 2, samples_per_scale=32, seed=seed, tol_det=TOL_DET)
        verdicts.append(rep.verdict)
    assert all(v == "consistent-with-embeddable" for v in verdicts), verdicts
    report(6, "frozen E^2 subsets: Theta_4 = Theta_5 = 0 within 10*tol_det at every "
              "rung; transfer_check(plane, 2) consistent over 20 seeds")


def test_criterion_7_circle_decay():
    start = time.perf_counter()
    circle = circle_space()

    # Oracle: triples on the unit circle have circumradius exactly 1, so
    # area = (product of chords) / 4 and Theta_3 = (product of chords)^2 / delta^4.
    worst_rel = 0.0
    for seed in range(100):
        t = circle.sample(0.1, 2, seed)
        dm = circle.matrix(t)
        chords = dm[0, 1] * dm[0, 2] * dm[1, 2]
        delta = max(np.linalg.norm(np.asarray(x) - np.asarray(circle.p)) for x in t)
        oracle = chords**2 / delta**4
        got = theta(circle, t)
        worst_rel = max(worst_rel, abs(got - oracle) / max(oracle, 1e-30))
    assert worst_rel <= 1e-9, worst_rel

    rep = liminf_scan(circle, 2, samples_per_scale=128, condition="vanishing", seed=7,
                      tol_det=TOL_DET)
    scales = np.array(rep.scales)
    assert scales[-1] == pytest.approx(2.44140625e-4)
    infs = np.array(rep.per_scale_inf)
    sups = np.array(rep.per_scale_sup)
    assert np.all(infs > 0) and np.all(sups > 0)
    slope_inf = float(np.polyfit(np.log(scales), np.log(infs), 1)[0])
    slope_sup = float(np.polyfit(np.log(scales), np.log(sups), 1)[0])
    assert abs(slope_inf - 2.0) <= 0.3, slope_inf
    assert abs(slope_sup - 2.0) <= 0.3, slope_sup
    assert sups[-1] <= 1e-3
    assert rep.verdict == "supports"

    tc = transfer_check(circle, 1, samples_per_scale=64, seed=7, tol_det=TOL_DET)
    assert tc.verdict == "consistent-with-embeddable"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed
    report(7, f"circle Theta_3 decay exponents inf {slope_inf:.2f} / sup {slope_sup:.2f}, "
              f"final sup {sups[-1]:.2e} at scale 2.4e-4; transfer consistent; {elapsed:.1f}s")


def test_criterion_8_refutation_path():
    grid = plane_space(pitch=2.0**-14)

    # the mechanism: the eps-square triple keeps Theta_3 pinned at 1
    for eps in (0.25, 2.0**-6, 2.0**-14):
        t = (np.array([eps, 0.0]), np.array([0.0, eps]), np.array([eps, eps]))
        assert theta(grid, t) == pytest.approx(1.0, rel=1e-9)

    tc = transfer_check(grid, 1, samples_per_scale=96, seed=8, tol_det=TOL_DET)
    assert tc.verdict == "refuted"
    witness = tc.scans[tc.witness_scan]
    assert witness.k == 2 and witness.condition == "vanishing"
    assert witness.witness_sup is not None
    theta3 = next(s for s in tc.scans if s.k == 2 and s.mode == "theta")
    assert theta3.verdict == "refutes"
    assert all(s >= 0.5 for s in theta3.per_scale_sup), theta3.per_scale_sup
    report(8, f"plane-grid transfer at n=1 refuted by Theta_3: per-rung suprema "
              f"min {min(theta3.per_scale_sup):.2f} >= 0.5, witness tuple recorded")


def test_criterion_9_blumenthal_sequence_scan():
    sp = plane_space()
    r = NormalizingSequence.geometric(0.5, 0.5)
    x0 = constant_sequence(sp.p)
    x1 = lambda m: np.array([r(m), 0.0])
    x2 = lambda m: np.array([0.0, r(m)])
    rep = blumenthal_sequence_scan(sp, [x0, x1, x2], r=r, depth=64, tol_det=TOL_DET)
    tails = {k: (lo, hi) for k, lo, hi in rep.condition_i}
    assert tails[1][0] == pytest.approx(2.0, abs=1e-9)
    assert tails[1][1] == pytest.approx(2.0, abs=1e-9)
    assert tails[2][0] == pytest.approx(4.0, abs=1e-9)
    assert tails[2][1] == pytest.approx(4.0, abs=1e-9)
    for order, _, _, hi in rep.condition_ii:
        assert order in (3, 4)
        assert hi <= ZERO_BAND, (order, hi)
    assert rep.verdict == "supports"
    report(9, "orthogonal-axes sequences: (Theta_2, Theta_3) tails = (2, 4) within 1e-9; "
              "|Theta_4|, |Theta_5| <= 10*tol_det for the default probe battery; supports n=2")


def test_criterion_10_ultrametric_determination():
    sp = make_ultrametric(7, 3)
    values = []
    for seed in range(1000):
        scale = [0.6, 0.3, 0.12, 0.05][seed % 4]
        t = sp.sample(scale, 2, seed)
        dm = sp.matrix(t)
        # the ultra-triangle functional max(d02, d21) - d01
        values.append(max(dm[0, 2], dm[2, 1]) - dm[0, 1])
    assert all(v >= 0.0 for v in values)
    assert min(values) == 0.0 or min(values) > 0  # exact, no tolerance involved
    report(10, f"ultra-triangle functional >= 0 exactly on 1000 sampled triples "
               f"(min {min(values)})")


LAMBDAS = (1e-6, 1e-3, 1.0, 1e3, 1e6)
TETRAHEDRON = validate_metric(np.ones((4, 4)) - np.eye(4))
CYCLE4 = validate_metric([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])


def _blumenthal_oracle(space, n: int) -> bool:
    """Brute force: some (n+1)-subset has positive signed determinants at
    every prefix order, and every one- or two-point extension vanishes."""
    npts = space.n_points
    if npts < n + 1:
        return False
    sq = space.dist * space.dist
    subsets = np.array(list(combinations(range(npts), n + 1)))
    ok = np.ones(len(subsets), dtype=bool)
    for size in range(2, n + 2):
        signed, zero = _signed_cm_stack(sq, subsets[:, :size], TOL_DET)
        ok &= (signed > 0) & ~zero
    for basis in subsets[ok]:
        rest = [i for i in range(npts) if i not in set(basis)]
        singles = [list(basis) + [y] for y in rest]
        pairs = [list(basis) + [y, z] for y, z in combinations(rest, 2)]
        if all(np.all(_signed_cm_stack(sq, np.array(e), TOL_DET)[1]) for e in (singles, pairs) if e):
            return True
    return False


def _criterion_11_spaces() -> list[tuple[str, object, int | None]]:
    """(name, space, minimal dimension or None) for the scale-invariance
    suite; every space has at most 10 points, small enough for the
    brute-force Blumenthal oracle."""
    spaces = [("star", STAR, None), ("tetrahedron", TETRAHEDRON, 3), ("cycle4", CYCLE4, None)]
    rng = np.random.default_rng(1111)
    for i in range(20):
        rank = 1 + i % 4
        n_pts = int(rng.integers(rank + 2, 11))
        flat = random_cloud(rng, n_pts, rank)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        pts = np.hstack([flat, np.zeros((n_pts, 5 - rank))]) @ q.T
        spaces.append((f"cloud{i}", cloud_space(pts), affine_rank(pts)))
    return spaces


def test_criterion_11_scale_invariance():
    start = time.perf_counter()
    checks = 0
    for name, unit_space, rank in _criterion_11_spaces():
        dims = range(1, 4) if rank is None else range(1, rank + 2)
        reference = None
        for lam in LAMBDAS:
            sp = scale_metric(unit_space, lam)
            md = min_embedding_dimension(sp, tol_det=TOL_DET)
            assert md.feasible == (rank is not None), (name, lam)
            assert md.dim == rank, (name, lam, md.dim)
            verdicts = []
            for n in dims:
                mv = menger_check(sp, n, tol_det=TOL_DET).embeddable
                sv = schoenberg_check(sp, n, tol_det=TOL_DET).embeddable
                basis = blumenthal_basis_search(sp, n, tol_det=TOL_DET)
                expected = "yes" if rank is not None and n >= rank else "no"
                assert mv == sv == expected, (name, lam, n, mv, sv)
                assert (basis is not None) == (n == rank), (name, lam, n, basis)
                assert (basis is not None) == _blumenthal_oracle(sp, n), (name, lam, n)
                verdicts.append((mv, sv, basis is not None))
                checks += 1
            signature = (md.feasible, md.dim, verdicts)
            reference = reference or signature
            assert signature == reference, (name, lam, signature, reference)
            if rank is None:
                continue
            real = realize_coordinates(sp, rank, tol_det=TOL_DET)
            assert real.m == rank
            assert real.max_residual <= 1e-7 * float(np.max(sp.dist)), (name, lam, real.max_residual)
            # Schoenberg confirms min-dim: it accepts m and rejects m - 1
            assert schoenberg_check(sp, rank, tol_det=TOL_DET).embeddable == "yes", (name, lam)
            if rank >= 2:
                assert schoenberg_check(sp, rank - 1, tol_det=TOL_DET).embeddable == "no", (name, lam)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed
    report(11, f"star, tetrahedron, 4-cycle and 20 SVD-ranked clouds at lambda = 1e-6 .. 1e6: "
               f"menger, schoenberg, blumenthal (= brute-force oracle) and min-dim scale-invariant "
               f"over {checks} checks; residual <= 1e-7 max d; {elapsed:.1f}s")
