"""The infinitesimal layer: rescaled limits at a marked point.

Point sequences converging to a marked point ``p``, rescaled by a
normalizing sequence ``r_m -> 0``, induce a pseudometric on families of
sequences (``mutual_stability`` / ``pseudometric_matrix``) whose metric
identification (``metric_identification``) is a rescaled-limit space at
``p``. Whether every such limit space embeds in E^n is equivalent to
sign/vanishing conditions on two normalized determinant functionals:

* ``theta``: the signed Cayley-Menger determinant of a (k+1)-tuple divided
  by ``delta^(2k)``, where ``delta`` is the largest distance to ``p``;
* ``s_functional``: the Schoenberg determinant with the same normalization.

``liminf_scan`` estimates the liminf/limsup of those functionals over
tuples shrinking toward ``p`` on a geometric scale ladder;
``transfer_check`` aggregates the scans for a target dimension, and
``blumenthal_sequence_scan`` tests the sequence-wise conditions for the
existence of a limit space of exact dimension n.

Scans sample: per rung they draw one cloud near ``p`` and evaluate index
tuples into it with stacked determinants. They can refute (persistent
violation) or support, never prove. All scans are deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, combinations
from typing import Any, Callable, Sequence

import numpy as np

from .determinants import DEFAULT_TOL_DET, bordered_matrix, tau_from_matrix
from .errors import (
    ArityMismatchError,
    DegenerateNormalizerError,
    DimensionOutOfRangeError,
    EmptySampleError,
    MergeInconsistencyError,
    NonconvergentSequenceError,
    NonpositiveExponentError,
    SamplerScaleMismatchError,
    TupleTooShortError,
    UnstableInputError,
)
from .metric import FiniteMetricSpace, validate_metric
from .spaces import MarkedSpace

#: Stability window: verdicts are read off the last half of the depth;
#: instability needs oscillation above 10x the tolerance that also
#: persists over the last quarter.
STABILITY_WINDOW = 0.5
INSTABILITY_FACTOR = 10.0

#: Scan verdict thresholds. A delta-normalized Theta/S value within the
#: noise floor NOISE_FLOOR_FACTOR * tol_det of 0 is zero: sign conditions
#: support when the running liminf stays above -floor and refute when
#: every tail rung's infimum sits below -REFUTE_LEVEL. Vanishing conditions
#: support either at the floor or through a fitted decay with exponent
#: above DECAY_EXPONENT_MIN and a tail magnitude down by DECAY_DROP; they
#: refute when tail magnitudes stay above REFUTE_LEVEL with no decay trend.
NOISE_FLOOR_FACTOR = 10.0
REFUTE_LEVEL = 1e-3
DECAY_EXPONENT_MIN = 0.5
FLAT_EXPONENT_MAX = 0.1
DECAY_DROP = 0.1

#: Version of the scans' random stream, echoed in the ``scan`` config:
#: version 1 drew every tuple on its own; version 2 draws one cloud per
#: rung and takes index tuples into it.
SAMPLER_VERSION = 2

#: A rung's cloud holds min(2 * samples_per_scale, CLOUD_CAP) + k_max + 1
#: points, so its distance matrix stays bounded however many tuples a
#: scan takes; up to 1024 samples per scale the cap never binds.
CLOUD_CAP = 2048

#: Rows of sort keys drawn at once when taking index tuples into a cloud.
KEY_BLOCK = 256

#: The functional modes every scan pass evaluates, in report order.
MODES = ("theta", "s")


# ---------------------------------------------------------------------------
# Normalizing and point sequences


@dataclass(frozen=True)
class NormalizingSequence:
    """Positive reals strictly decreasing to zero, indexed from 0."""

    fn: Callable[[int], float]

    @classmethod
    def geometric(cls, r0: float = 0.5, q: float = 0.5) -> "NormalizingSequence":
        if not (r0 > 0 and 0 < q < 1):
            raise ValueError("need r0 > 0 and 0 < q < 1")
        return cls(fn=lambda m: r0 * q**m)

    def __call__(self, m: int) -> float:
        r = float(self.fn(m))
        if not (r > 0) or not math.isfinite(r) or r < 1e-300:
            raise DegenerateNormalizerError(f"r_{m} = {r!r} degenerate")
        return r

    def values(self, depth: int) -> np.ndarray:
        vals = np.array([self(m) for m in range(depth)])
        if np.any(np.diff(vals) >= 0):
            m = int(np.argmax(np.diff(vals) >= 0))
            raise ValueError(f"normalizing sequence not strictly decreasing at m={m}")
        return vals


PointSequence = Callable[[int], Any]


def constant_sequence(point) -> PointSequence:
    return lambda m: point


def marked_family(space: MarkedSpace, *seqs: PointSequence) -> tuple[PointSequence, ...]:
    """Family with the constant-p sequence structurally at index 0."""
    return (constant_sequence(space.p),) + tuple(seqs)


def _sequence_stack(space: MarkedSpace, family: Sequence[PointSequence], depth: int) -> np.ndarray:
    """Distances within a family at every index: a (depth, F, F) stack, one
    ``space.matrix`` call per index, so each sequence is evaluated once per
    index."""
    return np.stack([space.matrix([seq(m) for seq in family]) for m in range(depth)])


# ---------------------------------------------------------------------------
# Scales and functionals


def _with_p(space: MarkedSpace, t: Sequence) -> np.ndarray:
    """Distance matrix of (p,) + t: row 0 holds the distances to p."""
    if len(t) == 0:
        raise ValueError("a scale needs a nonempty tuple")
    return space.matrix((space.p,) + tuple(t))


def delta_scale(space: MarkedSpace, t: Sequence) -> float:
    """Largest distance from the tuple's points to the marked point."""
    return float(np.max(_with_p(space, t)[0, 1:]))


def epsilon_scale(space: MarkedSpace, t: Sequence, s: float) -> float:
    """s-norm of the distances to p; within a factor n^(1/s) of delta."""
    if not s > 0:
        raise NonpositiveExponentError(f"exponent must be > 0, got {s}")
    return float(np.sum(_with_p(space, t)[0, 1:] ** s) ** (1.0 / s))


def _functionals(sub: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Theta and S of a stack of (k+1)-tuples: the signed Cayley-Menger and
    the Schoenberg determinant of each tuple divided by its delta^(2k).

    ``sub`` holds the tuples' distance matrices and ``delta`` their largest
    distances to p; each matrix is divided by its own delta, and a tuple at
    p gives 0. Returns an array of shape (len(MODES), len(sub)), rows in
    MODES order.

    Neither determinant depends on the order of the points, so the stack is
    gathered once, each matrix from the point nearest its tuple's centroid
    (the least sum of squared distances): as the Schoenberg base and the
    first row of the bordered matrix it keeps the entries short, and the
    rounding small against the volume of a thin simplex. On a triple with
    two points 2e-3 of the diameter apart, a far base costs three orders of
    magnitude in relative error.
    """
    at_p = delta == 0
    sub = sub / np.where(at_p, 1.0, delta)[:, None, None]
    count, size = sub.shape[0], sub.shape[-1]
    base = np.argmin(np.sum(sub * sub, axis=-1), axis=-1)
    rows = np.arange(count)
    order = np.tile(np.arange(size), (count, 1))
    # swap each base with the first point
    order[rows, base] = 0
    order[rows, 0] = base
    sub = sub[rows[:, None, None], order[:, :, None], order[:, None, :]]
    out = np.array([(-1.0) ** size * np.linalg.det(bordered_matrix(sub)),  # Theta
                    np.linalg.det(tau_from_matrix(sub))])  # S
    out[:, at_p] = 0.0
    return out


def _tuple_functional(space: MarkedSpace, t: Sequence, mode: str) -> float:
    """The scan's evaluator on a stack of one tuple of >= 2 points: one
    distance matrix over (p,) + t, delta read off its row 0."""
    if len(t) < 2:
        raise TupleTooShortError(f"the {mode} functional needs >= 2 points, got {len(t)}")
    dm = _with_p(space, t)[None]
    return float(_functionals(dm[:, 1:, 1:], dm[:, 0, 1:].max(axis=1))[MODES.index(mode), 0])


def theta(space: MarkedSpace, t: Sequence) -> float:
    """Normalized signed Cayley-Menger functional of a (k+1)-tuple; 0 at
    the all-p tuple."""
    return _tuple_functional(space, t, "theta")


def s_functional(space: MarkedSpace, t: Sequence) -> float:
    """Normalized Schoenberg functional of a (k+1)-tuple; 0 at the all-p
    tuple."""
    return _tuple_functional(space, t, "s")


# ---------------------------------------------------------------------------
# Mutual stability and metric identification


@dataclass(frozen=True)
class StabilityVerdict:
    """Convergence verdict for rescaled distances of a sequence pair."""

    status: str  # "stable" | "unstable" | "undetermined"
    limit: float | None
    depth_used: int
    oscillation: float

    @property
    def is_stable(self) -> bool:
        return self.status == "stable"


def _stability(ratios: np.ndarray, depth: int, tol: float) -> StabilityVerdict:
    """The stability rule of :func:`mutual_stability` on one ratio series."""
    half = ratios[int(depth * STABILITY_WINDOW):]
    quarter = ratios[int(depth * 0.75):]
    osc_half = float(np.max(half) - np.min(half))
    osc_quarter = float(np.max(quarter) - np.min(quarter))
    if osc_half <= tol:
        return StabilityVerdict("stable", float(np.mean(half)), depth, osc_half)
    persistent = osc_quarter > INSTABILITY_FACTOR * tol and osc_quarter >= 0.5 * osc_half
    if osc_half > INSTABILITY_FACTOR * tol and persistent:
        return StabilityVerdict("unstable", None, depth, osc_half)
    return StabilityVerdict("undetermined", None, depth, osc_half)


def mutual_stability(
    space: MarkedSpace,
    x: PointSequence,
    y: PointSequence,
    r: NormalizingSequence,
    depth: int = 64,
    tol: float = 1e-3,
) -> StabilityVerdict:
    """Judge convergence of d(x_m, y_m) / r_m over a tail window.

    Stable when the tail oscillation (max - min over the last half) stays
    within ``tol``. Unstable needs the oscillation to exceed 10x ``tol``
    *persistently*: the last-quarter window must also exceed it without
    shrinking below half of the last-half amplitude (slowly convergent
    ratios shrink on deeper windows, genuine oscillation does not).
    Everything else is undetermined. This is the two-sequence case of
    :func:`pseudometric_matrix`.

    Depth is limited by double precision: points at index m must stay
    resolvable against p (with q = 0.5 and p away from the origin, prefer
    depth <= 40 or a slower normalizer).
    """
    return pseudometric_matrix(space, (x, y), r, depth, tol).verdicts[0][1]


@dataclass(frozen=True)
class PseudometricMatrix:
    """Pairwise stability verdicts for a family of sequences (p-first)."""

    verdicts: tuple[tuple[StabilityVerdict, ...], ...]

    @property
    def all_stable(self) -> bool:
        return all(v.is_stable for row in self.verdicts for v in row)

    @property
    def limits(self) -> np.ndarray:
        if not self.all_stable:
            raise UnstableInputError("pseudometric matrix has non-stable entries")
        return np.array([[v.limit for v in row] for row in self.verdicts])


def pseudometric_matrix(
    space: MarkedSpace,
    family: Sequence[PointSequence],
    r: NormalizingSequence,
    depth: int = 64,
    tol: float = 1e-3,
) -> PseudometricMatrix:
    """Pairwise mutual-stability verdicts; family[0] is the constant-p
    sequence by convention. Every pair is judged off one distance stack."""
    if not family:
        raise ValueError("family must be nonempty")
    if depth < 16:
        raise ValueError(f"depth must be >= 16, got {depth}")
    n = len(family)
    rv = r.values(depth)
    ratios = _sequence_stack(space, family, depth) / rv[:, None, None]
    grid: list[list[StabilityVerdict]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for i in range(n):
        grid[i][i] = StabilityVerdict("stable", 0.0, depth, 0.0)
        for j in range(i + 1, n):
            grid[i][j] = grid[j][i] = _stability(ratios[:, i, j], depth, tol)
    return PseudometricMatrix(tuple(tuple(row) for row in grid))


@dataclass(frozen=True)
class QuotientSpace:
    """Metric identification: zero-distance classes and the quotient metric."""

    classes: tuple[tuple[int, ...], ...]
    rho: FiniteMetricSpace


def metric_identification(pm: PseudometricMatrix, merge_tol: float = 1e-9) -> QuotientSpace:
    """Quotient a stable pseudometric matrix by its near-zero relation.

    Classes are connected components of { (i,j) : limit <= merge_tol },
    ordered by their least index; a component whose internal distance
    exceeds 10x merge_tol means a near-zero chain linked genuinely
    distant points and raises MergeInconsistencyError. Representative
    distances are validated as a finite metric space.
    """
    limits = pm.limits  # raises UnstableInputError when not all stable
    n = limits.shape[0]
    near = limits <= merge_tol
    # each index takes the least label among itself and its near
    # neighbours; after n rounds every index holds the least index of its
    # component
    label = np.arange(n)
    for _ in range(n):
        label = np.where(near, label, label[:, None]).min(axis=1)
    classes = tuple(tuple(np.flatnonzero(label == c).tolist()) for c in np.unique(label))

    for cls in classes:
        for a, b in combinations(cls, 2):
            if limits[a, b] > INSTABILITY_FACTOR * merge_tol:
                raise MergeInconsistencyError(
                    f"indices {a} and {b} merged through a near-zero chain but sit at {limits[a, b]!r}"
                )

    reps = [cls[0] for cls in classes]
    rho = limits[np.ix_(reps, reps)].copy()
    rho = (rho + rho.T) / 2.0
    np.fill_diagonal(rho, 0.0)
    max_osc = max(v.oscillation for row in pm.verdicts for v in row)
    vtol = max(3.0 * max_osc, merge_tol, 1e-12 * float(np.max(rho)) if rho.size else 0.0)
    labels = ["{" + ",".join(str(i) for i in cls) + "}" for cls in classes]
    space = validate_metric({"labels": labels, "distances": rho.tolist()}, tol=vtol)
    return QuotientSpace(classes=classes, rho=space)


# ---------------------------------------------------------------------------
# Sampled scanners


def checked_scales(scales: Sequence[float]) -> list[float]:
    """The ladder rule of every scan: at least two scales, each finite and
    positive, strictly decreasing. Returns them as floats; raises
    ValueError otherwise."""
    scales = [float(s) for s in scales]
    if (len(scales) < 2 or not all(0 < s < math.inf for s in scales)
            or any(b >= a for a, b in zip(scales, scales[1:]))):
        raise ValueError("scales must be at least two finite positive values, strictly decreasing")
    return scales


def scale_ladder(r0: float = 0.5, q: float = 0.5, rungs: int = 12) -> list[float]:
    """Geometric scale ladder r0 * q^j, j = 0..rungs-1, under the rule of
    :func:`checked_scales`. A last rung that underflows to 0 is refused
    before the ladder is built, however many rungs it asks for."""
    if not (0 < r0 < math.inf and 0 < q < 1):
        raise ValueError(f"need a finite r0 > 0 and 0 < q < 1, got r0={r0!r}, q={q!r}")
    # an exponent past 2^1023 is no float, and q to that power is 0 anyway
    if rungs >= 2 and not r0 * q ** min(rungs - 1, 2**1023) > 0:
        raise ValueError("the last rung r0 * q^(rungs - 1) underflows to 0")
    return checked_scales([r0 * q**j for j in range(rungs)])


def _json_fields(report, **special) -> dict:
    """A report's dataclass fields as JSON values, ``special`` in place of
    the fields it names; tuples become lists."""
    out = {}
    for f in fields(report):
        value = special[f.name] if f.name in special else getattr(report, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


@dataclass(frozen=True)
class ScanWitness:
    """Extreme sample seen by a scan: rung, value and the tuple itself."""

    rung: int
    scale: float
    value: float
    points: tuple


@dataclass(frozen=True)
class ScanReport:
    """Per-scale infima/suprema of a normalized functional near p."""

    k: int
    mode: str  # "theta" | "s"
    condition: str  # "sign" | "vanishing"
    scales: tuple[float, ...]
    per_scale_inf: tuple[float, ...]
    per_scale_sup: tuple[float, ...]
    running_liminf: float
    running_limsup: float
    trend: float
    verdict: str  # "supports" | "refutes" | "inconclusive"
    samples_per_scale: int
    seed: int
    tol_det: float
    witness_inf: ScanWitness | None = None
    witness_sup: ScanWitness | None = None

    def to_json_dict(self, point_repr=lambda x: x) -> dict:
        def wit(w: ScanWitness | None):
            return None if w is None else _json_fields(w, points=[point_repr(x) for x in w.points])

        return _json_fields(self, trend=self.trend if math.isfinite(self.trend) else "inf",
                            witness_inf=wit(self.witness_inf), witness_sup=wit(self.witness_sup))


def _fit_trend(scales: np.ndarray, magnitudes: np.ndarray, floor: float) -> float:
    """Power-law exponent of magnitude vs scale, ignoring the noise floor.

    Returns +inf when fewer than two rungs rise above the floor (the
    signal decayed straight into numerical zero)."""
    usable = magnitudes > floor
    if int(np.sum(usable)) < 2:
        return math.inf
    slope, _ = np.polyfit(np.log(scales[usable]), np.log(magnitudes[usable]), 1)
    return float(slope)


def _index_tuples(rng: np.random.Generator, anchors: np.ndarray, size: int, k: int,
                  count: int) -> np.ndarray:
    """``count`` index tuples into a cloud of ``size`` points: an anchor,
    then k distinct other indices. The sort keys are drawn KEY_BLOCK rows
    at a time, which reads the same stream as one (count, size) draw."""
    idx = np.empty((count, k + 1), dtype=np.intp)
    idx[:, 0] = rng.choice(anchors, size=count)
    for lo in range(0, count, KEY_BLOCK):
        keys = rng.random((min(KEY_BLOCK, count - lo), size))
        keys[np.arange(len(keys)), idx[lo:lo + KEY_BLOCK, 0]] = np.inf
        idx[lo:lo + KEY_BLOCK, 1:] = np.argsort(keys, axis=1)[:, :k]
    return idx


def _scan_pass(space: MarkedSpace, jobs: Sequence[tuple[int, str]], scales, samples_per_scale: int,
               seed: int, tol_det: float) -> tuple[list[list[ScanReport]], float]:
    """One sampled pass over the ladder for every (k, condition) in ``jobs``.

    Per rung, one sampler call draws a cloud of min(2 * samples_per_scale,
    CLOUD_CAP) + k_max + 1 points and one distance matrix covers the cloud
    and p; the cloud's delta must lie within [s/4, 2s]. Each order k takes
    ``samples_per_scale`` index tuples into the cloud, each an anchor at
    distance >= s/2 from p (the farthest points, if the cloud falls short
    of s/2) and k distinct other points, and reads Theta and S off one
    stacked determinant each. The cloud and the index tuples come from the
    same seed on every rung, which pins the trend fit down to the geometry
    instead of sampling noise.

    The pass keeps one table: per side (inf, sup), mode, job and rung, the
    extreme value and the points of the first tuple that holds it. Every
    report is read off it; a witness is the extreme along the rung axis,
    so the earliest rung holding it wins, and within it the earliest tuple.

    Returns, per mode of MODES, one report per job, and the largest
    ``|Theta - S| / max(|Theta|, |S|, 1)`` over every tuple.
    """
    scales = scale_ladder() if scales is None else checked_scales(scales)
    if samples_per_scale < 1:
        raise EmptySampleError("samples_per_scale must be >= 1")
    size = min(2 * samples_per_scale, CLOUD_CAP) + max(k for k, _ in jobs) + 1
    cloud_seed = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    tuple_seed = np.random.SeedSequence(entropy=seed, spawn_key=(1,))
    extremes = np.zeros((2, len(MODES), len(jobs), len(scales)))
    holders = np.empty(extremes.shape, dtype=object)
    discrepancy = 0.0
    for j, s in enumerate(scales):
        cloud = tuple(space.sampler(s, size - 1, cloud_seed))
        if len(cloud) != size:
            raise ArityMismatchError(f"sampler returned {len(cloud)} points for a cloud of {size}")
        dm = space.matrix((space.p,) + cloud)
        to_p, dm = dm[0, 1:], dm[1:, 1:]
        delta = float(np.max(to_p))
        if delta > 0 and not s / 4 <= delta <= 2 * s:
            raise SamplerScaleMismatchError(f"sampler delta {delta!r} off requested scale {s!r} by more than 2x")
        anchors = np.flatnonzero(to_p >= min(s / 2, delta))
        rng = np.random.default_rng(tuple_seed)
        for q, (k, _) in enumerate(jobs):
            idx = _index_tuples(rng, anchors, size, k, samples_per_scale)
            v = _functionals(dm[idx[:, :, None], idx[:, None, :]], to_p[idx].max(axis=1))
            spread = np.maximum(np.maximum(np.abs(v[0]), np.abs(v[1])), 1.0)
            discrepancy = max(discrepancy, float(np.max(np.abs(v[0] - v[1]) / spread)))
            for side, best in enumerate((v.argmin(axis=1), v.argmax(axis=1))):
                for e, i in enumerate(best):
                    extremes[side, e, q, j] = v[e, i]
                    holders[side, e, q, j] = tuple(cloud[c] for c in idx[i])

    tail = slice(len(scales) // 2, None)
    floor = NOISE_FLOOR_FACTOR * tol_det

    def witness(side: int, e: int, q: int, j: int) -> ScanWitness:
        return ScanWitness(int(j), scales[j], float(extremes[side, e, q, j]), holders[side, e, q, j])

    def report(e: int, q: int) -> ScanReport:
        k, condition = jobs[q]
        infs, sups = extremes[0, e, q], extremes[1, e, q]
        running_liminf = float(np.min(infs[tail]))
        running_limsup = float(np.max(sups[tail]))
        magnitudes = np.maximum(np.abs(infs), np.abs(sups))
        trend = _fit_trend(np.array(scales), magnitudes, floor)

        if condition == "sign":
            if running_liminf >= -floor:
                verdict = "supports"
            elif float(np.max(infs[tail])) <= -REFUTE_LEVEL:
                verdict = "refutes"
            else:
                verdict = "inconclusive"
        else:
            at_floor = bool(np.all(magnitudes <= floor))
            decays = (
                math.isinf(trend)
                or (trend > DECAY_EXPONENT_MIN and magnitudes[-1] <= DECAY_DROP * float(np.max(magnitudes)))
            )
            if at_floor or decays:
                verdict = "supports"
            elif float(np.min(magnitudes[tail])) >= REFUTE_LEVEL and trend <= FLAT_EXPONENT_MAX:
                verdict = "refutes"
            else:
                verdict = "inconclusive"

        return ScanReport(
            k=k,
            mode=MODES[e],
            condition=condition,
            scales=tuple(scales),
            per_scale_inf=tuple(infs.tolist()),
            per_scale_sup=tuple(sups.tolist()),
            running_liminf=running_liminf,
            running_limsup=running_limsup,
            trend=trend,
            verdict=verdict,
            samples_per_scale=samples_per_scale,
            seed=seed,
            tol_det=tol_det,
            witness_inf=witness(0, e, q, np.argmin(infs)),
            witness_sup=witness(1, e, q, np.argmax(sups)),
        )

    return [[report(e, q) for q in range(len(jobs))] for e in range(len(MODES))], discrepancy


def liminf_scan(
    space: MarkedSpace,
    k: int,
    scales: Sequence[float] | None = None,
    samples_per_scale: int = 128,
    mode: str = "theta",
    condition: str = "sign",
    seed: int = 0,
    tol_det: float = DEFAULT_TOL_DET,
) -> ScanReport:
    """Estimate liminf/limsup of Theta_{k+1} or S_{k+1} as tuples shrink to p.

    Per rung of a decreasing scale ladder, the sampler draws one cloud of
    min(2 * samples_per_scale, CLOUD_CAP) + k + 1 points and the scan takes
    ``samples_per_scale`` (k+1)-tuples from it, each with delta in
    [scale/2, scale] (an all-p tuple contributes 0); the report records
    per-scale infima/suprema, the tail-window liminf and limsup, and a
    fitted decay exponent. Cloud and tuples reuse the same seed across
    rungs, which pins the trend fit down to the geometry instead of
    sampling noise. The verdict judges ``condition``:

    * "sign": liminf >= 0 expected. Supports when the tail liminf stays
      above -10*tol_det; refutes when every tail rung's infimum is < -1e-3.
    * "vanishing": limit = 0 expected. Supports at the noise floor
      (everything within 10 * tol_det) or with decay exponent > 0.5 and a
      10x tail drop; refutes when tail magnitudes exceed 1e-3 with a flat
      trend (exponent <= 0.1).
    """
    if k < 1:
        raise TupleTooShortError(f"scan needs k >= 1, got {k}")
    if condition not in ("sign", "vanishing"):
        raise ValueError(f"unknown condition {condition!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _scan_pass(space, [(k, condition)], scales, samples_per_scale, seed, tol_det)[0][MODES.index(mode)][0]


@dataclass(frozen=True)
class TransferReport:
    """Aggregate of the scans behind the transfer-principle conditions."""

    n: int
    verdict: str  # "consistent-with-embeddable" | "refuted" | "inconclusive"
    scans: tuple[ScanReport, ...]
    witness_scan: int | None = None
    #: largest |Theta - S| / max(|Theta|, |S|, 1) over every evaluated
    #: tuple: Sch = (-1)^(k+1) D_k, so this reads rounding only
    max_mode_discrepancy: float = 0.0

    def to_json_dict(self, point_repr=lambda x: x) -> dict:
        return _json_fields(self, scans=[s.to_json_dict(point_repr) for s in self.scans])


def transfer_check(
    space: MarkedSpace,
    n: int,
    samples_per_scale: int = 128,
    scales: Sequence[float] | None = None,
    seed: int = 0,
    tol_det: float = DEFAULT_TOL_DET,
) -> TransferReport:
    """Scan the embeddability conditions for all rescaled limit spaces at p.

    Runs sign scans for k = 1..n and vanishing scans for k = n+1, n+2, in
    both functional modes (the two determinant engines cross-check each
    other). One sampled pass draws one cloud per rung for every order;
    each order takes ``samples_per_scale`` index tuples into it, and both
    modes are read off the same tuples; ``scans`` lists every Theta
    scan, then every S scan. Refuted as soon as any scan
    refutes (``witness_scan`` is the first); consistent only when all
    scans support. The equality conditions are checked two-sided (liminf
    and limsup both pinned to 0) in both modes.
    """
    if n < 1:
        raise DimensionOutOfRangeError(f"target dimension must be >= 1, got {n}")
    jobs = [(k, "sign") for k in range(1, n + 1)] + [(k, "vanishing") for k in (n + 1, n + 2)]
    by_mode, discrepancy = _scan_pass(space, jobs, scales, samples_per_scale, seed, tol_det)
    scans = tuple(chain.from_iterable(by_mode))

    witness = next((i for i, scan in enumerate(scans) if scan.verdict == "refutes"), None)
    if witness is not None:
        verdict = "refuted"
    elif any(scan.verdict == "inconclusive" for scan in scans):
        verdict = "inconclusive"
    else:
        verdict = "consistent-with-embeddable"
    return TransferReport(n=n, verdict=verdict, scans=scans, witness_scan=witness,
                          max_mode_discrepancy=discrepancy)


# ---------------------------------------------------------------------------
# Sequence-wise conditions (exact-dimension witnesses)


def build_probe_battery(space: MarkedSpace, r: NormalizingSequence) -> list[PointSequence]:
    """Default probe sequences for cube-like Euclidean regions: one per
    axis, a diagonal, and a super-slow probe with d(y_m, p)/r_m -> inf."""
    desc = space.description
    region = desc.get("region") or {}
    if desc.get("type") not in ("euclidean", "snowflake") or region.get("kind") != "cube":
        raise ValueError("default probe battery needs a cube-region space; pass probes explicitly")
    p = np.asarray(space.p, dtype=float)
    low = np.asarray(region["low"], dtype=float)
    high = np.asarray(region["high"], dtype=float)
    dim = p.shape[0]

    def clipped(vector_of_m: Callable[[int], np.ndarray]) -> PointSequence:
        return lambda m: np.clip(p + vector_of_m(m), low, high)

    axes = np.eye(dim)
    battery = [clipped(lambda m, e=e: r(m) * e) for e in axes]
    diag = np.ones(dim) / math.sqrt(dim)
    battery.append(clipped(lambda m: r(m) * diag))
    battery.append(clipped(lambda m: math.sqrt(r(m)) * axes[0]))
    return battery


@dataclass(frozen=True)
class BlumenthalReport:
    """Tail values of the sequence-wise conditions for exact dimension n."""

    n: int
    depth: int
    #: per k = 1..n: (k, tail min, tail max) of Theta_{k+1} over the x-sequences
    condition_i: tuple[tuple[int, float, float], ...]
    #: per probe evaluation: (order, probe label, tail min |Theta|, tail max |Theta|)
    condition_ii: tuple[tuple[int, str, float, float], ...]
    verdict: str  # "supports" | "refutes" | "inconclusive"
    tangent_assumed: bool = True


def blumenthal_sequence_scan(
    space: MarkedSpace,
    x_seqs: Sequence[PointSequence],
    probes: Sequence[tuple[PointSequence, PointSequence]] | None = None,
    r: NormalizingSequence | None = None,
    depth: int = 64,
    tol_det: float = DEFAULT_TOL_DET,
) -> BlumenthalReport:
    """Test n+1 point sequences as witnesses of a limit space of exact
    dimension n.

    Condition (i): for k = 1..n the tail of Theta_{k+1} over the first
    k+1 sequences must stay above the noise floor 10 * tol_det.
    Condition (ii): appending one probe (order n+1) or a probe pair
    (order n+2) must drive the functional within that floor. Probes
    default to the axis/diagonal/super-slow battery on cube regions; on
    any other space they must be passed, and the battery's ValueError
    comes before NonconvergentSequenceError. Sequences must
    converge to p (NonconvergentSequenceError otherwise); the tangency
    hypothesis of the forward direction is recorded in the report as
    ``tangent_assumed``, never verified. Convergence (row 0) and both
    conditions read one distance stack over (p, x_0..x_n, probes).
    """
    n = len(x_seqs) - 1
    if n < 1:
        raise DimensionOutOfRangeError("need at least two sequences (n >= 1)")
    if depth < 16:
        raise ValueError(f"depth must be >= 16, got {depth}")
    if r is None:
        r = NormalizingSequence.geometric()

    if probes is None:
        probes = list(combinations(build_probe_battery(space, r), 2))
    # probes are named and tried singly in order of first appearance
    probe_index = {seq: g for g, seq in enumerate(dict.fromkeys(chain.from_iterable(probes)))}

    stack = _sequence_stack(space, marked_family(space, *x_seqs, *probe_index), depth)
    for idx in range(n + 1):
        dists = stack[:, 0, 1 + idx]
        top = float(np.max(dists))
        if top > 0 and float(np.max(dists[int(depth * 0.75):])) > 0.05 * top:
            raise NonconvergentSequenceError(f"sequence {idx} does not converge to p")

    mats = stack[depth // 2:]
    xs = list(range(1, n + 2))

    def tail_theta(cols: list[int]) -> np.ndarray:
        ix = np.asarray(cols)
        return _functionals(mats[:, ix[:, None], ix[None, :]], mats[:, 0, ix].max(axis=1))[0]

    cond_i: list[tuple[int, float, float]] = []
    for k in range(1, n + 1):
        vals = tail_theta(xs[:k + 1])
        cond_i.append((k, float(np.min(vals)), float(np.max(vals))))

    floor = NOISE_FLOOR_FACTOR * tol_det
    cond_ii: list[tuple[int, str, float, float]] = []
    for g in probe_index.values():
        vals = np.abs(tail_theta(xs + [n + 2 + g]))
        cond_ii.append((n + 1, f"probe{g}", float(np.min(vals)), float(np.max(vals))))
    for y, u in probes:
        gy, gu = probe_index[y], probe_index[u]
        vals = np.abs(tail_theta(xs + [n + 2 + gy, n + 2 + gu]))
        cond_ii.append((n + 2, f"probe{gy}+probe{gu}", float(np.min(vals)), float(np.max(vals))))

    i_ok = all(tmin > floor for _, tmin, _ in cond_i)
    ii_ok = all(tmax <= floor for _, _, _, tmax in cond_ii)
    if i_ok and ii_ok:
        verdict = "supports"
    elif any(tmax <= floor for _, _, tmax in cond_i) or any(tmin > floor for _, _, tmin, _ in cond_ii):
        verdict = "refutes"
    else:
        verdict = "inconclusive"
    return BlumenthalReport(
        n=n,
        depth=depth,
        condition_i=tuple(cond_i),
        condition_ii=tuple(cond_ii),
        verdict=verdict,
    )
