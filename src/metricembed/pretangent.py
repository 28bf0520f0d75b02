"""The infinitesimal layer: sampled scans at a marked point.

Whether every rescaled limit space at a marked point ``p`` embeds in E^n
is equivalent to sign/vanishing conditions on two normalized determinant
functionals:

* ``theta``: the signed Cayley-Menger determinant of a (k+1)-tuple divided
  by ``delta^(2k)``, where ``delta`` is the largest distance to ``p``;
* ``s_functional``: the Schoenberg determinant with the same normalization.

``liminf_scan`` estimates the liminf/limsup of those functionals over
tuples shrinking toward ``p`` on a geometric scale ladder, and
``transfer_check`` aggregates the scans for a target dimension. The
limit spaces themselves, built from explicit point sequences, and the
sequence-wise conditions for a limit space of exact dimension n
(``blumenthal_sequence_scan``) are in :mod:`metricembed.sequences`, which
reads the functionals and the noise floor from here.

Scans sample: per rung they draw one cloud near ``p`` and evaluate index
tuples into it with stacked determinants. They can refute (persistent
violation) or support, never prove. All scans are deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .determinants import tuple_determinants
from .errors import (DEFAULT_TOL_DET, EmptySampleError, NonpositiveExponentError, SamplerScaleMismatchError,
                     TupleTooShortError, _check_target, _checked_count, _checked_space, _checked_tol_det,
                     checked_scales, is_number, scale_ladder)
from .metric import row_blocks
from .spaces import MarkedSpace

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

#: The functional modes every scan pass evaluates, in report order.
MODES = ("theta", "s")


# ---------------------------------------------------------------------------
# Scales and functionals


def _with_p(space: MarkedSpace, t: Sequence) -> np.ndarray:
    """Distance matrix of (p,) + t: row 0 holds the distances to p."""
    if len(t) == 0:
        raise ValueError("a scale needs a nonempty tuple")
    return _checked_space(space, MarkedSpace, "the make_* makers").matrix((space.p,) + tuple(t))


def delta_scale(space: MarkedSpace, t: Sequence) -> float:
    """Largest distance from the tuple's points to the marked point."""
    return float(np.max(_with_p(space, t)[0, 1:]))


def epsilon_scale(space: MarkedSpace, t: Sequence, s: float) -> float:
    """s-norm of the distances to p; within a factor n^(1/s) of delta. It is
    taken relative to delta, so no power underflows at a large ``s``."""
    if not is_number(s) or not s > 0:
        raise NonpositiveExponentError(f"exponent must be a number > 0, got {s!r}")
    d = _with_p(space, t)[0, 1:]
    delta = float(np.max(d))
    return delta * float(np.sum((d / delta) ** s) ** (1.0 / s)) if delta > 0 else 0.0


def _functionals(dm: np.ndarray, idx) -> np.ndarray:
    """Theta and S of (k+1)-tuples at p: both determinants of each tuple
    (:func:`tuple_determinants`) divided by its delta^(2k).

    ``dm`` is a distance matrix whose row 0 holds the distances to p and
    ``idx`` a (count, k+1) array of index tuples into it, or ``dm`` is a
    stack of such matrices and ``idx`` one tuple for all of them. Each
    tuple's matrix and delta, its largest distance to p, are gathered
    here, and a tuple at p gives 0. Returns shape (len(MODES), count),
    rows in MODES order, one column per tuple or per matrix of the stack.
    """
    idx = np.asarray(idx)
    sub, delta = dm[..., idx[..., :, None], idx[..., None, :]], dm[..., 0, idx].max(axis=-1)
    at_p = delta == 0
    out = tuple_determinants(sub / np.where(at_p, 1.0, delta)[:, None, None])
    out[:, at_p] = 0.0
    return out


def _tuple_functional(space: MarkedSpace, t: Sequence, mode: str) -> float:
    """The scan's evaluator on a stack of one matrix, over (p,) + t for
    one tuple t of >= 2 points."""
    if len(t) < 2:
        raise TupleTooShortError(f"the {mode} functional needs >= 2 points, got {len(t)}")
    return float(_functionals(_with_p(space, t)[None], range(1, len(t) + 1))[MODES.index(mode), 0])


def theta(space: MarkedSpace, t: Sequence) -> float:
    """Normalized signed Cayley-Menger functional of a (k+1)-tuple; 0 at
    the all-p tuple."""
    return _tuple_functional(space, t, "theta")


def s_functional(space: MarkedSpace, t: Sequence) -> float:
    """Normalized Schoenberg functional of a (k+1)-tuple; 0 at the all-p
    tuple."""
    return _tuple_functional(space, t, "s")


# ---------------------------------------------------------------------------
# Sampled scanners


class ScanWitness(NamedTuple):
    """Extreme sample seen by a scan: rung, value and the tuple itself."""

    rung: int
    scale: float
    value: float
    points: tuple


class ScanReport(NamedTuple):
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
    then k distinct other indices. The sort keys are drawn one
    :func:`~metricembed.metric.row_blocks` block at a time, which reads the
    same stream as one (count, size) draw."""
    idx = np.empty((count, k + 1), dtype=np.intp)
    idx[:, 0] = rng.choice(anchors, size=count)
    for rows in row_blocks(count):
        keys = rng.random((rows.stop - rows.start, size))
        keys[np.arange(len(keys)), idx[rows, 0]] = np.inf
        idx[rows, 1:] = np.argsort(keys, axis=1)[:, :k]
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

    The pass keeps, per side (inf, sup), mode, job and rung, the extreme
    value, and per side, mode and job one running witness, replaced only
    when a rung's extreme strictly beats it: the first tuple on the
    earliest rung that holds the extreme over the ladder.

    Returns, per mode of MODES, one report per job, and the largest
    ``|Theta - S| / max(|Theta|, |S|, 1)`` over every tuple.
    """
    _checked_space(space, MarkedSpace, "the make_* makers")
    scales = scale_ladder() if scales is None else checked_scales(scales)
    _checked_count(samples_per_scale, "samples_per_scale", error=EmptySampleError)
    floor = NOISE_FLOOR_FACTOR * _checked_tol_det(tol_det)
    _checked_count(seed, "seed", 0)
    size = min(2 * samples_per_scale, CLOUD_CAP) + max(k for k, _ in jobs) + 1
    cloud_seed = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    tuple_seed = np.random.SeedSequence(entropy=seed, spawn_key=(1,))
    extremes = np.zeros((2, len(MODES), len(jobs), len(scales)))
    witnesses: dict[tuple[int, int, int], ScanWitness] = {}
    discrepancy = 0.0
    for j, s in enumerate(scales):
        cloud = space.sample(s, size - 1, cloud_seed)
        dm = space.matrix((space.p,) + cloud)
        to_p = dm[0, 1:]
        delta = float(np.max(to_p))
        if delta > 0 and not s / 4 <= delta <= 2 * s:
            raise SamplerScaleMismatchError(f"sampler delta {delta!r} off requested scale {s!r} by more than 2x")
        anchors = np.flatnonzero(to_p >= min(s / 2, delta))
        rng = np.random.default_rng(tuple_seed)
        for q, (k, _) in enumerate(jobs):
            idx = _index_tuples(rng, anchors, size, k, samples_per_scale)
            v = _functionals(dm, idx + 1)
            spread = np.maximum(np.maximum(np.abs(v[0]), np.abs(v[1])), 1.0)
            discrepancy = max(discrepancy, float(np.max(np.abs(v[0] - v[1]) / spread)))
            for side, best in enumerate((v.argmin(axis=1), v.argmax(axis=1))):
                for e, i in enumerate(best):
                    extremes[side, e, q, j] = value = float(v[e, i])
                    held = witnesses.get((side, e, q))
                    if held is None or (value < held.value if side == 0 else value > held.value):
                        witnesses[side, e, q] = ScanWitness(j, s, value, tuple(cloud[c] for c in idx[i]))

    tail = slice(len(scales) // 2, None)

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
            decays = (
                math.isinf(trend)
                or (trend > DECAY_EXPONENT_MIN and magnitudes[-1] <= DECAY_DROP * float(np.max(magnitudes)))
            )
            if decays:
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
            witness_inf=witnesses[0, e, q],
            witness_sup=witnesses[1, e, q],
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
    * "vanishing": limit = 0 expected. Supports at the noise floor (at
      most one rung above 10 * tol_det: a trend of +inf) or with decay
      exponent > 0.5 and a 10x tail drop; refutes when tail magnitudes
      exceed 1e-3 with a flat trend (exponent <= 0.1).
    """
    _checked_count(k, "k", error=TupleTooShortError)
    if condition not in ("sign", "vanishing"):
        raise ValueError(f"unknown condition {condition!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _scan_pass(space, [(k, condition)], scales, samples_per_scale, seed, tol_det)[0][MODES.index(mode)][0]


class TransferReport(NamedTuple):
    """Aggregate of the scans behind the transfer-principle conditions."""

    n: int
    verdict: str  # "consistent-with-embeddable" | "refuted" | "inconclusive"
    scans: tuple[ScanReport, ...]
    witness_scan: int | None = None
    #: largest |Theta - S| / max(|Theta|, |S|, 1) over every evaluated
    #: tuple: Sch = (-1)^(k+1) D_k, so this reads rounding only
    max_mode_discrepancy: float = 0.0


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
    _check_target(n)
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

