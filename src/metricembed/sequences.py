"""The sequence layer: rescaled limit spaces at a marked point, built from
explicit point sequences.

Point sequences converging to a marked point ``p``, rescaled by a
normalizing sequence ``r_m -> 0``, induce a pseudometric on families of
sequences (``mutual_stability`` / ``pseudometric_matrix``) whose metric
identification (``metric_identification``) is a rescaled-limit space at
``p``. ``blumenthal_sequence_scan`` tests n+1 sequences as witnesses of
a limit space of exact dimension n, with the normalized Cayley-Menger
functional and the noise floor of the scan layer (``pretangent``).

Each family's distances come from one stack, one ``space.matrix`` call
per index; verdicts are read off the tail of that stack.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DEFAULT_TOL_DET,
    DegenerateNormalizerError,
    DimensionOutOfRangeError,
    MergeInconsistencyError,
    NonconvergentSequenceError,
    UnstableInputError,
    _checked_count,
    _checked_space,
    _checked_tol,
    _checked_tol_det,
    is_number,
    scale_ladder,
)
from .metric import FiniteMetricSpace, validate_metric
from .pretangent import NOISE_FLOOR_FACTOR, _functionals
from .spaces import MarkedSpace

#: Stability window: verdicts are read off the last half of the depth;
#: instability needs oscillation above 10x the tolerance that also
#: persists over the last quarter, where convergence to p is read too.
STABILITY_WINDOW = 0.5
_PERSISTENCE_WINDOW = 0.75
INSTABILITY_FACTOR = 10.0


# ---------------------------------------------------------------------------
# Normalizing and point sequences


class NormalizingSequence(NamedTuple):
    """Positive reals strictly decreasing to zero, indexed from 0, in the space's unit."""

    fn: Callable[[int], float]

    @classmethod
    def geometric(cls, r0: float = 0.5, q: float = 0.5) -> "NormalizingSequence":
        scale_ladder(r0, q, 2)  # the ladder rule: a finite r0 > 0 and 0 < q < 1
        return cls(fn=lambda m: r0 * q**m)

    def __call__(self, m: int) -> float:
        r = self.fn(m)
        if not is_number(r) or not (r > 0) or not math.isfinite(r) or r < 1e-300:
            raise DegenerateNormalizerError(f"r_{m} = {r!r} degenerate")
        return float(r)

    def values(self, depth: int) -> np.ndarray:
        _checked_count(depth, "depth", 0)
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
    index. A space that is not a :class:`MarkedSpace`, or a depth that is not
    an integer >= 16, is refused."""
    _checked_space(space, MarkedSpace, "the make_* makers")
    _checked_count(depth, "depth", 16)
    return np.stack([space.matrix([seq(m) for seq in family]) for m in range(depth)])


# ---------------------------------------------------------------------------
# Mutual stability and metric identification


class StabilityVerdict(NamedTuple):
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
    quarter = ratios[int(depth * _PERSISTENCE_WINDOW):]
    osc_half = float(np.max(half) - np.min(half))
    osc_quarter = float(np.max(quarter) - np.min(quarter))
    if osc_half <= tol:
        return StabilityVerdict("stable", float(half[-1]), depth, osc_half)
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
    within ``tol``; the limit is then the last ratio, which carries none of
    the early terms a window mean would. Unstable needs the oscillation to
    exceed 10x ``tol`` *persistently*: the last-quarter window must also
    exceed it without shrinking below half of the last-half amplitude
    (slowly convergent ratios shrink on deeper windows, genuine
    oscillation does not).
    Everything else is undetermined. This is the two-sequence case of
    :func:`pseudometric_matrix`.

    Depth is limited by double precision: points at index m must stay
    resolvable against p (with q = 0.5 and p away from the origin, prefer
    depth <= 40 or a slower normalizer).
    """
    return pseudometric_matrix(space, (x, y), r, depth, tol).verdicts[0][1]


class PseudometricMatrix(NamedTuple):
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
    sequence by convention. Every pair is judged off one distance stack.
    A negative or NaN ``tol`` is refused as :func:`validate_metric` does."""
    if not family:
        raise ValueError("family must be nonempty")
    _checked_tol(tol, "tol")
    n = len(family)
    ratios = _sequence_stack(space, family, depth) / r.values(depth)[:, None, None]
    grid: list[list[StabilityVerdict]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for i in range(n):
        grid[i][i] = StabilityVerdict("stable", 0.0, depth, 0.0)
        for j in range(i + 1, n):
            grid[i][j] = grid[j][i] = _stability(ratios[:, i, j], depth, tol)
    return PseudometricMatrix(tuple(tuple(row) for row in grid))


class QuotientSpace(NamedTuple):
    """Metric identification: zero-distance classes and the quotient metric."""

    classes: tuple[tuple[int, ...], ...]
    rho: FiniteMetricSpace


def metric_identification(pm: PseudometricMatrix, merge_tol: float | None = None) -> QuotientSpace:
    """Quotient a stable pseudometric matrix by its near-zero relation.

    Classes are connected components of { (i,j) : limit <= merge_tol },
    ordered by their least index; a component whose internal distance
    exceeds 10x merge_tol means a near-zero chain linked genuinely
    distant points and raises MergeInconsistencyError. ``merge_tol``
    defaults to 1e-9 times the largest finite limit, so a factor on every
    limit keeps the classes and scales the quotient metric. Representative
    distances are validated as they stand, so a hand-built grid that is no
    pseudometric is refused, and so is a negative or NaN ``merge_tol``.
    """
    limits = pm.limits  # raises UnstableInputError when not all stable
    if merge_tol is None:
        merge_tol = 1e-9 * float(np.max(limits, where=np.isfinite(limits), initial=0.0))
    _checked_tol(merge_tol, "merge_tol")
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
                    f"indices {a} and {b} merged through a near-zero chain but sit at {float(limits[a, b])!r}"
                )

    reps = [cls[0] for cls in classes]
    rho = limits[np.ix_(reps, reps)]
    max_osc = max(v.oscillation for row in pm.verdicts for v in row)
    vtol = max(3.0 * max_osc, merge_tol, 1e-12 * float(np.max(rho)))
    labels = ["{" + ",".join(str(i) for i in cls) + "}" for cls in classes]
    space = validate_metric({"labels": labels, "distances": rho}, tol=vtol)
    return QuotientSpace(classes=classes, rho=space)


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


class BlumenthalReport(NamedTuple):
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
    _checked_space(space, MarkedSpace, "the make_* makers")
    n = len(x_seqs) - 1
    if n < 1:
        raise DimensionOutOfRangeError("need at least two sequences (n >= 1)")
    floor = NOISE_FLOOR_FACTOR * _checked_tol_det(tol_det)
    if r is None:
        r = NormalizingSequence.geometric()

    if probes is None:
        probes = list(combinations(build_probe_battery(space, r), 2))
    # probes are named and tried singly in order of first appearance
    probe_index = {seq: g for g, seq in enumerate(dict.fromkeys(chain.from_iterable(probes)))}

    stack = _sequence_stack(space, marked_family(space, *x_seqs, *probe_index), depth)
    to_p = stack[:, 0, 1:n + 2]
    top = np.max(to_p, axis=0)
    away = (top > 0) & (np.max(to_p[int(depth * _PERSISTENCE_WINDOW):], axis=0) > 0.05 * top)
    if np.any(away):
        raise NonconvergentSequenceError(f"sequence {int(np.argmax(away))} does not converge to p")

    mats = stack[int(depth * STABILITY_WINDOW):]
    xs = list(range(1, n + 2))

    cond_i: list[tuple[int, float, float]] = []
    for k in range(1, n + 1):
        vals = _functionals(mats, xs[:k + 1])[0]
        cond_i.append((k, float(np.min(vals)), float(np.max(vals))))

    # each probe alone (order n+1), then each pair (order n+2)
    groups = [(g,) for g in probe_index.values()] + [(probe_index[y], probe_index[u]) for y, u in probes]
    cond_ii: list[tuple[int, str, float, float]] = []
    for group in groups:
        vals = np.abs(_functionals(mats, xs + [n + 2 + g for g in group])[0])
        label = "+".join(f"probe{g}" for g in group)
        cond_ii.append((n + len(group), label, float(np.min(vals)), float(np.max(vals))))

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
