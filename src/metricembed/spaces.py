"""Marked metric spaces backed by functions, and their cloud samplers.

A :class:`MarkedSpace` carries a metric function over an abstract point
carrier, a marked point ``p``, and a seeded sampler drawing clouds whose
largest distance to ``p`` lands inside ``[scale/2, scale]``. Carriers are
coordinate vectors (Euclidean, snowflake) or tree addresses (ultrametric);
nothing is materialized until :func:`freeze` builds a finite space.

Every built-in carrier draws a whole cloud with a few numpy calls and
computes its distance matrix in one batched call (``pairwise``), and reads
its scalar ``metric`` off that kernel's matrix of the two points, so the
two agree bit for bit by construction; only a user-supplied ``metric``
without ``pairwise`` is evaluated pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    CoincidentPointsError,
    MarkedPointOutsideRegionError,
    MetricViolationError,
)
from .metric import FiniteMetricSpace, euclidean_matrix, is_integer, is_number, point_index, submatrix, validate_metric

_MAX_TRIES = 500


@dataclass(frozen=True)
class MarkedSpace:
    """A metric space with a marked point and a scale-targeted sampler.

    ``sampler(scale, k, seed)`` returns k+1 points with delta in
    [scale/2, scale]; a cloud is one call with a large k. ``pairwise``,
    when given, maps a sequence of points to their distance matrix in one
    batched call and must agree with ``metric``; every built-in space
    builds its ``metric`` from its ``pairwise``, so they agree by
    construction.
    """

    metric: Callable[[Any, Any], float]
    p: Any
    sampler: Callable[[float, int, Any], tuple]
    description: dict = field(default_factory=dict)
    point_repr: Callable[[Any], Any] = staticmethod(lambda x: x)
    pairwise: Callable[[Sequence], np.ndarray] | None = None

    def sample(self, scale: float, k: int, seed=0) -> tuple:
        """A (k+1)-tuple of points with delta in [scale/2, scale], for a number scale and an integer k."""
        if not is_number(scale) or not is_integer(k):
            raise ValueError(f"a sample needs a number scale and an integer k, got {scale!r}, {k!r}")
        return self.sampler(scale, k, seed)

    def matrix(self, points: Sequence) -> np.ndarray:
        """Pairwise distance matrix of a sequence of carrier points."""
        if self.pairwise is not None:
            return self.pairwise(points)
        n = len(points)
        dm = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dm[i, j] = dm[j, i] = self.metric(points[i], points[j])
        return dm


def _pair_metric(pairwise: Callable[[Sequence], np.ndarray]) -> Callable[[Any, Any], float]:
    """The scalar metric of a batched kernel: the off-diagonal entry of its
    matrix of the two points."""
    return lambda a, b: float(pairwise([a, b])[0, 1])


def _accepted(rng, p: np.ndarray, count: int, propose, scale: float, inner: float = 0.0) -> np.ndarray:
    """``count`` proposed points at distance in [inner, scale] from p.

    ``propose(rng, size, attempt, scale)`` returns candidate points. A
    candidate outside the band is dropped on its own; the rest of its
    batch is kept.
    """
    kept, have = [], 0
    for attempt in range(_MAX_TRIES):
        pts = propose(rng, 2 * count + 8, attempt, scale)
        d = euclidean_matrix(pts, [p])[:, 0]
        pts = pts[(d >= inner) & (d <= scale)]
        kept.append(pts)
        have += len(pts)
        if have >= count:
            return np.concatenate(kept)[:count]
    raise RuntimeError(f"sampler failed to draw {count} points at distance in [{inner}, {scale}] "
                       f"after {_MAX_TRIES} batches")


def _cloud(rng, p: np.ndarray, k: int, propose, scale: float) -> tuple:
    """k+1 points within ``scale`` of p; the first, the anchor, lies at
    distance >= scale/2, so delta lands in [scale/2, scale]."""
    anchor = _accepted(rng, p, 1, propose, scale, scale / 2)
    return tuple(np.concatenate([anchor, _accepted(rng, p, k, propose, scale)]))


@dataclass(frozen=True)
class CurveSpec:
    """Parametric curve with a Lipschitz parameterization."""

    fn: Callable[[float], np.ndarray]
    t0: float
    t_min: float
    t_max: float
    lipschitz: float = 1.0


def _coordinates(name: str, coords, dim: int, finite: bool = True) -> np.ndarray:
    """``dim`` coordinates as floats, refused when one is not a number, when there are
    not ``dim`` of them, when one is NaN (every comparison with NaN is false, so it
    would pass the region checks) or, when ``finite``, one is infinite."""
    if np.ndim(coords) == 1 and not all(map(is_number, coords)):
        raise ValueError(f"{name} has a coordinate that is not a number: {list(coords)!r}")
    x = np.asarray(coords, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} must have {dim} coordinates")
    if np.isnan(x).any():
        raise ValueError(f"{name} has a NaN coordinate: {x.tolist()}")
    if finite and np.isinf(x).any():
        raise ValueError(f"{name} has an infinite coordinate: {x.tolist()}")
    return x


def _positive(name: str, value) -> float:
    """``value`` as a float, refused unless it is a positive finite number."""
    if not is_number(value) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def make_euclidean_subset(dim: int, region, p) -> MarkedSpace:
    """Euclidean metric restricted to a region, marked at ``p``.

    ``region`` is a dict: ``{"kind": "cube", "low": [...], "high": [...]}``
    (optionally with ``"pitch"`` to snap samples onto a grid),
    ``{"kind": "sphere-surface", "center": [...], "radius": r}``, or
    ``{"kind": "curve", "spec": CurveSpec}``. These raise ValueError: a ``dim``
    that is not an integer >= 1, a coordinate list (``p``, ``low``, ``high``,
    ``center``, a curve's ``fn(t0)``) with an entry that is not a number (a
    string, a bool or None is not) or without ``dim`` entries, a NaN coordinate,
    an infinite one in ``p``, ``center`` or ``fn(t0)``, a radius or pitch that is
    not a positive finite number, a pitch on a cube with an infinite ``low``, or
    a region that is not a dict naming its ``kind``. A ``p`` outside the region,
    for a cube before or after snapping to the pitch, raises
    MarkedPointOutsideRegionError. Infinite cube bounds without a pitch are allowed.
    """
    if not is_integer(dim) or dim < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {dim!r}")
    p = _coordinates("marked point", p, dim)
    kind = _region_kind(region)

    def space(region_desc: dict, propose=None) -> MarkedSpace:
        """The space over the region, its clouds drawn by ``propose``; all p without one."""
        def sample(scale, k, seed=0):
            if propose is None:
                return (p.copy(),) * (k + 1)
            return _cloud(np.random.default_rng(seed), p, k, propose, scale)

        desc = {"type": "euclidean", "dim": dim, "region": region_desc, "p": p.tolist()}
        return MarkedSpace(metric=_pair_metric(euclidean_matrix), p=p, sampler=sample, description=desc,
                           point_repr=lambda x: np.asarray(x).tolist(), pairwise=euclidean_matrix)

    if kind == "cube":
        low = _coordinates("low", region.get("low", np.zeros(dim)), dim, finite=False)
        high = _coordinates("high", region.get("high", np.ones(dim)), dim, finite=False)
        pitch = region.get("pitch")

        def inside(x: np.ndarray, what: str) -> None:
            if np.any(x < low - 1e-12) or np.any(x > high + 1e-12):
                cube = f"[{low.tolist()}, {high.tolist()}]"
                raise MarkedPointOutsideRegionError(f"{what}={x.tolist()} outside cube {cube}")

        inside(p, "p")
        if pitch is not None:
            pitch = _positive("pitch", pitch)
            if np.isinf(low).any():
                raise ValueError(f"a pitch needs finite low bounds, got {low.tolist()}")
            p = low + np.round((p - low) / pitch) * pitch
            # the sampler draws only inside the cube, so none near a p outside it
            inside(p, "p snapped to the pitch")

        def propose(rng, size, attempt, scale):
            # uniform in the ball B(p, scale), kept inside the cube, then
            # snapped to the grid (which may carry a point past scale)
            v = rng.normal(size=(size, dim))
            r = scale * rng.uniform(size=size) ** (1.0 / dim)
            norm = np.linalg.norm(v, axis=1)
            live = norm > 0
            x = p + v[live] * (r[live] / norm[live])[:, None]
            x = x[np.all((x >= low) & (x <= high), axis=1)]
            if pitch is not None:
                x = low + np.round((x - low) / pitch) * pitch
            return x

        desc = {"kind": kind, "low": low.tolist(), "high": high.tolist(), "pitch": pitch}
        return space(desc, None if np.all(high - low == 0) else propose)

    if kind == "sphere-surface":
        center = _coordinates("center", region.get("center", np.zeros(dim)), dim)
        radius = _positive("radius", region.get("radius", 1.0))
        if dim < 2:
            raise ValueError("sphere-surface region needs dim >= 2")
        if abs(euclidean_matrix([p], [center])[0, 0] - radius) > 1e-9 * max(radius, 1.0):
            raise MarkedPointOutsideRegionError(f"p={p.tolist()} not on the sphere surface")
        u = (p - center) / radius

        def propose(rng, size, attempt, scale):
            # a unit tangent direction at p and a geodesic angle up to phi_max
            phi_max = 2.0 * math.asin(min(scale, 2.0 * radius) / (2.0 * radius))
            w = rng.normal(size=(size, dim))
            w -= np.outer(w @ u, u)
            phi = rng.uniform(0.0, phi_max, size=size)
            norm = np.linalg.norm(w, axis=1)
            live = norm > 0
            w, phi = w[live] / norm[live, None], phi[live]
            return center + radius * (np.outer(np.cos(phi), u) + np.sin(phi)[:, None] * w)

        return space({"kind": kind, "center": center.tolist(), "radius": radius}, propose)

    if kind == "curve":
        spec: CurveSpec = region["spec"]
        p_curve = _coordinates("fn(t0)", spec.fn(spec.t0), dim)
        if euclidean_matrix([p], [p_curve])[0, 0] > 1e-9:
            raise MarkedPointOutsideRegionError("p must equal fn(t0)")

        def propose(rng, size, attempt, scale):
            # parameters within scale / lipschitz of t0 stay within scale;
            # each batch that falls short doubles the window
            width = min(scale / spec.lipschitz * 2.0**attempt, spec.t_max - spec.t_min)
            ts = np.clip(spec.t0 + rng.uniform(-width, width, size=size), spec.t_min, spec.t_max)
            return np.array([np.asarray(spec.fn(t), dtype=float) for t in ts]).reshape(size, dim)

        return space({"kind": kind}, propose)

    raise ValueError(f"unknown region kind {kind!r}")


def make_snowflake(alpha: float, base_dim: int, p, region=None) -> MarkedSpace:
    """(Euclidean distance)^alpha on a cube region: metric axioms survive
    the concave power, rectifiability does not. It derives from
    :func:`make_euclidean_subset` on ``region`` (the unit cube by default);
    an ``alpha`` that is not a number in (0, 1) raises AlphaOutOfRangeError."""
    if not is_number(alpha) or not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(f"alpha must lie in (0,1), got {alpha!r}")
    if region is None:
        region = {"kind": "cube"}
    if _region_kind(region) != "cube":
        raise ValueError("snowflake spaces support cube regions only")
    base = make_euclidean_subset(base_dim, region, p)

    def pairwise(points) -> np.ndarray:
        return euclidean_matrix(points) ** alpha

    # Euclidean delta in [t/2, t] with t = scale^(1/alpha) gives a
    # snowflake delta in [scale/2^alpha, scale], inside the contract.
    return replace(base, metric=_pair_metric(pairwise),
                   sampler=lambda scale, k, seed=0: base.sample(scale ** (1.0 / alpha), k, seed),
                   description={**base.description, "type": "snowflake", "alpha": alpha},
                   pairwise=pairwise)


def make_ultrametric(depth: int, arity: int, p=None) -> MarkedSpace:
    """Leaves of a rooted (depth, arity) tree with distance 2^-(LCA depth).

    Addresses are digit tuples of length ``depth`` (at most 1075, so every
    leaf distance is a positive double); the ultra-triangle inequality
    holds exactly by construction.
    """
    if not (is_integer(depth) and is_integer(arity)) or depth < 2 or arity < 2:
        raise ValueError("depth and arity must both be integers >= 2")
    if depth > 1075:
        raise ValueError(f"depth {depth} > 1075: distinct leaves would sit at distance 0.0")
    if p is None:
        p = (0,) * depth
    if not all(map(is_integer, p)):
        raise ValueError(f"marked leaf digits must be integers, got {list(p)!r}")
    p = tuple(int(d) for d in p)
    if len(p) != depth or any(not 0 <= d < arity for d in p):
        raise MarkedPointOutsideRegionError(f"marked leaf {p} not in the tree")
    p_digits = np.array(p)

    def pairwise(points) -> np.ndarray:
        # in lexicographic order, the common prefix of two leaves is the
        # shortest common prefix of the neighbouring pairs between them. The
        # sort key of a leaf is its digits as one big-endian byte string
        n = len(points)
        digits = np.array(points).reshape(n, depth)
        keys = np.ascontiguousarray(digits, dtype=">u8").view(f"S{8 * depth}").ravel()
        order = np.argsort(keys, kind="stable")
        ranked = digits[order]
        differ = ranked[1:] != ranked[:-1]
        lcp = np.where(differ.any(axis=1), differ.argmax(axis=1), depth)
        later = np.arange(n - 1)[None, :] >= np.arange(n - 1)[:, None]
        common = np.full((n, n), depth)
        common[:-1, 1:] = np.minimum.accumulate(np.where(later, lcp[None, :], depth), axis=1)
        common = np.minimum(common, common.T)
        dist = np.empty((n, n))
        dist[np.ix_(order, order)] = np.where(common < depth, np.ldexp(1.0, -common), 0.0)
        return dist

    def sample(scale, k, seed=0):
        rng = np.random.default_rng(seed)
        level = math.ceil(-math.log2(scale)) if scale < 1.0 else 0
        if level > depth - 1:
            raise ValueError(f"scale {scale} below tree resolution 2^-{depth - 1}")
        # each leaf leaves p's branch at depth `split` (the anchor at
        # `level`, so at distance exactly 2^-level); past level + 53 shared
        # digits a leaf equals p to double precision
        split = np.concatenate(([level], rng.integers(level, min(depth, level + 53) + 1, size=k)))
        digits = rng.integers(0, arity, size=(k + 1, depth))
        digits = np.where(np.arange(depth) < split[:, None], p_digits, digits)
        off = np.flatnonzero(split < depth)
        turn = rng.integers(1, arity, size=off.size)
        digits[off, split[off]] = (p_digits[split[off]] + turn) % arity
        return tuple(map(tuple, digits.tolist()))

    desc = {"type": "ultrametric", "depth": depth, "arity": arity, "p": list(p)}
    return MarkedSpace(metric=_pair_metric(pairwise), p=p, sampler=sample, description=desc,
                       point_repr=lambda x: ".".join(str(d) for d in x), pairwise=pairwise)


def freeze(space: MarkedSpace, scale: float, count: int, seed=0) -> tuple[FiniteMetricSpace, int]:
    """Materialize ``count`` sampled points plus ``p`` as a finite space.

    Returns the validated space and the index of the marked point (always
    0). Resamples on coincident points; deterministic for a fixed seed.
    Attempt ``a`` extends the seed's spawn key by ``(a,)``, so children of
    one ``SeedSequence`` freeze distinct spaces.
    """
    if not is_integer(count) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    labels = ["p"] + [f"s{i}" for i in range(1, count + 1)]
    for attempt in range(100):
        rng_seed = np.random.SeedSequence(entropy=base.entropy, spawn_key=base.spawn_key + (attempt,))
        pts = [space.p] + list(space.sample(scale, count - 1, rng_seed))
        try:
            return validate_metric({"labels": labels, "distances": space.matrix(pts)}), 0
        except CoincidentPointsError:
            pass
    raise RuntimeError(f"freeze: coincident samples persisted over 100 attempts at scale {scale}")


def as_marked(space: FiniteMetricSpace, index: int) -> MarkedSpace:
    """View a finite space as a marked space over its point indices, marked at one (:func:`point_index`)."""
    index = point_index(index, space.n_points)
    dists = space.dist[:, index]

    def sample(scale, k, seed=0):
        rng = np.random.default_rng(seed)
        eligible = np.flatnonzero(dists <= scale)
        anchors = np.flatnonzero((dists >= scale / 2) & (dists <= scale))
        if anchors.size == 0:
            raise ValueError(f"no points at distance in [{scale / 2}, {scale}] from the marked point")
        pts = [int(rng.choice(anchors))]
        pts += [int(x) for x in rng.choice(eligible, size=k, replace=True)]
        rng.shuffle(pts)
        return tuple(pts)

    pairwise = partial(submatrix, space)
    desc = {"type": "finite", "n_points": space.n_points, "p": index}
    return MarkedSpace(metric=_pair_metric(pairwise), p=index, sampler=sample, description=desc,
                       point_repr=lambda i: space.labels[int(i)], pairwise=pairwise)


def perturbed_euclidean_space(
    n_points: int,
    seed=0,
    dim: int | None = None,
    perturbation: float = 0.1,
    min_distance: float = 0.05,
) -> FiniteMetricSpace:
    """Random valid metric space: a Euclidean cloud with multiplicatively
    perturbed distances, drawn again (at most 500 times) while a distance is
    below ``min_distance`` or an axiom fails (:class:`MetricViolationError`)."""
    if not is_integer(n_points) or n_points < 1 or not (dim is None or is_integer(dim) and dim >= 1):
        raise ValueError(f"n_points and dim must be integers >= 1 (dim may be None), got {n_points!r}, {dim!r}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        d = dim if dim is not None else int(rng.integers(1, 5))
        pts = rng.uniform(0.0, 1.0, size=(n_points, d))
        dm = euclidean_matrix(pts)
        noise = rng.uniform(-perturbation, perturbation, size=dm.shape)
        noise = (noise + noise.T) / 2.0
        dm = dm * (1.0 + noise)
        np.fill_diagonal(dm, 0.0)
        off = dm + np.diag(np.full(n_points, np.inf))
        if np.min(off) < min_distance:
            continue
        try:
            return validate_metric(dm)
        except MetricViolationError:
            continue
    raise RuntimeError("failed to draw a valid perturbed metric space")


def _field(cfg: dict, key: str, owner: str = "config"):
    """The field ``key`` of ``owner``, refused by name when it is missing."""
    if key not in cfg:
        raise ValueError(f'the {owner} has no "{key}" key')
    return cfg[key]


def _region_kind(region) -> str:
    """The ``kind`` of a region, which must be a dict that names one."""
    if not isinstance(region, dict):
        raise ValueError(f"the region must be a JSON object, got {type(region).__name__}")
    return _field(region, "kind", "region")


def marked_space_from_config(cfg: dict) -> MarkedSpace:
    """Build a marked space from the JSON config the CLI consumes, a JSON
    object, whose ``dim``, ``depth`` and ``arity`` the makers judge. A curve
    region needs a Python :class:`CurveSpec`, which JSON cannot carry, so
    a config refuses it."""
    if not isinstance(cfg, dict):
        raise ValueError(f"the config must be a JSON object, got {type(cfg).__name__}")
    kind = _field(cfg, "type")
    if kind == "euclidean":
        dim, region = _field(cfg, "dim"), _field(cfg, "region")
        if isinstance(region, dict) and region.get("kind") == "curve":
            raise ValueError("a curve region needs a Python CurveSpec, which a JSON config cannot carry")
        return make_euclidean_subset(dim, region, _field(cfg, "p"))
    if kind == "snowflake":
        return make_snowflake(_field(cfg, "alpha"), _field(cfg, "dim"), _field(cfg, "p"), cfg.get("region"))
    if kind == "ultrametric":
        return make_ultrametric(_field(cfg, "depth"), _field(cfg, "arity"), cfg.get("p"))
    raise ValueError(f"unknown space type {kind!r}")
