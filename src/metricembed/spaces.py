"""Marked metric spaces backed by functions, and their cloud samplers.

A :class:`MarkedSpace` carries a metric function over an abstract point
carrier, a marked point ``p``, and a seeded sampler drawing clouds whose
largest distance to ``p`` lands inside ``[scale/2, scale]``. Carriers are
coordinate vectors (Euclidean, snowflake) or tree addresses (ultrametric);
nothing is materialized until :func:`freeze` builds a finite space.

Every built-in carrier draws a whole cloud with a few numpy calls and
computes its distance matrix in one batched call (``pairwise``); only a
user-supplied ``metric`` without ``pairwise`` is evaluated pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    MarkedPointOutsideRegionError,
)
from .metric import FiniteMetricSpace, euclidean_matrix, validate_metric

_MAX_TRIES = 500


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MarkedSpace:
    """A metric space with a marked point and a scale-targeted sampler.

    ``sampler(scale, k, seed)`` returns k+1 points with delta in
    [scale/2, scale]; a cloud is one call with a large k. ``pairwise``,
    when given, maps a sequence of points to their distance matrix in one
    batched call and must agree with ``metric``.
    """

    metric: Callable[[Any, Any], float]
    p: Any
    sampler: Callable[[float, int, Any], tuple]
    description: dict = field(default_factory=dict)
    point_repr: Callable[[Any], Any] = staticmethod(lambda x: x)
    pairwise: Callable[[Sequence], np.ndarray] | None = None

    def sample(self, scale: float, k: int, seed=0) -> tuple:
        """A (k+1)-tuple of points with delta in [scale/2, scale]."""
        return self.sampler(float(scale), int(k), seed)

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


def _euclid(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def _accepted(rng, count: int, propose, scale: float, inner: float = 0.0) -> np.ndarray:
    """``count`` proposed points at distance in [inner, scale] from p.

    ``propose(rng, size, attempt)`` returns candidate points and their
    distances to p. A candidate outside the band is dropped on its own;
    the rest of its batch is kept.
    """
    kept, have = [], 0
    for attempt in range(_MAX_TRIES):
        pts, d = propose(rng, 2 * count + 8, attempt)
        pts = pts[(d >= inner) & (d <= scale)]
        kept.append(pts)
        have += len(pts)
        if have >= count:
            return np.concatenate(kept)[:count]
    raise RuntimeError(f"sampler failed to draw {count} points at distance in [{inner}, {scale}] "
                       f"after {_MAX_TRIES} batches")


def _cloud(rng, k: int, propose, scale: float) -> tuple:
    """k+1 points within ``scale`` of p; the first, the anchor, lies at
    distance >= scale/2, so delta lands in [scale/2, scale]."""
    anchor = _accepted(rng, 1, propose, scale, scale / 2)
    return tuple(np.concatenate([anchor, _accepted(rng, k, propose, scale)]))


@dataclass(frozen=True)
class CurveSpec:
    """Parametric curve with a Lipschitz parameterization."""

    fn: Callable[[float], np.ndarray]
    t0: float
    t_min: float
    t_max: float
    lipschitz: float = 1.0


def _without_nan(name: str, coords) -> np.ndarray:
    """Coordinates as floats, refused when one is NaN: every comparison
    with NaN is false, so it would pass the region checks."""
    x = np.asarray(coords, dtype=float)
    if np.isnan(x).any():
        raise ValueError(f"{name} has a NaN coordinate: {x.tolist()}")
    return x


def make_euclidean_subset(dim: int, region, p) -> MarkedSpace:
    """Euclidean metric restricted to a region, marked at ``p``.

    ``region`` is a dict: ``{"kind": "cube", "low": [...], "high": [...]}``
    (optionally with ``"pitch"`` to snap samples onto a grid),
    ``{"kind": "sphere-surface", "center": [...], "radius": r}``, or
    ``{"kind": "curve", "spec": CurveSpec}``. A NaN coordinate, or a radius
    that is not a positive finite number, raises ValueError.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    p = _without_nan("marked point", p)
    if p.shape != (dim,):
        raise ValueError(f"marked point must have {dim} coordinates")
    kind = region["kind"]

    def to_p(x: np.ndarray) -> np.ndarray:
        diff = x - p
        return np.sqrt(np.sum(diff * diff, axis=1))

    def space(sample, region_desc: dict) -> MarkedSpace:
        desc = {"type": "euclidean", "dim": dim, "region": region_desc, "p": p.tolist()}
        return MarkedSpace(metric=_euclid, p=p, sampler=sample, description=desc,
                           point_repr=lambda x: np.asarray(x).tolist(), pairwise=euclidean_matrix)

    if kind == "cube":
        low = _without_nan("low", region.get("low", np.zeros(dim)))
        high = _without_nan("high", region.get("high", np.ones(dim)))
        pitch = region.get("pitch")
        if np.any(p < low - 1e-12) or np.any(p > high + 1e-12):
            raise MarkedPointOutsideRegionError(f"p={p.tolist()} outside cube [{low.tolist()}, {high.tolist()}]")
        if pitch is not None:
            if not 0 < float(pitch) < math.inf:
                raise ValueError(f"pitch must be a positive finite number, got {pitch!r}")
            p = low + np.round((p - low) / pitch) * pitch
        degenerate = bool(np.all(high - low == 0))

        def sample(scale, k, seed=0):
            if degenerate:
                return (p.copy(),) * (k + 1)

            def propose(rng, size, attempt):
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
                return x, to_p(x)

            return _cloud(_rng(seed), k, propose, scale)

        return space(sample, {"kind": kind, "low": low.tolist(), "high": high.tolist(), "pitch": pitch})

    if kind == "sphere-surface":
        center = _without_nan("center", region.get("center", np.zeros(dim)))
        radius = float(region.get("radius", 1.0))
        if dim < 2:
            raise ValueError("sphere-surface region needs dim >= 2")
        if not 0 < radius < math.inf:
            raise ValueError(f"radius must be a positive finite number, got {radius!r}")
        if abs(_euclid(p, center) - radius) > 1e-9 * max(radius, 1.0):
            raise MarkedPointOutsideRegionError(f"p={p.tolist()} not on the sphere surface")
        u = (p - center) / radius

        def sample(scale, k, seed=0):
            phi_max = 2.0 * math.asin(min(scale, 2.0 * radius) / (2.0 * radius))

            def propose(rng, size, attempt):
                # a unit tangent direction at p and a geodesic angle up to phi_max
                w = rng.normal(size=(size, dim))
                w -= np.outer(w @ u, u)
                phi = rng.uniform(0.0, phi_max, size=size)
                norm = np.linalg.norm(w, axis=1)
                live = norm > 0
                w, phi = w[live] / norm[live, None], phi[live]
                x = center + radius * (np.outer(np.cos(phi), u) + np.sin(phi)[:, None] * w)
                return x, to_p(x)

            return _cloud(_rng(seed), k, propose, scale)

        return space(sample, {"kind": kind, "center": center.tolist(), "radius": radius})

    if kind == "curve":
        spec: CurveSpec = region["spec"]
        p_curve = np.asarray(spec.fn(spec.t0), dtype=float)
        if _euclid(p, p_curve) > 1e-9:
            raise MarkedPointOutsideRegionError("p must equal fn(t0)")

        def sample(scale, k, seed=0):
            def propose(rng, size, attempt):
                # parameters within scale / lipschitz of t0 stay within scale;
                # each batch that falls short doubles the window
                width = min(scale / spec.lipschitz * 2.0**attempt, spec.t_max - spec.t_min)
                ts = np.clip(spec.t0 + rng.uniform(-width, width, size=size), spec.t_min, spec.t_max)
                x = np.array([np.asarray(spec.fn(t), dtype=float) for t in ts]).reshape(size, dim)
                return x, to_p(x)

            return _cloud(_rng(seed), k, propose, scale)

        return space(sample, {"kind": kind})

    raise ValueError(f"unknown region kind {kind!r}")


def make_snowflake(alpha: float, base_dim: int, p, region=None) -> MarkedSpace:
    """(Euclidean distance)^alpha on a cube region: metric axioms survive
    the concave power, rectifiability does not."""
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(f"alpha must lie in (0,1), got {alpha}")
    region = region or {"kind": "cube", "low": [0.0] * base_dim, "high": [1.0] * base_dim}
    if region["kind"] != "cube":
        raise ValueError("snowflake spaces support cube regions only")
    base = make_euclidean_subset(base_dim, region, p)

    def metric(a, b) -> float:
        return _euclid(a, b) ** alpha

    def sample(scale, k, seed=0):
        # Euclidean delta in [t/2, t] with t = scale^(1/alpha) gives a
        # snowflake delta in [scale/2^alpha, scale], inside the contract.
        return base.sample(scale ** (1.0 / alpha), k, seed)

    desc = {"type": "snowflake", "alpha": alpha, "dim": base_dim,
            "region": base.description["region"], "p": base.description["p"]}
    return MarkedSpace(metric=metric, p=base.p, sampler=sample, description=desc,
                       point_repr=lambda x: np.asarray(x).tolist(),
                       pairwise=lambda points: euclidean_matrix(points) ** alpha)


def make_ultrametric(depth: int, arity: int, p=None) -> MarkedSpace:
    """Leaves of a rooted (depth, arity) tree with distance 2^-(LCA depth).

    Addresses are digit tuples of length ``depth`` (at most 1075, so every
    leaf distance is a positive double); the ultra-triangle inequality
    holds exactly by construction.
    """
    if depth < 2 or arity < 2:
        raise ValueError("depth and arity must both be >= 2")
    if depth > 1075:
        raise ValueError(f"depth {depth} > 1075: distinct leaves would sit at distance 0.0")
    if p is None:
        p = (0,) * depth
    p = tuple(int(d) for d in p)
    if len(p) != depth or any(not 0 <= d < arity for d in p):
        raise MarkedPointOutsideRegionError(f"marked leaf {p} not in the tree")
    p_digits = np.array(p)

    def metric(a, b) -> float:
        if a == b:
            return 0.0
        common = 0
        for da, db in zip(a, b):
            if da != db:
                break
            common += 1
        return 2.0 ** (-common)

    def pairwise(points) -> np.ndarray:
        # in lexicographic order, the common prefix of two leaves is the
        # shortest common prefix of the neighbouring pairs between them
        n = len(points)
        if n < 2:
            return np.zeros((n, n))
        digits = np.array(points).reshape(n, depth)
        order = np.lexsort(digits.T[::-1])
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
        rng = _rng(seed)
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
    return MarkedSpace(metric=metric, p=p, sampler=sample, description=desc,
                       point_repr=lambda x: ".".join(str(d) for d in x), pairwise=pairwise)


def freeze(space: MarkedSpace, scale: float, count: int, seed=0) -> tuple[FiniteMetricSpace, int]:
    """Materialize ``count`` sampled points plus ``p`` as a finite space.

    Returns the validated space and the index of the marked point (always
    0). Resamples on coincident points; deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for attempt in range(100):
        rng_seed = np.random.SeedSequence(entropy=base.entropy, spawn_key=(attempt,))
        pts = [space.p] + list(space.sample(scale, count - 1, rng_seed))
        dm = space.matrix(pts)
        off = dm + np.diag(np.full(len(pts), np.inf))
        if np.min(off) > 0:
            labels = ["p"] + [f"s{i}" for i in range(1, count + 1)]
            return validate_metric({"labels": labels, "distances": dm.tolist()}), 0
    raise RuntimeError(f"freeze: coincident samples persisted over 100 attempts at scale {scale}")


def as_marked(space: FiniteMetricSpace, index: int) -> MarkedSpace:
    """View a finite space as a marked space with point indices as carrier."""
    n = space.n_points
    if not 0 <= index < n:
        raise IndexError(f"marked index {index} outside space of {n} points")

    def metric(i, j) -> float:
        return float(space.dist[int(i), int(j)])

    dists = space.dist[:, index]

    def sample(scale, k, seed=0):
        rng = _rng(seed)
        eligible = np.flatnonzero(dists <= scale)
        anchors = np.flatnonzero((dists >= scale / 2) & (dists <= scale))
        if anchors.size == 0:
            raise ValueError(f"no points at distance in [{scale / 2}, {scale}] from the marked point")
        pts = [int(rng.choice(anchors))]
        pts += [int(x) for x in rng.choice(eligible, size=k, replace=True)]
        rng.shuffle(pts)
        return tuple(pts)

    def pairwise(points) -> np.ndarray:
        ix = np.asarray(points, dtype=int)
        return space.dist[np.ix_(ix, ix)]

    desc = {"type": "finite", "n_points": n, "p": index}
    return MarkedSpace(metric=metric, p=index, sampler=sample, description=desc,
                       point_repr=lambda i: space.labels[int(i)], pairwise=pairwise)


def perturbed_euclidean_space(
    n_points: int,
    seed=0,
    dim: int | None = None,
    perturbation: float = 0.1,
    min_distance: float = 0.05,
) -> FiniteMetricSpace:
    """Random valid metric space: a Euclidean cloud with multiplicatively
    perturbed distances, rejection-sampled until the axioms hold."""
    rng = _rng(seed)
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
        except ValueError:
            continue
    raise RuntimeError("failed to draw a valid perturbed metric space")


def marked_space_from_config(cfg: dict) -> MarkedSpace:
    """Build a marked space from the JSON config the CLI consumes."""
    kind = cfg["type"]
    if kind == "euclidean":
        return make_euclidean_subset(int(cfg["dim"]), cfg["region"], cfg["p"])
    if kind == "snowflake":
        return make_snowflake(float(cfg["alpha"]), int(cfg["dim"]), cfg["p"], cfg.get("region"))
    if kind == "ultrametric":
        return make_ultrametric(int(cfg["depth"]), int(cfg["arity"]), cfg.get("p"))
    raise ValueError(f"unknown space type {kind!r}")
