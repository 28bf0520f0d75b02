"""Marked metric spaces backed by functions, and their tuple samplers.

A :class:`MarkedSpace` carries a metric function over an abstract point
carrier, a marked point ``p``, and a seeded sampler producing tuples whose
largest distance to ``p`` lands inside ``[scale/2, scale]``. Carriers are
coordinate vectors (Euclidean, snowflake) or tree addresses (ultrametric);
nothing is materialized until :func:`freeze` builds a finite space.
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
from .metric import FiniteMetricSpace, validate_metric

_MAX_TRIES = 500


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MarkedSpace:
    """A metric space with a marked point and a scale-targeted sampler."""

    metric: Callable[[Any, Any], float]
    p: Any
    sampler: Callable[[float, int, Any], tuple]
    description: dict = field(default_factory=dict)
    point_repr: Callable[[Any], Any] = staticmethod(lambda x: x)

    def sample(self, scale: float, k: int, seed=0) -> tuple:
        """A (k+1)-tuple of points with delta in [scale/2, scale]."""
        return self.sampler(float(scale), int(k), seed)

    def matrix(self, points: Sequence) -> np.ndarray:
        """Pairwise distance matrix of a tuple of carrier points."""
        n = len(points)
        dm = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dm[i, j] = dm[j, i] = self.metric(points[i], points[j])
        return dm


def _euclid(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def _ball_point(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    dim = center.shape[0]
    v = rng.normal(size=dim)
    norm = np.linalg.norm(v)
    if norm == 0:
        v = np.ones(dim)
        norm = np.linalg.norm(v)
    r = radius * rng.uniform() ** (1.0 / dim)
    return center + (r / norm) * v


def _rejection_tuple(draw_one, p, metric, scale: float, k: int, rng) -> tuple:
    """Draw k+1 points until the max distance to p lands in [scale/2, scale]."""
    for _ in range(_MAX_TRIES):
        pts = [draw_one(rng) for _ in range(k + 1)]
        delta = max(metric(x, p) for x in pts)
        if scale / 2 <= delta <= scale:
            return tuple(pts)
    raise RuntimeError(f"sampler failed to hit delta in [{scale / 2}, {scale}] after {_MAX_TRIES} tries")


@dataclass(frozen=True)
class CurveSpec:
    """Parametric curve with a Lipschitz parameterization."""

    fn: Callable[[float], np.ndarray]
    t0: float
    t_min: float
    t_max: float
    lipschitz: float = 1.0


def make_euclidean_subset(dim: int, region, p) -> MarkedSpace:
    """Euclidean metric restricted to a region, marked at ``p``.

    ``region`` is a dict: ``{"kind": "cube", "low": [...], "high": [...]}``
    (optionally with ``"pitch"`` to snap samples onto a grid),
    ``{"kind": "sphere-surface", "center": [...], "radius": r}``, or
    ``{"kind": "curve", "spec": CurveSpec}``.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    p = np.asarray(p, dtype=float)
    if p.shape != (dim,):
        raise ValueError(f"marked point must have {dim} coordinates")
    kind = region["kind"]

    if kind == "cube":
        low = np.asarray(region.get("low", np.zeros(dim)), dtype=float)
        high = np.asarray(region.get("high", np.ones(dim)), dtype=float)
        pitch = region.get("pitch")
        if np.any(p < low - 1e-12) or np.any(p > high + 1e-12):
            raise MarkedPointOutsideRegionError(f"p={p.tolist()} outside cube [{low.tolist()}, {high.tolist()}]")
        if pitch is not None:
            p = low + np.round((p - low) / pitch) * pitch
        degenerate = bool(np.all(high - low == 0))

        def sample(scale, k, seed=0):
            if degenerate:
                return (p.copy(),) * (k + 1)
            rng = _rng(seed)

            def draw(rng):
                for _ in range(_MAX_TRIES):
                    x = _ball_point(rng, p, scale)
                    if np.all(x >= low) and np.all(x <= high):
                        if pitch is not None:
                            x = low + np.round((x - low) / pitch) * pitch
                        return x
                raise RuntimeError("cube sampler: region/ball intersection too thin")

            return _rejection_tuple(draw, p, _euclid, scale, k, rng)

        desc = {"type": "euclidean", "dim": dim, "region": {"kind": kind, "low": low.tolist(),
                "high": high.tolist(), "pitch": pitch}, "p": p.tolist()}
        return MarkedSpace(metric=_euclid, p=p, sampler=sample, description=desc,
                           point_repr=lambda x: np.asarray(x).tolist())

    if kind == "sphere-surface":
        center = np.asarray(region.get("center", np.zeros(dim)), dtype=float)
        radius = float(region.get("radius", 1.0))
        if dim < 2:
            raise ValueError("sphere-surface region needs dim >= 2")
        if abs(_euclid(p, center) - radius) > 1e-9 * max(radius, 1.0):
            raise MarkedPointOutsideRegionError(f"p={p.tolist()} not on the sphere surface")
        u = (p - center) / radius

        def sample(scale, k, seed=0):
            rng = _rng(seed)
            phi_max = 2.0 * math.asin(min(scale, 2.0 * radius) / (2.0 * radius))

            def draw(rng):
                w = rng.normal(size=dim)
                w -= np.dot(w, u) * u
                norm = np.linalg.norm(w)
                if norm == 0:
                    w = np.roll(u, 1) - np.dot(np.roll(u, 1), u) * u
                    norm = np.linalg.norm(w)
                w /= norm
                phi = rng.uniform(0.0, phi_max)
                return center + radius * (math.cos(phi) * u + math.sin(phi) * w)

            return _rejection_tuple(draw, p, _euclid, scale, k, rng)

        desc = {"type": "euclidean", "dim": dim, "region": {"kind": kind, "center": center.tolist(),
                "radius": radius}, "p": p.tolist()}
        return MarkedSpace(metric=_euclid, p=p, sampler=sample, description=desc,
                           point_repr=lambda x: np.asarray(x).tolist())

    if kind == "curve":
        spec: CurveSpec = region["spec"]
        p_curve = np.asarray(spec.fn(spec.t0), dtype=float)
        if _euclid(p, p_curve) > 1e-9:
            raise MarkedPointOutsideRegionError("p must equal fn(t0)")

        def sample(scale, k, seed=0):
            rng = _rng(seed)
            width = scale / spec.lipschitz
            for _ in range(_MAX_TRIES):
                def draw(rng, width=width):
                    t = np.clip(spec.t0 + rng.uniform(-width, width), spec.t_min, spec.t_max)
                    return np.asarray(spec.fn(t), dtype=float)
                try:
                    return _rejection_tuple(draw, p, _euclid, scale, k, rng)
                except RuntimeError:
                    width = min(width * 2.0, spec.t_max - spec.t_min)
            raise RuntimeError("curve sampler: could not reach requested scale")

        desc = {"type": "euclidean", "dim": dim, "region": {"kind": kind}, "p": p.tolist()}
        return MarkedSpace(metric=_euclid, p=p, sampler=sample, description=desc,
                           point_repr=lambda x: np.asarray(x).tolist())

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
                       point_repr=lambda x: np.asarray(x).tolist())


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

    def metric(a, b) -> float:
        if a == b:
            return 0.0
        common = 0
        for da, db in zip(a, b):
            if da != db:
                break
            common += 1
        return 2.0 ** (-common)

    def sample(scale, k, seed=0):
        rng = _rng(seed)
        level = math.ceil(-math.log2(scale)) if scale < 1.0 else 0
        if level > depth - 1:
            raise ValueError(f"scale {scale} below tree resolution 2^-{depth - 1}")

        def leaf_at(prefix_len: int):
            if prefix_len >= depth:
                return p
            digit = int(rng.integers(1, arity))
            head = p[:prefix_len] + ((p[prefix_len] + digit) % arity,)
            tail = tuple(int(rng.integers(0, arity)) for _ in range(depth - prefix_len - 1))
            return head + tail

        pts = [leaf_at(level)]  # anchor at distance exactly 2^-level
        # past level + 53 shared digits a leaf equals p to double precision
        for _ in range(k):
            pts.append(leaf_at(int(rng.integers(level, min(depth, level + 53) + 1))))
        rng.shuffle(pts)
        return tuple(pts)

    desc = {"type": "ultrametric", "depth": depth, "arity": arity, "p": list(p)}
    return MarkedSpace(metric=metric, p=p, sampler=sample, description=desc,
                       point_repr=lambda x: ".".join(str(d) for d in x))


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

    desc = {"type": "finite", "n_points": n, "p": index}
    return MarkedSpace(metric=metric, p=index, sampler=sample, description=desc,
                       point_repr=lambda i: space.labels[int(i)])


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
        diff = pts[:, None, :] - pts[None, :, :]
        dm = np.sqrt(np.sum(diff * diff, axis=-1))
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
