"""Seeded inputs, operation mixes and the oracle for each workload.

Every input is generated from the workload seed into a scratch directory;
the program under test only ever sees the generated files. The oracle
judges each operation from the geometry the generator used (SVD affine
rank of the cloud, known non-embeddability of the star and the 4-cycle,
known infinitesimal geometry of the scan spaces), never from the package
under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Rescaling factors every finite-exhaustive geometry is run at. A verdict
#: describes the metric space, so it must not depend on the unit; the
#: seed's zero bands are not scale-free, so rescaled inputs fail there.
SCALES = (1e-3, 1.0, 1e3)

#: (affine rank, points) of the random finite-exhaustive clouds. The
#: rank-2 cloud keeps N=24 up to n = 3, where the seed's Schoenberg stack
#: takes 512 MB. N=24 is not tested at n >= 4: at n = 4 one op takes 6.5 s
#: and 1.9 GB, at n = 5 about 5 GB, which neither a run's time nor a shared
#: 8 GB machine can hold; the rank-3 and rank-4 clouds are smaller.
EXHAUSTIVE_CLOUDS = ((1, 24), (2, 24), (3, 16), (4, 12))

#: (points, affine rank) of the finite-large clouds: beyond 24 points the
#: deciders sample subsets and test PSD spectrally instead of enumerating.
LARGE_CLOUDS = ((100, 2), (200, 3), (300, 4))

#: Samples per scale rung of each scan (the CLI default is 128). At 32 the
#: verdicts of the six scans are already stable across seeds, and a pass
#: is short enough for a run to hold dozens of scans.
SCAN_SAMPLES = 32

#: Relative tolerance for realized coordinates against the input distances.
REALIZE_RTOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the answer the oracle expects from it."""

    argv: tuple[str, ...]
    command: str
    #: "yes"/"no" for check-embed, "feasible"/"infeasible" for min-dim,
    #: "ok" for validate, the transfer verdict for scan
    expect: str
    #: min-dim's expected dimension, or None
    expect_dim: int | None = None
    #: True when the input is at unit scale (or is not a rescaled input)
    unit_scale: bool = True
    #: the distance file, for checking realized coordinates
    input_path: str | None = None
    label: str = ""


@dataclass(frozen=True)
class Plan:
    """A workload's fixed op mix: ``ops(i)`` is pass ``i`` of a run."""

    ops: Callable[[int], list[Op]]
    #: Seconds one plain pass takes at the seed on a 2-core Xeon VM. It
    #: fixes how many passes a run makes, so the same mix and the same
    #: sample count are measured on every run and on every commit.
    pass_seconds: float


# ---------------------------------------------------------------------------
# Generators


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _pairwise(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def affine_rank(x: np.ndarray) -> int:
    """Oracle rank: singular values of the centred cloud above 1e-9 * largest."""
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0


def random_cloud(rng: np.random.Generator, n_points: int, rank: int, ambient: int = 6) -> np.ndarray:
    """A well-spread cloud of affine rank ``rank`` embedded in R^ambient."""
    for _ in range(1000):
        flat = rng.uniform(-1.0, 1.0, size=(n_points, rank))
        basis, _ = np.linalg.qr(rng.normal(size=(ambient, rank)))
        x = flat @ basis.T + rng.normal(size=ambient)
        s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
        d = _pairwise(x)
        off = d[~np.eye(n_points, dtype=bool)]
        if s[rank - 1] >= 0.2 * s[0] and off.min() >= 1e-3 * off.max():
            return x
    raise RuntimeError(f"could not draw a well-spread rank-{rank} cloud of {n_points} points")


def star_metric() -> np.ndarray:
    """Path metric of K_{1,3}: centre 0, three leaves. Embeds in no E^n."""
    d = np.full((4, 4), 2.0)
    d[0, 1:] = d[1:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    return d


def cycle4_metric() -> np.ndarray:
    """Path metric of the 4-cycle. Embeds in no E^n."""
    idx = np.arange(4)
    gap = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(gap, 4 - gap).astype(float)


def _permuted(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    perm = rng.permutation(d.shape[0])
    return d[np.ix_(perm, perm)]


def _write_space(directory: Path, name: str, d: np.ndarray) -> str:
    path = directory / f"{name}.json"
    labels = [f"p{i}" for i in range(d.shape[0])]
    path.write_text(json.dumps({"labels": labels, "distances": d.tolist()}), encoding="utf-8")
    return str(path)


def _scale_tag(lam: float) -> str:
    return {1e-3: "milli", 1.0: "unit", 1e3: "kilo"}[lam]


# ---------------------------------------------------------------------------
# Workloads


def _finite_ops(path: str, rank: int | None, dims: list[int], blumenthal_dim: int,
                unit: bool, label: str) -> list[Op]:
    """check-embed at each dim, Blumenthal at one, then min-dim --realize.

    ``rank`` is the oracle's affine rank, or None for a space that embeds
    in no Euclidean space.
    """
    ops = []
    for n in dims:
        yes = rank is not None and n >= rank
        ops.append(Op(("check-embed", path, "--dim", str(n), "--criterion", "all", "--realize"),
                      "check-embed", "yes" if yes else "no", unit_scale=unit, input_path=path,
                      label=f"{label}/all/n={n}"))
    blum = rank is not None and blumenthal_dim == rank
    ops.append(Op(("check-embed", path, "--dim", str(blumenthal_dim), "--criterion", "blumenthal"),
                  "check-embed", "yes" if blum else "no", unit_scale=unit, input_path=path,
                  label=f"{label}/blumenthal/n={blumenthal_dim}"))
    ops.append(Op(("min-dim", path, "--realize"), "min-dim",
                  "feasible" if rank is not None else "infeasible", expect_dim=rank,
                  unit_scale=unit, input_path=path, label=f"{label}/min-dim"))
    return ops


def finite_exhaustive(seed: int, directory: Path) -> Plan:
    ops: list[Op] = []
    geoms: list[tuple[str, np.ndarray, int | None]] = []
    for i, (rank, n_points) in enumerate(EXHAUSTIVE_CLOUDS):
        x = random_cloud(_rng(seed, 1, i), n_points, rank)
        r = affine_rank(x)
        if r != rank:
            raise RuntimeError(f"generator produced rank {r}, wanted {rank}")
        geoms.append((f"cloud_r{rank}_N{n_points}", _pairwise(x), r))
    geoms.append(("star", _permuted(_rng(seed, 3), star_metric()), None))
    geoms.append(("cycle4", _permuted(_rng(seed, 4), cycle4_metric()), None))

    for lam in SCALES:
        for name, d, rank in geoms:
            label = f"{name}@{_scale_tag(lam)}"
            path = _write_space(directory, label.replace("@", "_"), d * lam)
            if rank is None:
                dims, blum = [2, 3], 2
            else:
                dims, blum = [n for n in (rank - 1, rank, rank + 1) if n >= 1], rank
            ops += _finite_ops(path, rank, dims, blum, lam == 1.0, label)
    return Plan(lambda _: ops, pass_seconds=32.0)


def finite_large(seed: int, directory: Path) -> Plan:
    ops: list[Op] = []
    for i, (n_points, rank) in enumerate(LARGE_CLOUDS):
        x = random_cloud(_rng(seed, 5, i), n_points, rank)
        r = affine_rank(x)
        if r != rank:
            raise RuntimeError(f"generator produced rank {r}, wanted {rank}")
        label = f"cloud_r{rank}_N{n_points}"
        path = _write_space(directory, label, _pairwise(x))
        ops += [
            Op(("validate", path), "validate", "ok", input_path=path, label=f"{label}/validate"),
            Op(("min-dim", path, "--realize"), "min-dim", "feasible", expect_dim=r, input_path=path,
               label=f"{label}/min-dim"),
            Op(("check-embed", path, "--dim", str(r), "--criterion", "all"), "check-embed", "yes",
               input_path=path, label=f"{label}/all/n={r}"),
            Op(("check-embed", path, "--dim", str(r), "--criterion", "blumenthal"), "check-embed",
               "yes", input_path=path, label=f"{label}/blumenthal/n={r}"),
        ]
    return Plan(lambda _: ops, pass_seconds=9.0)


def scan(seed: int, directory: Path) -> Plan:
    """Marked spaces with known infinitesimal geometry.

    The circle is a smooth curve and the square a planar region, so their
    limit spaces are E^1 and E^2; the square, the pitch-2^-14 grid (a
    planar region at every scale of the default ladder), the alpha=1/2
    snowflake and the ultrametric have limit spaces that do not embed in E^1.
    """
    rng = _rng(seed, 6)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    p_sq = rng.uniform(0.4, 0.6, size=2)
    pitch = 2.0 ** -14
    p_grid = np.round(rng.uniform(0.4, 0.6, size=2) / pitch) * pitch
    p_snow = rng.uniform(0.4, 0.6, size=1)
    depth, arity = 14, 3
    leaf = rng.integers(0, arity, size=depth)
    configs = {
        "circle": {"type": "euclidean", "dim": 2, "p": [float(np.cos(angle)), float(np.sin(angle))],
                   "region": {"kind": "sphere-surface", "center": [0.0, 0.0], "radius": 1.0}},
        "square": {"type": "euclidean", "dim": 2, "p": p_sq.tolist(),
                   "region": {"kind": "cube", "low": [0.0, 0.0], "high": [1.0, 1.0]}},
        "grid": {"type": "euclidean", "dim": 2, "p": p_grid.tolist(),
                 "region": {"kind": "cube", "low": [0.0, 0.0], "high": [1.0, 1.0], "pitch": pitch}},
        "snowflake": {"type": "snowflake", "alpha": 0.5, "dim": 1, "p": p_snow.tolist()},
        "ultrametric": {"type": "ultrametric", "depth": depth, "arity": arity, "p": leaf.tolist()},
    }
    paths = {}
    for name, cfg in configs.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(cfg), encoding="utf-8")
    consistent, refuted = "consistent-with-embeddable", "refuted"
    specs = [("circle", consistent, 1), ("square", consistent, 2), ("square", refuted, 1),
             ("grid", refuted, 1), ("snowflake", refuted, 1), ("ultrametric", refuted, 1)]

    def ops(pass_index: int) -> list[Op]:
        # A fresh CLI seed per scan and pass: the scans run over many seeds.
        out = []
        for i, (name, expect, dim) in enumerate(specs):
            cli_seed = int(np.random.SeedSequence([seed, 7, pass_index, i]).generate_state(1)[0] % 100000)
            out.append(Op(("scan", str(paths[name]), "--dim", str(dim), "--samples", str(SCAN_SAMPLES),
                           "--seed", str(cli_seed)), "scan", expect, label=f"{name}/n={dim}"))
        return out

    return Plan(ops, pass_seconds=3.5)


WORKLOADS = {"finite-exhaustive": finite_exhaustive, "finite-large": finite_large, "scan": scan}


# ---------------------------------------------------------------------------
# Oracle

#: Outcome classes. Only "ok" passes; each other class is a failed op.
OUTCOMES = ("ok", "wrong", "undetermined", "error", "malformed", "timeout", "memcap")

_EXIT_OF_VERDICT = {"yes": 0, "no": 1, "undetermined": 4,
                    "consistent-with-embeddable": 0, "refuted": 1, "inconclusive": 4}


def _coords_match(coords, input_path: str) -> bool:
    d = np.asarray(json.loads(Path(input_path).read_text(encoding="utf-8"))["distances"])
    x = np.asarray(coords, dtype=float)
    if x.ndim != 2 or x.shape[0] != d.shape[0]:
        return False
    if x.shape[1] == 0:
        x = np.zeros((d.shape[0], 1))
    return bool(np.max(np.abs(_pairwise(x) - d)) <= REALIZE_RTOL * np.max(d))


def judge(op: Op, exit_code: int, stdout: str, stderr: str) -> str:
    """Classify one finished op against the oracle (see OUTCOMES)."""
    if "MemoryError" in stderr:
        return "memcap"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "malformed"
    if not isinstance(payload, dict) or payload.get("exit_code") != exit_code or "Traceback" in stderr:
        return "malformed"
    if op.command == "validate":
        return "ok" if payload.get("ok") is True and exit_code == 0 else "wrong"
    if "error" in payload:
        return "error"
    result = payload.get("result")
    if not isinstance(result, dict):
        return "malformed"
    if op.command == "min-dim":
        feasible = result.get("feasible")
        if exit_code != (0 if feasible else 1):
            return "malformed"
        if (op.expect == "feasible") != bool(feasible):
            return "wrong"
        if feasible and result.get("m") != op.expect_dim:
            return "wrong"
        if "coordinates" in result and not _coords_match(result["coordinates"], op.input_path):
            return "wrong"
        return "ok"

    verdict = result.get("verdict")
    if _EXIT_OF_VERDICT.get(verdict) != exit_code:
        return "malformed"
    if verdict in ("undetermined", "inconclusive"):
        return "undetermined"
    if verdict != op.expect:
        return "wrong"
    if "coordinates" in result and not _coords_match(result["coordinates"], op.input_path):
        return "wrong"
    return "ok"
