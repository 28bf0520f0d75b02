"""Count wrong answers on spaces labelled by construction: one JSON of counts per family.

    python tools/accuracy.py [--gate FILE]

Every space comes with its answer from the generator's geometry, never
from the package. A cloud of points is labelled with its exact affine
rank; the K_{1,3} star and the 4-cycle (graph metrics with unit edges)
are labelled infeasible, and so is a near-Euclidean space: r + 3 points
whose Schoenberg form about point 0 is 2 X X^T, X a Gaussian cloud of
rank r, less one negative eigenvalue of known size, -4 lambda max|x_i|^2
(:func:`near_euclidean`). A snowflake, d^alpha of a Gaussian cloud of N
points for 0 < alpha < 1, has a positive definite Schoenberg form
(Schoenberg 1938; Micchelli 1986), so it is labelled N - 1
(:func:`snowflake`). Each space runs at scales 1e-3, 1 and 1e3, both
as drawn and under one fixed permutation of its points, and each run
goes through ``metricembed.cli.main`` in this process, as a user would
run it: ``min-dim --realize`` once, and ``check-embed --criterion all``
at n = label - 1, label and label + 1 (n = 1, 2, 3 on the star and the
4-cycle, n = r - 1, r, r + 1 on a near-Euclidean space).

A run whose relative squared height (s_label / s_1)^2, from the singular
values of the cloud about its centroid, lies within 100x of ``tol_det``
on either side is counted apart as ``either``: there the zero band may
read either rank. For a snowflake the height is lambda_min(tau) / D^2,
tau its Schoenberg form about point 0 and D its largest distance.

The snowflake grid is chosen by run time, not by what it counts: every
alpha at N = 20 and 60 on clouds in R^2 to R^8 (about 8 s on a 2-core
Xeon VM), and N = 200, about 2 s a space, only on the cloud in R^4 at
alpha = 1/2 and 0.99, which keeps the whole run near 24 s there, short of
a 30 s budget. ``cases`` counts every run, six per space, and over
the runs not counted apart each family counts:

* ``wrong_m``: ``min-dim`` reads another m, or another feasibility;
* ``wrong_yes``, ``wrong_no`` and ``undetermined``: ``check-embed``
  verdicts against the label (``yes`` is right iff n >= label);
* ``max_residual``: the largest realization residual over the largest
  distance, to 3 significant digits (null when nothing was realized).

With ``--gate FILE`` (a committed output of this tool) it also exits 1
when any family's ``wrong_m``, ``wrong_yes`` or ``wrong_no`` exceeds that
file's.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from replay import run  # tools/replay.py, which also puts src/ on sys.path

from metricembed.determinants import DEFAULT_TOL_DET

SCALES = (1e-3, 1.0, 1e3)
GAUSSIAN_DIMS = (2, 4, 6, 8, 10, 12, 16, 20, 24, 29, 32, 40)
ANISOTROPY = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
SEEDS = range(5)
#: the ranks r and eigenvalue sizes lambda of the near-Euclidean family
NEAR_RANKS = (4, 8, 16)
NEAR_LAMBDAS = (1e-4, 1e-6)
#: the snowflake family's exponents alpha, cloud dimensions and sizes N,
#: and the (alpha, dimension) pairs that also run at N = 200
SNOW_ALPHAS = (0.25, 0.5, 0.75, 0.9, 0.99)
SNOW_DIMS = range(2, 9)
SNOW_SIZES = (20, 60)
SNOW_LARGE = ((0.5, 4), (0.99, 4))
#: the counts the gate holds at or below the committed file's
GATED = ("wrong_m", "wrong_yes", "wrong_no")


def distances(x: np.ndarray) -> np.ndarray:
    """The Euclidean distance matrix of the rows of ``x``, computed here so
    that the inputs do not depend on the package they test."""
    return np.sqrt(np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1))


def cloud(x: np.ndarray, rank: int) -> tuple:
    """The case of a cloud of exact affine rank ``rank``."""
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    height = (s[rank - 1] / s[0]) ** 2
    return distances(x), rank, DEFAULT_TOL_DET / 100 <= height <= 100 * DEFAULT_TOL_DET, (rank - 1, rank, rank + 1)


def is_metric(d: np.ndarray) -> bool:
    """Whether every d[i, j] <= d[i, k] + d[k, j]."""
    return bool(np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :]))


def near_euclidean(r: int, lam: float, seed: int) -> tuple | None:
    """The infeasible case of r + 3 points whose tau about point 0 is
    2 X X^T - 4 lambda max|x_i|^2 u u^T: X is a Gaussian cloud of rank r
    shifted to put point 0 at the origin, and u a unit vector orthogonal to
    X's columns with u_0 = 0, so tau has one negative eigenvalue, of that
    size. The squared distances are tau_ii / 2 + tau_jj / 2 - tau_ij; a
    draw that is not a metric gives None."""
    x = np.random.default_rng(seed).normal(size=(r + 3, r))
    x -= x[0]
    # the last right singular vector is orthogonal to every column of X and to e_0
    u = np.linalg.svd(np.vstack([x.T, np.eye(r + 3)[:1]]))[2][-1]
    u[0] = 0.0
    u /= np.linalg.norm(u)
    gram = x @ x.T
    tau = (gram + gram.T) - lam * 4 * np.max(np.sum(x * x, axis=1)) * np.outer(u, u)
    half = np.diag(tau) / 2
    sq = half[:, None] + half[None, :] - tau  # its diagonal is exactly 0
    if not np.all(sq[~np.eye(r + 3, dtype=bool)] > 0):
        return None
    d = np.sqrt(sq)
    return (d, None, False, (r - 1, r, r + 1)) if is_metric(d) else None


def snowflake(n: int, dim: int, alpha: float) -> tuple:
    """The case of d^alpha on a Gaussian cloud of n points in R^dim,
    labelled n - 1, the same cloud for every alpha."""
    d = distances(np.random.default_rng(dim).normal(size=(n, dim))) ** alpha
    sq = d * d
    tau = sq[0, 1:, None] + sq[0, None, 1:] - sq[1:, 1:]
    height = np.linalg.eigvalsh(tau)[0] / np.max(sq)
    return d, n - 1, DEFAULT_TOL_DET / 100 <= height <= 100 * DEFAULT_TOL_DET, (n - 2, n - 1, n)


def families() -> dict[str, list]:
    """Every family's cases as (distances, label or None, either, the
    dimensions check-embed runs at)."""
    gaussian = [cloud(np.random.default_rng(seed).normal(size=(n, d)), d)
                for d in GAUSSIAN_DIMS for n in (d + 1, 2 * d) for seed in SEEDS]
    anisotropic = []
    for h in ANISOTROPY:
        for seed in SEEDS:
            x = np.random.default_rng(seed).normal(size=(12, 8))
            x[:, 3:] *= h
            anisotropic.append(cloud(x, 8))
    near = [near_euclidean(r, lam, seed) for r in NEAR_RANKS for lam in NEAR_LAMBDAS for seed in SEEDS]
    star = np.array([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float)
    four_cycle = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float)
    snow = [snowflake(n, dim, alpha) for n in SNOW_SIZES for dim in SNOW_DIMS for alpha in SNOW_ALPHAS]
    snow += [snowflake(200, dim, alpha) for alpha, dim in SNOW_LARGE]
    return {"gaussian": gaussian, "anisotropic": anisotropic,
            "star": [(star, None, False, (1, 2, 3))], "four-cycle": [(four_cycle, None, False, (1, 2, 3))],
            "near-euclidean": [case for case in near if case is not None], "snowflake": snow}


def cli_result(argv: list[str]) -> dict:
    """The ``result`` of one CLI command's JSON."""
    _, out = run(argv)
    return json.loads(out)["result"]


def count(cases: list, tmp: Path) -> dict:
    """One family's counts over every scale and both orders of its cases."""
    tally = dict.fromkeys(("cases", "either", "wrong_m", "wrong_yes", "wrong_no", "undetermined"), 0)
    worst = None
    for d, label, either, dims in cases:
        n_points = len(d)
        # one fixed permutation per size, so a relabelled run sees another base and pivot order
        order = np.random.default_rng(0).permutation(n_points)
        for scale in SCALES:
            for perm in (np.arange(n_points), order):
                tally["cases"] += 1
                if either:
                    tally["either"] += 1
                    continue
                space = scale * d[np.ix_(perm, perm)]
                path = tmp / "space.json"
                path.write_text(json.dumps({"distances": space.tolist()}))
                result = cli_result(["min-dim", str(path), "--realize"])
                tally["wrong_m"] += (result["m"] if result["feasible"] else None) != label
                if result["feasible"]:
                    residual = result["residual"] / float(np.max(space))
                    worst = residual if worst is None else max(worst, residual)
                for n in dims:
                    verdict = cli_result(["check-embed", str(path), "--dim", str(n)])["verdict"]
                    if verdict == "undetermined":
                        tally["undetermined"] += 1
                    elif (verdict == "yes") != (label is not None and n >= label):
                        tally["wrong_yes" if verdict == "yes" else "wrong_no"] += 1
    tally["max_residual"] = None if worst is None else float(f"{worst:.3g}")
    return tally


def exceeded(counts: dict, committed: dict) -> list[str]:
    """Each gated count above the committed file's, as "family.count a > b"."""
    over = []
    for family, before in committed.items():
        now = counts.get(family)
        for key in GATED:
            if now is None or now[key] > before[key]:
                over.append(f"{family}.{key} {None if now is None else now[key]} > {before[key]}")
    return over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", type=Path, help="a committed output; exit 1 when a gated count exceeds it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        counts = {name: count(cases, Path(tmp)) for name, cases in families().items()}
    print(json.dumps(counts, indent=1, sort_keys=True))
    if args.gate is not None:
        over = exceeded(counts, json.loads(args.gate.read_text()))
        for line in over:
            print(f"accuracy: {line}", file=sys.stderr)
        return int(bool(over))
    return 0


if __name__ == "__main__":
    sys.exit(main())
