"""Finite metric spaces: validation, submatrices, rescaling, file formats.

A :class:`FiniteMetricSpace` is a labelled point set with a validated
distance matrix. Tuples of point indices (repeats allowed) select the
distance submatrices that the determinant machinery consumes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AsymmetricError,
    CoincidentPointsError,
    IndexOutOfRangeError,
    NegativeDistanceError,
    NonpositiveScaleError,
    NonzeroDiagonalError,
    TriangleViolationError,
)

#: Relative tolerance (w.r.t. the largest entry) used when none is given.
DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space: labels plus a validated distance matrix.

    Construct through :func:`validate_metric`; the constructor itself does
    not re-check the axioms. ``tol`` is the absolute tolerance that the
    matrix was validated against. Spaces compare and hash by identity.
    """

    labels: tuple[str, ...]
    dist: np.ndarray = field(repr=False)
    tol: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_points(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def to_json(self) -> str:
        payload = {"labels": list(self.labels), "distances": self.dist.tolist()}
        return json.dumps(payload, sort_keys=True)


def _check_tuple(space: FiniteMetricSpace, t: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(int(i) for i in t)
    n = space.n_points
    for i in idx:
        if not 0 <= i < n:
            raise IndexOutOfRangeError(f"index {i} outside space of {n} points")
    return idx


def validate_metric(raw, tol: float | None = None, certificate=None) -> FiniteMetricSpace:
    """Validate a square matrix as a metric and wrap it in a space.

    Axioms are checked in order (diagonal, nonnegativity, symmetry,
    distinctness, triangle inequality); the first violated axiom is
    reported with the indices of its *worst* offender. Every O(N^2) check,
    the label count included, comes before the O(N^3) triangle check.
    ``tol`` is an absolute slack; when omitted it defaults to 1e-9
    relative to the largest entry. Labels default to ``x0..x{n-1}``; pass
    a dict ``{"labels": ..., "distances": ...}`` to keep labels.

    ``certificate``, when given, is called with a space of three points or
    more once every O(N^2) check has passed. The triangle check is skipped
    when the input is exactly symmetric (so the space holds it bit for
    bit) and the call returns True, which it may only do on a proof that
    no triangle is violated by more than ``tol``; it runs as without a
    certificate otherwise.
    """
    labels = None
    if isinstance(raw, dict):
        labels = raw.get("labels")
        raw = raw["distances"]
    d = np.asarray(raw, dtype=float)
    del raw  # frees the caller's nested lists when this held the last reference
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        bad = np.argwhere(~np.isfinite(d))[0]
        raise ValueError(f"non-finite distance at ({bad[0]},{bad[1]})")
    n = d.shape[0]
    if tol is None:
        tol = DEFAULT_REL_TOL * float(np.max(d)) if d.size and np.max(d) > 0 else DEFAULT_REL_TOL
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")

    diag = np.abs(np.diag(d))
    if diag.size and np.max(diag) > 0:
        i = int(np.argmax(diag))
        raise NonzeroDiagonalError(f"diagonal entry d[{i}][{i}] = {d[i, i]!r} must be exactly 0", (i,))

    if d.size and np.min(d) < 0:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        raise NegativeDistanceError(f"negative distance d[{i}][{j}] = {d[i, j]!r}", (int(i), int(j)))

    asym = np.abs(d - d.T)
    if asym.size and np.max(asym) > tol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise AsymmetricError(
            f"asymmetry |d[{i}][{j}] - d[{j}][{i}]| = {asym[i, j]!r} exceeds tol {tol!r}",
            (int(i), int(j)),
        )
    del asym  # no N x N temporary outlives its check

    off = d + np.diag(np.full(n, np.inf))
    if n > 1 and np.min(off) <= 0:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise CoincidentPointsError(f"d[{i}][{j}] = 0 for distinct points", (int(i), int(j)))
    del off

    if labels is None:
        labels = [f"x{i}" for i in range(n)]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")
    sym = (d + d.T) / 2.0
    space = FiniteMetricSpace(labels=tuple(str(x) for x in labels), dist=sym, tol=float(tol))
    if n > 2 and (certificate is None or not np.array_equal(sym, d) or not certificate(space)):
        _check_triangles(d, tol)
    return space


def _check_triangles(d: np.ndarray, tol: float) -> None:
    """Raise on the worst triangle violation beyond ``tol``, if any.

    The worst is the max over k of d[i,j] - (d[i,k] + d[k,j]), taken one
    row i at a time so that memory stays O(n^2); a later row replaces the
    offender only when strictly worse, which keeps the first maximum in
    (i, k, j) order.
    """
    n = d.shape[0]
    dt = np.ascontiguousarray(d.T)
    slack = np.empty((n, n))  # slack[k,j] > 0 means violation via k
    worst, offender = -np.inf, None
    for i in range(n):
        np.add(d[i][:, None], dt, out=slack)
        np.subtract(d[i][None, :], slack, out=slack)
        flat = int(np.argmax(slack))
        if slack.flat[flat] > worst:
            worst, offender = float(slack.flat[flat]), (i, *divmod(flat, n))
    if worst > tol:
        i, k, j = offender
        raise TriangleViolationError(
            f"triangle violation d[{i}][{j}] > d[{i}][{k}] + d[{k}][{j}] by {worst!r}",
            (int(i), int(j), int(k)),
        )


def euclidean_matrix(points) -> np.ndarray:
    """Euclidean distance matrix of N points given as coordinate rows.

    Squared differences are summed one coordinate at a time into one N x N
    buffer, so at most two N x N arrays are live. Below 8 coordinates this
    adds in the order ``np.sum`` over the last axis does, so it equals the
    (N, N, d) broadcast formula bit for bit; from 8 up they differ by at
    most one ulp per sum.
    """
    x = np.asarray(points, dtype=float)
    n = x.shape[0]
    out = np.zeros((n, n))
    diff = np.empty((n, n))
    for col in x.T:
        np.subtract(col[:, None], col[None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return np.sqrt(out, out=out)


def submatrix(space: FiniteMetricSpace, t: Sequence[int]) -> np.ndarray:
    """Distance submatrix for a tuple of point indices (repeats allowed)."""
    idx = _check_tuple(space, t)
    ix = np.asarray(idx, dtype=int)
    return space.dist[np.ix_(ix, ix)]


def scale_metric(space: FiniteMetricSpace, lam: float) -> FiniteMetricSpace:
    """Multiply every distance by ``lam`` > 0."""
    if not lam > 0:
        raise NonpositiveScaleError(f"scale factor must be > 0, got {lam!r}")
    return FiniteMetricSpace(labels=space.labels, dist=space.dist * float(lam), tol=space.tol * float(lam))


def load_space(path: str, tol: float | None = None, certificate=None) -> FiniteMetricSpace:
    """Load a space from a ``.json`` or ``.csv`` file and validate it
    (``tol`` and ``certificate`` as in :func:`validate_metric`).

    JSON: ``{"labels": [...], "distances": [[...]]}``. CSV: a square
    numeric matrix with an optional leading header row of labels.
    """
    # validate_metric holds the only reference to the parsed lists, and the
    # text is gone, so neither outlives the conversion to an array
    return validate_metric(_read_payload(path), tol=tol, certificate=certificate)


def _read_payload(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        text = fh.read()
    return _csv_payload(text)


def parse_csv_space(text: str, tol: float | None = None) -> FiniteMetricSpace:
    return validate_metric(_csv_payload(text), tol=tol)


def _csv_payload(text: str) -> dict:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError("empty CSV input")
    labels = None
    first = rows[0]
    try:
        [float(c) for c in first]
    except ValueError:
        labels = [c.strip() for c in first]
        rows = rows[1:]
    matrix = [[float(c) for c in row] for row in rows]
    payload = {"distances": matrix}
    if labels is not None:
        payload["labels"] = labels
    return payload
