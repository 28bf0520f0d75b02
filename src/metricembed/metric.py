"""Finite metric spaces: validation, submatrices, rescaling, file formats.

A :class:`FiniteMetricSpace` is a labelled point set with a validated
distance matrix. Tuples of point indices (repeats allowed) select the
distance submatrices that the determinant machinery consumes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    AsymmetricError,
    CoincidentPointsError,
    DistanceOutOfRangeError,
    IndexOutOfRangeError,
    NegativeDistanceError,
    NonpositiveScaleError,
    NonzeroDiagonalError,
    NotSymmetricError,
    TriangleViolationError,
    _checked_positive,
    _checked_tol,
    is_integer,
    is_number,
)

#: Relative tolerance (w.r.t. the largest entry) used when none is given.
DEFAULT_REL_TOL = 1e-9

#: Rows per block of every O(N^2) scan and update of an N x N matrix on the
#: finite path (validation, factorization, neighbourhoods, residual), so
#: that their scratch is O(ROW_BLOCK * N) rather than N x N.
ROW_BLOCK = 32


def row_blocks(n: int):
    """Slices of at most :data:`ROW_BLOCK` consecutive indices covering range(n)."""
    for lo in range(0, n, ROW_BLOCK):
        yield slice(lo, min(lo + ROW_BLOCK, n))


def first_worst(blocks, least: bool = False) -> tuple[float, int]:
    """The largest entry (the least with ``least``) of ``blocks`` and its
    flat index; each block is an (offset, array) pair whose entries are
    numbered from offset on in row-major order. A later block replaces the
    worst only when strictly worse, so the first offender is named. No
    blocks give (-inf, -1), or (inf, -1) with ``least``."""
    worst, at = (np.inf if least else -np.inf), -1
    for offset, block in blocks:
        k = int(np.argmin(block) if least else np.argmax(block))
        if (block.flat[k] < worst) if least else (block.flat[k] > worst):
            worst, at = float(block.flat[k]), offset + k
    return worst, at


def readonly(a) -> np.ndarray:
    """``a`` as a float array that refuses writes (``a`` itself when it is one)."""
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def check_finite(d: np.ndarray, what: str) -> None:
    """Refuse a nonempty square ``d`` with a NaN or infinite entry, naming the first
    as ``non-finite {what} at (i,j)``; reduces first and scans blocks of
    rows only then, so it makes no N x N temporary."""
    n = d.shape[0]
    if not (np.isfinite(np.max(d)) and np.isfinite(np.min(d))):
        _, at = first_worst((rows.start * n, ~np.isfinite(d[rows])) for rows in row_blocks(n))
        raise ValueError(f"non-finite {what} at ({at // n},{at % n})")


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
        object.__setattr__(self, "dist", readonly(self.dist))

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


def validate_metric(raw, tol: float | None = None, certificate=None) -> FiniteMetricSpace:
    """Validate a square matrix as a metric and wrap it in a space.

    An empty matrix is refused. Axioms are checked in order (diagonal,
    nonnegativity, symmetry, distinctness, triangle inequality); the first
    violated axiom is reported with the indices of its *worst* offender,
    the first in row-major order (:func:`first_worst`). Every O(N^2) check,
    the label count included, comes before the O(N^3) triangle check.
    ``tol`` is an absolute slack, refused when negative or NaN; when omitted
    it defaults to 1e-9 relative to the largest entry. Labels default to
    ``x0..x{n-1}``; pass a dict ``{"labels": ..., "distances": ...}`` to
    keep labels. The matrix is read by :func:`as_matrix`; a caller's array is copied.

    An input asymmetric within ``tol`` is replaced by its mean with its
    transpose, and the triangle check reads the space's matrix.
    ``certificate``, when given, is called with a space of three points or
    more once every O(N^2) check has passed. The triangle check is skipped
    when the call returns True, which it may only do on a proof that no
    triangle of the space is violated by more than ``tol``; it runs as
    without a certificate otherwise.
    """
    labels = None
    if isinstance(raw, dict):
        raw, labels = _document(raw)
    if isinstance(raw, np.ndarray):
        # a base-class copy: the space freezes its matrix and must not freeze or share the caller's
        raw = np.array(raw)
    return _validated(raw, labels, tol, certificate)


def _validated(d, labels, tol: float | None, certificate) -> FiniteMetricSpace:
    """:func:`validate_metric` of a matrix the caller hands over: ``d``, read by
    :func:`as_matrix` and symmetrized in place, becomes the space's own (read-only) matrix."""
    d = as_matrix(d)
    n = d.shape[0]
    check_finite(d, "distance")
    if tol is None:
        tol = DEFAULT_REL_TOL * float(np.max(d)) if np.max(d) > 0 else DEFAULT_REL_TOL
    _checked_tol(tol, "tol")

    diag = np.abs(np.diag(d))
    if np.max(diag) > 0:
        i = int(np.argmax(diag))
        raise NonzeroDiagonalError(f"diagonal entry d[{i}][{i}] = {float(d[i, i])!r} must be exactly 0", (i,))

    if np.min(d) < 0:
        i, j = divmod(int(np.argmin(d)), n)
        raise NegativeDistanceError(f"negative distance d[{i}][{j}] = {float(d[i, j])!r}", (i, j))

    # the worst asymmetry, then the least off-diagonal entry, one block of rows at a time
    def off_diagonal(rows):
        block = d[rows].copy()
        block.flat[rows.start::n + 1] = np.inf
        return block

    asym, at = first_worst((rows.start * n, np.abs(d[rows] - d[:, rows].T)) for rows in row_blocks(n))
    if asym > tol:
        i, j = divmod(at, n)
        raise AsymmetricError(f"asymmetry |d[{i}][{j}] - d[{j}][{i}]| = {asym!r} exceeds tol {float(tol)!r}", (i, j))
    least, at = first_worst(((rows.start * n, off_diagonal(rows)) for rows in row_blocks(n)), least=True)
    if least <= 0:
        i, j = divmod(at, n)
        raise CoincidentPointsError(f"d[{i}][{j}] = 0 for distinct points", (i, j))

    if labels is None:
        labels = [f"x{i}" for i in range(n)]
    if not isinstance(labels, (list, tuple)):
        raise ValueError(f"labels must be a list, got {type(labels).__name__}")
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")
    if asym > 0:
        # (d + d.T) / 2 in place, the rows of a block against the columns
        # from the block on; a sum past the largest float is halved before
        # adding. An exactly symmetric d is that mean already, bit for bit
        for rows in row_blocks(n):
            upper, lower = d[rows, rows.start:], d[rows.start:, rows].T
            with np.errstate(over="ignore"):
                mean = np.add(upper, lower)
            mean /= 2.0
            over = np.isinf(mean)
            mean[over] = upper[over] / 2.0 + lower[over] / 2.0
            upper[...] = lower[...] = mean
    space = FiniteMetricSpace(labels=tuple(str(x) for x in labels), dist=d, tol=float(tol))
    if n > 2 and (certificate is None or not certificate(space)):
        _check_triangles(space.dist, tol)
    return space


def _check_triangles(d: np.ndarray, tol: float) -> None:
    """Raise on the worst triangle violation beyond ``tol``, if any.

    The worst is the max over (i, k, j) of d[i,j] - (d[i,k] + d[k,j]),
    taken one row i at a time so that memory stays O(n^2); the first
    maximum in (i, k, j) order is named.
    """
    n = d.shape[0]
    slack = np.empty((n, n))  # slack[k,j] > 0 means violation via k

    def rows():
        for i in range(n):
            # a sum past the largest float is inf: no violation via that k
            with np.errstate(over="ignore"):
                np.add(d[i][:, None], d, out=slack)
            np.subtract(d[i][None, :], slack, out=slack)
            yield i * n * n, slack

    worst, at = first_worst(rows())
    if worst > tol:
        i, k, j = (int(x) for x in np.unravel_index(at, (n, n, n)))
        raise TriangleViolationError(
            f"triangle violation d[{i}][{j}] > d[{i}][{k}] + d[{k}][{j}] by {worst!r}", (i, j, k)
        )


def euclidean_matrix(points, others=None) -> np.ndarray:
    """Euclidean distance matrix of N points given as coordinate rows, or
    from each of them to each of ``others`` (N x M).

    Squared differences are summed one coordinate at a time into one
    preallocated buffer, so at most two N x M arrays are live. Below 8
    coordinates this adds in the order ``np.sum`` over the last axis does,
    so it equals the (N, M, d) broadcast formula bit for bit; from 8 up
    they differ by at most one ulp per sum.
    """
    x = np.asarray(points, dtype=float)
    y = x if others is None else np.asarray(others, dtype=float)
    out = np.zeros((x.shape[0], y.shape[0]))
    diff = np.empty_like(out)
    for a, b in zip(x.T, y.T):
        np.subtract(a[:, None], b[None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return np.sqrt(out, out=out)


def point_index(i, n: int) -> int:
    """``i`` as an index of one of ``n`` points, refused with
    IndexOutOfRangeError unless it is an integer (:func:`is_integer`) in 0..n-1."""
    if not is_integer(i) or not 0 <= i < n:
        raise IndexOutOfRangeError(f"{i!r} is not an index of the {n} points")
    return int(i)


def submatrix(space: FiniteMetricSpace, t: Sequence[int]) -> np.ndarray:
    """Distance submatrix for a tuple of point indices (:func:`point_index`; repeats allowed)."""
    ix = np.array([point_index(i, space.n_points) for i in t], dtype=int)
    return space.dist[np.ix_(ix, ix)]


def scale_metric(space: FiniteMetricSpace, lam: float) -> FiniteMetricSpace:
    """Multiply every distance by a finite number ``lam`` > 0 (:func:`is_number`); a factor
    that takes a distance past the largest float or a positive one to 0 is refused."""
    factor = _checked_positive(lam, "scale factor", NonpositiveScaleError)
    with np.errstate(over="ignore"):
        dist = space.dist * factor
    if not np.isfinite(np.max(dist)):
        raise DistanceOutOfRangeError(f"scaling by {lam!r} takes the largest distance past the largest float")
    if np.count_nonzero(dist) < np.count_nonzero(space.dist):
        raise DistanceOutOfRangeError(f"scaling by {lam!r} takes a positive distance to 0")
    return FiniteMetricSpace(labels=space.labels, dist=dist, tol=space.tol * factor)


def load_space(path: str, tol: float | None = None, certificate=None) -> FiniteMetricSpace:
    """Load a space from a ``.json`` or ``.csv`` file and validate it
    (``tol`` and ``certificate`` as in :func:`validate_metric`).

    JSON: ``{"labels": [...], "distances": [[...]]}``, or the bare matrix.
    CSV: a square numeric matrix with an optional leading header row of
    labels. The rows are read straight into one float array, which the
    space keeps. The suffix is matched in any case. A CSV file may start
    with a UTF-8 byte-order mark; a JSON file may not, as ``json.load``
    refuses one.
    """
    is_json = path.lower().endswith(".json")
    with open(path, "r", encoding="utf-8" if is_json else "utf-8-sig") as fh:
        payload = (_json_payload if is_json else _csv_payload)(fh)
    return _validated(*payload, tol, certificate)


def _document(fields: dict) -> tuple:
    """(distances, labels or None) of a distance document, a dict
    ``{"distances": ..., "labels": ...}`` whose labels may be left out."""
    if "distances" not in fields:
        raise ValueError('the JSON object has no "distances" key')
    return fields["distances"], fields.get("labels")


def parse_csv_space(text: str, tol: float | None = None) -> FiniteMetricSpace:
    return _validated(*_csv_payload(io.StringIO(text)), tol, None)


def _csv_payload(lines) -> tuple:
    """(matrix, labels or None) of CSV lines; blank lines are skipped, a row ``float()`` cannot read stays text."""
    import csv  # only the CSV reader needs it

    def floats(cells: list) -> list:
        try:
            return [float(c) for c in cells]
        except ValueError:
            return cells

    rows = (r for r in csv.reader(lines) if r and any(c.strip() for c in r))
    first = next(rows, None)
    if first is None:
        raise ValueError("empty CSV input")
    values, rows = floats(first), map(floats, rows)
    if values is first:  # still text: the header
        return _matrix(rows), [c.strip() for c in first]
    return _matrix(chain([values], rows)), None


def as_matrix(raw) -> np.ndarray:
    """``raw`` as a square float matrix: an array of integers or reals as it is (a float one is
    not copied), a list, a tuple or any other array by :func:`_matrix`'s row rule; else refused,
    any shape but (N, N) with NotSymmetricError, a ValueError, and (0, 0) as empty."""
    if isinstance(raw, np.ndarray) and raw.dtype.kind in "iuf":
        d = np.asarray(raw, dtype=float)
    elif isinstance(raw, (list, tuple)) or isinstance(raw, np.ndarray) and raw.ndim:
        d = _matrix(raw)
    else:
        raise ValueError(f"distances must be a list, got {type(raw).__name__}")
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotSymmetricError(f"distance matrix must be square, got shape {d.shape}")
    if not len(d):
        raise ValueError("the distance matrix is empty: a space needs a point")
    return d


def _matrix(rows) -> np.ndarray:
    """The float matrix of ``rows``, filled one row at a time. The first
    row fixes the size N, unless it is no list, tuple or array. A row that
    is not a list of N numbers (:func:`_row`) is refused when it is
    reached. A row count other than N leaves only its shape, (count, N),
    and no rows give shape (0,), for :func:`as_matrix` to refuse."""
    d, count = np.zeros(0), 0
    for count, row in enumerate(rows, 1):
        values = _row(row)
        if count == 1:
            if values is None and not isinstance(row, (list, tuple, np.ndarray)):
                raise ValueError("row 0 of the distance matrix is not a list of numbers")
            d = np.empty((len(row), len(row)))
        if values is None or values.shape != d.shape[1:]:
            raise ValueError(f"row {count - 1} of the distance matrix is not a list of {len(d)} numbers")
        if count <= len(d):
            d[count - 1] = values
    return d if count == len(d) else np.broadcast_to(np.nan, (count, len(d)))


def _row(row) -> np.ndarray | None:
    """``row`` as a float array if every entry is a number (:func:`is_number`, asked
    of one entry of each type before numpy reads any) a float can hold, else None."""
    try:
        numbers = all(map(is_number, dict(zip(map(type, row), row)).values()))
        return np.asarray(row, dtype=float) if numbers else None
    except (TypeError, ValueError, OverflowError):  # a scalar, a dict or set of numbers, bytes, a huge int
        return None


_WHITESPACE = json.decoder.WHITESPACE.match

#: Characters of a JSON file read at a time.
JSON_CHUNK = 1 << 16


def _json_payload(fh) -> tuple:
    """(matrix, labels or None) of a JSON document, its text read a chunk
    at a time and its matrix, the value of ``distances`` or the whole
    document, decoded one row at a time into one float array. A document
    that this refuses for any reason is read again, whole, by
    ``json.load``, whose document (duplicate keys: the last one wins) or
    error stands. Any value but a matrix is returned as decoded, for
    :func:`_validated` to refuse."""
    try:
        fields = _json_object(_JsonText(fh))
    except (ValueError, TypeError, OverflowError, RecursionError):
        fields = None
    if fields is None:
        # outside the handler, whose traceback holds the chunked matrix
        fh.seek(0)
        fields = json.load(fh)
        if not isinstance(fields, dict):
            fields = {"distances": fields}
    return _document(fields)


def _json_object(doc: "_JsonText") -> dict:
    """The document's object, or ``{"distances": document}``, with
    ``distances`` read by :func:`_json_matrix`."""
    if doc.peek() != "{":
        fields = {"distances": _json_matrix(doc)}
    else:
        fields = {}
        for _ in doc.items("}"):
            if doc.peek() != '"':
                raise ValueError("a key is not a string")
            key = doc.value()
            doc.expect(":")
            fields[key] = _json_matrix(doc) if key == "distances" else doc.value()
    if doc.peek():
        raise ValueError("extra data")
    return fields


def _json_matrix(doc: "_JsonText"):
    """The next value: a list is decoded row by row by :func:`_matrix`,
    anything else as it is."""
    if doc.peek() != "[":
        return doc.value()
    return _matrix(doc.value() for _ in doc.items("]"))


class _JsonText:
    """A JSON document read from a text file :data:`JSON_CHUNK` characters
    at a time. ``buf[pos:]`` is what is left to read of what has been read;
    the rest of ``buf`` is dropped as the next chunk comes in."""

    def __init__(self, fh):
        self.fh = fh
        self.decoder = json.JSONDecoder()
        self.buf, self.pos = "", 0
        self.longest = 0  # characters of the longest value decoded
        self.more()

    def more(self) -> bool:
        """Read the next chunk (longer, if what is left is longer); False
        at the end of the file."""
        chunk = self.fh.read(max(JSON_CHUNK, len(self.buf) - self.pos))
        if not chunk:
            return False
        self.buf, self.pos = self.buf[self.pos:] + chunk, 0
        return True

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end."""
        while True:
            self.pos = _WHITESPACE(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.buf[self.pos:self.pos + 1]

    def expect(self, chars: str) -> str:
        """The next character after whitespace, read past; refused unless in ``chars``."""
        c = self.peek()
        if not c or c not in chars:
            raise ValueError(f"expecting one of {chars!r}")
        self.pos += 1
        return c

    def items(self, close: str):
        """Read past the bracket at ``pos``, then yield once before each item,
        which the caller reads, and read past the "," after it or ``close``."""
        self.pos += 1
        if self.peek() == close:
            self.pos += 1
            return
        while True:
            yield
            if self.expect("," + close) == close:
                return

    def value(self):
        """The next value. The buffer is first filled to twice the longest
        value so far; a value that still fails or ends with the buffer is
        decoded again once the next chunk is in, so none ends at a chunk's
        edge."""
        self.peek()
        while len(self.buf) - self.pos < 2 * self.longest and self.more():
            pass
        while True:
            try:
                value, end = self.decoder.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError:
                if self.more():
                    continue
                raise
            if end < len(self.buf) or not self.more():
                self.longest = max(self.longest, end - self.pos)
                self.pos = end
                return value
