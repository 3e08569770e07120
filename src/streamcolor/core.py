"""Graph and stream primitives.

An EdgeStream is a fixed, re-traversable edge sequence with pass accounting:
the order is committed before any algorithm randomness is drawn, and every
traversal replays exactly the same sequence. It is the one graph type:
every algorithm, oracle and check reads its graph from a stream, and what an
algorithm keeps of it (the one-pass coloring's same-class edges, the
arboricity run's same-class codes) lives inside that algorithm, where its
space is counted.

A stream is a multigraph: the same edge may arrive more than once, in
either endpoint order. Counters (max degree, peel degrees, forward and
out-degrees) count every occurrence, since O(n) counters cannot
deduplicate, so the ``delta`` and ``alpha`` bounds a run is given must bound
the multigraph. Stored edges are deduplicated by their ``pair_codes``, and
the oracles' adjacency keeps each neighbor once; that only saves space and
leaves every guarantee intact. ``first_occurrences`` and ``distinct_sorted``
are the one dedup idiom: a sort and a neighbour compare.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1: no accepted number overflows int64
_INT64_MAX = 2**63 - 1
MAX_PAIR_N = 3_037_000_499  # largest n with n*n <= 2**63 - 1: every min*n+max fits


class StreamFormatError(ValueError):
    """Bad edge-list or coloring input. Cites the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


@dataclass
class StreamMeta:
    """Facts about a stream: vertex count, edge count, optional max degree."""

    n: int
    m: int | None = None
    max_degree: int | None = None


class EdgeStream:
    """Ordered edge source that can be traversed any number of times.

    ``pass_count`` goes up by one per traversal, whether or not the consumer
    finishes it (a started pass is a spent pass). Endpoint order within each
    edge is preserved as written, since the algorithms treat the first-listed
    endpoint specially.
    """

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray):
        self.n = int(n)
        self._u = u
        self._v = v
        self.pass_count = 0

    @classmethod
    def from_edges(cls, n: int, edges) -> "EdgeStream":
        """Wrap an in-memory edge sequence ((m, 2) array or iterable of pairs)."""
        try:
            arr = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            raise StreamFormatError("endpoint does not fit in a signed 64-bit integer") from None
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise StreamFormatError("edges must be pairs of endpoints")
        u, v = arr[:, 0].copy(), arr[:, 1].copy()
        check_edges(n, u, v)
        return cls(n, u, v)

    @property
    def m(self) -> int:
        return len(self._u)

    def pass_chunks(self, chunk_size: int = 1 << 16) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One full traversal, as consecutive (u, v) int64 array chunks in
        stream order. This is the only way to read the stream."""
        self.pass_count += 1
        u, v = self._u, self._v
        for lo in range(0, len(u), chunk_size):
            yield u[lo : lo + chunk_size], v[lo : lo + chunk_size]


def open_stream(source, n: int | None = None) -> EdgeStream:
    """Open an edge stream from a file path or an in-memory edge list.

    File format: first non-comment line is ``<n> <m>`` (m may be 0 when
    unknown), then one ``<u> <v>`` edge per line; ``#`` starts a comment.
    Parsing validates eagerly and reports the offending line; the validation
    read is part of opening and does not count as a pass.
    """
    if isinstance(source, (str, Path)):
        (n, declared_m), u, v = read_pairs(
            Path(source), True, lambda head, u, v, lines: check_edges(head[0], u, v, lines)
        )
        if declared_m and len(u) != declared_m:
            raise StreamFormatError(f"header declares m={declared_m} but file has {len(u)} edges")
        return EdgeStream(n, u, v)
    if n is None:
        raise ValueError("in-memory streams need an explicit vertex count n")
    return EdgeStream.from_edges(n, source)


def check_edges(n: int, u: np.ndarray, v: np.ndarray, lines: Sequence[int] | None = None) -> None:
    """Raise StreamFormatError for the first self-loop or endpoint outside
    [0, n), citing ``lines[i]`` as the line of pair i when lines are given."""
    bad = (u == v) | (u < 0) | (v < 0) | (u >= n) | (v >= n)
    if bad.any():
        i = int(bad.argmax())
        loop = u[i] == v[i]
        message = f"self-loop at vertex {u[i]}" if loop else f"endpoint out of range [0, {n})"
        raise StreamFormatError(message, None if lines is None else lines[i])


def read_pairs(path: Path, header: bool, check: Callable[..., None]):
    """Read a file of ``<a> <b>`` int64 pairs, after an ``<n> <m>`` line when
    ``header``, as (header or None, a, b): by numpy when the file is plain, else
    by a line scan that stops at the first format error. ``check(head, a, b,
    lines)``, with ``lines[i]`` the line of pair i, raises the other errors
    before that one, so either route reports the first error in the file.
    """
    head, a, b, lines, error = _parse_plain(path.read_bytes(), header) or _scan_pairs(path, header)
    if header and head is None:
        raise error or StreamFormatError("missing header line '<n> <m>'")
    check(head, a, b, lines)
    if error is not None:
        raise error
    return head, a, b


def _parse_plain(data: bytes, header: bool):
    """``_scan_pairs`` of a plain file, vectorized, else None.

    Accepts only digits, spaces and newlines laid out as ``<digits> <digits>``
    lines, each ending in a newline, with at most ``_MAX_DIGITS`` digits per
    number, so that every value fits in int64. Everything else (comments, blank
    lines, signs, tabs, CRLF) returns None and is left to ``_scan_pairs``.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if len(buf) == 0 or buf[-1] != ord("\n"):
        return None
    seps = np.flatnonzero((buf - ord("0")) > 9)  # uint8 wraps below '0'
    kinds = buf[seps]
    if len(seps) % 2 or (kinds[0::2] != ord(" ")).any() or (kinds[1::2] != ord("\n")).any():
        return None
    lengths = np.diff(seps, prepend=-1) - 1
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    count = len(seps)
    del buf, seps, kinds, lengths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            vals = np.fromstring(data, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):  # an unparsed tail; older numpy only warns
            return None
    if len(vals) != count:
        return None
    head = (int(vals[0]), int(vals[1])) if header else None
    vals = vals[2 * header :]
    lines = range(1 + header, 1 + header + len(vals) // 2)
    return head, vals[0::2].copy(), vals[1::2].copy(), lines, None


def _scan_pairs(path: Path, header: bool):
    """The line scan: skips blank and ``#`` lines and only tokenizes, stopping
    at the first line without two integers, with a negative header value or
    with a pair value beyond int64. Returns (head, a, b, line of each pair,
    that format error or None)."""
    head, vals, lines, error = None, [], [], None
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                text = raw.strip()
                if not text or text.startswith("#"):
                    continue
                parts = text.split()
                if len(parts) != 2:
                    raise StreamFormatError("expected two whitespace-separated fields", line_no)
                try:
                    a, b = int(parts[0]), int(parts[1])
                except ValueError:
                    raise StreamFormatError("non-integer field", line_no) from None
                if header and head is None:
                    if a < 0 or b < 0:
                        raise StreamFormatError("header '<n> <m>' must be non-negative", line_no)
                    head = a, b
                    continue
                if not -_INT64_MAX - 1 <= min(a, b) <= max(a, b) <= _INT64_MAX:
                    raise StreamFormatError("value outside the signed 64-bit range", line_no)
                vals += a, b
                lines.append(line_no)
    except StreamFormatError as exc:
        error = exc
    arr = np.array(vals, dtype=np.int64)
    return head, arr[0::2].copy(), arr[1::2].copy(), lines, error


def measure_max_degree(stream: EdgeStream) -> int:
    """Max degree in one pass with O(n) counters.

    Duplicate stream edges are counted again (counters cannot dedup), so on
    noisy input this is an upper bound on the simple-graph max degree, which
    is the safe direction for callers that use it as a palette bound.
    """
    counts = np.zeros(stream.n, dtype=np.int64)
    for u, v in stream.pass_chunks():
        counts += np.bincount(u, minlength=stream.n)
        counts += np.bincount(v, minlength=stream.n)
    return int(counts.max()) if stream.n else 0


def pair_codes(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """One int64 code ``min*n+max`` per edge, equal for either endpoint order."""
    if n > MAX_PAIR_N:
        raise ValueError(f"pair codes need n <= {MAX_PAIR_N}, so that they fit in int64")
    return np.minimum(u, v) * n + np.maximum(u, v)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    if len(ordered) == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


def first_occurrences(codes: np.ndarray) -> np.ndarray:
    """Ascending indices of each value's first occurrence in codes.

    Equals numpy's ``unique(codes, return_index=True)`` indices, sorted: an
    unstable argsort groups equal values, and the smallest index of each
    group is its first occurrence.
    """
    order = np.argsort(codes)
    first = np.minimum.reduceat(order, _run_starts(codes[order]))
    first.sort()
    return first


def distinct_sorted(codes: np.ndarray, return_counts: bool = False):
    """numpy's ``unique(codes)``, and its ``return_counts``, by a sort and a
    neighbour compare; numpy 2 may take a slower hash path for that call."""
    ordered = np.sort(codes)
    starts = _run_starts(ordered)
    if return_counts:
        return ordered[starts], np.diff(starts, append=len(ordered))
    return ordered[starts]
