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
from typing import Iterator

import numpy as np

_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1: no accepted number overflows int64
_INT64_MAX = 2**63 - 1
MAX_PAIR_N = 3_037_000_499  # largest n with n*n <= 2**63 - 1: every min*n+max fits


class StreamFormatError(ValueError):
    """Bad edge-list input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


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
        if len(u) and bool((u == v).any()):
            bad = int(u[np.argmax(u == v)])
            raise StreamFormatError(f"self-loop at vertex {bad}")
        if len(u) and (int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= n):
            raise StreamFormatError(f"endpoint out of range [0, {n})")
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
        return _parse_edge_file(Path(source))
    if n is None:
        raise ValueError("in-memory streams need an explicit vertex count n")
    return EdgeStream.from_edges(n, source)


def _parse_edge_file(path: Path) -> EdgeStream:
    parsed = _parse_plain(path.read_bytes())
    if parsed is None:
        return _scan_edge_file(path)
    return EdgeStream(*parsed)


def _parse_plain(data: bytes) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Vectorized parse of an obviously well-formed edge file, else None.

    Accepts only digits, spaces and newlines laid out as ``<digits> <digits>``
    lines, each ending in a newline, with at most ``_MAX_DIGITS`` digits per
    number, and edges that pass every check of the scan. Everything else
    (comments, blank lines, signs, tabs, CRLF, bad edges) returns None and is
    left to ``_scan_edge_file``, the only code that raises StreamFormatError,
    so errors and their line numbers do not depend on the route.
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
    n, declared_m = int(vals[0]), int(vals[1])
    u, v = vals[2::2].copy(), vals[3::2].copy()
    del vals
    if declared_m and len(u) != declared_m:
        return None
    if len(u) and (bool((u == v).any()) or int(max(u.max(), v.max())) >= n):
        return None
    return n, u, v


def _scan_edge_file(path: Path) -> EdgeStream:
    n: int | None = None
    declared_m = 0
    us: list[int] = []
    vs: list[int] = []
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
            if n is None:
                if a < 0 or b < 0:
                    raise StreamFormatError("header '<n> <m>' must be non-negative", line_no)
                n, declared_m = a, b
                continue
            if a == b:
                raise StreamFormatError(f"self-loop at vertex {a}", line_no)
            if not (0 <= a < n) or not (0 <= b < n):
                raise StreamFormatError(f"endpoint out of range [0, {n})", line_no)
            if a > _INT64_MAX or b > _INT64_MAX:  # only under a header n beyond int64
                raise StreamFormatError("endpoint does not fit in a signed 64-bit integer", line_no)
            us.append(a)
            vs.append(b)
    if n is None:
        raise StreamFormatError("missing header line '<n> <m>'")
    if declared_m and len(us) != declared_m:
        raise StreamFormatError(f"header declares m={declared_m} but file has {len(us)} edges")
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    return EdgeStream(n, u, v)


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
