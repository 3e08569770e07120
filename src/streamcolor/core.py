"""Graph and stream primitives.

An EdgeStream is a fixed, re-traversable edge sequence with pass accounting:
the order is committed before any algorithm randomness is drawn, and every
traversal replays exactly the same sequence. StoredGraph is the incremental
in-memory adjacency of the one-pass coloring and the oracles; it
deduplicates edges and counts the edges it stores so space claims are
checkable.

A stream is a multigraph: the same edge may arrive more than once, in
either endpoint order. Counters (max degree, peel degrees, forward and
out-degrees) count every occurrence, since O(n) counters cannot
deduplicate, so the ``delta`` and ``alpha`` bounds a run is given must bound
the multigraph. Stored edges are deduplicated sets; that only saves space
and leaves every guarantee intact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

_EMPTY: frozenset[int] = frozenset()
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1: no accepted number overflows int64


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
        arr = np.asarray(edges, dtype=np.int64)
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


class StoredGraph:
    """Undirected adjacency with dedup and a stored-edge count.

    add_edge is idempotent: a repeated edge changes nothing, so stream noise
    cannot inflate space accounting.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._adj: dict[int, set[int]] = {}
        self.stored_edges = 0

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "StoredGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(int(u), int(v))
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        n = self.n
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"endpoint out of range [0, {n})")
        adj = self._adj
        s = adj.get(u)
        if s is None:
            s = adj[u] = set()
        if v in s:
            return
        s.add(v)
        t = adj.get(v)
        if t is None:
            t = adj[v] = set()
        t.add(u)
        self.stored_edges += 1

    def neighbors(self, v: int) -> frozenset[int] | set[int]:
        """Read-only view; do not mutate."""
        return self._adj.get(v, _EMPTY)

    def degree(self, v: int) -> int:
        s = self._adj.get(v)
        return len(s) if s else 0

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj.values()), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each stored edge once, as (u, v) with u < v, in sorted order."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)
