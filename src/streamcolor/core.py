"""Graph and stream primitives.

An EdgeStream is a fixed, re-traversable edge sequence with pass accounting:
the order is committed before any algorithm randomness is drawn, and every
traversal replays exactly the same sequence. It is the one graph type:
every algorithm, oracle and check reads its graph from a stream, and what an
algorithm keeps of it (the one-pass coloring's same-class edges, the
arboricity run's same-class codes) lives inside that algorithm, where its
space is counted.

A stream is a multigraph: the same edge may arrive more than once, in either
endpoint order. Counters (max degree, peel degrees, forward and out-degrees)
count every occurrence, since O(n) counters cannot deduplicate. So a run's
``alpha`` must bound the multigraph, as peeling counts occurrences, while
``delta`` need only bound the simple graph's max degree, as a class's stored
degree counts distinct neighbors. Stored edges are deduplicated by their
``pair_codes``, and the oracles' adjacency keeps each neighbor once; that
only saves space and leaves every guarantee intact. The one dedup idiom is a
sort and a neighbour compare, ``run_firsts``: ``first_occurrences`` keeps
stream order, and a caller that needs no order sorts its codes in place and
masks or counts the runs.

Vertex ids stay at ``id_dtype(n)`` from the file to the stored edges: the
stream keeps them at that width, and a pass yields views of them.
``pair_codes`` builds its codes in place at ``id_dtype(n * n)``, which
holds ``min * n`` where id width would wrap, so no step goes through int64.
Indexing, compares and ``bincount`` work at any width.
"""

from __future__ import annotations

import array
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1: no accepted number overflows int64
_INT64_MAX = 2**63 - 1
BLOCK = 1 << 17  # bytes per block of read_blocks
MAX_LINE = BLOCK  # bytes per line of read_blocks, its line end included
MAX_PAIR_N = 3_037_000_499  # largest n with n*n <= 2**63 - 1: every min*n+max fits
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # what "surrogateescape" makes of a bad byte
_LINE_END = re.compile(rb"\r\n?|\n")

# The CLI parser's choices and defaults live here, so that building it loads
# no generator or algorithm module; corpus and delta_color re-export them.
FAMILIES = ("gnm", "forest-union", "complete", "star", "cycle", "path", "petersen")
ORDERS = ("as-generated", "random", "sorted-by-endpoint", "layered-adversarial")
DEFAULT_C = 66 * math.log(2)  # = 66 / log2(e) ~= 45.7477


class StreamFormatError(ValueError):
    """Bad edge-list or coloring input. Cites the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


@dataclass
class StreamMeta:
    """Facts about a stream: vertex count, edge count, max degree."""

    n: int
    m: int
    max_degree: int


@dataclass
class Coloring:
    """Total vertex -> color assignment plus the palette it came from."""

    assignment: list[int]
    palette_size: int

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment)) if self.assignment else 0


# a run's failures live beside Coloring, so cli.main catches them without loading the run
class ColoringAborted(RuntimeError):
    """A vertex needed a slot but its stored class neighbors held all r.

    Carries the vertex, its class, its monochromatic degree at the moment of
    the abort and the seed, so the run is reproducible. run_delta_coloring
    always attaches the run's metrics at that moment as `metrics`.
    """

    def __init__(self, vertex: int, class_id: int, mono_degree: int, seed: int, metrics=None):
        super().__init__(
            f"palette exhausted at vertex {vertex} (class {class_id}, "
            f"monochromatic degree {mono_degree}, seed {seed})"
        )
        self.vertex = vertex
        self.class_id = class_id
        self.mono_degree = mono_degree
        self.seed = seed
        self.metrics = metrics  # a delta_color.DeltaRunMetrics


class PeelStalled(RuntimeError):
    """A round removed nothing while active vertices remained (alpha too small)."""

    def __init__(self, round_no: int, active_count: int, threshold: int, alpha, gamma: float):
        super().__init__(
            f"peeling stalled in round {round_no}: {active_count} active vertices "
            f"all above threshold {threshold} (alpha={alpha}, gamma={gamma})"
        )
        self.round_no = round_no
        self.active_count = active_count
        self.threshold = threshold
        self.alpha = alpha
        self.gamma = gamma
        self.metrics = None  # attached by run_arboricity_coloring


def id_dtype(n: int) -> np.dtype:
    """The narrowest of uint8, uint16 and uint32 that holds every vertex id
    in [0, n), else int64."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n - 1 <= np.iinfo(dtype).max:  # two Python ints: no numpy promotion rule applies
            return np.dtype(dtype)
    return np.dtype(np.int64)


class EdgeStream:
    """Ordered edge source that can be traversed any number of times.

    ``pass_count`` goes up by one per traversal, whether or not the consumer
    finishes it (a started pass is a spent pass). Endpoint order within each
    edge is preserved as written, since the algorithms treat the first-listed
    endpoint specially.

    The endpoints are kept at ``id_dtype(n)``, 1 to 8 bytes per id, so they
    must already pass ``check_edges``: an id beyond the width would wrap.
    The chunks a pass yields are views at that width.
    """

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray):
        self.n = int(n)
        dtype = id_dtype(self.n)
        self._u = u.astype(dtype, copy=False)
        self._v = v.astype(dtype, copy=False)
        self._u.flags.writeable = self._v.flags.writeable = False  # a pass yields views
        self.pass_count = 0

    @classmethod
    def from_edges(cls, n: int, edges) -> "EdgeStream":
        """Wrap an in-memory edge sequence ((m, 2) array or sequence of
        pairs). Its values must be integers, as in a file: a float, bool or
        string is refused, not rounded or parsed."""
        arr = edges if isinstance(edges, np.ndarray) else np.array(edges, dtype=object)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise StreamFormatError("edges must be pairs of endpoints")
        if arr.size and arr.dtype.kind not in "iu" and not (arr.dtype == object and all(
            type(x) is int or isinstance(x, np.integer) for x in arr.flat  # a bool is no int here
        )):
            raise StreamFormatError("endpoints must be integers")
        if arr.dtype == np.uint64 and arr.size and int(arr.max()) > _INT64_MAX:  # would wrap
            raise StreamFormatError("endpoint does not fit in a signed 64-bit integer")
        try:
            arr = np.array(arr, dtype=np.int64)  # a copy, so the stream owns its ids
        except OverflowError:
            raise StreamFormatError("endpoint does not fit in a signed 64-bit integer") from None
        u, v = arr[:, 0], arr[:, 1]
        check_edges(n, u, v)
        return cls(n, u, v)

    @property
    def m(self) -> int:
        return len(self._u)

    def pass_chunks(self, chunk_size: int = 1 << 16) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One full traversal, as consecutive (u, v) array chunks in stream
        order. This is the only way to read the stream.

        Each chunk is a read-only view of the stored ids at ``id_dtype(n)``,
        not a copy: a consumer must widen before arithmetic that could wrap,
        as ``pair_codes`` does."""
        self.pass_count += 1
        u, v = self._u, self._v
        for lo in range(0, len(u), chunk_size):
            yield u[lo : lo + chunk_size], v[lo : lo + chunk_size]


def open_stream(path) -> EdgeStream:
    """Open an edge stream from a file path; ``EdgeStream.from_edges`` wraps
    an in-memory edge list.

    File format: the first pair ``read_blocks`` yields is the header ``<n>
    <m>``, both non-negative (m may be 0 when unknown), then one ``<u> <v>``
    edge per line; ``#`` starts a comment.
    Parsing validates eagerly and reports the offending line; the validation
    read is part of opening and does not count as a pass. Each block is
    checked, then stored at ``id_dtype(n)`` in arrays presized from m, capped
    at one pair per 4 bytes of file (the shortest pair line; 0 for a pipe),
    and grown by doubling, so the scratch is a few blocks.
    """
    u, v, count = None, None, 0
    for a, b, lines in read_blocks(Path(path)):
        if u is None:  # the file's first pair is its header
            n, m = int(a[0]), int(b[0])
            if n < 0 or m < 0:
                raise StreamFormatError("header '<n> <m>' must be non-negative", lines[0])
            a, b, lines = a[1:], b[1:], lines[1:]
            cap = min(m, Path(path).stat().st_size // 4)
            u, v = np.empty(cap, id_dtype(n)), np.empty(cap, id_dtype(n))
        check_edges(n, a, b, lines)
        if count + len(a) > len(u):
            cap = max(2 * len(u), count + len(a))
            u, v = _resized(u, count, cap), _resized(v, count, cap)
        u[count : count + len(a)] = a
        v[count : count + len(a)] = b
        count += len(a)
    if u is None:
        raise StreamFormatError("missing header line '<n> <m>'")
    if len(u) != count:
        u, v = _resized(u, count, count), _resized(v, count, count)
    if m and count != m:
        raise StreamFormatError(f"header declares m={m} but file has {count} edges")
    return EdgeStream(n, u, v)


def check_edges(n: int, u: np.ndarray, v: np.ndarray, lines: Sequence[int] | None = None) -> None:
    """Raise StreamFormatError for the first self-loop or endpoint outside
    [0, n), citing ``lines[i]`` as the line of pair i when lines are given."""
    bad = (u == v) | (u < 0) | (v < 0) | (u >= n) | (v >= n)
    if bad.any():
        i = int(bad.argmax())
        loop = u[i] == v[i]
        message = f"self-loop at vertex {u[i]}" if loop else f"endpoint out of range [0, {n})"
        raise StreamFormatError(message, None if lines is None else lines[i])


def read_blocks(path: Path) -> Iterator[tuple]:
    """Read a file of ``<a> <b>`` int64 pairs as one ``(a, b, lines)`` per
    block that holds pairs, ``lines[i]`` the line of pair i. The file is
    opened once and read front to back, so a pipe works, in reads of
    ``BLOCK`` bytes. Each read is cut after its last line end (``\n``,
    ``\r\n`` or a lone ``\r``) into a block, and the unfinished line carries
    into the next read; a final ``\r`` is held back, since it may start a
    ``\r\n``. A plain block is parsed by its digit columns, any other by a
    line scan. A line of more than ``MAX_LINE`` bytes, its line end
    included, is an error on its own line, so a block holds at most
    ``BLOCK + MAX_LINE`` bytes. No value is checked against a bound, and a
    block's format error is raised after its pairs are yielded, so a caller
    that checks each block before it stores it raises the first error in
    the file.
    """
    line, carry = 1, b""
    with open(path, "rb") as fh:
        while data := carry + fh.read(BLOCK):
            if len(data) > len(carry):  # hold a final \r back: it may start a \r\n
                cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            else:  # the end of the file ends its last line
                cut = len(data)
            first = _LINE_END.search(data, 0, cut)  # the first line, maybe begun in the carry
            if first and first.end() > MAX_LINE:
                cut = 0
            block, carry = data[:cut], data[cut:]
            if block:  # else the carry is an unfinished line or one too long
                vals, error = _plain_values(block), None
                if vals is not None:
                    lines = range(line, line + len(vals) // 2)
                    line = lines.stop
                else:
                    # text mode's line ends: \n, \r\n or a lone \r; a byte that
                    # is not UTF-8 becomes a lone surrogate, which the scan
                    # reports on its line
                    vals, lines, line, error = _scan_block(
                        io.StringIO(block.decode("utf-8", "surrogateescape"), newline=None), line
                    )
                if len(vals):  # else a block of comments
                    yield vals[0::2], vals[1::2], lines
                if error is not None:
                    raise error
            if len(carry) > MAX_LINE:
                raise StreamFormatError(f"line longer than {MAX_LINE} bytes", line)


def _plain_values(block: bytes) -> np.ndarray | None:
    """The numbers of a block of whole plain lines, or None if it is not one:
    only ``<digits> <digits>`` lines, each ending in ``\\n``, ``\\r\\n`` or
    a lone ``\\r``, at most ``_MAX_DIGITS`` digits per number, so that every
    value fits in int64. Comments, blank lines, signs and tabs are left to
    ``_scan_block``.

    The separator scan that checks the format also parses: each number ends
    one byte before its separator, so the values add up one digit column at
    a time, last digit first, at ``id_dtype(10 ** longest)``, the narrowest
    width that holds the block's longest number, and widen to int64 once."""
    if b"\r" in block:  # each line end becomes one \n, so each line keeps its number
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not block.endswith(b"\n"):
        return None
    buf = np.frombuffer(block, dtype=np.uint8)
    digits = buf - ord("0")  # uint8 wraps below '0', so a separator reads above 9
    seps = np.flatnonzero(digits > 9)
    kinds = buf[seps]
    if len(seps) % 2 or (kinds[0::2] != ord(" ")).any() or (kinds[1::2] != ord("\n")).any():
        return None
    widths = np.empty_like(seps)  # bytes per number, its separator included
    widths[0] = seps[0] + 1
    np.subtract(seps[1:], seps[:-1], out=widths[1:])
    longest = int(widths.max()) - 1
    if widths.min() < 2 or longest > _MAX_DIGITS:
        return None
    widths = widths.astype(np.uint8)  # frees the int64 widths for the column loop
    seps -= 1  # each number's last digit
    vals = digits[seps].astype(id_dtype(10**longest))
    column = np.empty_like(vals)
    for k in range(2, longest + 1):  # a short first number's index may fall below 0: masked
        seps -= 1
        np.multiply(digits[seps], widths > k, out=column)  # 0 past a number's first digit
        column *= 10 ** (k - 1)
        vals += column
    del digits, seps, kinds, widths, column  # freed before the int64 copy
    return vals.astype(np.int64)


def _resized(arr: np.ndarray, count: int, size: int) -> np.ndarray:
    """A new array of arr's dtype and the given size that starts with arr[:count]."""
    out = np.empty(size, dtype=arr.dtype)
    out[:count] = arr[:count]
    return out


def _scan_block(block: io.StringIO, line: int):
    """A block's pairs by a line scan, the first line on ``line``, as (int64
    values, line of each pair, the line after the block, format error or
    None): skips blank and ``#`` lines and only tokenizes, stopping at the
    first line that is not UTF-8, has no two integers or a value beyond
    int64."""
    vals, lines, error = array.array("q"), array.array("q"), None
    line_no = line - 1
    try:
        for line_no, raw in enumerate(block, start=line):
            if not raw.isascii() and _NOT_UTF8.search(raw):
                raise StreamFormatError("not UTF-8 text", line_no)
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
            if not -_INT64_MAX - 1 <= min(a, b) <= max(a, b) <= _INT64_MAX:
                raise StreamFormatError("value outside the signed 64-bit range", line_no)
            vals.extend((a, b))
            lines.append(line_no)
    except StreamFormatError as exc:
        error = exc
    return np.frombuffer(vals, dtype=np.int64), lines, line_no + 1, error


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
    """One code ``min*n+max`` per edge, equal for either endpoint order, at
    ``id_dtype(n * n)``, which holds every code of ids in [0, n). Ids of any
    width go in. The codes are built in place at that width: no value on
    the way exceeds n * n - 1, so nothing wraps."""
    if n > MAX_PAIR_N:
        raise ValueError(f"pair codes need n <= {MAX_PAIR_N}, so that they fit in int64")
    codes = np.minimum(u, v).astype(id_dtype(n * n), copy=False)  # minimum made a new array
    codes *= n
    # unsafe is exact here, as every id is below n; same_kind would refuse
    # to add int64 ids into unsigned codes
    np.add(codes, np.maximum(u, v), out=codes, casting="unsafe")
    return codes


def run_firsts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in a sorted
    array, 1 byte per element: the neighbour compare of every dedup here."""
    firsts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=firsts[1:])
    return firsts


def first_occurrences(codes: np.ndarray) -> np.ndarray:
    """Ascending indices of each value's first occurrence in codes.

    Equals numpy's ``unique(codes, return_index=True)`` indices, sorted: an
    unstable argsort groups equal values, and the smallest index of each
    group is its first occurrence.
    """
    order = np.argsort(codes)
    first = np.minimum.reduceat(order, np.flatnonzero(run_firsts(codes[order])))
    first.sort()
    return first
