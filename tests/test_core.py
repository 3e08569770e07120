"""Stream plumbing: parsing, pass accounting, stored-edge space accounting."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import cli, core
from streamcolor.core import (
    MAX_PAIR_N,
    EdgeStream,
    StreamFormatError,
    first_occurrences,
    measure_max_degree,
    open_stream,
    pair_codes,
)
from streamcolor.delta_color import run_delta_coloring

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def one_pass(stream: EdgeStream, chunk_size: int = 1 << 16) -> list[tuple[int, int]]:
    """Every edge of one traversal, flattened from its chunks."""
    out = []
    for u, v in stream.pass_chunks(chunk_size=chunk_size):
        out.extend(zip(u.tolist(), v.tolist()))
    return out


def test_from_edges_roundtrip():
    s = EdgeStream.from_edges(4, K4_EDGES)
    assert s.n == 4
    assert s.m == 6
    assert one_pass(s) == K4_EDGES


def test_from_edges_empty():
    s = EdgeStream.from_edges(3, [])
    assert s.m == 0
    assert one_pass(s) == []
    assert s.pass_count == 1  # an empty traversal is still a pass


def test_from_edges_rejects_self_loop():
    with pytest.raises(StreamFormatError, match="self-loop at vertex 2"):
        EdgeStream.from_edges(4, [(0, 1), (2, 2)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(StreamFormatError, match="out of range"):
        EdgeStream.from_edges(4, [(0, 4)])
    with pytest.raises(StreamFormatError, match="out of range"):
        EdgeStream.from_edges(4, [(-1, 2)])


def test_from_edges_rejects_bad_shape():
    with pytest.raises(StreamFormatError, match="pairs"):
        EdgeStream.from_edges(4, [(0, 1, 2)])


def test_pass_count_increments_per_traversal():
    s = EdgeStream.from_edges(4, K4_EDGES)
    assert s.pass_count == 0
    one_pass(s)
    one_pass(s, chunk_size=1)
    assert s.pass_count == 2
    for _ in s.pass_chunks():
        pass
    assert s.pass_count == 3


def test_started_pass_is_a_spent_pass():
    # abandoning a traversal early still costs the pass
    s = EdgeStream.from_edges(4, K4_EDGES)
    it = s.pass_chunks(chunk_size=1)
    next(it)
    assert s.pass_count == 1


def test_pass_chunks_flatten_to_stream_order():
    edges = [(i, (i + 1) % 50) for i in range(50)]
    s = EdgeStream.from_edges(50, edges)
    for chunk_size in (1, 7, 50, 1 << 16):
        assert one_pass(s, chunk_size) == edges


def test_pass_chunks_deliver_m_edges_in_one_pass():
    s = EdgeStream.from_edges(4, K4_EDGES)
    sizes = [(len(u), len(v)) for u, v in s.pass_chunks(chunk_size=4)]
    assert sizes == [(4, 4), (2, 2)]
    assert s.pass_count == 1


def test_replay_determinism():
    s = EdgeStream.from_edges(4, K4_EDGES)
    assert one_pass(s) == one_pass(s, chunk_size=5) == one_pass(s)


def test_endpoint_order_preserved():
    # first-listed endpoint matters to the recoloring rule, so (1, 0) must
    # not be normalized to (0, 1)
    s = EdgeStream.from_edges(2, [(1, 0)])
    assert one_pass(s) == [(1, 0)]


def test_open_stream_parses_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n4 3\n0 1\n\n1 2\n# another\n2 3\n")
    s = open_stream(p)
    assert (s.n, s.m) == (4, 3)
    assert one_pass(s) == [(0, 1), (1, 2), (2, 3)]
    # the validating read does not count as a pass
    assert s.pass_count == 1


def test_open_stream_zero_m_header_means_unknown(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("4 0\n0 1\n2 3\n")
    assert open_stream(p).m == 2


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "missing header"),
        ("# only comments\n", "missing header"),
        ("4 1\n0 1 2\n", "line 2"),
        ("4 1\n0 x\n", "line 2: non-integer"),
        ("4 1\n1 1\n", "line 2: self-loop"),
        ("300 2\n0 1\n299 299\n", "^line 3: self-loop at vertex 299$"),  # a uint16 stream
        ("4 1\n0 9\n", "line 2: endpoint out of range"),
        ("-1 0\n", "line 1"),
        ("4 5\n0 1\n", "declares m=5"),
    ],
)
def test_open_stream_rejects_malformed(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(StreamFormatError, match=fragment):
        open_stream(p)


def test_check_edges_finds_the_first_error_in_a_late_slice(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "BLOCK", 12)  # a few lines per block
    pairs = [(0, 1)] * 7 + [(2, 2), (0, 1), (0, 10)]  # pair 7 is on line 9
    p = tmp_path / "g.txt"
    p.write_text("10 10\n" + "".join(f"{a} {b}\n" for a, b in pairs))
    with pytest.raises(StreamFormatError, match="^line 9: self-loop at vertex 2$"):
        open_stream(p)
    with pytest.raises(StreamFormatError, match="^endpoint out of range"):
        EdgeStream.from_edges(5, pairs[:7] + [(0, 1), (1, 0), (0, 5)])


def gnm_file(tmp_path, m: int, prefix: bytes = b"", newline: bytes = b"\n"):
    """A gnm edge file at n 4096 with m edges, after the given bytes, with
    the given line ends."""
    p = tmp_path / f"g{m}.txt"
    gen = ["gen", "--family", "gnm", "--n", "4096", "--m", str(m), "--seed", "3"]
    assert cli.main([*gen, "-o", str(p)]) == 0
    p.write_bytes(prefix + p.read_bytes().replace(b"\n", newline))
    return p


def traced_open(path):
    """The opened stream and the tracemalloc peak of opening it."""
    tracemalloc.start()
    try:
        stream = open_stream(path)
        return stream, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("prefix, newline", [
    pytest.param(b"", b"\n", id="plain"),
    pytest.param(b"# comment\n", b"\n", id="comment-led"),  # the scan takes one block
    pytest.param(b"", b"\r\n", id="crlf"),  # the scan takes every block
])
def test_open_stream_scratch_is_bounded_by_blocks(tmp_path, monkeypatch, prefix, newline):
    # tracemalloc sees numpy's buffers: beyond the stream's two id arrays,
    # 2 bytes per id at n 4096, opening a file costs a few parse blocks,
    # however many edges the file holds and whichever route its blocks take;
    # with small blocks, small files show it
    monkeypatch.setattr(core, "BLOCK", 1 << 14)
    excess = []
    for m in (70_000, 280_000):  # at a fixed n, 0.6 and 2.6 MB of file
        stream, peak = traced_open(gnm_file(tmp_path, m, prefix, newline))
        assert stream.m == m
        itemsize = stream._u.itemsize
        assert itemsize == 2
        excess.append(peak - 2 * itemsize * m)
    assert max(excess) < 12 * core.BLOCK, excess
    assert excess[1] < excess[0] + core.BLOCK, excess  # does not grow with m


def test_lone_cr_file_reads_as_its_lf_copy(tmp_path):
    # a read is cut after its last line end, a lone \r too, so a file of
    # many blocks whose lines end in \r gives its LF copy's stream, and a
    # late error on the same line
    lf = gnm_file(tmp_path, 30_000)
    cr = tmp_path / "cr.txt"
    cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
    assert cr.stat().st_size > 2 * core.BLOCK
    want, got = open_stream(lf), open_stream(cr)
    assert (got.n, got.m) == (want.n, want.m) == (4096, 30_000)
    assert np.array_equal(got._u, want._u) and np.array_equal(got._v, want._v)
    data = lf.read_bytes()
    lf.write_bytes(data[: data.rindex(b"\n", 0, -1) + 1] + b"5 5\n")  # the last pair line
    cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
    for path in (lf, cr):
        with pytest.raises(StreamFormatError, match="^line 30001: self-loop at vertex 5$"):
            open_stream(path)


LINE = core.MAX_LINE


@pytest.mark.parametrize("body, bad_line", [
    pytest.param(b"# " + b"x" * (LINE - 3) + b"\n2 3\n", None, id="at-the-limit"),
    pytest.param(b"# " + b"x" * (LINE - 2) + b"\n2 3\n", 3, id="one-byte-over"),
    pytest.param(b"2 3\n# " + b"x" * (LINE - 2), None, id="last-line-at-the-limit"),
    pytest.param(b"2 3\n# " + b"x" * (LINE - 1), 4, id="last-line-one-byte-over"),
    pytest.param(b"0 1 " + b"9" * (4 * LINE) + b"\n", 3, id="pair-line"),
])
def test_a_line_longer_than_max_line_is_an_error_on_its_line(tmp_path, body, bad_line):
    # a line may hold MAX_LINE bytes, its "\n" included; a longer one is an
    # error on its own line, whichever block it starts in
    p = tmp_path / "g.txt"
    for lead in (b"", b"0 1\n" * (LINE // 5)):  # a first block of plain lines ends mid-line
        p.write_bytes(b"4 0\n" + lead + b"0 1\n" + body)
        if bad_line is None:
            assert open_stream(p).m == lead.count(b"\n") + 2
            continue
        line = bad_line + lead.count(b"\n")
        with pytest.raises(StreamFormatError, match=f"^line {line}: line longer than {LINE} bytes$"):
            open_stream(p)


def test_an_earlier_error_comes_before_a_long_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_bytes(b"4 0\n0 1\n2 2\n# " + b"x" * (4 * LINE) + b"\n")
    with pytest.raises(StreamFormatError, match="^line 3: self-loop at vertex 2$"):
        open_stream(p)


def test_long_line_scratch_is_bounded_by_blocks(tmp_path):
    # the reader takes at most MAX_LINE bytes of a longer line into a block,
    # not the whole line, whose every byte the plain check would index at
    # about 9 B per byte
    p = tmp_path / "g.txt"
    p.write_bytes(b"4 4\n0 1\n1 2\n# " + b"x" * (16 * LINE) + b"\n2 3\n3 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(StreamFormatError, match=f"^line 4: line longer than {LINE} bytes$"):
            open_stream(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (core.BLOCK + LINE), peak


def test_measure_max_degree():
    assert measure_max_degree(EdgeStream.from_edges(4, K4_EDGES)) == 3
    assert measure_max_degree(EdgeStream.from_edges(5, [(0, i) for i in range(1, 5)])) == 4
    assert measure_max_degree(EdgeStream.from_edges(3, [])) == 0
    assert measure_max_degree(EdgeStream.from_edges(0, [])) == 0


def test_measure_max_degree_counts_duplicates():
    # documented: O(n) counters cannot dedup, so repeats overcount, which is
    # the safe direction for a palette bound
    s = EdgeStream.from_edges(2, [(0, 1), (0, 1)])
    assert measure_max_degree(s) == 2


pairs = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(pairs, max_size=60))
def test_stored_graph_accounting_matches_shadow_set(edge_seq):
    # one class stores every edge; repeats, in either endpoint order, store once
    shadow = {(min(u, v), max(u, v)) for u, v in edge_seq}
    degree = [0] * 10
    for u, v in shadow:
        degree[u] += 1
        degree[v] += 1
    stream = EdgeStream.from_edges(10, edge_seq)
    _, metrics = run_delta_coloring(stream, measure_max_degree(stream), 0.5, c=8.0)
    assert metrics.ell == 1
    assert metrics.peak_stored_edges == len(shadow)
    assert metrics.per_class_degree == [max(degree)]


def test_from_edges_rejects_endpoint_beyond_int64():
    with pytest.raises(StreamFormatError, match="signed 64-bit"):
        EdgeStream.from_edges(2**64, [(0, 2**63)])
    with pytest.raises(StreamFormatError, match="signed 64-bit"):
        EdgeStream.from_edges(4, [(-(2**64), 1)])


@pytest.mark.parametrize("edges", [
    pytest.param([(0.5, 1.7)], id="floats"),
    pytest.param([("1", "2")], id="strings"),
    pytest.param([(True, 2)], id="bool"),
    pytest.param([(np.True_, 2)], id="numpy-bool"),
    pytest.param([(0.5, 2**64)], id="float-beside-huge-int"),
    pytest.param(np.array([[0.0, 1.0]]), id="float-array"),
    pytest.param(np.array([[False, True]]), id="bool-array"),
])
def test_from_edges_rejects_values_that_are_not_integers(edges):
    # a file with these pairs is a "non-integer field" error; an in-memory
    # edge list must not round or parse them into an edge either
    with pytest.raises(StreamFormatError, match="endpoints must be integers"):
        EdgeStream.from_edges(4, edges)


@pytest.mark.parametrize("edges", [
    pytest.param(np.zeros(0), id="empty-float"),
    pytest.param(np.zeros((0, 2), dtype=bool), id="empty-bool"),
    pytest.param(np.zeros((0, 2), dtype="U1"), id="empty-str"),
    pytest.param((), id="empty-tuple"),
])
def test_from_edges_accepts_empty_input_of_any_dtype(edges):
    s = EdgeStream.from_edges(4, edges)
    assert s.m == 0 and one_pass(s) == []


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int32, np.uint32, np.int64,
                                   np.uint64, object])
def test_from_edges_accepts_integer_arrays_of_every_width(dtype):
    assert one_pass(EdgeStream.from_edges(4, np.asarray(K4_EDGES, dtype=dtype))) == K4_EDGES


def test_from_edges_rejects_uint64_beyond_int64():
    # cast to int64, 2**63 would wrap to -2**63 and read as out of range
    with pytest.raises(StreamFormatError, match="signed 64-bit"):
        EdgeStream.from_edges(2**64, np.array([(0, 2**63)], dtype=np.uint64))


def test_from_edges_accepts_numpy_integer_scalars():
    mixed = [(np.int32(0), np.uint64(1)), (2, np.int8(3))]
    assert one_pass(EdgeStream.from_edges(4, mixed)) == [(0, 1), (2, 3)]


def test_stream_chunks_are_at_id_width():
    s = EdgeStream.from_edges(4, np.asarray(K4_EDGES, dtype=np.int32))
    for u, v in s.pass_chunks():
        assert u.dtype == core.id_dtype(4) and v.dtype == core.id_dtype(4)


@pytest.mark.parametrize("n", [4, 2**32 + 1])
def test_stream_chunks_are_read_only_views(n):
    # a chunk is a view of the stream's ids, so a write would change the
    # stream for every later pass
    s = EdgeStream.from_edges(n, K4_EDGES)
    u, v = next(s.pass_chunks())
    for chunk in (u, v):
        with pytest.raises(ValueError, match="read-only"):
            chunk[0] = 3
    assert one_pass(s) == K4_EDGES


@pytest.mark.parametrize(
    "n, dtype",
    [(0, np.uint8), (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
     (65537, np.uint32), (2**32, np.uint32), (2**32 + 1, np.int64)],
)
def test_id_dtype_is_the_narrowest_that_holds_n_minus_1(n, dtype):
    assert core.id_dtype(n) == dtype


@pytest.mark.parametrize("n", [256, 257, 65537, MAX_PAIR_N, 2**32 + 1])
def test_narrow_stream_chunks_keep_id_width_and_pair_codes_stay_exact(n):
    # the chunks are views of the narrow ids; pair_codes widens before its
    # min * n, so the codes next to n - 1 are exact at every width
    edges = [(n - 1, 0), (0, n - 1), (n - 2, n - 1), (1, 2), (n - 1, 1), (n - 3, 3), (5, 6)] * 3
    s = EdgeStream.from_edges(n, edges)
    assert s._u.dtype == core.id_dtype(n)
    for chunk_size in (1, 7, 1 << 16):
        chunks = list(s.pass_chunks(chunk_size=chunk_size))
        assert all(u.dtype == core.id_dtype(n) and v.dtype == core.id_dtype(n) for u, v in chunks)
        u = np.concatenate([c[0] for c in chunks])
        v = np.concatenate([c[1] for c in chunks])
        assert list(zip(u.tolist(), v.tolist())) == edges
        if n <= MAX_PAIR_N:
            codes = pair_codes(u, v, n)
            assert codes[0] == codes[1] == n - 1 and codes[2] == (n - 2) * n + n - 1


INT64_EDGE = 2**63 - 1
code_values = st.one_of(
    st.integers(-5, 5),  # small ranges make repeats likely
    st.integers(-INT64_EDGE, INT64_EDGE),
    st.sampled_from([-INT64_EDGE, INT64_EDGE, -(2**63), 0]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(code_values, max_size=80))
def test_dedup_helpers_match_numpy_unique(values):
    codes = np.asarray(values, dtype=np.int64)
    index = np.unique(codes, return_index=True)[1]
    first = first_occurrences(codes)
    assert first.tolist() == np.sort(index).tolist()
    assert first.dtype == index.dtype


@pytest.mark.parametrize(
    "values",
    [
        [],
        [7],
        [3, 3, 3, 3],
        [-1, -3, -1, -2, -3],
        [INT64_EDGE, -INT64_EDGE, INT64_EDGE, -INT64_EDGE],
    ],
)
def test_dedup_helpers_on_edge_inputs(values):
    codes = np.asarray(values, dtype=np.int64)
    index = np.unique(codes, return_index=True)[1]
    assert first_occurrences(codes).tolist() == np.sort(index).tolist()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
@pytest.mark.parametrize("n", [2, 16, 17, 256, 257, 65536, 65537, 2**32 + 1, MAX_PAIR_N])
def test_pair_codes_equal_the_int64_formula_at_every_width(n, dtype):
    # the codes are built in place at id_dtype(n * n); the largest ids the
    # input dtype holds below n reach its top code, and int64 ids added into
    # unsigned codes are what a same_kind add would refuse; past MAX_PAIR_N
    # (2**32 + 1 is) no code width exists
    top = min(n, int(np.iinfo(dtype).max) + 1)
    ids = sorted({0, 1, top // 2, top - 2, top - 1})
    u = np.asarray([a for a in ids for _ in ids], dtype=dtype)
    v = np.asarray([b for _ in ids for b in ids], dtype=dtype)
    if n > MAX_PAIR_N:
        with pytest.raises(ValueError, match="pair codes need n <= 3037000499"):
            pair_codes(u, v, n)
        return
    codes = pair_codes(u, v, n)
    assert codes.dtype == core.id_dtype(n * n)
    assert codes.tolist() == [min(a, b) * n + max(a, b) for a, b in zip(u.tolist(), v.tolist())]


def test_pair_codes_ignore_endpoint_order_and_guard_int64():
    u = np.asarray([0, 5, 2], dtype=np.int64)
    v = np.asarray([5, 0, 3], dtype=np.int64)
    assert pair_codes(u, v, 6).tolist() == [5, 5, 15]
    top = MAX_PAIR_N
    assert pair_codes(np.asarray([top - 1]), np.asarray([top - 2]), top).tolist() == [
        (top - 2) * top + top - 1
    ]
    with pytest.raises(ValueError, match="pair codes need n <= 3037000499"):
        pair_codes(u, v, top + 1)
