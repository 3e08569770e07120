"""Stream plumbing: parsing, pass accounting, stored-edge space accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    EdgeStream,
    StreamFormatError,
    measure_max_degree,
    open_stream,
    run_delta_coloring,
)

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


def test_open_stream_in_memory_needs_n():
    with pytest.raises(ValueError, match="vertex count"):
        open_stream([(0, 1)])
    s = open_stream([(0, 1)], n=2)
    assert s.m == 1


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
        open_stream([(0, 2**63)], n=2**64)
    with pytest.raises(StreamFormatError, match="signed 64-bit"):
        EdgeStream.from_edges(4, [(-(2**64), 1)])


def test_stream_arrays_are_int64():
    s = EdgeStream.from_edges(4, np.asarray(K4_EDGES, dtype=np.int32))
    for u, v in s.pass_chunks():
        assert u.dtype == np.int64 and v.dtype == np.int64
