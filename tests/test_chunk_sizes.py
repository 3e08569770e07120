"""Chunked traversal: every stream consumer gives the same result at any chunk
size. Chunk size 1 delivers one edge per chunk, the per-edge semantics; the
per-edge references below spell those semantics out as plain loops.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import asdict

import numpy as np
import pytest

from streamcolor.arb_color import derive_config, run_arboricity_coloring
from streamcolor.core import (
    Coloring,
    ColoringAborted,
    EdgeStream,
    PeelStalled,
    first_occurrences,
    measure_max_degree,
    pair_codes,
)
from streamcolor.corpus import GenSpec, generate
from streamcolor.delta_color import (
    PhasePartition,
    class_count,
    palette_size,
    run_delta_coloring,
)
from streamcolor.oracle import repeat_counts, verify_proper
from streamcolor.peel import measure_forward_degree, peel, peel_threshold

CHUNK_SIZES = (1, 7, None)  # None: the default chunk size


@pytest.fixture
def at_chunk_sizes(monkeypatch):
    """Call fn() once per entry of CHUNK_SIZES, with EdgeStream.pass_chunks
    fixed to that chunk size; returns the results in that order."""
    default = EdgeStream.pass_chunks

    def run(fn):
        results = []
        for k in CHUNK_SIZES:
            patched = default if k is None else functools.partialmethod(default, chunk_size=k)
            monkeypatch.setattr(EdgeStream, "pass_chunks", patched)
            results.append(fn())
        return results

    return run


def noisy_edges(spec: GenSpec) -> np.ndarray:
    """The spec's edges plus repeats, some with swapped endpoints."""
    edges, _ = generate(spec)
    repeats = edges[::9].copy()
    repeats[::2] = repeats[::2, ::-1]
    return np.concatenate([edges, repeats, edges[:5]])


GNM = GenSpec(family="gnm", n=400, m=4000, seed=5)
FOREST = GenSpec(family="forest-union", n=400, alpha=4, seed=6)


def all_equal(results: list) -> bool:
    return all(r == results[0] for r in results[1:])


def per_edge_delta_coloring(n: int, edges, class_of, r: int) -> list[int]:
    slot = [1] * n
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if class_of[u] != class_of[v]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        if slot[u] == slot[v]:
            used = {slot[w] for w in adj[u]}
            slot[u] = min(s for s in range(1, r + 1) if s not in used)
    return [(class_of[v] - 1) * r + slot[v] for v in range(n)]


def per_edge_peel(n: int, edges, threshold: int) -> tuple[list[int], list[int]]:
    layer, witnessed = [0] * n, [0] * n
    active = set(range(n))
    k = 0
    while active:
        k += 1
        deg = dict.fromkeys(active, 0)
        for u, v in edges:
            if u in active and v in active:
                deg[u] += 1
                deg[v] += 1
        gone = [v for v in active if deg[v] <= threshold]
        assert gone, "reference peel stalled"
        for v in gone:
            layer[v], witnessed[v] = k, deg[v]
            active.discard(v)
    return layer, witnessed


def same_class_graphs(edges, class_of, ell: int) -> list[defaultdict[int, set[int]]]:
    """Per class, the distinct same-class neighbors of each vertex."""
    graphs = [defaultdict(set) for _ in range(ell)]
    for u, v in edges:
        if class_of[u] == class_of[v]:
            g = graphs[class_of[u] - 1]
            g[u].add(v)
            g[v].add(u)
    return graphs


def stored_edges(graphs) -> int:
    return sum(len(s) for g in graphs for s in g.values()) // 2


def per_class_dag_coloring(graphs, class_of, layer) -> tuple[list[int], list[int]]:
    """Per-class max count of neighbors with a larger (layer, id), and the
    first-free coloring in decreasing (layer, id) order, class i in the block
    of out-degree + 1 colors that follows class i-1's."""
    n = len(class_of)

    def key(v):
        return (layer[v], v)

    def out(g, v):
        return [w for w in g.get(v, ()) if key(w) > key(v)]

    out_degree = [max(len(out(g, v)) for v in range(n)) for g in graphs]
    assignment = [-1] * n
    base = 0
    for i, g in enumerate(graphs):
        for v in sorted(range(n), key=key, reverse=True):
            if class_of[v] == i + 1:
                used = {assignment[w] for w in out(g, v)}
                assignment[v] = min(set(range(base, base + out_degree[i] + 1)) - used)
        base += out_degree[i] + 1
    return out_degree, assignment


def per_edge_forward_degree(n: int, edges, layer) -> int:
    counts = [0] * n
    for u, v in edges:
        if layer[u] >= layer[v]:
            counts[v] += 1
        if layer[v] >= layer[u]:
            counts[u] += 1
    return max(counts, default=0)


def per_edge_violations(edges, col) -> list[tuple[int, int]]:
    bad, seen = [], set()
    for u, v in edges:
        if col[u] == col[v]:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                bad.append(key)
    return bad


def test_delta_coloring_same_at_every_chunk_size(at_chunk_sizes):
    edges = noisy_edges(GNM)
    delta = measure_max_degree(EdgeStream.from_edges(GNM.n, edges))

    def run():
        stream = EdgeStream.from_edges(GNM.n, edges)
        coloring, metrics = run_delta_coloring(stream, delta, 0.5, c=0.2, seed=1)
        return coloring.assignment, asdict(metrics), stream.pass_count

    results = at_chunk_sizes(run)
    assert all_equal(results)
    assignment, metrics, passes = results[0]
    assert metrics["ell"] > 1 and metrics["max_edge_cost"] > 1 and passes == 1
    part = PhasePartition.draw(GNM.n, class_count(GNM.n, delta, 0.5, 0.2), 1)
    r = palette_size(GNM.n, 0.5, 0.2)
    reference = per_edge_delta_coloring(GNM.n, edges.tolist(), part.class_of.tolist(), r)
    assert assignment == reference


def test_delta_abort_same_at_every_chunk_size(at_chunk_sizes):
    edges, _ = generate(GNM)

    def run():
        stream = EdgeStream.from_edges(GNM.n, edges)
        with pytest.raises(ColoringAborted) as info:
            # an understated delta: one class with r = 3 slots
            run_delta_coloring(stream, 1, 4.0, c=0.1, seed=0)
        exc = info.value
        return exc.vertex, exc.mono_degree, asdict(exc.metrics), stream.pass_count

    assert all_equal(at_chunk_sizes(run))


def sent_k_times(edges: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Every edge sent k times: the first copies in their own order, each
    repeat at a random later place, and about half of the repeats swapped."""
    rng = np.random.default_rng(seed)
    m = len(edges)
    repeats = np.tile(edges, (k - 1, 1))
    swap = rng.random(len(repeats)) < 0.5
    repeats[swap] = repeats[swap, ::-1]
    # edge i's first copy sorts at 2i, a repeat of it just after first copy i + d
    later = np.tile(np.arange(m), k - 1) + rng.integers(1, m + 1, size=len(repeats))
    order = np.argsort(np.concatenate([2 * np.arange(m), 2 * later + 1]), kind="stable")
    return np.concatenate([edges, repeats])[order]


@pytest.mark.parametrize("c", [0.2, 0.04], ids=["finishes", "aborts"])
def test_delta_coloring_of_a_repeated_stream_equals_the_simple_one(at_chunk_sizes, c):
    # a repeat is a no-op in the replay, so the simple graph's max degree is
    # the delta the repeated stream needs, and every outcome but m is equal
    edges, meta = generate(GNM)
    sent = sent_k_times(edges, 4, seed=2)

    def run(graph):
        stream = EdgeStream.from_edges(GNM.n, graph)
        try:
            coloring, metrics = run_delta_coloring(stream, meta.max_degree, 0.5, c=c, seed=1)
            outcome = coloring.assignment
        except ColoringAborted as exc:
            metrics, outcome = exc.metrics, (exc.vertex, exc.class_id, exc.mono_degree, exc.seed)
        return outcome, {**asdict(metrics), "m": None}, stream.pass_count

    simple, repeated = zip(*at_chunk_sizes(lambda: (run(edges), run(sent))))
    assert all_equal([*simple, *repeated])
    outcome, metrics, passes = simple[0]
    assert metrics["ell"] > 1 and metrics["aborted"] == (c == 0.04) and passes == 1
    assert len(sent) == 4 * len(edges)
    assert (sent[first_occurrences(pair_codes(sent[:, 0], sent[:, 1], GNM.n))] == edges).all()
    assert measure_max_degree(EdgeStream.from_edges(GNM.n, sent)) == 4 * meta.max_degree


def test_peel_same_at_every_chunk_size(at_chunk_sizes):
    edges = noisy_edges(FOREST)

    def run():
        stream = EdgeStream.from_edges(FOREST.n, edges)
        lp = peel(stream, alpha=3, gamma=0.5)
        return lp.layer, lp.witnessed_degree, lp.k, stream.pass_count

    results = at_chunk_sizes(run)
    assert all_equal(results)
    layer, witnessed, k, passes = results[0]
    assert k >= 2 and passes == k
    assert (layer, witnessed) == per_edge_peel(FOREST.n, edges.tolist(), peel_threshold(3, 0.5))


def test_peel_stall_same_at_every_chunk_size(at_chunk_sizes):
    edges, _ = generate(GNM)

    def run():
        stream = EdgeStream.from_edges(GNM.n, edges)
        with pytest.raises(PeelStalled) as info:
            peel(stream, alpha=4, gamma=0.5)
        return info.value.round_no, info.value.active_count, stream.pass_count

    results = at_chunk_sizes(run)
    assert all_equal(results)
    round_no, _, passes = results[0]
    assert passes == round_no == 2  # stalls after a round of progress


def test_arboricity_coloring_same_at_every_chunk_size(at_chunk_sizes):
    edges = noisy_edges(FOREST)

    def run():
        stream = EdgeStream.from_edges(FOREST.n, edges)
        coloring, metrics = run_arboricity_coloring(stream, 4, 0.5, c=0.02, seed=0)
        return coloring.assignment, asdict(metrics), stream.pass_count

    results = at_chunk_sizes(run)
    assert all_equal(results)
    assignment, metrics, passes = results[0]
    assert metrics["ell"] > 1 and metrics["k"] >= 2 and passes == metrics["k"]
    assert verify_proper(EdgeStream.from_edges(FOREST.n, edges), Coloring(assignment, 0)) == []
    class_of = PhasePartition.draw(FOREST.n, metrics["ell"], 0).class_of.tolist()
    graphs = same_class_graphs(edges.tolist(), class_of, metrics["ell"])
    assert metrics["peak_stored_edges"] == stored_edges(graphs)
    gamma = derive_config(FOREST.n, 4, 0.5, 0.02).gamma
    lp = peel(EdgeStream.from_edges(FOREST.n, edges), 4, gamma)
    assert (metrics["per_class_out_degree"], assignment) == per_class_dag_coloring(
        graphs, class_of, lp.layer
    )


def test_arboricity_stall_same_at_every_chunk_size(at_chunk_sizes):
    edges = noisy_edges(FOREST)

    def run():
        stream = EdgeStream.from_edges(FOREST.n, edges)
        with pytest.raises(PeelStalled) as info:
            run_arboricity_coloring(stream, 2, 0.5, c=0.02, seed=0)
        return asdict(info.value.metrics), stream.pass_count

    results = at_chunk_sizes(run)
    assert all_equal(results)
    metrics, passes = results[0]
    assert metrics["ell"] > 1 and passes == metrics["k"] == 2  # stalls after a round of progress
    class_of = PhasePartition.draw(FOREST.n, metrics["ell"], 0).class_of.tolist()
    graphs = same_class_graphs(edges.tolist(), class_of, metrics["ell"])
    assert metrics["peak_stored_edges"] == stored_edges(graphs)


def test_forward_degree_same_at_every_chunk_size(at_chunk_sizes):
    edges = noisy_edges(FOREST)
    lp = peel(EdgeStream.from_edges(FOREST.n, edges), alpha=3, gamma=0.5)

    def run():
        stream = EdgeStream.from_edges(FOREST.n, edges)
        return measure_forward_degree(stream, lp), stream.pass_count

    results = at_chunk_sizes(run)
    assert all_equal(results)
    assert results[0] == (per_edge_forward_degree(FOREST.n, edges.tolist(), lp.layer), 1)


def test_verify_violations_same_at_every_chunk_size(at_chunk_sizes):
    edges = noisy_edges(GNM)
    col = [v % 5 for v in range(GNM.n)]

    def run():
        stream = EdgeStream.from_edges(GNM.n, edges)
        return verify_proper(stream, Coloring(col, 5)), stream.pass_count

    results = at_chunk_sizes(run)
    assert all_equal(results)
    violations, passes = results[0]
    assert passes == 1
    assert violations == per_edge_violations(edges.tolist(), col)
    assert len(violations) > 100
    # the repeats add no violation of their own, and no pair reports twice
    assert len(set(violations)) == len(violations)


@pytest.mark.parametrize("n, width", [
    (16, np.uint8), (256, np.uint16), (257, np.uint32), (65536, np.uint32), (65537, np.int64),
])
def test_repeat_counts_match_a_pair_counter_at_every_code_width(at_chunk_sizes, n, width):
    # n and n + 1 on each side of a code width's limit, with the pair of the
    # two top ids, whose code is the largest of a graph
    rng = np.random.default_rng(n)
    u = rng.integers(0, n, size=400)
    edges = np.column_stack((u, (u + rng.integers(1, n, size=400)) % n))
    edges = np.concatenate([
        edges, [[n - 1, n - 2], [n - 2, n - 1]],
        edges[::5], edges[::7, ::-1], edges[:1], edges[:1, ::-1],  # exact and swapped repeats
    ])
    assert pair_codes(edges[:, 0], edges[:, 1], n).dtype == width
    counts = Counter((min(a, b), max(a, b)) for a, b in edges.tolist())
    assert max(counts.values()) >= 4

    def run():
        r = repeat_counts(EdgeStream.from_edges(n, edges))
        return r.m, r.distinct, r.max_multiplicity

    expected = (len(edges), len(counts), max(counts.values()))
    assert at_chunk_sizes(run) == [expected] * len(CHUNK_SIZES)
