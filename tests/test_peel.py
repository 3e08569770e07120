"""Degree peeling: thresholds, round counts, stalls, and the orientation."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    EdgeStream,
    GenSpec,
    LayerPartition,
    PeelStalled,
    PeelState,
    generate,
    max_rounds_bound,
    measure_forward_degree,
    peel,
    peel_threshold,
)
from streamcolor.arb_color import _orient_arrays

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
STAR6_EDGES = [(0, i) for i in range(1, 6)]


def make_partition(layer: list[int]) -> LayerPartition:
    # hand-built partitions for orientation tests; peel fields are dummies
    return LayerPartition(
        k=max(layer, default=0), layer=layer, alpha=1, gamma=0.5,
        threshold=2, witnessed_degree=[0] * len(layer), passes=0,
    )


def orientation_key(lp: LayerPartition) -> list[int]:
    """The per-vertex ``layer*n + v`` key; every edge points from its smaller end."""
    none = np.zeros(0, dtype=np.int64)
    return _orient_arrays(none, none, lp)[2].tolist()


def test_peel_threshold_values():
    assert peel_threshold(8, 0.5) == 20
    assert peel_threshold(1, 1.0) == 3
    assert peel_threshold(0, 0.5) == 0
    assert peel_threshold(3, 0.1) == 6


def test_peel_threshold_is_exact_on_decimal_inputs():
    # 0.29 the double sits just under the decimal; exact arithmetic on the
    # binary value floors one short, reading the printed decimal does not
    assert peel_threshold(100, 0.29) == 229
    assert math.floor((2 + Fraction(0.29)) * 100) == 228
    # a gamma that is itself a float artifact (0.5/3) floors by its printed
    # decimal value: 120 * (2 + 0.1666...6) lands just under 260
    assert peel_threshold(120, 0.5 / 3) == 259


def test_peel_threshold_validation():
    with pytest.raises(ValueError, match="gamma"):
        peel_threshold(4, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        peel_threshold(-1, 0.5)


def test_max_rounds_bound_values():
    assert max_rounds_bound(100_000, 0.5) == 52
    assert max_rounds_bound(4096, 1 / 6) == 104
    assert max_rounds_bound(1024, 1.0) == 18
    assert max_rounds_bound(2, 0.5) == 4


def test_star_peels_leaves_then_center():
    lp = peel(EdgeStream.from_edges(6, STAR6_EDGES), alpha=1, gamma=0.5)
    assert lp.k == 2
    assert lp.passes == 2
    assert lp.layer == [2, 1, 1, 1, 1, 1]
    assert lp.witnessed_degree == [0, 1, 1, 1, 1, 1]
    assert lp.threshold == 2


def test_low_degree_graphs_peel_in_one_round():
    path = [(i, i + 1) for i in range(7)]
    lp = peel(EdgeStream.from_edges(8, path), alpha=1, gamma=0.5)
    assert lp.k == 1
    assert lp.layer == [1] * 8
    lp = peel(EdgeStream.from_edges(4, K4_EDGES), alpha=2, gamma=0.5)
    assert lp.k == 1
    assert lp.witnessed_degree == [3, 3, 3, 3]


def test_edgeless_and_empty_vertex_sets():
    lp = peel(EdgeStream.from_edges(4, []), alpha=1, gamma=0.5)
    assert (lp.k, lp.passes) == (1, 1)
    assert lp.layer == [1, 1, 1, 1]
    lp = peel(EdgeStream.from_edges(0, []), alpha=1, gamma=0.5)
    assert (lp.k, lp.n, lp.passes) == (0, 0, 0)


def test_stall_on_first_round():
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    stream = EdgeStream.from_edges(5, cycle)
    with pytest.raises(PeelStalled, match="stalled in round 1"):
        try:
            peel(stream, alpha=0, gamma=0.5)
        except PeelStalled as exc:
            assert exc.round_no == 1
            assert exc.active_count == 5
            assert exc.threshold == 0
            assert exc.alpha == 0
            assert exc.gamma == 0.5
            raise
    assert stream.pass_count == 1  # the stalled round's pass was spent


def test_stall_after_progress():
    # a pendant leaf peels in round 1, then K4 jams at threshold 2
    edges = K4_EDGES + [(0, 4)]
    stream = EdgeStream.from_edges(5, edges)
    with pytest.raises(PeelStalled) as info:
        peel(stream, alpha=1, gamma=0.5)
    assert info.value.round_no == 2
    assert info.value.active_count == 4
    assert stream.pass_count == 2


def test_partition_requires_completion():
    state = PeelState(2, alpha=1, gamma=0.5)
    with pytest.raises(RuntimeError, match="not finished"):
        state.partition()


def test_witnessed_degree_never_exceeds_threshold():
    for spec in (
        GenSpec(family="forest-union", n=64, alpha=3, seed=21),
        GenSpec(family="gnm", n=64, m=200, seed=22),
        GenSpec(family="petersen", n=10),
    ):
        edges, meta = generate(spec)
        alpha = spec.alpha or math.ceil((meta.max_degree + 1) / 2)
        lp = peel(EdgeStream.from_edges(spec.n, edges), alpha, gamma=0.5)
        assert max(lp.witnessed_degree) <= lp.threshold
        assert sorted(set(lp.layer)) == list(range(1, lp.k + 1))


def test_certified_forest_union_round_count_and_forward_degree():
    # construction arboricity <= 8 == the alpha handed to peel, so the
    # logarithmic round bound and the threshold guarantee both apply
    edges, _ = generate(GenSpec(family="forest-union", n=4096, alpha=8, seed=15))
    stream = EdgeStream.from_edges(4096, edges)
    lp = peel(stream, alpha=8, gamma=0.5)
    assert lp.k == 2
    assert lp.k <= max_rounds_bound(4096, 0.5) == 38
    assert stream.pass_count == lp.passes == lp.k
    assert measure_forward_degree(stream, lp) <= lp.threshold == 20
    assert stream.pass_count == lp.k + 1  # verification cost is visible


def test_orient_prefers_lower_layer_then_lower_id():
    key = orientation_key(make_partition([1, 2, 1, 1, 1, 1, 1, 1]))
    assert key[0] < key[1]
    assert key[1] == 2 * 8 + 1
    assert key[3] < key[7]  # same layer: id breaks the tie


def test_forward_degree_examples():
    single = EdgeStream.from_edges(2, [(0, 1)])
    lp = peel(EdgeStream.from_edges(2, [(0, 1)]), alpha=1, gamma=0.5)
    assert measure_forward_degree(single, lp) == 1
    empty = EdgeStream.from_edges(3, [])
    assert measure_forward_degree(empty, peel(EdgeStream.from_edges(3, []), 1, 0.5)) == 0
    star_lp = peel(EdgeStream.from_edges(6, STAR6_EDGES), alpha=1, gamma=0.5)
    assert measure_forward_degree(EdgeStream.from_edges(6, STAR6_EDGES), star_lp) == 1


def test_orientation_is_acyclic_and_matches_forward_count():
    edges, _ = generate(GenSpec(family="petersen", n=10))
    lp = peel(EdgeStream.from_edges(10, edges), alpha=2, gamma=0.5)
    key = orientation_key(lp)
    out_deg = [0] * 10
    for u, w in edges.tolist():
        assert key[u] != key[w]  # strictly ordered, so no directed cycle fits
        out_deg[min(u, w, key=key.__getitem__)] += 1
    measured = measure_forward_degree(EdgeStream.from_edges(10, edges), lp)
    # forward count includes same-layer neighbors on both sides, so it
    # dominates the true out-degree
    assert max(out_deg) <= measured <= lp.threshold
    assert max(out_deg) == 3  # single layer: vertex 0 points at all neighbors


def test_peel_counts_duplicate_edges_but_still_finishes():
    stream = EdgeStream.from_edges(2, [(0, 1), (0, 1), (1, 0)])
    lp = peel(stream, alpha=2, gamma=0.5)
    assert lp.k == 1
    assert lp.witnessed_degree == [3, 3]  # multiplicity is visible to peel


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=12),
    st.data(),
)
def test_orient_ignores_endpoint_listing_order(layers, data):
    lp = make_partition(layers)
    n = len(layers)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
    key = orientation_key(lp)
    assert (key[u] < key[v]) != (key[v] < key[u])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.integers(1, 3), st.randoms(use_true_random=False))
def test_peel_never_stalls_when_alpha_is_honest(n, alpha, rnd):
    """alpha >= true arboricity makes the threshold beat the degeneracy, so
    every round finds something to peel."""
    edges = []
    for t in range(alpha):  # alpha spanning-ish forests, Kruskal style
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _ in range(3 * n):
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a == b:
                continue
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                edges.append((min(a, b), max(a, b)))
    edges = sorted(set(edges))
    stream = EdgeStream.from_edges(n, edges)
    lp = peel(stream, alpha=alpha, gamma=0.5)
    assert lp.k <= max_rounds_bound(n, 0.5)
    assert max(lp.witnessed_degree) <= lp.threshold
    assert measure_forward_degree(EdgeStream.from_edges(n, edges), lp) <= lp.threshold
