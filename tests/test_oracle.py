"""Offline oracles: the reference machinery everything else is judged against."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    Coloring,
    EdgeStream,
    degeneracy,
    greedy_color,
    measure_max_degree,
    nash_williams_arboricity,
    repeat_counts,
    verify_proper,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_coloring_counts():
    c = Coloring(assignment=[3, 1, 3], palette_size=5)
    assert c.colors_used == 2
    assert Coloring(assignment=[], palette_size=0).colors_used == 0


def test_verify_proper_stored_graph():
    # an in-memory edge list, wrapped as the stream every oracle reads
    g = EdgeStream.from_edges(4, K4_EDGES)
    assert verify_proper(g, Coloring([0, 1, 2, 3], 4)) == []
    bad = verify_proper(g, Coloring([0, 1, 0, 1], 2))
    assert bad == [(0, 2), (1, 3)]
    k3 = EdgeStream.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert verify_proper(k3, Coloring([0, 1, 2], 3)) == []
    one_edge = EdgeStream.from_edges(2, [(0, 1)])
    assert verify_proper(one_edge, Coloring([5, 5], 6)) == [(0, 1)]


def test_verify_proper_stream_route():
    s = EdgeStream.from_edges(4, K4_EDGES)
    assert verify_proper(s, Coloring([0, 1, 2, 3], 4)) == []
    assert s.pass_count == 1
    s = EdgeStream.from_edges(4, K4_EDGES)
    assert verify_proper(s, Coloring([0, 1, 0, 1], 2)) == [(0, 2), (1, 3)]


def test_verify_proper_dedups_repeated_stream_edges():
    s = EdgeStream.from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert verify_proper(s, Coloring([5, 5], 6)) == [(0, 1)]


def test_verify_proper_requires_total_assignment():
    g = EdgeStream.from_edges(4, K4_EDGES)
    with pytest.raises(ValueError, match="missing a vertex"):
        verify_proper(g, Coloring([0, 1], 2))


def test_greedy_color_id_order_on_k4():
    g = EdgeStream.from_edges(4, K4_EDGES)
    c = greedy_color(g, [0, 1, 2, 3])
    assert c.assignment == [0, 1, 2, 3]
    assert c.palette_size == 4


def test_greedy_color_known_small_cases():
    k3 = EdgeStream.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        assert greedy_color(k3, order).colors_used == 3  # clique forces distinct
    p4 = EdgeStream.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c = greedy_color(p4, [0, 1, 2, 3])
    assert c.assignment == [0, 1, 0, 1]


def test_petersen_reverse_degeneracy_at_most_four(small_graphs):
    g = small_graphs["petersen"]
    res = degeneracy(g)
    assert res.d == 3
    c = greedy_color(g, list(reversed(res.order)))
    assert verify_proper(g, c) == []
    assert c.colors_used <= 4


def test_greedy_color_star_order_matters():
    star = EdgeStream.from_edges(5, [(0, i) for i in range(1, 5)])
    center_first = greedy_color(star, [0, 1, 2, 3, 4])
    assert center_first.colors_used == 2
    leaves_first = greedy_color(star, [1, 2, 3, 4, 0])
    assert leaves_first.assignment == [1, 0, 0, 0, 0]


def test_greedy_color_rejects_non_permutation():
    g = EdgeStream.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="permutation"):
        greedy_color(g, [0, 1, 1])
    with pytest.raises(ValueError, match="permutation"):
        greedy_color(g, [0, 1])


small_graph = st.builds(
    lambda n, picks: (n, [(u, v % n) for u, v in picks if u != v % n and u < n]),
    st.integers(2, 9),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
)


@settings(max_examples=150, deadline=None)
@given(small_graph, st.randoms(use_true_random=False))
def test_greedy_color_proper_within_max_degree_plus_one(ng, rnd):
    n, pairs = ng  # may repeat a pair, in either endpoint order
    g = EdgeStream.from_edges(n, pairs)
    distinct = {(min(u, v), max(u, v)) for u, v in pairs}
    degree = [0] * n
    for u, v in distinct:
        degree[u] += 1
        degree[v] += 1
    order = list(range(n))
    rnd.shuffle(order)
    c = greedy_color(g, order)
    assert verify_proper(g, c) == []
    assert c.colors_used <= max(degree) + 1
    assert c.palette_size == max(degree) + 1
    assert all(0 <= col < c.palette_size for col in c.assignment)


@settings(max_examples=150, deadline=None)
@given(small_graph)
def test_repeat_counts_match_pair_counter(ng):
    n, pairs = ng  # may repeat a pair, in either endpoint order
    counts = Counter((min(u, v), max(u, v)) for u, v in pairs)
    r = repeat_counts(EdgeStream.from_edges(n, pairs))
    assert (r.m, r.distinct) == (len(pairs), len(counts))
    assert r.repeats == len(pairs) - len(counts)
    assert r.max_multiplicity == max(counts.values(), default=0)


@pytest.mark.parametrize(
    "edges, n, expect",
    [
        (K4_EDGES, 4, 3),
        ([(0, 1), (1, 2), (2, 3)], 4, 1),       # path
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5, 2),  # cycle
        ([], 3, 0),
    ],
)
def test_degeneracy_known_values(edges, n, expect):
    assert degeneracy(EdgeStream.from_edges(n, edges)).d == expect


def test_degeneracy_order_is_min_degree_lowest_id():
    g = EdgeStream.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    res = degeneracy(g)
    assert res.order == [0, 1, 2, 3]
    assert sorted(res.order) == list(range(4))


def test_degeneracy_reverse_order_greedy_bound(small_graphs):
    for g in small_graphs.values():
        res = degeneracy(g)
        c = greedy_color(g, list(reversed(res.order)))
        assert verify_proper(g, c) == []
        assert c.colors_used <= res.d + 1


@pytest.mark.parametrize(
    "edges, n, expect",
    [
        (K4_EDGES, 4, 2),
        ([(0, 1), (1, 2), (0, 3)], 4, 1),       # tree
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5, 2),  # cycle
        ([], 4, 0),
        ([], 1, 0),
    ],
)
def test_nash_williams_known_values(edges, n, expect):
    assert nash_williams_arboricity(EdgeStream.from_edges(n, edges)) == expect


def test_nash_williams_k5_and_petersen(small_graphs):
    assert nash_williams_arboricity(small_graphs["k5"]) == 3
    assert nash_williams_arboricity(small_graphs["petersen"]) == 2


def test_nash_williams_size_cap():
    with pytest.raises(ValueError, match="n <= 20"):
        nash_williams_arboricity(EdgeStream.from_edges(21, []))


def test_degeneracy_sandwich_on_small_corpus(small_graphs):
    # alpha <= d <= 2*alpha - 1, and alpha <= ceil((max_degree + 1) / 2);
    # corpus graphs are simple, so the counted max degree is exact
    for label, g in small_graphs.items():
        alpha = nash_williams_arboricity(g)
        d = degeneracy(g).d
        max_degree = measure_max_degree(g)
        assert alpha <= d <= 2 * alpha - 1, label
        assert d <= max_degree, label
        assert alpha <= math.ceil((max_degree + 1) / 2), label
