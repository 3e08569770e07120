"""Bounded-arboricity coloring: config arithmetic, offline stage, full runs."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    EdgeStream,
    GenSpec,
    LayerPartition,
    PeelStalled,
    PhasePartition,
    derive_config,
    generate,
    measure_max_degree,
    nash_williams_arboricity,
    offline_dag_color,
    peel_threshold,
    run_arboricity_coloring,
    verify_proper,
)
from streamcolor.arb_color import out_degree_profile, per_class_out_bound
from streamcolor.core import id_dtype
from streamcolor.peel import peel

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def flat_partition(n: int) -> LayerPartition:
    return LayerPartition(
        k=1, layer=[1] * n, threshold=2, witnessed_degree=[0] * n,
    )


def test_derive_config_values():
    cfg = derive_config(4096, 120, 0.5, 1.0)
    assert cfg.eps_prime == pytest.approx(1 / 12)
    assert cfg.gamma == pytest.approx(1 / 6)
    assert cfg.ell == 2
    assert derive_config(4, 2, 0.5, 1.0).ell == 1
    assert derive_config(512, 16, 3.0, 0.5).ell == 6
    assert derive_config(4096, 192, 1.5, 1.0).ell == 10
    assert derive_config(4096, 512, 1.5, 1.0).ell == 27


def test_derive_config_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        derive_config(1, 2, 0.5, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        derive_config(8, -1, 0.5, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        derive_config(8, 2, 0.0, 1.0)
    with pytest.raises(ValueError, match="c must be"):
        derive_config(8, 2, 0.5, 0.0)


def test_per_class_out_bound_values():
    assert per_class_out_bound(4096, 0.25, 1.0) == pytest.approx(60.0)
    assert per_class_out_bound(4096, 1 / 12, 1.0) == pytest.approx(156.0)
    assert per_class_out_bound(2**14, 1 / 12, 1.0) == pytest.approx(182.0)


@pytest.mark.parametrize(
    "n, alpha, epsilon",
    [(4096, 192, 1.5), (4096, 512, 1.5)],
)
def test_color_budget_arithmetic_at_pinned_combos(n, alpha, epsilon):
    # worst case per class is the w.h.p. out-degree cap plus one; the pinned
    # combos keep ell * (cap + 1) under (2 + epsilon) * alpha
    cfg = derive_config(n, alpha, epsilon, 1.0)
    cap = per_class_out_bound(n, cfg.eps_prime, 1.0)
    assert cap == int(cap)
    assert cfg.ell * (int(cap) + 1) <= (2 + epsilon) * alpha


def chunk(*edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def test_run_stores_each_same_class_pair_once():
    # seed 1 draws classes [1 1 1 1 2 1 2 2]; (3, 4) and (5, 7) cross classes,
    # and the repeats of (0, 1) and (2, 3), one of each swapped, store nothing
    assert derive_config(8, 2, 3.0, 0.6).ell == 2
    edges = [(0, 1), (1, 0), (0, 1), (2, 3), (4, 6), (3, 4), (5, 7), (6, 7), (3, 2)]
    coloring, metrics = run_arboricity_coloring(
        EdgeStream.from_edges(8, edges), alpha=2, epsilon=3.0, c=0.6, seed=1
    )
    assert metrics.peak_stored_edges == 4
    # with repeats counted, vertex 0 would point at 1 three times
    assert metrics.per_class_out_degree == [1, 1]
    assert verify_proper(EdgeStream.from_edges(8, edges), coloring) == []


def test_out_degree_profile_examples():
    lp = flat_partition(3)
    one = PhasePartition(ell=1, class_of=np.ones(3, dtype=np.int64), seed=0)
    assert out_degree_profile(*chunk((0, 1)), lp, one).tolist() == [1]
    triangle = chunk((0, 1), (0, 2), (1, 2))
    # triangle on one layer: vertex 0 points at both higher ids
    assert out_degree_profile(*triangle, lp, one).tolist() == [2]
    # only same-class edges count: class 1 keeps (0, 2), class 2 is alone
    split = PhasePartition(ell=2, class_of=np.array([1, 2, 1], dtype=np.int64), seed=0)
    assert out_degree_profile(*triangle, lp, split).tolist() == [1, 0]


def one_class(n: int) -> PhasePartition:
    return PhasePartition(ell=1, class_of=np.ones(n, dtype=np.int64), seed=0)


def test_offline_dag_color_path():
    coloring, out_degrees = offline_dag_color(
        *chunk((0, 1), (1, 2)), flat_partition(3), one_class(3)
    )
    assert coloring.assignment == [0, 1, 0]
    assert coloring.colors_used == 2
    assert out_degrees == [1]


def test_offline_dag_color_singleton_and_offset_palette():
    single, _ = offline_dag_color(*chunk(), flat_partition(1), one_class(1))
    assert single.assignment == [0]
    # class 2's path 2-3-4 colors in the block [2, 4) after class 1's [0, 2)
    split = PhasePartition(ell=2, class_of=np.array([1, 1, 2, 2, 2]), seed=0)
    two_classes, out_degrees = offline_dag_color(
        *chunk((0, 1), (2, 3), (3, 4)), flat_partition(5), split
    )
    assert two_classes.assignment == [1, 0, 2, 3, 2]
    assert two_classes.palette_size == 4
    assert out_degrees == [1, 1]


def test_offline_dag_color_respects_orientation():
    # center sits below the leaves, so it points at all of them and must
    # dodge their shared first color
    lp = LayerPartition(
        k=2, layer=[1, 2, 2, 2], threshold=2, witnessed_degree=[0] * 4,
    )
    coloring, out_degrees = offline_dag_color(
        *chunk((0, 1), (0, 2), (0, 3)), lp, one_class(4)
    )
    assert coloring.assignment == [1, 0, 0, 0]
    assert coloring.colors_used == 2
    assert out_degrees == [3]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(1, 3), st.integers(1, 3), st.data())
def test_offline_dag_color_ignores_endpoint_order(n, k, ell, data):
    # the edges are oriented inside by lp.key(), so swapping the endpoints of
    # any subset of them gives the same coloring and out-degrees
    layer = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    lp = LayerPartition(k=k, layer=layer, threshold=0, witnessed_degree=[0] * n)
    class_of = data.draw(st.lists(st.integers(1, ell), min_size=n, max_size=n))
    part = PhasePartition(ell=ell, class_of=np.array(class_of, dtype=np.int64), seed=0)
    same_class = [(a, b) for a in range(n) for b in range(a + 1, n) if class_of[a] == class_of[b]]
    edges = data.draw(st.lists(st.sampled_from(same_class), unique=True)) if same_class else []
    swap = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    swapped = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, swap)]
    expected = offline_dag_color(*chunk(*edges), lp, part)
    assert offline_dag_color(*chunk(*swapped), lp, part) == expected
    coloring, out_degrees = expected
    assert all(coloring.assignment[a] != coloring.assignment[b] for a, b in edges)
    assert out_degrees == out_degree_profile(*chunk(*swapped), lp, part).tolist()


def first_free_reference(edges, lp: LayerPartition, part: PhasePartition):
    """offline_dag_color's (assignment, palette size, out-degrees) from
    per-vertex out-neighbor sets, in plain Python."""
    key, class_of = lp.key().tolist(), part.class_of.tolist()
    out = [set() for _ in range(lp.n)]
    for a, b in edges:
        tail, head = (a, b) if key[a] < key[b] else (b, a)
        out[tail].add(head)
    widest = [0] * part.ell
    for x, heads in enumerate(out):
        widest[class_of[x] - 1] = max(widest[class_of[x] - 1], len(heads))
    first = [sum(w + 1 for w in widest[:i]) for i in range(part.ell)]
    assignment = [-1] * lp.n
    for x in sorted(range(lp.n), key=key.__getitem__, reverse=True):
        used = {assignment[w] for w in out[x]}
        assignment[x] = next(c for c in itertools.count(first[class_of[x] - 1]) if c not in used)
    return assignment, sum(w + 1 for w in widest), widest


@pytest.mark.parametrize("n", [200, 3000, 70_000])  # uint8, uint16 and uint32 ids
def test_offline_dag_color_equals_a_first_free_reference(n):
    # a forest union on 200 vertices, half of them moved to the top ids below
    # n, in three random layers and two classes; the distinct same-class edges
    # go in at id width, and as read-only strided views of the same ids
    edges, _ = generate(GenSpec(family="forest-union", n=200, alpha=4, seed=n))
    edges = np.where(edges < 100, edges, edges + (n - 200))
    rng = np.random.default_rng(n)
    lp = LayerPartition(k=3, layer=rng.integers(1, 4, size=n).tolist(), threshold=0,
                        witnessed_degree=[0] * n)
    part = PhasePartition.draw(n, 2, seed=n)
    edges = edges[part.same(edges[:, 0], edges[:, 1])]
    edges = np.asarray(sorted({(min(a, b), max(a, b)) for a, b in edges.tolist()}))
    u, v = edges.T.astype(id_dtype(n))
    assert u.dtype.itemsize == {200: 1, 3000: 2, 70_000: 4}[n]
    coloring, out_degrees = offline_dag_color(u, v, lp, part)
    want = first_free_reference(edges.tolist(), lp, part)
    assert (coloring.assignment, coloring.palette_size, out_degrees) == want
    views = [np.repeat(x, 2)[::2] for x in (u, v)]
    for view in views:
        view.flags.writeable = False
    assert offline_dag_color(*views, lp, part) == (coloring, out_degrees)


def test_k4_trace():
    coloring, metrics = run_arboricity_coloring(
        EdgeStream.from_edges(4, K4_EDGES), alpha=2, epsilon=0.5, c=1.0, seed=0
    )
    assert coloring.assignment == [3, 2, 1, 0]
    assert coloring.colors_used == 4
    assert (metrics.ell, metrics.k, metrics.passes) == (1, 1, 1)
    assert metrics.m == 6
    assert metrics.per_class_out_degree == [3]
    assert metrics.peak_stored_edges == 6
    assert not metrics.stalled
    assert verify_proper(EdgeStream.from_edges(4, K4_EDGES), coloring) == []


def test_star_two_rounds():
    edges = [(0, i) for i in range(1, 64)]
    stream = EdgeStream.from_edges(64, edges)
    coloring, metrics = run_arboricity_coloring(stream, alpha=1, epsilon=0.5, c=1.0, seed=0)
    assert (metrics.k, metrics.passes) == (2, 2)
    assert stream.pass_count == 2
    assert metrics.ell == 1
    assert coloring.assignment[0] == 0  # center colored first, from the top layer
    assert set(coloring.assignment[1:]) == {1}
    assert coloring.colors_used == 2


def test_empty_graph_single_color():
    coloring, metrics = run_arboricity_coloring(
        EdgeStream.from_edges(4, []), alpha=1, epsilon=0.5, c=1.0, seed=0
    )
    assert coloring.assignment == [0, 0, 0, 0]
    assert metrics.colors_used == 1
    assert metrics.k == 1


def test_forest_union_small_budget():
    # alpha=2 certified by construction; single class, so the color count is
    # capped by threshold + 1 = 7 outright
    edges, _ = generate(GenSpec(family="forest-union", n=100, alpha=2, seed=5))
    stream = EdgeStream.from_edges(100, edges)
    coloring, metrics = run_arboricity_coloring(stream, alpha=2, epsilon=3.0, c=1.0, seed=0)
    assert metrics.ell == 1
    assert coloring.colors_used <= peel_threshold(2, 1.0) + 1 == 7
    assert verify_proper(EdgeStream.from_edges(100, edges), coloring) == []


def test_stall_attaches_partial_metrics():
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    stream = EdgeStream.from_edges(5, cycle)
    with pytest.raises(PeelStalled) as info:
        run_arboricity_coloring(stream, alpha=0, epsilon=0.5, c=1.0, seed=0)
    exc = info.value
    assert (exc.round_no, exc.active_count) == (1, 5)
    m = exc.metrics
    assert m is not None
    assert m.stalled
    assert (m.k, m.passes) == (1, 1)
    assert m.peak_stored_edges == 5  # single class stored the whole cycle
    assert m.colors_used == 0
    assert m.per_class_out_degree == []


def test_pass_sharing_costs_exactly_k_passes():
    edges, _ = generate(GenSpec(family="forest-union", n=512, alpha=16, seed=17))
    stream = EdgeStream.from_edges(512, edges)
    coloring, metrics = run_arboricity_coloring(stream, alpha=16, epsilon=3.0, c=0.5, seed=4)
    assert stream.pass_count == metrics.passes == metrics.k
    assert metrics.ell == 6
    assert metrics.m == 7916
    assert coloring.colors_used <= 80  # (2 + 3) * 16
    assert verify_proper(EdgeStream.from_edges(512, edges), coloring) == []


def test_out_degree_profile_matches_run_metrics():
    edges, _ = generate(GenSpec(family="forest-union", n=512, alpha=16, seed=17))
    cfg = derive_config(512, 16, 3.0, 0.5)
    lp = peel(EdgeStream.from_edges(512, edges), alpha=16, gamma=cfg.gamma)
    part = PhasePartition.draw(512, cfg.ell, 4)
    profile = out_degree_profile(edges[:, 0], edges[:, 1], lp, part)
    _, metrics = run_arboricity_coloring(
        EdgeStream.from_edges(512, edges), alpha=16, epsilon=3.0, c=0.5, seed=4
    )
    assert profile.tolist() == metrics.per_class_out_degree
    assert int(profile.max()) <= lp.threshold


def test_out_degree_profile_empty_graph_is_zero():
    lp = flat_partition(3)
    empty = np.zeros(0, dtype=np.int64)
    one = PhasePartition(ell=1, class_of=np.ones(3, dtype=np.int64), seed=0)
    profile = out_degree_profile(empty, empty, lp, one)
    assert profile.tolist() == [0]


def test_palette_blocks_are_disjoint_per_class():
    edges, _ = generate(GenSpec(family="forest-union", n=512, alpha=16, seed=17))
    coloring, metrics = run_arboricity_coloring(
        EdgeStream.from_edges(512, edges), alpha=16, epsilon=3.0, c=0.5, seed=4
    )
    class_of = PhasePartition.draw(512, metrics.ell, 4).class_of
    widths = [d + 1 for d in metrics.per_class_out_degree]
    bases = [0]
    for w in widths[:-1]:
        bases.append(bases[-1] + w)
    for v, color in enumerate(coloring.assignment):
        i = int(class_of[v]) - 1
        assert bases[i] <= color < bases[i] + widths[i]


def test_properness_and_budget_on_small_corpus():
    for spec in (
        GenSpec(family="complete", n=5),
        GenSpec(family="star", n=16),
        GenSpec(family="petersen", n=10),
        GenSpec(family="forest-union", n=64, alpha=3, seed=21),
        GenSpec(family="gnm", n=64, m=200, seed=22, order="layered-adversarial"),
    ):
        edges, _ = generate(spec)
        g = EdgeStream.from_edges(spec.n, edges)
        alpha = nash_williams_arboricity(g) if g.n <= 20 else None
        if alpha is None:
            # sandwich bound keeps alpha honest without the exact oracle;
            # corpus graphs are simple, so the counted max degree is exact
            alpha = math.ceil((measure_max_degree(g) + 1) / 2)
        for seed in range(3):
            stream = EdgeStream.from_edges(spec.n, edges)
            coloring, metrics = run_arboricity_coloring(stream, alpha, 0.5, 1.0, seed)
            cfg = derive_config(spec.n, alpha, 0.5, 1.0)
            assert metrics.passes == metrics.k
            assert verify_proper(EdgeStream.from_edges(spec.n, edges), coloring) == []
            thr = peel_threshold(alpha, cfg.gamma)
            assert all(d <= thr for d in metrics.per_class_out_degree)
            assert coloring.colors_used <= cfg.ell * (thr + 1)


def test_large_forest_union_three_runs_and_ten_profiles():
    """Bounded-arboricity instance at scale: runs stay proper and inside the
    hard threshold budget; ten partition draws keep every class's out-degree
    under the w.h.p. cap without needing ten full runs (the profile depends
    only on the partition, and peeling cannot stall when alpha is honest)."""
    n = 2**14
    edges, _ = generate(GenSpec(family="forest-union", n=n, alpha=64, seed=23))
    cfg = derive_config(n, 64, 0.5, 1.0)
    lp = peel(EdgeStream.from_edges(n, edges), alpha=64, gamma=cfg.gamma)
    cap = per_class_out_bound(n, cfg.eps_prime, 1.0)
    assert lp.threshold <= cap  # budget holds for any partition on this combo
    for seed in range(10):
        part = PhasePartition.draw(n, cfg.ell, seed)
        profile = out_degree_profile(edges[:, 0], edges[:, 1], lp, part)
        assert int(profile.max()) <= cap
    for seed in (0, 4, 9):
        stream = EdgeStream.from_edges(n, edges)
        coloring, metrics = run_arboricity_coloring(stream, 64, 0.5, 1.0, seed)
        assert metrics.passes == metrics.k == lp.k
        assert coloring.colors_used <= (2 + 0.5) * 64
        assert verify_proper(EdgeStream.from_edges(n, edges), coloring) == []


@st.composite
def small_graph(draw):
    n = draw(st.integers(2, 10))
    mask = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask[idx]:
                edges.append((u, v))
            idx += 1
    return n, edges


@settings(max_examples=100, deadline=None)
@given(small_graph(), st.integers(0, 2**32 - 1))
def test_random_small_graphs_proper_within_budget(ne, seed):
    # alpha from the exact oracle can never stall: the threshold beats the
    # degeneracy, so every round peels something
    n, edges = ne
    alpha = nash_williams_arboricity(EdgeStream.from_edges(n, edges))
    stream = EdgeStream.from_edges(n, edges)
    coloring, metrics = run_arboricity_coloring(stream, alpha, 0.5, 1.0, seed)
    cfg = derive_config(n, alpha, 0.5, 1.0)
    assert metrics.passes == metrics.k
    assert coloring.colors_used <= cfg.ell * (peel_threshold(alpha, cfg.gamma) + 1)
    assert verify_proper(EdgeStream.from_edges(n, edges), coloring) == []
