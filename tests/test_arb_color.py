"""Bounded-arboricity coloring: config arithmetic, offline stage, full runs."""

from __future__ import annotations

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
    derive_config,
    generate,
    measure_max_degree,
    nash_williams_arboricity,
    offline_dag_color,
    peel,
    peel_threshold,
    run_arboricity_coloring,
    verify_proper,
)
from streamcolor.arb_color import out_degree_profile, per_class_out_bound
from streamcolor.seeding import PHASE1, rng_for

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def flat_partition(n: int) -> LayerPartition:
    return LayerPartition(
        k=1, layer=[1] * n, alpha=1, gamma=0.5,
        threshold=2, witnessed_degree=[0] * n, passes=1,
    )


def test_derive_config_values():
    cfg = derive_config(4096, 120, 0.5, 1.0, seed=0)
    assert cfg.eps_prime == pytest.approx(1 / 12)
    assert cfg.gamma == pytest.approx(1 / 6)
    assert cfg.ell == 2
    assert derive_config(4, 2, 0.5, 1.0, seed=0).ell == 1
    assert derive_config(512, 16, 3.0, 0.5, seed=0).ell == 6
    assert derive_config(4096, 192, 1.5, 1.0, seed=0).ell == 10
    assert derive_config(4096, 512, 1.5, 1.0, seed=0).ell == 27


def test_derive_config_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        derive_config(1, 2, 0.5, 1.0, 0)
    with pytest.raises(ValueError, match="alpha"):
        derive_config(8, -1, 0.5, 1.0, 0)
    with pytest.raises(ValueError, match="epsilon"):
        derive_config(8, 2, 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="c must be"):
        derive_config(8, 2, 0.5, 0.0, 0)


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
    cfg = derive_config(n, alpha, epsilon, 1.0, seed=0)
    cap = per_class_out_bound(n, cfg.eps_prime, 1.0)
    assert cap == int(cap)
    assert cfg.ell * (int(cap) + 1) <= (2 + epsilon) * alpha


def chunk(*edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def test_run_stores_each_same_class_pair_once():
    # seed 1 draws classes [1 1 1 1 2 1 2 2]; (3, 4) and (5, 7) cross classes,
    # and the repeats of (0, 1) and (2, 3), one of each swapped, store nothing
    assert derive_config(8, 2, 3.0, 0.6, seed=1).ell == 2
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
    one = np.ones(3, dtype=np.int64)
    assert out_degree_profile(*chunk((0, 1)), lp, one, 1).tolist() == [1]
    triangle = chunk((0, 1), (0, 2), (1, 2))
    # triangle on one layer: vertex 0 points at both higher ids
    assert out_degree_profile(*triangle, lp, one, 1).tolist() == [2]
    # only same-class edges count: class 1 keeps (0, 2), class 2 is alone
    assert out_degree_profile(*triangle, lp, np.array([1, 2, 1]), 2).tolist() == [1, 0]


def test_offline_dag_color_path():
    coloring = offline_dag_color(*chunk((0, 1), (1, 2)), flat_partition(3), np.ones(3), [1])
    assert coloring.assignment == [0, 1, 0]
    assert coloring.colors_used == 2


def test_offline_dag_color_singleton_and_offset_palette():
    single = offline_dag_color(*chunk(), flat_partition(1), np.ones(1), [0])
    assert single.assignment == [0]
    # class 2's path 2-3-4 colors in the block [2, 4) after class 1's [0, 2)
    two_classes = offline_dag_color(
        *chunk((0, 1), (2, 3), (3, 4)), flat_partition(5), np.array([1, 1, 2, 2, 2]), [1, 1]
    )
    assert two_classes.assignment == [1, 0, 2, 3, 2]
    assert two_classes.palette_size == 4


def test_offline_dag_color_respects_orientation():
    # center sits below the leaves, so it points at all of them and must
    # dodge their shared first color
    lp = LayerPartition(
        k=2, layer=[1, 2, 2, 2], alpha=1, gamma=0.5,
        threshold=2, witnessed_degree=[0] * 4, passes=2,
    )
    coloring = offline_dag_color(*chunk((0, 1), (0, 2), (0, 3)), lp, np.ones(4), [3])
    assert coloring.assignment == [1, 0, 0, 0]
    assert coloring.colors_used == 2


def test_offline_dag_color_rejects_small_palette():
    with pytest.raises(AssertionError, match="palette too small"):
        offline_dag_color(*chunk(*K4_EDGES), flat_partition(4), np.ones(4), [2])


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
    cfg = derive_config(512, 16, 3.0, 0.5, seed=4)
    lp = peel(EdgeStream.from_edges(512, edges), alpha=16, gamma=cfg.gamma)
    class_of = rng_for(4, PHASE1).integers(1, cfg.ell + 1, size=512, dtype=np.int64)
    profile = out_degree_profile(edges[:, 0], edges[:, 1], lp, class_of, cfg.ell)
    _, metrics = run_arboricity_coloring(
        EdgeStream.from_edges(512, edges), alpha=16, epsilon=3.0, c=0.5, seed=4
    )
    assert profile.tolist() == metrics.per_class_out_degree
    assert int(profile.max()) <= lp.threshold


def test_out_degree_profile_empty_graph_is_zero():
    lp = flat_partition(3)
    empty = np.zeros(0, dtype=np.int64)
    profile = out_degree_profile(empty, empty, lp, np.ones(3, dtype=np.int64), 1)
    assert profile.tolist() == [0]


def test_palette_blocks_are_disjoint_per_class():
    edges, _ = generate(GenSpec(family="forest-union", n=512, alpha=16, seed=17))
    coloring, metrics = run_arboricity_coloring(
        EdgeStream.from_edges(512, edges), alpha=16, epsilon=3.0, c=0.5, seed=4
    )
    class_of = rng_for(4, PHASE1).integers(1, metrics.ell + 1, size=512, dtype=np.int64)
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
            cfg = derive_config(spec.n, alpha, 0.5, 1.0, seed)
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
    cfg = derive_config(n, 64, 0.5, 1.0, seed=0)
    lp = peel(EdgeStream.from_edges(n, edges), alpha=64, gamma=cfg.gamma)
    cap = per_class_out_bound(n, cfg.eps_prime, 1.0)
    assert lp.threshold <= cap  # budget holds for any partition on this combo
    for seed in range(10):
        class_of = rng_for(seed, PHASE1).integers(1, cfg.ell + 1, size=n, dtype=np.int64)
        profile = out_degree_profile(edges[:, 0], edges[:, 1], lp, class_of, cfg.ell)
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
    cfg = derive_config(n, alpha, 0.5, 1.0, seed)
    assert metrics.passes == metrics.k
    assert coloring.colors_used <= cfg.ell * (peel_threshold(alpha, cfg.gamma) + 1)
    assert verify_proper(EdgeStream.from_edges(n, edges), coloring) == []
