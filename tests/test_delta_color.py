"""One-pass coloring: parameter arithmetic, the recolor rule, run contracts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    ClassPalettes,
    ColoringAborted,
    EdgeStream,
    GenSpec,
    OnlineColorState,
    PhasePartition,
    build_phase1,
    class_count,
    generate,
    palette_size,
    run_delta_coloring,
    verify_proper,
)
from streamcolor.delta_color import DEFAULT_C, mono_degree_profile

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4_stream() -> EdgeStream:
    return EdgeStream.from_edges(4, K4_EDGES)


def test_default_c_value():
    assert math.isclose(DEFAULT_C, 66 / math.log2(math.e))
    assert math.isclose(DEFAULT_C, 45.747, rel_tol=1e-4)


def test_class_count_values():
    # ceil(eps * delta / (2 c log2 n)), floored at one class
    assert class_count(1024, 512, 0.5, 4.0) == 4
    assert class_count(1024, 512, 0.5, 1.0) == 13
    assert class_count(2**14, 533, 0.5, 1.0) == 10
    assert class_count(1024, 0, 0.5, 1.0) == 1
    # the shipped default c forces the single-class branch at desk scale
    assert class_count(1024, 512, 0.5, DEFAULT_C) == 1


def test_palette_size_values():
    # ceil((1 + 2/eps) c log2 n) + 1
    assert palette_size(2**14, 0.5, 1.0) == 71
    assert palette_size(1024, 0.5, 1.0) == 51
    assert palette_size(4, 0.5, 1.0) == 11
    assert palette_size(4, 100.0, 0.1) == 2


def test_parameter_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        class_count(1, 3, 0.5, 1.0)
    with pytest.raises(ValueError, match="delta"):
        class_count(4, -1, 0.5, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        class_count(4, 3, 0.0, 1.0)
    with pytest.raises(ValueError, match="c must be"):
        palette_size(4, 0.5, -1.0)


def test_class_palettes_are_disjoint():
    pal = ClassPalettes(ell=4, r=11)
    ids = {pal.global_id(i, slot) for i in range(1, 5) for slot in range(1, 12)}
    assert ids == set(range(1, 4 * 11 + 1))  # 44 pairs, 44 distinct ids


def test_build_phase1_deterministic_and_in_range():
    p1, pal1 = build_phase1(256, 400, 0.5, 1.0, seed=5)
    p2, _ = build_phase1(256, 400, 0.5, 1.0, seed=5)
    p3, _ = build_phase1(256, 400, 0.5, 1.0, seed=6)
    assert p1.ell == class_count(256, 400, 0.5, 1.0)
    assert pal1.r == palette_size(256, 0.5, 1.0)
    assert p1.class_of.tobytes() == p2.class_of.tobytes()
    assert p1.class_of.tobytes() != p3.class_of.tobytes()
    assert p1.class_of.min() >= 1 and p1.class_of.max() <= p1.ell
    assert p1.n == 256


def single_class_state(n: int, r: int) -> OnlineColorState:
    part = PhasePartition(ell=1, class_of=np.ones(n, dtype=np.int64), seed=0)
    return OnlineColorState(part, ClassPalettes(ell=1, r=r))


def test_process_edge_discards_cross_class():
    part = PhasePartition(ell=2, class_of=np.asarray([1, 2], dtype=np.int64), seed=0)
    state = OnlineColorState(part, ClassPalettes(ell=2, r=5))
    state.consume(np.asarray([0]), np.asarray([1]))
    assert state.peak_stored_edges() == 0
    assert state.slot == [1, 1]  # nobody recolors


def test_process_edge_moves_first_endpoint():
    state = single_class_state(2, r=5)
    state.consume(np.asarray([0]), np.asarray([1]))
    assert state.slot == [2, 1]
    assert state.peak_stored_edges() == 1


def test_empty_stream_leaves_everyone_on_first_slot():
    coloring, metrics = run_delta_coloring(EdgeStream.from_edges(4, []), 0, 0.5, 1.0, 0)
    assert metrics.ell == 1
    assert coloring.assignment == [1, 1, 1, 1]
    assert coloring.colors_used == 1


def test_k4_single_class_trace():
    coloring, metrics = run_delta_coloring(k4_stream(), 3, 0.5, 1.0, seed=0)
    assert coloring.assignment == [2, 3, 4, 1]
    assert coloring.colors_used == 4  # K4 cannot do better than 4
    assert (metrics.ell, metrics.r) == (1, 11)
    assert metrics.passes == 1
    assert metrics.m == 6
    assert metrics.peak_stored_edges == 6
    assert metrics.max_class_degree == 3
    assert metrics.per_class_degree == [3]
    assert metrics.max_edge_cost == 7  # vertex 2: 3 neighbors + 4 slot probes
    assert not metrics.aborted
    assert verify_proper(k4_stream(), coloring) == []


def test_abort_when_delta_understated():
    # delta=0 shrinks the palette to r=2; K4 exhausts it on the fourth edge
    stream = k4_stream()
    with pytest.raises(ColoringAborted, match="palette exhausted at vertex 1"):
        try:
            run_delta_coloring(stream, 0, 100.0, 0.1, seed=0)
        except ColoringAborted as exc:
            assert (exc.vertex, exc.class_id, exc.mono_degree) == (1, 1, 2)
            m = exc.metrics
            assert m is not None
            assert m.aborted
            assert (m.ell, m.r) == (1, 2)
            assert m.colors_used == 0
            assert m.peak_stored_edges == 4
            assert m.max_class_degree == 3
            assert m.passes == 1
            assert m.seed == 0
            raise
    assert stream.pass_count == 1  # the failed pass was still spent


def test_run_is_deterministic():
    edges, meta = generate(GenSpec(family="gnm", n=256, m=1024, seed=2))
    a, _ = run_delta_coloring(EdgeStream.from_edges(256, edges), meta.max_degree, 0.5, 1.0, 9)
    b, _ = run_delta_coloring(EdgeStream.from_edges(256, edges), meta.max_degree, 0.5, 1.0, 9)
    assert a.assignment == b.assignment


def test_multi_class_run_discards_and_stays_in_palette():
    edges, meta = generate(GenSpec(family="gnm", n=256, m=4096, seed=9))
    stream = EdgeStream.from_edges(256, edges)
    coloring, metrics = run_delta_coloring(stream, meta.max_degree, 0.5, 0.5, seed=3)
    assert metrics.ell == 3
    # cross-class edges were discarded, so stored edges undercut the stream
    assert 0 < metrics.peak_stored_edges < metrics.m
    assert verify_proper(EdgeStream.from_edges(256, edges), coloring) == []
    # palette discipline: each vertex colors inside its own class block
    part, palettes = build_phase1(256, meta.max_degree, 0.5, 0.5, seed=3)
    for v, color in enumerate(coloring.assignment):
        assert (color - 1) // palettes.r + 1 == int(part.class_of[v])
    assert coloring.colors_used <= metrics.ell * metrics.r
    assert metrics.max_edge_cost <= metrics.max_class_degree + metrics.r


def test_mono_degree_profile_matches_run_metrics():
    edges, meta = generate(GenSpec(family="gnm", n=256, m=4096, seed=9))
    part, _ = build_phase1(256, meta.max_degree, 0.5, 0.5, seed=3)
    profile = mono_degree_profile(edges[:, 0], edges[:, 1], part.class_of, part.ell)
    _, metrics = run_delta_coloring(
        EdgeStream.from_edges(256, edges), meta.max_degree, 0.5, 0.5, seed=3
    )
    assert profile.tolist() == metrics.per_class_degree
    assert int(profile.max()) == metrics.max_class_degree


def test_mono_degree_profile_empty_class_is_zero():
    class_of = np.asarray([1, 1, 2], dtype=np.int64)
    edges = np.asarray([[0, 1]], dtype=np.int64)
    profile = mono_degree_profile(edges[:, 0], edges[:, 1], class_of, 2)
    assert profile.tolist() == [1, 0]


@pytest.mark.parametrize(
    "n, delta, epsilon, c",
    [
        (2**14, 533, 0.5, 1.0),   # ell=10, r=71: 710 <= 799.5
        (4096, 512, 1.0, 1.0),    # ell=22, r=37: 814 <= 1024
        (4096, 512, 0.5, 4.0),    # ell=3,  r=241: 723 <= 768
    ],
)
def test_color_budget_arithmetic_at_pinned_combos(n, delta, epsilon, c):
    # ceilings in ell and r can overshoot (1+eps)*delta for arbitrary inputs,
    # so the inequality is asserted where it is known to hold, not quantified
    ell = class_count(n, delta, epsilon, c)
    r = palette_size(n, epsilon, c)
    assert ell * r <= (1 + epsilon) * delta


def test_properness_across_small_corpus():
    specs = [
        GenSpec(family="complete", n=5),
        GenSpec(family="star", n=16),
        GenSpec(family="petersen", n=10),
        GenSpec(family="forest-union", n=64, alpha=3, seed=21),
        GenSpec(family="gnm", n=128, m=512, seed=22, order="layered-adversarial"),
    ]
    for spec in specs:
        edges, meta = generate(spec)
        for seed in range(3):
            stream = EdgeStream.from_edges(spec.n, edges)
            coloring, metrics = run_delta_coloring(stream, meta.max_degree, 0.5, 1.0, seed)
            assert metrics.passes == 1
            assert stream.pass_count == 1
            assert verify_proper(EdgeStream.from_edges(spec.n, edges), coloring) == []
            assert coloring.colors_used <= metrics.ell * metrics.r


def test_large_gnm_twenty_seeds_no_abort_all_proper():
    """Wide-delta instance: 20 seeds, zero aborts, every coloring proper.

    On this instance every seed puts some class max degree slightly above
    r - 1 (71..77 against r = 71), so abort cannot be ruled out from the
    partition alone and each seed gets a real run. Slow (~1 min).
    """
    spec = GenSpec(family="gnm", n=2**14, m=3_700_000, seed=101)
    edges, meta = generate(spec)
    assert meta.max_degree >= 512
    r = palette_size(2**14, 0.5, 1.0)
    for seed in range(20):
        part, _ = build_phase1(2**14, meta.max_degree, 0.5, 1.0, seed)
        profile = mono_degree_profile(edges[:, 0], edges[:, 1], part.class_of, part.ell)
        stream = EdgeStream.from_edges(2**14, edges)
        coloring, metrics = run_delta_coloring(stream, meta.max_degree, 0.5, 1.0, seed)
        assert not metrics.aborted
        assert metrics.per_class_degree == profile.tolist()
        assert 0 < int(profile.max()) <= r + 6  # tight but survivable regime
        assert coloring.colors_used <= metrics.ell * r
        assert verify_proper(EdgeStream.from_edges(2**14, edges), coloring) == []


small_n = st.integers(2, 16)


@st.composite
def graph_and_seed(draw):
    n = draw(small_n)
    mask = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask[idx]:
                edges.append((u, v))
            idx += 1
    return n, edges, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(graph_and_seed())
def test_random_small_graphs_proper_in_one_pass(gs):
    # c=2 keeps r above n, so no abort is reachable at this size
    n, edges, seed = gs
    stream = EdgeStream.from_edges(n, edges)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    coloring, metrics = run_delta_coloring(stream, max(deg, default=0), 0.5, 2.0, seed)
    assert metrics.passes == 1
    assert coloring.colors_used <= metrics.ell * metrics.r
    g = EdgeStream.from_edges(n, edges)
    assert verify_proper(g, coloring) == []
