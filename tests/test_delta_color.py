"""One-pass coloring: parameter arithmetic, the recolor rule, run contracts."""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import asdict
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import Phase, assume, event, given, settings
from hypothesis import strategies as st

from streamcolor import seeding
from streamcolor.core import DEFAULT_C, ColoringAborted, EdgeStream, id_dtype
from streamcolor.corpus import GenSpec, generate
from streamcolor.delta_color import (
    DeltaRunMetrics,
    PhasePartition,
    class_count,
    mono_degree_profile,
    palette_size,
    replay,
    run_delta_coloring,
)
from streamcolor.oracle import verify_proper

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


def test_phase_partition_draw_deterministic_and_in_range():
    ell = class_count(256, 400, 0.5, 1.0)
    p1, p2, p3 = (PhasePartition.draw(256, ell, seed) for seed in (5, 5, 6))
    assert p1.ell == ell
    assert p1.class_of.tobytes() == p2.class_of.tobytes()
    assert p1.class_of.tobytes() != p3.class_of.tobytes()
    assert p1.class_of.min() >= 1 and p1.class_of.max() <= p1.ell
    assert p1.n == 256


@pytest.mark.parametrize(
    "n, ell, seed", [(0, 3, 0), (1, 1, 7), (256, 1, 5), (256, 4, 5), (1000, 13, 2**32 - 1)]
)
def test_phase_partition_draw_pins_the_phase1_stream(n, ell, seed):
    # both runs split V through draw(), so this pins both runs' classes
    part = PhasePartition.draw(n, ell, seed)
    expected = seeding.rng_for(seed, seeding.PHASE1).integers(1, ell + 1, size=n, dtype=np.int64)
    assert part.class_of.dtype == np.int64
    assert part.class_of.tobytes() == expected.tobytes()
    assert (part.n, part.ell, part.seed) == (n, ell, seed)


@pytest.mark.parametrize("ell", [1, 2])
def test_phase_partition_draw_rejects_a_negative_seed(ell):
    # one class draws nothing, yet takes the seeds a generator takes
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        PhasePartition.draw(5, ell, -1)


def test_process_edge_discards_cross_class():
    part = PhasePartition(ell=2, class_of=np.asarray([1, 2], dtype=np.int64), seed=0)
    with patch.object(PhasePartition, "draw", return_value=part):
        coloring, metrics = run_delta_coloring(EdgeStream.from_edges(2, [(0, 1)]), 1, 0.5, 1.0)
    assert metrics.peak_stored_edges == 0
    assert coloring.assignment == [1, metrics.r + 1]  # nobody recolors: slot 1 in both classes


def test_process_edge_moves_first_endpoint():
    slot, degree, max_edge_cost, stuck = replay(np.asarray([0]), np.asarray([1]), 2, r=5)
    assert slot == [2, 1]
    assert int(degree.sum()) // 2 == 1
    assert (max_edge_cost, stuck) == (3, None)  # 1 neighbor + 2 slot probes


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
    part = PhasePartition.draw(256, class_count(256, meta.max_degree, 0.5, 0.5), 3)
    r = palette_size(256, 0.5, 0.5)
    for v, color in enumerate(coloring.assignment):
        assert (color - 1) // r + 1 == int(part.class_of[v])
    assert coloring.colors_used <= metrics.ell * metrics.r
    assert metrics.max_edge_cost <= metrics.max_class_degree + metrics.r


def test_mono_degree_profile_matches_run_metrics():
    edges, meta = generate(GenSpec(family="gnm", n=256, m=4096, seed=9))
    part = PhasePartition.draw(256, class_count(256, meta.max_degree, 0.5, 0.5), 3)
    profile = mono_degree_profile(edges[:, 0], edges[:, 1], part)
    _, metrics = run_delta_coloring(
        EdgeStream.from_edges(256, edges), meta.max_degree, 0.5, 0.5, seed=3
    )
    assert profile.tolist() == metrics.per_class_degree
    assert int(profile.max()) == metrics.max_class_degree


def test_mono_degree_profile_empty_class_is_zero():
    part = PhasePartition(ell=2, class_of=np.asarray([1, 1, 2], dtype=np.int64), seed=0)
    edges = np.asarray([[0, 1]], dtype=np.int64)
    profile = mono_degree_profile(edges[:, 0], edges[:, 1], part)
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
    partition alone and each seed gets a real run. Slow (about 10 s on 2 vCPUs).
    """
    spec = GenSpec(family="gnm", n=2**14, m=3_700_000, seed=101)
    edges, meta = generate(spec)
    assert meta.max_degree >= 512
    r = palette_size(2**14, 0.5, 1.0)
    ell = class_count(2**14, meta.max_degree, 0.5, 1.0)
    for seed in range(20):
        part = PhasePartition.draw(2**14, ell, seed)
        profile = mono_degree_profile(edges[:, 0], edges[:, 1], part)
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


class SetReference:
    """The per-edge dict-of-sets state that the array replay replaced.

    consume() reads each chunk on arrival: a new same-class pair goes into
    both endpoints' neighbor sets, and every same-class occurrence moves its
    first-listed endpoint when the endpoints share a slot.
    """

    def __init__(self, partition: PhasePartition, r: int):
        self.partition = partition
        self.r = r
        self.class_of = partition.class_of.tolist()
        self.slot = [1] * partition.n
        self.adj: defaultdict[int, set[int]] = defaultdict(set)
        self.stored_edges = 0
        self.max_edge_cost = 0

    def consume(self, u: np.ndarray, v: np.ndarray) -> None:
        cls = self.partition.class_of
        same = cls[u] == cls[v]
        for a, b in zip(u[same].tolist(), v[same].tolist()):
            neighbors = self.adj[a]
            if b not in neighbors:
                neighbors.add(b)
                self.adj[b].add(a)
                self.stored_edges += 1
            if self.slot[a] == self.slot[b]:
                self._recolor(a, neighbors)

    def _recolor(self, u: int, neighbors: set[int]) -> None:
        used = {self.slot[w] for w in neighbors}
        r = self.r
        chosen = next((s for s in range(1, r + 1) if s not in used), 0)
        cost = len(neighbors) + (chosen or r)
        self.max_edge_cost = max(self.max_edge_cost, cost)
        if not chosen:
            raise ColoringAborted(u, self.class_of[u], len(neighbors), self.partition.seed)
        self.slot[u] = chosen

    def metrics(self, m: int, passes: int, aborted: bool) -> dict:
        ell, r = self.partition.ell, self.r
        per_class = [0] * ell
        for x, neighbors in self.adj.items():
            per_class[self.class_of[x] - 1] = max(per_class[self.class_of[x] - 1], len(neighbors))
        colors = len({(k - 1) * r + s for k, s in zip(self.class_of, self.slot)})
        return asdict(DeltaRunMetrics(
            n=self.partition.n, m=m, ell=ell, r=r, passes=passes,
            colors_used=0 if aborted else colors, peak_stored_edges=self.stored_edges,
            max_class_degree=max(per_class), per_class_degree=per_class, aborted=aborted,
            seed=self.partition.seed, max_edge_cost=self.max_edge_cost,
        ))


def set_reference_run(stream: EdgeStream, delta: int, epsilon: float, c: float, seed: int):
    """(assignment or None, abort forensics or None, metrics) of the reference."""
    partition = PhasePartition.draw(stream.n, class_count(stream.n, delta, epsilon, c), seed)
    r = palette_size(stream.n, epsilon, c)
    ref = SetReference(partition, r)
    try:
        for u, v in stream.pass_chunks():
            ref.consume(u, v)
    except ColoringAborted as exc:
        forensics = (exc.vertex, exc.class_id, exc.mono_degree)
        return None, forensics, ref.metrics(stream.m, stream.pass_count, aborted=True)
    assignment = [(k - 1) * r + s for k, s in zip(ref.class_of, ref.slot)]
    return assignment, None, ref.metrics(stream.m, stream.pass_count, aborted=False)


def replay_run(stream: EdgeStream, delta: int, epsilon: float, c: float, seed: int):
    try:
        coloring, metrics = run_delta_coloring(stream, delta, epsilon, c, seed)
    except ColoringAborted as exc:
        return None, (exc.vertex, exc.class_id, exc.mono_degree), asdict(exc.metrics)
    return coloring.assignment, None, asdict(metrics)


@st.composite
def multigraph_run(draw):
    """A multigraph with repeats and swapped endpoints, plus run parameters
    that give ell > 1 and a palette small enough that some runs abort."""
    n = draw(st.integers(4, 24))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
    pairs = draw(st.lists(pair, min_size=2 * n, max_size=8 * n))
    edges = [(a, b + (b >= a)) for a, b in pairs]  # exact repeats come from the small n
    swapped = draw(st.lists(st.sampled_from(edges), max_size=40))
    edges = draw(st.permutations(edges + [(b, a) for a, b in swapped]))
    epsilon = draw(st.sampled_from([0.5, 1.0, 4.0]))
    c = draw(st.sampled_from([0.1, 0.2, 0.5]))
    # up to four classes: ell = ceil(delta / unit)
    unit = 2 * c * math.log2(n) / epsilon
    delta = draw(st.integers(1, max(1, math.floor(4 * unit))))
    return n, edges, delta, epsilon, c, draw(st.integers(0, 2**32 - 1))


# no shrink phase: shrinking a failure of this search can take minutes and
# hundreds of MB; the unshrunk example is reported, and saved for replay
@settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(multigraph_run())
def test_replay_matches_set_reference(run):
    """The array replay equals the per-edge dict-of-sets run at every chunk
    size: colorings, metrics, abort forensics and abort-time metrics."""
    n, edges, delta, epsilon, c, seed = run
    assume(class_count(n, delta, epsilon, c) > 1)
    assert_replay_matches_set_reference(n, edges, delta, epsilon, c, seed)


def assert_replay_matches_set_reference(n, edges, delta, epsilon, c, seed):
    default = EdgeStream.pass_chunks
    for k in (1, 7, None):
        chunked = default if k is None else functools.partialmethod(default, chunk_size=k)
        with patch.object(EdgeStream, "pass_chunks", chunked):
            got = replay_run(EdgeStream.from_edges(n, edges), delta, epsilon, c, seed)
            want = set_reference_run(EdgeStream.from_edges(n, edges), delta, epsilon, c, seed)
        assert got == want
    event("aborted" if got[1] else "finished")


@settings(max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(multigraph_run(), st.sampled_from([257, 65537]))
def test_replay_matches_set_reference_at_wider_ids(run, wide):
    """The same multigraphs with ids spread to both ends of [0, wide), so
    the replay reads uint16 and uint32 ids; c is scaled so that c * log2 n,
    and with it ell and r, stay about what they were at the small n."""
    n, edges, delta, epsilon, c, seed = run
    spread = [x if x < n // 2 else x + wide - n for x in range(n)]
    edges = [(spread[a], spread[b]) for a, b in edges]
    c *= math.log2(n) / math.log2(wide)
    assume(class_count(wide, delta, epsilon, c) > 1)
    assert_replay_matches_set_reference(wide, edges, delta, epsilon, c, seed)


@settings(max_examples=100, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(multigraph_run())
def test_replay_matches_set_reference_with_one_class(run):
    """The one-class split, which draws nothing, against the reference:
    every edge is same-class, so every edge reaches the replay."""
    n, edges, delta, epsilon, c, seed = run
    delta = min(delta, math.floor(2 * c * math.log2(n) / epsilon))
    assert class_count(n, delta, epsilon, c) == 1
    assert_replay_matches_set_reference(n, edges, delta, epsilon, c, seed)


def read_only_strided(x: np.ndarray) -> np.ndarray:
    """x as a read-only view with a stride of two elements."""
    view = np.repeat(x, 2)[::2]
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("n", [300, 70_000])
@pytest.mark.parametrize("wide", [False, True], ids=["id-width", "int64"])
@pytest.mark.parametrize("r", [4, 40])
def test_replay_reads_read_only_and_strided_ids(n, wide, r):
    # a gnm graph on 300 vertices, half of them moved to the top ids below n,
    # plus swapped repeats; r = 4 runs out of slots, r = 40 does not
    edges, _ = generate(GenSpec(family="gnm", n=300, m=3000, seed=3))
    edges = np.where(edges < 150, edges, edges + (n - 300))
    edges = np.concatenate([edges, edges[::7, ::-1]])
    u, v = edges.T.astype(np.int64 if wide else id_dtype(n))
    want = replay(u.copy(), v.copy(), n, r)
    got = replay(read_only_strided(u), read_only_strided(v), n, r)
    assert (got[0], got[1].tolist(), *got[2:]) == (want[0], want[1].tolist(), *want[2:])
    assert (want[3] is None) == (r == 40)
