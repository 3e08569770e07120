"""Multi-pass coloring within a (2+eps)*alpha budget for bounded arboricity.

Derived knobs: eps' = eps/6 and gamma = eps/3. Vertices are split into
ell = max(1, ceil((eps'/c) * ((2+gamma)*alpha) / log2 n)) random classes and
only same-class edges are stored. Peeling runs on the full graph in parallel
with collection, sharing pass 1, so the whole run costs exactly k passes.
Afterwards each class subgraph is colored offline against the peel
orientation with a fresh palette of (max out-degree + 1) colors, giving
total colors at most sum_i (out_i + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EdgeStream, StoredGraph
from .delta_color import DEFAULT_C
from .oracle import Coloring
from .peel import LayerPartition, PeelStalled, PeelState
from .seeding import PHASE1, rng_for


@dataclass(frozen=True)
class ArbRunConfig:
    """All derived parameters of one run, frozen before the stream is read."""

    n: int
    alpha: int
    epsilon: float
    c: float
    seed: int
    eps_prime: float
    gamma: float
    ell: int


def derive_config(n: int, alpha: int, epsilon: float, c: float, seed: int) -> ArbRunConfig:
    if n < 2:
        raise ValueError("need n >= 2 (log2 n must be positive)")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if c <= 0:
        raise ValueError("c must be positive")
    eps_prime = epsilon / 6.0
    gamma = epsilon / 3.0
    raw = (eps_prime / c) * ((2.0 + gamma) * alpha) / math.log2(n)
    ell = max(1, math.ceil(raw))
    return ArbRunConfig(
        n=n, alpha=alpha, epsilon=epsilon, c=c, seed=seed,
        eps_prime=eps_prime, gamma=gamma, ell=ell,
    )


def per_class_out_bound(n: int, eps_prime: float, c: float) -> float:
    """(1 + 1/eps') * c * log2 n: the w.h.p. cap on any class's max out-degree."""
    return (1.0 + 1.0 / eps_prime) * c * math.log2(n)


class MonochromeSubgraphs:
    """Stream consumer keeping exactly the same-class edges, one StoredGraph per class."""

    def __init__(self, n: int, ell: int, class_of: np.ndarray | list[int]):
        self.n = n
        self.ell = ell
        self.class_of = np.asarray(class_of, dtype=np.int64)
        self.subgraphs = [StoredGraph(n) for _ in range(ell)]

    def consume(self, u: np.ndarray, v: np.ndarray) -> None:
        """Store the chunk's same-class edges, in stream order."""
        cls = self.class_of
        same = cls[u] == cls[v]
        u, v = u[same], v[same]
        graphs = self.subgraphs
        for a, b, c in zip(u.tolist(), v.tolist(), cls[u].tolist()):
            graphs[c - 1].add_edge(a, b)

    def members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.ell)]
        for v, c in enumerate(self.class_of.tolist()):
            out[c - 1].append(v)
        return out

    def stored_edges(self) -> int:
        return sum(g.stored_edges for g in self.subgraphs)

    def peak_stored_edges(self) -> int:
        return sum(g.peak_stored_edges for g in self.subgraphs)


def compute_out_degrees(mono: MonochromeSubgraphs, lp: LayerPartition) -> list[int]:
    """Max orientation out-degree inside each class subgraph (0 when empty)."""
    key = lp.key
    out: list[int] = []
    for g in mono.subgraphs:
        best = 0
        for v, nbrs in g.adjacency_items():
            kv = key(v)
            cnt = 0
            for w in nbrs:
                if key(w) > kv:
                    cnt += 1
            if cnt > best:
                best = cnt
        out.append(best)
    return out


def _color_against_out_neighbors(
    g: StoredGraph,
    lp: LayerPartition,
    vertices,
    palette_start: int,
    palette_len: int,
    assignment: list[int],
) -> None:
    """First-free coloring of `vertices` in decreasing (layer, id) order.

    A vertex's out-neighbors all have larger keys, hence are colored already;
    avoiding them suffices because in-neighbors in turn avoid this vertex.
    """
    key = lp.key
    order = sorted(vertices, key=key, reverse=True)
    for v in order:
        kv = key(v)
        used = set()
        for w in g.neighbors(v):
            if key(w) > kv:
                used.add(assignment[w])
        color = palette_start
        while color in used:
            color += 1
        if color >= palette_start + palette_len:
            raise AssertionError("palette too small for out-degree; cannot happen")
        assignment[v] = color


def offline_dag_color(g: StoredGraph, lp: LayerPartition, palette: range) -> Coloring:
    """Color all of g against the (layer, id) orientation using `palette`.

    Needs len(palette) >= max out-degree + 1; the greedy scan then never
    falls off the end. Vertices with no stored edges take the first color.
    """
    assignment = [-1] * g.n
    _color_against_out_neighbors(
        g, lp, range(g.n), palette.start, len(palette), assignment
    )
    return Coloring(assignment=assignment, palette_size=len(palette))


@dataclass
class ArbRunMetrics:
    n: int
    m: int
    ell: int
    k: int
    passes: int
    colors_used: int
    per_class_out_degree: list[int]
    peak_stored_edges: int
    stalled: bool
    seed: int


def run_arboricity_coloring(
    stream: EdgeStream,
    alpha: int,
    epsilon: float,
    c: float = DEFAULT_C,
    seed: int = 0,
) -> tuple[Coloring, ArbRunMetrics]:
    """Color stream's graph in exactly k passes (k = peel rounds).

    alpha must upper-bound the graph's arboricity; if it does not, the
    embedded peel stalls and PeelStalled propagates with partial metrics
    attached. Per-class palettes are disjoint and sized on demand, class i
    starting right after class i-1's block.
    """
    cfg = derive_config(stream.n, alpha, epsilon, c, seed)
    n = cfg.n
    rng = rng_for(seed, PHASE1)
    class_of = rng.integers(1, cfg.ell + 1, size=n, dtype=np.int64)
    mono = MonochromeSubgraphs(n, cfg.ell, class_of)
    ps = PeelState(n, alpha, cfg.gamma)
    before = stream.pass_count
    m = stream.m
    try:
        if ps.active_count:
            # pass 1 feeds the collector and peel round 1 together
            for u, v in stream.pass_chunks():
                mono.consume(u, v)
                ps.consume(u, v)
            ps.finish_round()
        while ps.active_count:
            ps.run_round(stream)
    except PeelStalled as exc:
        exc.metrics = ArbRunMetrics(
            n=n, m=m, ell=cfg.ell, k=ps.rounds, passes=stream.pass_count - before,
            colors_used=0, per_class_out_degree=[],
            peak_stored_edges=mono.peak_stored_edges(), stalled=True, seed=seed,
        )
        raise
    lp = ps.partition()
    out_degrees = compute_out_degrees(mono, lp)
    assignment = [-1] * n
    base = 0
    for i, members in enumerate(mono.members()):
        width = out_degrees[i] + 1
        _color_against_out_neighbors(
            mono.subgraphs[i], lp, members, base, width, assignment
        )
        base += width
    coloring = Coloring(assignment=assignment, palette_size=base)
    metrics = ArbRunMetrics(
        n=n, m=m, ell=cfg.ell, k=lp.k, passes=stream.pass_count - before,
        colors_used=coloring.colors_used, per_class_out_degree=out_degrees,
        peak_stored_edges=mono.peak_stored_edges(), stalled=False, seed=seed,
    )
    return coloring, metrics


def out_degree_profile(
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    lp: LayerPartition,
    class_of: np.ndarray,
    ell: int,
) -> np.ndarray:
    """Per-class max out-degree from the partition alone (no run needed).

    Orientation and layers are fixed by the graph; only the class draw is
    random, so concentration sweeps evaluate this vectorized. Cross-checked
    against ArbRunMetrics.per_class_out_degree in the test suite.
    """
    layer = np.asarray(lp.layer, dtype=np.int64)
    ku = layer[edges_u] * np.int64(len(lp.layer)) + edges_u
    kv = layer[edges_v] * np.int64(len(lp.layer)) + edges_v
    tail = np.where(ku < kv, edges_u, edges_v)
    head = np.where(ku < kv, edges_v, edges_u)
    same = class_of[tail] == class_of[head]
    n = len(class_of)
    outdeg = np.bincount(tail[same], minlength=n)
    profile = np.zeros(ell, dtype=np.int64)
    if same.any():
        np.maximum.at(profile, class_of - 1, outdeg)
    return profile
