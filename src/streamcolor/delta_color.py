"""One-pass randomized vertex coloring within a (1+eps)*Delta budget.

The vertex set is split into ell random classes up front; each class owns a
disjoint slot palette of size r. Cross-class edges are discarded on arrival.
Same-class edges are stored, and when the endpoints currently share a slot
the first-listed endpoint moves to the smallest slot not held by any of its
stored same-class neighbors. If no slot is free the run aborts; there is no
retry, the caller reruns with a fresh seed or a larger budget.

ell = max(1, ceil(eps * Delta / (2 * c * log2 n)))
r   = ceil((1 + 2/eps) * c * log2 n) + 1

All logs are base 2. The shipped default for c makes the per-class degree
bound hold with high probability at realistic n; tests use small c so the
multi-class machinery is exercised at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EdgeStream, StoredGraph
from .oracle import Coloring
from .seeding import PHASE1, rng_for

DEFAULT_C = 66 * math.log(2)  # = 66 / log2(e) ~= 45.7477


def validate_run_params(n: int, bound_name: str, bound: int, epsilon: float, c: float) -> None:
    """Reject parameters neither coloring run accepts; bound_name ('delta'
    or 'alpha') names the degree or arboricity bound in the message."""
    if n < 2:
        raise ValueError("need n >= 2 (log2 n must be positive)")
    if bound < 0:
        raise ValueError(f"{bound_name} must be non-negative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if c <= 0:
        raise ValueError("c must be positive")


def class_count(n: int, delta: int, epsilon: float, c: float) -> int:
    """Number of random classes ell; at least 1 (single class = whole graph)."""
    validate_run_params(n, "delta", delta, epsilon, c)
    raw = epsilon * delta / (2.0 * c * math.log2(n))
    return max(1, math.ceil(raw))


def palette_size(n: int, epsilon: float, c: float) -> int:
    """Slots per class, r."""
    validate_run_params(n, "delta", 0, epsilon, c)
    return math.ceil((1.0 + 2.0 / epsilon) * c * math.log2(n)) + 1


@dataclass(frozen=True)
class PhasePartition:
    """Random class assignment drawn before the stream is read."""

    ell: int
    class_of: np.ndarray = field(repr=False)  # per-vertex class id in [1, ell]
    seed: int
    c: float
    epsilon: float
    delta: int

    @property
    def n(self) -> int:
        return len(self.class_of)


@dataclass(frozen=True)
class ClassPalettes:
    """Disjoint per-class palettes realized arithmetically.

    Class i (1-based) owns global color ids (i-1)*r + 1 .. i*r; slot s of
    class i is global id (i-1)*r + s.
    """

    ell: int
    r: int

    def global_id(self, class_id: int, slot: int) -> int:
        return (class_id - 1) * self.r + slot


def build_phase1(
    n: int, delta: int, epsilon: float, c: float, seed: int
) -> tuple[PhasePartition, ClassPalettes]:
    """Draw the class assignment (iid uniform over [1, ell]) for a given seed."""
    ell = class_count(n, delta, epsilon, c)
    r = palette_size(n, epsilon, c)
    rng = rng_for(seed, PHASE1)
    class_of = rng.integers(1, ell + 1, size=n, dtype=np.int64)
    part = PhasePartition(
        ell=ell, class_of=class_of, seed=seed, c=c, epsilon=epsilon, delta=delta
    )
    return part, ClassPalettes(ell=ell, r=r)


class ColoringAborted(RuntimeError):
    """A vertex needed a slot but its stored class neighbors held all r.

    Carries the vertex, its class, and its monochromatic degree at abort
    time, plus the seed so the run is reproducible. The `metrics` attribute
    is attached by run_delta_coloring before re-raising.
    """

    def __init__(self, vertex: int, class_id: int, mono_degree: int, seed: int):
        super().__init__(
            f"palette exhausted at vertex {vertex} (class {class_id}, "
            f"monochromatic degree {mono_degree}, seed {seed})"
        )
        self.vertex = vertex
        self.class_id = class_id
        self.mono_degree = mono_degree
        self.seed = seed
        self.metrics: "DeltaRunMetrics | None" = None


@dataclass
class DeltaRunMetrics:
    n: int
    m: int
    ell: int
    r: int
    passes: int
    colors_used: int
    peak_stored_edges: int
    max_class_degree: int
    per_class_degree: list[int]
    aborted: bool
    seed: int
    max_edge_cost: int  # worst slots-plus-neighbors examined on one edge


class OnlineColorState:
    """Mutable per-run state: slots, per-class stored subgraphs, instrumentation."""

    def __init__(self, partition: PhasePartition, palettes: ClassPalettes):
        n = partition.n
        self.partition = partition
        self.palettes = palettes
        self.class_of: list[int] = partition.class_of.tolist()
        self.slot: list[int] = [1] * n  # every vertex starts on slot 1
        self.subgraphs: list[StoredGraph] = [StoredGraph(n) for _ in range(partition.ell)]
        self.max_edge_cost = 0
        self._occ = [0] * (palettes.r + 1)  # slot occupancy scratch, stamp-cleared
        self._stamp = 0

    def consume(self, u: np.ndarray, v: np.ndarray) -> None:
        """Process one chunk of the pass, edge by edge in stream order.

        Cross-class edges are dropped up front: palettes are disjoint, so
        they never conflict.
        """
        cls = self.partition.class_of
        same = cls[u] == cls[v]
        u, v = u[same], v[same]
        graphs = self.subgraphs
        slot = self.slot
        for a, b, c in zip(u.tolist(), v.tolist(), cls[u].tolist()):
            g = graphs[c - 1]
            g.add_edge(a, b)
            if slot[a] == slot[b]:
                self._recolor(a, c, g)

    def _recolor(self, u: int, class_id: int, g: StoredGraph) -> None:
        # smallest slot not held by any stored neighbor of u in its class
        slot = self.slot
        occ = self._occ
        self._stamp += 1
        stamp = self._stamp
        neighbors = g.neighbors(u)
        for w in neighbors:
            occ[slot[w]] = stamp
        r = self.palettes.r
        cost = len(neighbors)
        chosen = 0
        for s in range(1, r + 1):
            cost += 1
            if occ[s] != stamp:
                chosen = s
                break
        if cost > self.max_edge_cost:
            self.max_edge_cost = cost
        if not chosen:
            raise ColoringAborted(u, class_id, len(neighbors), self.partition.seed)
        slot[u] = chosen

    def coloring(self) -> Coloring:
        pal = self.palettes
        cls = self.class_of
        slot = self.slot
        assignment = [pal.global_id(cls[v], slot[v]) for v in range(len(cls))]
        return Coloring(assignment=assignment, palette_size=pal.ell * pal.r)

    def per_class_degree(self) -> list[int]:
        return [g.max_degree() for g in self.subgraphs]

    def peak_stored_edges(self) -> int:
        return sum(g.stored_edges for g in self.subgraphs)  # graphs never shrink

    def metrics(self, m: int, passes: int, aborted: bool) -> DeltaRunMetrics:
        per_class = self.per_class_degree()
        colors = 0 if aborted else self.coloring().colors_used
        return DeltaRunMetrics(
            n=self.partition.n,
            m=m,
            ell=self.partition.ell,
            r=self.palettes.r,
            passes=passes,
            colors_used=colors,
            peak_stored_edges=self.peak_stored_edges(),
            max_class_degree=max(per_class, default=0),
            per_class_degree=per_class,
            aborted=aborted,
            seed=self.partition.seed,
            max_edge_cost=self.max_edge_cost,
        )


def run_delta_coloring(
    stream: EdgeStream,
    delta: int,
    epsilon: float,
    c: float = DEFAULT_C,
    seed: int = 0,
) -> tuple[Coloring, DeltaRunMetrics]:
    """Color stream's graph in exactly one pass.

    delta must upper-bound the true max degree (measure_max_degree costs one
    extra pass if the caller does not know it). Raises ColoringAborted, with
    metrics attached, when a class palette is exhausted.
    """
    partition, palettes = build_phase1(stream.n, delta, epsilon, c, seed)
    state = OnlineColorState(partition, palettes)
    before = stream.pass_count
    try:
        for u, v in stream.pass_chunks():
            state.consume(u, v)
    except ColoringAborted as exc:
        exc.metrics = state.metrics(m=stream.m, passes=stream.pass_count - before, aborted=True)
        raise
    coloring = state.coloring()
    metrics = state.metrics(m=stream.m, passes=stream.pass_count - before, aborted=False)
    return coloring, metrics


def mono_degree_profile(
    edges_u: np.ndarray, edges_v: np.ndarray, class_of: np.ndarray, ell: int
) -> np.ndarray:
    """Per-class max monochromatic degree, computed directly from a partition.

    This is the quantity the concentration tests sample over many seeds; it
    depends only on the graph and the class assignment, not on the online
    recoloring, so sweeps can evaluate it without full runs. Cross-checked
    against DeltaRunMetrics.per_class_degree in the test suite.
    """
    same = class_of[edges_u] == class_of[edges_v]
    u = edges_u[same]
    v = edges_v[same]
    n = len(class_of)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    out = np.zeros(ell, dtype=np.int64)
    if len(u):
        np.maximum.at(out, class_of - 1, deg)
    return out
