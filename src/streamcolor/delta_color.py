"""One-pass randomized vertex coloring within a (1+eps)*Delta budget.

The vertex set is split into ell random classes up front; each class owns a
disjoint slot palette of size r. Cross-class edges are discarded on arrival.
Same-class edges are stored, each pair once, and when the endpoints currently
share a slot the first-listed endpoint moves to the smallest slot not held by
any of its stored same-class neighbors. The pass only collects the same-class
edges into arrays; the rule is then replayed over them in stream order, so
every decision is the one made on arrival. If no slot is free the run
aborts; there is no retry, the caller reruns with a fresh seed or a larger
budget.

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

from .core import EdgeStream, first_occurrences, pair_codes
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
    """Random class split drawn before the stream is read; both runs store its same-class edges."""

    ell: int
    class_of: np.ndarray = field(repr=False)  # per-vertex class id in [1, ell]
    seed: int

    @classmethod
    def draw(cls, n: int, ell: int, seed: int) -> PhasePartition:
        """Each vertex's class, iid uniform over [1, ell], from the seed's PHASE1 stream."""
        class_of = rng_for(seed, PHASE1).integers(1, ell + 1, size=n, dtype=np.int64)
        return cls(ell=ell, class_of=class_of, seed=seed)

    @property
    def n(self) -> int:
        return len(self.class_of)

    def same(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Mask of the edges whose endpoints share a class."""
        return self.class_of[u] == self.class_of[v]

    def class_max(self, values: np.ndarray) -> np.ndarray:
        """Per class, the largest of its vertices' non-negative values (0 if none)."""
        out = np.zeros(self.ell, dtype=np.int64)
        np.maximum.at(out, self.class_of - 1, values)
        return out


def build_phase1(
    n: int, delta: int, epsilon: float, c: float, seed: int
) -> tuple[PhasePartition, int]:
    """The class split and r, the slots per class; class i owns colors (i-1)*r + 1 .. i*r."""
    ell = class_count(n, delta, epsilon, c)
    return PhasePartition.draw(n, ell, seed), palette_size(n, epsilon, c)


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
    """Mutable per-run state: slots, stored same-class edges, instrumentation.

    The pass hands each chunk to collect(), which keeps its same-class
    occurrences in stream order as two int64 arrays, 16 B per occurrence: on
    a simple graph, 16 B per stored edge. replay() then applies the online
    rule to them one by one, so every decision equals the one made on
    arrival. Classes partition the vertices, so one flat neighbor list holds
    every class's stored graph: vertex x's stored neighbors, in arrival
    order, are nbr[start[x]:fill[x]].
    """

    def __init__(self, partition: PhasePartition, r: int):
        n = partition.n
        self.partition = partition
        self.r = r
        self.slot: list[int] = [1] * n  # every vertex starts on slot 1
        self.start: list[int] = [0] * n  # laid out by replay()
        self.fill: list[int] = [0] * n
        self.max_edge_cost = 0
        self._us = [np.empty(0, dtype=np.int64)]  # so an edgeless pass concatenates
        self._vs = [np.empty(0, dtype=np.int64)]
        self._occ = [0] * (r + 1)  # slot occupancy scratch, stamp-cleared
        self._stamp = 0

    def collect(self, u: np.ndarray, v: np.ndarray) -> None:
        """Keep one chunk's same-class edges. Cross-class edges are dropped:
        palettes are disjoint, so they never conflict."""
        same = self.partition.same(u, v)
        self._us.append(u[same])
        self._vs.append(v[same])

    def replay(self) -> None:
        """Run the online rule over the collected edges in stream order.

        A pair's first occurrence stores it in both endpoints' neighbor
        lists, which are sized up front from the distinct degrees. Every
        occurrence, repeat or not, moves its first-listed endpoint when the
        endpoints share a slot.
        """
        u, v = np.concatenate(self._us), np.concatenate(self._vs)
        self._us, self._vs = [], []  # u and v now hold the only copy
        n = self.partition.n
        first = np.zeros(len(u), dtype=bool)
        first[first_occurrences(pair_codes(u, v, n))] = True
        degree = np.bincount(u[first], minlength=n) + np.bincount(v[first], minlength=n)
        self.start = start = (np.cumsum(degree) - degree).tolist()
        self.fill = fill = list(start)
        nbr = [0] * int(degree.sum())
        slot = self.slot
        for a, b, fresh in zip(u.tolist(), v.tolist(), first.tolist()):
            if fresh:
                nbr[fill[a]] = b
                fill[a] += 1
                nbr[fill[b]] = a
                fill[b] += 1
            if slot[a] == slot[b]:
                self._recolor(a, nbr[start[a] : fill[a]])

    def _recolor(self, u: int, neighbors: list[int]) -> None:
        # smallest slot not held by any stored neighbor of u in its class
        slot = self.slot
        occ = self._occ
        self._stamp += 1
        stamp = self._stamp
        for w in neighbors:
            occ[slot[w]] = stamp
        r = self.r
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
            raise ColoringAborted(
                u, int(self.partition.class_of[u]), len(neighbors), self.partition.seed
            )
        slot[u] = chosen

    def coloring(self) -> Coloring:
        part, r = self.partition, self.r
        assignment = ((part.class_of - 1) * r + np.asarray(self.slot)).tolist()
        return Coloring(assignment=assignment, palette_size=part.ell * r)

    def _degree(self) -> np.ndarray:
        return np.asarray(self.fill) - np.asarray(self.start)

    def per_class_degree(self) -> list[int]:
        return self.partition.class_max(self._degree()).tolist()

    def peak_stored_edges(self) -> int:
        return int(self._degree().sum()) // 2  # stored edges are never dropped

    def metrics(self, m: int, passes: int, aborted: bool) -> DeltaRunMetrics:
        per_class = self.per_class_degree()
        colors = 0 if aborted else self.coloring().colors_used
        return DeltaRunMetrics(
            n=self.partition.n,
            m=m,
            ell=self.partition.ell,
            r=self.r,
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
    metrics attached, when a class palette is exhausted; the pass is read to
    its end before the replay finds that out.
    """
    state = OnlineColorState(*build_phase1(stream.n, delta, epsilon, c, seed))
    before = stream.pass_count
    for u, v in stream.pass_chunks():
        state.collect(u, v)
    try:
        state.replay()
    except ColoringAborted as exc:
        exc.metrics = state.metrics(m=stream.m, passes=stream.pass_count - before, aborted=True)
        raise
    coloring = state.coloring()
    metrics = state.metrics(m=stream.m, passes=stream.pass_count - before, aborted=False)
    return coloring, metrics


def mono_degree_profile(
    edges_u: np.ndarray, edges_v: np.ndarray, partition: PhasePartition
) -> np.ndarray:
    """Per-class max monochromatic degree, computed directly from a partition.

    This is the quantity the concentration tests sample over many seeds; it
    depends only on the graph and the class assignment, not on the online
    recoloring, so sweeps can evaluate it without full runs. Cross-checked
    against DeltaRunMetrics.per_class_degree in the test suite.
    """
    same = partition.same(edges_u, edges_v)
    n = partition.n
    deg = np.bincount(edges_u[same], minlength=n) + np.bincount(edges_v[same], minlength=n)
    return partition.class_max(deg)
