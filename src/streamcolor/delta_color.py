"""One-pass randomized vertex coloring within a (1+eps)*Delta budget.

The vertex set is split into ell random classes up front; each class owns a
disjoint slot palette of size r. Cross-class edges are discarded on arrival.
Same-class edges are stored, each pair once, and when the endpoints currently
share a slot the first-listed endpoint moves to the smallest slot not held by
any of its stored same-class neighbors. run_delta_coloring's one pass only
collects the same-class edges into two arrays at the stream's id width;
replay() then decides them in stream order, so every decision is the one
made on arrival. If no slot is free the run aborts; there is no retry, the
caller reruns with a fresh seed or a larger budget.

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

from .core import (
    DEFAULT_C, Coloring, ColoringAborted, EdgeStream, first_occurrences, id_dtype, pair_codes,
)
from .seeding import PHASE1, check_seed, rng_for


def validate_run_params(n: int, bound_name: str, bound: int, epsilon: float, c: float) -> None:
    """Reject parameters neither coloring run accepts; bound_name ('delta'
    or 'alpha') names the degree or arboricity bound in the message."""
    if n < 2:
        raise ValueError("need n >= 2 (log2 n must be positive)")
    if not 0 <= bound < 2**63:  # so that it converts to a float
        raise ValueError(f"{bound_name} must be non-negative and below 2**63")
    if not 0 < epsilon < math.inf:  # also false for nan
        raise ValueError("epsilon must be a positive finite number")
    if not 0 < c < math.inf:
        raise ValueError("c must be a positive finite number")


def derived_count(name: str, raw: float) -> int:
    """max(1, ceil(raw)) for a count derived from the run parameters, or a
    ValueError naming it when it does not fit in int64."""
    if not raw < 2.0**63:  # also true for inf and nan
        raise ValueError(f"{name} = {raw:g} overflows; the run parameters are out of range")
    return max(1, math.ceil(raw))


def class_count(n: int, delta: int, epsilon: float, c: float) -> int:
    """Number of random classes ell; at least 1 (single class = whole graph)."""
    validate_run_params(n, "delta", delta, epsilon, c)
    return derived_count("ell", epsilon * delta / (2.0 * c * math.log2(n)))


def palette_size(n: int, epsilon: float, c: float) -> int:
    """Slots per class, r."""
    validate_run_params(n, "delta", 0, epsilon, c)
    return derived_count("r", (1.0 + 2.0 / epsilon) * c * math.log2(n)) + 1


@dataclass(frozen=True)
class PhasePartition:
    """Random class split drawn before the stream is read; both runs store its same-class edges."""

    ell: int
    class_of: np.ndarray = field(repr=False)  # per-vertex class id in [1, ell]
    seed: int

    @classmethod
    def draw(cls, n: int, ell: int, seed: int) -> PhasePartition:
        """Each vertex's class, iid uniform over [1, ell], from the seed's PHASE1
        stream. One class is the whole graph: that split draws nothing, so
        numpy.random is never loaded for it."""
        if ell == 1:
            check_seed(seed)
            class_of = np.ones(n, dtype=np.int64)
        else:
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


def replay(
    u: np.ndarray, v: np.ndarray, n: int, r: int
) -> tuple[list[int], np.ndarray, int, int | None]:
    """Run the online rule over same-class edges u, v in stream order.

    Each pair is stored once, in one flat array at id width: x's stored
    neighbors, in arrival order, are nbr[start[x]:fill[x]]. If its endpoints
    share a slot, the first-listed moves to the smallest of the r slots no
    stored neighbor holds. Repeats, in either endpoint order, are dropped
    first: they are no-ops, since after a pair's first occurrence each
    endpoint is a stored neighbor of the other, and a vertex only moves to a
    slot no stored neighbor holds, so the two never share a slot again and a
    repeat would take the ``continue`` before any cost is counted.

    Returns each vertex's slot and stored degree, the most neighbors plus
    slots examined on one edge, and the vertex that found no free slot, or
    None; after such a stop, slots and degrees are those at the stop.
    """
    first = first_occurrences(pair_codes(u, v, n))
    u, v = u[first], v[first]
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    start = (np.cumsum(degree) - degree).tolist()
    fill = list(start)
    nbr = memoryview(np.zeros(int(degree.sum()), dtype=id_dtype(n)))
    slot = [1] * n  # every vertex starts on slot 1
    occ = [0] * (r + 1)  # slot occupancy scratch, stamp-cleared
    stamp = 0
    max_edge_cost = 0
    stuck = None
    # memoryviews yield one int per edge as the loop reaches it, so no list
    # of the edges is ever built
    for a, b in zip(memoryview(u), memoryview(v)):
        nbr[fill[a]] = b
        fill[a] += 1
        nbr[fill[b]] = a
        fill[b] += 1
        if slot[a] != slot[b]:
            continue
        stamp += 1
        for w in nbr[start[a] : fill[a]]:
            occ[slot[w]] = stamp
        chosen = 0
        for s in range(1, r + 1):
            if occ[s] != stamp:
                chosen = s
                break
        cost = fill[a] - start[a] + (chosen or r)
        if cost > max_edge_cost:
            max_edge_cost = cost
        if not chosen:
            stuck = a
            break
        slot[a] = chosen
    return slot, np.asarray(fill) - np.asarray(start), max_edge_cost, stuck


def run_delta_coloring(
    stream: EdgeStream, delta: int, epsilon: float, c: float = DEFAULT_C, seed: int = 0
) -> tuple[Coloring, DeltaRunMetrics]:
    """Color stream's graph in exactly one pass.

    delta need only bound the simple graph's max degree, as a class's stored
    degree counts distinct neighbors (measure_max_degree costs one extra
    pass, and counts repeats). Raises ColoringAborted, with
    metrics attached, when a class palette is exhausted; the pass is read to
    its end before the replay finds that out.
    """
    n = stream.n
    part = PhasePartition.draw(n, class_count(n, delta, epsilon, c), seed)
    r = palette_size(n, epsilon, c)  # class i owns colors (i-1)*r + 1 .. i*r
    before = stream.pass_count
    # same-class occurrences at id width, 4 B each at n = 8192; palettes are
    # disjoint, so no other edge conflicts
    width = id_dtype(n)
    us, vs = [np.empty(0, dtype=width)], [np.empty(0, dtype=width)]
    for u, v in stream.pass_chunks():
        same = part.same(u, v)
        us.append(u[same])
        vs.append(v[same])
    u, v = np.concatenate(us), np.concatenate(vs)
    del us, vs
    slot, degree, max_edge_cost, stuck = replay(u, v, n, r)
    assignment = ((part.class_of - 1) * r + np.asarray(slot)).tolist()
    coloring = Coloring(assignment=assignment, palette_size=part.ell * r)
    per_class = part.class_max(degree).tolist()
    aborted = stuck is not None
    metrics = DeltaRunMetrics(
        n=n, m=stream.m, ell=part.ell, r=r, passes=stream.pass_count - before,
        colors_used=0 if aborted else coloring.colors_used,
        peak_stored_edges=int(degree.sum()) // 2,  # stored edges are never dropped
        max_class_degree=max(per_class), per_class_degree=per_class, aborted=aborted,
        seed=seed, max_edge_cost=max_edge_cost,
    )
    if aborted:
        raise ColoringAborted(stuck, int(part.class_of[stuck]), int(degree[stuck]), seed, metrics)
    return coloring, metrics


def mono_degree_profile(
    edges_u: np.ndarray, edges_v: np.ndarray, partition: PhasePartition
) -> np.ndarray:
    """Per-class max monochromatic degree, computed directly from a partition.

    This is the quantity the concentration tests sample over many seeds; it
    depends only on the graph and the class assignment, not on the online
    recoloring, so it needs no run. Only the tests call it, to cross-check
    DeltaRunMetrics.per_class_degree; no sweep does yet.
    """
    same = partition.same(edges_u, edges_v)
    n = partition.n
    deg = np.bincount(edges_u[same], minlength=n) + np.bincount(edges_v[same], minlength=n)
    return partition.class_max(deg)
