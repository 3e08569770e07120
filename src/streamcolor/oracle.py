"""Offline checks and ground-truth oracles.

Two are vectorized one-pass checks: ``verify_proper``, which ``verify`` runs,
and ``repeat_counts``, which ``oracle repeats`` prints. The rest is
slow-but-obviously-correct reference machinery: greedy coloring, degeneracy
peeling and brute-force Nash-Williams arboricity on tiny graphs. Each reads
its graph from an EdgeStream; the references copy it into deduplicated
neighbor sets in one pass. The streaming algorithms are always judged
against these, never against themselves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_PAIR_N, EdgeStream, first_occurrences, id_dtype, pair_codes, run_firsts


@dataclass
class Coloring:
    """Total vertex -> color assignment plus the palette it came from."""

    assignment: list[int]
    palette_size: int

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment)) if self.assignment else 0


@dataclass
class DegeneracyResult:
    d: int
    order: list[int] = field(repr=False)


@dataclass(frozen=True)
class RepeatCounts:
    """How often stream edges repeat, either endpoint order counting as one pair."""

    m: int
    distinct: int
    max_multiplicity: int

    @property
    def repeats(self) -> int:
        return self.m - self.distinct


def _adjacency(stream: EdgeStream) -> list[set[int]]:
    """Each vertex's distinct neighbors, read in one pass."""
    adj: list[set[int]] = [set() for _ in range(stream.n)]
    for u, v in stream.pass_chunks():
        for a, b in zip(u.tolist(), v.tolist()):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def verify_proper(stream: EdgeStream, coloring: Coloring) -> list[tuple[int, int]]:
    """All edges whose endpoints share a color (empty list means proper), in
    one pass.

    Duplicate stream edges report once, as (min, max), in the order of their
    first appearance in the stream.
    """
    n = stream.n
    col = coloring.assignment
    if len(col) != n:
        raise ValueError(f"coloring missing a vertex: has {len(col)} entries for n={n}")
    # dense color ids, below n, so colors of any size compare at id width
    ids: dict[int, int] = {}
    code = np.fromiter((ids.setdefault(c, len(ids)) for c in col), dtype=id_dtype(n), count=n)
    found = [np.empty(0, dtype=id_dtype(n * n))]
    for u, v in stream.pass_chunks():
        same = code[u] == code[v]
        u, v = u[same], v[same]
        found.append(pair_codes(u, v, n))
    edges = np.concatenate(found)
    edges = edges[first_occurrences(edges)]
    return list(zip((edges // n).tolist(), (edges % n).tolist()))


def repeat_counts(stream: EdgeStream) -> RepeatCounts:
    """Edge, distinct-pair and top multiplicity counts, in one pass.

    Keeps one ``min*n+max`` code per stream edge, so it needs O(m) memory.
    Repeats are why the occurrence counters (max degree, peel degrees) can
    exceed the simple graph's and cost extra peel passes.
    """
    n = stream.n
    if n > MAX_PAIR_N:
        raise ValueError(f"repeat counts need n <= {MAX_PAIR_N}, so that pair codes fit in int64")
    codes = [np.empty(0, dtype=id_dtype(n * n))]
    for u, v in stream.pass_chunks():
        codes.append(pair_codes(u, v, n))
    codes = np.concatenate(codes)
    codes.sort()  # each distinct pair is now one run
    counts = np.diff(np.flatnonzero(run_firsts(codes)), append=len(codes))
    return RepeatCounts(
        m=len(codes), distinct=len(counts), max_multiplicity=int(counts.max(initial=0))
    )


def greedy_color(stream: EdgeStream, order: list[int]) -> Coloring:
    """First-free greedy along the given vertex order.

    Uses at most max_degree + 1 colors regardless of order, where the max
    degree counts each distinct neighbor once.
    """
    n = stream.n
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the vertex set")
    adj = _adjacency(stream)
    assignment = [-1] * n
    for v in order:
        used = {assignment[w] for w in adj[v] if assignment[w] >= 0}
        c = 0
        while c in used:
            c += 1
        assignment[v] = c
    return Coloring(assignment=assignment, palette_size=max(map(len, adj), default=0) + 1)


def degeneracy(stream: EdgeStream) -> DegeneracyResult:
    """Repeated min-degree removal; ties go to the lowest vertex id.

    d is the largest degree seen at removal time. Coloring greedily along
    the reversed removal order needs at most d + 1 colors.
    """
    n = stream.n
    adj = _adjacency(stream)
    deg = [len(s) for s in adj]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    order: list[int] = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue  # stale entry
        removed[v] = True
        order.append(v)
        if dv > d:
            d = dv
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return DegeneracyResult(d=d, order=order)


def nash_williams_arboricity(stream: EdgeStream) -> int:
    """Exact arboricity: max over vertex sets S, |S| > 1, of
    ceil(|E(S)| / (|S| - 1)), by enumeration of all 2^n subsets.

    Hard-capped at n <= 20; beyond that use degeneracy (arboricity sits in
    [ceil(degeneracy/2) rounded up via d <= 2*arboricity - 1, degeneracy]).
    """
    n = stream.n
    if n > 20:
        raise ValueError(
            "nash_williams_arboricity enumerates 2^n subsets and is capped at "
            "n <= 20; use degeneracy bounds for larger graphs"
        )
    if n < 2:
        return 0
    nbr = [sum(1 << w for w in s) for s in _adjacency(stream)]
    best = 0
    inner = [0] * (1 << n)  # edges inside each subset
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        e = inner[rest] + (nbr[v] & rest).bit_count()
        inner[s] = e
        size = s.bit_count()
        if size > 1 and e:
            need = (e + size - 2) // (size - 1)  # ceil(e / (size - 1))
            if need > best:
                best = need
    return best
