"""Multi-pass coloring within a (2+eps)*alpha budget for bounded arboricity.

Derived knobs: eps' = eps/6 and gamma = eps/3. Vertices are split into
ell = max(1, ceil((eps'/c) * ((2+gamma)*alpha) / log2 n)) random classes and
only same-class edges are stored, each once as a min*n+max code at
id_dtype(n * n), 4 bytes up to n = 65536 (sorting the codes drops repeats
and swapped endpoints). Peeling runs on the full graph in parallel with
collection, sharing pass 1, so the whole run costs exactly k passes.
Afterwards each class subgraph is colored offline against the peel
orientation with a fresh palette of (max out-degree + 1) colors, giving
total colors at most sum_i (out_i + 1). The offline stage decodes the codes
to ids at id_dtype(n) and orients them once by ``LayerPartition.key()``;
the out-degrees and the coloring both read that one orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_C, Coloring, EdgeStream, PeelStalled, id_dtype, pair_codes, run_firsts
from .delta_color import PhasePartition, derived_count, validate_run_params
from .peel import LayerPartition, PeelState


@dataclass(frozen=True)
class ArbRunConfig:
    """All derived parameters of one run, frozen before the stream is read."""

    eps_prime: float
    gamma: float
    ell: int


def derive_config(n: int, alpha: int, epsilon: float, c: float) -> ArbRunConfig:
    validate_run_params(n, "alpha", alpha, epsilon, c)
    eps_prime = epsilon / 6.0
    gamma = epsilon / 3.0
    raw = (eps_prime / c) * ((2.0 + gamma) * alpha) / math.log2(n)
    return ArbRunConfig(eps_prime=eps_prime, gamma=gamma, ell=derived_count("ell", raw))


def per_class_out_bound(n: int, eps_prime: float, c: float) -> float:
    """(1 + 1/eps') * c * log2 n: the w.h.p. cap on any class's max out-degree."""
    return (1.0 + 1.0 / eps_prime) * c * math.log2(n)


def offline_dag_color(
    u: np.ndarray, v: np.ndarray, lp: LayerPartition, part: PhasePartition
) -> tuple[Coloring, list[int]]:
    """First-free coloring of every vertex against the peel orientation, and
    the per-class max out-degrees that size its palettes.

    The edges must be distinct, in either endpoint order, and join endpoints
    of one class of ``part``. Each points from its endpoint with the smaller
    ``lp.key()`` to the larger, so a vertex's out-edges here are its class
    out-degree. Class i (1-based) owns a block of (its max out-degree + 1)
    colors, which no vertex can exhaust; the blocks are laid end to end from
    0. Vertices are visited in decreasing key order, so a vertex's
    out-neighbors (all with larger keys) are colored already; avoiding them
    suffices because in-neighbors in turn avoid this vertex.
    """
    n = lp.n
    key = lp.key()
    forward = key[u] < key[v]
    tail, head = np.where(forward, u, v), np.where(forward, v, u)
    out = np.bincount(tail, minlength=n)
    out_degrees = part.class_max(out)
    # CSR by tail: the out-neighbors of x are heads[start[x]:start[x + 1]], in
    # any order, since only the set of their colors matters
    start = np.concatenate(([0], np.cumsum(out))).tolist()
    del out
    by_tail = tail.astype(id_dtype(n * n), copy=False)  # where made tail a new array
    del forward, tail
    by_tail *= n
    np.add(by_tail, head, out=by_tail, casting="unsafe")  # exact: every id is below n
    del head  # the codes hold the edges now
    by_tail.sort()
    by_tail %= n
    heads = memoryview(by_tail.astype(id_dtype(n)))  # yields one int per head as read
    del by_tail
    widths = out_degrees + 1
    first = (np.cumsum(widths) - widths)[part.class_of - 1].tolist()
    assignment = [-1] * n
    for x in np.argsort(key)[::-1].tolist():
        used = {assignment[w] for w in heads[start[x] : start[x + 1]]}
        color = first[x]
        while color in used:
            color += 1
        assignment[x] = color
    return Coloring(assignment=assignment, palette_size=int(widths.sum())), out_degrees.tolist()


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
    n = stream.n
    cfg = derive_config(n, alpha, epsilon, c)
    part = PhasePartition.draw(n, cfg.ell, seed)
    ps = PeelState(n, alpha, cfg.gamma)
    before = stream.pass_count
    codes = [np.empty(0, dtype=id_dtype(n * n))]  # so an edgeless stream concatenates

    def metrics(**outcome) -> ArbRunMetrics:
        return ArbRunMetrics(
            n=n, m=stream.m, ell=cfg.ell, k=ps.rounds, passes=stream.pass_count - before,
            peak_stored_edges=peak_stored_edges, seed=seed, **outcome,
        )

    try:
        # pass 1 collects the same-class edges and counts peel round 1
        for u, v in stream.pass_chunks():
            same = part.same(u, v)
            codes.append(pair_codes(u[same], v[same], n))
            ps.consume(u, v)
        # one min*n+max code per stored edge, so repeats and swapped
        # endpoints are stored once: sort in place, keep each run's first
        stored = np.concatenate(codes)
        del codes
        stored.sort()
        stored = stored[run_firsts(stored)]
        peak_stored_edges = len(stored)
        ps.finish_round()
        while ps.active_count:
            ps.run_round(stream)
    except PeelStalled as exc:
        exc.metrics = metrics(colors_used=0, per_class_out_degree=[], stalled=True)
        raise
    lp = ps.partition()
    width = id_dtype(n)
    u, v = (stored // n).astype(width), (stored % n).astype(width)
    del stored  # u and v hold the edges now; free the codes before the offline stage
    coloring, out_degrees = offline_dag_color(u, v, lp, part)
    return coloring, metrics(
        colors_used=coloring.colors_used, per_class_out_degree=out_degrees, stalled=False
    )


def out_degree_profile(
    edges_u: np.ndarray, edges_v: np.ndarray, lp: LayerPartition, partition: PhasePartition
) -> np.ndarray:
    """Per-class max out-degree: the most same-class edges leaving one vertex.

    Orientation and layers are fixed by the graph; only the class draw is
    random, so this needs no run, only the stream's edges, each counted once
    per occurrence. The tests, its only callers, check that on a run's
    deduplicated stored edges it gives ArbRunMetrics.per_class_out_degree.
    """
    key = lp.key()
    tail = np.where(key[edges_u] < key[edges_v], edges_u, edges_v)
    outdeg = np.bincount(tail[partition.same(edges_u, edges_v)], minlength=partition.n)
    return partition.class_max(outdeg)
