"""Multi-pass coloring within a (2+eps)*alpha budget for bounded arboricity.

Derived knobs: eps' = eps/6 and gamma = eps/3. Vertices are split into
ell = max(1, ceil((eps'/c) * ((2+gamma)*alpha) / log2 n)) random classes and
only same-class edges are stored, each once as an int64 min*n+max code
(sorting the codes drops repeats and swapped endpoints). Peeling runs on the
full graph in parallel with collection, sharing pass 1, so the whole run
costs exactly k passes.
Afterwards each class subgraph is colored offline against the peel
orientation with a fresh palette of (max out-degree + 1) colors, giving
total colors at most sum_i (out_i + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EdgeStream, distinct_sorted, pair_codes
from .delta_color import DEFAULT_C, validate_run_params
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
    validate_run_params(n, "alpha", alpha, epsilon, c)
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


def _orient_arrays(
    edges_u: np.ndarray, edges_v: np.ndarray, lp: LayerPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tail and head of each edge, plus the per-vertex key layer*n + v.

    The integer key orders vertices as (layer, id) tuples would, and every edge
    points from its smaller-key endpoint to the larger.
    """
    n = lp.n
    key = np.asarray(lp.layer, dtype=np.int64) * np.int64(n) + np.arange(n, dtype=np.int64)
    u = np.asarray(edges_u, dtype=np.int64)
    v = np.asarray(edges_v, dtype=np.int64)
    forward = key[u] < key[v]
    return np.where(forward, u, v), np.where(forward, v, u), key


def offline_dag_color(
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    lp: LayerPartition,
    class_of: np.ndarray,
    out_degrees: list[int],
) -> Coloring:
    """First-free coloring of every vertex against the (layer, id) orientation.

    The edges must be distinct and join same-class endpoints. Class i
    (1-based) owns a block of out_degrees[i-1] + 1 colors; the blocks are
    laid end to end from 0. Vertices are visited in decreasing key order, so
    a vertex's out-neighbors (all with larger keys) are colored already;
    avoiding them suffices because in-neighbors in turn avoid this vertex.
    """
    n = lp.n
    class_of = np.asarray(class_of, dtype=np.int64)
    tail, head, key = _orient_arrays(edges_u, edges_v, lp)
    # CSR by tail: the out-neighbors of v are heads[start[v]:start[v + 1]]
    heads = head[np.argsort(tail, kind="stable")].tolist()
    start = np.concatenate(([0], np.cumsum(np.bincount(tail, minlength=n)))).tolist()
    widths = np.asarray(out_degrees, dtype=np.int64) + 1
    block_end = np.cumsum(widths)
    first = (block_end - widths)[class_of - 1].tolist()
    limit = block_end[class_of - 1].tolist()
    assignment = [-1] * n
    for v in np.argsort(key)[::-1].tolist():
        used = {assignment[w] for w in heads[start[v] : start[v + 1]]}
        color = first[v]
        while color in used:
            color += 1
        if color >= limit[v]:
            raise AssertionError("palette too small for out-degree; cannot happen")
        assignment[v] = color
    return Coloring(assignment=assignment, palette_size=int(widths.sum()))


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
    ps = PeelState(n, alpha, cfg.gamma)
    before = stream.pass_count
    m = stream.m
    codes = [np.empty(0, dtype=np.int64)]  # so an edgeless stream concatenates
    try:
        # pass 1 collects the same-class edges and counts peel round 1
        for u, v in stream.pass_chunks():
            same = class_of[u] == class_of[v]
            su, sv = u[same], v[same]
            codes.append(pair_codes(su, sv, n))
            ps.consume(u, v)
        # one min*n+max code per stored edge, so repeats and swapped
        # endpoints are stored once
        stored = distinct_sorted(np.concatenate(codes))
        del codes
        ps.finish_round()
        while ps.active_count:
            ps.run_round(stream)
    except PeelStalled as exc:
        exc.metrics = ArbRunMetrics(
            n=n, m=m, ell=cfg.ell, k=ps.rounds, passes=stream.pass_count - before,
            colors_used=0, per_class_out_degree=[],
            peak_stored_edges=len(stored), stalled=True, seed=seed,
        )
        raise
    lp = ps.partition()
    su, sv = np.divmod(stored, n)
    out_degrees = out_degree_profile(su, sv, lp, class_of, cfg.ell).tolist()
    coloring = offline_dag_color(su, sv, lp, class_of, out_degrees)
    metrics = ArbRunMetrics(
        n=n, m=m, ell=cfg.ell, k=lp.k, passes=stream.pass_count - before,
        colors_used=coloring.colors_used, per_class_out_degree=out_degrees,
        peak_stored_edges=len(stored), stalled=False, seed=seed,
    )
    return coloring, metrics


def out_degree_profile(
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    lp: LayerPartition,
    class_of: np.ndarray,
    ell: int,
) -> np.ndarray:
    """Per-class max out-degree: the most same-class edges leaving one vertex.

    Orientation and layers are fixed by the graph; only the class draw is
    random, so concentration sweeps evaluate this on the stream's edges
    without a run. Each edge counts once per occurrence; the run passes its
    deduplicated stored edges to get ArbRunMetrics.per_class_out_degree.
    """
    tail, head, _ = _orient_arrays(edges_u, edges_v, lp)
    same = class_of[tail] == class_of[head]
    n = len(class_of)
    outdeg = np.bincount(tail[same], minlength=n)
    profile = np.zeros(ell, dtype=np.int64)
    if same.any():
        np.maximum.at(profile, class_of - 1, outdeg)
    return profile
