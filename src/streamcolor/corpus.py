"""Seeded benchmark-graph generators and arrival-order shufflers.

Families with closed-form structure (complete, star, cycle, path, petersen)
exist so hand-checkable expectations are available; gnm supplies random
instances with measurable max degree; forest-union emits the union of alpha
random forests, so its arboricity is at most alpha by construction, which is
what "certified instance" means everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FAMILIES, ORDERS, StreamMeta, first_occurrences, id_dtype, pair_codes
from .seeding import GEN, ORDER, rng_for


@dataclass(frozen=True)
class GenSpec:
    """One corpus instance: family, size knobs, seed and arrival order."""

    family: str
    n: int
    m: int | None = None        # gnm only
    alpha: int | None = None    # forest-union only
    seed: int = 0
    order: str = "as-generated"


def generate(spec: GenSpec) -> tuple[np.ndarray, StreamMeta]:
    """Build the edge array for spec and the meta facts (n, m, max degree).

    Deterministic: the same spec always yields byte-identical edges.
    Generated graphs are simple (no self-loops, no duplicates).
    """
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    if spec.order not in ORDERS:
        raise ValueError(f"unknown order {spec.order!r}; expected one of {ORDERS}")
    if spec.n < 0:
        raise ValueError("n must be non-negative")
    rng = rng_for(spec.seed, GEN)
    if spec.family == "complete":
        edges = _complete(spec.n)
    elif spec.family == "star":
        edges = _star(spec.n)
    elif spec.family == "cycle":
        edges = _cycle(spec.n)
    elif spec.family == "path":
        edges = _path(spec.n)
    elif spec.family == "petersen":
        if spec.n != 10:
            raise ValueError("petersen has exactly 10 vertices; pass n=10")
        edges = _petersen()
    elif spec.family == "gnm":
        if spec.m is None:
            raise ValueError("gnm needs m")
        edges = _gnm(spec.n, spec.m, rng)
    else:
        if spec.alpha is None:
            raise ValueError("forest-union needs alpha")
        edges = _forest_union(spec.n, spec.alpha, rng)
    edges = shuffle_order(edges, spec.order, spec.seed)
    meta = StreamMeta(n=spec.n, m=len(edges), max_degree=_max_degree(spec.n, edges))
    return edges, meta


def shuffle_order(edges: np.ndarray, order: str, seed: int) -> np.ndarray:
    """Rearrange arrival order. Same multiset of edges, deterministic per seed."""
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {ORDERS}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if order == "as-generated" or len(edges) == 0:
        return edges
    rng = rng_for(seed, ORDER)
    if order == "random":
        return edges[rng.permutation(len(edges))]
    if order == "sorted-by-endpoint":
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        return edges[np.lexsort((hi, lo))]
    # layered-adversarial: edges touching high-degree vertices arrive last,
    # ties broken by a seeded shuffle (stable sort over a random permutation)
    n = int(edges.max()) + 1
    deg = np.bincount(edges[:, 0], minlength=n) + np.bincount(edges[:, 1], minlength=n)
    perm = rng.permutation(len(edges))
    shuffled = edges[perm]
    key = np.maximum(deg[shuffled[:, 0]], deg[shuffled[:, 1]])
    return shuffled[np.argsort(key, kind="stable")]


def _max_degree(n: int, edges: np.ndarray) -> int:
    if n == 0 or len(edges) == 0:
        return 0
    deg = np.bincount(edges[:, 0], minlength=n) + np.bincount(edges[:, 1], minlength=n)
    return int(deg.max())


def _pairs(u, v) -> np.ndarray:
    return np.stack([np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)], axis=1)


def _complete(n: int) -> np.ndarray:
    u, v = np.triu_indices(n, k=1)
    return _pairs(u, v)


def _star(n: int) -> np.ndarray:
    leaves = np.arange(1, n, dtype=np.int64)
    return _pairs(np.zeros_like(leaves), leaves)


def _cycle(n: int) -> np.ndarray:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    i = np.arange(n, dtype=np.int64)
    return _pairs(i, (i + 1) % n)


def _path(n: int) -> np.ndarray:
    i = np.arange(n - 1, dtype=np.int64)
    return _pairs(i, i + 1)


def _petersen() -> np.ndarray:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return np.asarray(outer + spokes + inner, dtype=np.int64)


def _gnm(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct uniform pairs of n vertices, in draw order.

    The sparse path's batch size ``int((m - got) * 1.2) + 16`` and its rule of
    keeping each pair's first occurrence in draw order are part of the seeded
    output, which ``tests/test_golden.py`` pins.
    """
    max_m = n * (n - 1) // 2
    if m < 0 or m > max_m:
        raise ValueError(f"gnm m must be in [0, {max_m}] for n={n}")
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    if max_m <= 2_000_000 and m > max_m // 2:
        # dense case: pick a random m-subset of all pairs directly
        u_all, v_all = np.triu_indices(n, k=1)
        take = rng.permutation(max_m)[:m]
        return _pairs(u_all[take], v_all[take])
    # sparse case: rejection-sample distinct pairs, keeping draw order
    kept = np.empty(0, dtype=np.int64)  # sorted codes of the pairs taken so far
    parts: list[np.ndarray] = []
    got = 0
    while got < m:
        batch = int((m - got) * 1.2) + 16
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n - 1, size=batch)
        b = b + (b >= a)
        codes = pair_codes(a, b, n)
        first = first_occurrences(codes)
        take = first[~np.isin(codes[first], kept, assume_unique=True)][: m - got]
        parts.append(_pairs(a[take], b[take]))
        got += len(take)
        if got < m:  # the sets are disjoint, so a sort merges them
            kept = np.sort(np.concatenate((kept, codes[take])))
    return np.concatenate(parts)


def _forest_union(n: int, alpha: int, rng: np.random.Generator) -> np.ndarray:
    """Union of alpha random forests, each Kruskal's forest over 3n random pairs.

    Forest f draws 3n uniform candidate pairs (``integers(0, n, 3n)``, then
    ``integers(0, n - 1, 3n)`` shifted past the first endpoint, so no
    self-loops) and keeps each candidate whose endpoints no earlier candidate
    has joined. Each forest runs on its own copy of the vertices (``f*n + x``),
    so one run grows all alpha forests. It takes each forest's candidates in
    three stages of n, in draw order. A stage renames its candidates'
    endpoints to the components the earlier stages left, and Borůvka rounds
    (``_min_spanning_forest``) keep the minimum spanning forest of that
    contracted graph, weighted by draw index. That is exactly what Kruskal in
    draw order keeps from the stage: the weights are distinct, and of a
    repeated pair only the first, lighter copy can be kept. The union keeps
    the first copy of each pair in forest-major draw order. Deduplication only
    removes edges, so the union still splits into at most alpha forests:
    arboricity is at most alpha. The draws and that order are the seeded
    output, which ``tests/test_golden.py`` pins.
    """
    if n < 1:
        raise ValueError("forest-union needs n >= 1")
    if alpha < 1:
        raise ValueError("forest-union needs alpha >= 1")
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    s = 3 * n
    # candidate ends, component labels and stage positions share one width;
    # every one of them, and the stage's sentinel alpha*n, is below alpha*s
    dtype = id_dtype(alpha * s)
    ends = np.empty((2, alpha, s), dtype=dtype)  # offset by forest
    for f in range(alpha):
        a = rng.integers(0, n, size=s)
        b = rng.integers(0, n - 1, size=s)
        ends[0, f] = a + f * n
        ends[1, f] = b + (b >= a) + f * n
    kept = np.empty((alpha, s), dtype=bool)
    label = np.arange(alpha * n, dtype=dtype)  # each vertex's component so far
    count = alpha * n
    for lo in range(0, s, n):
        cu, cv = label[ends[:, :, lo : lo + n].reshape(2, -1)]
        stage, comp, count = _min_spanning_forest(cu, cv, count)
        kept[:, lo : lo + n] = stage.reshape(alpha, n)
        label = comp[label]
    idx = np.flatnonzero(kept)
    u, v = ends.reshape(2, -1)[:, idx] - (idx // s) * n
    first = first_occurrences(pair_codes(u, v, n))
    return _pairs(u[first], v[first])


def _min_spanning_forest(
    cu: np.ndarray, cv: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The minimum spanning forest of edges ``(cu[i], cv[i])`` weighing i, on
    vertices [0, n): its mask over the edges, each vertex's component in
    [0, count), and count.

    Borůvka: each round drops the edges inside a component, keeps each
    component's lightest leaving edge, merges along the kept edges and
    numbers the merged components from 0. The live edges' endpoints are
    renamed as it goes. Positions and ids stay at ``cu.dtype``, which must
    hold ``len(cu)``. Parallel edges and self-loops are allowed.
    """
    dtype = cu.dtype
    kept = np.zeros(len(cu), dtype=bool)
    live = np.arange(len(cu), dtype=dtype)  # ascending, so position order is weight order
    comp = np.arange(n, dtype=dtype)
    for _ in range(n.bit_length() + 1):  # each round at least halves the merging components
        cross = cu != cv
        live, cu, cv = live[cross], cu[cross], cv[cross]
        if len(live) == 0:
            return kept, comp, n
        best = np.full(n, len(live), dtype=dtype)
        pos = np.arange(len(live), dtype=dtype)
        np.minimum.at(best, cu, pos)
        np.minimum.at(best, cv, pos)
        roots = np.flatnonzero(best < len(live))
        pick = best[roots]
        kept[live[pick]] = True
        hook = np.arange(n, dtype=dtype)
        hook[roots] = np.where(cu[pick] == roots, cv[pick], cu[pick])
        # two components that picked the same edge point at each other
        mutual = (hook[hook[roots]] == roots) & (roots < hook[roots])
        hook[roots[mutual]] = roots[mutual]
        while not np.array_equal(jumped := hook[hook], hook):
            hook = jumped
        top = hook == np.arange(n, dtype=dtype)
        # wraps below the first root, but only roots are looked up in it
        hook = (np.cumsum(top, dtype=dtype) - 1)[hook]
        n = int(np.count_nonzero(top))
        comp = hook[comp]
        cu, cv = hook[cu], hook[cv]
    raise RuntimeError("Borůvka rounds did not finish")
