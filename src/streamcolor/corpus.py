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

from .core import StreamMeta
from .seeding import GEN, ORDER, rng_for

FAMILIES = ("gnm", "forest-union", "complete", "star", "cycle", "path", "petersen")
ORDERS = ("as-generated", "random", "sorted-by-endpoint", "layered-adversarial")


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
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    leaves = np.arange(1, n, dtype=np.int64)
    return _pairs(np.zeros(n - 1, dtype=np.int64), leaves)


def _cycle(n: int) -> np.ndarray:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    i = np.arange(n, dtype=np.int64)
    return _pairs(i, (i + 1) % n)


def _path(n: int) -> np.ndarray:
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
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
        codes = np.minimum(a, b) * n + np.maximum(a, b)
        uniq, first = np.unique(codes, return_index=True)
        take = np.sort(first[~np.isin(uniq, kept, assume_unique=True)])[: m - got]
        parts.append(_pairs(a[take], b[take]))
        got += len(take)
        if got < m:  # the sets are disjoint, so a sort merges them
            kept = np.sort(np.concatenate((kept, codes[take])))
    return np.concatenate(parts)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _forest_union(n: int, alpha: int, rng: np.random.Generator) -> np.ndarray:
    """Union of alpha random forests (Kruskal over a random pair sample).

    Each forest draws 3n uniform candidate pairs and keeps those joining
    distinct components, so it is a forest by construction and near-spanning
    for the densities used here. Deduplication across forests only removes
    edges, so the union still splits into at most alpha forests: arboricity
    is at most alpha.
    """
    if n < 1:
        raise ValueError("forest-union needs n >= 1")
    if alpha < 1:
        raise ValueError("forest-union needs alpha >= 1")
    seen: set[int] = set()
    out_u: list[int] = []
    out_v: list[int] = []
    for _ in range(alpha):
        if n < 2:
            break
        parent = list(range(n))
        s = 3 * n
        a = rng.integers(0, n, size=s)
        b = rng.integers(0, n - 1, size=s)
        b = b + (b >= a)
        for x, y in zip(a.tolist(), b.tolist()):
            rx = _find(parent, x)
            ry = _find(parent, y)
            if rx == ry:
                continue
            parent[rx] = ry
            code = (min(x, y)) * n + max(x, y)
            if code not in seen:
                seen.add(code)
                out_u.append(x)
                out_v.append(y)
    if not out_u:
        return np.empty((0, 2), dtype=np.int64)
    return _pairs(out_u, out_v)
