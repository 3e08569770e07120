"""Generator families: determinism, structure facts, arrival orders."""

from __future__ import annotations

import numpy as np
import pytest

from streamcolor import EdgeStream, GenSpec, generate, shuffle_order
from streamcolor.corpus import _gnm
from streamcolor.oracle import degeneracy, nash_williams_arboricity
from streamcolor.seeding import GEN, rng_for


def edge_codes(edges: np.ndarray) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in edges.tolist()}


def assert_simple(n: int, edges: np.ndarray) -> None:
    assert (edges[:, 0] != edges[:, 1]).all()
    assert edges.min() >= 0 and edges.max() < n
    assert len(edge_codes(edges)) == len(edges)


def test_generate_is_deterministic():
    spec = GenSpec(family="gnm", n=128, m=500, seed=42)
    e1, m1 = generate(spec)
    e2, m2 = generate(spec)
    assert e1.tobytes() == e2.tobytes()
    assert m1 == m2


def test_generate_seed_changes_gnm():
    e1, _ = generate(GenSpec(family="gnm", n=128, m=500, seed=1))
    e2, _ = generate(GenSpec(family="gnm", n=128, m=500, seed=2))
    assert e1.tobytes() != e2.tobytes()


def test_complete_family():
    edges, meta = generate(GenSpec(family="complete", n=4))
    assert meta.m == 6 and meta.max_degree == 3
    edges, meta = generate(GenSpec(family="complete", n=6))
    assert meta.m == 15
    assert meta.max_degree == 5
    assert_simple(6, edges)
    assert edge_codes(edges) == {(i, j) for i in range(6) for j in range(i + 1, 6)}


def test_star_family():
    edges, meta = generate(GenSpec(family="star", n=8))
    assert meta.m == 7
    assert meta.max_degree == 7
    assert all(u == 0 for u, _ in edges.tolist())


def test_cycle_and_path_families():
    edges, meta = generate(GenSpec(family="cycle", n=5))
    assert meta.m == 5 and meta.max_degree == 2
    edges, meta = generate(GenSpec(family="path", n=5))
    assert meta.m == 4 and meta.max_degree == 2
    with pytest.raises(ValueError, match="cycle needs n >= 3"):
        generate(GenSpec(family="cycle", n=2))


def test_petersen_family():
    edges, meta = generate(GenSpec(family="petersen", n=10))
    assert meta.m == 15
    assert meta.max_degree == 3
    deg = np.bincount(edges.ravel(), minlength=10)
    assert (deg == 3).all()  # 3-regular
    with pytest.raises(ValueError, match="petersen"):
        generate(GenSpec(family="petersen", n=9))


@pytest.mark.parametrize("n,m", [(64, 500), (64, 1500)])  # sparse and dense paths
def test_gnm_family(n, m):
    edges, meta = generate(GenSpec(family="gnm", n=n, m=m, seed=3))
    assert meta.m == m == len(edges)
    assert_simple(n, edges)


def test_gnm_edge_cases():
    edges, meta = generate(GenSpec(family="gnm", n=5, m=0))
    assert meta.m == 0 and meta.max_degree == 0
    edges, _ = generate(GenSpec(family="gnm", n=5, m=10))  # the full K5
    assert edge_codes(edges) == {(i, j) for i in range(5) for j in range(i + 1, 5)}
    with pytest.raises(ValueError, match="gnm m must be in"):
        generate(GenSpec(family="gnm", n=5, m=11))
    with pytest.raises(ValueError, match="gnm needs m"):
        generate(GenSpec(family="gnm", n=5))


def gnm_reference(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The per-draw set loop that the vectorized sparse path replaced."""
    max_m = n * (n - 1) // 2
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    if max_m <= 2_000_000 and m > max_m // 2:
        u_all, v_all = np.triu_indices(n, k=1)
        take = rng.permutation(max_m)[:m]
        return np.stack([u_all[take], v_all[take]], axis=1).astype(np.int64)
    seen: set[int] = set()
    out: list[tuple[int, int]] = []
    while len(out) < m:
        batch = int((m - len(out)) * 1.2) + 16
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n - 1, size=batch)
        b = b + (b >= a)
        for x, y in zip(a.tolist(), b.tolist()):
            code = min(x, y) * n + max(x, y)
            if code in seen:
                continue
            seen.add(code)
            out.append((x, y))
            if len(out) == m:
                break
    return np.asarray(out, dtype=np.int64)


class CountingRng:
    """A generator that counts its batches, to show a case needs several."""

    def __init__(self, seed: int):
        self.rng = rng_for(seed, GEN)
        self.batches = 0

    def integers(self, *args, **kwargs):
        self.batches += 1
        return self.rng.integers(*args, **kwargs)

    def permutation(self, *args):
        return self.rng.permutation(*args)


@pytest.mark.parametrize(
    "n,m,seed,min_batches",
    [
        (128, 500, 42, 1),
        (1000, 5000, 3, 1),
        (8192, 20_000, 101, 1),
        (100, 2475, 1, 2),   # the densest sparse case: many rejections
        (64, 1008, 2, 2),
        (40, 390, 5, 2),
        (2, 1, 0, 0),        # a single possible pair: dense path
        (5, 0, 0, 0),
        (64, 1500, 3, 0),    # dense path
    ],
)
def test_gnm_matches_per_draw_reference(n, m, seed, min_batches):
    counted = CountingRng(seed)
    got = _gnm(n, m, counted)
    want = gnm_reference(n, m, rng_for(seed, GEN))
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape == (m, 2)
    assert np.array_equal(got, want)
    assert counted.batches >= 2 * min_batches  # two draws per batch


def test_forest_union_certified_arboricity():
    for alpha in (1, 2, 3):
        spec = GenSpec(family="forest-union", n=16, alpha=alpha, seed=7)
        edges, meta = generate(spec)
        assert_simple(16, edges)
        assert meta.m <= alpha * 15
        g = EdgeStream.from_edges(16, edges)
        assert nash_williams_arboricity(g) <= alpha


def test_forest_union_degeneracy_bound_at_larger_n():
    # past the brute-force oracle's reach, certify via degeneracy <= 2*alpha - 1
    edges, _ = generate(GenSpec(family="forest-union", n=50, alpha=3, seed=7))
    g = EdgeStream.from_edges(50, edges)
    assert degeneracy(g).d <= 5


def test_forest_union_alpha_one_is_a_forest():
    edges, meta = generate(GenSpec(family="forest-union", n=100, alpha=1, seed=4))
    assert meta.m > 0
    g = EdgeStream.from_edges(100, edges)
    assert degeneracy(g).d == 1  # nonempty and degenerate order peels leaves only


def test_forest_union_validation():
    with pytest.raises(ValueError, match="alpha >= 1"):
        generate(GenSpec(family="forest-union", n=10, alpha=0))
    with pytest.raises(ValueError, match="forest-union needs alpha"):
        generate(GenSpec(family="forest-union", n=10))
    edges, meta = generate(GenSpec(family="forest-union", n=1, alpha=2))
    assert meta.m == 0


def test_unknown_family_and_order():
    with pytest.raises(ValueError, match="unknown family"):
        generate(GenSpec(family="tree", n=4))
    with pytest.raises(ValueError, match="unknown order"):
        generate(GenSpec(family="path", n=4, order="shuffled"))
    with pytest.raises(ValueError, match="n must be non-negative"):
        generate(GenSpec(family="path", n=-1))


def test_orders_preserve_edge_multiset():
    base_edges, base_meta = generate(GenSpec(family="gnm", n=64, m=300, seed=5))
    for order in ("random", "sorted-by-endpoint", "layered-adversarial"):
        edges, meta = generate(GenSpec(family="gnm", n=64, m=300, seed=5, order=order))
        assert edge_codes(edges) == edge_codes(base_edges)
        assert meta.max_degree == base_meta.max_degree


def test_order_as_generated_is_identity():
    edges, _ = generate(GenSpec(family="gnm", n=32, m=100, seed=6))
    assert shuffle_order(edges, "as-generated", 6).tobytes() == edges.tobytes()


def test_order_random_is_seeded():
    edges, _ = generate(GenSpec(family="gnm", n=32, m=100, seed=6))
    a = shuffle_order(edges, "random", 1)
    b = shuffle_order(edges, "random", 1)
    c = shuffle_order(edges, "random", 2)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert a.tobytes() != edges.tobytes()


def test_order_sorted_by_endpoint():
    edges, _ = generate(GenSpec(family="gnm", n=32, m=100, seed=6, order="sorted-by-endpoint"))
    keys = [(min(u, v), max(u, v)) for u, v in edges.tolist()]
    assert keys == sorted(keys)


def test_order_layered_adversarial_puts_hot_vertices_last():
    edges, _ = generate(GenSpec(family="gnm", n=32, m=100, seed=6))
    n = 32
    deg = np.bincount(edges.ravel(), minlength=n)
    out = shuffle_order(edges, "layered-adversarial", 6)
    key = np.maximum(deg[out[:, 0]], deg[out[:, 1]])
    assert (np.diff(key) >= 0).all()


def test_shuffle_order_empty():
    empty = np.empty((0, 2), dtype=np.int64)
    assert len(shuffle_order(empty, "random", 0)) == 0
