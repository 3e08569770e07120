"""Multi-pass degree peeling and the implicit acyclic orientation.

Round i spends one pass counting, for every still-active vertex, its degree
among active vertices; everything at or below floor((2+gamma)*alpha) moves
into layer i. A round that removes nothing while actives remain means the
alpha bound was too small for the graph, which is a stall error, not a loop.

The layer partition induces an orientation without storing any edges: an
edge points from the endpoint with the smaller (layer, id) key to the larger.
That order is total, so the orientation is acyclic, and a vertex's
out-neighbors all sat in layers at or above its own, which is exactly the
population its peel-time degree counted, so out-degree is at most the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import EdgeStream


def peel_threshold(alpha: int | float, gamma: float) -> int:
    """floor((2 + gamma) * alpha) with exact decimal arithmetic.

    Routing through Fraction(str(.)) keeps e.g. alpha=100, gamma=0.29 at 229
    where naive float product gives 228.999... and would floor one short.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return math.floor((Fraction(2) + Fraction(str(gamma))) * Fraction(str(alpha)))


def max_rounds_bound(n: int, gamma: float) -> int:
    """ceil(log2 n / log2((2+gamma)/2)): round ceiling on instances whose
    true arboricity is at most the alpha handed to peel. Valid for n >= 2."""
    return math.ceil(math.log2(n) / math.log2((2.0 + gamma) / 2.0))


class PeelStalled(RuntimeError):
    """A round removed nothing while active vertices remained (alpha too small)."""

    def __init__(self, round_no: int, active_count: int, threshold: int, alpha, gamma: float):
        super().__init__(
            f"peeling stalled in round {round_no}: {active_count} active vertices "
            f"all above threshold {threshold} (alpha={alpha}, gamma={gamma})"
        )
        self.round_no = round_no
        self.active_count = active_count
        self.threshold = threshold
        self.alpha = alpha
        self.gamma = gamma
        self.metrics = None  # attached by run_arboricity_coloring


@dataclass
class LayerPartition:
    """Result of a completed peel: layer ids 1..k covering every vertex.

    witnessed_degree[v] is v's active degree in the round that peeled it,
    recorded so the threshold guarantee is checkable after the fact.
    """

    k: int
    layer: list[int] = field(repr=False)
    alpha: int | float
    gamma: float
    threshold: int
    witnessed_degree: list[int] = field(repr=False)
    passes: int

    @property
    def n(self) -> int:
        return len(self.layer)


class PeelState:
    """Round-by-round peeling; the caller drives one stream pass per round.

    Keeps only O(n) scalars per vertex (active flag, round degree, layer),
    never edges. consume() takes each chunk of a pass; finish_round() peels
    and resets counters.
    """

    def __init__(self, n: int, alpha: int | float, gamma: float):
        self.n = n
        self.alpha = alpha
        self.gamma = gamma
        self.threshold = peel_threshold(alpha, gamma)
        self.active = np.ones(n, dtype=bool)
        self.deg = np.zeros(n, dtype=np.int64)
        self.layer = np.zeros(n, dtype=np.int64)
        self.witnessed = np.zeros(n, dtype=np.int64)
        self.active_ids = np.arange(n, dtype=np.int64)
        self.rounds = 0

    def consume(self, u: np.ndarray, v: np.ndarray) -> None:
        """Count each edge with both endpoints active toward both degrees."""
        both = self.active[u] & self.active[v]
        self.deg += np.bincount(np.concatenate((u[both], v[both])), minlength=self.n)

    def finish_round(self) -> int:
        """Peel everything at or under threshold; returns how many moved."""
        self.rounds += 1
        ids = self.active_ids
        deg = self.deg[ids]
        low = deg <= self.threshold
        gone = ids[low]
        keep = ids[~low]
        if not len(gone) and len(keep):
            raise PeelStalled(self.rounds, len(keep), self.threshold, self.alpha, self.gamma)
        self.layer[gone] = self.rounds
        self.witnessed[gone] = deg[low]
        self.active[gone] = False
        self.deg[:] = 0
        self.active_ids = keep
        return len(gone)

    @property
    def active_count(self) -> int:
        return len(self.active_ids)

    def partition(self) -> LayerPartition:
        if self.active_count:
            raise RuntimeError("peeling has not finished; active vertices remain")
        return LayerPartition(
            k=self.rounds,
            layer=self.layer.tolist(),
            alpha=self.alpha,
            gamma=self.gamma,
            threshold=self.threshold,
            witnessed_degree=self.witnessed.tolist(),
            passes=self.rounds,
        )

    def run_round(self, stream: EdgeStream) -> int:
        """One pass of degree counting, then finish_round()."""
        for u, v in stream.pass_chunks():
            self.consume(u, v)
        return self.finish_round()


def peel(stream: EdgeStream, alpha: int | float, gamma: float) -> LayerPartition:
    """Layer the whole vertex set in exactly k passes (k = number of rounds).

    Raises PeelStalled when alpha was not a valid arboricity upper bound for
    the graph densities actually encountered.
    """
    state = PeelState(stream.n, alpha, gamma)
    while state.active_count:
        state.run_round(stream)
    return state.partition()


def measure_forward_degree(stream: EdgeStream, lp: LayerPartition) -> int:
    """One verification pass: max over v of #neighbors in layers >= layer(v).

    For every vertex this is at least its orientation out-degree, and the
    peel guarantee bounds it by the threshold, so callers can assert
    measure_forward_degree(...) <= lp.threshold on certified instances.
    """
    n = stream.n
    layer = np.asarray(lp.layer, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for u, v in stream.pass_chunks():
        lu = layer[u]
        lv = layer[v]
        counts += np.bincount(v[lu >= lv], minlength=n)
        counts += np.bincount(u[lv >= lu], minlength=n)
    return int(counts.max()) if n else 0
