"""Stored edges at id width: the narrow path equals the int64 one, and costs
a bounded number of traced bytes per stored edge.

Vertex ids stay at ``core.id_dtype(n)`` from the stream through the offline
stage, and pair codes at ``id_dtype(n * n)``. With ``id_dtype`` patched to
int64 everywhere, every array is as wide as it can be, so any arithmetic
that wraps at a narrow width shows up as a different coloring or metric.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import numpy.random  # noqa: F401  imported before tracing: it allocates several MB once
import pytest

from streamcolor import core
from streamcolor.arb_color import run_arboricity_coloring
from streamcolor.core import Coloring, ColoringAborted, EdgeStream, PeelStalled, measure_max_degree
from streamcolor.corpus import GenSpec, generate
from streamcolor.delta_color import class_count, run_delta_coloring
from streamcolor.oracle import verify_proper

# ids widen past n = 256 and 65536; pair codes are uint32 up to n = 65536
# (65536**2 - 1 fits) and int64 from 65537 on
WIDTH_LIMITS = [255, 256, 257, 65535, 65536, 65537]
CHUNK_SIZES = (1, 7, None)  # None: the default chunk size


def spread_edges(n: int) -> np.ndarray:
    """A forest union on 200 vertices, half of them moved to the top ids
    below n, plus swapped and exact repeats."""
    edges, _ = generate(GenSpec(family="forest-union", n=200, alpha=3, seed=n))
    edges = np.where(edges < 100, edges, edges + (n - 200))
    repeats = edges[::9].copy()
    repeats[::2] = repeats[::2, ::-1]
    return np.concatenate([edges, repeats, edges[:5]])


def outcome(run):
    """A run's (coloring, metrics), or the metrics its exception carries."""
    try:
        coloring, metrics = run()
    except (ColoringAborted, PeelStalled) as exc:
        return None, asdict(exc.metrics)
    return coloring, asdict(metrics)


def both_runs(n: int, edges: np.ndarray, chunk_size: int | None):
    chunked = EdgeStream.pass_chunks
    if chunk_size is not None:
        chunked = functools.partialmethod(chunked, chunk_size=chunk_size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EdgeStream, "pass_chunks", chunked)
        delta = measure_max_degree(EdgeStream.from_edges(n, edges))
        arb = outcome(lambda: run_arboricity_coloring(
            EdgeStream.from_edges(n, edges), alpha=4, epsilon=1.0, c=0.5, seed=3))
        one_pass = outcome(lambda: run_delta_coloring(
            EdgeStream.from_edges(n, edges), delta, epsilon=0.5, c=0.2, seed=3))
    return arb, one_pass


@pytest.mark.parametrize("n", WIDTH_LIMITS)
def test_narrow_runs_equal_int64_runs(monkeypatch, n):
    edges = spread_edges(n)
    assert int(edges.max()) == n - 1
    narrow = [both_runs(n, edges, k) for k in CHUNK_SIZES]
    wide_ids = core.id_dtype
    for module in [m for name, m in sys.modules.items() if name.startswith("streamcolor")]:
        if getattr(module, "id_dtype", None) is wide_ids:  # every module-local binding too
            monkeypatch.setattr(module, "id_dtype", lambda n: np.dtype(np.int64))
    assert next(EdgeStream.from_edges(n, edges).pass_chunks())[0].dtype == np.int64
    wide = [both_runs(n, edges, k) for k in CHUNK_SIZES]
    assert narrow == wide
    (arb, one_pass), *others = narrow
    assert all(run == (arb, one_pass) for run in others)
    # the runs finish, and the one-pass run splits the vertices into classes
    assert arb[0] is not None and one_pass[0] is not None
    assert one_pass[1]["ell"] > 1


@pytest.mark.parametrize("n", WIDTH_LIMITS)
def test_verify_compares_n_distinct_colors_at_id_width(n):
    # every vertex has its own color, beyond int64's reach, so the dense
    # color ids that verify compares run up to n - 1; the last edges join
    # ids that an 8- or 16-bit color id would wrap onto the same value
    colors = [10**30 + x for x in range(n)]
    edges = [(n - 1, 0), (n - 1, n - 2), (1, n - 1), (n - 3, n - 2)]
    edges += [(x, x % w) for x in (n - 1, n - 3) for w in (256, 65536) if x % w != x]
    assert verify_proper(EdgeStream.from_edges(n, edges), Coloring(colors, n)) == []
    colors[n - 2] = colors[n - 1]
    assert verify_proper(EdgeStream.from_edges(n, edges), Coloring(colors, n)) == [(n - 2, n - 1)]


def traced_peak(run):
    """run()'s result and the peak of the bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def opened(family: str, n: int, **kwargs) -> tuple[EdgeStream, int]:
    """The generated graph's stream, built before tracing, and its max degree."""
    edges, meta = generate(GenSpec(family=family, n=n, seed=101, **kwargs))
    return EdgeStream.from_edges(n, edges), meta.max_degree


def test_arb_run_peaks_under_36_bytes_per_stored_edge():
    # every edge is stored (ell = 1); int64 codes, orientation and CSR took
    # 71 B per stored edge here, the narrow ones 33 B
    stream, _ = opened("forest-union", 2000, alpha=16)
    (_, metrics), peak = traced_peak(lambda: run_arboricity_coloring(stream, 16, 0.5, seed=0))
    assert metrics.peak_stored_edges > 30_000
    assert peak / metrics.peak_stored_edges < 36


def test_delta_run_peaks_under_66_bytes_per_stored_edge():
    # half of the edges are stored (ell = 2); int64 same-class ids and codes
    # took 73 B per stored edge here, narrow ones 61 B, most of it the
    # replay's Python lists
    stream, delta = opened("gnm", 2000, m=40_000)
    assert class_count(2000, delta, 0.5, 1.0) == 2
    (_, metrics), peak = traced_peak(lambda: run_delta_coloring(stream, delta, 0.5, 1.0, seed=0))
    assert metrics.peak_stored_edges > 15_000
    assert peak / metrics.peak_stored_edges < 66


def test_one_class_runs_on_a_gnm_graph_peak_under_40_and_26_bytes_per_stored_edge():
    # ell = 1 (the shipped c), so every edge is stored. The replay and the
    # offline stage read id-width memoryviews: with per-edge Python lists
    # the delta run took 57 B per stored edge here and the arboricity run 32;
    # read as memoryviews they take 34 and 22
    stream, delta = opened("gnm", 8192, m=100_000)
    (_, delta_run), delta_peak = traced_peak(lambda: run_delta_coloring(stream, delta, 0.5))
    (_, arb_run), arb_peak = traced_peak(lambda: run_arboricity_coloring(stream, 16, 0.5))
    assert delta_run.ell == arb_run.ell == 1
    assert delta_run.peak_stored_edges == arb_run.peak_stored_edges == 100_000
    assert delta_peak / delta_run.peak_stored_edges < 40
    assert arb_peak / arb_run.peak_stored_edges < 26
