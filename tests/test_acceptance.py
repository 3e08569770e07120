"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print
(without -s they surface only on failure). The corpus suite fixture is
session-scoped so the accounting criteria reuse the properness runs.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from streamcolor.arb_color import (
    derive_config,
    offline_dag_color,
    out_degree_profile,
    per_class_out_bound,
    run_arboricity_coloring,
)
from streamcolor.cli import main as cli_main
from streamcolor.core import EdgeStream
from streamcolor.corpus import GenSpec, generate
from streamcolor.delta_color import (
    PhasePartition,
    class_count,
    mono_degree_profile,
    palette_size,
    run_delta_coloring,
)
from streamcolor.oracle import degeneracy, greedy_color, nash_williams_arboricity, verify_proper
from streamcolor.peel import (
    LayerPartition,
    max_rounds_bound,
    measure_forward_degree,
    peel,
    peel_threshold,
)

EPSILON = 0.5
C = 1.0
RUN_SEEDS = range(10)

# (name, instance, construction alpha when certified)
GRID = [
    ("k4", GenSpec(family="complete", n=4), None),
    ("k5", GenSpec(family="complete", n=5), None),
    ("star16", GenSpec(family="star", n=16), None),
    ("path16", GenSpec(family="path", n=16), None),
    ("c5", GenSpec(family="cycle", n=5), None),
    ("petersen", GenSpec(family="petersen", n=10), None),
    ("gnm-small", GenSpec(family="gnm", n=1024, m=4096, seed=11), None),
    ("gnm-wide", GenSpec(family="gnm", n=2**14, m=65536, seed=12), None),
    ("fu-a1", GenSpec(family="forest-union", n=4096, alpha=1, seed=13), 1),
    ("fu-a2", GenSpec(family="forest-union", n=4096, alpha=2, seed=14), 2),
    ("fu-a8", GenSpec(family="forest-union", n=4096, alpha=8, seed=15), 8),
    ("fu-a64", GenSpec(family="forest-union", n=4096, alpha=64, seed=16), 64),
]


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {title}")
        raise
    print(f"[criterion {num}] PASS: {title}")


@pytest.fixture(scope="session")
def corpus_suite():
    """Both algorithms on every corpus instance, ten seeds each, verified."""
    records = []
    t0 = time.perf_counter()
    for name, spec, built_alpha in GRID:
        edges, meta = generate(spec)
        alpha = built_alpha if built_alpha is not None else math.ceil((meta.max_degree + 1) / 2)
        for seed in RUN_SEEDS:
            stream = EdgeStream.from_edges(spec.n, edges)
            d_col, d_met = run_delta_coloring(stream, meta.max_degree, EPSILON, C, seed)
            d_ok = verify_proper(EdgeStream.from_edges(spec.n, edges), d_col) == []
            stream2 = EdgeStream.from_edges(spec.n, edges)
            a_col, a_met = run_arboricity_coloring(stream2, alpha, EPSILON, C, seed)
            a_ok = verify_proper(EdgeStream.from_edges(spec.n, edges), a_col) == []
            records.append({
                "name": name, "family": spec.family, "n": spec.n,
                "certified": built_alpha is not None, "alpha": alpha,
                "seed": seed, "delta": meta.max_degree,
                "delta_metrics": d_met, "arb_metrics": a_met,
                "delta_proper": d_ok, "arb_proper": a_ok,
                "delta_stream_passes": stream.pass_count,
                "arb_stream_passes": stream2.pass_count,
            })
    return {"records": records, "elapsed": time.perf_counter() - t0}


def test_criterion_1_corpus_properness(corpus_suite):
    with criterion(1, "both algorithms proper on every corpus instance and seed"):
        records = corpus_suite["records"]
        assert len(records) == len(GRID) * len(RUN_SEEDS)
        assert all(rec["delta_proper"] for rec in records)
        assert all(rec["arb_proper"] for rec in records)
        assert not any(rec["delta_metrics"].aborted for rec in records)
        assert not any(rec["arb_metrics"].stalled for rec in records)
        assert corpus_suite["elapsed"] < 120.0


def test_criterion_2_color_budget_on_wide_gnm():
    with criterion(2, "one-pass coloring stays within ell*r <= (1+eps)*max degree"):
        edges, meta = generate(GenSpec(family="gnm", n=2**14, m=3_700_000, seed=101))
        assert meta.max_degree >= 512
        ell = class_count(2**14, meta.max_degree, EPSILON, C)
        r = palette_size(2**14, EPSILON, C)
        assert ell * r <= (1 + EPSILON) * meta.max_degree
        stream = EdgeStream.from_edges(2**14, edges)
        coloring, metrics = run_delta_coloring(stream, meta.max_degree, EPSILON, C, seed=1)
        assert not metrics.aborted
        assert coloring.colors_used <= ell * r
        assert verify_proper(EdgeStream.from_edges(2**14, edges), coloring) == []
        assert metrics.peak_stored_edges <= 2**14 * (r - 1) / 2


def test_criterion_3_pass_and_space_accounting(corpus_suite):
    with criterion(3, "one pass for the online run, k passes for peeling, space in budget"):
        for rec in corpus_suite["records"]:
            dm = rec["delta_metrics"]
            assert dm.passes == 1
            assert rec["delta_stream_passes"] == 1  # verification used its own stream
            assert dm.peak_stored_edges <= rec["n"] * (dm.r - 1) / 2
            am = rec["arb_metrics"]
            assert am.passes == am.k
            assert rec["arb_stream_passes"] == am.k
            if rec["certified"]:
                gamma = derive_config(rec["n"], rec["alpha"], EPSILON, C).gamma
                assert am.k <= max_rounds_bound(rec["n"], gamma)


def test_criterion_4_orientation_at_scale():
    with criterion(4, "peel orientation acyclic with forward degree <= threshold at n=100000"):
        n = 100_000
        edges, _ = generate(GenSpec(family="forest-union", n=n, alpha=8, seed=404))
        stream = EdgeStream.from_edges(n, edges)
        lp = peel(stream, alpha=8, gamma=0.5)
        assert lp.threshold == 20
        assert lp.k <= max_rounds_bound(n, 0.5) == 52
        assert max(lp.witnessed_degree) <= 20
        # strict total order on (layer, id) keys: ids never collide, so every
        # edge is strictly oriented and no directed cycle can close
        layer = np.asarray(lp.layer, dtype=np.int64)
        ku = layer[edges[:, 0]] * np.int64(n) + edges[:, 0]
        kv = layer[edges[:, 1]] * np.int64(n) + edges[:, 1]
        assert (ku != kv).all()
        tail = np.where(ku < kv, edges[:, 0], edges[:, 1])
        out_deg = np.bincount(tail, minlength=n)
        assert int(out_deg.max()) <= 20
        assert measure_forward_degree(EdgeStream.from_edges(n, edges), lp) <= 20


def test_criterion_5_class_degree_concentration():
    with criterion(5, "200-seed class-degree sweeps exceed their caps on at most 5% of seeds"):
        t0 = time.perf_counter()

        # one-pass side: monochromatic degree vs (1+2/eps)*c*log2 n, with the
        # degree bound read as the configured input (the instance realizes 202)
        input_delta = 256
        edges, meta = generate(GenSpec(family="gnm", n=4096, m=327_680, seed=202))
        assert meta.max_degree <= input_delta
        cap = (1 + 2 / EPSILON) * C * math.log2(4096)
        exceed = 0
        worst = 0
        ell = class_count(4096, input_delta, EPSILON, C)
        for seed in range(200):
            part = PhasePartition.draw(4096, ell, seed)
            profile = mono_degree_profile(edges[:, 0], edges[:, 1], part)
            top = int(profile.max())
            worst = max(worst, top)
            exceed += top > cap
        assert exceed <= 10, f"{exceed}/200 seeds over the class-degree cap (worst {worst})"
        for seed in (0, 123):  # profile agrees with what a real run records
            part = PhasePartition.draw(4096, ell, seed)
            profile = mono_degree_profile(edges[:, 0], edges[:, 1], part)
            _, metrics = run_delta_coloring(
                EdgeStream.from_edges(4096, edges), input_delta, EPSILON, C, seed
            )
            assert metrics.per_class_degree == profile.tolist()

        # peel side: per-class out-degree vs (1+1/eps')*c*log2 n on a dense
        # certified instance (threshold 259 clears the >= 256 regime floor)
        alpha = 120
        edges, _ = generate(GenSpec(family="forest-union", n=4096, alpha=alpha, seed=303))
        cfg = derive_config(4096, alpha, EPSILON, C)
        assert peel_threshold(alpha, cfg.gamma) >= 256
        lp = peel(EdgeStream.from_edges(4096, edges), alpha, cfg.gamma)
        out_cap = per_class_out_bound(4096, cfg.eps_prime, C)
        exceed = 0
        worst = 0
        for seed in range(200):
            part = PhasePartition.draw(4096, cfg.ell, seed)
            profile = out_degree_profile(edges[:, 0], edges[:, 1], lp, part)
            top = int(profile.max())
            worst = max(worst, top)
            exceed += top > out_cap
        assert exceed <= 10, f"{exceed}/200 seeds over the out-degree cap (worst {worst})"
        for seed in (0, 123):
            part = PhasePartition.draw(4096, cfg.ell, seed)
            profile = out_degree_profile(edges[:, 0], edges[:, 1], lp, part)
            _, metrics = run_arboricity_coloring(
                EdgeStream.from_edges(4096, edges), alpha, EPSILON, C, seed
            )
            assert metrics.per_class_out_degree == profile.tolist()

        assert time.perf_counter() - t0 < 600.0


def test_criterion_6_oracle_cross_checks(small_graphs):
    with criterion(6, "offline oracles agree with known values and each other"):
        assert nash_williams_arboricity(small_graphs["star10"]) == 1
        assert nash_williams_arboricity(small_graphs["k4"]) == 2
        assert nash_williams_arboricity(small_graphs["k5"]) == 3
        assert nash_williams_arboricity(small_graphs["petersen"]) == 2
        for g in small_graphs.values():
            alpha = nash_williams_arboricity(g)
            result = degeneracy(g)
            if g.m:
                assert alpha <= result.d <= 2 * alpha - 1
            else:
                assert alpha == result.d == 0
            coloring = greedy_color(g, list(reversed(result.order)))
            assert coloring.colors_used <= result.d + 1
            assert verify_proper(g, coloring) == []


def test_criterion_7_offline_dag_coloring_random_partitions():
    with criterion(7, "offline stage proper within max out-degree + 1 on 1000 random layerings"):
        rng = np.random.default_rng(20260814)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            p = float(rng.uniform(0.15, 0.9))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        edges.append((u, v))
            k = int(rng.integers(1, 5))
            layer = [int(x) for x in rng.integers(1, k + 1, size=n)]
            lp = LayerPartition(
                k=k, layer=layer, threshold=0, witnessed_degree=[0] * n,
            )
            keys = [(layer[v], v) for v in range(n)]
            out = [0] * n
            for u, v in edges:
                out[u if keys[u] < keys[v] else v] += 1
            arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            part = PhasePartition(ell=1, class_of=np.ones(n, dtype=np.int64), seed=0)
            coloring, out_degrees = offline_dag_color(
                arr[:, 0], arr[:, 1], lp, part
            )
            assert out_degrees == [max(out)]
            for u, v in edges:
                assert coloring.assignment[u] != coloring.assignment[v]
            for v in range(n):
                # first-free against out-neighbors can never pass their count
                assert 0 <= coloring.assignment[v] <= out[v]


def test_criterion_8_byte_identical_reruns(tmp_path):
    with criterion(8, "same config and seed reproduce byte-identical outputs"):
        snapshots = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            graph = d / "graph.txt"
            assert cli_main([
                "gen", "--family", "gnm", "--n", "256", "--m", "1024",
                "--seed", "5", "-o", str(graph),
            ]) == 0
            dcol, dmet = d / "delta.txt", d / "delta.json"
            assert cli_main([
                "color-delta", "-i", str(graph), "--epsilon", "0.5", "--c", "1",
                "--seed", "3", "-o", str(dcol), "--metrics", str(dmet),
            ]) == 0
            acol, amet = d / "arb.txt", d / "arb.json"
            assert cli_main([
                "color-arb", "-i", str(graph), "--alpha", "8", "--epsilon", "0.5",
                "--c", "1", "--seed", "3", "-o", str(acol), "--metrics", str(amet),
            ]) == 0
            snapshots.append(tuple(p.read_bytes() for p in (graph, dcol, dmet, acol, amet)))
        assert snapshots[0] == snapshots[1]
        payload = json.loads((tmp_path / "one" / "delta.json").read_text())
        assert payload["seed"] == 3 and not payload["aborted"]
