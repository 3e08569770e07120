"""Sweep grids: spec expansion, per-run records, resume, the summary CSV."""

from __future__ import annotations

import csv
import json
import tracemalloc

import numpy.random  # noqa: F401  imported before tracing: it allocates several MB once
import pytest

from streamcolor.core import id_dtype
from streamcolor.sweep import CSV_COLUMNS, SweepCell, expand_spec, run_sweep


def tiny_doc() -> dict:
    return {
        "runs": [{
            "family": "complete", "n": 5, "algorithm": "delta",
            "epsilon": 0.5, "c": 1.0, "seeds": [0, 1],
        }],
    }


def read_summary(out_dir) -> list[dict]:
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_COLUMNS
        return list(reader)


def test_expand_crosses_epsilon_c_and_seeds():
    doc = {
        "runs": [{
            "family": "gnm", "n": 64, "m": 128, "gen_seed": 7,
            "algorithm": "delta", "epsilon": [0.5, 1.0], "c": [1.0, 2.0],
            "seeds": {"start": 5, "count": 3},
        }],
    }
    cells = expand_spec(doc)
    assert len(cells) == 2 * 2 * 3
    assert {cell.seed for cell in cells} == {5, 6, 7}
    assert {cell.epsilon for cell in cells} == {0.5, 1.0}
    assert {cell.c for cell in cells} == {1.0, 2.0}
    assert all(cell.gen_seed == 7 for cell in cells)


def test_expand_defaults():
    cells = expand_spec({"runs": [{"family": "star", "n": 8, "algorithm": "arb"}]})
    assert len(cells) == 1
    cell = cells[0]
    assert (cell.epsilon, cell.c, cell.seed) == (0.5, 1.0, 0)
    assert cell.order == "as-generated"
    assert cell.m is None and cell.alpha is None


def test_expand_scalar_seed():
    cells = expand_spec({
        "runs": [{"family": "star", "n": 8, "algorithm": "delta", "seeds": 4}],
    })
    assert [cell.seed for cell in cells] == [4]


def test_expand_keeps_a_repeated_cell():
    # equal cells share a record file; only different cells sharing one fail
    cells = expand_spec({
        "runs": [{"family": "star", "n": 8, "algorithm": "delta", "seeds": [4, 4]}],
    })
    assert cells[0] == cells[1]


def test_expand_integer_epsilon_and_c():
    cells = expand_spec({
        "runs": [{"family": "star", "n": 8, "algorithm": "delta", "epsilon": 1, "c": [2]}],
    })
    assert [(cell.epsilon, cell.c) for cell in cells] == [(1.0, 2.0)]
    assert cells[0].slug().endswith("-e1.0-c2.0-g0-s0")


def test_expand_rejects_missing_or_unknown_algorithm():
    with pytest.raises(ValueError, match="needs an 'algorithm'"):
        expand_spec({"runs": [{"family": "star", "n": 8}]})
    with pytest.raises(ValueError, match="unknown algorithm"):
        expand_spec({"runs": [{"family": "star", "n": 8, "algorithm": "rainbow"}]})


def test_expand_rejects_an_arb_cell_whose_ell_overflows():
    # ell needs no graph when the spec names alpha; test_cli covers r of a delta cell
    arb = {"family": "forest-union", "n": 8, "algorithm": "arb", "c": 1e-308}
    with pytest.raises(ValueError, match="^ell = .* overflows"):
        expand_spec({"runs": [{**arb, "alpha": 2}]})
    assert len(expand_spec({"runs": [arb]})) == 1  # alpha comes from the graph


def test_slug_is_stable():
    cell = SweepCell(
        family="gnm", n=64, m=128, alpha=None, order="as-generated",
        gen_seed=7, algorithm="delta", epsilon=0.5, c=1.0, seed=3,
    )
    assert cell.slug() == "gnm-n64-m128-a0-delta-e0.5-c1.0-g7-s3"


def test_run_sweep_writes_records_and_summary(tmp_path):
    out = tmp_path / "results"
    csv_path = run_sweep(tiny_doc(), out)
    assert csv_path == out / "summary.csv"
    rows = read_summary(out)
    assert len(rows) == 2
    jsons = sorted(p.name for p in out.glob("*.json"))
    assert jsons == [
        "complete-n5-m0-a0-delta-e0.5-c1.0-g0-s0.json",
        "complete-n5-m0-a0-delta-e0.5-c1.0-g0-s1.json",
    ]
    for row, seed in zip(rows, ("0", "1")):
        assert row["family"] == "complete"
        assert (row["n"], row["m"]) == ("5", "10")
        assert row["seed"] == seed
        assert row["algorithm"] == "delta"
        assert row["alpha"] == ""  # delta rows leave alpha blank
        assert row["delta"] == "4"
        assert row["passes"] == "1"
        assert row["colors_used"] == "5"  # K5 needs all five
        assert row["bound"] == "6.0"
        assert row["within_bound"] == "true"
        assert row["aborted"] == "false"
    record = json.loads((out / jsons[0]).read_text())
    assert set(record) == {"config", "metrics", "failed"}
    assert record["failed"] is False
    assert record["config"]["delta"] == 4


def test_stalled_cell_is_a_failed_record(tmp_path):
    doc = {
        "runs": [{
            "family": "cycle", "n": 6, "algorithm": "arb",
            "alpha": 0, "epsilon": 0.5, "c": 1.0, "seeds": [0],
        }],
    }
    out = tmp_path / "results"
    run_sweep(doc, out)
    (row,) = read_summary(out)
    assert row["aborted"] == "true"
    assert row["within_bound"] == ""
    assert row["colors_used"] == "0"
    assert row["bound"] == "0.0"
    record = json.loads(next(out.glob("*.json")).read_text())
    assert record["failed"] is True
    assert record["metrics"]["stalled"] is True


def test_arb_cell_defaults_alpha_from_max_degree(tmp_path):
    doc = {
        "runs": [{
            "family": "gnm", "n": 32, "m": 64, "gen_seed": 3,
            "algorithm": "arb", "epsilon": 1.0, "c": 1.0, "seeds": [0],
        }],
    }
    out = tmp_path / "results"
    run_sweep(doc, out)
    (row,) = read_summary(out)
    record = json.loads(next(out.glob("*.json")).read_text())
    delta = record["config"]["delta"]
    assert record["config"]["alpha"] == (delta + 2) // 2  # ceil((delta+1)/2)
    assert row["alpha"] == str(record["config"]["alpha"])
    assert row["within_bound"] == "true"


def test_resume_skips_existing_records(tmp_path):
    out = tmp_path / "results"
    run_sweep(tiny_doc(), out)
    target = out / "complete-n5-m0-a0-delta-e0.5-c1.0-g0-s0.json"
    record = json.loads(target.read_text())
    record["metrics"]["colors_used"] = 999
    target.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    run_sweep(tiny_doc(), out)
    rows = read_summary(out)
    # the tampered record survived, so the cell was skipped rather than rerun
    assert rows[0]["colors_used"] == "999"
    assert rows[0]["within_bound"] == "false"
    assert rows[1]["colors_used"] == "5"


def test_concentration_style_sweep_reads_class_degrees(tmp_path):
    """Scaled-down version of the bound-exceedance workflow: a seed sweep on
    one gnm instance whose per-run JSONs expose max_class_degree; the full
    200-seed statistical claim lives in the acceptance suite."""
    doc = {
        "runs": [{
            "family": "gnm", "n": 4096, "m": 327_680, "gen_seed": 202,
            "algorithm": "delta", "epsilon": 0.5, "c": 1.0,
            "seeds": {"start": 0, "count": 10},
        }],
    }
    out = tmp_path / "results"
    run_sweep(doc, out)
    rows = read_summary(out)
    assert len(rows) == 10
    assert all(row["aborted"] == "false" for row in rows)
    records = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    assert len(records) == 10
    cap = (1 + 2 / 0.5) * 1.0 * 12  # per-class degree bound at n = 2**12
    for record in records:
        assert record["metrics"]["max_class_degree"] <= cap
        assert record["metrics"]["passes"] == 1


def test_sweep_holds_each_graph_as_its_stream(tmp_path):
    # every distinct graph stays held until the sweep returns: as its stream
    # that is m ids of each endpoint at id width (2 B here), as int64 pairs
    # it was m * 16 B
    n, m = 4096, 40_000

    def traced_peak(graphs: int) -> int:
        doc = {"runs": [
            {"family": "gnm", "n": n, "m": m, "gen_seed": g, "algorithm": "delta"}
            for g in range(graphs)
        ]}
        tracemalloc.start()
        try:
            run_sweep(doc, tmp_path / f"graphs-{graphs}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_extra_graph = (traced_peak(4) - traced_peak(1)) / 3
    assert per_extra_graph < 1.25 * m * 2 * id_dtype(n).itemsize
