"""End-to-end command-line flows against small known graphs."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import cli, corpus
from streamcolor.cli import WRITE_CHUNK, main, read_coloring_file, write_pairs
from streamcolor.corpus import GenSpec, generate
from streamcolor.sweep import expand_spec

K4_FILE = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

DELTA_METRIC_KEYS = {
    "n", "m", "ell", "r", "passes", "colors_used", "peak_stored_edges",
    "max_class_degree", "per_class_degree", "aborted", "seed", "max_edge_cost",
}
ARB_METRIC_KEYS = {
    "n", "m", "ell", "k", "passes", "colors_used",
    "per_class_out_degree", "peak_stored_edges", "stalled", "seed",
}


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_FILE)
    return str(path)


@pytest.fixture
def star6_path(tmp_path):
    path = tmp_path / "star6.txt"
    path.write_text("6 5\n" + "".join(f"0 {i}\n" for i in range(1, 6)))
    return str(path)


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    return str(path)


def test_gen_writes_header_then_edges(tmp_path, capsys):
    out = tmp_path / "k4.txt"
    assert main(["gen", "--family", "complete", "--n", "4", "-o", str(out)]) == 0
    assert out.read_text() == K4_FILE
    assert "n=4 m=6 max_degree=3" in capsys.readouterr().out


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "--family", "gnm", "--n", "32", "--m", "64", "--seed", "5"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_gnm_without_m(tmp_path, capsys):
    code = main(["gen", "--family", "gnm", "--n", "8", "-o", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


INT64_MAX = 2**63 - 1


def reference_pair_bytes(pairs, header: str = "") -> bytes:
    return (header + "".join(f"{a} {b}\n" for a, b in pairs)).encode()


@pytest.mark.parametrize("rows", [0, 1, WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1])
def test_write_pairs_matches_fstring_lines(tmp_path, rows):
    rng = np.random.default_rng(rows)
    pairs = rng.integers(0, 10**6, size=(rows, 2))
    path = tmp_path / "pairs.txt"
    write_pairs(str(path), pairs, header=f"{10**6} {rows}\n")
    assert path.read_bytes() == reference_pair_bytes(pairs.tolist(), f"{10**6} {rows}\n")


def test_write_pairs_digit_widths(tmp_path):
    # endpoints of every width from 1 to 18 digits, 0 and 2**63 - 1 (19 digits)
    values = [0] + [10**d - 1 for d in range(1, 19)] + [10**d for d in range(18)] + [INT64_MAX]
    pairs = list(zip(values, reversed(values)))
    path = tmp_path / "pairs.txt"
    write_pairs(str(path), pairs)
    assert path.read_bytes() == reference_pair_bytes(pairs)
    write_pairs(str(path), [], header="0 0\n")
    assert path.read_bytes() == b"0 0\n"


# the smallest and largest value of each digit width from 1 to 19
WIDTH_LOW = np.array([0] + [10 ** (d - 1) for d in range(2, 20)], dtype=np.int64)
WIDTH_HIGH = np.array([10**d - 1 for d in range(1, 19)] + [INT64_MAX], dtype=np.int64)
EDGE_VALUES = [0, INT64_MAX] + [10**d + k for d in range(1, 19) for k in (-1, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.one_of(
        st.integers(0, 40),
        st.integers(WRITE_CHUNK - 3, WRITE_CHUNK + 3),
        st.integers(2 * WRITE_CHUNK - 1, 2 * WRITE_CHUNK + 1),
    ),
    tops=st.lists(st.sampled_from(range(1, 20)), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    placed=st.lists(
        st.tuples(st.integers(0, 2**31), st.sampled_from(EDGE_VALUES) | st.integers(0, INT64_MAX)),
        max_size=6,
    ),
)
def test_write_pairs_matches_reference_on_every_digit_width(
    tmp_path_factory, rows, tops, seed, placed
):
    # the values of chunk c have 1 to tops[c] digits, so the chunks differ in
    # their limb count; chosen values (the limits of each width among them)
    # are put at drawn places
    rng = np.random.default_rng(seed)
    top = np.repeat(tops, 2 * WRITE_CHUNK)[: 2 * rows]
    width = rng.integers(1, top, endpoint=True)
    values = rng.integers(WIDTH_LOW[width - 1], WIDTH_HIGH[width - 1], endpoint=True)
    for at, value in placed if rows else ():
        values[at % len(values)] = value
    pairs = values.reshape(-1, 2)
    path = tmp_path_factory.mktemp("pairs") / "pairs.txt"
    write_pairs(str(path), pairs, header=f"{rows}\n")
    assert path.read_bytes() == reference_pair_bytes(pairs.tolist(), f"{rows}\n")


def test_gen_writes_five_digit_ids_as_the_reference(tmp_path):
    # n 70000 gives ids of 1 to 5 digits, so the writer takes two limbs
    out = tmp_path / "wide.txt"
    assert main(["gen", "--family", "gnm", "--n", "70000", "--m", "3000",
                 "--seed", "3", "-o", str(out)]) == 0
    edges, meta = generate(GenSpec(family="gnm", n=70000, m=3000, seed=3))
    assert edges.max() >= 10**4
    assert out.read_bytes() == reference_pair_bytes(edges.tolist(), f"{meta.n} {meta.m}\n")


def test_negative_value_is_an_input_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pairs.txt"
    with pytest.raises(ValueError, match="negative value -1"):
        write_pairs(str(path), [(0, 1), (2, -1)])
    assert not path.exists()  # refused before the file is opened

    def generate_negative(spec):
        edges, meta = generate(spec)
        edges[-1, 0] = -5
        return edges, meta

    monkeypatch.setattr(corpus, "generate", generate_negative)
    out = tmp_path / "k4.txt"
    assert main(["gen", "--family", "complete", "--n", "4", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the negative value -5")
    assert not out.exists()


@pytest.mark.parametrize("high", [10**4, INT64_MAX], ids=["one-limb", "five-limbs"])
def test_write_pairs_scratch_is_bounded_by_chunks(tmp_path, high):
    # tracemalloc sees numpy's buffers: beyond its input the writer holds
    # the scratch of a chunk or two, so 4x the rows adds nothing
    def traced_peak(rows):
        pairs = np.random.default_rng(rows).integers(0, high, size=(rows, 2))
        cli._digit_tables()  # the tables are built once per process, not per write
        tracemalloc.start()
        try:
            write_pairs(str(tmp_path / "pairs.txt"), pairs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = traced_peak(2 * WRITE_CHUNK)
    large = traced_peak(8 * WRITE_CHUNK)
    assert large < small + (1 << 16)
    assert large < 96 * 2 * WRITE_CHUNK  # 96 bytes per value of one chunk


def test_maxdeg(k4_path, capsys):
    assert main(["maxdeg", "-i", k4_path]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_maxdeg_missing_file(tmp_path, capsys):
    assert main(["maxdeg", "-i", str(tmp_path / "nope.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_maxdeg_header_too_large_to_allocate(tmp_path, capsys):
    # 10**18 int64 counters are 8 EB, beyond any address space, so the
    # allocation fails at once instead of paging in
    huge = tmp_path / "huge.txt"
    huge.write_text(f"{10**18} 1\n0 1\n")
    assert main(["maxdeg", "-i", str(huge)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_endpoint_beyond_int64_is_a_line_error(tmp_path, capsys):
    # at n = 2**63 - 1 an endpoint at or above 2**63 would pass the range
    # check; it must still fail as an input error on its line, not overflow
    huge = tmp_path / "huge.txt"
    huge.write_text("9223372036854775807 1\n99999999999999999998 1\n")
    assert main(["maxdeg", "-i", str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:")


def test_header_beyond_int64_is_a_line_error(tmp_path, capsys):
    # the header is a pair like any other, so a value outside int64 is an
    # input error on line 1, before any array is sized from it
    huge = tmp_path / "huge.txt"
    huge.write_text("99999999999999999999 1\n0 1\n")
    assert main(["maxdeg", "-i", str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: value outside the signed 64-bit range")


def test_malformed_edge_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n0 1\n9 1\n")
    assert main(["maxdeg", "-i", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["color-delta", "--epsilon", "inf"], id="delta-epsilon-inf"),
    pytest.param(["color-delta", "--epsilon", "1e-320"], id="delta-epsilon-1e-320"),
    pytest.param(["color-delta", "--epsilon", "0.5", "--c", "inf"], id="delta-c-inf"),
    pytest.param(["color-delta", "--epsilon", "nan"], id="delta-epsilon-nan"),
    pytest.param(["color-delta", "--epsilon", "0.5", "--delta", str(10**400)], id="delta-huge"),
    pytest.param(["color-arb", "--alpha", "3", "--epsilon", "inf"], id="arb-epsilon-inf"),
    pytest.param(["color-arb", "--alpha", "3", "--epsilon", "0.5", "--c", "inf"], id="arb-c-inf"),
    pytest.param(["peel", "--alpha", "3", "--gamma", "inf"], id="peel-gamma-inf"),
])
def test_bad_run_parameters_are_input_errors(k4_path, tmp_path, capsys, argv):
    # an infinite or NaN parameter, or a derived count that overflows, is an
    # input error: exit 2, not an OverflowError (exit 1 is a failed verify)
    out = tmp_path / "out.txt"
    assert main([*argv, "-i", k4_path, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("epsilon", math.inf), ("c", -math.inf), ("epsilon", 10**400), ("c", 1e308),
    ("c", [1.0, 1e308]),
])
def test_sweep_bad_run_parameters_are_input_errors(tmp_path, capsys, key, value):
    # json writes inf as Infinity; c = 1e308 is finite, but its r overflows,
    # and that is found before the first cell runs
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": [
        {"family": "complete", "n": 5, "algorithm": "delta", "epsilon": 0.5, key: value},
    ]}))
    assert main(["sweep", "-s", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run", [
    # alpha comes from the generated graph, and so does the overflow of ell
    {"family": "gnm", "n": 64, "m": 200, "algorithm": "arb", "c": [1.0, 1e-308]},
    {"family": "forest-union", "n": 64, "algorithm": "arb"},  # no alpha: generate fails
    {"family": "gnm", "n": 64, "m": 200, "algorithm": "delta", "c": [1.0, 1e-308]},  # so Delta
])
def test_sweep_that_fails_on_a_graph_writes_nothing(tmp_path, capsys, run):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": [run]}))
    assert main(["sweep", "-s", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--family", "cycle", "--n", "5"], id="gen"),
    pytest.param(["color-delta", "-i", "{k4}", "--epsilon", "0.5"], id="color-delta"),
    pytest.param(["color-arb", "-i", "{k4}", "--alpha", "2", "--epsilon", "0.5"], id="color-arb"),
])
def test_negative_seed_is_an_input_error(k4_path, tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    argv = [a.format(k4=k4_path) for a in argv]
    assert main([*argv, "--seed", "-1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_color_delta_full_flow(k4_path, tmp_path, capsys):
    col = tmp_path / "col.txt"
    met = tmp_path / "met.json"
    code = main([
        "color-delta", "-i", k4_path, "--delta", "3", "--epsilon", "0.5",
        "--c", "1", "--seed", "0", "-o", str(col), "--metrics", str(met),
    ])
    assert code == 0
    assert col.read_text() == "0 2\n1 3\n2 4\n3 1\n"
    payload = json.loads(met.read_text())
    assert set(payload) == DELTA_METRIC_KEYS
    assert payload["colors_used"] == 4
    assert payload["passes"] == 1
    assert not payload["aborted"]
    assert "with 4 colors (ell=1, r=11, passes=1)" in capsys.readouterr().out


def test_color_delta_measures_delta_when_omitted(k4_path, tmp_path):
    col = tmp_path / "col.txt"
    code = main([
        "color-delta", "-i", k4_path, "--epsilon", "0.5", "--c", "1",
        "--seed", "0", "-o", str(col),
    ])
    assert code == 0
    assert col.read_text() == "0 2\n1 3\n2 4\n3 1\n"  # measured bound matches --delta 3


def test_color_delta_abort_exit_code(k4_path, tmp_path, capsys):
    col = tmp_path / "col.txt"
    met = tmp_path / "met.json"
    code = main([
        "color-delta", "-i", k4_path, "--delta", "0", "--epsilon", "100",
        "--c", "0.1", "--seed", "0", "-o", str(col), "--metrics", str(met),
    ])
    assert code == 3
    assert not col.exists()
    assert "abort: palette exhausted at vertex 1" in capsys.readouterr().err
    payload = json.loads(met.read_text())
    assert payload["aborted"] is True
    assert payload["colors_used"] == 0


def test_rerun_is_byte_identical(k4_path, tmp_path):
    outs = []
    for tag in ("one", "two"):
        col = tmp_path / f"col-{tag}.txt"
        met = tmp_path / f"met-{tag}.json"
        args = [
            "color-delta", "-i", k4_path, "--delta", "3", "--epsilon", "0.5",
            "--c", "1", "--seed", "7", "-o", str(col), "--metrics", str(met),
        ]
        assert main(args) == 0
        outs.append((col.read_bytes(), met.read_bytes()))
    assert outs[0] == outs[1]


def test_verify_proper_and_tampered(k4_path, tmp_path, capsys):
    col = tmp_path / "col.txt"
    assert main([
        "color-delta", "-i", k4_path, "--delta", "3", "--epsilon", "0.5",
        "--c", "1", "--seed", "0", "-o", str(col),
    ]) == 0
    assert main(["verify", "-i", k4_path, "-c", str(col)]) == 0
    assert capsys.readouterr().out.strip().endswith("proper")

    lines = col.read_text().splitlines()
    lines[1] = "1 2"  # vertex 1 now collides with vertex 0
    col.write_text("\n".join(lines) + "\n")
    assert main(["verify", "-i", k4_path, "-c", str(col)]) == 1
    out = capsys.readouterr().out
    assert "conflict: 0 1 color=2" in out
    assert "improper: 1 conflicting edges" in out


def test_verify_tolerates_comments_and_blanks(k4_path, tmp_path):
    col = tmp_path / "col.txt"
    col.write_text("# hand-written\n\n0 2\n1 3\n2 4\n3 1\n")
    assert main(["verify", "-i", k4_path, "-c", str(col)]) == 0


def test_verify_rejects_partial_coloring(k4_path, tmp_path, capsys):
    col = tmp_path / "col.txt"
    col.write_text("0 2\n1 3\n")
    assert main(["verify", "-i", k4_path, "-c", str(col)]) == 2
    assert "missing a vertex" in capsys.readouterr().err


def test_verify_rejects_vertex_colored_twice(k4_path, tmp_path, capsys):
    col = tmp_path / "col.txt"
    # read last-wins, line 5 would hide the conflict between 0 and 1 on line 2
    col.write_text("0 2\n1 2\n2 4\n3 1\n1 3\n")
    assert main(["verify", "-i", k4_path, "-c", str(col)]) == 2
    assert "line 5: vertex 1 is colored twice" in capsys.readouterr().err


def test_read_coloring_file_roundtrip(tmp_path):
    path = tmp_path / "col.txt"
    path.write_text("0 5\n1 0\n2 5\n")
    coloring = read_coloring_file(str(path), 3)
    assert coloring.assignment == [5, 0, 5]


def test_peel_layers_file(star6_path, tmp_path, capsys):
    out = tmp_path / "layers.txt"
    code = main(["peel", "-i", star6_path, "--alpha", "1", "--gamma", "0.5", "-o", str(out)])
    assert code == 0
    assert out.read_text() == "0 2\n1 1\n2 1\n3 1\n4 1\n5 1\n"
    assert "k=2 layers (threshold=2, passes=2)" in capsys.readouterr().out


def test_peel_stall_exit_code(c5_path, tmp_path, capsys):
    out = tmp_path / "layers.txt"
    code = main(["peel", "-i", c5_path, "--alpha", "0", "--gamma", "0.5", "-o", str(out)])
    assert code == 3
    assert not out.exists()
    assert "stall: peeling stalled in round 1" in capsys.readouterr().err


def test_color_arb_full_flow(k4_path, tmp_path, capsys):
    col = tmp_path / "col.txt"
    met = tmp_path / "met.json"
    code = main([
        "color-arb", "-i", k4_path, "--alpha", "2", "--epsilon", "0.5",
        "--c", "1", "--seed", "0", "-o", str(col), "--metrics", str(met),
    ])
    assert code == 0
    assert col.read_text() == "0 3\n1 2\n2 1\n3 0\n"
    payload = json.loads(met.read_text())
    assert set(payload) == ARB_METRIC_KEYS
    assert payload["k"] == 1
    assert payload["colors_used"] == 4
    assert payload["stalled"] is False
    assert "with 4 colors (ell=1, k=1, passes=1)" in capsys.readouterr().out


def test_color_arb_stall_writes_partial_metrics(c5_path, tmp_path, capsys):
    col = tmp_path / "col.txt"
    met = tmp_path / "met.json"
    code = main([
        "color-arb", "-i", c5_path, "--alpha", "0", "--epsilon", "0.5",
        "--c", "1", "--seed", "0", "-o", str(col), "--metrics", str(met),
    ])
    assert code == 3
    assert not col.exists()
    assert "stall:" in capsys.readouterr().err
    payload = json.loads(met.read_text())
    assert payload["stalled"] is True
    assert payload["k"] == 1
    assert payload["colors_used"] == 0


def test_oracle_arboricity_and_degeneracy(tmp_path, capsys):
    path = tmp_path / "petersen.txt"
    assert main(["gen", "--family", "petersen", "--n", "10", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["oracle", "arboricity", "-i", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["oracle", "degeneracy", "-i", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_oracle_greedy_reverse_degeneracy(tmp_path, capsys):
    path = tmp_path / "petersen.txt"
    main(["gen", "--family", "petersen", "--n", "10", "-o", str(path)])
    capsys.readouterr()
    col = tmp_path / "greedy.txt"
    code = main([
        "oracle", "greedy", "-i", str(path),
        "--order", "reverse-degeneracy", "-o", str(col),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "greedy used" in out
    coloring = read_coloring_file(str(col), 10)
    assert coloring.colors_used <= 4  # degeneracy 3 plus one
    assert main(["verify", "-i", str(path), "-c", str(col)]) == 0


def test_oracle_repeats_counts_swapped_and_exact_repeats(tmp_path, capsys):
    clean = tmp_path / "forest.txt"
    assert main(["gen", "--family", "forest-union", "--n", "40", "--alpha", "3",
                 "--seed", "2", "-o", str(clean)]) == 0
    capsys.readouterr()
    assert main(["oracle", "repeats", "-i", str(clean)]) == 0
    assert capsys.readouterr().out == "m=107 distinct=107 repeats=0 max_multiplicity=1\n"

    header, *body = clean.read_text().splitlines()
    assert header == "40 107"
    swapped = [" ".join(reversed(line.split())) for line in body[:3]]
    noisy = tmp_path / "noisy.txt"
    # the first edge four times (swapped once, exact twice), the next two twice
    noisy.write_text("\n".join(["40 112", *body, *swapped, body[0], body[0]]) + "\n")
    assert main(["oracle", "repeats", "-i", str(noisy)]) == 0
    assert capsys.readouterr().out == "m=112 distinct=107 repeats=5 max_multiplicity=4\n"

    empty = tmp_path / "empty.txt"
    empty.write_text("3 0\n")
    assert main(["oracle", "repeats", "-i", str(empty)]) == 0
    assert capsys.readouterr().out == "m=0 distinct=0 repeats=0 max_multiplicity=0\n"


def test_oracle_repeats_at_and_beyond_the_pair_code_range(tmp_path, capsys):
    # min*n+max fits in int64 exactly while n <= 3037000499
    top = tmp_path / "top.txt"
    top.write_text("3037000499 3\n0 3037000498\n3037000498 0\n3037000497 3037000498\n")
    assert main(["oracle", "repeats", "-i", str(top)]) == 0
    assert capsys.readouterr().out == "m=3 distinct=2 repeats=1 max_multiplicity=2\n"
    beyond = tmp_path / "beyond.txt"
    beyond.write_text("3037000500 1\n0 1\n")
    assert main(["oracle", "repeats", "-i", str(beyond)]) == 2
    assert capsys.readouterr().err.startswith("error: repeat counts need n <= 3037000499")


ORACLE_GRAPHS = {
    # name: gen arguments; n <= 20 so the arboricity oracle applies
    "gnm": ["--family", "gnm", "--n", "18", "--m", "60", "--seed", "5", "--order", "random"],
    "forest": ["--family", "forest-union", "--n", "20", "--alpha", "3", "--seed", "8",
               "--order", "layered-adversarial"],
}

ORACLE_PINS = {
    # (graph, argv after the input): (stdout, sha256 of the coloring file or None)
    ("gnm", "arboricity"): ("4\n", None),
    ("gnm", "degeneracy"): ("5\n", None),
    ("gnm", "greedy --order id"): (
        "greedy used 6 colors (palette 11)\n",
        "e1ab99030e49ccadfe9121d558d195a6e04cceb869bddb05ef7643c9e05d2acd"),
    ("gnm", "greedy --order reverse-degeneracy"): (
        "greedy used 6 colors (palette 11)\n",
        "23a0217898ee55e8b0716e2543b532d1ecad43c09a53cff1298ee0cb0de97123"),
    ("forest", "arboricity"): ("3\n", None),
    ("forest", "degeneracy"): ("4\n", None),
    ("forest", "greedy --order id"): (
        "greedy used 5 colors (palette 9)\n",
        "11255e80e3b74aec9eb623f97da2b63f5a375002155a9e46ddeac1b6e40d41a3"),
    ("forest", "greedy --order reverse-degeneracy"): (
        "greedy used 4 colors (palette 9)\n",
        "013c091c0693a7d705cd48f8396143c4d5f8d0b161e675da6ae93af4d4389fc8"),
}


@pytest.mark.parametrize("graph, command", sorted(ORACLE_PINS))
def test_oracle_output_is_pinned(tmp_path, capsys, graph, command):
    path = tmp_path / f"{graph}.txt"
    assert main(["gen", *ORACLE_GRAPHS[graph], "-o", str(path)]) == 0
    capsys.readouterr()
    which, *rest = command.split()
    stdout, file_sha = ORACLE_PINS[graph, command]
    col = tmp_path / "greedy.txt"
    argv = ["oracle", which, "-i", str(path), *rest]
    assert main(argv + (["-o", str(col)] if file_sha else [])) == 0
    assert capsys.readouterr().out == stdout
    if file_sha:
        assert hashlib.sha256(col.read_bytes()).hexdigest() == file_sha

def test_sweep_command(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "runs": [{
            "family": "complete", "n": 5, "algorithm": "delta",
            "epsilon": 0.5, "c": 1.0, "seeds": [0, 1],
        }],
    }))
    out_dir = tmp_path / "results"
    assert main(["sweep", "-s", str(spec), "-o", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").exists()
    assert "summary.csv" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"runs": [{"algorithm": "delta", "n": 10}]}, "'family'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": {"start": 0}}]}, "'count'"),
        ({"runs": [1]}, "list of objects"),
        ([1, 2], "JSON object"),
        ({"runs": {"family": "gnm"}}, "list of objects"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": {"start": "a", "count": 2}}]}, "integer 'start' and 'count'"),
        ({"runs": [{"family": "gnm", "n": 8, "m": "x", "algorithm": "delta"}]}, "'m'"),
        ({"runs": [{"family": "gnm", "n": 8, "m": 2.5, "algorithm": "delta"}]}, "'m'"),
        ({"runs": [{"family": "gnm", "n": 8, "m": True, "algorithm": "delta"}]}, "'m'"),
        ({"runs": [{"family": "forest-union", "n": 8, "alpha": "x", "algorithm": "arb"}]},
         "'alpha'"),
        ({"runs": [{"family": "forest-union", "n": 8, "alpha": 2.5, "algorithm": "arb"}]},
         "'alpha'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "order": ["random"]}]}, "'order'"),
        ({"runs": [{"family": "complete", "n": 5.9, "algorithm": "delta"}]}, "'n'"),
        ({"runs": [{"family": "complete", "n": True, "algorithm": "delta"}]}, "'n'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "gen_seed": 2.5}]}, "'gen_seed'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": [1.7]}]}, "'seeds'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": ["a"]}]}, "'seeds'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": {"start": True, "count": 2}}]}, "integer 'start' and 'count'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": {"start": 0, "count": 2.0}}]}, "integer 'start' and 'count'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "epsilon": True}]}, "'epsilon'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "epsilon": "0.5"}]}, "'epsilon'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "c": [1.0, "2"]}]}, "'c'"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": [0, -1]}]}, "seed must be a non-negative integer, got -1"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": {"start": -2, "count": 3}}]}, "seed must be a non-negative"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "gen_seed": -1}]}, "seed must be a non-negative integer, got -1"),
        ({"runs": [{"family": "complete", "n": 5, "algorithm": "delta",
                    "seeds": {"start": 0, "count": -3}}]}, "'count' must be non-negative"),
        ({"runs": [{"family": ["gnm"], "n": 5, "m": 3, "algorithm": "delta"}]}, "'family'"),
        ({"runs": [{"family": {"gnm": 1}, "n": 5, "m": 3, "algorithm": "delta"}]}, "'family'"),
    ],
)
def test_sweep_malformed_spec_is_an_input_error(tmp_path, capsys, spec, key):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    # without -o the output directory would be read from the spec itself
    for out in (["-o", str(tmp_path / "out")], []):
        assert main(["sweep", "-s", str(path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


def test_sweep_cells_sharing_a_record_file_are_an_input_error(tmp_path, capsys):
    # an absent alpha is written as 0 in the record's name
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"runs": [
        {"family": "cycle", "n": 6, "algorithm": "arb", "alpha": 0},
        {"family": "cycle", "n": 6, "algorithm": "arb"},
    ]}))
    out = tmp_path / "out"
    assert main(["sweep", "-s", str(spec), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cycle-n6-m0-a0-arb-e0.5-c1.0-g0-s0.json" in err
    assert not out.exists()


def test_sweep_requires_output_dir(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"runs": []}))
    assert main(["sweep", "-s", str(spec)]) == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("output_dir", [5, ["out"]])
def test_sweep_output_dir_must_be_a_string(tmp_path, capsys, monkeypatch, output_dir):
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "runs": [{"family": "complete", "n": 5, "algorithm": "delta"}],
        "output_dir": output_dir,
    }))
    assert main(["sweep", "-s", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'output_dir'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


@pytest.mark.parametrize("damage", ["{}", "[]", "not json"])
def test_sweep_resume_rejects_a_damaged_record(tmp_path, capsys, damage):
    # the damaged record is the second cell's, so the first cell must not run
    spec = {"runs": [{"family": "complete", "n": 5, "algorithm": "delta", "seeds": [0, 1]}]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    out.mkdir()
    first, second = (out / f"{cell.slug()}.json" for cell in expand_spec(spec))
    second.write_text(damage)
    assert main(["sweep", "-s", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(second) in err
    assert not first.exists() and not (out / "summary.csv").exists()
