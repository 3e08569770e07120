"""Golden outputs: CLI runs on small seeded corpus graphs must reproduce
recorded bytes exactly.

Criterion 8 of the acceptance suite only reruns the current code against
itself; these constants pin the outputs across code changes. Each case runs
one command through ``cli.main`` and compares the sha256 of stdout, stderr
and every file the command writes. A deliberate change of output updates
the constants in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from streamcolor.cli import main

GRAPHS = {
    # name: gen arguments; every graph has n <= 2000
    "gnm": ["--family", "gnm", "--n", "1500", "--m", "12000", "--seed", "11",
            "--order", "random"],
    "forest": ["--family", "forest-union", "--n", "2000", "--alpha", "6", "--seed", "12",
               "--order", "layered-adversarial"],
}

ARB = ["--epsilon", "1.0", "--c", "0.05", "--seed", "4"]  # ell = 5 classes at n = 2000

CASES = {
    # name: (argv with {graph} and {out} placeholders, exit code, written files)
    "color-delta": (
        ["color-delta", "-i", "{gnm}", "--epsilon", "0.5", "--c", "0.4", "--seed", "3",
         "-o", "{out}/col", "--metrics", "{out}/met"], 0, ["col", "met"]),
    "color-delta-abort": (
        ["color-delta", "-i", "{gnm}", "--epsilon", "0.5", "--c", "0.01", "--seed", "3",
         "-o", "{out}/col", "--metrics", "{out}/met"], 3, ["met"]),
    "color-arb": (
        ["color-arb", "-i", "{forest}", "--alpha", "6", *ARB,
         "-o", "{out}/col", "--metrics", "{out}/met"], 0, ["col", "met"]),
    "color-arb-noisy": (
        ["color-arb", "-i", "{noisy}", "--alpha", "6", *ARB,
         "-o", "{out}/col", "--metrics", "{out}/met"], 0, ["col", "met"]),
    "color-arb-stall": (
        ["color-arb", "-i", "{gnm}", "--alpha", "2", *ARB,
         "-o", "{out}/col", "--metrics", "{out}/met"], 3, ["met"]),
    "peel": (
        ["peel", "-i", "{forest}", "--alpha", "6", "--gamma", "0.5", "-o", "{out}/layers"],
        0, ["layers"]),
    "verify-improper": (
        ["verify", "-i", "{gnm}", "-c", "{mod3}"], 1, []),
}

SWEEP = {"runs": [
    # seed 0 aborts at c 0.05; the second gnm takes alpha from its max degree;
    # the cycle stalls at alpha 0
    {"family": "gnm", "n": 200, "m": 1500, "gen_seed": 3, "algorithm": "delta",
     "c": [0.05, 1.0], "seeds": [0, 2]},
    {"family": "forest-union", "n": 300, "alpha": 4, "algorithm": "arb"},
    {"family": "gnm", "n": 64, "m": 300, "algorithm": "arb"},
    {"family": "cycle", "n": 6, "algorithm": "arb", "alpha": 0},
]}

GOLDEN = {
    "gen-forest": {
        "file": "d63088100f67eb3d16fdaa6423d31ff92cba0e04d168c4370f7ce1ce6900d042",
    },
    "gen-gnm": {
        "file": "aa79b5e8c42c3f590b234e59175a3b155af8b5feb9c07576133d46c48d8ef9ff",
    },
    "color-arb": {
        "stdout": "2a1048e76a71913a8b14c6dc1ef02ba702530fd44ed2fd9ae7e601a27cc8a99b",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "col": "c6ccc5dadd56deda096b58b0e662cdbf6ad882e1a4d2f740708d0530432b8a9f",
        "met": "9ddbc7269cb17f576cfc00e9c4ab75979593b4e5408528d8cc5192d643b71678",
    },
    "color-arb-noisy": {
        "stdout": "0ce653d164d5b377c9c168288dba48d9b57a8013e3d1d29ca0584463eef20686",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "col": "a17c5b7208c800bcba1a4d1ab68d2aaa02b22a7a2a6c8889474682b489d8572c",
        "met": "7f3d5352f9c73f18097b4297539495ea2e824f4fdfc6344e2d594072417f9d84",
    },
    "color-arb-stall": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "b7360a9139e15801418ea7c374acafb416f8d48b9c78dc29540b428672369087",
        "met": "20aa335d512f64766ee8afdb692c5e7395ed5d1afe388553a0431d4c2df21fdc",
    },
    "color-delta": {
        "stdout": "7ecdea8916cbea3a0f7757a3fb66bdf81fbc5e2aa68b406bd06f3f7d6fc1ddec",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "col": "a2c5c5daec7281e819d35163ec7822ac51ba9bdc6fc0f7f219cefc32b8a1aba6",
        "met": "aef93fcac179c61bc2ecd0027974789728c6175fde4bef07fdd3d427c006ffb3",
    },
    "color-delta-abort": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "fbb56bfa8a3b3940eee8ea941ea64d604c933022a0dcc022c1a76786c9bc9e86",
        "met": "8ee268e6b9c9a71989639d995dd0221b284e0f812b5e0a758d92d1a68178b14c",
    },
    "peel": {
        "stdout": "f3bd3566fc4b5ba31e076091e168a3fce34c88f83f51f815f88b46a8afadc0de",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "layers": "d5381b3e0716a85a4ab5103160194cfd43bbe9f1697d43449215f221668daf20",
    },
    "verify-improper": {
        "stdout": "68dc9a01a06f92e05c0e820b2a9efcd09dde8efa9025ee29329f0ea4efd5ad8e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "sweep": {
        "cycle-n6-m0-a0-arb-e0.5-c1.0-g0-s0.json":
            "6b906f4058974e2bd30011836384ee25c254a2f424a38d5eebc70005c2c89ecb",
        "forest-union-n300-m0-a4-arb-e0.5-c1.0-g0-s0.json":
            "295cccf88c853841fed6896242b28e0c1570732d8f8f39dd8c42d61ed70e9f08",
        "gnm-n200-m1500-a0-delta-e0.5-c0.05-g3-s0.json":
            "38685c8c119c771a46da030161393f6379ef68fc9b2cf12f60be749c4a7c938f",
        "gnm-n200-m1500-a0-delta-e0.5-c0.05-g3-s2.json":
            "8c8afb0b305419b7458880bdc873d13f13b28f86c9129ba52f4370f2e51b3b3b",
        "gnm-n200-m1500-a0-delta-e0.5-c1.0-g3-s0.json":
            "8ebb6591469a1cfe0df81932e84488442b28ecb38adf49f086608c56eabd2ad6",
        "gnm-n200-m1500-a0-delta-e0.5-c1.0-g3-s2.json":
            "9e419f3b48211dc87c138b54fe2fb7663146505fed49ca8727754358ae38792d",
        "gnm-n64-m300-a0-arb-e0.5-c1.0-g0-s0.json":
            "2cc4d19c274f41e996d8baf286cbf87116e677d422b10b5161964cafea8cbb07",
        "summary.csv": "1bf991e71e942db95a562b8141f03f345077074f539455f14d35b855b402e9d0",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """Edge files for GRAPHS, a noisy copy of the forest, a mod-3 coloring."""
    d = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, args in GRAPHS.items():
        paths[name] = str(d / f"{name}.txt")
        assert main(["gen", *args, "-o", paths[name]]) == 0
    lines = (d / "forest.txt").read_text().splitlines(keepends=True)
    edges = lines[1:]
    repeats = [f"{e.split()[1]} {e.split()[0]}\n" for e in edges[::7]] + edges[:11]
    paths["noisy"] = str(d / "noisy.txt")
    with open(paths["noisy"], "w", encoding="utf-8") as fh:
        fh.writelines(["2000 0\n", *edges, *repeats])
    paths["mod3"] = str(d / "mod3.txt")
    with open(paths["mod3"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{v} {v % 3}\n" for v in range(1500))
    return paths


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_generated_graph_matches_golden(inputs, graph):
    with open(inputs[graph], "rb") as fh:
        assert {"file": sha(fh.read())} == GOLDEN[f"gen-{graph}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(inputs, tmp_path, capsysbinary, case):
    argv, code, written = CASES[case]
    assert main([a.format(out=tmp_path, **inputs) for a in argv]) == code
    captured = capsysbinary.readouterr()
    got = {"stdout": sha(captured.out), "stderr": sha(captured.err)}
    for name in written:
        got[name] = sha((tmp_path / name).read_bytes())
    assert got == GOLDEN[case]


def test_sweep_output_matches_golden(tmp_path, capsys):
    # not a CASES row: the command prints the path of its temporary output
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP))
    out = tmp_path / "out"
    assert main(["sweep", "-s", str(spec), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'summary.csv'}\n"
    assert {p.name: sha(p.read_bytes()) for p in out.iterdir()} == GOLDEN["sweep"]
