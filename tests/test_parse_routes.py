"""The two routes of edge-file parsing give the same streams and errors.

``open_stream`` parses a plain ``<u> <v>`` file with numpy and hands every
other file to the line scan, ``_scan_edge_file``, which is the reference:
on any input both must give the same ``(n, m, u, v)`` or raise the same
error with the same message.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import cli, core, open_stream

ALPHABET = "0123456789 \n\t\r#-+x"


def outcome(parse, path: Path):
    """What one route makes of a file: the stream's content, or its error."""
    try:
        s = parse(path)
    except Exception as exc:  # the routes must agree on the type too
        return type(exc).__name__, str(exc)
    chunks = list(s.pass_chunks())
    u = np.concatenate([c[0] for c in chunks]) if chunks else np.zeros(0, np.int64)
    v = np.concatenate([c[1] for c in chunks]) if chunks else np.zeros(0, np.int64)
    assert u.dtype == np.int64 and v.dtype == np.int64
    return s.n, s.m, u.tolist(), v.tolist()


def both_routes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(data)
        return outcome(open_stream, path), outcome(core._scan_edge_file, path)


def assert_same(data: bytes):
    fast, scan = both_routes(data)
    assert fast == scan
    return fast


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_routes_agree_on_arbitrary_bytes(text):
    assert_same(text.encode())


@st.composite
def near_plain_files(draw):
    """Plain files, some with one byte from ALPHABET inserted or replaced."""
    n = draw(st.integers(0, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8))
    m = draw(st.sampled_from([0, len(edges), len(edges) + 1]))
    data = bytearray(f"{n} {m}\n".encode() + b"".join(f"{a} {b}\n".encode() for a, b in edges))
    edit = draw(st.sampled_from(["none", "insert", "replace"]))
    if edit != "none":
        at = draw(st.integers(0, len(data) - 1))
        byte = ord(draw(st.sampled_from(ALPHABET)))
        if edit == "insert":
            data.insert(at, byte)
        else:
            data[at] = byte
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(near_plain_files())
def test_routes_agree_on_near_plain_files(data):
    assert_same(data)


DEEP_SELF_LOOP = b"1000 1000\n" + b"".join(
    (f"{i} {i}\n" if i == 700 else f"{i} {(i + 1) % 1000}\n").encode() for i in range(1000)
)


@pytest.mark.parametrize(
    "data, plain, error",
    [
        (b"4 2\n0 1\n2 3", False, None),  # no trailing newline
        (b"4 2\r\n0 1\r\n2 3\r\n", False, None),
        (b"4 2\n0\t1\n2 3\n", False, None),
        (b"0004 02\n00 01\n2 003\n", True, None),  # leading zeros
        (b"4 1\n0 1000000000000000000\n", False, "line 2: endpoint out of range"),
        (b"1000000000000000000 1\n0 1\n", False, None),  # a 19-digit n
        (b"999999999999999999 1\n0 1\n", True, None),  # 18 digits is the limit
        (b"4 0\n", True, None),  # header only
        (b"4 3\n", False, "declares m=3 but file has 0 edges"),
        (b"4 3\n0 1\n1 2\n0 4\n", False, "line 4: endpoint out of range"),
        (DEEP_SELF_LOOP, False, "line 702: self-loop at vertex 700"),
        (b"4 3\n0 1\n1 2\n", False, "declares m=3 but file has 2 edges"),
    ],
    ids=[
        "no-final-newline", "crlf", "tab", "leading-zeros", "19-digit-endpoint",
        "19-digit-n", "18-digit-n", "header-only", "header-only-declares-edges",
        "out-of-range-on-last-line", "deep-self-loop", "declared-m-mismatch",
    ],
)
def test_routes_agree_on_edge_cases(data, plain, error):
    assert (core._parse_plain(data) is not None) == plain
    result = assert_same(data)
    if error is None:
        assert not isinstance(result[0], str), result
    else:
        assert result[0] == "StreamFormatError" and error in result[1]


@pytest.mark.parametrize(
    "gen_args",
    [
        ["--family", "gnm", "--n", "300", "--m", "2000", "--seed", "5"],
        ["--family", "forest-union", "--n", "300", "--alpha", "4", "--seed", "6",
         "--order", "random"],
    ],
    ids=["gnm", "forest-union"],
)
def test_gen_output_takes_the_vectorized_route(tmp_path, monkeypatch, gen_args):
    path = tmp_path / "g.txt"
    assert cli.main(["gen", *gen_args, "-o", str(path)]) == 0
    expected = outcome(core._scan_edge_file, path)

    def no_scan(path):
        raise AssertionError(f"{path} fell back to the line scan")

    monkeypatch.setattr(core, "_scan_edge_file", no_scan)
    assert outcome(open_stream, path) == expected
