"""The two routes of pair-file parsing give the same results and errors.

``read_pairs`` tokenizes a plain file with numpy and hands every other file
to the line scan, ``_scan_pairs``. A forced scan is the reference: on any
input, ``open_stream`` (edge files, with a header) and ``read_coloring_file``
(coloring files, without one) must give the same result on both routes, or
raise the same error with the same message.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import cli, core, open_stream
from streamcolor.oracle import Coloring

ALPHABET = "0123456789 \n\t\r#-+x"


def reader(header: bool, n: int):
    """``open_stream`` for an edge file, else ``read_coloring_file`` over n vertices."""
    return open_stream if header else lambda path: cli.read_coloring_file(str(path), n)


def outcome(read, path: Path):
    """What one route makes of a file: the stream's or coloring's content, or its error."""
    try:
        result = read(path)
    except Exception as exc:  # the routes must agree on the type too
        return type(exc).__name__, str(exc)
    if isinstance(result, Coloring):
        return result.assignment, result.palette_size
    chunks = list(result.pass_chunks())
    u = np.concatenate([c[0] for c in chunks]) if chunks else np.zeros(0, np.int64)
    v = np.concatenate([c[1] for c in chunks]) if chunks else np.zeros(0, np.int64)
    assert u.dtype == np.int64 and v.dtype == np.int64
    return result.n, result.m, u.tolist(), v.tolist()


def forced_scan(read, path: Path):
    with mock.patch.object(core, "_parse_plain", lambda data, header: None):
        return outcome(read, path)


def assert_same(data: bytes, header: bool = True, n: int = 4):
    read = reader(header, n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.txt"
        path.write_bytes(data)
        fast = outcome(read, path)
        assert fast == forced_scan(read, path)
    return fast


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40), st.booleans(), st.integers(0, 6))
def test_routes_agree_on_arbitrary_bytes(text, header, n):
    assert_same(text.encode(), header, n)


PAIRS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8)


@st.composite
def near_plain_files(draw):
    """Plain edge or coloring files, and the header switch and n to read them
    with; some have one byte from ALPHABET inserted or replaced."""
    header = draw(st.booleans())
    n = draw(st.integers(0, 6))
    if header:
        edges = draw(PAIRS)
        pairs = [(n, draw(st.sampled_from([0, len(edges), len(edges) + 1]))), *edges]
    else:  # a full coloring, sometimes with stray pairs appended
        vertices = draw(st.permutations(range(n)))
        pairs = [(v, draw(st.integers(0, 7))) for v in vertices] + draw(PAIRS)[:2]
    data = bytearray(b"".join(f"{a} {b}\n".encode() for a, b in pairs))
    edit = draw(st.sampled_from(["none", "insert", "replace"]))
    if edit != "none" and data:
        at = draw(st.integers(0, len(data) - 1))
        byte = ord(draw(st.sampled_from(ALPHABET)))
        if edit == "insert":
            data.insert(at, byte)
        else:
            data[at] = byte
    return bytes(data), header, n


@settings(max_examples=400, deadline=None)
@given(near_plain_files())
def test_routes_agree_on_near_plain_files(file):
    assert_same(*file)


DEEP_SELF_LOOP = b"1000 1000\n" + b"".join(
    (f"{i} {i}\n" if i == 700 else f"{i} {(i + 1) % 1000}\n").encode() for i in range(1000)
)


@pytest.mark.parametrize(
    "data, header, plain, error",
    [
        (b"4 2\n0 1\n2 3", True, False, None),  # no trailing newline
        (b"4 2\r\n0 1\r\n2 3\r\n", True, False, None),
        (b"4 2\n0\t1\n2 3\n", True, False, None),
        (b"0004 02\n00 01\n2 003\n", True, True, None),  # leading zeros
        (b"4 1\n0 1000000000000000000\n", True, False, "line 2: endpoint out of range"),
        (b"1000000000000000000 1\n0 1\n", True, False, None),  # a 19-digit n
        (b"999999999999999999 1\n0 1\n", True, True, None),  # 18 digits is the limit
        (b"4 0\n", True, True, None),  # header only
        (b"4 3\n", True, True, "declares m=3 but file has 0 edges"),
        (b"4 3\n0 1\n1 2\n0 4\n", True, True, "line 4: endpoint out of range"),
        (DEEP_SELF_LOOP, True, True, "line 702: self-loop at vertex 700"),
        (b"4 3\n0 1\n1 2\n", True, True, "declares m=3 but file has 2 edges"),
        (b"4 2\n1 1\n0 x\n", True, False, "line 2: self-loop at vertex 1"),
        (b"4 2\n0 x\n1 1\n", True, False, "line 2: non-integer field"),
        (b"0 1\n1 2\n0 3\n2 2 2\n", False, False, "line 3: vertex 0 is colored twice"),
    ],
    ids=[
        "no-final-newline", "crlf", "tab", "leading-zeros", "19-digit-endpoint",
        "19-digit-n", "18-digit-n", "header-only", "header-only-declares-edges",
        "out-of-range-on-last-line", "deep-self-loop", "declared-m-mismatch",
        "self-loop-then-non-integer", "non-integer-then-self-loop",
        "colored-twice-then-garbage",
    ],
)
def test_routes_agree_on_edge_cases(data, header, plain, error):
    assert (core._parse_plain(data, header) is not None) == plain
    result = assert_same(data, header)
    if error is None:
        assert not isinstance(result[0], str), result
    else:
        assert result[0] == "StreamFormatError" and error in result[1]


def test_older_numpy_warning_takes_the_scan_route(tmp_path, monkeypatch):
    # numpy before 2 only warns about an unparsed tail; the warning must send
    # the file to the scan, which gives the same stream
    path = tmp_path / "g.txt"
    path.write_bytes(b"4 2\n0 1\n2 3\n")
    expected = outcome(open_stream, path)
    fromstring = np.fromstring

    def warning_fromstring(*args, **kwargs):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", warning_fromstring)
    assert core._parse_plain(path.read_bytes(), True) is None
    assert outcome(open_stream, path) == expected


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
    expected = forced_scan(open_stream, path)

    def no_scan(path, header):
        raise AssertionError(f"{path} fell back to the line scan")

    monkeypatch.setattr(core, "_scan_pairs", no_scan)
    assert outcome(open_stream, path) == expected
