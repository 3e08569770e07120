"""The two routes of pair-file parsing give the same results and errors.

``read_blocks`` reads a file once, front to back, in blocks: it parses a
plain block by its digit columns and hands any other block to the line scan,
``_scan_block``, which carries the line number on. The reference is a
forced scan of the whole file as one block: on any input, and at any block
size, ``open_stream`` (edge files, with a header) and ``read_coloring_file``
(coloring files, without one) must give the same result as the reference,
or raise the same error with the same message. A pipe, which can be read
only once, must give what the regular file gives.
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import cli, core
from streamcolor.core import Coloring, open_stream

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
    width = core.id_dtype(result.n)
    u = np.concatenate([c[0] for c in chunks]) if chunks else np.zeros(0, width)
    v = np.concatenate([c[1] for c in chunks]) if chunks else np.zeros(0, width)
    assert u.dtype == width and v.dtype == width
    return result.n, result.m, u.tolist(), v.tolist()


def forced_scan(read, path: Path):
    """The reference: one line scan of the whole file, whatever ``BLOCK`` is."""
    with mock.patch.object(core, "_plain_values", lambda block: None), \
            mock.patch.object(core, "BLOCK", path.stat().st_size + 1):
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


EDGE_CASES = [
    pytest.param(b"4 2\n0 1\n2 3", True, False, None, id="no-final-newline"),
    # CRLF lines are plain, alone or mixed with LF ones: each line still
    # holds one pair, so the line numbers are those of the scan
    pytest.param(b"4 2\r\n0 1\r\n2 3\r\n", True, True, None, id="crlf"),
    pytest.param(b"4 3\r\n0 1\r\n1 2\r\n2 2\r\n", True, True, "line 4: self-loop at vertex 2",
                 id="crlf-self-loop"),
    pytest.param(b"4 5\n0 1\n1 2\n2 3\r\n0 2\n1 3\n", True, True, None, id="late-crlf"),
    pytest.param(b"4 2\r0 1\r2 3\n", True, True, None, id="lone-cr"),
    pytest.param(b"4 2\r\n0 1\r\r\n2 3\r\n", True, False, None, id="cr-cr-lf"),
    pytest.param(b"4 2\r\n0 1\r\n12\r3\n", True, False, "line 3: expected two", id="cr-in-a-line"),
    pytest.param(b"4 2\n0\t1\n2 3\n", True, False, None, id="tab"),
    pytest.param(b"0004 02\n00 01\n2 003\n", True, True, None, id="leading-zeros"),
    pytest.param(b"4 1\n0 1000000000000000000\n", True, False, "line 2: endpoint out of range",
                 id="19-digit-endpoint"),
    pytest.param(b"1000000000000000000 1\n0 1\n", True, False, None, id="19-digit-n"),
    pytest.param(b"999999999999999999 1\n0 1\n", True, True, None, id="18-digit-n"),
    # the header is the file's first pair: within int64 like every pair, and
    # its sign is checked before any later line of its block
    pytest.param(b"99999999999999999999 1\n0 1\n", True, False,
                 "line 1: value outside the signed 64-bit range", id="20-digit-header"),
    pytest.param(b"-4 1\n0 1\nx y\n", True, False, "line 1: header '<n> <m>' must be non-negative",
                 id="negative-header-then-garbage"),
    pytest.param(b"4 0\n", True, True, None, id="header-only"),
    pytest.param(b"4 3\n", True, True, "declares m=3 but file has 0 edges",
                 id="header-only-declares-edges"),
    pytest.param(b"4 3\n0 1\n1 2\n0 4\n", True, True, "line 4: endpoint out of range",
                 id="out-of-range-on-last-line"),
    pytest.param(DEEP_SELF_LOOP, True, True, "line 702: self-loop at vertex 700",
                 id="deep-self-loop"),
    pytest.param(b"4 3\n0 1\n1 2\n", True, True, "declares m=3 but file has 2 edges",
                 id="declared-m-mismatch"),
    # the arrays are presized from m and must grow past an understated one
    pytest.param(b"4 1\n0 1\n1 2\n2 3\n", True, True, "declares m=1 but file has 3 edges",
                 id="declared-m-too-small"),
    # a hostile m presizes no more than one pair per 4 bytes of file
    pytest.param(b"4 999999999999999999\n0 1\n", True, True,
                 "declares m=999999999999999999 but file has 1 edges", id="huge-declared-m"),
    pytest.param(b"4 2\n1 1\n0 x\n", True, False, "line 2: self-loop at vertex 1",
                 id="self-loop-then-non-integer"),
    pytest.param(b"4 2\n0 x\n1 1\n", True, False, "line 2: non-integer field",
                 id="non-integer-then-self-loop"),
    pytest.param(b"0 1\n1 2\n0 3\n2 2 2\n", False, False, "line 3: vertex 0 is colored twice",
                 id="colored-twice-then-garbage"),
    # a value too wide for the stored ids (uint16 at n 300, uint32 at n
    # 70000) is checked as int64 before it is stored; stored, 65541 and 2**32
    # would wrap to the valid ids 5 and 0
    pytest.param(b"300 2\n0 299\n0 70000\n", True, True, "line 3: endpoint out of range [0, 300)",
                 id="beyond-uint16"),
    pytest.param(b"300 1\n0 65541\n", True, True, "line 2: endpoint out of range [0, 300)",
                 id="beyond-uint16-wraps-into-range"),
    pytest.param(b"70000 2\n69999 0\n4294967296 1\n", True, True,
                 "line 3: endpoint out of range [0, 70000)", id="beyond-uint32"),
    pytest.param(b"300 2\n5 5\n0 70000\n", True, True, "line 2: self-loop at vertex 5",
                 id="self-loop-then-beyond-uint16"),
    # lines that are not plain after several that are: in small blocks the
    # scan takes over mid-file with the line number carried
    pytest.param(b"4 5\n0 1\n1 2\n2 3\n# late comment\n0 2\n1 3\n", True, False, None,
                 id="late-comment"),
    pytest.param(b"4 5\n0 1\n1 2\n2 3\n\n0 2\n1 3\n", True, False, None, id="late-blank-line"),
    pytest.param(b"4 5\n0 1\n1 2\n2 3\r0 2\n1 3\n", True, True, None, id="late-lone-cr"),
    pytest.param(b"4 3\n# c\n0 1\n1 2\n2 2\n", True, False, "line 5: self-loop at vertex 2",
                 id="self-loop-after-comment-block"),
    # every read is cut after its last line end: a lone \r ends a line, and
    # a final \r waits for the next read, since it may start a \r\n (this
    # file splits one at every small block size)
    pytest.param(b"4 5\n0 1\r1 2\r2 3\r0 2\r3 3\r", True, True, "line 6: self-loop at vertex 3",
                 id="lone-cr-late-self-loop"),
    pytest.param(b"40 4\r\n1 2\r0 1\r\n2 3\r\n3 3\r\n", True, True,
                 "line 5: self-loop at vertex 3", id="crlf-split-by-the-cut"),
    # a byte that is not UTF-8 is a format error on its own line, after the
    # errors of the lines before it
    pytest.param(b"4 2\n0 1\n1 2\n0 0\n\xff\n", True, False, "line 4: self-loop at vertex 0",
                 id="self-loop-then-not-utf8"),
    pytest.param(b"4 2\n0 1\n\xff\n1 2\n", True, False, "line 3: not UTF-8 text",
                 id="not-utf8-byte"),
    pytest.param(b"4 1\n# caf\xe9\n0 1\n", True, False, "line 2: not UTF-8 text",
                 id="not-utf8-comment"),
    pytest.param(b"0 1\n1 2\xff\n", False, False, "line 2: not UTF-8 text",
                 id="not-utf8-coloring"),
]


@pytest.mark.parametrize("data, header, plain, error", EDGE_CASES)
def test_routes_agree_on_edge_cases(tmp_path, data, header, plain, error):
    path = tmp_path / "pairs.txt"
    path.write_bytes(data)
    assert (core._plain_values(data) is not None) == plain
    result = assert_same(data, header)
    if error is None:
        assert not isinstance(result[0], str), result
    else:
        assert result[0] == "StreamFormatError" and error in result[1]


# blocks that split a file after one line, in mid-line and in mid-number;
# "line" is the length of the file's first line
BLOCKS = [1, 3, 7, "line"]


def block_bytes(block, data: bytes) -> int:
    return data.index(b"\n") + 1 if block == "line" else block


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("data, header, plain, error", EDGE_CASES)
def test_routes_agree_on_edge_cases_in_small_blocks(
    tmp_path, monkeypatch, block, data, header, plain, error
):
    monkeypatch.setattr(core, "BLOCK", block_bytes(block, data))
    test_routes_agree_on_edge_cases(tmp_path, data, header, plain, error)


@settings(max_examples=200, deadline=None)
@given(near_plain_files(), st.sampled_from(BLOCKS))
def test_routes_agree_on_near_plain_files_in_small_blocks(file, block):
    data = file[0]
    with mock.patch.object(core, "BLOCK", block_bytes(block, data) if b"\n" in data else 1):
        assert_same(*file)


@pytest.mark.parametrize("n", [256, 257, 65536, 65537])
def test_routes_agree_at_id_width_limits(tmp_path, n):
    # endpoints up to n - 1, the largest id the narrowest width must hold
    edges = [(n - 1, 0), (1, n - 1), (n - 2, n - 1), (0, 1), (n - 1, n // 2)]
    path = tmp_path / "g.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges))
    assert open_stream(path)._u.dtype == core.id_dtype(n)
    expected = n, len(edges), [e[0] for e in edges], [e[1] for e in edges]
    assert assert_same(path.read_bytes()) == expected
    assert outcome(lambda _: core.EdgeStream.from_edges(n, edges), path) == expected


def test_plain_files_parse_without_np_fromstring(tmp_path, monkeypatch):
    # the digit columns parse a plain block; numpy's string tokenizer, whose
    # handling of an unparsed tail differs across numpy versions, is not used
    path = tmp_path / "g.txt"
    path.write_bytes(b"4 2\n0 1\n2 3\n")

    def no_fromstring(*args, **kwargs):
        raise AssertionError("np.fromstring was called")

    monkeypatch.setattr(np, "fromstring", no_fromstring)
    assert core._plain_values(path.read_bytes()).tolist() == [4, 2, 0, 1, 2, 3]
    assert outcome(open_stream, path) == (4, 2, [0, 2], [1, 3])


# the largest and smallest numbers of 1, 2, 3, 4, 5, 9, 10 and 18 digits
EDGE_VALUES = [9, 99, 100, 9999, 10000, 10**9 - 1, 10**9, 10**18 - 1]
LINE_ENDS = ["\n", "\r\n", "\r"]


def digits_of(d: int):
    """Numbers of exactly d digits, leading zeros included."""
    return st.text("0123456789", min_size=d, max_size=d)


@st.composite
def plain_blocks(draw):
    """Blocks of whole plain lines: numbers of 1 to 18 digits, mixed within
    a block, some with leading zeros and some at a width's edge, and each
    line ended by \\n, \\r\\n or a lone \\r."""
    number = st.one_of(st.integers(1, 18).flatmap(digits_of), st.sampled_from(EDGE_VALUES).map(str))
    pairs = draw(st.lists(st.tuples(number, number), min_size=1, max_size=20))
    return "".join(f"{a} {b}{draw(st.sampled_from(LINE_ENDS))}" for a, b in pairs).encode()


@settings(max_examples=400, deadline=None)
@given(plain_blocks())
def test_digit_columns_match_python_int(block):
    vals = core._plain_values(block)
    assert vals is not None and vals.dtype == np.int64
    assert vals.tolist() == [int(x) for x in block.split()]


@pytest.mark.parametrize("block", [
    pytest.param(b"1 " + b"1" * 19 + b"\n", id="19-digits"),
    pytest.param(b"1 " + b"0" * 18 + b"1\n", id="19-digits-with-leading-zeros"),
    pytest.param(b"0 1\n1\t2\n", id="tab"),
    pytest.param(b"0 1\n1  2\n", id="double-space"),
    pytest.param(b"0 1\n1 2", id="no-final-line-end"),
])
def test_digit_columns_refuse_a_block_that_is_not_plain(block):
    assert core._plain_values(block) is None


def digit_column_file(n: int, m: int, seed: int):
    """A plain edge file of m pairs below n, and its edges: each number has
    a random count of digits, some are a width's edge value, each is padded
    with up to 18 digits of leading zeros, and each line ends in \\n,
    \\r\\n or a lone \\r."""
    rng = random.Random(seed)
    digits = len(str(n - 1))
    edge_values = [x for x in EDGE_VALUES if x < n]

    def number():
        if rng.random() < 0.1:
            return rng.choice(edge_values)
        d = rng.randint(1, digits)
        return rng.randrange(10 ** (d - 1) if d > 1 else 0, min(10**d, n))

    def written(x):
        return str(x).zfill(rng.randint(len(str(x)), 18))

    edges = []
    while len(edges) < m:
        a, b = number(), number()
        if a != b:
            edges.append((a, b))
    lines = [f"{n} {m}\n"] + [f"{written(a)} {written(b)}{rng.choice(LINE_ENDS)}" for a, b in edges]
    return "".join(lines).encode(), edges


@pytest.mark.parametrize("block", [1 << 14, None])
@pytest.mark.parametrize("n", [10_000, 10**18 - 1])
def test_digit_columns_read_a_file_as_python_int(tmp_path, monkeypatch, n, block):
    # every block is plain, so no line scan runs, at either block size
    if block is not None:
        monkeypatch.setattr(core, "BLOCK", block)
    data, edges = digit_column_file(n, 8000, seed=n % 1000)
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    assert len(data) > core.BLOCK

    def no_scan(text, line):
        raise AssertionError(f"line {line} fell back to the line scan")

    monkeypatch.setattr(core, "_scan_block", no_scan)
    expected = n, len(edges), [a for a, _ in edges], [b for _, b in edges]
    assert outcome(open_stream, path) == expected


GNM_ARGS = ["--family", "gnm", "--n", "300", "--m", "2000", "--seed", "5"]


@pytest.mark.parametrize(
    "gen_args",
    [
        GNM_ARGS,
        ["--family", "forest-union", "--n", "300", "--alpha", "4", "--seed", "6",
         "--order", "random"],
    ],
    ids=["gnm", "forest-union"],
)
def test_gen_output_takes_the_vectorized_route(tmp_path, monkeypatch, gen_args):
    path = tmp_path / "g.txt"
    assert cli.main(["gen", *gen_args, "-o", str(path)]) == 0
    expected = forced_scan(open_stream, path)

    def no_scan(block, line):
        raise AssertionError(f"{path} fell back to the line scan at line {line}")

    monkeypatch.setattr(core, "_scan_block", no_scan)
    assert outcome(open_stream, path) == expected


@pytest.mark.parametrize("block", BLOCKS)
def test_gen_output_takes_the_vectorized_route_in_small_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK", block_bytes(block, b"300 2000\n"))  # GNM_ARGS's header
    test_gen_output_takes_the_vectorized_route(tmp_path, monkeypatch, GNM_ARGS)


@contextmanager
def fed_fifo(tmp_path, data: bytes, name: str = "pipe"):
    """A FIFO that a writer thread feeds with data, once. A reader that opens
    it a second time would wait for a writer forever, so after 30 s a
    watchdog opens and closes the write end: that reader sees an empty file."""
    path = tmp_path / name
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at an error
            pass

    def release_reader():
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader waits
            pass

    writer = threading.Thread(target=feed, daemon=True)
    watchdog = threading.Timer(30, release_reader)
    writer.start()
    watchdog.start()
    try:
        yield path
    finally:
        watchdog.cancel()
        if writer.is_alive():  # unblock a writer whose reader never opened the FIFO
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()


def late_comment_file(lines: int) -> bytes:
    """An edge file at n 1000 with a ``#`` line after its first half."""
    pairs = [f"{i % 1000} {(i + 1 + i // 1000) % 1000}\n" for i in range(lines)]
    half = lines // 2
    return "".join([f"1000 {lines}\n", *pairs[:half], "# a late comment\n", *pairs[half:]]).encode()


@pytest.mark.parametrize("block", [1, 7, None])
def test_fifo_reads_as_the_regular_file(tmp_path, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(core, "BLOCK", block)
    data = late_comment_file(2 * core.BLOCK // 8 + 40)  # the comment is in a late block
    regular = tmp_path / "g.txt"
    regular.write_bytes(data)
    expected = outcome(open_stream, regular)
    assert expected[:2] == (1000, data.count(b"\n") - 2)
    with fed_fifo(tmp_path, data) as fifo:
        assert outcome(open_stream, fifo) == expected


@pytest.mark.parametrize("data, error", [
    pytest.param(b"4 2\n0 1\n1 x\n", "line 3: non-integer field", id="short"),
    pytest.param(late_comment_file(40_000) + b"3 3\n", "line 40003: self-loop at vertex 3",
                 id="late-self-loop"),
    pytest.param(late_comment_file(40_000) + b"0 1 2\n",
                 "line 40003: expected two whitespace-separated fields", id="late-three-fields"),
])
def test_fifo_reports_the_regular_files_error(tmp_path, data, error):
    regular = tmp_path / "g.txt"
    regular.write_bytes(data)
    expected = outcome(open_stream, regular)
    assert expected == ("StreamFormatError", error)
    with fed_fifo(tmp_path, data) as fifo:
        assert outcome(open_stream, fifo) == expected


def test_verify_reads_either_file_from_a_fifo(tmp_path, capsys):
    graph, coloring = tmp_path / "g.txt", tmp_path / "c.txt"
    assert cli.main(["gen", *GNM_ARGS, "-o", str(graph)]) == 0
    color = ["color-delta", "-i", str(graph), "--epsilon", "0.5", "--seed", "1"]
    assert cli.main([*color, "-o", str(coloring)]) == 0
    capsys.readouterr()
    with fed_fifo(tmp_path, graph.read_bytes()) as fifo:
        assert cli.main(["verify", "-i", str(fifo), "-c", str(coloring)]) == 0
    assert capsys.readouterr().out == "proper\n"
    with fed_fifo(tmp_path, coloring.read_bytes(), "coloring-pipe") as fifo:
        assert cli.main(["verify", "-i", str(graph), "-c", str(fifo)]) == 0
    assert capsys.readouterr().out == "proper\n"
