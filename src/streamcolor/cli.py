"""Command-line harness.

Subcommands: gen, maxdeg, color-delta, peel, color-arb, verify, oracle, sweep.
Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 abort or stall. Metrics files are JSON with sorted keys; identical config
plus seed reproduces byte-identical outputs.

``main`` opens the edge stream ``-i`` of each command that reads one, and
turns a ``ColoringAborted`` or ``PeelStalled`` into exit 3 and partial metrics.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

# the parser and every command need only core; each command imports its
# other modules when it runs
from .core import (
    DEFAULT_C,
    FAMILIES,
    ORDERS,
    Coloring,
    ColoringAborted,
    PeelStalled,
    StreamFormatError,
    first_occurrences,
    measure_max_degree,
    open_stream,
    read_blocks,
)

WRITE_CHUNK = 1 << 16  # pairs formatted per call
_LIMB = 10_000  # values are written as base-10**4 limbs of 4 ASCII digits
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # a value's digit count is 1 + how many it reaches


def _keep_rows(width: int) -> np.ndarray:
    """Row ``d - 1`` marks the last ``d`` digits and the separator of a
    ``width``-byte value row: the bytes kept of a ``d``-digit value."""
    return np.arange(width) >= width - 2 - np.arange(len(_POW10) + 1)[:, None]


@functools.cache  # about 1 ms; built on the first write, not at import
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(quad, last, keep)``, indexed by a limb ``i`` in ``[0, 10**4)``.

    ``quad[i]`` is ``i`` as 4 zero-padded ASCII digits. ``last[2i]`` is those
    digits and a space, ``last[2i + 1]`` those digits and a newline: the
    lowest limb's row, which also ends the value. ``keep[i]`` marks the bytes
    of ``last`` that remain once ``i``'s leading zeros are dropped.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    grid = np.meshgrid(digit, digit, digit, digit, indexing="ij")  # grid[k]: digit k of 0000-9999
    quad = np.stack(grid, axis=-1).reshape(_LIMB, 4)
    last = np.empty((2 * _LIMB, 5), dtype=np.uint8)
    last[:, :4] = np.repeat(quad, 2, axis=0)
    last[0::2, 4] = ord(" ")
    last[1::2, 4] = ord("\n")
    keep = np.take(_keep_rows(5), np.searchsorted(_POW10, np.arange(_LIMB), side="right"), axis=0)
    return quad, last, keep


def _pair_bytes(chunk: np.ndarray) -> np.ndarray:
    """The lines ``f"{a} {b}\\n"`` of the rows of ``chunk`` (non-negative
    int64), as one uint8 array.

    Each value is laid out as a fixed-width row of its limbs, each limb
    gathered from a digit table, and the leading zeros are then dropped by a
    boolean keep mask.
    """
    quad, last, keep = _digit_tables()
    vals = chunk.ravel()
    limbs = 1 + int(np.searchsorted(_POW10[3::4], vals.max(), side="right"))
    if limbs == 1:
        return np.take(last, _last_rows(vals), axis=0)[np.take(keep, vals, axis=0)]
    width = 4 * limbs + 1
    out = np.empty((len(vals), width), dtype=np.uint8)
    rest = vals // _LIMB
    out[:, -5:] = np.take(last, _last_rows(vals - rest * _LIMB), axis=0)
    for lo in range(width - 9, 0, -4):  # the middle limbs, right to left
        higher = rest // _LIMB
        out[:, lo : lo + 4] = np.take(quad, rest - higher * _LIMB, axis=0)
        rest = higher
    out[:, :4] = np.take(quad, rest, axis=0)  # the top limb, below 10**4 by the choice of limbs
    return out[np.take(_keep_rows(width), np.searchsorted(_POW10, vals, side="right"), axis=0)]


def _last_rows(low: np.ndarray) -> np.ndarray:
    """The rows of ``last`` for a chunk's lowest limbs: the second value of
    each pair ends its line."""
    row = low * 2
    row[1::2] += 1
    return row


def write_pairs(path: str, pairs, header: str = "") -> None:
    """Write ``header``, then one ``<a> <b>`` line per row of ``pairs``.

    The values must be non-negative int64; a negative one raises
    ``ValueError`` before the file is opened. The bytes equal
    ``f"{a} {b}\\n"`` per row. Rows are formatted ``WRITE_CHUNK`` at a time by
    table gathers in numpy (``_pair_bytes``), so the scratch is a few chunks
    whatever the row count.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    low = pairs.min(initial=0)
    if low < 0:
        raise ValueError(f"cannot write the negative value {low} to {path}")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, len(pairs), WRITE_CHUNK):
            fh.write(_pair_bytes(pairs[lo : lo + WRITE_CHUNK]))


def _indexed(values) -> np.ndarray:
    """Rows ``(i, values[i])``: the vertex-indexed pairs of a coloring or layering."""
    return np.column_stack((np.arange(len(values)), np.asarray(values, dtype=np.int64)))


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_coloring_file(path: str, coloring: Coloring) -> None:
    write_pairs(path, _indexed(coloring.assignment))


def read_coloring_file(path: str, n: int) -> Coloring:
    seen = np.zeros(n, dtype=bool)  # the vertices of the blocks read so far
    assignment = np.empty(n, dtype=np.int64)
    for vertex, color, lines in read_blocks(Path(path)):
        twice = np.ones(len(vertex), dtype=bool)
        twice[first_occurrences(vertex)] = False
        inside = (vertex >= 0) & (vertex < n)
        twice[inside] |= seen[vertex[inside]]
        bad = twice | ~inside
        if bad.any():
            i = int(bad.argmax())
            message = f"vertex out of range [0, {n})"
            if twice[i]:
                message = f"vertex {vertex[i]} is colored twice"
            raise StreamFormatError(message, lines[i])
        seen[vertex] = True
        assignment[vertex] = color
    if not seen.all():
        raise ValueError(f"coloring missing a vertex: first missing id {int(seen.argmin())}")
    palette_size = int(assignment.max()) + 1 if n else 0
    return Coloring(assignment=assignment.tolist(), palette_size=palette_size)


def cmd_gen(args) -> int:
    from .corpus import GenSpec, generate

    spec = GenSpec(
        family=args.family, n=args.n, m=args.m, alpha=args.alpha,
        seed=args.seed, order=args.order,
    )
    edges, meta = generate(spec)
    write_pairs(args.output, edges, header=f"{meta.n} {meta.m}\n")
    print(f"wrote {args.output}: n={meta.n} m={meta.m} max_degree={meta.max_degree}")
    return 0


def cmd_maxdeg(args, stream) -> int:
    print(measure_max_degree(stream))
    return 0


def _color(args, stream, run, bound, detail: str) -> int:
    """Run, then write the coloring and metrics; ``detail`` is the field shown after ell."""
    coloring, metrics = run(stream, bound, args.epsilon, args.c, args.seed)
    write_coloring_file(args.output, coloring)
    if args.metrics:
        _write_json(args.metrics, asdict(metrics))
    print(
        f"colored n={metrics.n} m={metrics.m} with {metrics.colors_used} colors "
        f"(ell={metrics.ell}, {detail}={getattr(metrics, detail)}, passes={metrics.passes})"
    )
    return 0


def cmd_color_delta(args, stream) -> int:
    from .delta_color import run_delta_coloring

    delta = measure_max_degree(stream) if args.delta is None else args.delta
    return _color(args, stream, run_delta_coloring, delta, "r")


def cmd_peel(args, stream) -> int:
    from .peel import peel

    lp = peel(stream, args.alpha, args.gamma)
    write_pairs(args.output, _indexed(lp.layer))
    print(f"peeled into k={lp.k} layers (threshold={lp.threshold}, passes={lp.k})")
    return 0


def cmd_color_arb(args, stream) -> int:
    from .arb_color import run_arboricity_coloring

    return _color(args, stream, run_arboricity_coloring, args.alpha, "k")


def cmd_verify(args, stream) -> int:
    from .oracle import verify_proper

    coloring = read_coloring_file(args.coloring, stream.n)
    violations = verify_proper(stream, coloring)
    if violations:
        for u, v in violations:
            print(f"conflict: {u} {v} color={coloring.assignment[u]}")
        print(f"improper: {len(violations)} conflicting edges")
        return 1
    print("proper")
    return 0


def cmd_oracle(args, stream) -> int:
    from .oracle import degeneracy, greedy_color, nash_williams_arboricity, repeat_counts

    if args.which == "arboricity":
        print(nash_williams_arboricity(stream))
        return 0
    if args.which == "degeneracy":
        print(degeneracy(stream).d)
        return 0
    if args.which == "repeats":
        r = repeat_counts(stream)
        print(f"m={r.m} distinct={r.distinct} repeats={r.repeats} "
              f"max_multiplicity={r.max_multiplicity}")
        return 0
    if args.order == "reverse-degeneracy":
        order = list(reversed(degeneracy(stream).order))
    else:
        order = list(range(stream.n))
    coloring = greedy_color(stream, order)
    if args.output:
        write_coloring_file(args.output, coloring)
    print(f"greedy used {coloring.colors_used} colors (palette {coloring.palette_size})")
    return 0


def cmd_sweep(args) -> int:
    import json

    from .sweep import expand_spec, run_sweep

    doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    expand_spec(doc)  # reject a spec of the wrong shape before reading output_dir
    out_dir = args.output or doc.get("output_dir")
    if not out_dir:
        raise ValueError("sweep needs an output directory (-o or 'output_dir' in the spec)")
    if not isinstance(out_dir, str):
        raise ValueError(f"a sweep spec's 'output_dir' must be a string, got {out_dir!r}")
    csv_path = run_sweep(doc, out_dir)
    print(f"wrote {csv_path}")
    return 0


def _run_arguments(p: argparse.ArgumentParser, func) -> None:
    """The arguments both coloring commands take after their bound."""
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="coloring file")
    p.add_argument("--metrics", default=None, help="metrics JSON path")
    p.set_defaults(func=func)


@functools.cache  # static, and rebuilding it costs about 1 ms per main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcolor",
        description="Semi-streaming vertex coloring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reads = argparse.ArgumentParser(add_help=False)  # main opens its -i as the edge stream
    reads.add_argument("-i", "--input", required=True)
    reader = functools.partial(sub.add_parser, parents=[reads])

    p = sub.add_parser("gen", help="generate a corpus graph to an edge-list file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="edge count (gnm)")
    p.add_argument("--alpha", type=int, default=None, help="forest count (forest-union)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", default="as-generated", choices=ORDERS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = reader("maxdeg", help="measure max degree in one pass")
    p.set_defaults(func=cmd_maxdeg)

    p = reader("color-delta", help="one-pass coloring within (1+eps)*Delta")
    p.add_argument("--delta", type=int, default=None,
                   help="max-degree upper bound (measured in an extra pass when omitted)")
    _run_arguments(p, cmd_color_delta)

    p = reader("peel", help="degree-peel into layers, one pass per round")
    p.add_argument("--alpha", type=int, required=True, help="arboricity upper bound")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("-o", "--output", required=True, help="layers file")
    p.set_defaults(func=cmd_peel)

    p = reader("color-arb", help="k-pass coloring within (2+eps)*alpha")
    p.add_argument("--alpha", type=int, required=True, help="arboricity upper bound")
    _run_arguments(p, cmd_color_arb)

    p = reader("verify", help="check a coloring file against an edge stream")
    p.add_argument("-c", "--coloring", required=True)
    p.set_defaults(func=cmd_verify)

    p = reader("oracle", help="offline ground-truth computations")
    p.add_argument("which", choices=("arboricity", "degeneracy", "greedy", "repeats"))
    p.add_argument("--order", default="id", choices=("id", "reverse-degeneracy"),
                   help="vertex order for greedy")
    p.add_argument("-o", "--output", default=None, help="coloring file (greedy)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="run a JSON-specified grid of seeded runs")
    p.add_argument("-s", "--spec", required=True, help="sweep spec JSON")
    p.add_argument("-o", "--output", default=None,
                   help="output directory (falls back to 'output_dir' in the spec)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            if "input" in args:
                return args.func(args, open_stream(args.input))
            return args.func(args)
        except (ColoringAborted, PeelStalled) as exc:
            word = "abort" if isinstance(exc, ColoringAborted) else "stall"
            print(f"{word}: {exc}", file=sys.stderr)
            if exc.metrics is not None and args.metrics:  # peel has neither
                _write_json(args.metrics, asdict(exc.metrics))
            return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a header declaring more vertices than fit in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
