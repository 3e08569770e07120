"""Command-line harness.

Subcommands: gen, maxdeg, color-delta, peel, color-arb, verify, oracle, sweep.
Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 abort or stall. Metrics files are JSON with sorted keys; identical config
plus seed reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .arb_color import run_arboricity_coloring
from .core import StreamFormatError, first_occurrences, measure_max_degree, open_stream, read_pairs
from .corpus import FAMILIES, ORDERS, GenSpec, generate
from .delta_color import DEFAULT_C, ColoringAborted, run_delta_coloring
from .oracle import (
    Coloring,
    degeneracy,
    greedy_color,
    nash_williams_arboricity,
    repeat_counts,
    verify_proper,
)
from .peel import PeelStalled, peel
from .sweep import expand_spec, run_sweep


WRITE_CHUNK = 1 << 16  # pairs formatted per call


def write_pairs(path: str, pairs, header: str = "") -> None:
    """Write ``header``, then one ``<a> <b>`` line per row of ``pairs``.

    Each chunk of rows is formatted by a single ``%`` over a flat tuple, so the
    per-line work stays in C; the bytes equal ``f"{a} {b}\\n"`` per row.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for lo in range(0, len(pairs), WRITE_CHUNK):
            chunk = pairs[lo : lo + WRITE_CHUNK]
            fh.write(("%d %d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


def _indexed(values) -> np.ndarray:
    """Rows ``(i, values[i])``: the vertex-indexed pairs of a coloring or layering."""
    return np.column_stack((np.arange(len(values)), np.asarray(values, dtype=np.int64)))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_coloring_file(path: str, coloring: Coloring) -> None:
    write_pairs(path, _indexed(coloring.assignment))


def read_coloring_file(path: str, n: int) -> Coloring:
    def check(_head, vertex, _color, lines):
        twice = np.ones(len(vertex), dtype=bool)
        twice[first_occurrences(vertex)] = False
        bad = twice | (vertex < 0) | (vertex >= n)
        if bad.any():
            i = int(bad.argmax())
            message = f"vertex out of range [0, {n})"
            if twice[i]:
                message = f"vertex {vertex[i]} is colored twice"
            raise StreamFormatError(message, lines[i])

    _, vertex, color = read_pairs(Path(path), False, check)
    if len(vertex) < n:
        first = int(np.bincount(vertex, minlength=n).argmin())
        raise ValueError(f"coloring missing a vertex: first missing id {first}")
    assignment = np.empty(n, dtype=np.int64)
    assignment[vertex] = color
    return Coloring(assignment=assignment.tolist(), palette_size=int(color.max()) + 1 if n else 0)


def cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family, n=args.n, m=args.m, alpha=args.alpha,
        seed=args.seed, order=args.order,
    )
    edges, meta = generate(spec)
    write_pairs(args.output, edges, header=f"{meta.n} {meta.m}\n")
    print(f"wrote {args.output}: n={meta.n} m={meta.m} max_degree={meta.max_degree}")
    return 0


def cmd_maxdeg(args) -> int:
    stream = open_stream(args.input)
    print(measure_max_degree(stream))
    return 0


def cmd_color_delta(args) -> int:
    stream = open_stream(args.input)
    delta = args.delta if args.delta is not None else measure_max_degree(stream)
    try:
        coloring, metrics = run_delta_coloring(
            stream, delta, args.epsilon, args.c, args.seed
        )
    except ColoringAborted as exc:
        print(f"abort: {exc}", file=sys.stderr)
        if args.metrics and exc.metrics is not None:
            _write_json(args.metrics, asdict(exc.metrics))
        return 3
    write_coloring_file(args.output, coloring)
    if args.metrics:
        _write_json(args.metrics, asdict(metrics))
    print(
        f"colored n={metrics.n} m={metrics.m} with {metrics.colors_used} colors "
        f"(ell={metrics.ell}, r={metrics.r}, passes={metrics.passes})"
    )
    return 0


def cmd_peel(args) -> int:
    stream = open_stream(args.input)
    try:
        lp = peel(stream, args.alpha, args.gamma)
    except PeelStalled as exc:
        print(f"stall: {exc}", file=sys.stderr)
        return 3
    write_pairs(args.output, _indexed(lp.layer))
    print(f"peeled into k={lp.k} layers (threshold={lp.threshold}, passes={lp.passes})")
    return 0


def cmd_color_arb(args) -> int:
    stream = open_stream(args.input)
    try:
        coloring, metrics = run_arboricity_coloring(
            stream, args.alpha, args.epsilon, args.c, args.seed
        )
    except PeelStalled as exc:
        print(f"stall: {exc}", file=sys.stderr)
        if args.metrics and exc.metrics is not None:
            _write_json(args.metrics, asdict(exc.metrics))
        return 3
    write_coloring_file(args.output, coloring)
    if args.metrics:
        _write_json(args.metrics, asdict(metrics))
    print(
        f"colored n={metrics.n} m={metrics.m} with {metrics.colors_used} colors "
        f"(ell={metrics.ell}, k={metrics.k}, passes={metrics.passes})"
    )
    return 0


def cmd_verify(args) -> int:
    stream = open_stream(args.input)
    coloring = read_coloring_file(args.coloring, stream.n)
    violations = verify_proper(stream, coloring)
    if violations:
        for u, v in violations:
            print(f"conflict: {u} {v} color={coloring.assignment[u]}")
        print(f"improper: {len(violations)} conflicting edges")
        return 1
    print("proper")
    return 0


def cmd_oracle(args) -> int:
    stream = open_stream(args.input)
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
    doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    expand_spec(doc)  # reject a spec of the wrong shape before reading output_dir
    out_dir = args.output or doc.get("output_dir")
    if not out_dir:
        raise ValueError("sweep needs an output directory (-o or 'output_dir' in the spec)")
    csv_path = run_sweep(doc, out_dir)
    print(f"wrote {csv_path}")
    return 0


@functools.cache  # static, and rebuilding it costs about 1 ms per main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcolor",
        description="Semi-streaming vertex coloring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corpus graph to an edge-list file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="edge count (gnm)")
    p.add_argument("--alpha", type=int, default=None, help="forest count (forest-union)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", default="as-generated", choices=ORDERS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("maxdeg", help="measure max degree in one pass")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_maxdeg)

    p = sub.add_parser("color-delta", help="one-pass coloring within (1+eps)*Delta")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--delta", type=int, default=None,
                   help="max-degree upper bound (measured in an extra pass when omitted)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="coloring file")
    p.add_argument("--metrics", default=None, help="metrics JSON path")
    p.set_defaults(func=cmd_color_delta)

    p = sub.add_parser("peel", help="degree-peel into layers, one pass per round")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--alpha", type=int, required=True, help="arboricity upper bound")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("-o", "--output", required=True, help="layers file")
    p.set_defaults(func=cmd_peel)

    p = sub.add_parser("color-arb", help="k-pass coloring within (2+eps)*alpha")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--alpha", type=int, required=True, help="arboricity upper bound")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="coloring file")
    p.add_argument("--metrics", default=None, help="metrics JSON path")
    p.set_defaults(func=cmd_color_arb)

    p = sub.add_parser("verify", help="check a coloring file against an edge stream")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-c", "--coloring", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="offline ground-truth computations")
    p.add_argument("which", choices=("arboricity", "degeneracy", "greedy", "repeats"))
    p.add_argument("-i", "--input", required=True)
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a header declaring more vertices than fit in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
