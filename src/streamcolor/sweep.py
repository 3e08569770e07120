"""Seed sweeps: run a grid of configurations, one metrics JSON per run plus
an aggregate CSV. Reruns skip cells whose metrics file already exists, so an
interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .arb_color import derive_config, run_arboricity_coloring
from .core import EdgeStream, StreamMeta
from .corpus import GenSpec, generate
from .delta_color import ColoringAborted, class_count, palette_size, run_delta_coloring
from .peel import PeelStalled
from .seeding import check_seed

CSV_COLUMNS = [
    "family", "n", "m", "alpha", "delta", "epsilon", "c", "seed", "algorithm",
    "passes", "colors_used", "bound", "within_bound", "peak_stored_edges", "aborted",
]

ALGORITHMS = ("delta", "arb")


@dataclass(frozen=True)
class SweepCell:
    """One run of the grid: a corpus instance plus algorithm parameters."""

    family: str
    n: int
    m: int | None
    alpha: int | None
    order: str
    gen_seed: int
    algorithm: str
    epsilon: float
    c: float
    seed: int

    def genspec(self) -> GenSpec:
        return GenSpec(
            family=self.family, n=self.n, m=self.m, alpha=self.alpha,
            seed=self.gen_seed, order=self.order,
        )

    def slug(self) -> str:
        return (
            f"{self.family}-n{self.n}-m{self.m or 0}-a{self.alpha or 0}"
            f"-{self.algorithm}-e{self.epsilon}-c{self.c}"
            f"-g{self.gen_seed}-s{self.seed}"
        )


INT, NUMBER = (int,), (int, float)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValueError(f"{where} needs a {key!r}")
    return mapping[key]


def _typed(value, key: str, kinds: tuple[type, ...]):
    """value, if its type is exactly one of kinds: neither True nor 2.5 is an int."""
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"a sweep run's {key!r} must be {names}, got {value!r}")
    return value


def _optional(run: dict, key: str, kinds: tuple[type, ...], default=None):
    """run[key], or default when it is absent or null; any other type is rejected."""
    value = run.get(key)
    return default if value is None else _typed(value, key, kinds)


def _grid(run: dict, key: str, kinds: tuple[type, ...], default) -> list:
    """run[key] as a grid axis: one value or a list of values, each of kinds."""
    values = _optional(run, key, (*kinds, list), default)
    return [_typed(value, key, kinds) for value in (values if type(values) is list else [values])]


def _finite(value, key: str) -> float:
    """value as a float, if it is a finite one."""
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"a sweep run's {key!r} must be a finite number, got {value!r}")


def expand_spec(doc: dict) -> list[SweepCell]:
    """Cross the grid: epsilon, c and seed entries may be scalars or lists.
    A negative seed or seed count, an overflow of the derived r, or of ell
    given alpha, and two different cells with one record file need no graph,
    so they are rejected here, before any cell runs."""
    if not isinstance(doc, dict):
        raise ValueError("a sweep spec must be a JSON object")
    runs = doc.get("runs", [])
    if not isinstance(runs, list) or not all(isinstance(run, dict) for run in runs):
        raise ValueError("a sweep spec's 'runs' must be a list of objects")
    cells: list[SweepCell] = []
    for run in runs:
        family = _typed(_require(run, "family", "each sweep run"), "family", (str,))
        n = _typed(_require(run, "n", "each sweep run"), "n", INT)
        if "algorithm" not in run:
            raise ValueError("each sweep run needs an 'algorithm' (delta or arb)")
        algorithm = run["algorithm"]
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        m = _optional(run, "m", INT)
        alpha = _optional(run, "alpha", INT)
        order = _optional(run, "order", (str,), "as-generated")
        gen_seed = _optional(run, "gen_seed", INT, 0)
        seeds = run.get("seeds")
        if isinstance(seeds, dict):
            start = _require(seeds, "start", "a 'seeds' range")
            count = _require(seeds, "count", "a 'seeds' range")
            if type(start) is not int or type(count) is not int:
                raise ValueError(f"a 'seeds' range needs integer 'start' and 'count': {seeds!r}")
            if count < 0:
                raise ValueError(f"a 'seeds' range's 'count' must be non-negative, got {count}")
            seeds = list(range(start, start + count))
        else:
            seeds = _grid(run, "seeds", INT, 0)
        for seed in (gen_seed, *seeds):
            check_seed(seed)
        for epsilon in _grid(run, "epsilon", NUMBER, 0.5):
            epsilon = _finite(epsilon, "epsilon")
            for c in _grid(run, "c", NUMBER, 1.0):
                c = _finite(c, "c")
                if algorithm == "delta":
                    palette_size(n, epsilon, c)
                elif alpha is not None:
                    derive_config(n, alpha, epsilon, c)
                for seed in seeds:
                    cells.append(SweepCell(
                        family=family, n=n, m=m, alpha=alpha, order=order, gen_seed=gen_seed,
                        algorithm=algorithm, epsilon=epsilon, c=c, seed=seed,
                    ))
    by_slug: dict[str, SweepCell] = {}
    for cell in cells:
        if by_slug.setdefault(cell.slug(), cell) != cell:
            raise ValueError(
                f"two different sweep cells would share the record {cell.slug()}.json"
                " (an absent 'alpha' or 'm' is written as 0)"
            )
    return cells


def _config(cell: SweepCell, meta) -> dict:
    """The cell's record config: its fields, the graph's m and max degree, and
    the cell's alpha, else the certified bound from that max degree. A cell
    whose ell overflows is rejected here."""
    delta = meta.max_degree
    alpha = math.ceil((delta + 1) / 2) if cell.alpha is None else cell.alpha
    if cell.algorithm == "delta":
        class_count(cell.n, delta, cell.epsilon, cell.c)
    else:
        derive_config(cell.n, alpha, cell.epsilon, cell.c)
    return {**asdict(cell), "m": meta.m, "delta": delta, "alpha": alpha}


def _run_cell(config: dict, stream: EdgeStream) -> dict:
    """Execute one cell on its graph's stream, which the graph's other cells
    share, and return the sweep record (config + metrics)."""
    if config["algorithm"] == "delta":
        run, bound = run_delta_coloring, config["delta"]
    else:
        run, bound = run_arboricity_coloring, config["alpha"]
    try:
        _, metrics = run(stream, bound, config["epsilon"], config["c"], config["seed"])
        failed = False
    except (ColoringAborted, PeelStalled) as exc:
        metrics, failed = exc.metrics, True
    return {"config": config, "metrics": asdict(metrics), "failed": failed}


def _record_to_row(record: dict) -> dict:
    """The CSV row: config and metrics columns read by name, then the bound check."""
    cfg, met, failed = record["config"], record["metrics"], record["failed"]
    if cfg["algorithm"] == "delta":
        alpha, bound = "", (1.0 + cfg["epsilon"]) * cfg["delta"]
    else:
        alpha, bound = cfg["alpha"], (2.0 + cfg["epsilon"]) * cfg["alpha"]
    row = {
        **met, **cfg, "alpha": alpha, "bound": bound,
        "within_bound": "" if failed else str(met["colors_used"] <= bound).lower(),
        "aborted": str(bool(failed)).lower(),
    }
    return {column: row[column] for column in CSV_COLUMNS}


def run_sweep(doc: dict, out_dir: str | Path) -> Path:
    """Run (or resume) every cell; returns the path of the summary CSV.

    A bad spec, a damaged record, a graph that cannot be generated, or a cell
    whose ell overflows for its graph's max degree or alpha is rejected
    before any cell runs or the output directory is made."""
    cells = expand_spec(doc)
    out = Path(out_dir)
    graph_cache: dict[GenSpec, tuple[EdgeStream, StreamMeta]] = {}
    configs: dict[SweepCell, dict] = {}  # each cell still to run, with its record config
    rows: dict[SweepCell, dict] = {}  # each cell's CSV row
    for cell in cells:
        path = out / f"{cell.slug()}.json"
        if path.exists():
            try:
                rows[cell] = _record_to_row(json.loads(path.read_text(encoding="utf-8")))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"damaged sweep record {path}: {type(exc).__name__}: {exc}")
            continue
        spec = cell.genspec()
        if spec not in graph_cache:  # each graph is held as its stream, at id width
            edges, meta = generate(spec)
            graph_cache[spec] = EdgeStream.from_edges(spec.n, edges), meta
            del edges  # not held while the next graph is generated
        configs[cell] = _config(cell, graph_cache[spec][1])
    out.mkdir(parents=True, exist_ok=True)
    for cell, config in configs.items():
        record = _run_cell(config, graph_cache[cell.genspec()][0])
        (out / f"{cell.slug()}.json").write_text(
            json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        rows[cell] = _record_to_row(record)
    csv_path = out / "summary.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows[cell] for cell in cells)
    return csv_path
