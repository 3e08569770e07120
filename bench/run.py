#!/usr/bin/env python3
"""Benchmark of the streamcolor command line, one workload per invocation.

    python3 bench/run.py --workload gnm-delta [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: the package is imported from
./src, nothing needs installing. Every command runs in a fresh child process,
one at a time. With --trace 0 color-and-verify repetitions run while they
fit in --seconds (at least MIN_REPS of them), and the set-up (``gen``) runs
at the start, after every SETUP_EVERY repetitions and at the end. Each timed
command follows a run of a fixed reference child process, and its wall time
is reported at the reference speed (see REFERENCE); the end-to-end times are
medians of these scaled samples, and the raw wall times are kept with them
in the results file. With --trace 1 one untraced repetition is followed by
the same commands run in-process with spans around each module's public
functions, plus one probe call for each layer the commands do not reach; the
per-layer metrics come from the spans and are not scaled.

Every repetition is checked: verify prints ``proper``, colors stay within
(1+eps)*Delta or (2+eps)*alpha, pass counts are exact, and coloring and
metrics hashes agree across repetitions. A failed check counts as a failed
command. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; hashes, samples, environment
and spans are written under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # the whole run must end within 180 s
MIN_REPS = 3
SETUP_EVERY = 5  # repetitions between two set-ups
# On a shared 2-vCPU host the speed of a fresh process (exec, imports, page
# faults) swings by up to 2x in phases of tens of seconds or more, far more
# than a loop inside a long-lived process shows. Each timed command therefore
# follows a run of REFERENCE, a fixed child process with the same kind of
# costs and no streamcolor code, and its time is reported at the speed at
# which REFERENCE takes REF_S.
REFERENCE = """\
import numpy as np
a = np.ones(8_000_000)
d = {}
for i in range(100_000):
    d[i] = [i]
"""
REF_S = 0.3  # about REFERENCE's wall time on an idle 2-vCPU Xeon host
STARTUP_REPS = 3
MAX_UNACCOUNTED = 0.05  # share of a traced command its child spans may leave uncovered
# the load is one process at a time on a 2-core machine: no numeric thread pools
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    seed: int  # default generator seed
    gen: dict  # GenSpec fields other than seed
    algorithm: str  # "delta" or "arb"
    epsilon: float
    c: float | None = None  # None: the CLI default, DEFAULT_C
    alpha: int | None = None
    probes: tuple[str, ...] = ()  # layers the commands do not reach
    verify_runs: int = 1  # verify runs per repetition of the untraced run


WORKLOADS = {
    # Delta = 196 at seed 101: ell = 4, r = 79, about a quarter of the edges
    # stored; max class degree 66 < r - 1, so no slot runs out
    "gnm-delta": Workload(
        seed=101, gen={"family": "gnm", "n": 8192, "m": 600_000},
        algorithm="delta", epsilon=1.0, c=2.0,
        probes=("max_degree", "peel", "arb", "sweep"),
    ),
    # m = 260432 at seed 202; ell = 1 and k = 2: every edge stored, two passes
    "forest-arb": Workload(
        seed=202, gen={"family": "forest-union", "n": 8192, "alpha": 32, "order": "random"},
        algorithm="arb", epsilon=0.5, alpha=32,
        probes=("max_degree", "peel", "delta", "sweep"), verify_runs=2,
    ),
}


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


@dataclass
class Result:
    """Outcome of one command, run in a child or in-process."""

    rc: int
    wall_s: float
    rss_mb: float
    out: str
    ref: int | None = None  # index of the reference run just before it


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Rep:
    color: Result
    verifies: list[Result]
    counts: dict | None  # passes, peak_stored_edges, colors_used, edges; None on failure


@dataclass
class Bench:
    w: Workload
    seed: int
    work: Path
    deadline: float
    default_c: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    delta: int = 0
    m: int = 0
    color_metrics: dict = field(default_factory=dict)  # of the last coloring command
    scale: bool = False  # run REFERENCE before each command
    refs_s: list[float] = field(default_factory=list)

    # -- running commands --------------------------------------------------

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, argv: list[str], tag: str) -> Result:
        """Run argv in a child process; wall time and peak RSS via wait4."""
        self.attempted += 1
        ref = self.reference() if self.scale else None
        rc, wall, usage, out = self.spawn(argv, tag)
        return Result(rc, wall, usage.ru_maxrss / 1024.0, out, ref)

    def reference(self) -> int:
        """Time one run of REFERENCE in a child; returns its index in refs_s."""
        rc, wall, _, _ = self.spawn([sys.executable, "-c", REFERENCE], f"ref{len(self.refs_s)}")
        if rc != 0:  # nothing can be timed without it
            raise RuntimeError(f"the reference run exited with {rc}")
        self.refs_s.append(wall)
        return len(self.refs_s) - 1

    def scaled(self, res: Result) -> float:
        """Wall time of res at the reference speed: scaled by REF_S over the
        mean of the reference runs just before and just after it."""
        around = self.refs_s[res.ref:res.ref + 2]
        return res.wall_s * REF_S / statistics.fmean(around)

    def spawn(self, argv: list[str], tag: str):
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        out_path = logs / f"{tag}.out"
        env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
        with open(out_path, "w") as out, open(logs / f"{tag}.err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, max(self.remaining(), 1.0))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                rc = os.waitstatus_to_exitcode(status)
            except Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                rc = -1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            proc.returncode = rc
        return rc, wall, usage, out_path.read_text()

    def cli(self, argv: list[str], tag: str) -> Result:
        return self.child([sys.executable, "-m", "streamcolor.cli", *argv], tag)

    def expect(self, tag: str, problems: list[str]) -> bool:
        if problems:
            self.failures.append(f"{tag}: {'; '.join(problems)}")
        return not problems

    def same(self, key: str, digest: str) -> list[str]:
        """Problem when digest differs from the first one seen under key."""
        first = self.hashes.setdefault(key, digest)
        return [] if first == digest else [f"{key} hash {digest[:12]} != {first[:12]}"]

    # -- workload pieces ---------------------------------------------------

    @property
    def graph(self) -> Path:
        return self.work / "graph.txt"

    @property
    def c(self) -> float:
        return self.default_c if self.w.c is None else self.w.c

    def gen_argv(self) -> list[str]:
        argv = ["gen", "--seed", str(self.seed), "-o", str(self.graph)]
        for key, value in self.w.gen.items():
            argv += [f"--{key}", str(value)]
        return argv

    def color_argv(self, coloring: Path, metrics: Path, algorithm: str) -> list[str]:
        argv = [f"color-{algorithm}", "-i", str(self.graph), "--epsilon", repr(self.w.epsilon),
                "--seed", "0", "-o", str(coloring), "--metrics", str(metrics)]
        if algorithm == "delta":
            argv += ["--delta", str(self.delta)]
        else:
            argv += ["--alpha", str(self.w.alpha)]
        if self.w.c is not None:
            argv += ["--c", repr(self.w.c)]
        return argv

    def bound(self, algorithm: str, alpha: int | None = None) -> float:
        if algorithm == "delta":
            return (1.0 + self.w.epsilon) * self.delta
        return (2.0 + self.w.epsilon) * (alpha or self.w.alpha)

    def check_run_metrics(self, met: dict, algorithm: str) -> list[str]:
        problems = []
        if algorithm == "delta":
            if met["aborted"]:
                problems.append("aborted")
            if met["passes"] != 1:
                problems.append(f"passes {met['passes']} != 1")
        else:
            if met["stalled"]:
                problems.append("stalled")
            if met["passes"] != met["k"]:
                problems.append(f"passes {met['passes']} != k {met['k']}")
        if met["colors_used"] > self.bound(algorithm):
            problems.append(f"{met['colors_used']} colors over bound {self.bound(algorithm)}")
        return problems

    def setup(self, tag: str) -> Result:
        """One set-up: generate the graph file."""
        res = self.cli(self.gen_argv(), f"{tag}-gen")
        problems = [] if res.rc == 0 else [f"exit {res.rc}"]
        found = re.search(r"\bm=(\d+) max_degree=(\d+)", res.out)
        if found:
            self.m, self.delta = int(found.group(1)), int(found.group(2))
            problems += self.same("graph.txt", sha256(self.graph))
        else:
            problems.append("no 'm=... max_degree=...' in gen output")
        self.expect(f"{tag}-gen", problems)
        return res

    def check_verify(self, res: Result) -> list[str]:
        if res.rc == 0 and res.out.strip() == "proper":
            return []
        return [f"verify exit {res.rc}, output {res.out.strip()[:80]!r}"]

    def rep(self, tag: str, run, verify_runs: int = 1) -> Rep:
        """One measured repetition: the coloring command, then verify
        ``verify_runs`` times.

        ``run(argv, tag)`` executes one CLI command and returns a Result.
        """
        counts = None
        coloring = self.work / f"coloring-{tag}.txt"
        metrics = self.work / f"metrics-{tag}.json"
        color = run(self.color_argv(coloring, metrics, self.w.algorithm), f"{tag}-color")
        problems = [] if color.rc == 0 else [f"exit {color.rc}"]
        if color.rc == 0 and metrics.exists():
            met = self.color_metrics = json.loads(metrics.read_text())
            problems += self.check_run_metrics(met, self.w.algorithm)
            problems += self.same("coloring.txt", sha256(coloring))
            problems += self.same("metrics.json", sha256(metrics))
        if self.expect(f"{tag}-color", problems):
            counts = {
                "passes": met["passes"],
                "peak_stored_edges": met["peak_stored_edges"],
                "colors_used": met["colors_used"],
                "edges": met["m"] * met["passes"],
            }
        verifies = []
        for i in range(verify_runs):
            verifies.append(run(["verify", "-i", str(self.graph), "-c", str(coloring)],
                                f"{tag}-verify{i}"))
            self.expect(f"{tag}-verify{i}", self.check_verify(verifies[-1]))
        return Rep(color, verifies, counts)

    # -- untraced run ------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Run repetitions while they fit in ``seconds``, with a set-up at
        the start, after every SETUP_EVERY repetitions and at the end.

        Every command follows a run of REFERENCE, and its time is reported
        at the reference speed (see ``scaled``). Spreading the set-ups over
        the run samples the host's speed as the repetitions do, and each one
        checks that the generator output did not change. Repetitions reuse
        the graph file of the last set-up.
        """
        self.scale = True
        start = time.perf_counter()
        setups = [self.setup("setup0")]
        reps: list[Rep] = []
        while True:
            t0 = time.perf_counter()
            reps.append(self.rep(f"rep{len(reps)}", self.cli, self.w.verify_runs))
            took = time.perf_counter() - t0
            if len(reps) % SETUP_EVERY == 0:
                setups.append(self.setup(f"setup{len(setups)}"))
            setup_s = max(s.wall_s for s in setups)
            elapsed = time.perf_counter() - start
            if len(reps) >= MIN_REPS and elapsed + took + setup_s > seconds:
                break
            if self.remaining() < 1.5 * took + 2 * setup_s:
                break
        setups.append(self.setup(f"setup{len(setups)}"))
        self.reference()  # the one after the last command
        colors = [r.color for r in reps]
        verifies = [v for r in reps for v in r.verifies]
        good = [r for r in reps if r.counts]
        counts = good[0].counts if good else {}
        metrics = {
            "setup_s": median([self.scaled(s) for s in setups]),
            "color_s": median([self.scaled(c) for c in colors]),
            "verify_s": median([self.scaled(v) for v in verifies]),
            "color_edges_per_s": median([r.counts["edges"] / self.scaled(r.color) for r in good]),
            "color_rss_mb": median([c.rss_mb for c in colors]),
            "verify_rss_mb": median([v.rss_mb for v in verifies]),
            "passes": counts.get("passes", 0),
            "peak_stored_edges": counts.get("peak_stored_edges", 0),
            "colors_used": counts.get("colors_used", 0),
            "success_rate": 1.0 - len(self.failures) / self.attempted,
        }
        samples = {
            "reference_wall_s": self.refs_s,
            **{f"{name}_wall_s": [r.wall_s for r in runs]
               for name, runs in (("setup", setups), ("color", colors), ("verify", verifies))},
            "color_rss_mb": [c.rss_mb for c in colors],
            "verify_rss_mb": [v.rss_mb for v in verifies],
        }
        return metrics, samples

    # -- traced run --------------------------------------------------------

    def traced(self, tracer) -> tuple[dict, dict]:
        from tracing import duration, layer_metrics

        from streamcolor import arb_color, cli, core, corpus, delta_color, oracle, sweep

        peel = importlib.import_module("streamcolor.peel")  # the package re-exports peel()

        self.setup("setup0")
        startup = [
            self.child([sys.executable, "-c", "import streamcolor.cli"], f"startup{i}")
            for i in range(STARTUP_REPS)
        ]
        self.expect("startup", [f"exit {r.rc}" for r in startup if r.rc != 0])
        startup_s = median([r.wall_s for r in startup])
        plain = self.rep("untraced", self.cli)

        tracer.instrument_passes(core.EdgeStream)
        tracer.instrument(core.open_stream, "core.open_stream", lambda a, r: {
            "bytes": os.path.getsize(a[0]) if isinstance(a[0], (str, Path)) else 0})
        tracer.instrument(core.measure_max_degree, "core.max_degree")
        tracer.instrument(delta_color.run_delta_coloring, "delta_color.run", lambda a, r: {
            key: getattr(r[1], key)
            for key in ("m", "peak_stored_edges", "max_edge_cost", "r", "max_class_degree")})
        tracer.instrument(peel.peel, "peel.run", lambda a, r: {"k": r.k})
        tracer.instrument(peel.measure_forward_degree, "peel.forward_degree")
        tracer.instrument(arb_color.run_arboricity_coloring, "arb_color.run", lambda a, r: {
            "m": r[1].m, "peak_stored_edges": r[1].peak_stored_edges})
        tracer.instrument(oracle.verify_proper, "oracle.verify", lambda a, r: {
            "edges": a[0].m if isinstance(a[0], core.EdgeStream) else 0})
        tracer.instrument(corpus.generate, "corpus.generate")
        tracer.instrument(cli.write_coloring_file, "cli.write_coloring")
        tracer.instrument(cli.read_coloring_file, "cli.read_coloring")
        tracer.instrument(sweep.run_sweep, "sweep.run", lambda a, r: {
            "cells": len(sweep.expand_spec(a[0]))})
        commands = []

        def in_process(argv: list[str], tag: str) -> Result:
            self.attempted += 1
            buf = io.StringIO()
            with tracer.span("cli.command", argv=argv[0]) as rec:
                try:
                    with redirect_stdout(buf):
                        rc = cli.main(argv)
                except Exception:  # a crash is a failed command, not a dead bench
                    traceback.print_exc()
                    rc = -1
            commands.append(rec)
            return Result(rc, duration(rec), 0.0, buf.getvalue())

        try:
            traced = self.rep("traced", in_process)
            tracer.phase = "probe"
            self.probes()
        finally:
            tracer.restore()

        for rec in commands:
            covered = sum(duration(s) for s in tracer.children(rec))
            rec["attrs"]["unaccounted_frac"] = 1.0 - covered / duration(rec)
            self.expect(f"trace-{rec['attrs']['argv']}", [] if (
                rec["attrs"]["unaccounted_frac"] <= MAX_UNACCOUNTED
            ) else [f"spans cover {covered / duration(rec):.1%} of the command"])
        untraced_s = plain.color.wall_s + plain.verifies[0].wall_s
        traced_s = traced.color.wall_s + traced.verifies[0].wall_s + 2 * startup_s
        metrics = layer_metrics(tracer, startup_s)
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        samples = {"startup_s": [r.wall_s for r in startup],
                   "untraced_s": [plain.color.wall_s, plain.verifies[0].wall_s],
                   "traced_s": [traced.color.wall_s, traced.verifies[0].wall_s]}
        return metrics, samples

    def probes(self) -> None:
        """One call into each layer the workload's commands do not reach."""
        from streamcolor import arb_color, core, delta_color, sweep

        peel = importlib.import_module("streamcolor.peel")

        n = self.w.gen["n"]
        alpha = self.w.alpha or math.ceil((self.delta + 1) / 2)  # certified from Delta
        stream = core.open_stream(str(self.graph))
        for probe in self.w.probes:
            self.attempted += 1
            problems = []
            try:
                if probe == "max_degree":
                    if core.measure_max_degree(stream) != self.delta:
                        problems.append("max degree differs from gen")
                elif probe == "peel":
                    gamma = self.w.epsilon / 3.0  # the gamma color-arb derives
                    lp = peel.peel(stream, alpha, gamma)
                    if peel.measure_forward_degree(stream, lp) > lp.threshold:
                        problems.append("forward degree over the peel threshold")
                    if lp.k > peel.max_rounds_bound(n, gamma) or lp.passes != lp.k:
                        problems.append(f"peel took {lp.k} rounds in {lp.passes} passes")
                elif probe == "arb":
                    _, met = arb_color.run_arboricity_coloring(
                        stream, alpha, self.w.epsilon, self.c, 0)
                    if met.passes != met.k or met.colors_used > self.bound("arb", alpha):
                        problems.append(f"arb probe: {met}")
                elif probe == "delta":
                    _, met = delta_color.run_delta_coloring(
                        stream, self.delta, self.w.epsilon, self.c, 0)
                    if met.passes != 1 or met.colors_used > self.bound("delta"):
                        problems.append(f"delta probe: {met}")
                elif probe == "sweep":
                    problems += self.sweep_probe(sweep)
            except Exception as exc:  # a crashing probe is a failed operation
                traceback.print_exc()
                problems.append(f"raised {type(exc).__name__}")
            self.expect(f"probe-{probe}", problems)

    def sweep_probe(self, sweep) -> list[str]:
        """A one-cell sweep of the workload's own instance and settings: the
        in-memory path must reproduce the coloring command's metrics."""
        doc = {"runs": [dict(
            self.w.gen, gen_seed=self.seed, algorithm=self.w.algorithm,
            epsilon=self.w.epsilon, c=self.c, seeds=[0],  # the sweep's own c default is 1.0
        )]}
        summary = sweep.run_sweep(doc, self.work / "sweep")
        with open(summary, newline="") as fh:
            (row,) = csv.DictReader(fh)
        problems = []
        if row["within_bound"] != "true" or row["aborted"] != "false":
            problems.append("sweep cell failed or over bound")
        if (int(row["m"]), int(row["delta"])) != (self.m, self.delta):
            problems.append("sweep generated another graph than gen")
        if any(int(row[key]) != self.color_metrics.get(key)
               for key in ("passes", "colors_used", "peak_stored_edges")):
            problems.append("sweep cell differs from the coloring command")
        return problems


def environment(bench: Bench) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "input_bytes": {"graph.txt": bench.graph.stat().st_size if bench.graph.exists() else 0},
    }


def load_spec() -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())["layers"]
    named = {m["name"] for m in spec["per_layer"]}
    mapped = {name for layer in layers.values() for name in layer["metrics"]}
    if named != mapped:
        raise SystemExit(f"layers.json and BENCHMARK.json disagree on {sorted(named ^ mapped)}")
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "streamcolor" / "cli.py").is_file():
        print(f"error: no streamcolor sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    os.environ.update(SINGLE_THREAD)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import streamcolor
    from streamcolor.delta_color import DEFAULT_C

    if Path(streamcolor.__file__).resolve().parent != (SRC / "streamcolor").resolve():
        print(f"error: imported streamcolor from {streamcolor.__file__}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    seed = w.seed if args.seed is None else args.seed
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(w, seed, work, deadline, DEFAULT_C)

    spans = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        metrics, samples = bench.traced(tracer)
        spans = tracer.spans
        section = "per_layer"
    else:
        metrics, samples = bench.end_to_end(args.seconds)
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "environment": environment(bench), "hashes": bench.hashes,
        "failures": bench.failures, "samples": samples, "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans, indent=1) + "\n")

    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name in sorted(units):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    walls = {k: median(v) for k, v in samples.items() if k.endswith("_wall_s")}
    if walls:
        print(f"unscaled wall medians {json.dumps(walls, sort_keys=True)}")
    print(f"hashes {json.dumps(bench.hashes, sort_keys=True)}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
