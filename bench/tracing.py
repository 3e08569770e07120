"""In-process span recorder for the traced benchmark run.

Spans are recorded from the benchmark side only: each public function of
interest is replaced, wherever a ``streamcolor`` module binds it, by a
wrapper that opens a span around the call. Stream passes are traced by
wrapping every ``pass_*`` method the stream class has, so the trace keeps
working when the pass protocol changes. Spans stay in memory until the run
ends and are then written out as JSON.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans: name, start, end, parent span, phase and attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "command"
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "phase": self.phase,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter() - self._t0
        # a pass generator may be closed after an exception unwound its caller
        if rec["id"] in self._stack:
            self._stack.remove(rec["id"])

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._open(name)
        rec["attrs"].update(attrs)
        try:
            yield rec
        finally:
            self._close(rec)

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def instrument(self, func, name: str, describe=None) -> None:
        """Trace every call of ``func`` through any streamcolor module.

        ``describe(args, result)`` returns attributes recorded on the span.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                rec["attrs"]["raised"] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if describe is not None:
                rec["attrs"].update(describe(args, result))
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("streamcolor"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._patch(mod, attr, traced)

    def instrument_passes(self, stream_cls) -> None:
        """Span each traversal made through any ``pass_*`` method."""
        for attr in [a for a in dir(stream_cls) if a.startswith("pass_")]:
            orig = getattr(stream_cls, attr)
            if callable(orig):
                self._patch(stream_cls, attr, self._traced_pass(orig, attr))

    def _traced_pass(self, orig, method: str):
        tracer = self

        @functools.wraps(orig)
        def traced(stream, *args, **kwargs):
            rec = tracer._open("core.pass")
            rec["attrs"]["method"] = method
            done = False
            try:
                yield from orig(stream, *args, **kwargs)
                done = True
            finally:
                # a finished pass delivered every edge; a cut one is marked
                rec["attrs"]["edges"] = stream.m if done else None
                tracer._close(rec)

        return traced

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def children(self, rec: dict, name: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["parent"] == rec["id"] and (name is None or s["name"] == name)
        ]

    def named(self, name: str, phase: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (phase is None or s["phase"] == phase)
        ]


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def total(spans: list[dict]) -> float:
    return sum(duration(s) for s in spans)


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer, startup_s: float) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run.

    Stream metrics (open, pass) count only the workload's own commands.
    The other layers count every span of their name; each of them is
    reached either by the commands or by one probe call, never both.
    """
    out: dict[str, float] = {}

    opens = tr.named("core.open_stream", "command")
    open_s = total(opens)
    out["core.open_stream_s"] = open_s
    out["core.open_stream_mb_per_s"] = rate(
        sum(s["attrs"].get("bytes", 0) for s in opens) / 1e6, open_s
    )
    passes = tr.named("core.pass", "command")
    pass_s = total(passes)
    edges = sum(s["attrs"]["edges"] or 0 for s in passes)
    out["core.pass_s"] = pass_s
    out["core.edges_delivered"] = edges
    out["core.pass_edges_per_s"] = rate(edges, pass_s)
    out["core.max_degree_s"] = total(tr.named("core.max_degree"))

    runs = tr.named("delta_color.run")
    run_s = total(runs)
    delta_pass_s = sum(total(tr.children(s, "core.pass")) for s in runs)
    out["delta_color.run_s"] = run_s
    out["delta_color.pass_s"] = delta_pass_s
    out["delta_color.finalize_s"] = run_s - delta_pass_s
    out["delta_color.stored_frac"] = rate(
        sum(s["attrs"].get("peak_stored_edges", 0) for s in runs),
        sum(s["attrs"].get("m", 0) for s in runs),
    )
    done = [s["attrs"] for s in runs if "r" in s["attrs"]]  # runs that returned
    out["delta_color.max_edge_cost"] = max((a["max_edge_cost"] for a in done), default=0)
    out["delta_color.class_degree_margin"] = min(
        (a["r"] - 1 - a["max_class_degree"] for a in done), default=0
    )

    peels = tr.named("peel.run")
    peel_s = total(peels)
    rounds = sum(s["attrs"].get("k", 0) for s in peels)
    out["peel.run_s"] = peel_s
    out["peel.rounds"] = rounds
    out["peel.round_s"] = rate(peel_s, rounds)
    out["peel.forward_degree_s"] = total(tr.named("peel.forward_degree"))

    arbs = tr.named("arb_color.run")
    arb_s = total(arbs)
    arb_passes = [tr.children(s, "core.pass") for s in arbs]
    out["arb_color.run_s"] = arb_s
    out["arb_color.pass1_s"] = sum(duration(p[0]) for p in arb_passes if p)
    out["arb_color.offline_s"] = arb_s - sum(total(p) for p in arb_passes)
    out["arb_color.stored_frac"] = rate(
        sum(s["attrs"].get("peak_stored_edges", 0) for s in arbs),
        sum(s["attrs"].get("m", 0) for s in arbs),
    )

    verifies = tr.named("oracle.verify")
    verify_s = total(verifies)
    out["oracle.verify_s"] = verify_s
    out["oracle.verify_edges_per_s"] = rate(
        sum(s["attrs"].get("edges", 0) for s in verifies), verify_s
    )

    out["corpus.generate_s"] = total(tr.named("corpus.generate"))

    out["cli.startup_s"] = startup_s
    out["cli.write_coloring_s"] = total(tr.named("cli.write_coloring"))
    out["cli.read_coloring_s"] = total(tr.named("cli.read_coloring"))

    sweeps = tr.named("sweep.run")
    cells = sum(s["attrs"].get("cells", 0) for s in sweeps)
    out["sweep.cells"] = cells
    out["sweep.cells_per_s"] = rate(cells, total(sweeps))
    return out
