"""Semi-streaming vertex coloring toolkit.

One-pass randomized coloring within (1+eps)*Delta colors, multi-pass degree
peeling with an implicit acyclic orientation, and (2+eps)*alpha coloring for
graphs of bounded arboricity, plus stream primitives with strict pass and
space accounting, seeded corpus generators, and offline oracles.

Each public name is imported from its module on first use (PEP 562), so a
process loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "ArbRunConfig": "arb_color",
    "ArbRunMetrics": "arb_color",
    "Coloring": "oracle",
    "ColoringAborted": "delta_color",
    "DEFAULT_C": "core",
    "DegeneracyResult": "oracle",
    "DeltaRunMetrics": "delta_color",
    "EdgeStream": "core",
    "FAMILIES": "core",
    "GenSpec": "corpus",
    "LayerPartition": "peel",
    "ORDERS": "core",
    "PeelStalled": "peel",
    "PeelState": "peel",
    "PhasePartition": "delta_color",
    "RepeatCounts": "oracle",
    "StreamFormatError": "core",
    "StreamMeta": "core",
    "class_count": "delta_color",
    "degeneracy": "oracle",
    "derive_config": "arb_color",
    "generate": "corpus",
    "greedy_color": "oracle",
    "max_rounds_bound": "peel",
    "measure_forward_degree": "peel",
    "measure_max_degree": "core",
    "nash_williams_arboricity": "oracle",
    "offline_dag_color": "arb_color",
    "open_stream": "core",
    "palette_size": "delta_color",
    "peel_threshold": "peel",
    "repeat_counts": "oracle",
    "run_arboricity_coloring": "arb_color",
    "run_delta_coloring": "delta_color",
    "run_sweep": "sweep",
    "shuffle_order": "corpus",
    "verify_proper": "oracle",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
