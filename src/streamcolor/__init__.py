"""Semi-streaming vertex coloring toolkit.

One-pass randomized coloring within (1+eps)*Delta colors, multi-pass degree
peeling with an implicit acyclic orientation, and (2+eps)*alpha coloring for
graphs of bounded arboricity, plus stream primitives with strict pass and
space accounting, seeded corpus generators, and offline oracles.
"""

from .arb_color import (
    ArbRunConfig,
    ArbRunMetrics,
    derive_config,
    offline_dag_color,
    run_arboricity_coloring,
)
from .core import (
    EdgeStream,
    StreamFormatError,
    StreamMeta,
    measure_max_degree,
    open_stream,
)
from .corpus import FAMILIES, ORDERS, GenSpec, generate, shuffle_order
from .delta_color import (
    DEFAULT_C,
    ClassPalettes,
    ColoringAborted,
    DeltaRunMetrics,
    OnlineColorState,
    PhasePartition,
    build_phase1,
    class_count,
    palette_size,
    run_delta_coloring,
)
from .oracle import (
    Coloring,
    DegeneracyResult,
    degeneracy,
    greedy_color,
    nash_williams_arboricity,
    verify_proper,
)
from .peel import (
    LayerPartition,
    PeelStalled,
    PeelState,
    max_rounds_bound,
    measure_forward_degree,
    peel,
    peel_threshold,
)
from .sweep import run_sweep

__version__ = "0.1.0"

__all__ = [
    "ArbRunConfig",
    "ArbRunMetrics",
    "ClassPalettes",
    "Coloring",
    "ColoringAborted",
    "DEFAULT_C",
    "DegeneracyResult",
    "DeltaRunMetrics",
    "EdgeStream",
    "FAMILIES",
    "GenSpec",
    "LayerPartition",
    "ORDERS",
    "OnlineColorState",
    "PeelStalled",
    "PeelState",
    "PhasePartition",
    "StreamFormatError",
    "StreamMeta",
    "build_phase1",
    "class_count",
    "degeneracy",
    "derive_config",
    "generate",
    "greedy_color",
    "max_rounds_bound",
    "measure_forward_degree",
    "measure_max_degree",
    "nash_williams_arboricity",
    "offline_dag_color",
    "open_stream",
    "palette_size",
    "peel",
    "peel_threshold",
    "run_arboricity_coloring",
    "run_delta_coloring",
    "run_sweep",
    "shuffle_order",
    "verify_proper",
]
