"""Shared fixtures: small named corpus graphs used across test modules."""

from __future__ import annotations

import pytest

from streamcolor.core import EdgeStream
from streamcolor.corpus import GenSpec, generate

# every graph here has n <= 20 so the brute-force arboricity oracle applies,
# and at least one edge so the degeneracy sandwich is non-vacuous
SMALL_SPECS = {
    "k4": GenSpec(family="complete", n=4),
    "k5": GenSpec(family="complete", n=5),
    "star10": GenSpec(family="star", n=10),
    "path8": GenSpec(family="path", n=8),
    "c5": GenSpec(family="cycle", n=5),
    "petersen": GenSpec(family="petersen", n=10),
    "fu16a2": GenSpec(family="forest-union", n=16, alpha=2, seed=7),
    "gnm12": GenSpec(family="gnm", n=12, m=30, seed=9),
}


@pytest.fixture(scope="session")
def small_graphs() -> dict[str, EdgeStream]:
    return {label: stream_from_spec(spec) for label, spec in SMALL_SPECS.items()}


def stream_from_spec(spec: GenSpec) -> EdgeStream:
    edges, _ = generate(spec)
    return EdgeStream.from_edges(spec.n, edges)
