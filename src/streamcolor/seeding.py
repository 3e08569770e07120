"""Deterministic RNG derivation.

Every random choice in the package flows from a single user-provided integer
seed. Sub-generators are derived with numpy's SeedSequence spawn keys, one
fixed domain tag per purpose, so corpus sampling, arrival-order shuffling and
the random class assignment never share a stream.
"""

from __future__ import annotations

import numpy as np

# domain tags (frozen; changing them changes every seeded artifact)
GEN = 0
ORDER = 1
PHASE1 = 2


def check_seed(seed: int) -> None:
    """Reject a seed that no generator accepts, whether or not one is built."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def rng_for(seed: int, domain: int) -> np.random.Generator:
    """PCG64 generator for (seed, domain), independent across domains."""
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain,))
    return np.random.Generator(np.random.PCG64(ss))
