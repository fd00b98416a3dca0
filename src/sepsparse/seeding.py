"""Seed derivation helpers.

All randomness in the package flows through one splittable, counter-based
generator family (Philox), so a tuple (seed, stream ids...) fully determines
every generated instance, matrix, or noise draw.
"""

from __future__ import annotations

import numpy as np

from .model import check_count

__all__ = ["derive_seed", "make_rng", "seed_sequence"]


def seed_sequence(*entropy: int) -> np.random.SeedSequence:
    """The seed sequence of an entropy tuple, each entry a seed >= 0."""
    return np.random.SeedSequence(tuple(check_count(e, "seed", 0) for e in entropy))


def make_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator for the given entropy tuple."""
    return np.random.Generator(np.random.Philox(seed_sequence(*entropy)))


def derive_seed(*entropy: int) -> int:
    """Collapse an entropy tuple to a single integer seed."""
    return int(seed_sequence(*entropy).generate_state(1, np.uint64)[0])
