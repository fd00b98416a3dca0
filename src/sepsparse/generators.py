"""Seeded random instance generators for the benchmark protocols."""

from __future__ import annotations

import numpy as np

from .seeding import make_rng

__all__ = ["gen_poisson", "gen_uniform"]


def gen_uniform(n: int, seed: int) -> np.ndarray:
    """n i.i.d. values uniform in [0, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return make_rng(seed).random(n)


def gen_poisson(n: int, expected_gap: float, seed: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Sparse spike train with exponential inter-arrival gaps.

    Each gap is an Exponential draw with the given mean, rounded to the
    nearest integer with a floor of 1; positions accumulate until they pass
    n.  Spike entries are uniform in [0, 1), everything else exactly 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if expected_gap < 1:
        raise ValueError("expected_gap must be >= 1")
    rng = make_rng(seed)
    # Chunked draws: the chunk size depends only on (n, expected_gap), so
    # the stream of consumed variates is deterministic per seed.
    chunk = max(16, int(2 * n / expected_gap) + 8)
    positions: list[int] = []
    pos = 0
    while pos <= n:
        gaps = np.maximum(1, np.rint(rng.exponential(expected_gap, size=chunk))).astype(np.int64)
        for g in gaps:
            pos += int(g)
            if pos > n:
                break
            positions.append(pos)
        else:
            continue
        break
    values = rng.random(len(positions))
    x = np.zeros(n)
    if positions:
        x[np.asarray(positions) - 1] = values
    return x, tuple(positions)
