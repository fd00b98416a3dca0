"""Seeded random instance generators for the benchmark protocols."""

from __future__ import annotations

import numbers

import numpy as np

from .model import check_count
from .seeding import make_rng

__all__ = ["gen_poisson", "gen_uniform"]


def gen_uniform(n: int, seed: int) -> np.ndarray:
    """n i.i.d. values uniform in [0, 1)."""
    n = check_count(n, "n")
    return make_rng(seed).random(n)


def gen_poisson(n: int, expected_gap: float, seed: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Sparse spike train with exponential inter-arrival gaps.

    Each gap is an Exponential draw with the given mean, rounded to the
    nearest integer with a floor of 1.  The spikes sit at the running sums
    of the gaps that stay at or below n; drawing stops after the first chunk
    of gaps that passes n.  Spike entries are uniform in [0, 1), everything
    else exactly 0.  Any gap past n ends the train, so gaps are clipped to
    n + 1, which keeps a huge or infinite ``expected_gap`` in int64 range.
    An ``expected_gap`` that is not a real scalar >= 1, ``None``, a string
    or an array included, raises ``ValueError``.
    """
    n = check_count(n, "n")
    # NaN fails the comparison too.
    if not (isinstance(expected_gap, numbers.Real) and expected_gap >= 1):
        raise ValueError(f"expected_gap must be >= 1, got {expected_gap!r}")
    rng = make_rng(seed)
    # Chunked draws: the chunk size depends only on (n, expected_gap), so
    # the stream of consumed variates is deterministic per seed.
    chunk = max(16, int(2 * n / expected_gap) + 8)
    ends: list[np.ndarray] = []
    pos = 0
    while pos <= n:
        gaps = np.rint(rng.exponential(expected_gap, size=chunk))
        gaps = np.clip(gaps, 1, n + 1).astype(np.int64)
        chunk_ends = pos + np.cumsum(gaps)
        ends.append(chunk_ends[chunk_ends <= n])
        pos = int(chunk_ends[-1])
    positions = np.concatenate(ends)
    x = np.zeros(n)
    x[positions - 1] = rng.random(positions.size)
    return x, tuple(positions.tolist())
