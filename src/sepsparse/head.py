"""Head approximation: periodic keep-sets, blocks, and the slice solver.

The projector removes a periodic run of ``delta`` positions from the ground
set (one of ``lam + 1`` phase-shifted choices), which caps every remaining
block at ``lam * delta`` positions.  Each slice then decomposes into blocks
that an exact solver handles independently, and a global top-k selection of
marginal gains stitches the per-block budgets together.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dp
from .model import as_weights, objective

__all__ = [
    "BlockDecomposition",
    "best_over_windows",
    "block_decompose",
    "drop_phase",
    "head_project",
    "slice_solve",
]


def drop_phase(idx, delta: int, lam: int) -> np.ndarray:
    """For each 1-based index, the keep-set ``nu`` in ``[0, lam]`` that drops it.

    Keep-set ``nu`` leaves out every index whose position modulo the period
    ``(lam + 1) * delta`` falls in ``[nu * delta, (nu + 1) * delta)``, so each
    index is dropped by exactly one of the ``lam + 1`` sets and kept by the
    other ``lam``.
    """
    return ((np.asarray(idx) - 1) % ((lam + 1) * delta)) // delta


@dataclass
class BlockDecomposition:
    """Blocks of a selectable set: spanning intervals, budgets and members.

    ``blocks[t]`` is the 1-based inclusive interval spanned by the t-th
    chain of selectable nonzero-weight indices in which consecutive members
    are less than ``delta`` apart; ``budgets[t]`` is ``p * ceil(len/delta)``
    and ``members[t]`` the chain itself.
    """

    blocks: list[tuple[int, int]]
    budgets: list[int]
    members: list[np.ndarray]


def block_decompose(
    keep: Callable[[np.ndarray], np.ndarray] | None, x, delta: int, p: int = 1
) -> BlockDecomposition:
    """Split the nonzero indices of ``x`` that ``keep`` selects into blocks.

    ``keep`` is a vectorized predicate over 1-based indices, or ``None`` for
    the whole ground set.  Selectable indices with zero weight form no
    block; distinct blocks are at least ``delta`` apart, so they can be
    solved independently.
    """
    x = as_weights(x)
    if delta < 1 or p < 1:
        raise ValueError("delta and p must be >= 1")
    chain_pool = np.flatnonzero(x) + 1
    if keep is not None:
        chain_pool = chain_pool[np.asarray(keep(chain_pool), dtype=bool)]
    if chain_pool.size == 0:
        return BlockDecomposition([], [], [])
    cuts = np.flatnonzero(np.diff(chain_pool) >= delta)
    chains = np.split(chain_pool, cuts + 1)
    blocks: list[tuple[int, int]] = []
    budgets: list[int] = []
    for chain in chains:
        lo, hi = int(chain[0]), int(chain[-1])
        blocks.append((lo, hi))
        budgets.append(p * math.ceil((hi - lo + 1) / delta))
    return BlockDecomposition(blocks, budgets, chains)


def slice_solve(
    keep: Callable[[np.ndarray], np.ndarray] | None, x, k: int, delta: int, p: int = 1
) -> tuple[int, ...]:
    """Solve the projection restricted to the indices ``keep`` selects, exactly.

    Per block the exact solver (the 1-spike or 2-spike DP; other ``p``
    raise ``ValueError``) produces optima for every budget level; the
    level-to-level gains are non-increasing, so picking the ``k`` largest
    gains globally (ties broken by ascending block id, then level) yields
    per-block budgets whose union is an optimal solution.  Zero gains are
    dropped after selection.
    """
    x = as_weights(x)
    if k <= 0:
        return ()
    if p == 1:
        solve = dp.build_table_1spike
    elif p == 2:
        solve = dp.build_table_2spike
    else:
        raise ValueError(f"no exact block solver for p={p}; only p = 1 and p = 2 are supported")
    dec = block_decompose(keep, x, delta, p)
    if not dec.blocks:
        return ()

    tables: list[tuple[int, dp.DpTable1 | dp.DpTable2]] = []
    gains: list[tuple[float, int, int]] = []
    for t, ((lo, hi), members) in enumerate(zip(dec.blocks, dec.members)):
        w = np.zeros(hi - lo + 1)
        w[members - lo] = x[members - 1]
        # Levels beyond k can never survive the global selection.
        budget = min(dec.budgets[t], k)
        table = solve(w, budget, delta)
        tables.append((lo, table))
        level_vals = table.values
        prev = 0.0
        for ell in range(1, budget + 1):
            gains.append((float(level_vals[ell - 1]) - prev, -t, -ell))
            prev = float(level_vals[ell - 1])

    picked = heapq.nlargest(k, gains)
    per_block: Counter[int] = Counter()
    for q, neg_t, _neg_ell in picked:
        if q > 0.0:
            per_block[-neg_t] += 1

    solution: list[int] = []
    for t, (lo, table) in enumerate(tables):
        j = per_block.get(t, 0)
        if j:
            solution.extend(local + lo - 1 for local in table.support(j))
    return tuple(sorted(solution))


def best_over_windows(
    x: np.ndarray, k: int, delta: int, p: int, lam: int, forced: np.ndarray | None = None
) -> tuple[int, ...]:
    """Best exact slice solution over the ``lam + 1`` periodic keep-sets.

    ``x`` is a non-empty weight vector and ``forced`` an optional boolean
    mask over ``[n]`` of indices kept by every slice.  Keep-sets whose
    dropped run starts beyond ``n`` all equal the full ground set, so only
    the first of them is solved.  Ties keep the earliest keep-set.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    best: tuple[int, ...] = ()
    best_val = 0.0
    for nu in range(min(lam, math.ceil(x.size / delta)) + 1):

        def keep(idx: np.ndarray, nu=nu) -> np.ndarray:
            kept = drop_phase(idx, delta, lam) != nu
            return kept if forced is None else kept | forced[idx - 1]

        sol = slice_solve(keep, x, k, delta, p)
        val = objective(x, sol)
        if val > best_val:
            best, best_val = sol, val
    return best


def head_project(x, k: int, delta: int, p: int, epsilon: float) -> tuple[int, ...]:
    """Projection capturing at least ``1 - 1/(lam+1)`` of the optimal mass.

    Runs the exact slice solver on each of the ``lam + 1`` keep-sets with
    ``lam = ceil(1/epsilon)`` and returns the best solution found.
    """
    x = as_weights(x)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if x.size == 0 or k <= 0:
        return ()
    return best_over_windows(x, k, delta, p, math.ceil(1.0 / epsilon))
