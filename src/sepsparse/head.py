"""Head approximation: periodic keep-sets, blocks, and the slice solver.

The projector removes a periodic run of ``delta`` positions from the ground
set (one of ``lam + 1`` phase-shifted choices), which caps every remaining
block at ``lam * delta`` positions.  A keep-set is a boolean mask over
``[n]``; its slice zeroes the dropped positions in one masked copy of the
weights, whose nonzero chains are the blocks.  An exact solver handles each
block independently on a view of that copy, and a global top-k selection of
marginal gains stitches the per-block budgets together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Blocks of a weight vector: spanning intervals and their budgets.

    ``blocks[t]`` is the 1-based inclusive interval spanned by the t-th
    chain of nonzero-weight indices in which consecutive members are less
    than ``delta`` apart; ``budgets[t]`` is ``p * ceil(len/delta)``.
    """

    blocks: list[tuple[int, int]]
    budgets: list[int]


def block_decompose(x, delta: int, p: int = 1) -> BlockDecomposition:
    """Split the nonzero indices of ``x`` into blocks.

    Zero weights form no block; distinct blocks are at least ``delta``
    apart, so they can be solved independently.
    """
    x = as_weights(x)
    if delta < 1 or p < 1:
        raise ValueError("delta and p must be >= 1")
    nonzero = np.flatnonzero(x) + 1
    if nonzero.size == 0:
        return BlockDecomposition([], [])
    cuts = np.flatnonzero(np.diff(nonzero) >= delta)
    los = nonzero[np.concatenate(([0], cuts + 1))].tolist()
    his = nonzero[np.concatenate((cuts, [nonzero.size - 1]))].tolist()
    budgets = [p * math.ceil((hi - lo + 1) / delta) for lo, hi in zip(los, his)]
    return BlockDecomposition(list(zip(los, his)), budgets)


def slice_solve(keep: np.ndarray, x, k: int, delta: int, p: int = 1) -> tuple[int, ...]:
    """Solve the projection restricted to the indices ``keep`` selects, exactly.

    ``keep`` is a boolean mask over ``[n]``.  Per block of the masked
    vector the exact solver that :func:`dp.table_builder` picks for ``p``
    produces optima for every budget level; the level-to-level gains are
    non-increasing, so picking the ``k`` largest gains globally (ties
    broken by ascending block id, then level) yields per-block budgets
    whose union is an optimal solution.  Zero gains are dropped after
    selection.  A ``p`` with no exact solver raises ``ValueError`` even
    when there is no block.
    """
    x = as_weights(x)
    if k <= 0:
        return ()
    solve = dp.table_builder(p)
    x = np.where(keep, x, 0.0)
    dec = block_decompose(x, delta, p)
    if not dec.blocks:
        return ()

    # Levels beyond k can never survive the global selection.
    tables = [solve(x[lo - 1 : hi], min(b, k), delta) for (lo, hi), b in zip(dec.blocks, dec.budgets)]
    levels = np.array([table.values.size for table in tables])
    values = np.concatenate([table.values for table in tables])
    # Each level's gain over the level below; a block's first level gains
    # its whole value.
    gains = values.copy()
    gains[1:] -= values[:-1]
    firsts = levels.cumsum() - levels
    gains[firsts] = values[firsts]
    # A stable sort of the negated gains keeps equal gains in block, then
    # level order.
    picked = (-gains).argsort(kind="stable")[:k]
    picked = picked[gains[picked] > 0.0]
    block_of = np.arange(len(tables)).repeat(levels)
    per_block = np.bincount(block_of[picked], minlength=len(tables))

    solution: list[int] = []
    for (lo, _hi), table, j in zip(dec.blocks, tables, per_block.tolist()):
        if j:
            solution.extend(local + lo - 1 for local in table.support(j))
    return tuple(solution)


def best_over_windows(
    x: np.ndarray, k: int, delta: int, p: int, lam: int, forced: np.ndarray | None = None
) -> tuple[int, ...]:
    """Best exact slice solution over the ``lam + 1`` periodic keep-sets.

    ``x`` is a non-empty weight vector and ``forced`` an optional boolean
    mask over ``[n]`` of indices kept by every slice.  Keep-sets whose
    dropped run starts beyond ``n`` all equal the full ground set, and the
    phases do not change once the period exceeds ``n``, so ``lam`` is capped
    at ``ceil(n / delta)``.  Any ``delta >= n`` admits the same supports as
    ``delta = n``, so it is clamped to ``n``.  Ties keep the earliest
    keep-set.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    delta = min(delta, x.size)
    lam = min(lam, math.ceil(x.size / delta))
    phase = drop_phase(np.arange(1, x.size + 1), delta, lam)
    if forced is not None:
        phase[forced] = -1  # a phase no keep-set drops
    best: tuple[int, ...] = ()
    best_val = 0.0
    for nu in range(lam + 1):
        sol = slice_solve(phase != nu, x, k, delta, p)
        val = objective(x, sol)
        if val > best_val:
            best, best_val = sol, val
    return best


def head_project(x, k: int, delta: int, p: int, epsilon: float) -> tuple[int, ...]:
    """Projection capturing at least ``1 - 1/(lam+1)`` of the optimal mass.

    Runs the exact slice solver on each of the ``lam + 1`` keep-sets with
    ``lam = ceil(1/epsilon)`` and returns the best solution found.  An
    invalid ``delta`` or a ``p`` with no exact solver raises ``ValueError``
    even when there is nothing to project.
    """
    x = as_weights(x)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    dp.table_builder(p)  # raises for a p with no exact solver
    if x.size == 0 or k <= 0:
        return ()
    # 1/epsilon overflows to inf below ~5.6e-309; any lam >= n is capped alike.
    return best_over_windows(x, k, delta, p, math.ceil(min(1.0 / epsilon, x.size)))
