"""Head approximation: periodic keep-sets, blocks, and the slice solver.

The projector removes a periodic run of ``delta`` positions from the ground
set (one of ``lam + 1`` phase-shifted choices), which caps every remaining
block at ``lam * delta`` positions.  A keep-set is a boolean mask over
``[n]``, read off phases that repeat with period ``(lam + 1) * delta`` and
are tiled from one period.  Its slice zeroes the dropped positions in one
masked copy of the weights, whose nonzero chains are the blocks, held as
arrays.  The blocks are independent; they are stacked as rows padded with
trailing zeros, in the batches :func:`dp.batch_rows` forms, and the exact
solver runs once per batch.  A global top-k selection of marginal gains
stitches the per-block budgets together, and one ``support`` call per
batch reads every picked block's support, so no step loops over blocks in
Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .model import _ascending_sum, as_weights, check_budget, check_delta, check_lam, check_p

# perfbench/tracing.py patches this name here; keep it importable.
from .model import objective  # noqa: F401

__all__ = [
    "BlockDecomposition",
    "best_over_windows",
    "block_decompose",
    "drop_phase",
    "head_project",
    "slice_solve",
    "window_cap",
    "window_count",
]


def drop_phase(idx, delta: int, lam: int) -> np.ndarray:
    """For each 1-based index, the keep-set ``nu`` in ``[0, lam]`` that drops it.

    Keep-set ``nu`` leaves out every index whose position modulo the period
    ``(lam + 1) * delta`` falls in ``[nu * delta, (nu + 1) * delta)``, so each
    index is dropped by exactly one of the ``lam + 1`` sets and kept by the
    other ``lam``.  ``lam`` goes through :func:`model.check_lam`.  A
    ``delta`` past the largest index puts every index in phase 0, so it is
    clamped there.
    """
    idx = np.asarray(idx)
    lam = check_lam(lam)
    delta = check_delta(delta, int(idx.max(initial=0)))
    return ((idx - 1) % ((lam + 1) * delta)) // delta


def window_cap(n: int, delta: int) -> int:
    """``ceil(n / delta)`` with ``delta`` clamped to ``n``: at this ``lam`` the last
    keep-set is all of ``[n]``, and a larger ``lam`` only adds keep-sets equal to it."""
    return math.ceil(n / check_delta(delta, n))


def window_count(n: int, delta: int, epsilon: float, scale: float = 1.0) -> int:
    """The ``lam`` of a projection at precision ``epsilon``: ``ceil(scale /
    epsilon)`` capped at :func:`window_cap`, ``scale`` 1 for head and 2 for
    tail.  An ``epsilon`` that is not a finite positive real, ``None`` or a
    string included, raises ``ValueError``."""
    try:
        ok = math.isfinite(epsilon) and epsilon > 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError("epsilon must be finite and positive")
    # scale/epsilon overflows to inf below ~1e-308; min() keeps it at n.
    return min(math.ceil(min(scale / epsilon, n)), window_cap(n, delta))


@dataclass
class BlockDecomposition:
    """Blocks of a weight vector: spanning intervals and their budgets.

    ``blocks`` is a ``(B, 2)`` int array whose row t is the 1-based
    inclusive interval ``(lo, hi)`` spanned by the t-th chain of
    nonzero-weight indices in which consecutive members are less than
    ``delta`` apart; it iterates as those ``(lo, hi)`` pairs.  ``budgets``
    is an int array with ``budgets[t] = p * ceil(len/delta)``.
    """

    blocks: np.ndarray
    budgets: np.ndarray


def block_decompose(x, delta: int, p: int = 1) -> BlockDecomposition:
    """Split the nonzero indices of ``x`` into blocks.

    Zero weights form no block; distinct blocks are at least ``delta``
    apart, so they can be solved independently.
    """
    x = as_weights(x)
    delta = check_delta(delta, x.size)
    p = check_p(p)
    # nonzero() runs several times faster on a bool mask than on floats.
    nonzero = np.flatnonzero(x != 0.0) + 1
    if nonzero.size == 0:
        return BlockDecomposition(nonzero.reshape(0, 2), nonzero)
    cuts = np.flatnonzero(np.diff(nonzero) >= delta)
    first = np.concatenate(([0], cuts + 1))
    last = np.concatenate((cuts, [nonzero.size - 1]))
    blocks = nonzero[np.stack((first, last), axis=1)]
    lengths = blocks[:, 1] - blocks[:, 0] + 1
    return BlockDecomposition(blocks, p * -(-lengths // delta))


def _check_mask(mask, n: int, name: str) -> None:
    """Reject a ``mask`` that is not a boolean array of length ``n``."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (n,)):
        raise ValueError(f"{name} must be a boolean mask of length {n}")


def slice_solve(keep: np.ndarray, x, k: int, delta: int, p: int = 1) -> tuple[int, ...]:
    """Solve the projection restricted to the indices ``keep`` selects, exactly.

    ``keep`` is a boolean mask over ``[n]``.  The blocks of the masked
    vector are stacked as rows padded with trailing zeros, in the batches
    :func:`dp.batch_rows` forms, and the exact solver that
    :func:`dp.table_builder` picks for ``p`` runs once per batch, giving
    each block's optima for every budget level.  A padded row has its
    block's values and supports, and its levels past the block's packing
    limit gain exactly 0.  The level-to-level gains are non-increasing, so
    picking the ``k`` largest positive gains globally (ties broken by
    ascending block id, then level) yields per-block budgets whose union
    is an optimal solution.  A ``p`` with no exact solver, an invalid
    ``delta`` or a ``keep`` that is not a boolean array of ``x``'s length
    raises ``ValueError`` even when there is no block or ``k <= 0``.
    """
    x = as_weights(x)
    solve = dp.table_builder(p)
    delta = check_delta(delta, x.size)
    k = check_budget(k)
    _check_mask(keep, x.size, "keep")
    if k <= 0:
        return ()
    x = np.where(keep, x, 0.0)
    dec = block_decompose(x, delta, p)
    if not len(dec.blocks):
        return ()

    los, his = dec.blocks.T
    lengths = his - los + 1
    batches = dp.batch_rows(lengths, delta, p)
    # Row b holds block b's gain at each level over the level below, 0 past
    # its batch's levels; a block's first level gains its whole value.  No
    # table runs more levels than k or its longest block's budget.
    width = min(k, int(dec.budgets.max()))
    gains = np.zeros((lengths.size, width))
    tables = []
    for rows in batches:
        cols = np.arange(lengths[rows].max())
        # Padding columns read any in-range weight, then are zeroed.
        padded = x.take(los[rows, None] - 1 + cols, mode="clip")
        padded[cols >= lengths[rows, None]] = 0.0
        table = solve(padded, k, delta)
        gains[rows, : len(table)] = np.diff(table.values, axis=1, prepend=0.0)
        tables.append(table)
    gains = gains.ravel()
    # A stable sort of the negated positive gains keeps equal gains in
    # block, then level order.
    positive = np.flatnonzero(gains > 0.0)
    picked = positive[(-gains[positive]).argsort(kind="stable")[:k]]
    per_block = np.bincount(picked // width, minlength=lengths.size)

    # Each batch reads all its blocks' supports at their budgets in one
    # walk-back.  Blocks are disjoint and ordered, so the solution is the
    # sorted union of their indices.
    solution = []
    for rows, table in zip(batches, tables):
        row, local = table.support(per_block[rows])
        solution.append(local + (los[rows[row]] - 1))
    return tuple(np.sort(np.concatenate(solution)).tolist())


def best_over_windows(
    x, k: int, delta: int, p: int, lam: int, forced: np.ndarray | None = None
) -> tuple[int, ...]:
    """Best exact slice solution over the ``lam + 1`` periodic keep-sets.

    ``x`` is a weight vector, checked by :func:`as_weights`, and ``forced``
    an optional boolean mask over ``[n]`` of indices kept by every slice;
    any other ``forced`` raises ``ValueError``.  ``lam`` goes through
    :func:`model.check_lam` and is capped at :func:`window_cap`.  Every
    slice checks ``p``, and at least one runs, so a bad ``p`` raises on an
    empty ``x`` and at ``k <= 0`` too.  Ties keep the earliest keep-set.
    """
    x = as_weights(x)
    n = x.size
    delta = check_delta(delta, n)
    k = check_budget(k)
    lam = min(check_lam(lam), window_cap(n, delta))
    # Phases repeat with period (lam + 1) * delta: tile one period, in the
    # narrowest signed type that holds -1 to lam.
    period = np.arange(1, min((lam + 1) * delta, n) + 1)
    phase = np.resize(drop_phase(period, delta, lam).astype(np.min_scalar_type(-lam - 1)), n)
    if forced is not None:
        _check_mask(forced, x.size, "forced")
        phase[forced] = -1  # a phase no keep-set drops
    best: tuple[int, ...] = ()
    best_val = 0.0
    for nu in range(lam + 1):
        sol = slice_solve(phase != nu, x, k, delta, p)
        val = _ascending_sum(x, sol)
        if val > best_val:
            best, best_val = sol, val
    return best


def head_project(x, k: int, delta: int, p: int, epsilon: float) -> tuple[int, ...]:
    """Projection capturing at least ``1 - 1/(lam+1)`` of the optimal mass.

    Runs the exact slice solver on each of the ``lam + 1`` keep-sets with
    ``lam = ceil(1/epsilon)`` and returns the best solution found.  This
    wrapper only maps ``epsilon`` to ``lam``: :func:`window_count` checks
    ``epsilon``, then ``delta``; :func:`best_over_windows` checks ``x`` and
    ``k``; and each slice checks ``p``, so a ``p`` with no exact solver
    raises ``ValueError`` even on an empty ``x`` or at ``k <= 0``.  Of
    several bad arguments, ``epsilon`` is reported first, then ``delta``,
    ``x``, ``k`` and ``p``.
    """
    return best_over_windows(x, k, delta, p, window_count(np.size(x), delta, epsilon))
