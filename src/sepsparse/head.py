"""Head approximation: periodic keep-sets, blocks, and the slice solver.

The projector removes a periodic run of ``delta`` positions from the ground
set (one of ``lam + 1`` phase-shifted choices), which caps every remaining
block at ``lam * delta`` positions.  The window loop checks the weights
once, finds their nonzero positions once and reads each one's drop phase,
which repeats with period ``(lam + 1) * delta``.  A keep-set's slice gets
the sorted positions it keeps, an O(nnz) filter, and cuts them into blocks
where consecutive positions are ``delta`` or more apart, held as arrays.
No masked copy of the weights is needed: a dropped run is ``delta`` long,
so the kept positions on its two sides fall in different blocks, and each
block's span is gathered straight from the weights.  Only a forced index
inside a dropped run can chain across it; the slice rebuilds such a
block's row from its kept positions.  The blocks are independent; they are
stacked as rows padded with trailing zeros, in the batches
:func:`dp.batch_rows` forms, and the exact solver runs once per batch.  A
global top-k selection of marginal gains stitches the per-block budgets
together, and one ``support`` call per batch reads every picked block's
support, so no step but that rare rebuild loops over blocks in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .model import _ascending_sum, as_signal, as_weights, check_budget, check_delta, check_lam, check_p

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
    """Blocks of a set of positions: spanning intervals and their budgets.

    ``blocks`` is a ``(B, 2)`` int array whose row t is the 1-based
    inclusive interval ``(lo, hi)`` spanned by the t-th chain of positions
    in which consecutive members are less than ``delta`` apart; it
    iterates as those ``(lo, hi)`` pairs.  ``budgets`` is an int array
    with ``budgets[t] = p * ceil(len/delta)``.
    """

    blocks: np.ndarray
    budgets: np.ndarray


def _positions(kept, n: float = math.inf) -> np.ndarray:
    """``kept`` as an array, checked to hold strictly increasing integer
    positions in ``[1, n]``.  A compare, not a difference, finds a step
    down: an unsigned or narrow difference would wrap."""
    kept = np.asarray(kept)
    ok = kept.dtype.kind in "iu" and kept.ndim == 1 and not (kept[1:] <= kept[:-1]).any()
    if not ok or (kept.size and not 1 <= kept[0] <= kept[-1] <= n):
        raise ValueError(f"kept must be a strictly increasing integer array in [1, {n}]")
    return kept


def block_decompose(kept, delta: int, p: int = 1) -> BlockDecomposition:
    """Split sorted 1-based positions into blocks.

    ``kept`` is a strictly increasing integer array of positions from 1;
    any other ``kept`` raises ``ValueError``.  A block is a chain of them
    in which consecutive members are less than ``delta`` apart, so
    distinct blocks are at least ``delta`` apart and can be solved
    independently.  :func:`slice_solve` passes only positions of nonzero
    weight, so a zero weight joins no block.  A ``delta`` past the last
    position cuts nothing, so it is clamped there.
    """
    kept = _positions(kept)
    delta = check_delta(delta, int(kept[-1]) if kept.size else 0)
    p = check_p(p)
    if not kept.size:
        return BlockDecomposition(np.zeros((0, 2), np.intp), np.zeros(0, np.intp))
    cuts = np.flatnonzero(np.diff(kept) >= delta)
    first = np.concatenate(([0], cuts + 1))
    last = np.concatenate((cuts, [kept.size - 1]))
    blocks = kept[np.stack((first, last), axis=1)].astype(np.intp)
    lengths = blocks[:, 1] - blocks[:, 0] + 1
    return BlockDecomposition(blocks, p * -(-lengths // delta))


def slice_solve(kept, x, k: int, delta: int, p: int = 1) -> tuple[int, ...]:
    """Solve the projection restricted to the positions ``kept``, exactly.

    ``kept`` is a strictly increasing integer array of 1-based positions
    in ``[1, n]``.  Those of nonzero weight split into blocks
    (:func:`block_decompose`), whose spans are gathered straight from
    ``x`` as rows padded with trailing zeros, in the batches
    :func:`dp.batch_rows` forms; the exact solver that
    :func:`dp.table_builder` picks for ``p`` runs once per batch, giving
    each block's optima for every budget level.  A span can hold a nonzero
    weight that ``kept`` leaves out only where ``kept`` skips a position
    inside a chain (a forced index next to a dropped run in
    :func:`best_over_windows` does); a row with more nonzero weights than
    kept positions is rebuilt from its kept positions alone.  ``x`` must
    be a vector, but only its kept weights are read, and the builder's
    :func:`as_weights` checks them where they are.  A padded row has its
    block's values and supports, and its levels past the block's packing
    limit gain exactly 0.  The level-to-level gains are non-increasing, so
    picking the ``k`` largest positive gains globally (ties broken by
    ascending block id, then level) yields per-block budgets whose union
    is an optimal solution.  A ``p`` with no exact solver, an invalid
    ``delta`` or an invalid ``kept`` raises ``ValueError`` even when there
    is no block or ``k <= 0``.
    """
    x = as_signal(x)
    solve = dp.table_builder(p)
    delta = check_delta(delta, x.size)
    k = check_budget(k)
    kept = _positions(kept, x.size)
    # The window loop passes nonzero weights only, so this filter is rare.
    if not x[kept - 1].all():
        kept = kept[x[kept - 1] != 0.0]
    dec = block_decompose(kept, delta, p)
    if k <= 0 or not len(dec.blocks):
        return ()

    los, his = dec.blocks.T
    lengths = his - los + 1
    # Block b's positions are kept[first[b] : stop[b]]: lo and hi are kept
    # positions, at first[b] and stop[b] - 1.
    first, stop = np.searchsorted(kept, dec.blocks.astype(kept.dtype)).T + [[0], [1]]
    # Only a block with fewer kept positions than cells can span a weight
    # that kept leaves out.
    holed = stop - first < lengths
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
        if holed[rows].any():
            # A row with more nonzero weights than kept positions spans one
            # that kept leaves out; it is rebuilt from its kept positions.
            for r in np.flatnonzero(np.count_nonzero(padded, axis=1) > (stop - first)[rows]):
                own = kept[first[rows[r]] : stop[rows[r]]]
                padded[r] = 0.0
                padded[r, own - own[0]] = x[own - 1]
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
    :func:`model.check_lam` and is capped at :func:`window_cap`.  ``p`` is
    checked up front, so a bad ``p`` raises on an empty ``x`` and at
    ``k <= 0`` too, and those return ``()`` before any slice runs.  Ties
    keep the earliest keep-set.

    The loop finds the nonzero positions of ``x`` and their drop phases
    once, forced ones at phase -1, and hands each slice the positions its
    keep-set keeps.  No masked copy of ``x`` is needed: a dropped run is
    ``delta`` long, so kept positions on its two sides are more than
    ``delta`` apart and no block spans it, unless a forced index inside
    the run chains across; :func:`slice_solve` rebuilds such a block's row
    from its kept positions.
    """
    x = as_weights(x)
    n = x.size
    delta = check_delta(delta, n)
    k = check_budget(k)
    dp.table_builder(p)  # raises for a p with no exact solver
    lam = min(check_lam(lam), window_cap(n, delta))
    if forced is not None and not (getattr(forced, "dtype", None) == bool and forced.shape == (n,)):
        raise ValueError(f"forced must be a boolean mask of length {n}")
    # int32 halves the positions' memory; the phases' period, under 3n,
    # fits in it too.
    positions = np.arange(1, n + 1, dtype=np.int32 if 3 * n < 2**31 else np.int64)[x != 0.0]
    if k <= 0 or not positions.size:
        return ()
    # The narrowest signed type that holds -1 to lam.
    phase = drop_phase(positions, delta, lam).astype(np.min_scalar_type(-lam - 1))
    if forced is not None:
        # A phase no keep-set drops; a mask selects the forced nonzeros
        # several times faster than a gather at the positions.
        phase[forced[x != 0.0]] = -1
    best, best_val = (), 0.0
    for nu in range(lam + 1):
        sol = slice_solve(positions[phase != nu], x, k, delta, p)
        val = _ascending_sum(x, sol)
        if val > best_val:
            best, best_val = sol, val
    return best


def head_project(x, k: int, delta: int, p: int, epsilon: float) -> tuple[int, ...]:
    """Projection capturing at least ``1 - 1/(lam+1)`` of the optimal mass.

    Runs the exact slice solver on each of the ``lam + 1`` keep-sets with
    ``lam = ceil(1/epsilon)`` and returns the best solution found.  This
    wrapper only maps ``epsilon`` to ``lam``: :func:`window_count` checks
    ``epsilon``, then ``delta``, and :func:`best_over_windows` checks
    ``x``, ``k`` and ``p``, so a ``p`` with no exact solver raises
    ``ValueError`` even on an empty ``x`` or at ``k <= 0``.  Of several bad
    arguments, ``epsilon`` is reported first, then ``delta``, ``x``, ``k``
    and ``p``.
    """
    return best_over_windows(x, k, delta, p, window_count(np.size(x), delta, epsilon))
