"""Head approximation: periodic keep-sets, blocks, and the slice solver.

The projector removes a periodic run of ``delta`` positions from the ground
set (one of ``lam + 1`` phase-shifted choices), which caps every remaining
block at ``lam * delta`` positions.  Every position set the window loop
takes or hands on is a strictly increasing integer array of 1-based
positions.  The loop checks the weights once, compares them with 0 once to
find their nonzero positions and reads each one's drop phase, which
repeats with period ``(lam + 1) * delta``; positions forced into every
keep-set are found among the nonzero ones by one search.  A keep-set's
slice gets the sorted positions it keeps, an O(nnz) filter, and cuts them
into blocks where consecutive positions are ``delta`` or more apart, held
as arrays with each block's range in the kept positions.
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
A ``p = 2`` slice first tries the certified search that
:func:`dp.certified_solver` maps ``p`` to: a Lagrangian search over the
budget-free 2-spike solver on the slice's kept weights, whose support is
accepted only when it is certified to be the one the tables read back.
The slice builds its tables only when the search declines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .model import _ascending_sum, as_signal, as_weights, check_count, check_delta, check_real

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
    other ``lam``.  ``lam`` goes through :func:`model.check_count`, least
    0.  A ``delta`` past the largest index puts every index in phase 0, so
    it is clamped there.  Indices that are not integers raise ``ValueError``.
    """
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"idx must be integer indices, got {idx.dtype}")
    lam = check_count(lam, "lam", 0)
    delta = check_delta(delta, int(idx.max(initial=0)))
    return ((idx - 1) % ((lam + 1) * delta)) // delta


def window_cap(n: int, delta: int) -> int:
    """``ceil(n / delta)`` with ``delta`` clamped to ``n``: at this ``lam`` the last
    keep-set is all of ``[n]``, and a larger ``lam`` only adds keep-sets equal to it.
    ``n`` goes through :func:`model.check_count`, least 0."""
    n = check_count(n, "n", 0)
    return math.ceil(n / check_delta(delta, n))


def window_count(n: int, delta: int, epsilon: float, scale: float = 1.0) -> int:
    """The ``lam`` of a projection at precision ``epsilon``: ``ceil(scale /
    epsilon)`` capped at :func:`window_cap`, ``scale`` 1 for head and 2 for
    tail.  ``epsilon`` goes through :func:`model.check_real` as a finite
    real > 0, then ``n`` and ``delta`` through :func:`window_cap`."""
    check_real(epsilon, "epsilon", 0, strict=True, finite=True)
    # scale/epsilon overflows to inf below ~1e-308; min() keeps it at n.
    return min(window_cap(n, delta), math.ceil(min(scale / epsilon, n)))


@dataclass
class BlockDecomposition:
    """Blocks of a set of positions: spanning intervals, budgets and ranges.

    ``blocks`` is a ``(B, 2)`` int array whose row t is the 1-based
    inclusive interval ``(lo, hi)`` spanned by the t-th chain of positions
    in which consecutive members are less than ``delta`` apart; it
    iterates as those ``(lo, hi)`` pairs.  ``budgets`` is an int array
    with ``budgets[t] = p * ceil(len/delta)``.  ``ranges`` is a ``(B, 2)``
    int array whose row t is the half-open range ``[first, stop)`` of the
    t-th chain in the positions, so ``lo`` and ``hi`` sit at ``first`` and
    ``stop - 1``.
    """

    blocks: np.ndarray
    budgets: np.ndarray
    ranges: np.ndarray


def _positions(values, n: float = math.inf, name: str = "kept") -> np.ndarray:
    """``values`` as an array, checked to hold strictly increasing integer
    positions in ``[1, n]``; the message names them ``name``.  A compare,
    not a difference, finds a step down: an unsigned or narrow difference
    would wrap."""
    values = np.asarray(values)
    ok = values.dtype.kind in "iu" and values.ndim == 1 and not (values[1:] <= values[:-1]).any()
    if not ok or (values.size and not 1 <= values[0] <= values[-1] <= n):
        raise ValueError(f"{name} must be a strictly increasing integer array in [1, {n}]")
    return values


def block_decompose(kept, delta: int, p: int = 1) -> BlockDecomposition:
    """Split sorted 1-based positions into blocks.

    ``kept`` is a strictly increasing integer array of positions from 1;
    any other ``kept`` raises ``ValueError``.  A block is a chain of them
    in which consecutive members are less than ``delta`` apart, so
    distinct blocks are at least ``delta`` apart and can be solved
    independently.  :func:`slice_solve` passes only positions of nonzero
    weight, so a zero weight joins no block.  A ``delta`` past the last
    position cuts nothing, so it is clamped there.  Each block's range in
    ``kept`` comes with it, so no caller searches ``kept`` for it again.
    """
    kept = _positions(kept)
    delta = check_delta(delta, int(kept[-1]) if kept.size else 0)
    p = check_count(p, "p")
    if not kept.size:
        empty = np.zeros((0, 2), np.intp)
        return BlockDecomposition(empty, np.zeros(0, np.intp), empty)
    cuts = np.flatnonzero(np.diff(kept) >= delta) + 1
    ranges = np.stack((np.concatenate(([0], cuts)), np.concatenate((cuts, [kept.size]))), axis=1)
    blocks = kept[ranges - [0, 1]].astype(np.intp)
    lengths = blocks[:, 1] - blocks[:, 0] + 1
    return BlockDecomposition(blocks, p * -(-lengths // delta), ranges)


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

    Before any table, a slice with a certified search for ``p``
    (:func:`dp.certified_solver`; ``p = 2``) runs it on the kept positions
    and their weights, and returns its support when the search certifies
    it: that is the support the tables would read back, bit for bit.  The
    tables are built only when the search declines, as on ties, on a
    budget past the slice's packing capacity, or on weights near the
    float range.
    """
    x = as_signal(x)
    solve = dp.table_builder(p)
    delta = check_delta(delta, x.size)
    k = check_count(k, "k", None)
    kept = _positions(kept, x.size)
    search = dp.certified_solver(p)
    # The window loop passes nonzero weights only, so this filter is rare.
    # The search reads the kept weights anyway; otherwise a vector of
    # positive weights needs no gather when a scan for its least weight,
    # about a tenth of a gather's time per weight, costs less.
    w = None
    if search is not None or 10 * kept.size < x.size or not x.min(initial=1.0) > 0.0:
        w = x[kept - 1]
        if not w.all():
            kept, w = kept[w != 0.0], w[w != 0.0]
    dec = block_decompose(kept, delta, p)
    if k <= 0 or not len(dec.blocks):
        return ()
    if search is not None:
        sol = search(kept, w, k, delta)
        if sol is not None:
            return sol

    los, his = dec.blocks.T
    lengths = his - los + 1
    first, stop = dec.ranges.T
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
    optional positions kept by every slice, a strictly increasing integer
    array in ``[1, n]`` as :func:`tail.strong_and_reduced` returns its
    strong set; any other ``forced``, a boolean mask included, raises
    ``ValueError``, and a forced position of zero weight is ignored.
    ``lam`` goes through :func:`model.check_count`, least 0, and is capped
    at :func:`window_cap`.  ``p`` and ``forced`` are checked up front, so
    a bad one raises on an empty ``x`` and at ``k <= 0`` too, and those
    return ``()`` before any slice runs.  Ties keep the earliest keep-set.

    The loop compares ``x`` with 0 once, finding its nonzero positions and
    their drop phases; one search of the forced positions among them puts
    the forced ones at phase -1.  Each slice gets the positions its
    keep-set keeps.  No masked copy of ``x`` is needed: a dropped run is
    ``delta`` long, so kept positions on its two sides are more than
    ``delta`` apart and no block spans it, unless a forced index inside
    the run chains across; :func:`slice_solve` rebuilds such a block's row
    from its kept positions.
    """
    x = as_weights(x)
    n = x.size
    delta = check_delta(delta, n)
    k = check_count(k, "k", None)
    dp.table_builder(p)  # raises for a p with no exact solver
    lam = min(check_count(lam, "lam", 0), window_cap(n, delta))
    # int32 halves the positions' memory; the phases' period, under 3n,
    # fits in it too.
    positions = np.arange(1, n + 1, dtype=np.int32 if 3 * n < 2**31 else np.int64)[x != 0.0]
    if forced is not None:
        # The search below runs in the positions' own type: a wider one
        # would cast all of them.
        forced = _positions(forced, n, "forced").astype(positions.dtype)
    if k <= 0 or not positions.size:
        return ()
    # The narrowest signed type that holds -1 to lam.
    phase = drop_phase(positions, delta, lam).astype(np.min_scalar_type(-lam - 1))
    if forced is not None:
        # A phase no keep-set drops.
        at = np.searchsorted(positions, forced)
        phase[at[positions.take(at, mode="clip") == forced]] = -1
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
