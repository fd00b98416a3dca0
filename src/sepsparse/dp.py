"""Exact dynamic-programming solvers for separated-sparsity projection.

Three solvers live here:

* :func:`dp_solve` -- the budgeted 1-spike solver, O(k n).
* :func:`dp_solve_unrestricted` -- budget-free 1-spike solver, O(n) vector
  work plus a Python loop over the nonzero weights.
* :func:`dp_solve_2spike` -- the budgeted 2-spike solver, O(k delta n).

:func:`table_builder` is the one place that maps a spike count ``p`` to
its budgeted recurrence; every caller that picks an exact solver by ``p``
goes through it.  A ``delta`` of ``n`` or more is the same problem as
``delta = n``; every solver's shared prologue checks and clamps it with
:func:`model.check_delta`, the one home of that rule.

Each records take-flags during the forward pass, bit-packed with
``np.packbits`` (one bit per prefix, bit 0 a dummy 0), and reconstructs a
support by walking them back.  The budgeted tables build a level's support
only when it is asked for.  They run levels only up to the packing limit
``max_support_size``: every budget past it has the limit's value and
support.  A table is the sequence of the levels it ran, and
``table.support(k)`` reads an optimal support for any budget ``k`` up to
the requested one, so no caller caps a budget.  :func:`table_cells` prices
a table by the levels it runs; no other module works out a table's size.
Ties in every max are broken toward *not* taking the current index, so
reconstructed supports are deterministic and stable across runs.

The forward passes keep each level's row in a buffer with up to ``delta``
leading zeros (at most ``n``), so the shifted term ``prev[i - delta]``, 0
out of range, is a slice of that buffer and no per-level array is
allocated.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from .model import as_weights, check_delta, max_support_size

__all__ = [
    "DpTable1",
    "DpTable2",
    "build_table_1spike",
    "build_table_2spike",
    "dp_solve",
    "dp_solve_2spike",
    "dp_solve_unrestricted",
    "table_builder",
    "table_cells",
]


def _prepare(x, delta: int) -> tuple[np.ndarray, int, int]:
    """Validated weights, their length ``n``, and ``delta`` through :func:`check_delta`."""
    x = as_weights(x)
    return x, x.size, check_delta(delta, x.size)


def _levels(n: int, budget: int, delta: int, p: int) -> int:
    """The levels a budget-``budget`` table runs: the budget, >= 0, capped at the packing limit."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return min(budget, max_support_size(n, delta, p))


def _nearest_take(row: np.ndarray, i: int) -> int:
    """Largest index i' <= i whose bit is set in the packed row, or 0 if none.

    Bit 0 is a dummy 0, so 0 doubles as the "no take" sentinel.  The byte
    holding bit i is tested first; earlier bytes are searched backwards in
    chunks that double in size, so the cost follows the distance scanned,
    not the row length.
    """
    b = i >> 3
    # packbits is big-endian within a byte: bit j of the row is value bit 7 - j % 8.
    byte = int(row[b]) & (0xFF00 >> ((i & 7) + 1))
    chunk = 64
    while not byte:
        if b == 0:
            return 0
        lo = max(0, b - chunk)
        nz = np.flatnonzero(row[lo:b])
        if nz.size:
            b = lo + int(nz[-1])
            byte = int(row[b])
        else:
            b = lo
            chunk *= 2
    return (b << 3) + 8 - (byte & -byte).bit_length()


def _walk(rows: Iterable[np.ndarray], i: int, delta: int) -> tuple[int, ...]:
    """The 1-spike support read back from prefix ``i``, one take row per pick.

    After a pick the walk resumes ``delta`` before it in the next row.
    """
    sol: list[int] = []
    for row in rows:
        if i < 1:
            break
        i = _nearest_take(row, i)
        if i == 0:
            break
        sol.append(i)
        i -= delta
    return tuple(reversed(sol))


class _DpTable(Sequence):
    """Per-level optima and packed take-flags of a budgeted recurrence.

    The table runs levels 1 to ``top``, the budget capped at the packing
    limit, where levels stop changing.  ``values[ell-1]`` is the optimum
    with budget ``ell`` and ``flags`` holds levels 0 to ``top``.  As a
    read-only sequence of those ``top`` levels, item ``j`` is the support
    for budget ``j + 1``, built by the subclass's ``support`` on first
    access and then cached.  ``support(ell)`` answers every budget from 0
    to ``budget``, the limit's support past ``top``.
    """

    def __init__(self, values: np.ndarray, flags: np.ndarray, budget: int, delta: int, n: int):
        self.values = values
        self.flags = flags
        self.budget = budget
        self.delta = delta
        self.n = n
        self._built: list[tuple[int, ...] | None] = [None] * values.size

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, j) -> tuple[int, ...]:
        j = range(len(self))[j]
        sol = self._built[j]
        if sol is None:
            sol = self._built[j] = self.support(j + 1)
        return sol

    def _start_level(self, ell: int) -> int:
        """The flag level a budget-``ell`` walk starts at."""
        if not 0 <= ell <= self.budget:
            raise ValueError(f"level {ell} outside [0, {self.budget}]")
        return min(ell, self.values.size)


class DpTable1(_DpTable):
    """Tables of the 1-spike recurrence.

    ``flags[ell]`` is the packed row of prefixes ``i`` at which the level-
    ``ell`` maximum was attained by taking index ``i``.
    """

    def support(self, ell: int) -> tuple[int, ...]:
        """Reconstruct an optimal support for budget ``ell``."""
        return _walk(self.flags[self._start_level(ell) : 0 : -1], self.n, self.delta)


def build_table_1spike(x, budget: int, delta: int) -> DpTable1:
    """Run the budgeted 1-spike recurrence on ``x`` for all levels <= budget."""
    x, n, delta = _prepare(x, delta)
    s = min(delta, n)
    top = _levels(n, budget, delta, 1)
    flags = np.zeros((top + 1, (n + 8) // 8), dtype=np.uint8)
    values = np.zeros(top)
    # Level rows live at [s:]; [1 : n + 1] is prev[i - delta] for i = 1..n.
    prev = np.zeros(s + n + 1)
    row = np.zeros(s + n + 1)
    cand = np.empty(n)
    take = np.zeros(n + 1, dtype=bool)
    for ell in range(1, top + 1):
        np.add(x, prev[1 : n + 1], out=cand)
        np.maximum.accumulate(cand, out=row[s + 1 :])
        np.greater(cand, row[s : s + n], out=take[1:])
        flags[ell] = np.packbits(take)
        values[ell - 1] = row[s + n]
        prev, row = row, prev
    return DpTable1(values, flags, budget, delta, n)


class DpTable2(_DpTable):
    """Tables of the 2-spike recurrence.

    The forward state is (prefix r, recent-window width i, budget ell);
    ``flags[ell, i]`` is the packed row of prefixes ``r`` with a take at
    that state.
    """

    def support(self, ell: int) -> tuple[int, ...]:
        """Reconstruct an optimal support for budget ``ell``."""
        lev = self._start_level(ell)
        delta = self.delta
        flags = self.flags
        sol: list[int] = []
        r = self.n
        i = 1
        while lev >= 1 and r >= 1:
            if i <= 1:
                # Width 0 aliases width 1; skips at width 1 walk straight
                # down the column, so jump to the nearest take.
                r = _nearest_take(flags[lev, 1], r)
                if r == 0:
                    break
                sol.append(r)
                lev -= 1
                r -= 1
                i = delta - 1
            elif int(flags[lev, i, r >> 3]) >> (7 - (r & 7)) & 1:
                sol.append(r)
                lev -= 1
                r -= i
                i = delta - i
            else:
                r -= 1
                i -= 1
        return tuple(reversed(sol))


def build_table_2spike(x, budget: int, delta: int) -> DpTable1 | DpTable2:
    """Run the budgeted 2-spike recurrence on ``x`` for all levels <= budget.

    With ``delta == 1`` the window constraint is vacuous and the 1-spike
    recurrence at separation 1 solves the same problem, so we reuse it.
    """
    x, n, delta = _prepare(x, delta)
    if delta == 1:
        return build_table_1spike(x, budget, 1)
    s = delta - 1
    top = _levels(n, budget, delta, 2)
    flags = np.zeros((top + 1, delta, (n + 8) // 8), dtype=np.uint8)
    values = np.zeros(top)
    # Row i of a level lives at [i, s:]; width i reads the previous level's
    # row delta - i shifted by i, which starts at column delta - i.
    P = np.zeros((delta, s + n + 1))
    V = np.zeros((delta, s + n + 1))
    cand = np.empty(n)
    take = np.zeros((delta, n + 1), dtype=bool)
    for ell in range(1, top + 1):
        # Width 1: the skip branch references the same column one step back,
        # which makes the column a running maximum.
        np.add(x, P[delta - 1, s : s + n], out=cand)
        np.maximum.accumulate(cand, out=V[1, s + 1 :])
        np.greater(cand, V[1, s : s + n], out=take[1, 1:])
        for i in range(2, delta):
            lo = delta - i
            np.add(x, P[delta - i, lo : lo + n], out=cand)
            np.maximum(cand, V[i - 1, s : s + n], out=V[i, s + 1 :])
            np.greater(cand, V[i - 1, s : s + n], out=take[i, 1:])
        flags[ell] = np.packbits(take, axis=1)
        values[ell - 1] = V[1, s + n]
        P, V = V, P
    return DpTable2(values, flags, budget, delta, n)


def table_builder(p: int) -> Callable[..., DpTable1 | DpTable2]:
    """The budgeted recurrence for spike count ``p``.

    ``build_table_1spike`` for ``p = 1`` and ``build_table_2spike`` for
    ``p = 2``; any other ``p`` raises ``ValueError``.  The builder is looked
    up when called, so a replaced module attribute is the one returned.
    """
    if p == 1:
        return build_table_1spike
    if p == 2:
        return build_table_2spike
    raise ValueError(f"no exact solver for p={p}; only p = 1 and p = 2 are supported")


def table_cells(n: int, k: int, delta: int, p: int) -> int:
    """The cells the budget-``k`` table for spike count ``p`` fills on ``n``
    weights: ``n`` per level it runs, times the clamped ``delta`` for ``p = 2``."""
    table_builder(p)  # raises for a p with no exact solver
    return _levels(n, k, delta, p) * n * (check_delta(delta, n) if p == 2 else 1)


def _solved(table: _DpTable) -> tuple[np.ndarray, _DpTable]:
    """``(table.values, table)`` with the top level's support built."""
    if len(table):
        table[-1]
    return table.values, table


def dp_solve(x, k: int, delta: int) -> tuple[np.ndarray, Sequence[tuple[int, ...]]]:
    """Budgeted 1-spike solver.

    Returns ``(table.values, table)``: the optimal values for budgets 1 to
    k, stopping at the packing limit past which none changes, and the
    table of one optimal support per such budget; ``table.support(k)``
    answers k itself.  The top support is built here, lower ones on first
    access.  Each support evaluates to its value exactly (the
    reconstruction replays the same floating-point additions).
    """
    return _solved(build_table_1spike(x, k, delta))


def dp_solve_unrestricted(x, delta: int) -> tuple[float, tuple[int, ...]]:
    """Budget-free 1-spike solver; equivalent to any budget >= ceil(n/delta).

    O(n) vector work plus a Python loop over the nonzero weights only: a
    zero is never taken and leaves the prefix optimum unchanged, so the
    recurrence steps from nonzero to nonzero.  Each one reads the optimum
    at its predecessor, the last nonzero at or before ``i - delta``.
    """
    x, n, delta = _prepare(x, delta)
    pos = np.flatnonzero(x) + 1
    # best[j] is the prefix optimum through the j-th nonzero (1-based), and
    # pred names each nonzero's predecessor by that j, 0 (best 0.0) for none.
    pred = np.searchsorted(pos, pos - delta, side="right")
    best = [0.0]
    took = []
    for w, j in zip(x[pos - 1].tolist(), pred.tolist()):
        cand = w + best[j]
        took.append(cand > best[-1])
        best.append(cand if took[-1] else best[-1])
    flags = np.zeros(n + 1, dtype=bool)
    flags[pos[np.array(took, dtype=bool)]] = True
    return best[-1], _walk(itertools.repeat(np.packbits(flags)), n, delta)


def dp_solve_2spike(x, k: int, delta: int) -> tuple[np.ndarray, Sequence[tuple[int, ...]]]:
    """Budgeted 2-spike solver; see :func:`dp_solve` for the return shape."""
    return _solved(build_table_2spike(x, k, delta))
