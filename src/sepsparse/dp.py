"""Exact dynamic-programming solvers for separated-sparsity projection.

Three solvers live here:

* :func:`build_table_1spike` -- the budgeted 1-spike recurrence, O(k n);
  on a vector at most half nonzero, such as a spike train, O(k nnz) plus
  O(k n / 8) flag packing.
* :func:`build_table_2spike` -- the budgeted 2-spike recurrence,
  O(k delta n).
* :func:`dp_solve_unrestricted` -- the budget-free 1-spike solver, O(n)
  vector work plus a Python loop over the nonzero weights.

:func:`dp_solve` and :func:`dp_solve_2spike` return a builder's table with
its top support built.  :func:`table_builder` is the one place that maps a
spike count ``p`` to its budgeted recurrence; every caller that picks an
exact solver by ``p`` goes through it.  A ``delta`` of ``n`` or more is the
same problem as ``delta = n``; every solver checks and clamps it with
:func:`model.check_delta`, the one home of that rule.

The budgeted tables record take-flags during the forward pass, bit-packed
with ``np.packbits`` (one bit per prefix, bit 0 a dummy 0), and each table
kind reconstructs a support by walking its own flags back.  They build a
level's support only when it is asked for.  They run levels only up to the
packing limit ``max_support_size``: every budget past it has the limit's
value and support.  A table is the sequence of the levels it ran, and
``table.support(k)`` reads an optimal support for any budget ``k`` up to
the requested one, so no caller caps a budget.  :func:`table_cells` prices
a table by the levels it runs; no other module works out a table's size.
The budget-free solver keeps each nonzero's take and predecessor in
Python lists and walks those back itself.  Ties in every max are broken
toward *not* taking the current index, so reconstructed supports are
deterministic and stable across runs.

The forward passes keep each level's row in a buffer with up to ``delta``
leading zeros (at most ``n``), so the shifted term ``prev[i - delta]``, 0
out of range, is a slice of that buffer and no per-level array is
allocated.  Both passes take their running maximum with
``np.fmax.accumulate``, which runs faster than ``np.maximum``'s and
gives the same bits here (see :func:`build_table_1spike`).

A 1-spike level runs only the prefixes where it can differ from the
level below: level ``ell`` runs prefixes ``lo + 1`` to ``n``, ``lo =
(ell - 1) * delta``, from a carry, the level below at prefix ``lo``, in
a leading slot of its candidates (see :func:`build_table_1spike`).  The
2-spike pass runs every level on every prefix: skipping measured slower
there on the short tables that recovery and ``head(p=2)`` build.

A zero weight never takes and never moves a 1-spike row, so a vector with
at most half its weights nonzero runs each level over its nonzero weights
only, the nonzero pass: each reads the level below at its predecessor,
the last nonzero at least ``delta`` before it, the rule
:func:`dp_solve_unrestricted` steps by too.  The take flags are scattered
into the same staging and packed whole, so the table and its walk-backs
are the ones the full pass gives, bit for bit (see
:func:`build_table_1spike`).  Denser vectors and every batch run the full
pass.

The 2-spike forward pass runs prefix-major, with the batch axis
innermost: the weights are an ``(n, rows)`` array (a vector is one
column) and a level is a ``(delta - 1, L, rows)`` buffer, one row per
window width, ``L`` being ``delta + n`` rounded up to whole bytes.  So
each width step from width 2 up is two calls on contiguous memory, an
add and a maximum.  The take staging has the buffer's layout, and the
flags of every width come after the width loop from two contiguous
compares.  numpy buffers a ufunc call on 2-D strided operands whole, and
on a batch's short rows that buffering set a width step's time (about
twice its arithmetic at 8 rows of 126).  The take flags keep one packed
row per batch row, as the walk-backs read them: a batch packs a
row-major copy of each level's flags.  The 1-spike pass stays row-major:
its running maximum runs along the row, and prefix-major 1-spike batches
measured slower.

The full 1-spike forward pass on a vector of at least ``2 * _SPLIT_MIN``
(131,072) weights, in a process that may run on more than one CPU, uses a
second thread (one per further usable CPU): each level's columns ``lo``
to ``n - 1`` run in one segment per usable CPU, as far as each keeps
``_SPLIT_MIN`` columns.  Only such a vector reads the CPU count, once per
table.  The calling thread runs the first segment and a worker of a pool
that lives for the one call runs each other one: each adds its
candidates and takes its running maximum, the first from the carry and
each later one from its own first candidate, and sets its take flags
against it.  The calling thread then raises each later segment, in
order, to the row's maximum before it, mends the flags that maximum
changes and packs the level once.  ``max`` is exact, so the values and
flags are the one-segment ones bit for bit.  Batches, shorter vectors,
levels whose ``n - lo`` is below ``2 * _SPLIT_MIN`` and one-CPU
processes run one segment on the calling thread, and nothing else here
starts a thread.

The budgeted builders take a vector or a 2-D array of rows and run each
level once for all rows; a vector is the one-row case of the same loop,
and a batch's row ``r`` has the values and flags of the table built on
that row alone.  On a batch, ``table.support(budgets)`` takes one budget
per row and reads every row's support in one call: the 1-spike walk-back
runs all rows in lockstep, one vector step per level, and the 2-spike one
loops over the rows, reading each level's flags once as ``bytes``.  A
table built on a vector keeps the scalar walk.  A block padded
with trailing zeros has the same values and supports as the block alone
on every level the block runs, and its levels past its own packing limit
gain exactly 0, so a batch of blocks of different lengths needs no
per-row length or budget.  :func:`batch_rows` groups rows into
batches, shortest first, under a private cap on one level's cells.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .model import as_weights, check_count, check_delta, max_support_size

__all__ = [
    "DpTable1",
    "DpTable2",
    "batch_rows",
    "build_table_1spike",
    "build_table_2spike",
    "dp_solve",
    "dp_solve_2spike",
    "dp_solve_unrestricted",
    "table_builder",
    "table_cells",
]


def _prepare(x, budget: int, delta: int) -> tuple[np.ndarray, int, int, int]:
    """Validated weights, a vector or a 2-D array of rows, the row length
    ``n``, ``budget`` through :func:`check_count` as ``k``, least 0, and
    ``delta`` through :func:`check_delta`.

    Every row of a 2-D ``x`` is checked like a vector by :func:`as_weights`.
    """
    arr = np.asarray(x)
    x = as_weights(arr.ravel()).reshape(arr.shape) if arr.ndim == 2 else as_weights(arr)
    n = x.shape[-1]
    delta = check_delta(delta, n)
    return x, n, check_count(budget, "k", 0), delta


def _levels(n: int, budget: int, delta: int, p: int) -> int:
    """The levels a budget-``budget`` table runs: the checked budget capped at the packing limit."""
    return min(budget, max_support_size(n, delta, p))


def _nearest_take(row: np.ndarray, i: int) -> int:
    """Largest index i' <= i whose bit is set in the packed row, or 0 if none.

    Bit 0 is a dummy 0, so 0 doubles as the "no take" sentinel.  The byte
    holding bit i is tested first; when it holds no take at or before i,
    the last nonzero byte before it is found in one C-speed scan, the
    length of the preceding bytes with their trailing zero bytes stripped.
    """
    b = i >> 3
    # packbits is big-endian within a byte: bit j of the row is value bit 7 - j % 8.
    byte = int(row[b]) & (0xFF00 >> ((i & 7) + 1))
    if not byte:
        b = len(row[:b].tobytes().rstrip(b"\0")) - 1
        if b < 0:
            return 0
        byte = int(row[b])
    return (b << 3) + 8 - (byte & -byte).bit_length()


class _DpTable(Sequence):
    """Per-level optima and packed take-flags of a budgeted recurrence.

    The table runs levels 1 to ``top``, the budget capped at the packing
    limit, where levels stop changing.  ``values[ell-1]`` is the optimum
    with budget ``ell`` and ``flags`` holds levels 0 to ``top``.  As a
    read-only sequence of those ``top`` levels, item ``j`` is the support
    for budget ``j + 1``, built by :meth:`support` on first access and then
    cached.  ``support(ell)`` answers every budget from 0 to ``budget``,
    the limit's support past ``top``.

    A table built on a 2-D array of rows holds every row's levels in
    ``values[r]`` and ``flags[..., r, :]``, the values and flags a builder
    returns for that row alone.
    """

    def __init__(self, values: np.ndarray, flags: np.ndarray, budget: int, delta: int, n: int):
        self.values = values
        self.flags = flags
        self.budget = budget
        self.delta = delta
        self.n = n
        self._built: list[tuple[int, ...] | None] = [None] * values.shape[-1]

    def __len__(self) -> int:
        return self.values.shape[-1]

    def __getitem__(self, j) -> tuple[int, ...]:
        j = range(len(self))[j]
        sol = self._built[j]
        if sol is None:
            sol = self._built[j] = self.support(j + 1)
        return sol

    def support(self, ell):
        """Reconstruct an optimal support for budget ``ell``.

        On a table built on a vector ``ell`` is an int and the support a
        tuple.  On a table built on rows ``ell`` holds one budget per row,
        0 for none, as an int array (object dtype for Python ints past
        int64, each entry checked like a scalar budget), and every row is
        read in one call.  The result is
        ``(row, at)``, int arrays naming each picked index by its row and
        1-based position, in row order and ascending within a row: for
        each row ``r``, the support of budget ``ell[r]`` on the table built
        on that row alone.
        """
        if self.values.ndim == 1:
            return self._walk_row(self.flags, self._start_level(ell))
        return self._walk_rows(self._start_levels(ell))

    def _start_level(self, ell: int) -> int:
        """The flag level a budget-``ell`` walk starts at."""
        ell = check_count(ell, "k", None)
        if not 0 <= ell <= self.budget:
            raise ValueError(f"level {ell} outside [0, {self.budget}]")
        return min(ell, len(self))

    def _start_levels(self, ell) -> np.ndarray:
        """The flag level each row's walk starts at, for per-row budgets ``ell``."""
        ell = np.asarray(ell)
        if ell.dtype.kind not in "iuO" or ell.shape != self.values.shape[:1]:
            raise ValueError(f"expected {self.values.shape[0]} integer budgets, got {ell!r}")
        if ell.dtype.kind == "O":
            # An object array may hold anything; each entry must be a budget.
            ell = np.array([check_count(e, "k", None) for e in ell.tolist()], dtype=object)
        if ell.size and not (ell.min() >= 0 and ell.max() <= self.budget):
            raise ValueError(f"levels {ell} outside [0, {self.budget}]")
        return np.minimum(ell, len(self)).astype(np.intp)


# For each byte value, the offset in its byte of the last bit set (packbits
# is big-endian: bit j of a row is value bit 7 - j % 8), and the mask that
# keeps the bits at offsets 0 to j.
_LAST_BIT = np.array([8 - (b & -b).bit_length() for b in range(256)], dtype=np.intp)
_UP_TO = np.array([(0xFF00 >> (j + 1)) & 0xFF for j in range(8)], dtype=np.uint8)


class DpTable1(_DpTable):
    """Tables of the 1-spike recurrence.

    ``flags[ell]`` is the packed row of prefixes ``i`` at which the level-
    ``ell`` maximum was attained by taking index ``i``.  A batch reads its
    rows' supports in lockstep, one vector step per level.
    """

    def _walk_row(self, flags: np.ndarray, lev: int) -> tuple[int, ...]:
        """The support read back from level ``lev`` of one row's ``flags``:
        each pick is the nearest take at or before the walk's position, and
        the walk resumes ``delta`` before it one level down."""
        sol: list[int] = []
        i = self.n
        while lev >= 1 and i >= 1:
            i = _nearest_take(flags[lev], i)
            if i == 0:
                break
            sol.append(i)
            lev -= 1
            i -= self.delta
        return tuple(reversed(sol))

    def _walk_rows(self, lev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_walk_row` on every row at once: each step finds, for
        every row still walking, the nearest take at or before its position
        in its own level's flags, by :func:`_nearest_take`'s rule."""
        nbytes = self.flags.shape[-1]
        cols = np.arange(nbytes)
        rows = np.flatnonzero(lev)
        lev = lev[rows]
        i = np.full(rows.size, self.n)
        found_rows, found_at = [rows[:0]], [rows[:0]]
        while rows.size:
            every = np.arange(rows.size)
            byte = self.flags[lev, rows]
            b = i >> 3
            byte[every, b] &= _UP_TO[i & 7]
            live = (byte != 0) & (cols <= b[:, None])
            last = nbytes - 1 - live[:, ::-1].argmax(axis=1)
            hit = live[every, last]
            i = (last << 3) + _LAST_BIT[byte[every, last]]
            rows, lev, i = rows[hit], lev[hit] - 1, i[hit]
            found_rows.append(rows)
            found_at.append(i)
            i = i - self.delta
            more = (lev >= 1) & (i >= 1)
            rows, lev, i = rows[more], lev[more], i[more]
        row, at = np.concatenate(found_rows), np.concatenate(found_at)
        order = np.lexsort((at, row))
        return row[order], at[order]


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# The columns each segment of a split 1-spike forward pass holds at least.
# Below about this length a level's vector work is too short to pay for
# handing part of it to another thread and back.
_SPLIT_MIN = 1 << 16


def _segments(lo: int, n: int, cpus: int) -> list[tuple[int, int]]:
    """The column segments ``(a, b)`` of one level of a vector's 1-spike
    forward pass that runs columns ``lo`` to ``n - 1``, in a process that
    may run on ``cpus`` CPUs.

    The columns are cut into one segment per CPU, as far as each keeps
    ``_SPLIT_MIN`` columns.  Segment ``(a, b)`` holds columns ``a`` to
    ``b - 1``, prefixes ``a + 1`` to ``b``.
    """
    count = min(cpus, (n - lo) // _SPLIT_MIN)
    if count < 2:
        return [(lo, n)]
    cuts = [lo + (n - lo) * j // count for j in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_segments(pool: ThreadPoolExecutor | None, work: Callable[[int], None], count: int) -> None:
    """``work(j)`` for ``j`` in ``range(count)``: segment 0 on this thread,
    each later one on a worker of ``pool`` (``None`` when ``count`` is 1).
    A worker runs in a copy of this thread's context, so under its numpy
    error state.  All have finished, or one has raised here, on return;
    ``pool``'s shutdown waits out the rest."""
    futures = []
    for j in range(1, count):
        futures.append(pool.submit(contextvars.copy_context().run, work, j))
    work(0)
    for future in futures:
        future.result()


def _predecessors(pos: np.ndarray, delta: int) -> np.ndarray:
    """For each of the sorted 1-based nonzero positions ``pos``, how many
    lie at or before it minus ``delta``: the 1-based rank of the last
    nonzero a pick there may follow, 0 for none."""
    return np.searchsorted(pos, pos - delta, side="right")


def build_table_1spike(x, budget: int, delta: int) -> DpTable1:
    """Run the budgeted 1-spike recurrence on ``x`` for all levels <= budget.

    ``x`` is a vector or a 2-D array of rows; every level runs once for
    all rows, each row on its own along the last axis.

    A prefix of ``i <= (ell - 1) * delta`` weights holds fewer than ``ell``
    picks, so there level ``ell`` is level ``ell - 1``, values and take
    flags alike.  Level ``ell`` therefore runs only prefixes ``lo + 1`` to
    ``n``, ``lo = (ell - 1) * delta``: the level below at prefix ``lo``,
    the carry, goes into a leading slot of the candidates, and the
    running maximum starts from it.  The next level reads this one's row
    from prefix ``lo + 1`` on only, so the frozen prefixes are neither
    filled nor copied.  The take staging below prefix ``lo + 1`` still
    holds the level below's flags, so the level packs it whole.

    The running maximum is ``np.fmax.accumulate``.  The weights hold no
    NaN, and every candidate is a weight plus a value that starts at
    +0.0, so no -0.0 arises and a sum can only overflow to +inf.  Without
    NaN or signed zeros ``fmax`` and ``maximum`` agree bit for bit.

    A long vector's levels run split into column segments over
    ``[lo, n)`` (see :func:`_segments`), one on this thread and each other
    one on a worker of a pool that lives for this call; this thread then
    raises each later segment to the row's maximum before it.

    A vector with at most half its weights nonzero runs the nonzero pass
    instead, on this thread, over its sorted 1-based nonzero positions
    ``pos``.  The computed levels are non-decreasing in the prefix, each
    row being a running maximum, and in the budget: level 0 is 0, and
    each candidate of level ``ell`` adds its weight to an entry of level
    ``ell - 1`` no smaller than the entry level ``ell - 1`` adds it to,
    rounded addition being monotone.  So at a zero weight past ``lo`` the
    candidate is ``+0.0 + prev[i - delta] = prev[i - delta] <= prev[i - 1]
    <= row[i - 1]`` (a -0.0 weight gives the same sum): a zero weight
    never takes and never moves the row, and each row is constant from
    one nonzero to the next.  A level's row is therefore kept at the
    nonzeros alone.  Level ``ell`` starts at the first nonzero past
    ``lo``, carrying the level below at the nonzero before it, which is
    its value at prefix ``lo``.  The ``j``-th nonzero's candidate is
    ``w[j] + prev[pred[j]]``, ``pred[j]`` being the last nonzero at or
    before ``pos[j] - delta`` (:func:`_predecessors`), whose value is the
    level below's at prefix ``pos[j] - delta``.  The running maximum is
    ``np.fmax.accumulate`` from the carry.  These are the full pass's
    additions and maxima on the same operands, so the values and take
    flags are the same, bit for bit.  The takes are written into the same
    staging at ``pos`` and every level packs it whole, so a level costs
    O(nnz) plus O(n / 8) packing.  On a dense vector the gathers cost more
    than the prefixes they skip (at n = 4e5, k = delta = 316, on a 2-core
    VM, the two passes broke even at about 40 % nonzero with the full
    pass's second thread and 70 % without), so the rule is fixed at half.
    """
    x, n, budget, delta = _prepare(x, budget, delta)
    rows = x.shape[:-1]
    s = min(delta, n)
    top = _levels(n, budget, delta, 1)
    nbytes = (n + 8) // 8
    flags = np.zeros((top + 1, *rows, nbytes), dtype=np.uint8)
    values = np.zeros((top, *rows))
    # Whole bytes per row, so packing the flat array packs each row.  Below
    # lo + 1 it still holds the level below's flags, which are this level's.
    take = np.zeros((*rows, 8 * nbytes), dtype=bool)
    if not rows and 2 * np.count_nonzero(x) <= n:
        # The nonzero pass.  Slot j of a level's row is its value at the
        # j-th nonzero (1-based), slot 0 the 0.0 before the first, and
        # cand[j] the j-th nonzero's candidate; a level that runs from slot
        # a holds its carry in cand[a].
        pos = np.flatnonzero(x) + 1
        w = x[pos - 1]
        pred = _predecessors(pos, delta)
        m = pos.size
        prev, row, cand = np.zeros(m + 1), np.zeros(m + 1), np.empty(m + 1)
        # Level ell runs the nonzeros past (ell - 1) * delta, from slot a.
        starts = np.searchsorted(pos, np.arange(top) * delta, side="right")
        for ell, a in enumerate(starts.tolist(), 1):
            cand[a] = prev[a]
            np.add(w[a:], prev[pred[a:]], out=cand[a + 1 :])
            np.fmax.accumulate(cand[a:], out=row[a:])
            take[pos[a:]] = cand[a + 1 :] > row[a:m]
            flags[ell] = np.packbits(take)
            values[ell - 1] = row[m]
            prev, row = row, prev
        return DpTable1(values, flags, budget, delta, n)
    took = take[..., 1 : n + 1]
    # Level rows live at [..., s:]; [..., 1 : n + 1] is prev[i - delta] for i = 1..n.
    prev = np.zeros((*rows, s + n + 1))
    row = np.zeros((*rows, s + n + 1))
    # cand[..., i] is prefix i's candidate; a level that runs from column
    # lo holds its carry, the level below at prefix lo, in cand[..., lo].
    cand = np.empty((*rows, n + 1))
    # Only a vector long enough to split reads the CPU count.
    cpus = _usable_cpus() if not rows and n >= 2 * _SPLIT_MIN else 1
    segments = _segments(0, n, cpus)

    def extend(j: int) -> None:
        """Segment ``j``'s candidates, their running maximum and their take
        flags against it.  Segment 0 runs from the carry, a later one from
        its own first candidate; a later segment's first flag is left to
        the calling thread: it reads the row entry the segment before
        writes."""
        lo, hi = segments[j]
        first = lo + (j > 0)
        np.add(x[..., lo:hi], prev[..., 1 + lo : 1 + hi], out=cand[..., 1 + lo : 1 + hi])
        np.fmax.accumulate(cand[..., first : 1 + hi], axis=-1, out=row[..., s + first : s + 1 + hi])
        np.greater(cand[..., 1 + first : 1 + hi], row[..., s + first : s + hi], out=took[..., first:hi])

    # One segment runs on this thread alone: a pool for it would cost a
    # short table (n = 200, k = 5) about a fifth of its time.
    workers = len(segments) - 1
    with ThreadPoolExecutor(workers) if workers else contextlib.nullcontext() as pool:
        for ell in range(1, top + 1):
            lo = (ell - 1) * delta
            segments = _segments(lo, n, cpus)
            cand[..., lo] = prev[..., s + lo]
            _run_segments(pool, extend, len(segments))
            # A later segment is a vector's.  max is exact, so raising it to
            # the row's maximum before it makes the split row the whole one.
            for a, b in segments[1:]:
                carry = row[s + a]
                seg = row[s + 1 + a : s + 1 + b]
                below = np.searchsorted(seg, carry, side="right")
                seg[:below] = carry
                took[a] = cand[1 + a] > carry
                # Up to the last raised entry cand <= the segment's own
                # maximum <= carry, so none of those prefixes takes.
                took[a + 1 : a + below] = False
            flags[ell] = np.packbits(take).reshape(flags.shape[1:])
            values[ell - 1] = row[..., s + n]
            prev, row = row, prev
    return DpTable1(values.T, flags, budget, delta, n)


class DpTable2(_DpTable):
    """Tables of the 2-spike recurrence.

    The forward state is (prefix r, recent-window width i, budget ell);
    ``flags[ell, i]`` is the packed row of prefixes ``r`` with a take at
    that state.  A batch walks its rows back one at a time: the walk-backs
    are a few per cent of a 2-spike slice, next to its forward pass.
    """

    def _walk_row(self, flags: np.ndarray, lev: int) -> tuple[int, ...]:
        """The support read back from level ``lev`` of one row's ``flags``.

        Each level's flags are read once, as ``bytes``, when the walk
        enters it: indexing those gives a Python int per step.  The walk
        starts at width 1, which scans its row with :func:`_nearest_take`,
        so the first bytes are read after the first take."""
        delta = self.delta
        nbytes = flags.shape[-1]
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
                level = flags[lev].tobytes()
            elif level[i * nbytes + (r >> 3)] >> (7 - (r & 7)) & 1:
                sol.append(r)
                lev -= 1
                r -= i
                i = delta - i
                level = flags[lev].tobytes()
            else:
                r -= 1
                i -= 1
        return tuple(reversed(sol))

    def _walk_rows(self, lev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every row's support from its start level ``lev[r]``, one row at a time."""
        row: list[int] = []
        at: list[int] = []
        for r in np.flatnonzero(lev).tolist():
            sol = self._walk_row(self.flags[..., r, :], int(lev[r]))
            row += [r] * len(sol)
            at += sol
        return np.array(row, dtype=np.intp), np.array(at, dtype=np.intp)


def build_table_2spike(x, budget: int, delta: int) -> DpTable1 | DpTable2:
    """Run the budgeted 2-spike recurrence on ``x`` for all levels <= budget.

    ``x`` is a vector or a 2-D array of rows, as for
    :func:`build_table_1spike`.  With ``delta == 1`` the window constraint
    is vacuous and the 1-spike recurrence at separation 1 solves the same
    problem, so we reuse it.

    The pass runs prefix-major (see the module docstring): every width
    step from width 2 up is two calls on contiguous memory, an add into
    the width's row and its maximum with the skip branch.  The take flags
    are set after the width loop, two compares for all widths: a prefix
    takes where its value beats the skip branch, and ``max(c, k) > k``
    exactly when ``c > k`` (the weights hold no NaN).  The take staging
    has the level buffer's layout, so the skip branch of every width from
    2 up is a constant offset in the flat buffer and one contiguous
    compare covers them all.  The flags keep one packed row per batch row.
    """
    x, n, budget, delta = _prepare(x, budget, delta)
    if delta == 1:
        return build_table_1spike(x, budget, 1)
    rows = x.shape[:-1]
    s = delta - 1
    top = _levels(n, budget, delta, 2)
    nbytes = (n + 8) // 8
    flags = np.zeros((top + 1, delta, *rows, nbytes), dtype=np.uint8)
    # Prefix-major: the batch axis is innermost, so every width's operands
    # are contiguous (a vector is one column).
    w = np.ascontiguousarray(np.atleast_2d(x).T)
    R = w.shape[1]
    values = np.zeros((top, R))
    # Levels alternate between two buffers.  A row is L cells, s + n + 1
    # rounded up to whole bytes of flags.  Width i's row of a level lives
    # at [i - 1, s:, :], prefix j at s + j; every other cell stays 0.  A
    # level reads each width's row from its prefix 1 and from its prefix
    # 0, and ``shifted[prev]`` row q from its prefix q + 1 - s, so width i's
    # take branch, the previous level's width-(delta - i) row at prefixes
    # 1 - i to n - i, is ``shifted[..., s - i]``.  Views are made per
    # level where that keeps fewer alive, and ``shifted`` is a plain
    # ndarray on the buffer (``as_strided`` keeps about 1 KB more): the
    # recovery tables are small enough for a view's few hundred bytes to
    # count.
    L = -(-(s + n + 1) // 8) * 8
    bufs = np.zeros((2, s, L, R))
    level, width, prefix, batch = bufs.strides
    shifted = np.ndarray((2, s, n, R), bufs.dtype, bufs, prefix, (level, width + prefix, prefix, batch))
    shifted.flags.writeable = False
    # take[i, j] is width i + 1's flag at prefix j, whose value is at
    # bufs[:, i, s + j].  From width 2 up its skip branch, width i at
    # prefix j - 1, is L + 1 cells before that in the flat buffer, so one
    # compare runs over take[1:], up to the buffer's end.  Cells at prefix
    # 0, past n and in the next row's leading s hold 0, which beats no
    # value, so every bit outside prefixes 1 to n stays 0.
    take = np.zeros((s, L, R), dtype=bool)
    took = take[0, 1 : n + 1]
    flat = bufs.reshape(2, -1)
    cells = max(0, ((s - 1) * L - s) * R)
    taken = take.reshape(-1)[L * R : L * R + cells]
    beat, beaten = (L + s) * R, (s - 1) * R
    for ell in range(1, top + 1):
        prev, cur = ell % 2, 1 - ell % 2
        P, V, before = shifted[prev], bufs[cur, :, s + 1 : s + n + 1], bufs[cur, :, s : s + n]
        # Width 1: the skip branch references the same column one step back,
        # which makes the column a running maximum; a prefix takes where
        # that maximum rises.
        np.add(w, P[s - 1], out=V[0])
        np.fmax.accumulate(V[0], axis=0, out=V[0])
        for row, term, skip in zip(V[1:], P[s - 2 :: -1], before):
            # Each width's candidates go straight into its row.
            np.add(w, term, out=row)
            np.maximum(row, skip, out=row)
        np.greater(V[0], before[0], out=took)
        np.greater(flat[cur, beat:], flat[cur, beaten : beaten + cells], out=taken)
        # Flags keep one packed row per batch row: packing the swapped
        # staging packs a row-major copy of a batch's (a vector's is a view).
        flags[ell, 1:] = np.packbits(take.swapaxes(1, 2)).reshape(s, *rows, L // 8)[..., :nbytes]
        values[ell - 1] = V[0, n - 1]
    return DpTable2(values.reshape(top, *rows).T, flags, budget, delta, n)


def table_builder(p: int) -> Callable[..., DpTable1 | DpTable2]:
    """The budgeted recurrence for spike count ``p``.

    ``build_table_1spike`` for ``p = 1`` and ``build_table_2spike`` for
    ``p = 2``.  ``p`` goes through :func:`model.check_count` first, and a
    ``p`` with no exact solver raises ``ValueError``.  The builder is looked up
    when called, so a replaced module attribute is the one returned.
    """
    p = check_count(p, "p")
    if p == 1:
        return build_table_1spike
    if p == 2:
        return build_table_2spike
    raise ValueError(f"no exact solver for p={p}; only p = 1 and p = 2 are supported")


# The cells one level of a batched forward pass may hold: rows times their
# padded length, times the clamped delta for p = 2.
_BATCH_CELLS = 1 << 16


def batch_rows(lengths: np.ndarray, delta: int, p: int) -> list[np.ndarray]:
    """Indices of rows of the given ``lengths`` grouped into batches, one
    builder call each.

    Rows are taken shortest first and a batch pads each to its longest
    row with trailing zeros.  A batch holds at least one row and grows
    while one level of its forward pass stays within a private cell cap
    and padding at most doubles its cells.  ``lengths`` that are not a 1-D
    integer numpy array raise ``ValueError``.
    """
    if not (isinstance(lengths, np.ndarray) and lengths.ndim == 1 and lengths.dtype.kind in "iu"):
        raise ValueError(f"lengths must be a 1-D integer numpy array, got {lengths!r}")
    table_builder(p)  # raises for a p with no exact solver
    delta = check_delta(delta, int(lengths.max(initial=0)))
    order = np.argsort(lengths, kind="stable")
    width = lengths[order]
    level_cells = width * np.minimum(width, delta) if p == 2 else width
    batches = []
    start = 0
    while start < order.size:
        padded = level_cells[start:] * np.arange(1, order.size - start + 1)
        over = np.flatnonzero((padded > _BATCH_CELLS) | (padded > 2 * level_cells[start:].cumsum()))
        stop = start + (max(1, int(over[0])) if over.size else padded.size)
        batches.append(order[start:stop])
        start = stop
    return batches


def table_cells(n: int, k: int, delta: int, p: int) -> int:
    """The cells the budget-``k`` table for spike count ``p`` fills on ``n``
    weights: ``n`` per level it runs, times the clamped ``delta`` for ``p = 2``."""
    table_builder(p)  # raises for a p with no exact solver
    n = check_count(n, "n", None)
    return _levels(n, check_count(k, "k", 0), delta, p) * n * (check_delta(delta, n) if p == 2 else 1)


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
    at its predecessor, the last nonzero at or before ``i - delta``.  The
    support is read back from the same lists: from the last nonzero, a
    take is picked and the walk jumps to its predecessor, a skip steps to
    the nonzero before it.
    """
    x = as_weights(x)
    delta = check_delta(delta, x.size)
    pos = np.flatnonzero(x) + 1
    # best[j] is the prefix optimum through the j-th nonzero (1-based), and
    # pred names each nonzero's predecessor by that j, 0 (best 0.0) for none.
    pred = _predecessors(pos, delta).tolist()
    best = [0.0]
    took = []
    for w, j in zip(x[pos - 1].tolist(), pred):
        cand = w + best[j]
        took.append(cand > best[-1])
        best.append(cand if took[-1] else best[-1])
    sol = []
    j = len(took)
    while j:
        if took[j - 1]:
            sol.append(int(pos[j - 1]))
            j = pred[j - 1]
        else:
            j -= 1
    return best[-1], tuple(reversed(sol))


def dp_solve_2spike(x, k: int, delta: int) -> tuple[np.ndarray, Sequence[tuple[int, ...]]]:
    """Budgeted 2-spike solver; see :func:`dp_solve` for the return shape."""
    return _solved(build_table_2spike(x, k, delta))
