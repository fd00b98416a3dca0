"""Exact dynamic-programming solvers for separated-sparsity projection.

Three solvers, one search and one exact entry live here:

* :func:`build_table_1spike` -- the budgeted 1-spike recurrence, O(k n);
  on a vector at most half nonzero, such as a spike train, O(k nnz) plus
  O(k n / 8) flag packing; on a long dense vector it skips the blocks of
  prefixes that cannot raise a level's running maximum.
* :func:`build_table_2spike` -- the budgeted 2-spike recurrence,
  O(k delta n).
* :func:`_unrestricted` -- the budget-free solver for ``p`` 1 or 2, a
  Python loop over sorted candidate positions and, for ``p = 2``, the
  candidates within ``delta`` before each.  :func:`dp_solve_unrestricted`
  is its checked 1-spike entry, on sorted positions and their weights.
* :func:`_certified_2spike` -- the budget-``k`` 2-spike optimum of a
  slice by a Lagrangian search over the budget-free 2-spike solver,
  returned only with a certificate that it is the support the slice's
  tables read back; :func:`certified_solver` maps ``p`` to it.
* :func:`exact_support` -- the checked exact support of a whole vector
  for spike count ``p``: the certified search over its nonzero weights,
  the table when there is no search for ``p`` or it declines.
  ``am_iht``'s exact steps call it.

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
a table by the levels it runs, an upper bound on the cells it fills; no
other module works out a table's size.
The budget-free solver keeps each candidate's state and predecessor in
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
(ell - 1) * delta``, from a carry, the level below at prefix ``lo``,
written into its row at ``lo``.  Every 1-spike level runs in place in its
row buffer: the candidates are added into the row, whose running maximum
is taken in place, and a prefix takes where the row rises (see
:func:`build_table_1spike`).  A dense level of a vector or a batch runs
one kernel, :func:`_straight`, along the last axis.  The 2-spike pass
runs every level on every prefix: skipping measured slower there on
short tables, such as recovery's exact head and the ``head(p=2)``
slices, built now only where the certified search declines.

A zero weight never takes and never moves a 1-spike row, so a vector with
at most half its weights nonzero runs each level over its nonzero weights
only, the nonzero pass: each reads the level below at its predecessor,
the last nonzero at least ``delta`` before it, the rule
:func:`_unrestricted` steps by too.  The take flags are scattered
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

The full 1-spike pass on a vector of at least ``_BLOCK_MIN`` (32,768)
weights, the block pass, cuts the prefixes into blocks of ``_BLOCK`` (32)
weights on a fixed grid.  Each row buffer also keeps the row at every
block's end and which blocks it holds.  At each level the pass skips
every block whose upper bound, its heaviest weight plus the level below
at the end of the block that holds its last prefix minus ``delta``, does
not beat a lower bound on the row before it: the carry and each earlier
block's heaviest weight plus the level below at a block end before that
weight's prefix minus ``delta``.  Both bounds are slices of the level
below's block ends.  A skipped block has no take and a constant row, so
only the live blocks are summed, run through one running maximum and
written; a skipped block is kept as its one block-end value and written
out only where a later level reads it.  The part blocks at both ends,
and every level with more than half its blocks live, run straight.
Values and flags are the straight pass's bit for bit (see
:func:`build_table_1spike`).  Batches and shorter vectors run every level
straight.  Nothing here starts a thread or reads the CPU count.

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

from collections.abc import Callable, Sequence

import numpy as np

from .model import as_positions, as_weights, check_count, check_delta, max_support_size

__all__ = [
    "DpTable1",
    "DpTable2",
    "batch_rows",
    "build_table_1spike",
    "build_table_2spike",
    "certified_solver",
    "dp_solve",
    "dp_solve_2spike",
    "dp_solve_unrestricted",
    "exact_support",
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


# A dense vector of at least this many weights runs the block pass; on a
# shorter one its bounds cost about as much as the prefixes they skip.
_BLOCK_MIN = 1 << 15

# The weights in one block of the block pass.
_BLOCK = 32


def _straight(x: np.ndarray, prev: np.ndarray, row: np.ndarray, took: np.ndarray, s: int, a: int, b: int) -> None:
    """Run columns ``a`` to ``b - 1`` of a level of the 1-spike pass, on a
    vector or on every row of a batch, prefixes ``a + 1`` to ``b``, from
    the row's entry at prefix ``a``.

    The candidates go into the row, whose running maximum is then taken in
    place, and a prefix takes exactly where the row rises: ``max(r, c) > r``
    exactly when ``c > r``."""
    run = row[..., s + a : s + 1 + b]
    np.add(x[..., a:b], prev[..., 1 + a : 1 + b], out=run[..., 1:])
    np.fmax.accumulate(run, axis=-1, out=run)
    np.greater(run[..., 1:], run[..., :-1], out=took[..., a:b])


def _write_out(prev: np.ndarray, ends: np.ndarray, held: np.ndarray, s: int, lead: int, blocks: np.ndarray) -> None:
    """Write into the row buffer ``prev`` each of ``blocks`` that it does
    not hold, as that block's end: a skipped block's row is constant.

    ``ends`` and ``held`` are the buffer's, laid out as in
    :func:`_block_level` with ``lead`` entries before block 0; ``blocks``
    may name those and the tail, which are held."""
    blocks = blocks[~held[lead + blocks]]
    nb = held.size - lead - 1
    prev[s + 1 : s + 1 + nb * _BLOCK].reshape(nb, _BLOCK)[blocks] = ends[lead + blocks, None]


def _block_level(
    x: np.ndarray,
    prev: np.ndarray,
    row: np.ndarray,
    took: np.ndarray,
    s: int,
    lo: int,
    xmax: np.ndarray,
    ends: np.ndarray,
    held: np.ndarray,
) -> bool:
    """Run columns ``lo`` to ``n - 1`` of a level of the block pass, its
    carry included; whether it skipped blocks.

    Block ``b`` holds columns ``b * _BLOCK`` to ``(b + 1) * _BLOCK - 1``,
    its heaviest weight ``xmax[b]``.  Row 0 of
    ``ends`` and ``held`` belongs to ``prev``, the level below's row
    buffer, and row 1 to this level's ``row``.  Entry ``lead + b``, with
    ``lead = s // _BLOCK + 2``, is the buffer's row at block ``b``'s last
    prefix, and whether the buffer holds block ``b``'s values; the entries
    before stand for the prefixes at or below 0 (0.0, held), and the last
    for the tail (held).  The part block at ``lo``, the one at ``n`` and a
    level where more than half the blocks are live run straight
    (:func:`_straight`).  The live blocks run in one running maximum from
    the row's value before the first; every other block is left
    unwritten, its row being its block end, and takes nothing.  A block of
    ``prev`` that is read and not held is written out first (see
    :func:`build_table_1spike`)."""
    n, nb, B = x.size, xmax.size, _BLOCK
    lead = s // B + 2
    pend, rend = ends
    pheld, rheld = held
    first = -(-lo // B)
    a, z = first * B, nb * B

    def straight(i: int, j: int) -> None:
        # Columns i to j - 1 read the level below at prefixes i + 1 - s to
        # j - s; the blocks that hold them are written out first.
        _write_out(prev, pend, pheld, s, lead, np.arange((i - s) // B, (j - s - 1) // B + 1))
        _straight(x, prev, row, took, s, i, j)

    # The carry, the level below at prefix lo: its block end if that block
    # is not held.
    c = lead + (lo - 1) // B
    row[s + lo] = prev[s + lo] if pheld[c] else pend[c]
    if first >= nb:
        straight(lo, n)
        rheld[lead + lo // B : lead + nb] = True
        return False
    straight(lo, a)
    start = row[s + a]
    rheld[lead + first - 1] = True
    # Block b's upper bound reads the level below at the end of the block
    # that holds prefix (b + 1) * B - s; its lower term, at most its exact
    # candidate at its heaviest weight, reads it at the end of the block
    # before the one that holds b * B + 1 - s.
    upper_at = lead + (B - 1 - s) // B
    lower_at = lead + (1 - s) // B - 1
    with np.errstate(over="ignore"):
        upper = xmax[first:] + pend[upper_at + first : upper_at + nb]
    lower = np.empty(upper.size)
    lower[0] = start
    np.add(xmax[first:-1], pend[lower_at + first : lower_at + nb - 1], out=lower[1:])
    np.fmax.accumulate(lower, out=lower)
    live = upper > lower
    ids = np.flatnonzero(live)
    if 2 * ids.size > live.size:
        straight(a, n)
        rend[lead + first : lead + nb] = row[s + a + B : s + z + 1 : B]
        rheld[lead + first : lead + nb] = True
        return False
    ids += first
    # Live block b reads the level below at prefixes b * B + 1 - s to
    # (b + 1) * B - s, in block b - ceil(s / B) and, unless s is a multiple
    # of B, the next.
    under = ids + -s // B
    _write_out(prev, pend, pheld, s, lead, np.concatenate((under, under + 1)) if s % B else under)
    # run[0] is the row before the first block and run[j * B] the row at
    # the end of the j-th live block.
    run = np.empty(1 + ids.size * B)
    run[0] = start
    runs = run[1:].reshape(-1, B)
    np.add(x[:z].reshape(nb, B)[ids], prev[1 : 1 + z].reshape(nb, B)[ids], out=runs)
    np.fmax.accumulate(run, out=run)
    row[s + 1 : s + 1 + z].reshape(nb, B)[ids] = runs
    # Each block from the first ends at the last live end before it.
    rend[lead + first : lead + nb] = np.repeat(run[::B], np.diff(np.concatenate(([first], ids, [nb]))))
    rheld[lead + first : lead + nb] = live
    takes = took[a:z].reshape(-1, B)
    takes[...] = False
    takes[ids - first] = (run[1:] > run[:-1]).reshape(-1, B)
    # The straight tail starts from the last whole block's end.
    row[s + z] = rend[lead + nb - 1]
    if z < n:
        straight(z, n)
    return True


def _predecessors(pos: np.ndarray, delta: int) -> np.ndarray:
    """For each of the sorted 1-based nonzero positions ``pos``, how many
    lie at or before it minus ``delta``: the 1-based rank of the last
    nonzero a pick there may follow, 0 for none.

    ``pos.searchsorted`` with a positional side builds no keyword dict, as
    ``np.searchsorted`` does on each call; CPython keeps such dicts in its
    free lists, which tracemalloc counts."""
    return pos.searchsorted(pos - delta, "right")


def build_table_1spike(x, budget: int, delta: int) -> DpTable1:
    """Run the budgeted 1-spike recurrence on ``x`` for all levels <= budget.

    ``x`` is a vector or a 2-D array of rows; every level runs once for
    all rows, each row on its own along the last axis.

    A prefix of ``i <= (ell - 1) * delta`` weights holds fewer than ``ell``
    picks, so there level ``ell`` is level ``ell - 1``, values and take
    flags alike.  Level ``ell`` therefore runs only prefixes ``lo + 1`` to
    ``n``, ``lo = (ell - 1) * delta``: the level below at prefix ``lo``,
    the carry, is written into the row at ``lo``, and the running maximum
    starts from it.  The next level reads this one's row from prefix
    ``lo + 1`` on only, so the frozen prefixes are neither filled nor
    copied.  The take staging below prefix ``lo + 1`` still holds the
    level below's flags, so the level packs it whole.  A dense level, of
    a vector or of every row of a batch, runs :func:`_straight`: the
    candidates are added into the row after the carry and the running
    maximum is taken in place, so a prefix takes exactly where the row
    rises, and the only full-length float arrays are the two row buffers.

    The running maximum is ``np.fmax.accumulate``.  The weights hold no
    NaN, and every candidate is a weight plus a value that starts at
    +0.0, so no -0.0 arises and a sum can only overflow to +inf.  Without
    NaN or signed zeros ``fmax`` and ``maximum`` agree bit for bit.

    A dense vector of at least ``_BLOCK_MIN`` weights runs the block
    pass (:func:`_block_level`).  Block ``b`` holds columns ``b * B`` to
    ``(b + 1) * B - 1``, ``B = _BLOCK``; its heaviest weight ``xmax[b]``
    is found once per table.  Beside its row, each row buffer keeps
    ``ends``, the row at every block's last prefix (0 for the prefixes at
    or below 0), and ``held``, whether the buffer holds each block's
    values.  Each level's row is non-decreasing, and
    rounded addition is monotone.  So every candidate of block ``b`` is
    at most its upper bound: ``xmax[b]`` plus the level below at the end
    of the block that holds prefix ``(b + 1) * B - delta``, which is at
    or past the prefix its last candidate reads.  The row before a block
    is at least its lower bound: the carry, or the row after the part
    block at ``lo``, and each earlier block ``j``'s lower term,
    ``xmax[j]`` plus the level below at the end of the block before the
    one that holds prefix ``j * B + 1 - delta``.  That end is at or
    before the prefix the exact candidate at ``xmax[j]`` reads, so the
    term is at most that candidate.  Both bounds read ``ends`` at a fixed
    shift of ``b``, so each is a slice; the upper bound is exact when
    ``delta`` is a multiple of ``B``, and otherwise both are a little
    loose, which only runs a few more blocks live.  A block whose upper
    bound does not beat its lower bound has every candidate at most the
    row before it, so it takes nowhere and its row is the constant row
    before it: ``fmax(r, c)`` is ``r`` when ``c <= r``.  Such a block
    cannot move the running maximum, so the row before any block is the
    maximum of that start and the live blocks before it.  The live
    blocks' candidates are therefore summed into one buffer behind that
    start and run through one ``np.fmax.accumulate``: each block's
    maximum starts from its true start, and a live prefix takes where
    that maximum rises.  The part blocks at ``lo`` and at ``n``, and a
    level with more than half its blocks live, run straight
    (:func:`_straight`).

    A skipping level writes only its live blocks and its part blocks into
    its row and marks them held; a skipped block keeps what the buffer
    held before and is marked not held, its take flags are cleared, and
    its end, the last live end before it or the start, goes into
    ``ends``.  A straight stretch marks its blocks held and reads their
    ends from the row.  So a held block holds the level's values from
    prefix ``lo + 1`` on, and an unheld one's value is its end.  A level
    reads the level below at its carry, under its part block, under each
    live block (block ``b``'s candidates read two blocks of the level
    below at a fixed shift of ``b``, one when ``delta`` is a multiple of
    ``B``), under the straight tail from ``z``, the first prefix past the
    last whole block, and under all its blocks when it runs straight.
    Each block read there that the level below did not hold is first
    written out as its end (:func:`_write_out`); the carry reads the end
    itself.  The tail starts from the row at ``z``, which is set to the
    last whole block's end, so it is right when that block was skipped;
    when ``n`` is a multiple of ``B`` it is the level's value.  Ends from
    a level's first whole block on are written at every level.  Those
    before it hold an earlier level's ends, no larger than this level's
    (each level is at least the one below), and only lower terms read
    them, which stay lower bounds: the upper bounds of the next level
    read no end before this level's first whole block.  So every prefix
    a level reads holds the level below's value, every value is the same
    maximum of the same rounded sums, and values and flags are the
    straight pass's bit for bit.  A skipping level writes O(live * B +
    n / B) values besides clearing and packing its take flags.

    The upper bounds are summed under ``np.errstate(over="ignore")``; the
    block pass raises on overflow exactly when the straight pass does.
    Every sum outside that is either a candidate the straight pass adds
    too or a lower term, at most a candidate the straight pass adds, so
    it overflows only if that candidate does.  Conversely a candidate
    that overflows lies in a straight stretch or a live block, where the
    block pass adds it too, or in a block whose upper bound, at least
    that candidate, is then inf; such a block is live unless its lower
    bound is inf too, which takes a lower term that overflowed first.

    A vector with at most half its weights nonzero runs the nonzero pass
    instead, over its sorted 1-based nonzero positions
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
    level below's at prefix ``pos[j] - delta``.  The candidates go into
    the row after the carry and the running maximum is taken in place, as
    in :func:`_straight`.  These are the full pass's additions and maxima
    on the same operands, so the values and take flags are the same, bit
    for bit.  The takes are written into the same
    staging at ``pos`` and every level packs it whole, so a level costs
    O(nnz) plus O(n / 8) packing.  On a dense vector the gathers cost more
    than the prefixes they skip (at n = 4e5, k = delta = 316, on a 2-core
    VM, the straight pass broke even with it at 40 to 70 % nonzero), so
    the rule is fixed at half.
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
        # j-th nonzero (1-based), slot 0 the 0.0 before the first.
        pos = np.flatnonzero(x) + 1
        w = x[pos - 1]
        pred = _predecessors(pos, delta)
        m = pos.size
        prev, row = np.zeros(m + 1), np.zeros(m + 1)
        # Level ell runs the nonzeros past (ell - 1) * delta from slot a,
        # its carry, in place as the straight pass does.
        starts = pos.searchsorted(np.arange(top) * delta, "right")
        for ell, a in enumerate(starts.tolist(), 1):
            row[a] = prev[a]
            np.add(w[a:], prev[pred[a:]], out=row[a + 1 :])
            np.fmax.accumulate(row[a:], out=row[a:])
            take[pos[a:]] = row[a + 1 :] > row[a:m]
            flags[ell] = np.packbits(take)
            values[ell - 1] = row[m]
            prev, row = row, prev
        return DpTable1(values, flags, budget, delta, n)
    took = take[..., 1 : n + 1]
    # Level rows live at [..., s:]; [..., 1 : n + 1] is prev[i - delta] for i = 1..n.
    prev = np.zeros((*rows, s + n + 1))
    row = np.zeros((*rows, s + n + 1))
    blocked = not rows and n >= _BLOCK_MIN
    if blocked:
        xmax = x[: n - n % _BLOCK].reshape(-1, _BLOCK).max(axis=1)
        # Per row buffer, first prev's, then row's: its row at each block's
        # last prefix and whether it holds each block (see _block_level).
        ends = np.zeros((2, s // _BLOCK + 3 + xmax.size))
        held = np.ones(ends.shape, dtype=bool)
    for ell in range(1, top + 1):
        lo = (ell - 1) * delta
        if blocked:
            _block_level(x, prev, row, took, s, lo, xmax, ends, held)
            ends, held = ends[::-1], held[::-1]
        else:
            # The carry: the level below at prefix lo.
            row[..., s + lo] = prev[..., s + lo]
            _straight(x, prev, row, took, s, lo, n)
        flags[ell] = np.packbits(take).reshape(flags.shape[1:])
        values[ell - 1] = row[..., s + n]
        prev, row = row, prev
    return DpTable1(values.T, flags, budget, delta, n)


class DpTable2(_DpTable):
    """Tables of the 2-spike recurrence.

    The forward state is (prefix r, recent-window width i, budget ell);
    ``flags[ell, i]`` is the packed row of prefixes ``r`` with a take at
    that state.  A batch walks its rows back one at a time: the walk-backs
    are a few per cent of a 2-spike slice's tables, next to their forward
    pass, and only slices the certified search declines build them.
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
    """The nominal price of the budget-``k`` table for spike count ``p`` on
    ``n`` weights: ``n`` per level it runs, times the clamped ``delta`` for
    ``p = 2``.  It bounds the cells the table fills from above: 1-spike
    level ``ell`` fills ``n - (ell - 1) * delta`` prefixes, and a spike
    train's levels its nonzeros only."""
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


def dp_solve_unrestricted(pos, y, delta: int) -> tuple[float, tuple[int, ...]]:
    """Budget-free 1-spike solver over the sorted 1-based positions ``pos``
    and their weights ``y``; equivalent to any budget past the packing
    limit.  Returns the optimum and a support attaining it, as positions.

    ``pos`` goes through :func:`model.as_positions`, ``y`` through
    :func:`model.as_weights` and must hold one weight per position, and a
    ``delta`` past the last position cuts nothing, so it is clamped there.
    A whole vector ``x`` is ``pos = 1..n`` with ``y = x``; its zero weights
    may be left out, as none is picked.  The recurrence is
    :func:`_unrestricted`'s with no pair state.
    """
    pos = as_positions(pos, name="pos")
    y = as_weights(y)
    if y.size != pos.size:
        raise ValueError(f"y must hold one weight per position: {y.size} weights for {pos.size} positions")
    delta = check_delta(delta, int(pos[-1]) if pos.size else 0)
    value, idx = _unrestricted(pos, y, delta, 1)
    return value, tuple(pos[idx].tolist())


def dp_solve_2spike(x, k: int, delta: int) -> tuple[np.ndarray, Sequence[tuple[int, ...]]]:
    """Budgeted 2-spike solver; see :func:`dp_solve` for the return shape."""
    return _solved(build_table_2spike(x, k, delta))


def _unrestricted(pos: np.ndarray, y: np.ndarray, delta: int, p: int) -> tuple[float, np.ndarray]:
    """Budget-free ``p``-spike solver, ``p`` 1 or 2, over sorted candidate
    positions and their weights; equivalent to any budget past the packing
    limit.

    ``pos`` is a strictly increasing integer array of 1-based positions and
    ``y`` the float weights there, which may be negative; a weight of at
    most 0 is never picked, and a position left out of ``pos`` counts as a
    zero weight.  Returns the optimum, the largest ascending floating sum
    of the weights of a support on which every ``delta`` consecutive
    positions hold at most ``p`` picks, and the indices into ``pos`` of a
    support attaining it.

    For ``p = 2``, pick ``t + 2`` must lie ``delta`` or more after pick
    ``t``.  So once the pick before the last lies ``delta`` or more back,
    no later pick can come within ``delta`` of it, and the state is the
    last pick alone, a single; otherwise it is the last two picks, a pair
    less than ``delta`` apart.  A single at candidate ``j`` adds its
    weight to the optimum over the candidates at least ``delta`` before
    it.  A pair of ``i`` then ``j`` adds it to the best state at ``i``
    whose earlier pick is at least ``delta`` before ``j``: the single at
    ``i``, or a pair ``(i, h)`` with ``h`` in a prefix of ``i``'s pairs,
    read from their running maximum.
    The work is the number of candidates times the few candidates within
    ``delta`` before each, not ``n * delta`` cells.  Every value is a
    weight added to an earlier value from 0.0, and rounded addition is
    monotone, so the optimum is exactly the largest ascending floating sum,
    the same number the budgeted table reads at the packing limit.  Ties
    are broken toward not taking a candidate, then toward the single and
    the earliest ``i``.  The support is walked back over each state's own
    predecessor.

    For ``p = 1`` every pick must lie ``delta`` or more after the one
    before, so no pair is feasible: the pair loop runs over no candidate
    and only singles exist.  The optimum over the first ``j`` candidates
    is then the larger of the optimum over the first ``j - 1`` and
    candidate ``j``'s single, its weight plus the optimum at its
    predecessor, the last candidate at or before its position minus
    ``delta``, and the single wins only when strictly greater.  That is
    the 1-spike recurrence of the budgeted table past the packing limit,
    with its tie rule toward not taking, stepped from candidate to
    candidate: at any other position the weight is at most 0, so its
    candidate is at most the optimum at the position before and it
    neither takes nor moves the optimum.  With singles only, the state
    attaining the optimum over the first ``j`` candidates is the last take
    among them, and the walk-back picks it and resumes at its predecessor,
    the budgeted walk-back's nearest take ``delta`` before its last pick.
    So for ``p = 1`` the values and the support are the 1-spike
    recurrence's, bit for bit.
    """
    ids = np.flatnonzero(y > 0.0)
    lo = _predecessors(pos[ids], delta).tolist()
    # best[j] is the optimum over the first j candidates and top[j] the
    # state attaining it, (j, i) for the pair of picks i, j and (j, -1) for
    # a single pick j.  runs[j][t] is the best of the single at j and the
    # pairs (j, i) for i from lo[j] to lo[j] + t, as (value, i), i being -1
    # for the single, and via[j][t] the state before pair (j, lo[j] + t):
    # (i, -1) or the pair (i, h).
    best, top = [0.0], [None]
    single, runs, via = [], [], []
    for j, (w, a) in enumerate(zip(y[ids].tolist(), lo)):
        s = w + best[a]
        run, came = [], []
        pv, pi = s, -1
        for i in range(a, j) if p == 2 else ():
            # Pick i may follow a pick at least delta before it, or a pick
            # h less than delta before it that is at least delta before j.
            u, h = single[i], -1
            d = a - lo[i]
            if d > 0 and runs[i][d - 1][0] > u:
                u, h = runs[i][d - 1]
            c = w + u
            came.append(h)
            if c > pv:
                pv, pi = c, i
            run.append((pv, pi))
        single.append(s)
        runs.append(run)
        via.append(came)
        if pv > best[-1]:
            best.append(pv)
            top.append((j, pi))
        else:
            best.append(best[-1])
            top.append(top[-1])
    picks = []
    state = top[-1]
    while state is not None:
        j, i = state
        picks.append(j)
        state = top[lo[j]] if i < 0 else (i, via[j][i - lo[j]])
    return best[-1], ids[picks[::-1]]


# The search runs over at most this many times k of a slice's heaviest
# weights, and gives up after this many evaluations of U2.
_BRACKET = 3
_STEPS = 40


def _certified_2spike(pos: np.ndarray, w: np.ndarray, k: int, delta: int) -> tuple[int, ...] | None:
    """The budget-``k`` 2-spike optimum over the sorted positions ``pos``
    of the nonzero weights ``w``, by a Lagrangian search over the
    budget-free solver; ``None`` unless the optimum is certified to be the
    support that the slice's tables read back.

    *Search.*  For a price ``mu >= 0`` let ``U2(mu)`` be the budget-free
    2-spike optimum on the weights ``x - mu`` (:func:`_unrestricted`).  For
    any feasible ``S`` of at most ``k`` picks, ``x(S) <= U2(mu) + mu * k``, and
    a ``U2(mu)`` optimum of exactly ``k`` picks meets the bound, so it is
    optimal.  The window rows and the cardinality row are intervals, so
    the constraint matrix is totally unimodular and some price reaches
    ``k`` picks unless the optimum's gains tie at ``k``.  The search runs
    over the candidates heavier than the ``(_BRACKET * k + 1)``-th
    heaviest weight ``t`` (all of them when there are fewer) from the
    floor ``t + 2 eta`` (``eta`` below; 0 with every weight a candidate):
    no weight left out can gain at a price from there.  With fewer than
    ``k`` picks at the floor it gives up, unless the floor is 0: then the
    slice holds fewer than ``k`` picks, and the optimum at price 0 is the
    answer.  Otherwise each step goes to where the supporting lines
    ``x(S) - mu |S|`` of the two bracketing supports meet, or bisects when
    rounding puts that outside the bracket; it gives up when the meeting
    point gives either bracket's pick count back, which means no price
    reaches ``k``, or after ``_STEPS`` evaluations.

    *Certificate.*  Let ``S*`` be the support found at price ``mu`` and
    ``a_i = x_i - mu - eta`` on ``S*``, ``x_i - mu + eta`` off it.  Every
    feasible ``S`` has ``a(S) = x(S) - mu |S| - eta |S & S*| + eta |S -
    S*|``, so if ``S*`` is within ``tau`` of the best ``a(S)``, then for
    every feasible ``S != S*`` of at most ``k`` picks (using ``mu >= 0``,
    and ``|S*| = k`` or ``mu = 0``) ``x(S*) - x(S) >= eta |S ^ S*| - tau
    >= eta - tau``.  The weights left out have ``a_i <= t - mu + eta <=
    0`` and can be dropped.  The search runs :func:`_unrestricted` on
    the rounded ``a`` and accepts only if it returns ``S*``.  With ``m``
    candidates, ``u = 2**-53``, ``gamma_j = j u / (1 - j u)`` and ``X`` the
    heaviest weight, every ``|a_i|`` and its rounding error is at most
    ``3 X`` and ``4 u X`` (``mu``, ``eta <= X``), and a sum of at most
    ``m`` of them rounds within ``gamma_m`` of their absolute sum, so
    ``tau <= 2 m (3 gamma_m + 4 u) X``: the computed optimum dominates the
    rounded sum of every support, and ``S*``'s rounded sum is that
    optimum.

    *What the tables read back.*  Let ``k' = min(k, len(w))``, ``gamma =
    gamma_k'`` and ``H = k' X``, at least any optimum of at most ``k``
    picks.  A table's level ``l`` on a block is the largest ascending
    floating sum over the block's supports of at most ``l`` picks: each
    cell is a maximum of cells and of a weight added to a cell, rounding
    is monotone, and the support it walks back sums to it.  So it lies
    within ``gamma R`` of the real optimum ``R`` there.  Its gain over
    the level below is then within ``d = (2 gamma + 2 u) H`` of the real
    gain, and real gains fall level by level (the block's problem is
    totally unimodular too).  The slice picks the ``k`` largest positive
    gains, budgets ``k_b`` per block; those beat the gains of ``S*``'s
    per-block budgets, so ``sum R_b(k_b) >= x(S*) - 2 k' d``, and the
    supports read back are within ``2 gamma H`` of ``sum R_b(k_b)``: the
    union ``T`` has ``x(T) >= x(S*) - eps`` with ``eps = (4 k' gamma + 4
    k' u + 2 gamma) H``, and at most ``k`` picks.  The search takes ``eta
    = 2 (eps + 2 m (3 gamma_m + 4 u) X)``, so an accepted ``S*`` beats
    every other such support by more than ``eps``, and ``T = S*``.  It
    gives up where those bounds could fail: ``eta > X``, ``X`` under
    ``2**-900``, where ``eta`` would lose its relative precision, or sums
    that could reach ``2**1000``.  It gives up on a negative weight too, on
    which the tables raise.
    """
    least, top = float(w.min()), float(w.max())
    kk = min(k, w.size)
    bracketed = w.size > _BRACKET * k
    if bracketed:
        cut = w.size - _BRACKET * k - 1
        t = float(np.partition(w, cut)[cut])
        keep = w > t
        pos, w = pos[keep], w[keep]
    m = w.size
    if not (least > 0.0 and 2.0**-900 <= top <= 2.0**1000 / (m + kk)):
        return None
    u = 2.0**-53
    gk, gm = kk * u / (1 - kk * u), m * u / (1 - m * u)
    eta = 2 * ((4 * kk * gk + 4 * kk * u + 2 * gk) * kk + 2 * m * (3 * gm + 4 * u)) * top
    mu = t + 2 * eta if bracketed else 0.0
    if eta > top or mu >= top:
        return None
    # Supporting lines as (price, picks, weight): one above k picks, and
    # one below, first the empty support at the heaviest weight.
    above, below = None, (top, 0, 0.0)
    met = False
    for _ in range(_STEPS):
        idx = _unrestricted(pos, w - mu, delta, 2)[1]
        c = idx.size
        if c == k or (c < k and mu == 0.0):
            inside = np.zeros(m, dtype=bool)
            inside[idx] = True
            perturbed = (w - mu) + np.where(inside, -eta, eta)
            if np.array_equal(_unrestricted(pos, perturbed, delta, 2)[1], idx):
                return tuple(pos[idx].tolist())
            return None
        if (above is None and c < k) or (met and c in (above[1], below[1])):
            return None
        line = (mu, c, float(w[idx].sum()))
        if c > k:
            above = line
        else:
            below = line
        mu = (above[2] - below[2]) / (above[1] - below[1])
        met = above[0] < mu < below[0]
        if not met:
            mu = (above[0] + below[0]) / 2
    return None


def certified_solver(p: int) -> Callable[..., tuple[int, ...] | None] | None:
    """The certified search for spike count ``p``, or ``None`` where the
    tables are built: :func:`_certified_2spike` for ``p = 2``.  It takes
    sorted positions, their nonzero weights, a budget of at least 1 and
    ``delta``, and returns the support the tables would read back, or
    ``None`` for the tables to be built.  ``head.slice_solve`` runs it on
    a slice's kept positions and :func:`exact_support` on a whole
    vector's nonzero ones."""
    return _certified_2spike if check_count(p, "p") == 2 else None


def exact_support(x, k: int, delta: int, p: int) -> tuple[int, ...]:
    """The optimal budget-``k`` support of the vector ``x`` for spike count
    ``p``: ``table_builder(p)(x, k, delta).support(k)``, bit for bit.

    ``p``, ``x``, ``k`` and ``delta`` are checked as the builders check
    them, ``delta`` clamped by :func:`model.check_delta`.  With ``k <= 0``
    or no positive weight the support is empty, and neither the search nor
    a table runs.  Otherwise the certified search for ``p``
    (:func:`certified_solver`) runs on the positions of the nonzero weights
    and their weights, and the table is built only when there is no search
    for ``p`` or it declines.  A whole vector is the slice that keeps every
    nonzero weight in one block, with no choice of budgets across blocks,
    so :func:`_certified_2spike`'s proof makes an accepted support the
    table's.
    """
    build = table_builder(p)
    x = as_weights(x)
    delta = check_delta(delta, x.size)
    k = check_count(k, "k", 0)
    pos = np.flatnonzero(x) + 1
    if k <= 0 or not pos.size:
        return ()
    search = certified_solver(p)
    if search is not None:
        sol = search(pos, x[pos - 1], k, delta)
        if sol is not None:
            return sol
    return build(x, k, delta).support(k)
