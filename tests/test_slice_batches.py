"""Batched slices: one builder call runs a batch of a slice's blocks as rows.

``slice_solve`` stacks a slice's blocks as rows padded with trailing zeros
and runs the exact DP once per batch.  These tests pin it, and the head and
tail projectors built on it, to the per-block solver it replaced, bit for
bit, on hostile instances and with the batch cap at its own value and
tiny, so that slices split into many batches.
"""

import numpy as np
import pytest

from sepsparse import dp, head
from sepsparse.head import head_project
from sepsparse.model import max_support_size
from sepsparse.seeding import make_rng
from sepsparse.tail import tail_project

from util import slice_solve_reference, table_row

CASES = 3000


def hostile_slices(seed: int, count: int):
    """``count`` small ``(x, kept, k, delta, p, epsilon)`` cases.

    The weights cycle through integer ties with a zero run, weights from
    1e-300 to 1e300, sparse vectors whose blocks are shorter than
    ``delta``, a ``delta`` past ``n`` and dense uniform weights; ``p``
    alternates between 1 and 2, and ``k`` between a small budget, the
    packing limit or just past it, and ``10**23``.  ``kept`` holds sorted
    1-based positions, zero weights and gaps shorter than ``delta``
    included, so spans hold weights the slice leaves out.
    """
    rng = make_rng(seed)
    for c in range(count):
        n = int(rng.integers(1, 40))
        delta = int(rng.integers(1, 9))
        p = 1 + c % 2
        kind = c % 5
        if kind == 0:
            x = rng.integers(0, 3, n).astype(float)
            start = int(rng.integers(0, n))
            x[start : start + int(rng.integers(0, 12))] = 0.0
        elif kind == 1:
            x = 10.0 ** rng.uniform(-300, 300, n) * (rng.random(n) < 0.7)
        elif kind == 2:
            x = rng.random(n) * (rng.random(n) < 0.25)
        elif kind == 3:
            x = np.round(rng.random(n) * 3, 1)
            delta = n + int(rng.integers(1, 10**6))
        else:
            x = rng.random(n)
        k = (
            int(rng.integers(1, 6)),
            max_support_size(n, delta, p) + int(rng.integers(0, 3)),
            10**23,
        )[c % 3]
        kept = np.flatnonzero(rng.random(n) < rng.uniform(0.3, 1.0)) + 1
        epsilon = (0.5, 1.0, 0.3, 2.0)[c % 4]
        yield x, kept, k, delta, p, epsilon


def solve_all(x, kept, k, delta, p, epsilon):
    """The slice, head and (for p = 1) tail solutions of one case.

    The slice is looked up on ``head``, so the fixture's patch reaches it
    as it reaches the projectors.
    """
    return (
        head.slice_solve(kept, x, k, delta, p),
        head_project(x, k, delta, p, epsilon),
        tail_project(x, k, delta, epsilon) if p == 1 else None,
    )


@pytest.fixture(scope="module")
def per_block_solutions():
    """Each hostile case with its solutions under the per-block solver."""
    solved = []
    with pytest.MonkeyPatch.context() as m:
        # head and tail look slice_solve up in head at call time.
        m.setattr(head, "slice_solve", slice_solve_reference)
        for case in hostile_slices(1501, CASES):
            solved.append((case, solve_all(*case)))
    return solved


@pytest.mark.parametrize("cap", [None, 1, 12], ids=["cap", "cap-1", "cap-12"])
def test_batched_slices_match_the_per_block_solver(monkeypatch, per_block_solutions, cap):
    if cap is not None:
        monkeypatch.setattr(dp, "_BATCH_CELLS", cap)
    wrong = [(case, got, want) for case, want in per_block_solutions if (got := solve_all(*case)) != want]
    assert wrong == []


def test_forced_windows_match_the_per_block_solver(monkeypatch):
    # A forced index inside a dropped run chains the kept positions on its
    # two sides into one block, whose span holds weights the slice drops:
    # the window loop must read them as zeros, as the per-block solver on
    # the masked copy does.
    rng = make_rng(1523)
    cases = []
    for c, (x, _kept, k, delta, p, _epsilon) in enumerate(hostile_slices(1523, CASES)):
        forced = rng.random(x.size) < (0.05, 0.2, 0.5, 1.0)[c % 4]
        cases.append((x, k, delta, p, int(rng.integers(0, 5)), np.flatnonzero(forced) + 1))
    got = [head.best_over_windows(*case) for case in cases]
    monkeypatch.setattr(head, "slice_solve", slice_solve_reference)
    assert got == [head.best_over_windows(*case) for case in cases]


def test_block_ranges_cover_kept_once_in_order():
    # block_decompose returns each block's [first, stop) range in kept,
    # which slice_solve reads instead of searching kept for lo and hi.
    for _x, kept, _k, delta, p, _epsilon in hostile_slices(1501, CASES):
        dec = head.block_decompose(kept, delta, p)
        first, stop = dec.ranges.T
        assert dec.ranges.shape == dec.blocks.shape
        assert (stop > first).all()
        assert np.array_equal(kept[first], dec.blocks[:, 0])
        assert np.array_equal(kept[stop - 1], dec.blocks[:, 1])
        covered = [np.arange(a, b) for a, b in dec.ranges] + [np.zeros(0, int)]
        assert np.array_equal(np.concatenate(covered), np.arange(kept.size))
    assert head.block_decompose(np.zeros(0, int), 3).ranges.shape == (0, 2)


def hostile_batches(seed: int, count: int):
    """``count`` ``(rows, budget, delta, p, budgets)`` cases of batch tables.

    The rows take the weights of :func:`hostile_slices`, padded with
    trailing zeros as ``slice_solve`` pads blocks; the table's budget is a
    small one, the packing limit or past it, or ``10**23``, and the
    per-row budgets run from 0 past the levels the table runs, up to its
    budget.
    """
    rng = make_rng(seed)
    for c in range(count):
        r, n = int(rng.integers(1, 9)), int(rng.integers(1, 40))
        delta = int(rng.integers(1, 9)) if c % 5 else n + int(rng.integers(1, 10**6))
        p = 1 + c % 2
        kind = c % 4
        if kind == 0:
            rows = rng.integers(0, 3, (r, n)).astype(float)
        elif kind == 1:
            rows = 10.0 ** rng.uniform(-300, 300, (r, n)) * (rng.random((r, n)) < 0.7)
        elif kind == 2:
            rows = rng.random((r, n)) * (rng.random((r, n)) < 0.25)
        else:
            rows = rng.random((r, n))
        rows[np.arange(n) >= rng.integers(1, n + 1, (r, 1))] = 0.0
        limit = max_support_size(n, delta, p)
        budget = (int(rng.integers(1, 6)), limit + int(rng.integers(0, 3)), 10**23)[c % 3]
        budgets = rng.integers(0, min(budget, limit + 3) + 1, r).astype(object)
        if budget == 10**23:
            budgets[rng.random(r) < 0.3] = 10**23
        else:
            budgets = budgets.astype(np.int64)
        yield rows, budget, delta, p, budgets


def test_batch_support_reads_each_row_at_its_budget():
    # One call on a batch table gives every row the support its own table
    # gives at that row's budget: 0 for none, past the levels the table
    # runs, and 10**23.
    wrong = []
    for rows, budget, delta, p, budgets in hostile_batches(1601, CASES):
        table = dp.table_builder(p)(rows, budget, delta)
        row, at = table.support(budgets)
        assert row.dtype == at.dtype == np.intp
        for r, b in enumerate(budgets.tolist()):
            if tuple(at[row == r].tolist()) != table_row(table, r).support(b):
                wrong.append((rows, budget, delta, p, budgets, r))
        assert np.all(np.diff(row) >= 0)
    assert wrong == []


@pytest.mark.parametrize("p", [1, 2])
def test_batch_support_rejects_bad_budgets(p):
    table = dp.table_builder(p)(np.ones((3, 6)), 4, 2)
    for bad in (np.array([1, 2]), np.array([1, -1, 0]), np.array([0, 5, 0]), np.array([1.0, 2.0, 0.0]), 2):
        with pytest.raises(ValueError):
            table.support(bad)
    row, at = table.support(np.zeros(3, dtype=int))
    assert row.size == at.size == 0


def test_batches_take_rows_shortest_first(monkeypatch):
    lengths = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    # Padding the 9 would more than double the first batch's cells.
    assert [b.tolist() for b in dp.batch_rows(lengths, 2, 1)] == [[1, 3, 6, 0, 2, 4, 7], [5]]
    monkeypatch.setattr(dp, "_BATCH_CELLS", 12)
    assert [b.tolist() for b in dp.batch_rows(lengths, 2, 1)] == [[1, 3, 6, 0], [2, 4], [7], [5]]
    # For p = 2 a row of length w costs w * min(w, delta) cells per level.
    assert [b.tolist() for b in dp.batch_rows(lengths, 2, 2)] == [[1, 3, 6], [0], [2], [4], [7], [5]]
    monkeypatch.setattr(dp, "_BATCH_CELLS", 1)
    assert [b.tolist() for b in dp.batch_rows(lengths, 2, 1)] == [[1], [3], [6], [0], [2], [4], [7], [5]]


def test_batches_partition_the_rows_within_the_cap(monkeypatch):
    rng = make_rng(1511)
    for _ in range(300):
        cap = int(rng.integers(1, 200))
        monkeypatch.setattr(dp, "_BATCH_CELLS", cap)
        lengths = rng.integers(1, 30, int(rng.integers(0, 40)))
        delta, p = int(rng.integers(1, 10**6 if rng.random() < 0.2 else 8)), int(rng.integers(1, 3))
        batches = dp.batch_rows(lengths, delta, p)
        assert np.concatenate(batches + [np.zeros(0, int)]).tolist() == np.argsort(lengths, kind="stable").tolist()
        for rows in batches:
            cells = lengths[rows] * (np.minimum(lengths[rows], delta) if p == 2 else 1)
            assert rows.size == 1 or rows.size * cells.max() <= min(cap, 2 * cells.sum())
    with pytest.raises(ValueError, match="no exact solver"):
        dp.batch_rows(np.ones(3, int), 2, 3)


def test_batch_rows_takes_a_1d_integer_array_only():
    # A 2-D array once raised IndexError and float lengths were batched.
    for bad in (np.array([[1, 2]]), np.array([1.5, 2.0]), np.array([True, False]), [1, 2]):
        with pytest.raises(ValueError, match="lengths must be a 1-D integer numpy array, got "):
            dp.batch_rows(bad, 2, 1)


@pytest.mark.parametrize("p", [1, 2])
def test_head_project_calls_the_builder_once_per_keep_set(monkeypatch, p):
    # Every keep-set of this dense vector fits one batch.
    x = make_rng(1507).random(60) + 0.5
    lam = 2
    calls = []
    for name in ("build_table_1spike", "build_table_2spike"):

        def counting(rows, k, delta, original=getattr(dp, name)):
            calls.append(rows.shape)
            return original(rows, k, delta)

        monkeypatch.setattr(dp, name, counting)
    sol = head_project(x, 8, 4, p, 1 / lam)
    assert len(calls) == lam + 1
    assert all(len(shape) == 2 and shape[0] > 1 for shape in calls)
    monkeypatch.undo()
    with monkeypatch.context() as m:
        m.setattr(head, "slice_solve", slice_solve_reference)
        assert sol == head_project(x, 8, 4, p, 1 / lam)
