import ast
import gc
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sepsparse import dp
from sepsparse.dp import (
    DpTable1,
    DpTable2,
    build_table_1spike,
    build_table_2spike,
    dp_solve,
    dp_solve_2spike,
    dp_solve_unrestricted,
    table_builder,
)
from sepsparse.generators import gen_poisson
from sepsparse.model import brute_force_solve, is_feasible, max_support_size, objective
from sepsparse.seeding import make_rng

from util import (
    table1_reference,
    table2_reference,
    table_row,
    unrestricted_cases,
    unrestricted_reference,
    walk2_reference,
)


def random_instance(rng, n_max=14, delta_max=5):
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, n + 1))
    delta = int(rng.integers(1, delta_max + 1))
    style = rng.integers(0, 3)
    if style == 0:
        x = rng.random(n)
    elif style == 1:
        x = np.round(rng.random(n) * 4)  # many ties and zeros
    else:
        x = np.where(rng.random(n) < 0.4, 0.0, rng.random(n))
    return x, n, k, delta


class TestDpSolve:
    def test_spec_examples(self):
        values, sols = dp_solve([1.0, 1, 1], 2, 2)
        assert np.array_equal(values, [1.0, 2.0])
        assert objective([1.0, 1, 1], sols[1]) == 2.0
        values, _ = dp_solve([0.0, 0, 0, 0], 3, 1)
        assert np.array_equal(values, [0.0, 0.0, 0.0])
        values, _ = dp_solve([3.0, 2, 3, 2], 2, 3)
        assert np.array_equal(values, [3.0, 5.0])

    def test_matches_oracle(self):
        rng = make_rng(23)
        for _ in range(300):
            x, n, k, delta = random_instance(rng)
            values, sols = dp_solve(x, k, delta)
            _, best = brute_force_solve(x, k, delta)
            assert values[-1] == pytest.approx(best, abs=1e-9)
            for ell, sol in enumerate(sols, start=1):
                assert is_feasible(sol, n, ell, delta, 1)

    def test_reconstruction_exact_and_monotone(self):
        rng = make_rng(29)
        for _ in range(200):
            x, n, k, delta = random_instance(rng)
            values, table = dp_solve(x, k, delta)
            top = min(k, max_support_size(n, min(delta, n), 1))
            assert len(table) == values.size == top
            for ell in range(1, top + 1):
                # bit-for-bit: reconstruction replays the DP's additions
                assert objective(x, table[ell - 1]) == values[ell - 1]
            for ell in range(top + 1, k + 1):
                assert table.support(ell) == table[-1]
            assert np.all(np.diff(values) >= 0)

    def test_marginals_concave(self):
        rng = make_rng(31)
        for _ in range(200):
            x, n, k, delta = random_instance(rng)
            values, _ = dp_solve(x, k, delta)
            gains = np.diff(values, prepend=0.0)
            assert np.all(np.diff(gains) <= 1e-12)

    def test_skip_preferred_on_ties(self):
        values, sols = dp_solve([1.0, 1.0], 1, 1)
        assert sols[0] == (1,)  # equal candidates: the earlier take wins via flags
        values, sols = dp_solve([2.0, 2.0, 2.0], 1, 2)
        assert sols[0] == (1,)


class TestDpUnrestricted:
    def test_spec_examples(self):
        assert dp_solve_unrestricted([1.0, 1, 1], 2) == (2.0, (1, 3))
        assert dp_solve_unrestricted([7.0], 5) == (7.0, (1,))
        assert dp_solve_unrestricted([1.0, 2, 3, 4], 1) == (10.0, (1, 2, 3, 4))

    def test_agrees_with_budgeted_at_capacity(self):
        rng = make_rng(37)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            delta = int(rng.integers(1, 6))
            x = rng.random(n)
            k = -(-n // delta)
            value, sol = dp_solve_unrestricted(x, delta)
            values, _ = dp_solve(x, k, delta)
            assert value == pytest.approx(values[-1], abs=1e-9)
            assert objective(x, sol) == value
            assert is_feasible(sol, n, k, delta, 1)

    def test_matches_per_position_reference(self):
        # 3,008 cases: the nonzero-only loop replays the per-position
        # recurrence's additions and strict comparisons exactly.
        for x, _k, delta in unrestricted_cases(43, 3000):
            value, sol = dp_solve_unrestricted(x, delta)
            want_value, want_sol = unrestricted_reference(x, delta)
            assert value == want_value
            assert sol == want_sol


class TestDp2Spike:
    def test_spec_examples(self):
        values, _ = dp_solve_2spike([2.0, 3, 4], 3, 2)
        assert np.array_equal(values, [4.0, 7.0, 9.0])
        values, _ = dp_solve_2spike([5.0], 1, 3)
        assert np.array_equal(values, [5.0])

    def test_unit_weights_delta4(self):
        # Windows of four consecutive positions cap any 4-vector at two picks;
        # frozen from the exhaustive oracle.
        values, table = dp_solve_2spike([1.0, 1, 1, 1], 3, 4)
        assert np.array_equal(values, [1.0, 2.0])  # the table stops at that limit
        assert table.support(3) == table[-1] and objective(np.ones(4), table[-1]) == 2.0
        _, best = brute_force_solve(np.ones(4), 3, 4, p=2)
        assert values[-1] == best

    def test_matches_oracle(self):
        rng = make_rng(41)
        for _ in range(300):
            x, n, k, delta = random_instance(rng)
            values, sols = dp_solve_2spike(x, k, delta)
            _, best = brute_force_solve(x, k, delta, p=2)
            assert values[-1] == pytest.approx(best, abs=1e-9)
            for ell, sol in enumerate(sols, start=1):
                assert is_feasible(sol, n, ell, delta, 2)
                assert objective(x, sol) == values[ell - 1]

    def test_huge_delta_equals_delta_n(self):
        rng = make_rng(137)
        for _ in range(60):
            x, n, k, _ = random_instance(rng)
            want_values, want = dp_solve_2spike(x, k, n)
            for delta in (2**62, 2**63 - 1):
                values, sols = dp_solve_2spike(x, k, delta)
                assert np.array_equal(values, want_values)
                assert list(sols) == list(want)

    def test_monotone_and_concave(self):
        rng = make_rng(43)
        for _ in range(200):
            x, n, k, delta = random_instance(rng)
            values, _ = dp_solve_2spike(x, k, delta)
            assert np.all(np.diff(values) >= 0)
            gains = np.diff(values, prepend=0.0)
            assert np.all(np.diff(gains) <= 1e-12)


def hostile_2spike_tables(seed: int, count: int):
    """``count`` ``(x, budget, delta)`` cases for the 2-spike forward pass.

    ``x`` is a vector or a batch of 1 to 8 rows of 1 to 40 weights, padded
    with trailing zeros.  The weights cycle through integer ties with a
    run of -0.0, weights from 1e-300 to 1e300, sparse uniform weights, and
    weights of 1e308 whose sums overflow to inf; ``delta`` is 1, 2, small,
    or ``n`` or past it; and the budget is 0, small, the packing limit,
    just past it, or ``10**23``.
    """
    rng = make_rng(seed)
    for c in range(count):
        r, n = int(rng.integers(0, 9)), int(rng.integers(1, 41))
        x = hostile_weights(rng, r, n, c % 4)
        delta = (1, 2, int(rng.integers(3, 10)), n + int(rng.integers(0, 10**6)))[int(rng.integers(0, 4))]
        limit = max_support_size(n, delta, 2)
        budget = (0, int(rng.integers(1, 6)), limit, limit + int(rng.integers(1, 3)), 10**23)[c % 5]
        yield x, budget, delta


def hostile_weights(rng, r: int, n: int, kind: int) -> np.ndarray:
    """A vector of ``n`` weights (``r`` 0) or a batch of ``r`` rows of
    ``n``, padded with trailing zeros, of one of four kinds: integer ties
    with a run of -0.0, weights from 1e-300 to 1e300, sparse uniform
    weights, and weights of 1e308 whose sums overflow to inf."""
    shape = (r, n) if r else (n,)
    if kind == 0:
        x = rng.integers(0, 3, shape).astype(float)
        start = int(rng.integers(0, n))
        x[..., start : start + int(rng.integers(0, 12))] = -0.0
    elif kind == 1:
        x = 10.0 ** rng.uniform(-300, 300, shape) * (rng.random(shape) < 0.7)
    elif kind == 2:
        x = rng.random(shape) * (rng.random(shape) < 0.25)
    else:
        x = np.where(rng.random(shape) < 0.5, 1e308, rng.random(shape))
    if r:
        x[np.arange(n) >= rng.integers(1, n + 1, (r, 1))] = 0.0
    return x


def long_2spike_tables(seed: int, count: int):
    """``count`` ``(x, budget, delta)`` cases for the 2-spike forward pass
    on longer rows: a vector or a batch of 1 to 8 rows of up to 300 of
    :func:`hostile_weights`, with ``delta`` from 2 to 9 or from 10 to 70.
    So the level buffer's row, ``delta + n`` cells, falls both on and off
    whole bytes, with ``delta - 1`` below 8 and past it.  The budget is
    small, the packing limit or ``10**23``.
    """
    rng = make_rng(seed)
    for c in range(count):
        r, n = int(rng.integers(0, 9)), int(rng.integers(1, 301))
        x = hostile_weights(rng, r, n, c % 4)
        delta = int(rng.integers(2, 10)) if c % 2 else int(rng.integers(10, 71))
        budget = (int(rng.integers(1, 6)), max_support_size(n, delta, 2), 10**23)[c % 3]
        yield x, budget, delta


def same_table(got, want) -> bool:
    """Whether two tables are of one type with the same values and flags, bit for bit."""
    return (
        type(got) is type(want)
        and got.values.shape == want.values.shape
        and got.values.tobytes() == want.values.tobytes()
        and got.flags.shape == want.flags.shape
        and got.flags.tobytes() == want.flags.tobytes()
    )


class TestPrefixMajor2Spike:
    """The 2-spike forward pass runs with the batch axis innermost; its
    tables are the row-major pass's bit for bit, and the walk that reads
    each level's flags as bytes gives the scalar walk's supports."""

    def test_tables_match_the_row_major_pass(self):
        wrong = []
        # Sums of 1e308 overflow to inf in both passes alike.
        with np.errstate(over="ignore"):
            for x, budget, delta in hostile_2spike_tables(1901, 3000):
                if not same_table(build_table_2spike(x, budget, delta), table2_reference(x, budget, delta)):
                    wrong.append((x, budget, delta))
        assert wrong == []

    def test_long_rows_match_the_row_major_pass(self):
        wrong, whole_bytes, short_skip = [], set(), set()
        with np.errstate(over="ignore"):
            for x, budget, delta in long_2spike_tables(2201, 400):
                whole_bytes.add((delta + x.shape[-1]) % 8 == 0)
                short_skip.add(delta - 1 < 8)
                if not same_table(build_table_2spike(x, budget, delta), table2_reference(x, budget, delta)):
                    wrong.append((x, budget, delta))
        assert wrong == []
        assert whole_bytes == short_skip == {False, True}

    @pytest.mark.parametrize("rows, n, budget, delta", [(0, 200, 10, 20), (8, 126, 4, 63)])
    def test_workload_shapes_match_the_row_major_pass(self, rows, n, budget, delta):
        # A recovery table and a batch of blocks that head(p=2) solves.
        rng = make_rng(2202)
        for kind in range(4):
            x = hostile_weights(rng, rows, n, kind)
            with np.errstate(over="ignore"):
                got, want = build_table_2spike(x, budget, delta), table2_reference(x, budget, delta)
            assert same_table(got, want)

    def test_walk_matches_the_scalar_walk_at_every_budget(self):
        wrong, walks = [], 0
        with np.errstate(over="ignore"):
            for x, budget, delta in hostile_2spike_tables(1902, 3000):
                table = build_table_2spike(x, budget, delta)
                if not isinstance(table, DpTable2):
                    continue
                flags = table2_reference(x, budget, delta).flags
                for b in range(min(budget, len(table) + 2) + 1):
                    lev = min(b, len(table))
                    if x.ndim == 1:
                        got = {0: table.support(b)}
                        want = {0: walk2_reference(flags, lev, table.n, table.delta)}
                    else:
                        row, at = table.support(np.full(x.shape[0], b))
                        got = {r: tuple(at[row == r].tolist()) for r in range(x.shape[0])}
                        want = {r: walk2_reference(flags[..., r, :], lev, table.n, table.delta) for r in got}
                    walks += len(want)
                    if got != want:
                        wrong.append((x, budget, delta, b))
        assert wrong == []
        assert walks > 20_000


def test_2spike_table_allocates_little_past_its_own_arrays():
    # The recovery table: numpy's iterator buffers for a strided ufunc call,
    # or a list of views per table, would each cost a large share of it.
    n, budget, delta = 200, 10, 20
    x = make_rng(2203).random(n)
    build_table_2spike(x, budget, delta)
    peaks = []
    gc.collect()
    tracemalloc.start()
    try:
        # np.packbits allocates a fixed iterator of about 5 KB a call,
        # whatever the size of its input; the table packs a level at a time.
        for call in (lambda: np.packbits(np.zeros(8, dtype=bool)), lambda: build_table_2spike(x, budget, delta)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            table = call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    pack, peak = peaks
    s = delta - 1
    row = -(-(s + n + 1) // 8) * 8
    # Two level buffers of float rows, the bool take staging, the flags and the values.
    own = 2 * s * row * 8 + s * row + table.flags.nbytes + table.values.nbytes
    assert peak - pack <= 1.1 * own, (peak, pack, own)


@pytest.mark.parametrize(
    "solve, build, table_cls",
    [(dp_solve, build_table_1spike, DpTable1), (dp_solve_2spike, build_table_2spike, DpTable2)],
)
def test_supports_built_on_demand(monkeypatch, solve, build, table_cls):
    x = np.round(make_rng(47).random(40) * 3)
    k, delta = 6, 3
    table = build(x, k, delta)
    expected = [table.support(ell) for ell in range(1, k + 1)]
    calls = []
    original = table_cls.support

    def counting(self, ell):
        calls.append(ell)
        return original(self, ell)

    monkeypatch.setattr(table_cls, "support", counting)
    values, sols = solve(x, k, delta)
    assert calls == [k]  # only the top level, built inside the call
    assert len(sols) == k
    assert sols[-1] == expected[-1] and sols[k - 1] == expected[-1]
    assert calls == [k]
    assert sols[1] == expected[1] and sols[-(k - 1)] == expected[1]
    assert calls == [k, 2]  # each newly indexed level once, then cached
    assert list(sols) == expected
    assert sorted(calls) == list(range(1, k + 1))
    for bad in (k, -k - 1):
        with pytest.raises(IndexError):
            sols[bad]
    assert np.array_equal(values, table.values)


class TestTableBuilder:
    @pytest.mark.parametrize("p", [0, 3])
    def test_rejects_unsupported_p(self, p):
        # p goes through model.check_count first, so 0 is no spike count at all.
        with pytest.raises(ValueError, match="p must be >= 1" if p < 1 else f"p={p}"):
            table_builder(p)

    def test_takes_p_through_check_p(self):
        for bad in (1.0, 2.0, np.float64(2.0), np.nan, np.True_, "1"):
            for call in (
                lambda: table_builder(bad),
                lambda: dp.batch_rows(np.array([3, 4]), 2, bad),
                lambda: dp.table_cells(4, 2, 2, bad),
            ):
                with pytest.raises(ValueError, match="p must be an integer"):
                    call()
        assert table_builder(np.uint64(2)) is build_table_2spike
        assert table_builder(True) is build_table_1spike

    @pytest.mark.parametrize("p, solve", [(1, dp_solve), (2, dp_solve_2spike)])
    def test_tables_match_the_solvers(self, p, solve):
        # A table is the levels it runs, up to the packing limit; its
        # support() answers every budget past them with the last one.
        rng = make_rng(131)
        for _ in range(150):
            x, n, k, delta = random_instance(rng)
            top = min(k, max_support_size(n, min(delta, n), p))
            table = table_builder(p)(x, k, delta)
            values, sols = solve(x, k, delta)
            assert len(table) == len(sols) == table.values.size == values.size == top
            assert np.array_equal(values, table.values)
            assert list(table) == list(sols)
            for ell in range(top + 1, k + 1):
                assert table.support(ell) == sols.support(ell) == table[-1]

    @pytest.mark.parametrize("p, solve", [(1, dp_solve), (2, dp_solve_2spike)], ids=["1", "2"])
    def test_budget_past_packing_limit_repeats_the_limit(self, p, solve):
        # Levels past max_support_size repeat the last one, so solving at the
        # limit answers any larger k, at every level.
        rng = make_rng(151)
        for _ in range(200):
            x, n, _, _ = random_instance(rng, n_max=20)
            delta = int(rng.integers(1, n + 4))
            limit = max_support_size(n, min(delta, n), p)
            at_limit = table_builder(p)(x, limit, delta)
            for k in (limit + 1, limit + 5):
                table = table_builder(p)(x, k, delta)
                assert table.values.size == len(table) == limit
                assert np.array_equal(table.values, at_limit.values)
                assert list(table) == list(at_limit)
                past = [table.support(ell) for ell in range(limit, k + 1)]
                assert past == [at_limit[-1]] * (k - limit + 1)
                values, _ = solve(x, k, delta)
                assert np.array_equal(values, at_limit.values)

    @pytest.mark.parametrize("p", [1, 2])
    def test_huge_budget_builds_flags_up_to_the_limit(self, p):
        x = make_rng(157).random(6)
        limit = max_support_size(6, 3, p)
        at_limit = table_builder(p)(x, limit, 3)
        table = table_builder(p)(x, 2**62, 3)
        assert len(table.flags) == limit + 1
        assert table.values.size == len(table) == limit
        assert np.array_equal(table.values, at_limit.values)
        assert table[-1] == table[limit - 1] == table.support(2**62) == at_limit[-1]
        assert table[-1] is table[limit - 1]
        with pytest.raises(IndexError):
            table[limit]
        with pytest.raises(ValueError, match="outside"):
            table.support(2**62 + 1)
        huge = table_builder(p)(x, 10**23, 3)
        assert len(huge) == limit and huge.support(10**23) == at_limit[-1]

    @pytest.mark.parametrize("p, table_cls", [(1, DpTable1), (2, DpTable2)])
    def test_levels_past_the_limit_share_one_support(self, monkeypatch, p, table_cls):
        x = make_rng(163).random(6)
        limit = max_support_size(6, 3, p)
        table = table_builder(p)(x, 50, 3)
        calls = []
        original = table_cls.support

        def counting(self, ell):
            calls.append(ell)
            return original(self, ell)

        monkeypatch.setattr(table_cls, "support", counting)
        sols = list(table)
        assert sorted(calls) == list(range(1, limit + 1))  # limit calls, not 50
        assert len(sols) == limit
        assert [table.support(ell) for ell in range(limit + 1, 51)] == [sols[-1]] * (50 - limit)

    @pytest.mark.parametrize("solve", [dp_solve, dp_solve_2spike])
    def test_empty_vector(self, solve):
        values, sols = solve(np.zeros(0), 3, 2)
        assert values.size == len(sols) == 0
        assert [sols.support(ell) for ell in range(4)] == [()] * 4

    @pytest.mark.parametrize("k", [2**62, 10**23])
    def test_solvers_answer_a_budget_past_int64(self, k):
        x = np.ones(6)
        values, table = dp_solve(x, k, 2)
        assert np.array_equal(values, [1.0, 2.0, 3.0]) and len(table) == 3
        assert table[-1] == table.support(k) == (1, 3, 5)
        values, table = dp_solve_2spike(x, k, 2)
        assert np.array_equal(values, np.arange(1.0, 7.0)) and len(table) == 6
        assert table[-1] == table.support(k) == (1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: build_table_1spike(x, -1, 2),
            lambda x: build_table_2spike(x, -1, 2),
            lambda x: build_table_2spike(x, -1, 1),
            lambda x: dp_solve(x, -3, 2),
            lambda x: dp_solve_2spike(x, -3, 2),
        ],
    )
    def test_negative_budget_raises(self, call):
        with pytest.raises(ValueError, match="k must be >= 0, got -"):
            call(np.ones(5))

    def test_builder_looked_up_when_called(self, monkeypatch):
        def replaced(x, budget, delta):
            raise NotImplementedError

        monkeypatch.setattr(dp, "build_table_1spike", replaced)
        assert table_builder(1) is replaced
        assert table_builder(2) is build_table_2spike


def nearest_take_reference(row: np.ndarray, i: int) -> int:
    """Largest set bit at or before ``i`` of the packed ``row``, or 0."""
    hits = np.flatnonzero(np.unpackbits(row)[: i + 1])
    return int(hits[-1]) if hits.size else 0


@pytest.mark.parametrize("nbytes", [1, 2, 3, 9, 70])
def test_nearest_take_matches_an_unpackbits_scan(nbytes):
    # Bit 0 is the walks' dummy 0, so it is never set.  Every i is asked,
    # which covers i = 0 and both sides of each byte boundary.
    rng = make_rng(nbytes)
    rows = [np.zeros(nbytes, dtype=np.uint8)]
    for density in (0.01, 0.1, 0.5):
        rows.append(np.packbits(rng.random(8 * nbytes) < density))
    for bit in {1, 7, 8, 9, 15, 16, 8 * nbytes - 1} & set(range(1, 8 * nbytes)):
        rows.append(np.packbits(np.arange(8 * nbytes) == bit))
    for row in rows:
        row[0] &= 0x7F
        for i in range(8 * nbytes):
            assert dp._nearest_take(row, i) == nearest_take_reference(row, i), (row.tolist(), i)


class TestRows:
    """A builder runs a 2-D array of rows; a row padded with trailing zeros
    keeps the table of the row alone, which batched slices rest on."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_trailing_zeros_keep_values_and_supports(self, p):
        rng = make_rng(1601)
        for c in range(400):
            n = int(rng.integers(1, 16))
            x = np.round(rng.random(n) * 3) if c % 2 else rng.random(n)
            # A delta past len(x) in every third case.
            delta = n + int(rng.integers(1, 5)) if c % 3 == 0 else int(rng.integers(1, 6))
            k = int(rng.integers(1, 20))
            padded_x = np.concatenate((x, np.zeros(int(rng.integers(1, 20)))))
            table = table_builder(p)(x, k, delta)
            padded = table_builder(p)(padded_x, k, delta)
            top = len(table)
            assert np.array_equal(padded.values[:top], table.values)
            # Levels past the row's own packing limit gain exactly 0.
            assert np.all(padded.values[top:] == (table.values[-1] if top else 0.0))
            assert [padded.support(j) for j in range(top + 1)] == [table.support(j) for j in range(top + 1)]

    @pytest.mark.parametrize("p", [1, 2])
    def test_each_row_is_the_table_of_that_row_alone(self, p):
        rng = make_rng(1607)
        for _ in range(100):
            rows = np.round(rng.random((int(rng.integers(1, 6)), int(rng.integers(0, 14)))) * 3)
            k, delta = int(rng.integers(0, 10)), int(rng.integers(1, 6))
            batch = table_builder(p)(rows, k, delta)
            assert len(batch) == batch.values.shape[1]
            for r, x in enumerate(rows):
                alone, row = table_builder(p)(x, k, delta), table_row(batch, r)
                assert type(row) is type(alone)
                assert np.array_equal(row.values, alone.values) and np.array_equal(row.flags, alone.flags)
                assert [row.support(j) for j in range(k + 1)] == [alone.support(j) for j in range(k + 1)]

    @pytest.mark.parametrize("p", [1, 2])
    def test_every_row_is_validated(self, p):
        rows = np.ones((3, 4))
        for bad, message in ((np.nan, "finite"), (-1.0, "non-negative")):
            rows[2, 1] = bad
            with pytest.raises(ValueError, match=message):
                table_builder(p)(rows, 2, 2)
        with pytest.raises(ValueError, match="1-D"):
            table_builder(p)(np.ones((2, 2, 2)), 2, 2)


def hostile_vectors(seed: int, count: int):
    """``count`` ``(x, budget, delta)`` cases for the split forward pass.

    Lengths run from 1 to 95, mostly not a multiple of 8; the weights
    cycle through integer ties with a zero run, weights from 1e-300 to
    1e300, uniform weights with a quarter of them zero, and uniform
    weights; ``delta`` is small, past half of ``n`` (past a two-way split)
    or past ``n``; and the budget is small, the packing limit or just past
    it, or ``10**23``.  A vector at most half nonzero takes the nonzero
    pass, which never splits, so the weights are mostly nonzero.
    """
    rng = make_rng(seed)
    for c in range(count):
        n = int(rng.integers(1, 96))
        kind = c % 4
        if kind == 0:
            x = rng.integers(0, 3, n).astype(float)
            start = int(rng.integers(0, n))
            x[start : start + int(rng.integers(0, 20))] = 0.0
        elif kind == 1:
            x = 10.0 ** rng.uniform(-300, 300, n) * (rng.random(n) < 0.7)
        elif kind == 2:
            x = rng.random(n) * (rng.random(n) >= 0.25)
        else:
            x = rng.random(n)
        past_half = max(1, n // 2 + int(rng.integers(0, n // 2 + 1)))
        delta = (int(rng.integers(1, 9)), past_half, n + int(rng.integers(1, 10**6)))[c % 3]
        limit = max_support_size(n, delta, 1)
        budget = (int(rng.integers(1, 6)), limit + int(rng.integers(0, 3)), 10**23)[(c // 3) % 3]
        yield x, budget, delta


def ordered(reverse: bool):
    """A stand-in for ``dp._run_segments`` that runs a level's segments on
    the calling thread, first to last or last to first.  Between the two
    every pair of segments runs in both orders, so a segment that reads
    what another writes in the same level gives a different table in one
    of them."""

    def run(pool, work, count):
        for j in sorted(range(count), reverse=reverse):
            work(j)

    return run


def hostile_1spike_tables(seed: int, count: int):
    """``count`` ``(x, budget, delta)`` cases for the 1-spike forward pass.

    ``x`` alternates between a vector of 1 to 95 weights and a batch of 1
    to 8 rows of 1 to 40 weights, padded with trailing zeros.  The weights
    cycle through integer ties with a zero run, weights from 1e-300 to
    1e300, sparse uniform weights, weights of 1e308 whose sums overflow to
    inf, and -0.0 among small integers; ``delta`` is 1, small, past half
    of ``n`` or past ``n``; and the budget is 0 to 5, the packing limit or
    just past it, up to ``n + 2``, or ``10**23``.
    """
    rng = make_rng(seed)
    for c in range(count):
        if c % 2:
            r, n = 0, int(rng.integers(1, 96))
        else:
            r, n = int(rng.integers(1, 9)), int(rng.integers(1, 41))
        shape = (r, n) if r else (n,)
        kind = c % 5
        if kind == 0:
            x = rng.integers(0, 3, shape).astype(float)
            start = int(rng.integers(0, n))
            x[..., start : start + int(rng.integers(0, 20))] = 0.0
        elif kind == 1:
            x = 10.0 ** rng.uniform(-300, 300, shape) * (rng.random(shape) < 0.7)
        elif kind == 2:
            x = rng.random(shape) * (rng.random(shape) < 0.25)
        elif kind == 3:
            x = np.where(rng.random(shape) < 0.5, 1e308, rng.random(shape))
        else:
            x = np.where(rng.random(shape) < 0.5, -0.0, rng.integers(0, 3, shape).astype(float))
        if r:
            x[np.arange(n) >= rng.integers(1, n + 1, (r, 1))] = 0.0
        past_half = n // 2 + 1 + int(rng.integers(0, n // 2 + 1))
        delta = (1, int(rng.integers(2, 9)), past_half, n + int(rng.integers(1, 10**6)))[int(rng.integers(0, 4))]
        limit = max_support_size(n, delta, 1)
        budget = (
            int(rng.integers(0, 6)),
            limit + int(rng.integers(0, 3)),
            int(rng.integers(0, n + 3)),
            10**23,
        )[int(rng.integers(0, 4))]
        yield x, budget, delta


def takes_nonzero_pass(x: np.ndarray) -> bool:
    """Whether ``build_table_1spike`` runs ``x`` over its nonzero weights
    only: a vector with at most half its weights nonzero."""
    return x.ndim == 1 and 2 * np.count_nonzero(x) <= x.size


class TestLevelSkipping:
    """Level ell of the 1-spike pass runs only the prefixes past
    (ell - 1) * delta, from a carry, with an ``fmax`` running maximum; its
    tables are those of the pass that runs every level on every prefix,
    bit for bit."""

    def test_tables_match_the_full_level_pass(self, monkeypatch):
        wrong, cases, inner_cuts = [], 0, 0
        # Sums of 1e308 overflow to inf in both passes alike.  The forced
        # splits run on this thread, where that error state holds.
        with np.errstate(over="ignore"):
            for c, (x, budget, delta) in enumerate(hostile_1spike_tables(2101, 3400)):
                want = table1_reference(x, budget, delta)
                runs = [None]
                if x.ndim == 1:
                    # Segments of at least 3, 5 or 13 columns on two to four
                    # CPUs, so a level's cuts fall inside flag bytes.
                    runs += [((3, 5, 13)[c % 3], 2 + c % 3, ordered(c % 4 < 2))]
                for split in runs:
                    if split is not None:
                        least, cpus, run = split
                        monkeypatch.setattr(dp, "_SPLIT_MIN", least)
                        monkeypatch.setattr(dp, "_usable_cpus", lambda cpus=cpus: cpus)
                        monkeypatch.setattr(dp, "_run_segments", run)
                    got = build_table_1spike(x, budget, delta)
                    if split is not None:
                        # Split levels past the first with a cut inside a
                        # flag byte; a vector the nonzero pass runs never
                        # splits.
                        for ell in range(2, len(got) + 1) if not takes_nonzero_pass(x) else ():
                            cuts = [a for a, _ in dp._segments((ell - 1) * got.delta, x.size, cpus)[1:]]
                            inner_cuts += any((a + 1) % 8 for a in cuts)
                        monkeypatch.undo()
                    cases += 1
                    if not (
                        got.values.shape == want.values.shape
                        and got.values.tobytes() == want.values.tobytes()
                        and got.flags.shape == want.flags.shape
                        and got.flags.tobytes() == want.flags.tobytes()
                    ):
                        wrong.append((x, budget, delta, split))
        assert wrong == []
        assert cases >= 5000
        assert inner_cuts > 5000


def test_one_running_max_kernel():
    # Both forward passes take their running maximum with np.fmax.accumulate.
    tree = ast.parse(Path(dp.__file__).read_text())
    kernels = {
        node.value.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "accumulate" and isinstance(node.value, ast.Attribute)
    }
    assert kernels == {"fmax"}


class TestSplitForwardPass:
    """A long vector's 1-spike levels run in column segments on threads;
    the table is the one-segment table, bit for bit."""

    def test_split_tables_match_one_segment(self, monkeypatch):
        run_on_threads = dp._run_segments
        wrong, split = [], 0
        for c, (x, budget, delta) in enumerate(hostile_vectors(1701, 3000)):
            monkeypatch.setattr(dp, "_SPLIT_MIN", 10**9)
            whole = build_table_1spike(x, budget, delta)
            batch = table_row(build_table_1spike(x[None, :], budget, delta), 0)
            # Segments of at least 5 or 13 columns, so cuts fall inside a
            # flag byte, on two to four CPUs.
            monkeypatch.setattr(dp, "_SPLIT_MIN", (5, 13)[c % 2])
            monkeypatch.setattr(dp, "_usable_cpus", lambda c=c: 2 + c % 3)
            split += not takes_nonzero_pass(x) and len(dp._segments(0, x.size, dp._usable_cpus())) > 1
            # Every case in both orders on this thread, every tenth on threads.
            for run in [ordered(False), ordered(True)] + [run_on_threads] * (c % 10 == 0):
                monkeypatch.setattr(dp, "_run_segments", run)
                got = build_table_1spike(x, budget, delta)
                for ref in (whole, batch):
                    if not (
                        got.values.tobytes() == ref.values.tobytes()
                        and got.flags.shape == ref.flags.shape
                        and got.flags.tobytes() == ref.flags.tobytes()
                    ):
                        wrong.append((x, budget, delta, run))
        assert wrong == []
        assert split > 2000

    def test_one_hand_off_per_level(self, monkeypatch):
        x = make_rng(1702).random(4001)
        run = dp._run_segments
        calls = []

        def counted(pool, work, count):
            calls.append(count)
            run(pool, work, count)

        monkeypatch.setattr(dp, "_SPLIT_MIN", 500)
        monkeypatch.setattr(dp, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(dp, "_run_segments", counted)
        table = build_table_1spike(x, 40, 97)
        # Level ell runs columns (ell - 1) * 97 to 4000, in one segment per
        # CPU as far as each keeps 500 columns: three, then two, then one.
        want = [min(3, (4001 - (ell - 1) * 97) // 500) for ell in range(1, 41)]
        want = [count if count > 1 else 1 for count in want]
        assert len(table) == 40 and calls == want
        assert set(want) == {1, 2, 3}
        assert table.flags.tobytes() == table1_reference(x, 40, 97).flags.tobytes()
        # A batch runs one segment a level, whatever the CPU count.
        calls.clear()
        assert len(build_table_1spike(np.stack([x, x]), 40, 97)) == 40
        assert calls == [1] * 40

    def test_split_is_deterministic_and_leaves_no_thread(self, monkeypatch):
        x = make_rng(1703).random(4001)
        monkeypatch.setattr(dp, "_SPLIT_MIN", 10**9)
        whole = build_table_1spike(x, 40, 37)
        monkeypatch.setattr(dp, "_SPLIT_MIN", 500)
        monkeypatch.setattr(dp, "_usable_cpus", lambda: 4)
        assert len(dp._segments(0, x.size, 4)) == 4
        threads = threading.active_count()
        # Four segments on four threads that switch as often as they can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = build_table_1spike(x, 40, 37)
                assert got.values.tobytes() == whole.values.tobytes()
                assert got.flags.tobytes() == whole.flags.tobytes()
                assert threading.active_count() == threads
        finally:
            sys.setswitchinterval(interval)

    def test_segments_cover_every_column_in_order(self):
        for n in (2 * dp._SPLIT_MIN, 3 * dp._SPLIT_MIN + 5, 8 * dp._SPLIT_MIN + 7):
            for start in (0, 7, n - 2 * dp._SPLIT_MIN):
                for cpus in (2, 3, 8):
                    segments = dp._segments(start, n, cpus)
                    assert len(segments) == min(cpus, (n - start) // dp._SPLIT_MIN)
                    assert segments[0][0] == start and segments[-1][1] == n
                    assert all(hi == lo for (_, hi), (lo, _) in zip(segments, segments[1:]))
                    # One segment per CPU, as far as each keeps _SPLIT_MIN columns.
                    assert all(hi - lo >= dp._SPLIT_MIN for lo, hi in segments)
        # Shorter spans and one CPU run one segment; a batch passes one CPU
        # (test_one_hand_off_per_level).
        m = 2 * dp._SPLIT_MIN - 1
        assert dp._segments(0, m, 2) == [(0, m)]
        assert dp._segments(5, m + 5, 8) == [(5, m + 5)]
        assert dp._segments(0, 3 * m, 1) == [(0, 3 * m)]

    def test_real_minimum_splits_a_long_vector(self, monkeypatch):
        # At the private minimum itself, on two CPUs, with a zero run across
        # the cut: a few levels only.
        x = make_rng(1709).random(2 * dp._SPLIT_MIN + 3)
        x[dp._SPLIT_MIN - 50 : dp._SPLIT_MIN + 50] = 0.0
        monkeypatch.setattr(dp, "_usable_cpus", lambda: 2)
        got = build_table_1spike(x, 4, 999)
        monkeypatch.setattr(dp, "_SPLIT_MIN", 10**9)
        whole = build_table_1spike(x, 4, 999)
        assert got.values.tobytes() == whole.values.tobytes()
        assert got.flags.tobytes() == whole.flags.tobytes()
        assert got.support(4) == whole.support(4)

    def test_one_cpu_runs_one_segment(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a pool was started")

        x = make_rng(1711).random(4001)
        monkeypatch.setattr(dp, "_SPLIT_MIN", 500)
        monkeypatch.setattr(dp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(dp, "ThreadPoolExecutor", no_pool)
        assert dp._segments(0, x.size, dp._usable_cpus()) == [(0, 4001)]
        got = build_table_1spike(x, 10, 100)
        monkeypatch.setattr(dp, "_SPLIT_MIN", 10**9)
        assert got.flags.tobytes() == build_table_1spike(x, 10, 100).flags.tobytes()

    def test_the_cpu_count_is_read_once_per_table(self, monkeypatch):
        # A CPU count that falls to one while the table runs changes
        # nothing: the table keeps the segments and workers it began with.
        x = make_rng(1712).random(4001)
        monkeypatch.setattr(dp, "_SPLIT_MIN", 10**9)
        whole = build_table_1spike(x, 10, 100)
        reads = []

        def falling():
            reads.append(None)
            return 2 if len(reads) == 1 else 1

        monkeypatch.setattr(dp, "_SPLIT_MIN", 500)
        monkeypatch.setattr(dp, "_usable_cpus", falling)
        got = build_table_1spike(x, 10, 100)
        assert len(reads) == 1
        assert got.values.tobytes() == whole.values.tobytes()
        assert got.flags.tobytes() == whole.flags.tobytes()
        # A batch and a vector too short to split never read it.
        reads.clear()
        build_table_1spike(np.stack([x, x]), 10, 100)
        build_table_1spike(x[: 2 * 500 - 1], 10, 100)
        assert reads == []

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_segment_raises_and_leaves_no_thread(self, monkeypatch, failing):
        # Segment 0 runs on the calling thread and segment 1 on the worker;
        # either one raising ends the table with its error, and no thread
        # is left running.
        run = dp._run_segments
        started = threading.Event()

        def fail_one(pool, work, count):
            def work_or_fail(j):
                on_worker = threading.current_thread() is not threading.main_thread()
                assert on_worker == (j > 0)
                if j:
                    started.set()
                if j == failing:
                    raise RuntimeError(f"segment {j} failed")
                work(j)

            run(pool, work_or_fail, count)

        monkeypatch.setattr(dp, "_SPLIT_MIN", 500)
        monkeypatch.setattr(dp, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dp, "_run_segments", fail_one)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"segment {failing} failed"):
            build_table_1spike(make_rng(1713).random(4001), 10, 100)
        assert started.is_set()
        assert threading.active_count() == threads

    def test_the_worker_runs_under_the_callers_error_state(self, monkeypatch):
        # Sums of 1e308 overflow to inf.  np.errstate is a context variable,
        # so the worker's segment must run in the caller's context to
        # ignore the overflow as the caller asked.
        x = np.where(make_rng(1714).random(40) < 0.5, 1e308, 1.0)
        monkeypatch.setattr(dp, "_SPLIT_MIN", 5)
        monkeypatch.setattr(dp, "_usable_cpus", lambda: 2)
        assert len(dp._segments(0, x.size, 2)) == 2
        with np.errstate(over="ignore"):
            got = build_table_1spike(x, 6, 3)
            want = table1_reference(x, 6, 3)
        assert np.isinf(got.values).any()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.flags.tobytes() == want.flags.tobytes()


def hostile_sparse_vectors(seed: int, count: int):
    """``count`` ``(x, budget, delta)`` cases for the 1-spike nonzero pass:
    vectors of 0 to 120 weights, at most half of them nonzero.

    The weights cycle through spike trains (gaps drawn around a mean of 1
    to 10), integer ties with a zero run, weights of 1e308 whose sums
    overflow to inf, -0.0 and small integers, and weights from 1e-300 to
    1e300; every third vector of the last four kinds is exactly half
    nonzero.  ``delta`` is 1, small, past half of ``n`` or past ``n``; and
    the budget is 0 to 5, the packing limit or just past it, up to
    ``n + 2``, or ``10**23``.
    """
    rng = make_rng(seed)
    for c in range(count):
        n = int(rng.integers(0, 121))
        kind = c % 5
        if kind == 0:
            at = np.cumsum(np.rint(rng.exponential(rng.uniform(1, 10), n)).astype(np.int64) + 1) - 1
        else:
            at = rng.permutation(n)[: n // 2 if c % 3 == 0 else int(rng.integers(0, n // 2 + 1))]
        at = at[at < n][: n // 2]
        x = np.zeros(n)
        if kind == 0:
            x[at] = rng.random(at.size)
        elif kind == 1:
            x[at] = rng.integers(1, 3, at.size)
            start = int(rng.integers(0, n + 1))
            x[start : start + int(rng.integers(0, 20))] = 0.0
        elif kind == 2:
            x[at] = np.where(rng.random(at.size) < 0.5, 1e308, rng.random(at.size))
        elif kind == 3:
            x[rng.random(n) < 0.5] = -0.0
            x[at] = rng.integers(1, 3, at.size)
        else:
            x[at] = 10.0 ** rng.uniform(-300, 300, at.size)
        past_half = n // 2 + 1 + int(rng.integers(0, n // 2 + 1))
        delta = (1, int(rng.integers(2, 9)), past_half, n + int(rng.integers(1, 10**6)))[int(rng.integers(0, 4))]
        limit = max_support_size(n, delta, 1)
        budget = (
            int(rng.integers(0, 6)),
            limit + int(rng.integers(0, 3)),
            int(rng.integers(0, n + 3)),
            10**23,
        )[int(rng.integers(0, 4))]
        yield x, budget, delta


class TestNonzeroPass:
    """A vector with at most half its weights nonzero runs the 1-spike
    levels over its nonzero weights only; its tables are those of the pass
    that runs every level on every prefix, bit for bit."""

    def test_tables_match_the_full_level_pass(self):
        wrong, cases, half = [], 0, 0
        # Sums of 1e308 overflow to inf in both passes alike.
        with np.errstate(over="ignore"):
            for x, budget, delta in hostile_sparse_vectors(2801, 3000):
                assert takes_nonzero_pass(x)
                cases += 1
                half += x.size > 0 and 2 * np.count_nonzero(x) == x.size
                if not same_table(build_table_1spike(x, budget, delta), table1_reference(x, budget, delta)):
                    wrong.append((x, budget, delta))
        assert wrong == []
        assert cases == 3000 and half > 300

    def test_spike_trains_match_the_full_level_pass(self):
        # Poisson spike trains at the density of the paper's figures, and a
        # budget past the packing limit.
        for seed in range(4):
            x, _ = gen_poisson(5000, 50.0, seed)
            for budget, delta in ((30, 50), (10**23, 7), (12, 1)):
                got = build_table_1spike(x, budget, delta)
                assert same_table(got, table1_reference(x, budget, delta))
                assert objective(x, got.support(budget)) == float(got.values[-1])

    def test_only_a_vector_at_most_half_nonzero_takes_it(self, monkeypatch):
        steps = []
        predecessors = dp._predecessors

        def counted(pos, delta):
            steps.append(pos.size)
            return predecessors(pos, delta)

        monkeypatch.setattr(dp, "_predecessors", counted)
        x = np.zeros(41)
        x[::2] = 1.0
        build_table_1spike(x[1:], 3, 2)  # 20 of 40 nonzero
        build_table_1spike(x[:40], 3, 2)  # 20 of 40 nonzero
        build_table_1spike(x, 3, 2)  # 21 of 41 nonzero
        build_table_1spike(x[None, 1:], 3, 2)  # a batch
        assert steps == [20, 20]

    def test_builds_without_full_length_float_rows(self):
        # 200 nonzero weights in 1e5: the nonzero pass holds the flags, the
        # values, the bool take staging and arrays of the nonzeros' length.
        # The dense pass, which a one-row batch runs, holds three float rows
        # of n.
        n, budget, delta = 100_000, 20, 100
        rng = make_rng(2811)
        x = np.zeros(n)
        x[rng.choice(n, 200, replace=False)] = rng.random(200)
        build_table_1spike(x, budget, delta)
        peaks = []
        gc.collect()
        tracemalloc.start()
        try:
            for rows in (x, x[None, :]):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                table = build_table_1spike(rows, budget, delta)
                peaks.append(tracemalloc.get_traced_memory()[1] - base - table.flags.nbytes - table.values.nbytes)
        finally:
            tracemalloc.stop()
        sparse, dense = peaks
        assert sparse <= 2 * n, peaks
        assert dense >= 3 * 8 * n, peaks
