import ast
import gc
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


def hostile_dense_vectors(seed: int, count: int):
    """``count`` ``(x, budget, delta)`` cases for the block pass: vectors
    of 1 to 150 weights, more than half of them nonzero.

    The weights cycle through integer ties with a zero run, weights from
    1e-300 to 1e300, uniform weights with a quarter of them zero, weights
    of 1e308 whose sums overflow to inf, -0.0 among small integers, and
    ascending and descending weights; ``delta`` is 1, small, past half of
    ``n`` or past ``n``; and the budget is 0 to 5, the packing limit or
    just past it, up to ``n + 2``, or ``10**23``.  A vector that comes out
    at most half nonzero gets a weight of 1.0 in every zero slot from its
    middle on, so that the nonzero pass does not take it.
    """
    rng = make_rng(seed)
    for c in range(count):
        n = int(rng.integers(1, 151))
        kind = c % 7
        if kind == 0:
            x = rng.integers(0, 3, n).astype(float)
            start = int(rng.integers(0, n))
            x[start : start + int(rng.integers(0, 20))] = 0.0
        elif kind == 1:
            x = 10.0 ** rng.uniform(-300, 300, n) * (rng.random(n) < 0.7)
        elif kind == 2:
            x = rng.random(n) * (rng.random(n) >= 0.25)
        elif kind == 3:
            x = np.where(rng.random(n) < 0.3, 1e308, rng.random(n))
        elif kind == 4:
            x = np.where(rng.random(n) < 0.3, -0.0, rng.integers(1, 3, n).astype(float))
        elif kind == 5:
            x = np.cumsum(rng.random(n))
        else:
            x = np.cumsum(rng.random(n))[::-1].copy()
        if 2 * np.count_nonzero(x) <= n:
            x[(n - 1) // 2 :][x[(n - 1) // 2 :] == 0.0] = 1.0
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

    def test_tables_match_the_full_level_pass(self):
        wrong, cases = [], 0
        # Sums of 1e308 overflow to inf in both passes alike.
        with np.errstate(over="ignore"):
            for x, budget, delta in hostile_1spike_tables(2101, 3400):
                cases += 1
                if not same_table(build_table_1spike(x, budget, delta), table1_reference(x, budget, delta)):
                    wrong.append((x, budget, delta))
        assert wrong == []
        assert cases == 3400


def test_one_running_max_kernel():
    # Both forward passes take their running maximum with np.fmax.accumulate.
    tree = ast.parse(Path(dp.__file__).read_text())
    kernels = {
        node.value.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "accumulate" and isinstance(node.value, ast.Attribute)
    }
    assert kernels == {"fmax"}


def test_every_dense_1spike_level_runs_the_straight_kernel(monkeypatch):
    # A dense vector under _BLOCK_MIN, every row of a batch and the part
    # blocks of the block pass all run dp._straight, in place in the row
    # buffer, level by level.
    calls = []
    straight = dp._straight

    def counted(x, prev, row, took, s, a, b):
        calls.append((x.shape, a, b))
        return straight(x, prev, row, took, s, a, b)

    monkeypatch.setattr(dp, "_straight", counted)
    rng = make_rng(3106)
    for x in (rng.random(200), rng.random((3, 200))):
        calls.clear()
        assert same_table(build_table_1spike(x, 4, 30), table1_reference(x, 4, 30))
        assert calls == [(x.shape, lo, 200) for lo in (0, 30, 60, 90)]
    # The block pass with blocks of 8: each level runs the part block from
    # lo to the first whole block straight, and a level that skips blocks
    # the part block at n too.
    calls.clear()
    branches = []
    TestBlockPass.force(monkeypatch, 8, branches)
    x = rng.random(4001)
    assert same_table(build_table_1spike(x, 60, 67), table1_reference(x, 60, 67))
    assert all(((4001,), lo, -(-lo // 8) * 8) in calls for lo in range(0, 60 * 67, 67))
    assert calls.count(((4001,), 4000, 4001)) == sum(skipped for skipped, _, _ in branches) > 0


class TestBlockPass:
    """A dense vector of at least ``_BLOCK_MIN`` weights runs its 1-spike
    levels in blocks of ``_BLOCK`` weights, skipping the blocks that cannot
    raise the running maximum; its tables are those of the straight pass,
    bit for bit.  Both privates are lowered here so that short hostile
    vectors take the pass."""

    @staticmethod
    def force(monkeypatch, width: int, branches: list) -> None:
        """Send every dense vector to the block pass with blocks of
        ``width`` weights, and record in ``branches`` each level's
        ``(skipped, lo, n)``: whether it skipped blocks, and the level's
        first column and the vector's length."""
        block_level = dp._block_level

        def counted(x, prev, row, took, s, lo, xmax, ends, held):
            skipped = block_level(x, prev, row, took, s, lo, xmax, ends, held)
            branches.append((skipped, lo, x.size))
            return skipped

        monkeypatch.setattr(dp, "_BLOCK_MIN", 1)
        monkeypatch.setattr(dp, "_BLOCK", width)
        monkeypatch.setattr(dp, "_block_level", counted)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 32])
    def test_tables_match_the_straight_pass(self, monkeypatch, width):
        wrong, cases, branches, unaligned = [], 0, [], 0
        # Sums of 1e308 overflow to inf in every pass alike.
        with np.errstate(over="ignore"):
            for x, budget, delta in hostile_dense_vectors(3100 + width, 1000):
                assert not takes_nonzero_pass(x)
                want = table1_reference(x, budget, delta)
                # A one-row batch runs the straight pass.
                batch = table_row(build_table_1spike(x[None, :], budget, delta), 0)
                ran = len(branches)
                self.force(monkeypatch, width, branches)
                got = build_table_1spike(x, budget, delta)
                monkeypatch.undo()
                # A block level whose lo and n both fall inside a block.
                unaligned += any(skipped and lo % width and n % width for skipped, lo, n in branches[ran:])
                cases += 1
                top = min(budget, len(got))
                if not (
                    same_table(got, want)
                    and same_table(got, batch)
                    and got.support(top) == want.support(top) == batch.support(top)
                ):
                    wrong.append((x, budget, delta))
        assert wrong == []
        assert cases == 1000
        skipped = sum(ran for ran, _, _ in branches)
        assert skipped > 2000 and len(branches) - skipped > 2000, (skipped, len(branches))
        assert unaligned > 100 or width == 1

    def test_levels_on_each_branch(self, monkeypatch):
        # Uniform weights: the levels skip blocks until, near the packing
        # limit of 60, most blocks are live and the levels run straight.
        # Ascending weights: every block is live, so every level runs
        # straight.
        rng = make_rng(3102)
        for x, skips in ((rng.random(4001), [True] * 43 + [False] * 17), (np.cumsum(rng.random(4001)), [False] * 60)):
            branches = []
            self.force(monkeypatch, 8, branches)
            got = build_table_1spike(x, 60, 67)
            monkeypatch.undo()
            assert same_table(got, table1_reference(x, 60, 67))
            # Levels 1 to 60 run from lo = 0, 67, ..., 3953: each holds a whole block.
            assert [(lo, n) for _, lo, n in branches] == [(ell * 67, 4001) for ell in range(60)]
            assert [skipped for skipped, _, _ in branches] == skips
        # A level that holds no whole block runs straight: the last level
        # here runs from lo = 3 * 13 = 39 of 45 weights, past the last
        # whole block of 8 (columns 32 to 39).
        branches = []
        x = rng.random(45)
        self.force(monkeypatch, 8, branches)
        got = build_table_1spike(x, 4, 13)
        monkeypatch.undo()
        assert same_table(got, table1_reference(x, 4, 13))
        assert [lo for _, lo, _ in branches] == [0, 13, 26, 39]
        assert branches[-1][0] is False

    @staticmethod
    def watch(monkeypatch, width: int, levels: list) -> None:
        """:meth:`force` with blocks of ``width`` weights, recording in
        ``levels`` each level's ``(skipped, lo, below, held)``: whether it
        skipped blocks, its first column, and which whole blocks the level
        below's row held as it started and this level's row holds after."""
        block_level = dp._block_level

        def watched(x, prev, row, took, s, lo, xmax, ends, held):
            lead = held[0].size - xmax.size - 1
            below = held[0][lead:-1].copy()
            skipped = block_level(x, prev, row, took, s, lo, xmax, ends, held)
            levels.append((skipped, lo, below, held[1][lead:-1].copy()))
            return skipped

        TestBlockPass.force(monkeypatch, width, [])
        monkeypatch.setattr(dp, "_block_level", watched)

    def watched_levels(self, monkeypatch, width: int, x: np.ndarray, budget: int, delta: int) -> list:
        """The levels :meth:`watch` records while the block pass builds
        ``x``'s table, once its table and top support are checked against
        the full pass and the one-row batch."""
        want = table1_reference(x, budget, delta)
        batch = table_row(build_table_1spike(x[None, :], budget, delta), 0)
        levels = []
        self.watch(monkeypatch, width, levels)
        got = build_table_1spike(x, budget, delta)
        monkeypatch.undo()
        assert same_table(got, want) and same_table(got, batch)
        assert got.support(budget) == want.support(budget) == batch.support(budget)
        return levels

    @pytest.mark.parametrize("n, delta", [(4001, 67), (4000, 67), (4003, 64), (4000, 64), (4002, 5), (4000, 3)])
    def test_skipped_blocks_are_written_out_where_read(self, monkeypatch, n, delta):
        # A skipping level leaves its skipped blocks unwritten.  Whatever
        # reads one later reads its block end instead: the straight tail
        # starts from the last whole block's end (n % 8 != 0), the level's
        # value is that end (n % 8 == 0), and a live block whose slice of
        # the level below lies in a block skipped there reads it written
        # out.  A delta of 64 makes both bounds read whole blocks, and a
        # delta under the width of 8 reads the block before.
        x = make_rng(3107).random(n)
        levels = self.watched_levels(monkeypatch, 8, x, 40, delta)
        skipping = [(lo, below, held) for skipped, lo, below, held in levels if skipped]
        assert len(skipping) > 20
        # The last whole block skipped.
        assert sum(not held[-1] for _, _, held in skipping) > 10
        # A live block b reads blocks (8 b - delta) // 8 and the next.
        under = -delta // 8
        reads_skipped = 0
        for lo, below, held in skipping:
            first = -(-lo // 8)
            live = first + np.flatnonzero(held[first:])
            reads = np.concatenate((live + under, live + under + 1))
            reads = reads[(reads >= 0) & (reads < below.size)]
            reads_skipped += np.count_nonzero(~below[reads])
        assert reads_skipped > 100

    def test_straight_level_then_skipping_levels(self, monkeypatch):
        # An ascending ramp over the first 60 % of the weights keeps every
        # block of it live: levels that start in its first third have more
        # than half their blocks live and run straight, and later levels
        # skip the random blocks after it, reading the block ends and rows
        # of a straight level below.
        rng = make_rng(3108)
        x = np.concatenate((np.cumsum(rng.random(2400)), rng.random(1601)))
        branches = [skipped for skipped, _, _, _ in self.watched_levels(monkeypatch, 8, x, 60, 67)]
        after = sum(branches[ell] and not branches[ell - 1] for ell in range(1, len(branches)))
        assert not branches[0] and after == 1 and sum(branches) > 20, branches

    def test_live_share_at_fig2(self, monkeypatch):
        # The bounds decide how much of a level runs.  On these uniform
        # weights at the fig2 scale, n = 4e5 and k = delta = 316, 5.5 % of
        # the blocks the levels decide on run live (5.0 % with bounds read
        # at the exact prefixes rather than at block ends).  The bound of
        # 6.5 % leaves a point of margin and fails on any loosening that
        # grows the live blocks by a fifth.
        x = make_rng(3109).random(400_000)
        levels = []
        self.watch(monkeypatch, dp._BLOCK, levels)
        build_table_1spike(x, 316, 316)
        decided = live = 0
        for skipped, lo, _, held in levels:
            first = -(-lo // dp._BLOCK)
            decided += held.size - first
            live += np.count_nonzero(held[first:]) if skipped else held.size - first
        assert len(levels) == 316 and all(skipped for skipped, _, _, _ in levels)
        assert 0.04 < live / decided < 0.065, live / decided

    def test_real_minimum_and_width(self, monkeypatch):
        # At the private minimum itself the pass runs, with a zero run
        # across a block edge and n not a multiple of the block width; one
        # weight below it the straight pass runs.
        calls = []
        block_level = dp._block_level

        def counted(*args):
            calls.append(args[5])
            return block_level(*args)

        monkeypatch.setattr(dp, "_block_level", counted)
        n = dp._BLOCK_MIN + 3
        x = make_rng(3103).random(n)
        x[dp._BLOCK * 100 - 50 : dp._BLOCK * 100 + 50] = 0.0
        for m, runs in ((n, True), (dp._BLOCK_MIN, True), (dp._BLOCK_MIN - 1, False)):
            calls.clear()
            got = build_table_1spike(x[:m], 5, 999)
            assert bool(calls) is runs
            assert same_table(got, table1_reference(x[:m], 5, 999))
            assert got.support(5) == table_row(build_table_1spike(x[None, :m], 5, 999), 0).support(5)

    def test_bounds_raise_no_overflow(self, monkeypatch):
        # Block 1 (columns 4 to 7) has its heaviest weight, 1e308, at column
        # 4, and from level 2 on the level below reads about 1e308 at its
        # end: its upper bound overflows to inf, but none of its candidates
        # does.  The bound marks the block live and raises nothing, even
        # where overflow raises.
        x = np.array([1.0, 1.0, 1.0, 1.0, 1e308, 1.0, 1.0, 1.0, 2.0])
        want = table1_reference(x, 5, 2)
        branches = []
        self.force(monkeypatch, 4, branches)
        with np.errstate(over="raise"):
            got = build_table_1spike(x, 5, 2)
        assert same_table(got, want)
        assert len(branches) == 5 and not np.isinf(got.values).any()
        with np.errstate(over="ignore"):
            assert np.isinf(x[4] + want.values).all()

    def test_overflow_raises_as_in_the_straight_pass(self, monkeypatch):
        # Where a candidate overflows, the block pass raises as the straight
        # pass does, and under ignored overflow the tables agree.
        rng = make_rng(3104)
        raised = 0
        for c in range(300):
            x = np.where(rng.random(int(rng.integers(2, 60))) < 0.3, 1e308, rng.integers(1, 3, 1).astype(float))
            delta, budget = int(rng.integers(1, 6)), int(rng.integers(1, 12))
            outcomes = []
            for force in (False, True):
                if force:
                    self.force(monkeypatch, (2, 3, 4)[c % 3], [])
                try:
                    with np.errstate(over="raise"):
                        outcomes.append(build_table_1spike(x, budget, delta))
                except FloatingPointError:
                    outcomes.append(None)
                monkeypatch.undo()
            straight, blocked = outcomes
            assert (straight is None) == (blocked is None)
            raised += straight is None
            if straight is not None:
                assert same_table(blocked, straight)
        assert 30 < raised < 270

    def test_peak_memory_less_than_a_row_above_the_straight_pass(self, monkeypatch):
        # Both passes accumulate in place in the two row buffers; the
        # blocks' bounds and live blocks cost less than one more float row.
        x = make_rng(3105).random(1 << 17)
        assert x.size >= dp._BLOCK_MIN
        peaks = []
        build_table_1spike(x, 20, 100)
        gc.collect()
        tracemalloc.start()
        try:
            for least in (dp._BLOCK_MIN, 10**9):
                monkeypatch.setattr(dp, "_BLOCK_MIN", least)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                table = build_table_1spike(x, 20, 100)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del table
        finally:
            tracemalloc.stop()
        blocked, straight = peaks
        assert blocked < straight + 8 * x.size, peaks


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
        # The dense pass, which a one-row batch runs, holds its two float
        # row buffers of n and no third row of candidates.
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
        assert 2 * 8 * n <= dense < 3 * 8 * n, peaks
