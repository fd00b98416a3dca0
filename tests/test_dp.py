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
from sepsparse.model import brute_force_solve, is_feasible, max_support_size, objective
from sepsparse.seeding import make_rng


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
        with pytest.raises(ValueError, match=f"p={p}"):
            table_builder(p)

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
        with pytest.raises(ValueError, match="budget must be >= 0, got -"):
            call(np.ones(5))

    def test_builder_looked_up_when_called(self, monkeypatch):
        def replaced(x, budget, delta):
            raise NotImplementedError

        monkeypatch.setattr(dp, "build_table_1spike", replaced)
        assert table_builder(1) is replaced
        assert table_builder(2) is build_table_2spike
