import ast
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sepsparse import dp, head, model, recovery, tail
from sepsparse.bench import AlgoSpec, Sweep, bench_sweep
from sepsparse.dp import (
    batch_rows,
    build_table_1spike,
    build_table_2spike,
    dp_solve,
    dp_solve_2spike,
    dp_solve_unrestricted,
    table_cells,
)
from sepsparse.generators import gen_poisson, gen_uniform
from sepsparse.head import (
    best_over_windows,
    block_decompose,
    drop_phase,
    head_project,
    slice_solve,
    window_cap,
    window_count,
)
from sepsparse.model import (
    _ascending_sum,
    as_signal,
    as_support,
    brute_force_solve,
    check_count,
    check_delta,
    check_finite,
    check_real,
    is_feasible,
    max_support_size,
    objective,
    restrict,
    squared_weights,
)
from sepsparse.seeding import derive_seed, make_rng
from sepsparse.serialize import format_support, format_vector
from sepsparse.tail import strong_and_reduced, tail_project, tail_vector, topk_tail_project

from util import pairwise_feasible, window_scan_feasible


class TestIsFeasible:
    def test_spec_examples(self):
        assert is_feasible([1, 3], 3, 2, 2, 1) is True
        assert is_feasible([1, 2], 3, 2, 2, 1) is False
        assert is_feasible([1, 2, 3], 4, 3, 4, 2) is False

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            is_feasible([0, 2], 3, 2, 1)
        with pytest.raises(ValueError):
            is_feasible([1, 4], 3, 2, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            is_feasible([2, 2], 3, 2, 1)

    def test_size_budget(self):
        assert is_feasible([1, 3, 5], 5, 2, 2, 1) is False
        assert is_feasible([1, 3, 5], 5, 3, 2, 1) is True

    def test_matches_pairwise_rule_p1(self):
        rng = make_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 15))
            k = int(rng.integers(1, n + 1))
            delta = int(rng.integers(1, 6))
            size = int(rng.integers(0, n + 1))
            idx = sorted(int(v) for v in rng.choice(n, size=size, replace=False) + 1)
            assert is_feasible(idx, n, k, delta, 1) == pairwise_feasible(idx, k, delta)

    def test_matches_window_scan_any_p(self):
        rng = make_rng(202)
        for _ in range(500):
            n = int(rng.integers(1, 15))
            delta = int(rng.integers(1, 6))
            p = int(rng.integers(1, 4))
            size = int(rng.integers(0, n + 1))
            idx = sorted(int(v) for v in rng.choice(n, size=size, replace=False) + 1)
            assert is_feasible(idx, n, n, delta, p) == window_scan_feasible(idx, delta, p)


class TestObjective:
    def test_spec_examples(self):
        assert objective([5, 1, 4], [1, 3]) == 9.0
        assert objective([5, 1, 4], []) == 0.0
        assert objective([0.5, 0.25], [1, 2]) == 0.75

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            objective([1.0, 2.0], [3])

    def test_sums_in_ascending_order_bit_for_bit(self):
        # objective and the unchecked sum that best_over_windows scores
        # slices with both add the weights one at a time in ascending
        # index order, the DPs' order, on weights from 1e-300 to 1e300.
        rng = make_rng(1723)
        for c in range(500):
            n = int(rng.integers(1, 40))
            x = 10.0 ** rng.uniform(-300, 300, n) if c % 2 else np.round(rng.random(n) * 3, 1)
            support = tuple(int(i) for i in np.flatnonzero(rng.random(n) < 0.5) + 1)
            want = 0.0
            for i in support:
                want += x[i - 1]
            assert objective(x, support[::-1]) == _ascending_sum(x, support) == want
            assert np.float64(objective(x, support)).tobytes() == np.float64(want).tobytes()

    def test_additive_over_disjoint(self):
        rng = make_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = rng.random(n)
            perm = rng.permutation(n) + 1
            cut = int(rng.integers(0, n + 1))
            left, right = sorted(perm[:cut].tolist()), sorted(perm[cut:].tolist())
            both = objective(x, left) + objective(x, right)
            assert objective(x, left + right) == pytest.approx(both, abs=1e-9)


class TestSquaredAndRestrict:
    def test_squared_examples(self):
        assert np.array_equal(squared_weights([-2, 3]), [4.0, 9.0])
        assert np.array_equal(squared_weights([0, 0]), [0.0, 0.0])
        assert np.array_equal(squared_weights([1.5]), [2.25])

    def test_restrict_examples(self):
        assert np.array_equal(restrict([1, -2, 3], [2]), [0.0, -2.0, 0.0])
        assert np.array_equal(restrict([1, 2], [1, 2]), [1.0, 2.0])
        assert np.array_equal(restrict([1, 2], []), [0.0, 0.0])

    def test_signals_must_be_vectors(self):
        with pytest.raises(ValueError, match=r"expected a 1-D vector of integers or floats, got shape \(2, 2\)"):
            as_signal(np.ones((2, 2)))

    def test_norm_identity(self):
        rng = make_rng(11)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(1, 30)))
            lhs = float(np.linalg.norm(v) ** 2)
            assert objective(squared_weights(v), range(1, v.size + 1)) == pytest.approx(lhs, abs=1e-9)


class TestOracleValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            brute_force_solve(np.array([1.0, -0.5]), 1, 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            brute_force_solve(np.array([1.0]), 0, 1)
        with pytest.raises(ValueError):
            brute_force_solve(np.array([1.0]), 1, 0)
        with pytest.raises(ValueError):
            brute_force_solve(np.zeros(0), 1, 1)
        with pytest.raises(ValueError):
            brute_force_solve(np.array([1.0]), 1, 1, 0)


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_projector_rejects(self, bad):
        # At k = 0 too: no projector returns an empty support before it
        # has checked x.
        x = [1.0, bad, 2.0, 0.5]
        for k in (0, 2):
            calls = [
                lambda: dp_solve(x, k, 2),
                lambda: dp_solve_2spike(x, k, 2),
                lambda: head_project(x, k, 2, 1, 0.5),
                lambda: best_over_windows(x, k, 2, 1, 1),
                lambda: tail_project(x, k, 2, 0.5),
                lambda: topk_tail_project(x, k, 2),
                lambda: objective(x, [1]),
                lambda: brute_force_solve(x, k, 1),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="finite"):
                    call()


class TestMaxSupportSize:
    def test_small_cases(self):
        assert max_support_size(5, 2, 1) == 3
        assert max_support_size(4, 4, 2) == 2
        assert max_support_size(3, 5, 1) == 1
        assert max_support_size(6, 1, 1) == 6

    @pytest.mark.parametrize("delta", [0, -3])
    def test_delta_below_one_raises(self, delta):
        with pytest.raises(ValueError, match="delta must be >= 1"):
            max_support_size(5, delta, 1)

    @pytest.mark.parametrize("p", [0, -1, -5])
    def test_p_below_one_raises(self, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            max_support_size(10, 2, p)
        with pytest.raises(ValueError, match="p must be >= 1"):
            recovery.random_feasible_support(10, 0, 2, p, make_rng(0))
        with pytest.raises(ValueError, match="p must be >= 1"):
            is_feasible((1, 2), 10, 2, 2, p)
        with pytest.raises(ValueError, match="p must be >= 1"):
            block_decompose(np.arange(1, 5), 2, p)
        with pytest.raises(ValueError, match="p must be >= 1"):
            brute_force_solve(np.ones(4), 2, 2, p)

    def test_matches_enumeration(self):
        rng = make_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            delta = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            support, _ = brute_force_solve(np.ones(n), n, delta, p)
            assert len(support) == max_support_size(n, delta, p)


class TestBruteForce:
    def test_spec_examples(self):
        sup, val = brute_force_solve(np.array([1.0, 1, 1]), 2, 2)
        assert (sup, val) == ((1, 3), 2.0)
        sup, val = brute_force_solve(np.array([5.0, 1, 4]), 1, 2)
        assert (sup, val) == ((1,), 5.0)
        sup, val = brute_force_solve(np.array([3.0, 2, 3, 2]), 2, 3)
        assert (sup, val) == ((1, 4), 5.0)

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force_solve(np.ones(26), 2, 2)

    def test_output_dominates_every_feasible_support(self):
        rng = make_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, n + 1))
            delta = int(rng.integers(1, 5))
            x = rng.random(n)
            sup, val = brute_force_solve(x, k, delta)
            assert is_feasible(sup, n, k, delta, 1)
            assert val == pytest.approx(objective(x, sup), abs=1e-12)
            for _ in range(80):
                size = int(rng.integers(0, k + 1))
                cand = sorted(int(v) for v in rng.choice(n, size=size, replace=False) + 1)
                if pairwise_feasible(cand, k, delta):
                    assert objective(x, cand) <= val + 1e-12

    def test_lexicographic_tie_break(self):
        sup, val = brute_force_solve(np.ones(4), 2, 3)
        assert val == 2.0
        assert sup == (1, 4)


# Every public function that takes a delta, called as (x, k, delta).
DELTA_TAKERS = {
    "head_project": lambda x, k, d: head_project(x, k, d, 2, 0.5),
    "tail_project": lambda x, k, d: tail_project(x, k, d, 0.5),
    "topk_tail_project": lambda x, k, d: topk_tail_project(x, k, d),
    "slice_solve": lambda x, k, d: slice_solve(np.arange(1, x.size + 1), x, k, d, 1),
    "best_over_windows": lambda x, k, d: best_over_windows(x, k, d, 1, 2),
    "block_decompose": lambda x, k, d: block_decompose(np.flatnonzero(x) + 1, d, 1),
    "tail_vector": lambda x, k, d: tail_vector(x, d),
    "strong_and_reduced": lambda x, k, d: strong_and_reduced(x, d),
    "build_table_1spike": lambda x, k, d: build_table_1spike(x, k, d),
    "build_table_2spike": lambda x, k, d: build_table_2spike(x, k, d),
    "batch_rows": lambda x, k, d: batch_rows(np.ones(x.size, dtype=int), d, 1),
    "dp_solve_unrestricted": lambda x, k, d: dp_solve_unrestricted(x, d),
    "max_support_size": lambda x, k, d: max_support_size(x.size, d, 1),
    "is_feasible": lambda x, k, d: is_feasible(range(1, x.size + 1), x.size, k, d, 1),
    "am_iht": lambda x, k, d: recovery.am_iht(np.zeros(3), np.ones((3, x.size)), k, d, 1, 0.5, 0.5),
}



# Every public function with a budget, on the weights x and a budget k.
BUDGET_TAKERS = {
    "head_project": lambda x, k: head_project(x, k, 2, 2, 0.5),
    "tail_project": lambda x, k: tail_project(x, k, 2, 0.5),
    "topk_tail_project": lambda x, k: topk_tail_project(x, k, 2),
    "slice_solve": lambda x, k: slice_solve(np.arange(1, x.size + 1), x, k, 2, 1),
    "best_over_windows": lambda x, k: best_over_windows(x, k, 2, 1, 2),
    "build_table_1spike": lambda x, k: build_table_1spike(x, k, 2),
    "build_table_2spike": lambda x, k: build_table_2spike(x, k, 2),
    "dp_solve": lambda x, k: dp_solve(x, k, 2),
    "dp_solve_2spike": lambda x, k: dp_solve_2spike(x, k, 2),
    "table.support": lambda x, k: build_table_1spike(x, 3, 2).support(k),
    # An object array is how a batch takes budgets past int64.
    "batch table.support": lambda x, k: build_table_1spike(np.stack((x, x)), 3, 2).support(
        np.array([k, 1], dtype=object)
    ),
    "table_cells": lambda x, k: table_cells(x.size, k, 2, 1),
    "is_feasible": lambda x, k: is_feasible(range(1, x.size + 1, 2), x.size, k, 2, 1),
    "brute_force_solve": lambda x, k: brute_force_solve(x, k, 2, 1),
    "am_iht": lambda x, k: recovery.am_iht(np.zeros(3), np.ones((3, x.size)), k, 2, 1, 0.5, 0.5),
    "random_feasible_support": lambda x, k: recovery.random_feasible_support(x.size, k, 2, 1, make_rng(1)),
    "empirical_rip": lambda x, k: recovery.empirical_rip(np.ones((3, x.size)), k, 2, 1, 2, 1),
    "default_measurement_count": lambda x, k: recovery.default_measurement_count(x.size + 2, k),
}


class TestCheckBudget:
    def test_every_budget_taker_takes_integers_only(self):
        # Each runs on normal input and on an empty vector, where several
        # return early, and each raises check_count's one ValueError.
        wrong = []
        for name, call in BUDGET_TAKERS.items():
            for x in (np.ones(5), np.zeros(0)):
                for k in (2.5, 2.0, np.float64(3.0), math.nan, -math.inf, math.inf, "2", None):
                    try:
                        call(x, k)
                    except ValueError as err:
                        if not str(err).startswith("k must be an integer"):
                            wrong.append((name, x.size, k, str(err)))
                    else:
                        wrong.append((name, x.size, k, "returned"))
        assert wrong == []

    def test_numpy_integer_budgets_compute_as_python_ints(self):
        x = make_rng(1719).random(5)
        wrong = []
        for name, call in BUDGET_TAKERS.items():
            want = repr(call(x, 2))
            for k in (np.uint64(2), np.int8(2), np.int64(2)):
                try:
                    got = repr(call(x, k))
                except Exception as err:
                    wrong.append((name, k, repr(err)))
                else:
                    # Tables and traces print their identity, not their content.
                    if " at 0x" not in want and got != want:
                        wrong.append((name, k, got, want))
        assert wrong == []
        assert type(check_count(np.uint64(7), "k", None)) is int
        assert check_count(True, "k", None) == 1  # bool is an int subclass, as for delta and p
        table = build_table_1spike(x, np.uint64(3), 2)
        assert type(table.budget) is int and table.support(np.int8(3)) == table.support(3)


# Every public function that takes a window count lam, on the weights x.
LAM_TAKERS = {
    "drop_phase": lambda x, lam: drop_phase(np.arange(1, x.size + 1), 2, lam),
    "best_over_windows": lambda x, lam: best_over_windows(x, 3, 2, 1, lam),
}


class TestCheckLam:
    def test_every_lam_taker_takes_integers_only(self):
        # Each runs on normal input and on an empty vector, and each raises
        # check_count's one ValueError: no TypeError, no overflow warning (an
        # error in these tests) and no float phase.
        wrong = []
        for name, call in LAM_TAKERS.items():
            for x in (np.ones(7), np.zeros(0)):
                for lam in (2.5, 2.0, np.float64(2.0), math.nan, math.inf, -math.inf, np.True_, "2", None):
                    try:
                        call(x, lam)
                    except ValueError as err:
                        if not str(err).startswith("lam must be an integer"):
                            wrong.append((name, x.size, lam, str(err)))
                    else:
                        wrong.append((name, x.size, lam, "returned"))
                for lam in (-1, np.int8(-1)):
                    try:
                        call(x, lam)
                    except ValueError as err:
                        if str(err) != "lam must be >= 0, got -1":
                            wrong.append((name, x.size, lam, str(err)))
                    else:
                        wrong.append((name, x.size, lam, "returned"))
        assert wrong == []

    def test_numpy_integer_and_bool_lams_compute_as_python_ints(self):
        x = make_rng(1801).random(9)
        wrong = []
        for name, call in LAM_TAKERS.items():
            for lam, like in ((np.uint64(2), 2), (np.int8(2), 2), (np.int64(3), 3), (True, 1), (False, 0)):
                got, want = call(x, lam), call(x, like)
                if repr(got) != repr(want):
                    wrong.append((name, lam, got, want))
        assert wrong == []
        assert type(check_count(np.uint64(2), "lam", 0)) is int and check_count(True, "lam", 0) == 1
        assert drop_phase(np.arange(1, 8), 2, np.uint64(2)).dtype == drop_phase(np.arange(1, 8), 2, 2).dtype


def _bench_rows(**kwargs):
    """A one-point quality sweep's rows without their timings."""
    sweep = Sweep([(30, 2, 3)], [AlgoSpec("head", 2)], quality=True)
    return [(row.repeats, row.head_pct, row.bound_ok) for row in bench_sweep(sweep, **kwargs)]


# Every public function that takes a count or a seed, called with one value
# for it: the name its messages use, the least value it takes (None where
# every integer is taken: a negative ground set holds no support), the call.
COUNT_TAKERS = {
    "gen_uniform n": ("n", 1, lambda v: gen_uniform(v, 0)),
    "gen_uniform seed": ("seed", 0, lambda v: gen_uniform(5, v)),
    "gen_poisson n": ("n", 1, lambda v: gen_poisson(v, 2.0, 0)),
    "gen_poisson seed": ("seed", 0, lambda v: gen_poisson(10, 2.0, v)),
    "gen_sensing m": ("m", 1, lambda v: recovery.gen_sensing(v, 4, 0)),
    "gen_sensing n": ("n", 1, lambda v: recovery.gen_sensing(2, v, 0)),
    "gen_sensing seed": ("seed", 0, lambda v: recovery.gen_sensing(2, 4, v)),
    "measure seed": ("seed", 0, lambda v: recovery.measure(np.ones((2, 3)), np.ones(3), 0.5, v)),
    "am_iht iterations": (
        "iterations", 0, lambda v: recovery.am_iht(np.ones(3), np.ones((3, 5)), 1, 2, v, 0.5, 0.5)
    ),
    "empirical_rip samples": (
        "samples", 1, lambda v: recovery.empirical_rip(recovery.gen_sensing(3, 5, 1), 1, 2, 1, v, 0)
    ),
    "empirical_rip seed": (
        "seed", 0, lambda v: recovery.empirical_rip(recovery.gen_sensing(3, 5, 1), 1, 2, 1, 2, v)
    ),
    "default_measurement_count n": ("n", 1, lambda v: recovery.default_measurement_count(v, 2)),
    "default_measurement_count k": ("k", 0, lambda v: recovery.default_measurement_count(200, v)),
    "bench_sweep repeats": ("repeats", 1, lambda v: _bench_rows(repeats=v)),
    "bench_sweep seed": ("seed", 0, lambda v: _bench_rows(seed=v, repeats=1)),
    "make_rng": ("seed", 0, lambda v: make_rng(v).random(2)),
    "derive_seed": ("seed", 0, lambda v: derive_seed(3, v)),
    "max_support_size n": ("n", None, lambda v: max_support_size(v, 2, 2)),
    "table_cells n": ("n", None, lambda v: dp.table_cells(v, 3, 2, 2)),
    "random_feasible_support n": (
        "n", None, lambda v: recovery.random_feasible_support(v, 1, 2, 1, make_rng(0))
    ),
    "window_cap n": ("n", 0, lambda v: window_cap(v, 2)),
    "window_count n": ("n", 0, lambda v: window_count(v, 2, 0.5)),
}


class TestCheckCount:
    def test_every_count_and_seed_taker_takes_integers_only(self):
        # Truncating a float seed would give two seeds one instance, and a
        # float count would fail inside numpy or range with a TypeError, so
        # each raises check_count's one ValueError, as does a count below
        # its least value.
        wrong = []
        for label, (name, least, call) in COUNT_TAKERS.items():
            for value in (1.5, 2.0, np.float64(2.0), math.nan, math.inf, np.True_, "2", None):
                try:
                    call(value)
                except ValueError as err:
                    if not str(err).startswith(f"{name} must be an integer, got "):
                        wrong.append((label, value, str(err)))
                else:
                    wrong.append((label, value, "returned"))
            if least is None:
                continue
            try:
                call(least - 1)
            except ValueError as err:
                if str(err) != f"{name} must be >= {least}, got {least - 1}":
                    wrong.append((label, least - 1, str(err)))
            else:
                wrong.append((label, least - 1, "returned"))
        assert wrong == []

    def test_a_negative_ground_set_holds_no_support(self):
        assert max_support_size(-3, 2, 2) == 0
        assert dp.table_cells(-3, 3, 2, 2) == 0
        assert recovery.random_feasible_support(-3, 0, 2, 1, make_rng(0)) == ()

    def test_numpy_integer_and_bool_counts_compute_as_python_ints(self):
        wrong = []
        for label, (_name, _least, call) in COUNT_TAKERS.items():
            for value, like in ((np.uint64(2), 2), (np.int8(2), 2), (True, 1)):
                got, want = repr(call(value)), repr(call(like))
                if got != want:
                    wrong.append((label, value, got, want))
        assert wrong == []
        assert type(check_count(np.uint64(7), "n")) is int


# Every public function that takes a real scalar, called with one value for
# it: the rule its message states, the call.
REAL_TAKERS = {
    "head_project epsilon": ("epsilon must be a finite real > 0", lambda v: head_project(np.ones(3), 1, 1, 1, v)),
    "tail_project epsilon": ("epsilon must be a finite real > 0", lambda v: tail_project(np.ones(3), 1, 2, v)),
    "am_iht eps_head": (
        "epsilon must be a finite real > 0", lambda v: recovery.am_iht(np.ones(3), np.ones((3, 5)), 1, 2, 1, v, 0.5)
    ),
    "am_iht eps_tail": (
        "epsilon must be a finite real > 0", lambda v: recovery.am_iht(np.ones(3), np.ones((3, 5)), 1, 2, 1, 0.5, v)
    ),
    "measure noise_sigma": (
        "noise_sigma must be a finite real >= 0", lambda v: recovery.measure(np.ones((2, 3)), np.ones(3), v, 0)
    ),
    "am_iht stop_tol": (
        "stop_tol must be a real >= 0",
        lambda v: recovery.am_iht(np.ones(3), np.ones((3, 5)), 1, 2, 1, 0.5, 0.5, stop_tol=v),
    ),
    "gen_poisson expected_gap": ("expected_gap must be a real >= 1", lambda v: gen_poisson(10, v, 0)),
}


def _same(a, b) -> bool:
    """Whether two results of one call are equal, arrays and traces included."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, recovery.Measurement):
        return _same((a.y, a.e), (b.y, b.e))
    if isinstance(a, recovery.RecoveryTrace):
        return repr(a) == repr(b)
    return a == b


class TestCheckReal:
    def test_every_real_taker_takes_real_scalars_only(self):
        # A Decimal once leaked a TypeError from the arithmetic, a 0-d array
        # passed as epsilon and noise_sigma only, and a complex or a string
        # raised each taker's own message; each now raises check_real's one
        # ValueError.
        wrong = []
        for label, (rule, call) in REAL_TAKERS.items():
            for value in (Decimal("0.5"), np.array(0.5), np.array([0.5]), 1j, "0.5", None, math.nan):
                if value is None and label == "am_iht stop_tol":
                    continue  # no tolerance at all
                try:
                    call(value)
                except ValueError as err:
                    if str(err) != f"{rule}, got {value!r}":
                        wrong.append((label, value, str(err)))
                except Exception as err:
                    wrong.append((label, value, repr(err)))
                else:
                    wrong.append((label, value, "returned"))
        assert wrong == []

    def test_fractions_and_numpy_floats_compute_as_the_float_they_hold(self):
        wrong = []
        for label, (_rule, call) in REAL_TAKERS.items():
            want = call(1.5)
            for value in (Fraction(3, 2), np.float64(1.5), np.float32(1.5)):
                if not _same(call(value), want):
                    wrong.append((label, value))
        assert wrong == []

    def test_bounds_and_infinity(self):
        assert check_real(0, "stop_tol", 0) is None and check_real(True, "gap", 1) is None
        check_real(math.inf, "stop_tol", 0)
        for value, kwargs in ((0, {"strict": True}), (math.inf, {"finite": True}), (-1, {})):
            with pytest.raises(ValueError, match=re.escape(f", got {value!r}")):
                check_real(value, "x", 0, **kwargs)


# Every public function that takes a weight vector or a signal, called with one.
ARRAY_TAKERS = {
    "head_project": lambda v: head_project(v, 1, 1, 1, 0.5),
    "tail_project": lambda v: tail_project(v, 1, 1, 0.5),
    "topk_tail_project": lambda v: topk_tail_project(v, 1, 1),
    "build_table_1spike": lambda v: build_table_1spike(v, 1, 1).support(1),
    "build_table_2spike": lambda v: build_table_2spike(v, 1, 1).support(1),
    "objective": lambda v: objective(v, [1]),
    "restrict": lambda v: restrict(v, [1]),
    "squared_weights": lambda v: squared_weights(v),
    "measure": lambda v: recovery.measure(np.ones((2, 3)), v, 0.0, 0),
    "format_vector": lambda v: format_vector(v),
}


class TestNumericArrays:
    @pytest.mark.parametrize("warn", ["error", "ignore"])
    def test_every_array_taker_takes_numeric_vectors_only(self, warn):
        # numpy once truncated complex entries with a ComplexWarning only,
        # parsed strings, unpacked objects, read bools as 0 and 1 and
        # promoted a scalar to a one-entry vector; each now raises
        # as_signal's one ValueError before any conversion, warnings
        # ignored or not.
        wrong = []
        bad_vectors = (
            np.array([1 + 5j, 0, 2]),
            ["1", "2.5", "0"],
            np.array([1.0, 0.0, 2.0], dtype=object),
            np.array([True, False, True]),
            5.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter(warn)
            for label, call in ARRAY_TAKERS.items():
                for v in bad_vectors:
                    arr = np.asarray(v)
                    rule = f"expected a 1-D vector of integers or floats, got shape {arr.shape} of {arr.dtype}"
                    try:
                        call(v)
                    except ValueError as err:
                        if str(err) != rule:
                            wrong.append((label, repr(v), str(err)))
                    except Exception as err:
                        wrong.append((label, repr(v), repr(err)))
                    else:
                        wrong.append((label, repr(v), "returned"))
        assert wrong == []

    def test_integer_and_float_vectors_and_empty_lists_still_run(self):
        wrong = []
        for label, call in ARRAY_TAKERS.items():
            want = call(np.array([2.0, 0.0, 1.0]))
            for v in ([2, 0, 1], np.array([2, 0, 1], dtype=np.uint8), np.array([2.0, 0.0, 1.0], dtype=np.float32)):
                if not _same(call(v), want):
                    wrong.append((label, repr(v)))
        assert wrong == []
        assert as_signal([]).dtype == np.float64 and head_project([], 1, 1, 1, 0.5) == ()

    def test_non_finite_arrays_raise_the_one_finite_message(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape("weight vectors must be finite (no NaN or inf)")):
                head_project(np.array([1.0, bad]), 1, 1, 1, 0.5)
        assert check_finite(np.array([2, 1]), "x") == 1.0 and check_finite(np.zeros(0), "x") == 0.0


# Every public function that takes a support, called with the indices.
SUPPORT_TAKERS = {
    "as_support": lambda idx: as_support(idx, 6),
    "objective": lambda idx: objective(np.arange(1.0, 7.0), idx),
    "is_feasible": lambda idx: is_feasible(idx, 6, 3, 2, 1),
    "restrict": lambda idx: restrict(np.arange(1.0, 7.0), idx),
    "format_support": lambda idx: format_support(idx),
}


class TestSupportIndices:
    def test_every_support_taker_takes_integers_only(self):
        # Truncating a float index would score, keep or write a neighbour
        # of the index asked for, so each raises check_count's one
        # ValueError, as does an index below 1.
        wrong = []
        for name, call in SUPPORT_TAKERS.items():
            for bad in (1.7, "2", np.float64(1.0)):
                try:
                    call([3, bad])
                except ValueError as err:
                    if str(err) != f"support index must be an integer, got {bad!r}":
                        wrong.append((name, bad, str(err)))
                else:
                    wrong.append((name, bad, "returned"))
            try:
                call([0, 3])
            except ValueError as err:
                if str(err) != "support index must be >= 1, got 0":
                    wrong.append((name, 0, str(err)))
            else:
                wrong.append((name, 0, "returned"))
        assert wrong == []

    def test_numpy_integer_indices_compute_as_python_ints(self):
        wrong = []
        for name, call in SUPPORT_TAKERS.items():
            want = repr(call([1, 4]))
            for idx in (np.array([1, 4], dtype=np.uint64), [np.int8(1), np.int64(4)], (True, 4)):
                got = repr(call(idx))
                if got != want:
                    wrong.append((name, idx, got, want))
        assert wrong == []
        assert as_support(np.array([4, 1], dtype=np.uint8)) == (1, 4)
        assert all(type(i) is int for i in as_support(np.array([4, 1], dtype=np.uint8)))


class TestCheckDelta:
    def test_clamps_to_n(self):
        assert check_delta(2, 5) == 2
        assert check_delta(9, 5) == 5
        assert check_delta(2**63, 4) == 4
        assert check_delta(3, 0) == 1

    def test_every_delta_taker_rejects_delta_below_one(self):
        # Each runs on normal input and on each early-return shape, and
        # each raises check_delta's message.
        wrong = []
        for name, call in DELTA_TAKERS.items():
            for x, k in [(np.ones(5), 2), (np.ones(5), 0), (np.zeros(0), 2)]:
                for delta in (0, -1):
                    try:
                        call(x, k, delta)
                    except ValueError as err:
                        if str(err) != f"delta must be >= 1, got {delta}":
                            wrong.append((name, x.size, k, delta, str(err)))
                    else:
                        wrong.append((name, x.size, k, delta, "returned"))
        assert wrong == []

    def test_every_delta_taker_takes_integers_only(self):
        # delta goes through operator.index: a numpy integer computes as the
        # Python int it holds, with no overflow warning (an error in these
        # tests), and a float or a string raises ValueError on every path.
        wrong = []
        for name, call in DELTA_TAKERS.items():
            for x, k in [(np.ones(5), 2), (np.ones(5), 0), (np.zeros(0), 2)]:
                for delta in (2.5, 2.0, np.float64(3.0), "2"):
                    try:
                        call(x, k, delta)
                    except ValueError as err:
                        if not str(err).startswith("delta must be an integer"):
                            wrong.append((name, x.size, k, delta, str(err)))
                    else:
                        wrong.append((name, x.size, k, delta, "returned"))
                for delta in (np.uint64(2), np.int8(2), np.uint64(2**63)):
                    try:
                        call(x, k, delta)
                    except Exception as err:
                        wrong.append((name, x.size, k, delta, repr(err)))
        assert wrong == []

    def test_numpy_integer_parameters_compute_as_python_ints(self):
        x = make_rng(1607).random(40)
        assert type(check_delta(np.uint64(5), 40)) is int
        assert build_table_1spike(x, 3, np.uint64(5)).support(3) == build_table_1spike(x, 3, 5).support(3)
        assert head_project(x, 3, np.uint64(5), 1, 0.5) == head_project(x, 3, 5, 1, 0.5)
        assert head_project(x, 3, 5, np.uint64(2), 0.5) == head_project(x, 3, 5, 2, 0.5)
        assert tail_project(x, 3, np.uint64(5), 0.5) == tail_project(x, 3, 5, 0.5)
        assert max_support_size(50, np.uint64(3), np.uint64(2)) == max_support_size(50, 3, 2)
        assert type(check_count(np.uint64(2), "p")) is int
        # bool is an int subclass, so p=True is accepted as p = 1.
        assert max_support_size(10, 2, True) == max_support_size(10, 2, 1)
        with pytest.raises(ValueError, match="delta must be an integer"):
            max_support_size(50, 2.5, 1)
        with pytest.raises(ValueError, match="p must be an integer"):
            max_support_size(50, 2, 1.0)
        with pytest.raises(ValueError, match="p must be an integer"):
            is_feasible((1, 3), 5, 2, 2, 2.5)


def test_each_parameter_rule_has_one_home():
    # model.check_count is the one integer rule: it checks every budget,
    # spike count, window count, other count, seed and support index, and
    # check_delta checks delta through it before clamping.  model.check_real
    # is the one real-scalar rule, and model.is_numeric the one dtype rule
    # of weights, signals and the sensing model.  A second copy of a
    # message is a second copy of its rule.  recovery only compares head's
    # window count and cap.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    homes = {
        " must be >= ": [],
        " must be an integer, got ": [],
        " must be a ": [],
        "finite real": [],
        "iuf": [],
    }
    # The real-scalar messages each taker once wrote for itself.
    retired = ["must be finite and positive", "must be finite and >= 0", "must be None or a real", "must be >= 1"]
    copies = []
    importers = {"operator": [], "numbers": []}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and node.value in homes:
                    homes[node.value].append(f"{path.name}:{getattr(top, 'name', None)}")
        copies += [f"{path.name}:{s}" for s in _strings(tree) if any(text in s for text in retired)]
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        for name in importers.keys() & imported:
            importers[name].append(path.name)
    assert homes == {
        " must be >= ": ["model.py:check_count"],
        " must be an integer, got ": ["model.py:check_count"],
        " must be a ": ["model.py:check_real"],
        "finite real": ["model.py:check_real"],
        "iuf": ["model.py:is_numeric"],
    }
    assert copies == []
    assert importers == {"operator": ["model.py"], "numbers": ["model.py"]}
    for name in ("check_budget", "check_p", "check_lam", "_as_int"):
        assert not hasattr(model, name)
    assert not hasattr(recovery, "_reaches_cap")
    tree = ast.parse((package / "recovery.py").read_text())
    am_iht = next(node for node in tree.body if getattr(node, "name", None) == "am_iht")
    arithmetic = [
        node.lineno
        for node in ast.walk(am_iht)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div))
        or (isinstance(node, ast.Attribute) and node.attr == "ceil")
    ]
    assert arithmetic == []


def _strings(tree):
    return [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def test_head_and_tail_wrappers_leave_the_checks_to_the_window_loop():
    # head_project and tail_project map epsilon to a window count and pass
    # the rest on: best_over_windows and tail_vector check x and k, so a
    # wrapper that checks them again makes one more pass over x.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    wrappers = {"head.py": ["head_project"], "tail.py": ["tail_project", "strong_and_reduced"]}
    seen, found = [], []
    for module, names in wrappers.items():
        tree = ast.parse((package / module).read_text())
        for func in (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names):
            seen.append(func.name)
            found += [
                f"{func.name}:{node.id}"
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and node.id in ("as_weights", "check_budget")
            ]
    assert seen == ["head_project", "strong_and_reduced", "tail_project"]
    assert found == []
    # slice_solve and block_decompose work on the positions the window loop
    # found once: neither checks all of x again nor masks a copy of it.
    tree = ast.parse((package / "head.py").read_text())
    slices = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in ("slice_solve", "block_decompose")]
    assert len(slices) == 2
    named = [
        f"{func.name}:{ast.unparse(node)}"
        for func in slices
        for node in ast.walk(func)
        if (isinstance(node, ast.Name) and node.id == "as_weights")
        or (isinstance(node, ast.Attribute) and node.attr == "where")
    ]
    assert named == []


def test_the_window_loop_takes_positions_as_they_come():
    # Every position set goes through the window loop as sorted positions:
    # tail_project hands on the strong positions without building a mask,
    # best_over_windows compares x with 0 once, and slice_solve reads the
    # block ranges block_decompose returns instead of searching kept.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    funcs = {}
    for module in ("head.py", "tail.py"):
        tree = ast.parse((package / module).read_text())
        funcs.update({n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)})

    def attrs(name):
        return [node.attr for node in ast.walk(funcs[name]) if isinstance(node, ast.Attribute)]

    assert "searchsorted" not in attrs("slice_solve")
    assert not {"zeros", "zeros_like", "empty"} & set(attrs("tail_project"))
    compares = [
        ast.unparse(node)
        for node in ast.walk(funcs["best_over_windows"])
        if isinstance(node, ast.Compare) and "x" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    ]
    assert compares == ["x != 0.0"]


@pytest.mark.parametrize("lam", [1, 2, 4])
def test_head_and_tail_check_the_input_vector_once_per_pass(monkeypatch, lam):
    # At n = 4e5 every block is at most lam * delta long, so an as_weights
    # call on n weights is a pass over the whole input: a head projection
    # makes one, in the window loop, and a tail projection two, in the
    # neighbourhood pass and the window loop, whatever lam is.
    n, k, delta = 400_000, 316, 316
    x = gen_uniform(n, 1733)
    passes = []

    def counting(arr, original=model.as_weights):
        if np.size(arr) == n:
            passes.append(1)
        return original(arr)

    for module in (head, tail, dp, model):
        monkeypatch.setattr(module, "as_weights", counting)
    head_project(x, k, delta, 1, 1.0 / lam)
    assert len(passes) == 1
    passes.clear()
    tail_project(x, k, delta, 2.0 / lam)
    assert len(passes) == 2


def test_the_cli_and_recovery_keep_no_copy_of_a_library_rule():
    # The CLI raises the library's ValueError and leaves the sign, delta and
    # gap rules to the library; model.check_finite holds the one finite
    # message for weights, signals, the sensing model and vector files.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    cli_tree = ast.parse((package / "cli.py").read_text())
    assert [n.name for n in ast.walk(cli_tree) if isinstance(n, ast.ClassDef)] == []
    imported = {a.name for n in ast.walk(cli_tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "check_delta" not in imported
    assert [s for s in _strings(cli_tree) if "negative entries" in s or "--gap must be" in s] == []
    finite = [
        path.name
        for path in sorted(package.rglob("*.py"))
        for s in _strings(ast.parse(path.read_text()))
        if "must be finite (no NaN or inf)" in s
    ]
    assert finite == ["model.py"]


def test_project_keeps_no_copy_of_the_bench_rules():
    # bench.solve is the one algorithm table, with the one single-spike
    # check, and bench.ratios the one ratio rule: project calls them and
    # no projector of its own.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    cli_text = (package / "cli.py").read_text()
    cli_tree = ast.parse(cli_text)
    called = {
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(cli_tree)
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    }
    assert called & {"head_project", "tail_project", "topk_tail_project", "brute_force_solve"} == set()
    assert "1e-12" not in cli_text
    assert [n for n in ast.walk(cli_tree) if isinstance(n, ast.Constant) and n.value == 1e-12] == []
    single_spike = [
        path.name
        for path in sorted(package.rglob("*.py"))
        for s in _strings(ast.parse(path.read_text()))
        if re.search(r"\bsupports\b.*\bonly\b", s)
    ]
    assert single_spike == ["bench.py"]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so the package must not rely on them.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_dp_picks_an_exact_solver():
    # dp.table_builder is the one place that maps p to its DP; any other
    # module that uses a builder or solver by name picks a DP on its own.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    solvers = {"build_table_1spike", "build_table_2spike", "dp_solve", "dp_solve_2spike"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "dp.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Name) and node.id in solvers)
        or (isinstance(node, ast.Attribute) and node.attr in solvers)
    ]
    assert found == []


def test_each_dp_result_is_read_where_it_is_made():
    # The budgeted builders pack their take flags for their own table kind
    # to walk back, and the budget-free solver walks its own lists, so no
    # other code packs flags and the shared table base walks nothing.  The
    # 1-spike builder packs in each of its two passes.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    found = []
    for path in sorted(package.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            found += [
                f"{path.name}:{getattr(top, 'name', 'module')}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Attribute) and node.attr == "packbits")
                or (isinstance(node, ast.alias) and node.name == "packbits")
            ]
    assert found == ["dp.py:build_table_1spike", "dp.py:build_table_1spike", "dp.py:build_table_2spike"]
    assert [name for name in vars(dp._DpTable) if "walk" in name] == []
    for kind in (dp.DpTable1, dp.DpTable2):
        assert {"_walk_row", "_walk_rows"} <= set(vars(kind))


def test_only_dp_applies_the_packing_limit():
    # The DP tables stop at max_support_size themselves, so a caller that
    # caps a budget by it again is a leftover clamp; drawing a random
    # feasible support is its one use outside model.py and dp.py.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name in ("model.py", "dp.py"):
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            is_import = isinstance(top, (ast.Import, ast.ImportFrom))
            owner = "import" if is_import else getattr(top, "name", "module")
            found += [
                f"{path.name}:{owner}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Name) and node.id == "max_support_size")
                or (isinstance(node, ast.Attribute) and node.attr == "max_support_size")
                or (isinstance(node, ast.alias) and node.name == "max_support_size")
            ]
    assert found == ["recovery.py:import", "recovery.py:random_feasible_support"]


def _dotted(node) -> str | None:
    """``np.random.rand`` for a chain of plain attribute lookups, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_only_seeding_draws_randomness():
    # Bit-identical instances rest on every draw coming from seeding's
    # generators; a module that imports `random` or calls into `numpy.random`
    # draws around them.  Annotations such as np.random.Generator are fine.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [_dotted(node.func) or ""]
            else:
                continue
            if any(
                name == "random" or name.startswith(("random.", "numpy.random", "np.random."))
                for name in names
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_dp_starts_threads():
    # dp.py alone imports a threading module, and importing the package
    # starts no thread.
    package = Path(__file__).resolve().parents[1] / "src" / "sepsparse"
    threaded = {"threading", "concurrent", "_thread", "multiprocessing"}
    importers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in threaded for name in names):
                importers.add(path.name)
    assert importers == {"dp.py"}
    code = "import threading, sepsparse, sepsparse.cli, sepsparse.bench; print(threading.active_count())"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "1"
