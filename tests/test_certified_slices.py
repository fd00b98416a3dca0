"""The budget-free 2-spike solver and the certified p = 2 slice search.

``dp._unrestricted_2spike`` is checked against the brute-force
oracle past the packing limit and against the 2-spike table's value at
that limit, bit for bit.  The certified search, which ``slice_solve``
tries before building any 2-spike table, must return exactly the support
the tables read back, or nothing: on the tie-rule cases, the golden and
differential head cases, and continuous hostile slices.  A counting
wrapper on ``dp.build_table_2spike`` shows which slices fall back.
"""

import json
from itertools import combinations

import numpy as np
import pytest

from sepsparse import dp, head
from sepsparse.generators import gen_uniform
from sepsparse.model import brute_force_solve, is_feasible, max_support_size, objective
from sepsparse.seeding import make_rng

from test_differential import hostile_instance
from test_dp_golden import GOLDEN, HEAD_EPS, dense
from test_tie_rule import tie_cases


def hostile_free_cases(seed: int, count: int):
    """``count`` ``(x, delta)`` cases of at most 25 weights.

    The weights cycle through integer ties with a zero run, weights from
    1e-300 to 1e300 with -0.0 in place of some zeros, a single nonzero
    weight, all weights zero, and uniform weights; ``delta`` is 1, small,
    or ``n`` or past it.  The oracle's work grows fast with ``n`` at a
    small ``delta``, so ``n`` reaches 25 only where ``delta`` is past a
    third of it.
    """
    rng = make_rng(seed)
    for c in range(count):
        kind, choice = c % 5, int(rng.integers(0, 3))
        n = int(rng.integers(1, 26 if choice == 2 else 15))
        delta = (1, int(rng.integers(2, 7)), n + int(rng.integers(0, 4)))[choice]
        if choice == 0:
            n = min(n, 12)
        if kind == 0:
            x = rng.integers(0, 3, n).astype(float)
            start = int(rng.integers(0, n))
            x[start : start + int(rng.integers(0, 6))] = 0.0
        elif kind == 1:
            x = 10.0 ** rng.uniform(-300, 300, n) * (rng.random(n) < 0.7)
            x[x == 0.0] = -0.0
        elif kind == 2:
            x = np.zeros(n)
            x[int(rng.integers(0, n))] = float(rng.random()) + 0.5
        elif kind == 3:
            x = np.zeros(n)
        else:
            x = rng.random(n)
        yield x, delta


def test_budget_free_2spike_matches_the_oracle_and_the_table():
    cases = 0
    for x, delta in hostile_free_cases(3401, 1200):
        n = x.size
        limit = max_support_size(n, delta, 2)
        _, want = brute_force_solve(x, limit + 1, delta, 2)
        table = dp.build_table_2spike(x, limit, delta).values[-1]
        for pos in (np.flatnonzero(x) + 1, np.arange(1, n + 1)):
            value, idx = dp._unrestricted_2spike(pos, x[pos - 1], delta)
            sol = tuple(pos[idx].tolist())
            assert value == want == table, (x.tolist(), delta)
            assert is_feasible(sol, n, n, delta, 2)
            assert objective(x, sol) == value
            assert all(x[i - 1] > 0.0 for i in sol)
        cases += 1
    assert cases == 1200


def tables_only(monkeypatch, solve, *args):
    """``solve(*args)`` with the certified search switched off."""
    with monkeypatch.context() as m:
        m.setattr(dp, "certified_solver", lambda p: None)
        return solve(*args)


def count_tables(monkeypatch) -> list:
    """Patch ``dp.build_table_2spike`` to record each call; the list of calls."""
    calls = []
    original = dp.build_table_2spike

    def counting(rows, k, delta):
        calls.append(np.shape(rows))
        return original(rows, k, delta)

    monkeypatch.setattr(dp, "build_table_2spike", counting)
    return calls


def optimum_count(x: np.ndarray, delta: int, k: int) -> int:
    """How many feasible supports of at most ``k`` nonzero positions reach
    the optimum, in exact arithmetic (the weights are integers)."""
    nonzero = (np.flatnonzero(x) + 1).tolist()
    values = {}
    for size in range(min(k, len(nonzero)) + 1):
        for c in combinations(nonzero, size):
            if all(c[j + 2] - c[j] >= delta for j in range(len(c) - 2)):
                values[c] = sum(int(x[i - 1]) for i in c)
    top = max(values.values())
    return sum(v == top for v in values.values())


def test_tied_slices_fall_back_to_the_tables(monkeypatch):
    # Where the optimum is not unique the certificate cannot hold, so the
    # slice builds its tables; wherever the search answers, it is the
    # tables' support, tie rule included.
    calls = count_tables(monkeypatch)
    search = dp.certified_solver(2)
    tied = accepted = 0
    for x, delta in tie_cases(2613, 300):
        kept = np.flatnonzero(x) + 1
        table = dp.build_table_2spike(x, x.size + 1, delta)
        for k in range(1, x.size + 2):
            got = search(kept, x[kept - 1], k, delta) if kept.size else None
            if got is not None:
                accepted += 1
                assert got == table.support(k)
            if kept.size and optimum_count(x, delta, k) > 1:
                tied += 1
                before = len(calls)
                assert head.slice_solve(kept, x, k, delta, 2) == table.support(k)
                assert len(calls) > before and got is None
    assert tied > 1000 and accepted > 1000


def test_golden_and_differential_heads_read_the_tables_support(monkeypatch):
    cases = [(dense(case), case["k"], case["delta"], HEAD_EPS) for case in json.loads(GOLDEN.read_text())]
    rng = make_rng(9191)
    for _ in range(300):
        x, k, delta = hostile_instance(rng)
        cases += [(x, k, delta, 1.0 / lam) for lam in (1, 2, 3)]
    got = [head.head_project(x, k, delta, 2, eps) for x, k, delta, eps in cases]
    want = [tables_only(monkeypatch, head.head_project, x, k, delta, 2, eps) for x, k, delta, eps in cases]
    assert got == want


def continuous_slices(seed: int, count: int):
    """``count`` ``(x, kept, k, delta)`` slices of continuous weights.

    The weights are uniform, lognormal, spread from 1e-300 to 1e300, or
    sparse uniform; ``kept`` holds sorted positions, zero weights
    included; ``k`` is small, near the slice's packing limit, past it, or
    ``10**23``; ``delta`` is 1, small, moderate, or past ``n``.
    """
    rng = make_rng(seed)
    for c in range(count):
        n = int(rng.integers(1, 400))
        kind = c % 4
        if kind == 0:
            x = rng.random(n)
        elif kind == 1:
            x = rng.lognormal(0.0, 2.0, n)
        elif kind == 2:
            x = 10.0 ** rng.uniform(-300, 300, n)
        else:
            x = rng.random(n) * (rng.random(n) < 0.2)
        delta = (1, int(rng.integers(2, 8)), int(rng.integers(8, 60)), n + int(rng.integers(0, 5)))[c % 4 if c % 7 else 1]
        kept = np.flatnonzero(rng.random(n) < rng.uniform(0.3, 1.0)) + 1
        limit = max_support_size(n, delta, 2)
        k = (int(rng.integers(1, 12)), max(1, limit // 3), limit + int(rng.integers(0, 3)), 10**23)[int(rng.integers(0, 4))]
        yield x, kept, k, delta


def test_continuous_slices_read_the_tables_support(monkeypatch):
    calls = count_tables(monkeypatch)
    wrong = []
    accepted = 0
    for x, kept, k, delta in continuous_slices(3407, 600):
        before = len(calls)
        got = head.slice_solve(kept, x, k, delta, 2)
        accepted += len(calls) == before
        want = tables_only(monkeypatch, head.slice_solve, kept, x, k, delta, 2)
        if got != want:
            wrong.append((x, kept, k, delta))
    assert wrong == []
    assert accepted > 400


def test_fig5_head_builds_no_2spike_table(monkeypatch):
    x = gen_uniform(16_000, 5)
    calls = count_tables(monkeypatch)
    sol = head.head_project(x, 63, 63, 2, 0.5)
    assert calls == []
    monkeypatch.undo()
    assert sol == tables_only(monkeypatch, head.head_project, x, 63, 63, 2, 0.5)


def test_search_gives_up_past_the_packing_capacity():
    # Budget 20 on 60 weights at delta 9 exceeds the 14 picks that fit, and
    # 3 * 20 candidates are every weight, so the search answers at price 0
    # with fewer picks; with 10 weights to a pick it cannot reach 20 picks
    # from its bracket and declines.
    rng = make_rng(3409)
    x = rng.random(60) + 0.5
    pos = np.arange(1, 61)
    got = dp.certified_solver(2)(pos, x, 20, 9)
    assert got == dp.build_table_2spike(x, 20, 9).support(20)
    x = rng.random(600) + 0.5
    assert dp.certified_solver(2)(np.arange(1, 601), x, 20, 300) is None
    assert dp.certified_solver(1) is None
    with pytest.raises(ValueError, match="no exact solver"):
        head.slice_solve(pos, x[:60], 3, 2, 3)
