"""Seeded differential test of every projector against the brute-force oracle.

Each case draws a small hostile instance (ties, zero runs, weights spanning
1e-300..1e300, ``delta > n``, ``k`` past the packing limit) and checks every
algorithm's support for feasibility and for its proven guarantee against
:func:`sepsparse.model.brute_force_solve`.
"""

import numpy as np
import pytest

from sepsparse.dp import dp_solve, dp_solve_2spike
from sepsparse.head import head_project
from sepsparse.model import brute_force_solve, is_feasible, max_support_size, objective
from sepsparse.seeding import make_rng
from sepsparse.tail import tail_project, topk_tail_project

CASES = 1000
MAX_N = 14


def hostile_instance(rng):
    """One small instance ``(x, k, delta)`` of a randomly chosen hostile kind."""
    n = int(rng.integers(1, MAX_N + 1))
    kind = int(rng.integers(0, 5))
    if kind == 0:  # ties
        x = rng.integers(0, 3, size=n).astype(float)
    elif kind == 1:  # zero runs
        x = rng.random(n)
        lo = int(rng.integers(0, n))
        x[lo : lo + int(rng.integers(1, n + 1))] = 0.0
    elif kind == 2:  # each weight at its own scale in 1e-300..1e300
        x = rng.random(n) * 10.0 ** rng.integers(-300, 301, size=n)
    elif kind == 3:  # one scale near either end of the range
        x = rng.random(n) * 10.0 ** int(rng.choice([-300, -150, 150, 299]))
    else:
        x = np.ones(n)
    delta = int(rng.integers(1, n + 5))  # delta > n in about a quarter of cases
    k = int(rng.integers(1, n + 3))  # often beyond max_support_size
    return x, k, delta


def test_every_algorithm_against_the_oracle():
    rng = make_rng(9191)
    past_packing = delta_past_n = 0
    for _ in range(CASES):
        x, k, delta = hostile_instance(rng)
        n = x.size
        total = float(x.sum())
        # Rounding in any length-n sum; ties within it may resolve either way.
        slack = 64 * np.finfo(float).eps * total
        past_packing += k > max_support_size(n, delta)
        delta_past_n += delta > n
        opt = {}
        for p, solve in ((1, dp_solve), (2, dp_solve_2spike)):
            _, opt[p] = brute_force_solve(x, k, delta, p)
            values, sols = solve(x, k, delta)
            assert is_feasible(sols[-1], n, k, delta, p)
            assert objective(x, sols[-1]) == values[-1]
            assert abs(values[-1] - opt[p]) <= slack
            for lam in (1, 2, 3):
                sol = head_project(x, k, delta, p, 1.0 / lam)
                assert is_feasible(sol, n, k, delta, p)
                assert objective(x, sol) >= lam / (lam + 1) * opt[p] - slack
        opt_left = total - opt[1]
        for eps in (1.0, 0.5, 0.25):
            sol = tail_project(x, k, delta, eps)
            assert is_feasible(sol, n, k, delta)
            assert total - objective(x, sol) <= (1 + eps) * opt_left + slack
        sol = topk_tail_project(x, k, delta)
        assert is_feasible(sol, n, k, delta)
        assert total - objective(x, sol) <= 2 * opt_left + slack
        with pytest.raises(ValueError):
            head_project(x, k, delta, 3, 0.5)
    assert past_packing >= CASES // 10 and delta_past_n >= CASES // 10
