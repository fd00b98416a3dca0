"""The tie rule of the exact solvers, pinned against brute force.

Among the optimal supports of a budget, a DP table reads back the
colex-least one: the smallest last index, then the smallest index before
it, and so on, so that where zero weights tie, fewer picks win.  The slice
solver with every nonzero position kept reads the same support.  Integer
weights sum exactly, so these ties are ties in real arithmetic too.
"""

from itertools import combinations

import numpy as np
import pytest

from sepsparse import dp
from sepsparse.head import slice_solve
from sepsparse.seeding import make_rng


def tie_cases(seed: int, count: int):
    """``count`` small ``(x, delta)`` cases of integer weights with zeros and ties."""
    rng = make_rng(seed)
    for c in range(count):
        n = int(rng.integers(1, 13))
        delta = int(rng.integers(1, 6))
        top = (2, 3, 1)[c % 3]
        x = rng.integers(0, top + 1, n).astype(float)
        yield x, delta


def colex_least_optima(x: np.ndarray, delta: int, p: int, budget: int) -> list[tuple[int, ...]]:
    """For each budget from 0 to ``budget``, the colex-least optimal support,
    found over every feasible subset of ``[n]``."""
    n = x.size
    feasible = [
        c
        for size in range(n + 1)
        for c in combinations(range(1, n + 1), size)
        if all(c[j + p] - c[j] >= delta for j in range(len(c) - p))
    ]
    values = [sum(float(x[i - 1]) for i in c) for c in feasible]
    best = []
    for ell in range(budget + 1):
        top = max(v for c, v in zip(feasible, values) if len(c) <= ell)
        best.append(min((c for c, v in zip(feasible, values) if len(c) <= ell and v == top), key=lambda c: c[::-1]))
    return best


@pytest.mark.parametrize("p", [1, 2])
def test_every_table_reads_back_the_colex_least_optimum(p):
    wrong = []
    for x, delta in tie_cases(2601 + p, 150):
        budget = x.size + 1
        table = dp.table_builder(p)(x, budget, delta)
        want = colex_least_optima(x, delta, p, budget)
        for ell in range(budget + 1):
            if table.support(ell) != want[ell]:
                wrong.append((x.tolist(), delta, ell, table.support(ell), want[ell]))
    assert wrong == []


@pytest.mark.parametrize("p", [1, 2])
def test_slice_keeping_every_nonzero_reads_the_tables_support(p):
    wrong = []
    for x, delta in tie_cases(2611 + p, 300):
        table = dp.table_builder(p)(x, x.size + 1, delta)
        kept = np.flatnonzero(x) + 1
        for k in range(1, x.size + 2):
            if slice_solve(kept, x, k, delta, p) != table.support(k):
                wrong.append((x.tolist(), delta, k))
    assert wrong == []
