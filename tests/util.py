"""Independent reference implementations shared across the test suite.

Everything here is deliberately written the slow, obvious way so that it
never shares code paths with the package internals it checks.  The window
helpers build on :func:`sepsparse.head.drop_phase`, the one definition of
the periodic keep-sets, which the tests check separately.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from sepsparse.head import drop_phase
from sepsparse.model import Instance, brute_force_solve


def window_scan_feasible(indices, delta: int, p: int = 1) -> bool:
    """Literal window scan: every delta consecutive positions hold <= p."""
    idx = sorted(indices)
    if not idx:
        return True
    for a in range(idx[0] - delta + 1, idx[-1] + 1):
        if sum(1 for i in idx if a <= i <= a + delta - 1) > p:
            return False
    return True


def pairwise_feasible(indices, k: int, delta: int) -> bool:
    """Single-spike rule: size bound plus pairwise distance >= delta."""
    idx = sorted(indices)
    if len(idx) > k:
        return False
    return all(b - a >= delta for a, b in zip(idx, idx[1:]))


def direct_tail_vector(x, delta: int) -> np.ndarray:
    """O(n * delta) windowed sum, the oracle for the rolling computation."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros(n)
    for i in range(1, n + 1):
        for j in range(i - delta + 1, i + delta):
            if 1 <= j <= n and j != i:
                out[i - 1] += x[j - 1]
    return out


def restricted_optimum(member_indices, x, k: int, delta: int, p: int = 1) -> float:
    """Exhaustive optimum of the projection restricted to a member set."""
    x = np.asarray(x, dtype=float)
    members = sorted(member_indices)
    best = 0.0
    for size in range(1, min(k, len(members)) + 1):
        for combo in combinations(members, size):
            ok = all(combo[j + p] - combo[j] >= delta for j in range(len(combo) - p))
            if ok:
                best = max(best, float(sum(x[i - 1] for i in combo)))
    return best


def oracle_value(x, k: int, delta: int, p: int = 1) -> float:
    _, value = brute_force_solve(Instance(np.asarray(x, dtype=float), k, delta, p))
    return float(value)


def keep_only(members):
    """Keep predicate selecting exactly the 1-based indices in ``members``."""
    members = np.asarray(list(members), dtype=np.int64)
    return lambda idx: np.isin(idx, members)


def window_members(n: int, delta: int, lam: int, nu: int) -> list[int]:
    """The 1-based indices of ``[n]`` that keep-set ``nu`` keeps."""
    return [i for i in range(1, n + 1) if int(drop_phase(i, delta, lam)) != nu]


def coverage_best_window(z, delta: int, lam: int) -> tuple[int, float]:
    """The keep-set retaining the most mass of ``z``, and that mass.

    The kept mass is always at least ``lam / (lam + 1)`` of the total: each
    index is dropped by exactly one keep-set, so the cheapest drop costs at
    most the average ``total / (lam + 1)``.
    """
    z = np.asarray(z, dtype=float)
    phases = drop_phase(np.arange(1, z.size + 1), delta, lam)
    dropped = np.bincount(phases, weights=z, minlength=lam + 1)
    nu = int(np.argmin(dropped))
    return nu, float(z.sum()) - float(dropped[nu])


def tail_bound_coefficient(alpha: float, mu: float) -> float:
    """Leftover-mass ratio bound alpha / (1 - (1-alpha)/(1-mu*alpha)).

    At ``alpha = 1 - eps/2`` and ``mu = 2/3`` it equals ``1 + eps`` exactly.
    """
    if not 0.0 < alpha < 1.0 or not 0.0 < mu < 1.0:
        raise ValueError("alpha and mu must lie strictly inside (0, 1)")
    denom_inner = 1.0 - mu * alpha
    if denom_inner <= 0.0:
        raise ZeroDivisionError("1 - mu*alpha must stay positive")
    return alpha / (1.0 - (1.0 - alpha) / denom_inner)
