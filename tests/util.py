"""Independent reference implementations shared across the test suite.

Everything here is deliberately written the slow, obvious way so that it
never shares code paths with the package internals it checks.  The window
helpers build on :func:`sepsparse.head.drop_phase`, the one definition of
the periodic keep-sets, which the tests check separately.  The per-block
slice solver builds on the exact DPs and the block decomposition, which
the tests check against the brute-force oracle, to pin down how
``slice_solve`` batches them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from sepsparse import dp
from sepsparse.head import block_decompose, drop_phase
from sepsparse.model import as_weights, check_count, check_delta, max_support_size
from sepsparse.seeding import make_rng


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


def gather_tail_vector(x, delta: int) -> np.ndarray:
    """The prefix-sum tail vector read by two index gathers over ``[n]``.

    This is ``tail_vector`` before it read ``prefix`` as contiguous slices;
    the sliced form must match it bit for bit.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    delta = check_delta(delta, n)
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    positions = np.arange(1, n + 1)
    hi = np.minimum(positions + delta - 1, n)
    lo = np.maximum(positions - delta, 0)
    return prefix[hi] - prefix[lo] - x


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


def keep_only(n: int, members) -> np.ndarray:
    """Keep mask over ``[n]`` selecting exactly the 1-based indices in ``members``."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(list(members), dtype=np.int64) - 1] = True
    return mask


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


def stepwise_poisson(n: int, expected_gap: float, seed: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Spike train drawn like ``gen_poisson``, placing one spike per Python step.

    Draws the same chunks of rounded exponential gaps and adds them to the
    position one at a time, stopping at the first position past ``n``.
    """
    rng = make_rng(seed)
    chunk = max(16, int(2 * n / expected_gap) + 8)
    positions: list[int] = []
    pos = 0
    done = False
    while not done:
        gaps = np.maximum(1, np.rint(rng.exponential(expected_gap, size=chunk))).astype(np.int64)
        for g in gaps:
            pos += int(g)
            if pos > n:
                done = True
                break
            positions.append(pos)
    values = rng.random(len(positions))
    x = np.zeros(n)
    for pos, value in zip(positions, values):
        x[pos - 1] = value
    return x, tuple(positions)


def unrestricted_reference(x, delta: int) -> tuple[float, tuple[int, ...]]:
    """The budget-free 1-spike recurrence with one Python step per position.

    This is ``dp_solve_unrestricted``'s former loop over all of ``[n]``; the
    budget-free solver's loop over the positions it is given, all of them
    or the nonzero ones, must match it bit for bit.  The
    support is read back by scanning the take flags down from ``n``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    best = np.zeros(n + 1)
    flags = np.zeros(n + 1, dtype=bool)
    for i in range(1, n + 1):
        cand = x[i - 1] + (best[i - delta] if i > delta else 0.0)
        if cand > best[i - 1]:
            best[i] = cand
            flags[i] = True
        else:
            best[i] = best[i - 1]
    sol: list[int] = []
    i = n
    while i >= 1:
        if flags[i]:
            sol.append(i)
            i -= delta
        else:
            i -= 1
    return float(best[n]), tuple(reversed(sol))


def topk_reference(x, k: int, delta: int) -> tuple[int, ...]:
    """Top-k tail selection solved by :func:`unrestricted_reference`.

    Keeps the ``k`` heaviest entries, ties toward lower indices, by a stable
    sort rather than a partition.
    """
    x = np.asarray(x, dtype=float)
    keep = np.zeros(x.size, dtype=bool)
    keep[np.argsort(-x, kind="stable")[: max(k, 0)]] = True
    return unrestricted_reference(np.where(keep, x, 0.0), delta)[1]


def unrestricted_cases(seed: int, count: int):
    """``count`` small hostile ``(x, k, delta)`` cases, then 4 large sparse and 4 dense.

    The small ones cycle through integer ties with zero runs, ``-0.0``
    entries, all-zero and empty vectors, weights from 1e-300 to 1e300, and a
    ``delta`` past ``n``.  The large sparse ones have ``n`` from 2e4 to 1e5
    and at most ``k`` nonzeros, the vectors top-k hands the solver.
    """
    rng = make_rng(seed)
    for c in range(count):
        n = int(rng.integers(0, 60))
        delta = int(rng.integers(1, 12))
        kind = c % 5
        if kind == 0:
            x = rng.integers(0, 3, n).astype(float)
            start = int(rng.integers(0, n + 1))
            x[start : start + int(rng.integers(0, 20))] = 0.0
        elif kind == 1:
            x = np.where(rng.random(n) < 0.5, -0.0, rng.integers(0, 3, n).astype(float))
        elif kind == 2:
            x = np.zeros(n if c % 2 else 0)
        elif kind == 3:
            x = 10.0 ** rng.uniform(-300, 300, n) * (rng.random(n) < 0.6)
        else:
            x = np.round(rng.random(n) * 3, 1)
            delta = n + int(rng.integers(1, 10**6))
        yield x, int(rng.integers(-1, n + 3)), delta
    for _ in range(4):
        n = int(rng.integers(20_000, 100_001))
        k = int(rng.integers(1, 400))
        x = np.zeros(n)
        x[rng.choice(n, size=k, replace=False)] = np.ceil(rng.random(k) * 5)
        yield x, k, int(rng.integers(1, 400))
    for _ in range(4):
        n = int(rng.integers(1_000, 5_001))
        yield rng.random(n), int(rng.integers(1, n + 1)), int(rng.integers(1, 80))


def table_row(table, r: int):
    """Row ``r`` of a DP table built on rows, as a table of its own: the
    table the same builder returns for that row alone."""
    return type(table)(table.values[r], table.flags[..., r, :], table.budget, table.delta, table.n)


def table1_reference(x, budget: int, delta: int):
    """The budgeted 1-spike table from a pass that runs every level on all
    ``n`` prefixes.

    This is ``build_table_1spike`` before each level ran only the
    prefixes where it can differ from the level below, and before its
    running maximum was ``fmax``: every level adds all ``n``
    candidates, takes their running maximum from 0 and packs its whole
    staging.  The builder must give the same values and flags bit for
    bit.
    """
    arr = np.asarray(x)
    x = as_weights(arr.ravel()).reshape(arr.shape) if arr.ndim == 2 else as_weights(arr)
    n = x.shape[-1]
    delta = check_delta(delta, n)
    budget = check_count(budget, "k", None)
    rows = x.shape[:-1]
    s = min(delta, n)
    top = min(budget, max_support_size(n, delta, 1))
    nbytes = (n + 8) // 8
    flags = np.zeros((top + 1, *rows, nbytes), dtype=np.uint8)
    values = np.zeros((top, *rows))
    prev = np.zeros((*rows, s + n + 1))
    row = np.zeros((*rows, s + n + 1))
    cand = np.empty(x.shape)
    take = np.zeros((*rows, 8 * nbytes), dtype=bool)
    took = take[..., 1 : n + 1]
    for ell in range(1, top + 1):
        np.add(x, prev[..., 1 : n + 1], out=cand)
        np.maximum.accumulate(cand, axis=-1, out=row[..., s + 1 :])
        np.greater(cand, row[..., s : s + n], out=took)
        flags[ell] = np.packbits(take).reshape(flags.shape[1:])
        values[ell - 1] = row[..., s + n]
        prev, row = row, prev
    return dp.DpTable1(values.T, flags, budget, delta, n)


def table2_reference(x, budget: int, delta: int):
    """The budgeted 2-spike table from its row-major forward pass.

    This is ``build_table_2spike`` before it ran prefix-major: every
    width step runs on rows of ``n`` prefixes, one per batch row, through
    a candidate buffer.  The prefix-major pass must give the same values
    and flags bit for bit.
    """
    arr = np.asarray(x)
    x = as_weights(arr.ravel()).reshape(arr.shape) if arr.ndim == 2 else as_weights(arr)
    n = x.shape[-1]
    delta = check_delta(delta, n)
    budget = check_count(budget, "k", None)
    if delta == 1:
        return table1_reference(x, budget, 1)
    rows = x.shape[:-1]
    s = delta - 1
    top = min(budget, max_support_size(n, delta, 2))
    nbytes = (n + 8) // 8
    flags = np.zeros((top + 1, delta, *rows, nbytes), dtype=np.uint8)
    values = np.zeros((top, *rows))
    P = np.zeros((delta, *rows, s + n + 1))
    V = np.zeros((delta, *rows, s + n + 1))
    cand = np.empty(x.shape)
    take = np.zeros((delta, *rows, 8 * nbytes), dtype=bool)
    took = take[..., 1 : n + 1]
    for ell in range(1, top + 1):
        np.add(x, P[delta - 1, ..., s : s + n], out=cand)
        np.maximum.accumulate(cand, axis=-1, out=V[1, ..., s + 1 :])
        np.greater(cand, V[1, ..., s : s + n], out=took[1])
        for i in range(2, delta):
            lo = delta - i
            np.add(x, P[delta - i, ..., lo : lo + n], out=cand)
            np.maximum(cand, V[i - 1, ..., s : s + n], out=V[i, ..., s + 1 :])
            np.greater(cand, V[i - 1, ..., s : s + n], out=took[i])
        flags[ell] = np.packbits(take).reshape(flags.shape[1:])
        values[ell - 1] = V[1, ..., s + n]
        P, V = V, P
    return dp.DpTable2(values.T, flags, budget, delta, n)


def walk2_reference(flags, lev: int, n: int, delta: int) -> tuple[int, ...]:
    """The 2-spike walk-back with one numpy scalar read per step.

    This is ``DpTable2._walk_row`` before it read each level's flags as
    ``bytes``: ``flags`` are one row's packed take-flags and the walk
    starts at level ``lev`` and prefix ``n``.  The byte-reading walk must
    give the same support at every budget.
    """
    sol: list[int] = []
    r = n
    i = 1
    while lev >= 1 and r >= 1:
        if i <= 1:
            r = dp._nearest_take(flags[lev, 1], r)
            if r == 0:
                break
            sol.append(r)
            lev -= 1
            r -= 1
            i = delta - 1
        elif int(flags[lev, i, r >> 3]) >> (7 - (r & 7)) & 1:
            sol.append(r)
            lev -= 1
            r -= i
            i = delta - i
        else:
            r -= 1
            i -= 1
    return tuple(reversed(sol))


def slice_solve_reference(kept, x, k: int, delta: int, p: int = 1) -> tuple[int, ...]:
    """The slice solver with one exact table per block, each on a view of
    the masked weights and with the block's own budget capped at ``k``.

    This is ``slice_solve`` before it stacked a slice's blocks into
    batches and before it read the kept positions straight from ``x``: it
    zeroes every position outside ``kept`` in a copy of ``x`` and cuts the
    copy's nonzero positions into blocks.  The batched solver must match
    it bit for bit.  Gains are picked globally, ties by ascending block id,
    then level, and zero gains are dropped after selection.
    """
    x = np.asarray(x, dtype=float)
    if k <= 0:
        return ()
    x = np.where(keep_only(x.size, kept), x, 0.0)
    delta = check_delta(delta, x.size)
    dec = block_decompose(np.flatnonzero(x) + 1, delta, p)
    if not len(dec.blocks):
        return ()
    solve = dp.table_builder(p)
    tables = [solve(x[lo - 1 : hi], min(b, k), delta) for (lo, hi), b in zip(dec.blocks, dec.budgets)]
    levels = np.array([table.values.size for table in tables])
    values = np.concatenate([table.values for table in tables])
    gains = values.copy()
    gains[1:] -= values[:-1]
    firsts = levels.cumsum() - levels
    gains[firsts] = values[firsts]
    picked = (-gains).argsort(kind="stable")[:k]
    picked = picked[gains[picked] > 0.0]
    per_block = np.bincount(np.arange(len(tables)).repeat(levels)[picked], minlength=len(tables))
    solution: list[int] = []
    for (lo, _hi), table, j in zip(dec.blocks, tables, per_block.tolist()):
        if j:
            solution.extend(local + lo - 1 for local in table.support(j))
    return tuple(solution)
