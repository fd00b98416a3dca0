"""Core domain model for budgeted separated-sparsity projection.

Conventions used throughout the package:

* Weight vectors are 1-D float64 numpy arrays with non-negative entries
  (signed signals are squared entrywise before projection, see
  :func:`squared_weights`).
* A *support* is a strictly increasing tuple of 1-based indices.
* Feasibility for separation ``delta`` and spike count ``p`` uses the
  window rule: every ``delta`` consecutive positions may contain at most
  ``p`` chosen indices.  For ``p == 1`` this is exactly the pairwise rule
  ``|i - j| >= delta`` for distinct chosen ``i, j``.
* Each parameter rule has one home: :func:`check_delta` checks and clamps
  ``delta``, :func:`check_p` checks ``p``, :func:`check_budget` checks a
  budget ``k``, :func:`check_lam` checks a window count ``lam``,
  :func:`check_count` checks every other count and every seed,
  :func:`as_weights` checks every weight vector, and :func:`is_feasible`
  is the one feasibility test, which every other module calls.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "MAX_BRUTE_FORCE_N",
    "InfeasibleParameters",
    "as_signal",
    "as_support",
    "as_weights",
    "brute_force_solve",
    "check_budget",
    "check_count",
    "check_delta",
    "check_lam",
    "check_p",
    "is_feasible",
    "max_support_size",
    "objective",
    "restrict",
    "squared_weights",
]

# Exhaustive search refuses anything longer than this.
MAX_BRUTE_FORCE_N = 25


class InfeasibleParameters(ValueError):
    """No feasible support exists for the requested (n, k, delta, p)."""


def as_weights(x) -> np.ndarray:
    """Coerce ``x`` to a contiguous float64 vector of finite non-negative weights.

    Every projection runs its input through this before any other work, so
    it is the one home of the weight rule; the CLI relies on it too.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size:
        # min and max propagate NaN, so these two reductions also catch it;
        # the sign test alone would not, as NaN < 0 is False.
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weight vectors must be finite (no NaN or inf)")
        if lo < 0.0:
            raise ValueError("weight vectors must be entrywise non-negative; square a signed signal first")
    return arr


def as_signal(v) -> np.ndarray:
    """Coerce ``v`` to a contiguous float64 vector (entries may be negative)."""
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def as_support(indices, n: int | None = None) -> tuple[int, ...]:
    """Normalize ``indices`` to a strictly increasing tuple of 1-based ints.

    Rejects duplicates, and rejects anything outside ``[1, n]`` when ``n``
    is given.
    """
    idx = sorted(int(i) for i in indices)
    for a, b in zip(idx, idx[1:]):
        if a == b:
            raise ValueError(f"support contains duplicate index {a}")
    if idx:
        if idx[0] < 1:
            raise ValueError(f"support index {idx[0]} below 1")
        if n is not None and idx[-1] > n:
            raise ValueError(f"support index {idx[-1]} exceeds n={n}")
    return tuple(idx)


def is_feasible(indices, n: int, k: int, delta: int, p: int = 1) -> bool:
    """Check that ``indices`` is a valid support of size <= k.

    The window rule is evaluated through its pairwise form: sorted indices
    ``i_1 < i_2 < ...`` satisfy it iff ``i_{j+p} - i_j >= delta`` for every
    ``j``.  Indices outside ``[1, n]`` and a ``delta`` or ``p`` below 1 raise ``ValueError``.
    """
    check_delta(delta, n)
    p = check_p(p)
    k = check_budget(k)
    idx = as_support(indices, n)
    if len(idx) > k:
        return False
    for j in range(len(idx) - p):
        if idx[j + p] - idx[j] < delta:
            return False
    return True


def objective(x, indices) -> float:
    """Total weight of ``indices`` under ``x``; the empty support scores 0.

    Summation runs sequentially in ascending index order, which matches the
    accumulation order of the dynamic-programming solvers exactly.
    """
    arr = as_weights(x)
    return _ascending_sum(arr, as_support(indices, arr.size))


def _ascending_sum(x: np.ndarray, support: tuple[int, ...]) -> float:
    """:func:`objective` on weights and a support already checked, for
    callers that score many supports of one vector."""
    total = 0.0
    for w in x[np.asarray(support, dtype=np.intp) - 1].tolist():
        total += w
    return total


def squared_weights(v) -> np.ndarray:
    """Entrywise square of a signed signal, yielding a weight vector."""
    arr = as_signal(v)
    return arr * arr


def restrict(v, indices) -> np.ndarray:
    """Keep ``v`` on ``indices`` and zero it elsewhere."""
    arr = as_signal(v)
    idx = as_support(indices, arr.size)
    out = np.zeros_like(arr)
    if idx:
        pos = np.asarray(idx, dtype=np.intp) - 1
        out[pos] = arr[pos]
    return out


def _as_int(value, name: str) -> int:
    """``value`` as a Python int through ``operator.index``, so a numpy
    integer computes in Python ints; a float or any other non-integer
    raises ``ValueError``.  A Python ``bool`` is an ``int`` and passes."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_delta(delta: int, n: int) -> int:
    """``delta`` checked to be an integer >= 1 and clamped to ``max(n, 1)``:
    on ``n`` positions any ``delta >= n`` admits the same supports as
    ``delta = n``.  The result is a Python int."""
    delta = _as_int(delta, "delta")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return min(delta, max(n, 1))


def check_budget(k: int) -> int:
    """A budget ``k`` checked to be an integer, as a Python int.  Whether
    a ``k <= 0`` is an empty support or an error is each caller's rule."""
    return _as_int(k, "k")


def check_p(p: int) -> int:
    """``p`` checked to be an integer >= 1, as a Python int."""
    p = _as_int(p, "p")
    if p < 1:
        raise ValueError("p must be >= 1")
    return p


def check_lam(lam: int) -> int:
    """A window count ``lam`` checked to be an integer >= 0, as a Python int."""
    lam = _as_int(lam, "lam")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return lam


def check_count(value: int, name: str, least: int | None = 1) -> int:
    """A count or seed ``name`` checked to be an integer >= ``least`` (any
    integer for ``None``), as a Python int: a numpy integer computes as the
    int it holds, and a float, NaN or string raises ``ValueError``."""
    value = _as_int(value, name)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def max_support_size(n: int, delta: int, p: int = 1) -> int:
    """Largest feasible support size on ``[n]`` for the given (delta, p);
    0 for a negative ``n``."""
    n = check_count(n, "n", None)
    delta = check_delta(delta, n)
    p = check_p(p)
    if n < 0:
        return 0
    # A window holds at most delta distinct positions, so p >= delta is vacuous.
    eff = min(p, delta)
    return eff * (n // delta) + min(eff, n % delta)


def brute_force_solve(x, k: int, delta: int, p: int = 1) -> tuple[tuple[int, ...], float]:
    """Exhaustive-search oracle; the reference for every solver test.

    Takes the solvers' arguments: a non-empty weight vector ``x``, the
    budget ``k``, the separation ``delta`` and the spike count ``p``, each
    at least 1.  Enumerates all feasible subsets of the nonzero positions
    of size <= k and returns the best one.  Ties on the objective are
    broken toward the lexicographically smallest index sequence, so the
    output is a stable golden value.  Refuses ``n > 25``.
    """
    x = as_weights(x)
    n = x.size
    k = check_budget(k)
    if n < 1:
        raise ValueError("brute force requires n >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    delta = check_delta(delta, n)
    p = check_p(p)
    if n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"brute force limited to n <= {MAX_BRUTE_FORCE_N}, got {n}")
    nonzero = [int(i) + 1 for i in np.flatnonzero(x)]

    best: tuple[int, ...] = ()
    best_val = 0.0
    chosen: list[int] = []

    def extend(start: int, total: float) -> None:
        nonlocal best, best_val
        cand = tuple(chosen)
        if total > best_val or (total == best_val and cand < best):
            best, best_val = cand, total
        if len(chosen) == k:
            return
        for pos in range(start, len(nonzero)):
            i = nonzero[pos]
            # Adding i only interacts with the choice made p steps back.
            if len(chosen) >= p and i - chosen[-p] < delta:
                continue
            chosen.append(i)
            extend(pos + 1, total + x[i - 1])
            chosen.pop()

    extend(0, 0.0)
    if not is_feasible(best, n, k, delta, p):
        raise RuntimeError(f"oracle support {best} is infeasible")
    return best, best_val
