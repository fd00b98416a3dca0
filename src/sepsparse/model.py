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
* Each input rule has one home: :func:`check_count` checks every
  integer the package takes (a budget ``k``, a spike count ``p``, a window
  count ``lam``, every other count, every seed and every support index),
  :func:`check_delta` checks ``delta`` through it and clamps it,
  :func:`check_real` checks every real scalar (a precision, a noise level,
  a tolerance, a gap), :func:`as_signal` checks every vector and
  :func:`is_numeric` every array's dtype, :func:`check_finite` finds NaN
  and inf in any of them, :func:`as_weights` checks every weight vector,
  :func:`as_positions` every array of sorted 1-based positions, and
  :func:`is_feasible` is the one feasibility test, which every other
  module calls.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = [
    "MAX_BRUTE_FORCE_N",
    "InfeasibleParameters",
    "as_positions",
    "as_signal",
    "as_support",
    "as_weights",
    "brute_force_solve",
    "check_count",
    "check_delta",
    "check_finite",
    "check_real",
    "is_feasible",
    "is_numeric",
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
    """:func:`as_signal` of ``x``, checked to hold finite non-negative weights.

    Every projection runs its input through this before any other work, so
    it is the one home of the weight rule; the CLI relies on it too.
    """
    arr = as_signal(x)
    if check_finite(arr, "weight vectors") < 0.0:
        raise ValueError("weight vectors must be entrywise non-negative; square a signed signal first")
    return arr


def as_positions(values, n: float = math.inf, name: str = "kept") -> np.ndarray:
    """``values`` as an int32 or int64 array, checked to hold strictly
    increasing integer positions in ``[1, n]``; the message names them
    ``name``.  An int32 or int64 array is returned as it is and every other
    integer dtype is widened to ``np.intp`` first, so callers may compute
    ``pos - delta`` without wrapping.  An unsigned value past the
    ``np.intp`` range wraps to a negative, which the order or the range
    test then finds.  A compare, not a difference, finds a step down: a
    difference could wrap.
    """
    values = np.asarray(values)
    ok = values.dtype.kind in "iu" and values.ndim == 1
    if ok and not (values.dtype.kind == "i" and values.itemsize >= 4):
        values = values.astype(np.intp)
    if not ok or (values[1:] <= values[:-1]).any() or (values.size and not 1 <= values[0] <= values[-1] <= n):
        raise ValueError(f"{name} must be a strictly increasing integer array in [1, {n}]")
    return values


def as_signal(v) -> np.ndarray:
    """``v`` as a contiguous float64 vector (entries may be negative).

    ``v`` must be 1-D and numeric (:func:`is_numeric`), tested before any
    conversion: a scalar, a 0-d array, bools, complex numbers, strings and
    objects raise ``ValueError``.  An empty list is a float vector.
    """
    arr = np.asarray(v)
    if not is_numeric(arr) or arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector of integers or floats, got shape {arr.shape} of {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.float64)


def is_numeric(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds integers or floats: the dtype rule of every
    weight vector, signal and sensing model.  Bools, complex numbers,
    strings and objects are not numeric."""
    return arr.dtype.kind in "iuf"


def check_finite(arr: np.ndarray, name: str) -> float:
    """Check that the numeric array ``arr`` holds no NaN or inf, naming it
    ``name`` in the ``ValueError``, and return its least entry (0.0 if it
    is empty) for a caller's sign test.  min and max propagate NaN, so two
    reductions find any non-finite entry without a temporary the size of
    ``arr``."""
    lo, hi = (float(arr.min()), float(arr.max())) if arr.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite (no NaN or inf)")
    return lo


def as_support(indices, n: int | None = None) -> tuple[int, ...]:
    """Normalize ``indices`` to a strictly increasing tuple of 1-based ints.

    Each index goes through :func:`check_count`, so a float, a string or an
    index below 1 raises ``ValueError``.  Rejects duplicates, and rejects
    anything past ``n`` when ``n`` is given.
    """
    idx = sorted(check_count(i, "support index") for i in indices)
    for a, b in zip(idx, idx[1:]):
        if a == b:
            raise ValueError(f"support contains duplicate index {a}")
    if idx and n is not None and idx[-1] > n:
        raise ValueError(f"support index {idx[-1]} exceeds n={n}")
    return tuple(idx)


def is_feasible(indices, n: int, k: int, delta: int, p: int = 1) -> bool:
    """Check that ``indices`` is a valid support of size <= k.

    The window rule is evaluated through its pairwise form: sorted indices
    ``i_1 < i_2 < ...`` satisfy it iff ``i_{j+p} - i_j >= delta`` for every
    ``j``.  Indices outside ``[1, n]`` and a ``delta`` or ``p`` below 1 raise ``ValueError``.
    """
    check_delta(delta, n)
    p = check_count(p, "p")
    k = check_count(k, "k", None)
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


def check_count(value: int, name: str, least: int | None = 1) -> int:
    """The integer ``name`` checked to be >= ``least`` (any integer for
    ``None``), as a Python int through ``operator.index``: a numpy integer
    computes as the int it holds, and a float, NaN or string raises
    ``ValueError``.  A Python ``bool`` is an ``int`` and passes.  This is
    the package's one integer rule."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_delta(delta: int, n: int) -> int:
    """``delta`` checked to be an integer >= 1 and clamped to ``max(n, 1)``:
    on ``n`` positions any ``delta >= n`` admits the same supports as
    ``delta = n``.  The result is a Python int."""
    return min(check_count(delta, "delta"), max(n, 1))


def check_real(value: float, name: str, least: float, *, strict: bool = False, finite: bool = False) -> None:
    """Check the real scalar ``name`` to be >= ``least`` (> ``least`` when
    ``strict``) and, when ``finite``, below inf; callers use it as it is.
    Any ``numbers.Real`` is a real: Python and numpy ints and floats, a
    ``bool`` and a ``Fraction``.  NaN fails the comparison, and ``None``, a
    string, a complex number, a ``Decimal``, a list and a numpy array of any
    ``ndim`` are not reals, so each raises ``ValueError``.  So does a real
    past the float range, such as the int ``10**400``, as every taker
    computes in floats.  This is the package's one real-scalar rule."""
    ok = isinstance(value, numbers.Real) and (least < value if strict else least <= value)
    if ok:
        try:
            float(value)
        except OverflowError:
            ok = False
    if not ok or (finite and value == math.inf):
        kind = "finite real" if finite else "real"
        raise ValueError(f"{name} must be a {kind} {'>' if strict else '>='} {least}, got {value!r}")


def max_support_size(n: int, delta: int, p: int = 1) -> int:
    """Largest feasible support size on ``[n]`` for the given (delta, p);
    0 for a negative ``n``."""
    n = check_count(n, "n", None)
    delta = check_delta(delta, n)
    p = check_count(p, "p")
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
    k = check_count(k, "k")
    if n < 1:
        raise ValueError("brute force requires n >= 1")
    delta = check_delta(delta, n)
    p = check_count(p, "p")
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
