"""Tail approximations: leftover-mass guarantees of factor 2 and 1 + eps.

The refined algorithm classifies each index by comparing its weight against
the mass of its punctured radius-(delta-1) neighbourhood.  Indices that
dominate their neighbourhood ("strong") must appear in any optimum, pairwise
separation between them is automatic, and zeroing their weak neighbours (the
"reduced" vector) preserves the optimal value.  Running the head projector
over the reduced vector with the strong indices force-included in every
slice turns the head guarantee into a tail guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp
from .head import best_over_windows, window_count
from .model import as_weights, check_count, check_delta

# perfbench/tracing.py patches these two names here; keep them importable.
from .head import slice_solve  # noqa: F401
from .model import objective  # noqa: F401

__all__ = [
    "TailProfile",
    "strong_and_reduced",
    "tail_project",
    "tail_vector",
    "topk_tail_project",
]


def tail_vector(x, delta: int) -> np.ndarray:
    """Neighbourhood mass around each index, excluding the index itself.

    Entry i sums x over positions within distance < delta of i (both
    directions), minus x_i.  Computed in O(n) from prefix sums, which is
    algebraically the rolling one-step update with out-of-range terms 0:
    ``prefix[min(i + delta - 1, n)] - prefix[max(i - delta, 0)] - x_i``,
    read as contiguous slices of ``prefix`` with constant edges.  A
    ``delta`` past ``n`` covers all of ``[n]`` either way and is clamped
    to ``n``.
    """
    x = as_weights(x)
    return _mass_around(x, check_delta(delta, x.size))


def _mass_around(x: np.ndarray, delta: int) -> np.ndarray:
    """:func:`tail_vector` of a checked vector ``x`` at a checked ``delta``
    no larger than its length (at least 1)."""
    n = x.size
    prefix = np.zeros(n + 1)
    np.cumsum(x, out=prefix[1:])
    out = np.empty(n)
    out[: n - delta + 1] = prefix[delta:]
    out[n - delta + 1 :] = prefix[n]
    # The first delta entries subtract prefix[0] = 0.0, which leaves every
    # float as it is, -0.0 included.
    out[delta:] -= prefix[1 : n - delta + 1]
    out -= x
    return out


@dataclass
class TailProfile:
    """Neighbourhood analysis of a weight vector at one separation.

    ``strong`` holds the indices with x_i > t_i, where t is
    :func:`tail_vector`, and ``r`` is the reduced vector: x with every
    other index within distance < delta of a strong index zeroed out.
    """

    strong: np.ndarray
    r: np.ndarray


def strong_and_reduced(x, delta: int) -> TailProfile:
    """Classify indices as strong/weak and build the reduced vector.

    Strength is the strict comparison ``x_i > t_i``; entries equal to their
    neighbourhood mass count as weak.  Any two strong indices are at least
    ``delta`` apart.  ``x`` and then ``delta`` are checked once, as
    :func:`tail_vector` checks them, and the checked vector is the one
    classified and reduced; ``delta`` is clamped to ``n``, so a numpy
    integer ``delta`` computes as a Python int.
    """
    x = as_weights(x)
    delta = check_delta(delta, x.size)
    t = _mass_around(x, delta)
    strong = np.flatnonzero(x > t) + 1
    r = x.copy()
    # A slice's stop past n stops at n.
    for s in strong.tolist():
        r[max(s - delta, 0) : s + delta - 1] = 0.0
        r[s - 1] = x[s - 1]
    return TailProfile(strong=strong, r=r)


def topk_tail_project(x, k: int, delta: int) -> tuple[int, ...]:
    """Best feasible subset of the k heaviest entries; leftover <= 2x optimal.

    Entry ties at the selection threshold are resolved toward lower
    indices.  The solver never takes a zero weight, so only the nonzero
    weights are ranked: with at most ``k`` of them every one is kept;
    otherwise the threshold is the ``k``-th largest nonzero weight, found
    by partitioning the nonzero weights alone (all of ``x`` when none is
    zero).  The at most ``k`` kept positions and their weights go to the
    budget-free solver :func:`dp.dp_solve_unrestricted`, which therefore
    respects the sparsity budget and runs at most ``k`` steps; only this
    function checks all of ``x``.
    """
    x = as_weights(x)
    n = x.size
    delta = check_delta(delta, n)
    k = check_count(k, "k", None)
    if k <= 0 or n == 0:
        return ()
    keep = x != 0.0
    count = np.count_nonzero(keep)
    if count > k:
        weights = x if count == n else x[keep]
        threshold = np.partition(weights, count - k)[count - k]
        keep = x > threshold
        keep[np.flatnonzero(x == threshold)[: k - np.count_nonzero(keep)]] = True
    pos = np.flatnonzero(keep) + 1
    _, sol = dp.dp_solve_unrestricted(pos, x[pos - 1], delta)
    return sol


def tail_project(x, k: int, delta: int, epsilon: float) -> tuple[int, ...]:
    """Projection leaving at most ``1 + eps`` times the optimal leftover mass.

    Builds the reduced vector, then runs the windowed slice loop at halved
    precision (``lam = ceil(2/epsilon)``, see :func:`window_count`) with
    the strong set kept by every slice: the sorted positions
    :func:`strong_and_reduced` returns go to :func:`best_over_windows` as
    its forced positions as they are.  Strong indices always land in
    singleton blocks of the reduced vector, so block sizes stay bounded.
    Returns the slice solution with maximal reduced-vector mass.
    Single-spike model only.  This wrapper checks nothing itself:
    :func:`window_count` checks ``epsilon``, then ``delta``;
    :func:`strong_and_reduced` checks ``x``; and :func:`best_over_windows`
    checks ``k``, so of several bad arguments they are reported in that
    order.
    """
    lam = window_count(np.size(x), delta, epsilon, 2.0)
    profile = strong_and_reduced(x, delta)
    return best_over_windows(profile.r, k, delta, 1, lam, profile.strong)
