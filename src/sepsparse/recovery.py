"""Compressed-sensing recovery of separated-sparse signals.

The sensing model is its dense Gaussian ``(m, n)`` matrix itself, with entry
variance 1/m, so measuring preserves expected squared norms; every function
here reads ``m`` and ``n`` from its shape.  Recovery alternates a
head projection of the gradient (doubled budget, two spikes: the residual of
two separated supports is two-spike separated) with a tail projection of the
updated iterate (original budget, one spike).

Each projection's windowed loop caps ``lam`` at ``ceil(n/delta)``; at that
cap its last keep-set is the whole ground set, so the loop ends in an exact
solve anyway.  A step whose ``lam`` reaches the cap therefore calls the
exact DP once instead, and every other step runs the windowed projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .head import head_project
from .model import InfeasibleParameters, as_signal, is_feasible, max_support_size, restrict, squared_weights
from .seeding import make_rng
from .tail import tail_project

__all__ = [
    "Measurement",
    "RecoveryTrace",
    "am_iht",
    "default_measurement_count",
    "empirical_rip",
    "gen_sensing",
    "measure",
    "random_feasible_support",
]

HEAD_SPIKES = 2


@dataclass(frozen=True)
class Measurement:
    """Noisy linear observations ``y`` and the noise ``e`` added to them."""

    y: np.ndarray
    e: np.ndarray


@dataclass
class RecoveryTrace:
    """Per-iterate supports and error norms, including the zero start.

    ``head_path`` and ``tail_path`` name how every head and every tail
    step was projected: ``"exact"`` (one exact DP call) or ``"windowed"``
    (the best-over-windows loop).
    """

    supports: list[tuple[int, ...]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    proxies: list[float] = field(default_factory=list)
    head_path: str = "windowed"
    tail_path: str = "windowed"

    @property
    def iterations(self) -> int:
        return len(self.supports) - 1


def default_measurement_count(n: int, k: int) -> int:
    """Benchmark default m = ceil(6 k ln n), clamped to [1, n]."""
    return min(max(1, math.ceil(6.0 * k * math.log(n))), n)


def gen_sensing(m: int, n: int, seed: int) -> np.ndarray:
    """Gaussian ``(m, n)`` sensing matrix with entries N(0, 1/m), filled row-major."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return make_rng(seed).standard_normal((m, n)) * (1.0 / math.sqrt(m))


def measure(A: np.ndarray, x, noise_sigma: float, seed: int) -> Measurement:
    """Observe ``y = A x + e`` with i.i.d. Gaussian noise of the given sigma."""
    m, n = A.shape
    x = as_signal(x)
    if x.size != n:
        raise ValueError(f"signal length {x.size} != model width {n}")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    e = make_rng(seed).standard_normal(m) * noise_sigma
    return Measurement(y=A @ x + e, e=e)


def _reaches_cap(scale: float, epsilon: float, n: int, delta: int) -> bool:
    """Whether the window loop's ``lam = ceil(scale/epsilon)`` reaches its cap ``ceil(n/delta)``."""
    # scale/epsilon overflows to inf for a tiny epsilon; min() keeps it at n.
    return math.ceil(min(scale / epsilon, n)) >= math.ceil(n / min(delta, max(n, 1)))


def _exact_support(w: np.ndarray, budget: int, delta: int, p: int) -> tuple[int, ...]:
    """An optimal support of the exact DP for spike count ``p``; ``()`` for no budget."""
    # Levels past the packing limit repeat it, so solving at the limit is the same.
    budget = min(budget, max_support_size(w.size, delta, p))
    if budget <= 0:
        return ()
    return dp.table_builder(p)(w, budget, delta)[-1]


def am_iht(
    y,
    A: np.ndarray,
    k: int,
    delta: int,
    iterations: int,
    eps_head: float,
    eps_tail: float,
    *,
    x_true=None,
    stop_tol: float | None = None,
) -> tuple[np.ndarray, RecoveryTrace]:
    """Iterative hard thresholding with approximate projections.

    Starting from zero, each iteration head-projects the squared gradient
    (budget 2k, ``HEAD_SPIKES`` spikes), adds the surviving gradient
    entries, tail-projects the squared result back to a (k, delta)-feasible
    support, and restricts.  Residual norms are recorded
    when ``x_true`` is supplied; ``stop_tol`` optionally ends the loop when
    the measurement-space proxy stalls.

    The head step runs the exact 2-spike DP when ``ceil(min(1/eps_head,
    n))`` reaches ``ceil(n/delta)``, and the tail step the exact 1-spike DP
    when ``ceil(min(2/eps_tail, n))`` does: the windowed loop would end in
    that same exact solve.  An exact support meets both the head and the
    tail guarantee.  Otherwise the step calls :func:`head_project` or
    :func:`tail_project`.  The trace's ``head_path`` and ``tail_path`` say
    which ran.  The epsilons and ``delta`` are checked up front, as the
    windowed projectors check them, whichever path runs.
    """
    m, n = A.shape
    y = as_signal(y)
    if y.size != m:
        raise ValueError(f"measurement length {y.size} != model height {m}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    for epsilon in (eps_head, eps_tail):
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
    head_exact = _reaches_cap(1.0, eps_head, n, delta)
    tail_exact = _reaches_cap(2.0, eps_tail, n, delta)
    budget = 2 * k
    truth = None if x_true is None else as_signal(x_true)

    def residual_norm(xj: np.ndarray) -> float:
        if truth is None:
            return float("nan")
        return float(np.linalg.norm(truth - xj))

    xj = np.zeros(n)
    res = y - A @ xj
    trace = RecoveryTrace(
        supports=[()],
        residuals=[residual_norm(xj)],
        proxies=[float(np.linalg.norm(res))],
        head_path="exact" if head_exact else "windowed",
        tail_path="exact" if tail_exact else "windowed",
    )
    for _ in range(iterations):
        g = A.T @ res
        w = squared_weights(g)
        if head_exact:
            h_support = _exact_support(w, budget, delta, HEAD_SPIKES)
        else:
            h_support = head_project(w, budget, delta, HEAD_SPIKES, eps_head)
        if not is_feasible(h_support, n, budget, delta, HEAD_SPIKES):
            raise RuntimeError(f"head projection returned an infeasible support {h_support}")
        merged = xj + restrict(g, h_support)
        w = squared_weights(merged)
        if tail_exact:
            t_support = _exact_support(w, k, delta, 1)
        else:
            t_support = tail_project(w, k, delta, eps_tail)
        if not is_feasible(t_support, n, k, delta, 1):
            raise RuntimeError(f"tail projection returned an infeasible support {t_support}")
        xj = restrict(merged, t_support)
        res = y - A @ xj
        trace.supports.append(t_support)
        trace.residuals.append(residual_norm(xj))
        trace.proxies.append(float(np.linalg.norm(res)))
        if stop_tol is not None and abs(trace.proxies[-1] - trace.proxies[-2]) < stop_tol:
            break
    return xj, trace


def random_feasible_support(
    n: int, k: int, delta: int, p: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniform draw from the feasible size-k supports.

    The single-spike case maps bijectively onto unconstrained combinations
    by shrinking every gap by delta - 1.  For p >= 2 we draw unconstrained
    size-k subsets and reject infeasible ones, which is exactly uniform but
    only practical away from the packing limit.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > max_support_size(n, delta, p):
        raise InfeasibleParameters(
            f"no (delta={delta}, p={p})-feasible support of size {k} exists in [1, {n}]"
        )
    if k == 0:
        return ()
    if p == 1:
        slots = n - (k - 1) * (delta - 1)
        base = np.sort(rng.choice(slots, size=k, replace=False)) + 1
        return tuple(int(v) for v in base + np.arange(k) * (delta - 1))
    for _ in range(10_000):
        cand = np.sort(rng.choice(n, size=k, replace=False)) + 1
        if all(cand[j + p] - cand[j] >= delta for j in range(k - p)):
            return tuple(int(v) for v in cand)
    raise RuntimeError(
        "rejection sampling failed; the support density is too close to the packing limit"
    )


def empirical_rip(A: np.ndarray, k: int, delta: int, p: int, samples: int, seed: int) -> float:
    """Worst observed isometry defect over random feasible unit vectors.

    Draws ``samples`` supports, fills them with normalized Gaussian
    coefficients, and returns ``max |  ||A x||^2 - 1 |``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = A.shape[1]
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(samples):
        support = random_feasible_support(n, k, delta, p, rng)
        coeffs = rng.standard_normal(len(support))
        coeffs /= np.linalg.norm(coeffs)
        cols = np.asarray(support, dtype=np.intp) - 1
        image = A[:, cols] @ coeffs
        worst = max(worst, abs(float(image @ image) - 1.0))
    return worst
