"""Compressed-sensing recovery of separated-sparse signals.

The sensing model is its dense Gaussian ``(m, n)`` matrix itself, with entry
variance 1/m, so measuring preserves expected squared norms; every function
here reads ``m`` and ``n`` from its shape.  Recovery alternates a
head projection of the gradient (doubled budget, two spikes: the residual of
two separated supports is two-spike separated) with a tail projection of the
updated iterate (original budget, one spike).

``head.py`` owns each projection's window count and its cap; at the cap the
last keep-set is the whole ground set, so the loop ends in an exact solve
anyway.  A step whose count reaches the cap therefore calls the exact DP
once instead, and every other step runs the windowed projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .head import head_project, window_cap, window_count
from .model import (
    InfeasibleParameters,
    as_signal,
    check_count,
    check_finite,
    check_real,
    is_feasible,
    is_numeric,
    max_support_size,
    restrict,
    squared_weights,
)
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
    n = check_count(n, "n")
    k = check_count(k, "k", 0)
    return min(max(1, math.ceil(6.0 * k * math.log(n))), n)


def gen_sensing(m: int, n: int, seed: int) -> np.ndarray:
    """Gaussian ``(m, n)`` sensing matrix with entries N(0, 1/m), filled row-major."""
    m = check_count(m, "m")
    n = check_count(n, "n")
    return make_rng(seed).standard_normal((m, n)) * (1.0 / math.sqrt(m))


def _model_shape(A: np.ndarray) -> tuple[int, int]:
    """The ``(m, n)`` shape of the sensing model ``A``.  A model that is not
    a 2-D numeric numpy array with finite entries raises ``ValueError``."""
    if not (isinstance(A, np.ndarray) and A.ndim == 2 and is_numeric(A)):
        got = f"{getattr(A, 'shape', None)} of {getattr(A, 'dtype', type(A).__name__)}"
        raise ValueError(
            f"the sensing model must be a 2-D (m, n) matrix, got shape {got}; "
            "it must be a numeric numpy array with finite entries"
        )
    check_finite(A, "the sensing model")
    return A.shape


def _model_signal(v, name: str, A: np.ndarray, axis: int) -> np.ndarray:
    """``v`` as a finite signal as long as axis ``axis`` of the model ``A``,
    already checked by :func:`_model_shape`: its height (0) for
    measurements, its width (1) for signals."""
    arr = as_signal(v)
    if arr.size != A.shape[axis]:
        side = ("height", "width")[axis]
        raise ValueError(f"{name} length {arr.size} != model {side} {A.shape[axis]}")
    check_finite(arr, name)
    return arr


def measure(A: np.ndarray, x, noise_sigma: float, seed: int) -> Measurement:
    """Observe ``y = A x + e`` with i.i.d. Gaussian noise of the given sigma.

    ``noise_sigma`` goes through :func:`model.check_real` as a finite real
    >= 0.
    """
    _model_shape(A)
    x = _model_signal(x, "signal x", A, 1)
    check_real(noise_sigma, "noise_sigma", 0, finite=True)
    # A Fraction times the noise would make an object array.
    e = make_rng(seed).standard_normal(A.shape[0]) * float(noise_sigma)
    return Measurement(y=A @ x + e, e=e)


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
    the measurement-space proxy stalls.  A ``stop_tol`` other than ``None``
    goes through :func:`model.check_real` as a real >= 0, inf included,
    before the first iteration.

    The head step runs the exact 2-spike DP when ``head.window_count(n,
    delta, eps_head)`` equals ``head.window_cap(n, delta)``, and the tail
    step the exact 1-spike DP when ``window_count(n, delta, eps_tail, 2.0)``
    does: the windowed loop would end in that same exact solve.  An exact
    support meets both the head and the tail guarantee.  Otherwise the step
    calls :func:`head_project` or :func:`tail_project`.  The trace's
    ``head_path`` and ``tail_path`` say which ran.  The counts check
    ``delta`` and the epsilons up front, whichever path runs.
    """
    n = _model_shape(A)[1]
    y = _model_signal(y, "measurements y", A, 0)
    truth = None if x_true is None else _model_signal(x_true, "x_true", A, 1)
    iterations = check_count(iterations, "iterations", 0)
    k = check_count(k, "k", 0)
    if stop_tol is not None:
        check_real(stop_tol, "stop_tol", 0)
    cap = window_cap(n, delta)
    head_exact = window_count(n, delta, eps_head) == cap
    tail_exact = window_count(n, delta, eps_tail, 2.0) == cap
    budget = 2 * k

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
            h_support = dp.table_builder(HEAD_SPIKES)(w, budget, delta).support(budget)
        else:
            h_support = head_project(w, budget, delta, HEAD_SPIKES, eps_head)
        if not is_feasible(h_support, n, budget, delta, HEAD_SPIKES):
            raise RuntimeError(f"head projection returned an infeasible support {h_support}")
        merged = xj + restrict(g, h_support)
        w = squared_weights(merged)
        if tail_exact:
            t_support = dp.table_builder(1)(w, k, delta).support(k)
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
    n = check_count(n, "n", None)
    k = check_count(k, "k", 0)
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
        if is_feasible(cand, n, k, delta, p):
            return tuple(int(v) for v in cand)
    raise RuntimeError(
        "rejection sampling failed; the support density is too close to the packing limit"
    )


def empirical_rip(A: np.ndarray, k: int, delta: int, p: int, samples: int, seed: int) -> float:
    """Worst observed isometry defect over random feasible unit vectors.

    Draws ``samples`` supports, fills them with normalized Gaussian
    coefficients, and returns ``max |  ||A x||^2 - 1 |``.
    """
    k = check_count(k, "k", None)
    samples = check_count(samples, "samples")
    n = _model_shape(A)[1]
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
