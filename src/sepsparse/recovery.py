"""Compressed-sensing recovery of separated-sparse signals.

Measurements are taken through a dense Gaussian matrix with entry variance
1/m, so measuring preserves expected squared norms.  Recovery alternates a
head projection of the gradient (doubled budget, two spikes: the residual of
two separated supports is two-spike separated) with a tail projection of the
updated iterate (original budget, one spike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .head import head_project
from .model import InfeasibleParameters, as_signal, is_feasible, max_support_size, restrict, squared_weights
from .seeding import make_rng
from .tail import tail_project

__all__ = [
    "Measurement",
    "RecoveryTrace",
    "SensingModel",
    "am_iht",
    "default_measurement_count",
    "empirical_rip",
    "gen_sensing",
    "measure",
    "random_feasible_support",
]

HEAD_SPIKES = 2


@dataclass(frozen=True)
class SensingModel:
    """A fixed sensing matrix plus the seed that generated it."""

    A: np.ndarray
    m: int
    seed: int
    entry_scale: float

    @property
    def n(self) -> int:
        return int(self.A.shape[1])


@dataclass(frozen=True)
class Measurement:
    """Noisy linear observations, retaining noise and truth for evaluation."""

    y: np.ndarray
    e: np.ndarray
    x_true: np.ndarray


@dataclass
class RecoveryTrace:
    """Per-iterate supports and error norms, including the zero start."""

    supports: list[tuple[int, ...]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    proxies: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.supports) - 1


def default_measurement_count(n: int, k: int) -> int:
    """Benchmark default m = ceil(6 k ln n), clamped to [1, n]."""
    return min(max(1, math.ceil(6.0 * k * math.log(n))), n)


def gen_sensing(m: int, n: int, seed: int) -> SensingModel:
    """Gaussian sensing matrix with entries N(0, 1/m), filled row-major."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    scale = 1.0 / math.sqrt(m)
    A = make_rng(seed).standard_normal((m, n)) * scale
    return SensingModel(A=A, m=m, seed=seed, entry_scale=scale)


def measure(model: SensingModel, x, noise_sigma: float, seed: int) -> Measurement:
    """Observe ``y = A x + e`` with i.i.d. Gaussian noise of the given sigma."""
    x = as_signal(x)
    if x.size != model.n:
        raise ValueError(f"signal length {x.size} != model width {model.n}")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    e = make_rng(seed).standard_normal(model.m) * noise_sigma
    return Measurement(y=model.A @ x + e, e=e, x_true=x)


def am_iht(
    y,
    model: SensingModel,
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
    """
    y = as_signal(y)
    if y.size != model.m:
        raise ValueError(f"measurement length {y.size} != model height {model.m}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    n = model.n
    budget = 2 * k
    truth = None if x_true is None else as_signal(x_true)

    def residual_norm(xj: np.ndarray) -> float:
        if truth is None:
            return float("nan")
        return float(np.linalg.norm(truth - xj))

    xj = np.zeros(n)
    res = y - model.A @ xj
    trace = RecoveryTrace(
        supports=[()],
        residuals=[residual_norm(xj)],
        proxies=[float(np.linalg.norm(res))],
    )
    for _ in range(iterations):
        g = model.A.T @ res
        h_support = head_project(squared_weights(g), budget, delta, HEAD_SPIKES, eps_head)
        if not is_feasible(h_support, n, budget, delta, HEAD_SPIKES):
            raise RuntimeError(f"head projection returned an infeasible support {h_support}")
        merged = xj + restrict(g, h_support)
        t_support = tail_project(squared_weights(merged), k, delta, eps_tail)
        if not is_feasible(t_support, n, k, delta, 1):
            raise RuntimeError(f"tail projection returned an infeasible support {t_support}")
        xj = restrict(merged, t_support)
        res = y - model.A @ xj
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


def empirical_rip(
    model: SensingModel, k: int, delta: int, p: int, samples: int, seed: int
) -> float:
    """Worst observed isometry defect over random feasible unit vectors.

    Draws ``samples`` supports, fills them with normalized Gaussian
    coefficients, and returns ``max |  ||A x||^2 - 1 |``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(samples):
        support = random_feasible_support(model.n, k, delta, p, rng)
        coeffs = rng.standard_normal(len(support))
        coeffs /= np.linalg.norm(coeffs)
        cols = np.asarray(support, dtype=np.intp) - 1
        image = model.A[:, cols] @ coeffs
        worst = max(worst, abs(float(image @ image) - 1.0))
    return worst
