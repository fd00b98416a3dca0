"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np

from sepsparse.dp import dp_solve, dp_solve_2spike
from sepsparse.generators import gen_poisson, gen_uniform
from sepsparse.head import block_decompose, head_project, slice_solve
from sepsparse.model import Instance, brute_force_solve, objective
from sepsparse.recovery import am_iht, default_measurement_count, gen_sensing, measure, random_feasible_support
from sepsparse.seeding import make_rng
from sepsparse.tail import tail_project, tail_vector, topk_tail_project

from util import (
    coverage_best_window,
    direct_tail_vector,
    keep_only,
    restricted_optimum,
    tail_bound_coefficient,
)

TOL = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_small_instance(rng):
    n = int(rng.integers(1, 15))
    k = int(rng.integers(1, n + 1))
    delta = int(rng.integers(1, 6))
    style = int(rng.integers(0, 3))
    if style == 0:
        x = rng.random(n)
    elif style == 1:
        x = np.round(rng.random(n) * 4)
    else:
        x = np.where(rng.random(n) < 0.4, 0.0, rng.random(n))
    return x, n, k, delta


def mixed_instances(count: int, n: int, delta: int, seed: int):
    """Half uniform, half Poisson instances with per-instance random k."""
    rng = make_rng(seed)
    out = []
    for idx in range(count):
        if idx % 2 == 0:
            x = gen_uniform(n, int(rng.integers(0, 2**31)))
        else:
            x, _ = gen_poisson(n, float(delta), int(rng.integers(0, 2**31)))
        k = int(rng.integers(1, 61))
        out.append((x, k))
    return out


def test_ac1_oracle_equivalence_exact_solvers():
    start = time.time()
    rng = make_rng(1001)
    checked = 0
    for _ in range(2000):
        x, n, k, delta = random_small_instance(rng)
        values1, _ = dp_solve(x, k, delta)
        _, best1 = brute_force_solve(Instance(x, k, delta, 1))
        assert abs(float(values1[-1]) - best1) <= TOL
        values2, _ = dp_solve_2spike(x, k, delta)
        _, best2 = brute_force_solve(Instance(x, k, delta, 2))
        assert abs(float(values2[-1]) - best2) <= TOL
        checked += 1
    elapsed = time.time() - start
    report("AC1 oracle equivalence", checked == 2000 and elapsed < 60.0,
           f"{checked} instances in {elapsed:.1f}s")


def test_ac2_head_guarantee_at_scale():
    start = time.time()
    failures = 0
    for x, k in mixed_instances(500, 1000, 20, seed=2002):
        values, _ = dp_solve(x, k, 20)
        opt = float(values[-1])
        for lam in (1, 2, 3):
            sol = head_project(x, k, 20, 1, 1.0 / lam)
            if objective(x, sol) < (1 - 1 / (lam + 1)) * opt - TOL:
                failures += 1
    elapsed = time.time() - start
    report("AC2 head guarantee n=1000", failures == 0 and elapsed < 120.0,
           f"500 instances x lam in 1..3, {elapsed:.1f}s")


def test_ac3_head_tightness_on_ones():
    ok = True
    for lam in (1, 2, 3):
        n = (lam + 1) * 100
        sol = head_project(np.ones(n), n, 1, 1, 1.0 / lam)
        ok &= objective(np.ones(n), sol) == lam / (lam + 1) * n
    report("AC3 head tightness on all-ones", ok)


def test_ac4_tail_factor_two():
    x = np.array([1.0, 1.0, 1.0])
    sol = topk_tail_project(x, 2, 2)
    baseline_ok = float(x.sum()) - objective(x, sol) <= 2.0
    _, opt = brute_force_solve(Instance(x, 2, 2))
    oracle_ok = float(x.sum()) - opt == 1.0

    rng = make_rng(4004)
    ratio_ok = True
    for _ in range(2000):
        x, n, k, delta = random_small_instance(rng)
        sol = topk_tail_project(x, k, delta)
        _, opt = brute_force_solve(Instance(x, k, delta))
        left = float(x.sum()) - objective(x, sol)
        opt_left = float(x.sum()) - opt
        if left > 2.0 * opt_left + TOL:
            ratio_ok = False
    report("AC4 top-k tail factor 2", baseline_ok and oracle_ok and ratio_ok,
           "tight example + 2000 oracle instances")


def test_ac5_tail_guarantee_and_bound_formula():
    start = time.time()
    failures = 0
    for x, k in mixed_instances(500, 1000, 20, seed=5005):
        values, _ = dp_solve(x, k, 20)
        opt_left = float(x.sum()) - float(values[-1])
        for eps in (1.0, 0.5, 0.25):
            sol = tail_project(x, k, 20, eps)
            if float(x.sum()) - objective(x, sol) > (1 + eps) * opt_left + TOL:
                failures += 1
    formula_ok = all(
        abs(tail_bound_coefficient(1 - eps / 2, 2.0 / 3.0) - (1 + eps)) <= 1e-12
        for eps in (0.5, 0.1, 0.01)
    )
    elapsed = time.time() - start
    report("AC5 tail guarantee n=1000 + bound formula", failures == 0 and formula_ok,
           f"{elapsed:.1f}s")


def test_ac6_slice_optimality_and_margins():
    rng = make_rng(6006)
    value_ok = margins_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        delta = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        p = int(rng.integers(1, 3))
        x = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        members = sorted(
            int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False) + 1
        )
        sol = slice_solve(keep_only(members), x, k, delta, p)
        best = restricted_optimum(members, x, k, delta, p)
        if abs(objective(x, sol) - best) > TOL:
            value_ok = False
        from sepsparse.dp import build_table_1spike, build_table_2spike

        build = build_table_1spike if p == 1 else build_table_2spike
        dec = block_decompose(keep_only(members), x, delta, p)
        for (lo, hi), budget, chain in zip(dec.blocks, dec.budgets, dec.members):
            w = np.zeros(hi - lo + 1)
            w[chain - lo] = x[chain - 1]
            gains = np.diff(build(w, budget, delta).values, prepend=0.0)
            if np.any(np.diff(gains) > 1e-12):
                margins_ok = False
    report("AC6 slice optimality + concave margins", value_ok and margins_ok,
           "1000 random slices")


def test_ac7_coverage_guarantee():
    rng = make_rng(7007)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        delta = int(rng.integers(1, 6))
        lam = int(rng.integers(1, 5))
        z = rng.random(n) * float(rng.integers(1, 8))
        _, mass = coverage_best_window(z, delta, lam)
        if mass < lam / (lam + 1) * float(z.sum()) - TOL:
            ok = False
    report("AC7 window coverage", ok, "1000 random vectors")


def test_ac8_tail_vector_rolling_equivalence():
    rng = make_rng(8008)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 50))
        delta = int(rng.integers(1, n + 15))  # includes delta > n
        x = rng.random(n) * float(rng.integers(1, 5))
        if not np.allclose(tail_vector(x, delta), direct_tail_vector(x, delta), atol=TOL):
            ok = False
    report("AC8 tail-vector rolling equivalence", ok, "200 cases incl. delta > n")


def _recovery_run(seed: int, sigma: float):
    n, k, delta = 200, 5, 20
    m = default_measurement_count(n, k)
    model = gen_sensing(m, n, seed)
    support = random_feasible_support(n, k, delta, 1, make_rng(seed, 1))
    x_true = np.zeros(n)
    x_true[np.asarray(support, dtype=int) - 1] = make_rng(seed, 2).standard_normal(k)
    obs = measure(model, x_true, sigma, seed + 10_000)
    x_hat, _ = am_iht(obs.y, model, k, delta, 30, 0.01, 0.01, x_true=x_true)
    err = float(np.linalg.norm(x_true - x_hat))
    return err, float(np.linalg.norm(x_true)), float(np.linalg.norm(obs.e))


def test_ac9_recovery_monte_carlo():
    start = time.time()
    clean_hits = sum(
        1
        for seed in range(100)
        if (lambda r: r[0] <= 1e-3 * r[1])(_recovery_run(seed, 0.0))
    )
    noisy_hits = 0
    for seed in range(100):
        err, _, noise = _recovery_run(seed, 0.005)
        if err <= 20.0 * noise:
            noisy_hits += 1
    elapsed = time.time() - start
    report(
        "AC9 recovery Monte Carlo",
        clean_hits >= 90 and noisy_hits >= 90 and elapsed < 300.0,
        f"noiseless {clean_hits}/100, noisy {noisy_hits}/100, {elapsed:.0f}s",
    )


def test_ac9_contraction_constants():
    # the convergence formula evaluated at eps = delta = 0.01
    c_h, c_t, d = 0.99, 1.01, 0.01
    rho = (1 + c_t) * ((math.sqrt(1 - c_h**2) * (1 + d) + d) / c_h + 2 * d)
    noise_coeff = (1 + c_t) * math.sqrt(1 + d) * ((math.sqrt(1 - c_h**2) + 1) / c_h + 4)
    accumulated = noise_coeff / (1 - rho)
    report(
        "AC9b contraction constants",
        rho <= 0.35 and abs(accumulated - 16.0) < 0.1,
        f"rho={rho:.4f}, accumulated noise coeff={accumulated:.2f}",
    )


def test_ac10_scaling_trend_reported_only():
    def best_of(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    head_times, dp_times = [], []
    for n in (100_000, 200_000, 400_000):
        k = delta = int(math.isqrt(n) // 2)
        x = gen_uniform(n, 99)
        head_times.append(best_of(lambda: head_project(x, k, delta, 1, 0.5)))
        dp_times.append(best_of(lambda: dp_solve(x, k, delta)))
    head_ratios = [head_times[i + 1] / head_times[i] for i in range(2)]
    dp_ratios = [dp_times[i + 1] / dp_times[i] for i in range(2)]
    head_linear = all(1.5 <= r <= 3.0 for r in head_ratios)
    dp_superlinear = all(r > 2.5 for r in dp_ratios)
    detail = (
        f"head ratios {[f'{r:.2f}' for r in head_ratios]} linear={head_linear}; "
        f"dp ratios {[f'{r:.2f}' for r in dp_ratios]} superlinear={dp_superlinear}"
    )
    # soft criterion: reported, not gating
    print(f"[REPORT] AC10 scaling trend ({detail})")
    assert head_times and dp_times
