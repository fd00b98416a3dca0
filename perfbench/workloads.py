"""The three workloads: instances, operations and the checks on their outputs.

Every instance derives from the run's ``--seed`` through
``sepsparse.seeding.derive_seed``, so one seed always gives the same inputs
and, since the package is deterministic, the same outputs.  Each operation
calls the package through a module attribute (``dp.dp_solve``, not an
imported name) so that the tracer can wrap it.

Why these workloads:

* ``exact``   -- the exact DPs at the largest fig2-left (n = 4e5, k = delta =
  316) and fig5 (n = 16e3, k = delta = 63) points.  DP tables and support
  rebuilding are nearly all the work; window, block and tail code never
  runs, so a head/tail-only change should not move it.
* ``approx``  -- head, tail and top-k at the fig2-left point on a uniform
  (dense blocks, few strong indices) and a Poisson (sparse blocks, many
  strong indices) instance, head p = 2 at the fig5 point, and one
  ``sepsparse project`` call, the only operation that reads a vector file.
  The DP layer runs thousands of times on short blocks, so per-call
  overhead dominates instead of vector work.
* ``recovery`` -- the AC9 Monte Carlo protocol (n = 200, k = 5, delta = 20,
  30 iterations, eps = 0.01), half noiseless and half at sigma = 0.005.
  Each projection solves about 11 slices of a tiny vector, so Python
  per-call overhead decides the time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sepsparse import cli, dp, generators, head, recovery, serialize, tail
from sepsparse.model import is_feasible, objective
from sepsparse.seeding import derive_seed, make_rng

# Same absolute slack the package's quality sweeps allow on a guarantee.
SLACK = 1e-9

FIG2 = (400_000, 316, 316)  # largest fig2-left point: n, k, delta
FIG5 = (16_000, 63, 63)  # largest fig5 point
LAM = 2  # head at epsilon = 1/lam, tail at epsilon = 2/lam

AC9_N, AC9_K, AC9_DELTA = 200, 5, 20
AC9_ITERS, AC9_EPS, AC9_SIGMA = 30, 0.01, 0.005
AC9_RUNS = 8  # instances per round; the first half noiseless


class CheckFailed(Exception):
    """An operation returned an output that breaks its contract."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed call and the check of its output.

    ``check`` raises :class:`CheckFailed` on a wrong output and otherwise
    returns the quality figures of the output, keyed by metric.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], dict[str, float]]


@dataclass
class Workload:
    """A workload's operations and how to summarise their quality.

    ``calibrated_calls`` and ``calibrated_setup`` say that the calls' or the
    set-up's time is mostly Python interpreter work, whose speed drifts with
    the host's, so the gated time scales each call or set-up by the reference
    probe timed around it (see run.py).  Where numpy's vector kernels over
    long arrays do the work, as in all of ``exact`` and in the set-up of
    ``approx``, the wall clock is steadier than the probe and is reported as
    measured.
    """

    ops: list[Op]
    quality: Callable[[list[dict[str, float]]], dict[str, float]]
    calibrated_calls: bool
    calibrated_setup: bool


def _mean(values: list[float]) -> float:
    return float(sum(values) / len(values))


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _exact_check(x: np.ndarray, k: int, delta: int, p: int, opt: float):
    def check(out) -> dict[str, float]:
        values, sols = out
        require(len(sols) == k, f"expected {k} supports, got {len(sols)}")
        sol = sols[-1]
        require(is_feasible(sol, x.size, k, delta, p), "support infeasible")
        value = objective(x, sol)
        require(value == float(values[-1]), f"objective {value!r} != DP value {float(values[-1])!r}")
        require(value == opt, f"DP value {value!r} != setup optimum {opt!r}")
        return {"ratio": value / opt}

    return check


def setup_exact(seed: int, _workdir: Path) -> Workload:
    n, k, delta = FIG2
    n2, k2, delta2 = FIG5
    x = generators.gen_uniform(n, derive_seed(seed, 1, 0))
    x2 = generators.gen_uniform(n2, derive_seed(seed, 1, 1))
    opt = float(dp.build_table_1spike(x, k, delta).values[-1])
    opt2 = float(dp.build_table_2spike(x2, k2, delta2).values[-1])
    ops = [
        Op("dp", lambda: dp.dp_solve(x, k, delta), _exact_check(x, k, delta, 1, opt)),
        Op("dp2", lambda: dp.dp_solve_2spike(x2, k2, delta2), _exact_check(x2, k2, delta2, 2, opt2)),
    ]
    return Workload(ops, lambda qs: {"quality": _mean([q["ratio"] for q in qs])},
                    calibrated_calls=False, calibrated_setup=False)


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


def _head_check(x: np.ndarray, k: int, delta: int, p: int, opt: float):
    def check(sol) -> dict[str, float]:
        require(is_feasible(sol, x.size, k, delta, p), "head support infeasible")
        value = objective(x, sol)
        require(value >= LAM / (LAM + 1) * opt - SLACK, f"head value {value!r} below guarantee")
        return {"ratio": value / opt, "head_ratio": value / opt}

    return check


def _tail_check(x: np.ndarray, k: int, delta: int, opt: float, factor: float):
    total = float(x.sum())
    opt_leftover = total - opt

    def check(sol) -> dict[str, float]:
        require(is_feasible(sol, x.size, k, delta, 1), "tail support infeasible")
        value = objective(x, sol)
        leftover = total - value
        require(leftover <= factor * opt_leftover + SLACK, f"leftover {leftover!r} above guarantee")
        return {"ratio": value / opt, "tail_ratio": leftover / opt_leftover}

    return check


def setup_approx(seed: int, workdir: Path) -> Workload:
    n, k, delta = FIG2
    n2, k2, delta2 = FIG5
    xu = generators.gen_uniform(n, derive_seed(seed, 2, 0))
    xp, _ = generators.gen_poisson(n, float(delta), derive_seed(seed, 2, 1))
    x2 = generators.gen_uniform(n2, derive_seed(seed, 2, 2))
    opt_u = float(dp.build_table_1spike(xu, k, delta).values[-1])
    opt_p = float(dp.build_table_1spike(xp, k, delta).values[-1])
    opt_2 = float(dp.build_table_2spike(x2, k2, delta2).values[-1])
    vec_path = workdir / "approx-x.txt"
    out_path = workdir / "approx-project.json"
    serialize.write_vector(vec_path, xu)

    tail_factor = 1.0 + 2.0 / (LAM + 1)
    ops: list[Op] = []
    for label, x, opt in (("uniform", xu, opt_u), ("poisson", xp, opt_p)):
        ops.append(Op(f"head_{label}", lambda x=x: head.head_project(x, k, delta, 1, 1.0 / LAM),
                      _head_check(x, k, delta, 1, opt)))
        ops.append(Op(f"tail_{label}", lambda x=x: tail.tail_project(x, k, delta, 2.0 / LAM),
                      _tail_check(x, k, delta, opt, tail_factor)))
        ops.append(Op(f"topk_{label}", lambda x=x: tail.topk_tail_project(x, k, delta),
                      _tail_check(x, k, delta, opt, 2.0)))
    ops.append(Op("head2", lambda: head.head_project(x2, k2, delta2, 2, 1.0 / LAM),
                  _head_check(x2, k2, delta2, 2, opt_2)))

    argv = ["project", "--in", str(vec_path), "--k", str(k), "--delta", str(delta),
            "--algo", "head", "--epsilon", str(1.0 / LAM), "--out", str(out_path)]
    head_cmd_check = _head_check(xu, k, delta, 1, opt_u)

    def check_cmd(code) -> dict[str, float]:
        require(code == 0, f"sepsparse project exited {code}")
        result = json.loads(out_path.read_text())
        sol = tuple(result["support"])
        require(result["value"] == objective(xu, sol), "reported value != objective of support")
        return head_cmd_check(sol)

    ops.append(Op("project_cmd", lambda: cli.main(argv), check_cmd))

    def quality(qs: list[dict[str, float]]) -> dict[str, float]:
        return {
            "quality": _mean([q["ratio"] for q in qs]),
            "head_ratio_mean": _mean([q["head_ratio"] for q in qs if "head_ratio" in q]),
            "tail_ratio_mean": _mean([q["tail_ratio"] for q in qs if "tail_ratio" in q]),
        }

    return Workload(ops, quality, calibrated_calls=True, calibrated_setup=False)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _recovery_op(seed: int, index: int) -> Op:
    n, k, delta = AC9_N, AC9_K, AC9_DELTA
    sigma = 0.0 if index < AC9_RUNS // 2 else AC9_SIGMA
    inst = derive_seed(seed, 3, index)
    m = recovery.default_measurement_count(n, k)
    model = recovery.gen_sensing(m, n, derive_seed(inst, 0))
    support = recovery.random_feasible_support(n, k, delta, 1, make_rng(inst, 1))
    x_true = np.zeros(n)
    x_true[np.asarray(support, dtype=np.intp) - 1] = make_rng(inst, 2).standard_normal(k)
    obs = recovery.measure(model, x_true, sigma, derive_seed(inst, 3))
    x_norm = float(np.linalg.norm(x_true))
    e_norm = float(np.linalg.norm(obs.e))

    def call():
        return recovery.am_iht(obs.y, model, k, delta, AC9_ITERS, AC9_EPS, AC9_EPS, x_true=x_true)

    def check(out) -> dict[str, float]:
        x_hat, trace = out
        require(trace.iterations == AC9_ITERS, f"ran {trace.iterations} iterations")
        final = trace.supports[-1]
        require(is_feasible(final, n, k, delta, 1), "final support infeasible")
        off_support = np.ones(n, dtype=bool)
        off_support[np.asarray(final, dtype=np.intp) - 1] = False
        require(not np.any(x_hat[off_support]), "estimate nonzero off its support")
        err = float(np.linalg.norm(x_true - x_hat))
        limit = 1e-3 * x_norm if sigma == 0.0 else 20.0 * e_norm
        return {"success": 1.0 if err <= limit else 0.0}

    return Op("recover", call, check)


def setup_recovery(seed: int, _workdir: Path) -> Workload:
    ops = [_recovery_op(seed, i) for i in range(AC9_RUNS)]

    def quality(qs: list[dict[str, float]]) -> dict[str, float]:
        success = _mean([q["success"] for q in qs])
        return {"quality": success, "recover_success": success}

    return Workload(ops, quality, calibrated_calls=True, calibrated_setup=True)


SETUPS = {"exact": setup_exact, "approx": setup_approx, "recovery": setup_recovery}

# Every operation name of every workload, for the per-layer report.
ALL_OPS = ("dp", "dp2", "head_uniform", "head_poisson", "tail_uniform", "tail_poisson",
           "topk_uniform", "topk_poisson", "head2", "project_cmd", "recover")

