"""Command-line interface: project / recover / gen / bench.

Exit codes: 0 on success, 2 on configuration errors, 3 when the requested
parameters admit no feasible support.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import dp
from .generators import gen_poisson, gen_uniform
from .head import head_project
from .model import InfeasibleParameters, brute_force_solve, max_support_size, objective
from .recovery import am_iht, default_measurement_count, gen_sensing, measure, random_feasible_support
from .seeding import derive_seed, make_rng
from .serialize import read_vector, write_support, write_vector
from .tail import tail_project, topk_tail_project

__all__ = ["main", "run"]

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# Largest DP cell count (k n, or k delta n for two spikes) that `project`
# spends on the exact optimum behind its ratio report.
MAX_OPT_CELLS = 5e7


class ConfigError(Exception):
    pass


def _project_opt(x, k, delta, spikes):
    """Exact optimum for ratio reporting, skipped when a DP would be too big."""
    build = dp.table_builder(spikes)
    delta = min(delta, x.size)  # any delta >= n is the problem at delta = n
    cost = k * delta * x.size if spikes == 2 else k * x.size
    if cost > MAX_OPT_CELLS:
        return None
    return float(build(x, k, delta).values[-1])


def _cmd_project(args) -> int:
    x = read_vector(args.infile)
    if x.size == 0:
        raise ConfigError(f"{args.infile} contains no values")
    if float(x.min()) < 0:
        raise ConfigError("input vector has negative entries; square it first")
    if args.k < 1 or args.delta < 1:
        raise ConfigError("k and delta must be >= 1")
    spikes = args.spikes
    if args.algo in ("tail", "topk") and spikes != 1:
        raise ConfigError(f"--algo {args.algo} supports --spikes 1 only, got {spikes}")
    needs_eps = args.algo in ("head", "tail")
    if needs_eps and args.epsilon is None:
        raise ConfigError(f"--epsilon is required for --algo {args.algo}")

    start = time.perf_counter()
    if args.algo == "dp":
        # The table holds one value per budget level, and levels past the
        # packing limit repeat it; solving at the limit keeps that small.
        k = min(args.k, max_support_size(x.size, min(args.delta, x.size), spikes))
        support = dp.table_builder(spikes)(x, k, args.delta)[-1]
    elif args.algo == "head":
        support = head_project(x, args.k, args.delta, spikes, args.epsilon)
    elif args.algo == "tail":
        support = tail_project(x, args.k, args.delta, args.epsilon)
    elif args.algo == "topk":
        support = topk_tail_project(x, args.k, args.delta)
    else:  # oracle
        support, _ = brute_force_solve(x, args.k, args.delta, spikes)
    runtime_ms = 1000.0 * (time.perf_counter() - start)

    value = objective(x, support)
    result = {
        "algo": args.algo,
        "n": int(x.size),
        "k": args.k,
        "delta": args.delta,
        "spikes": spikes,
        "support": list(support),
        "value": value,
        "runtime_ms": round(runtime_ms, 3),
    }
    if args.algo in ("head", "tail", "topk"):
        opt = _project_opt(x, args.k, args.delta, spikes)
        if opt is not None:
            result["opt"] = opt
            result["head_ratio"] = value / opt if opt > 0 else None
            total = float(x.sum())
            opt_leftover = total - opt
            result["tail_ratio"] = (total - value) / opt_leftover if opt_leftover > 1e-12 else None
    _emit_json(result, args.out)
    return 0


def _cmd_recover(args) -> int:
    if args.n < 1 or args.k < 1 or args.delta < 1:
        raise ConfigError("n, k and delta must be >= 1")
    if args.iters < 0:
        raise ConfigError("--iters must be >= 0")
    m = args.m if args.m is not None else default_measurement_count(args.n, args.k)
    if m < 1:
        raise ConfigError("m must be >= 1")

    A = gen_sensing(m, args.n, derive_seed(args.seed, 0))
    support = random_feasible_support(
        args.n, args.k, args.delta, 1, make_rng(args.seed, 1)
    )
    coeffs = make_rng(args.seed, 2).standard_normal(args.k)
    x_true = np.zeros(args.n)
    x_true[np.asarray(support, dtype=np.intp) - 1] = coeffs
    obs = measure(A, x_true, args.sigma, derive_seed(args.seed, 3))
    _, trace = am_iht(
        obs.y,
        A,
        args.k,
        args.delta,
        args.iters,
        args.eps,
        args.eps,
        x_true=x_true,
        stop_tol=args.stop_tol,
    )

    lines = ["iteration,residual,proxy"]
    for it, (res, proxy) in enumerate(zip(trace.residuals, trace.proxies)):
        lines.append(f"{it},{res:.12g},{proxy:.12g}")
    csv_text = "\n".join(lines) + "\n"
    summary = {
        "n": args.n,
        "k": args.k,
        "delta": args.delta,
        "m": m,
        "sigma": args.sigma,
        "iterations": trace.iterations,
        "support": list(trace.supports[-1]),
        "true_support": list(support),
        "residual": trace.residuals[-1],
        "proxy": trace.proxies[-1],
        "noise_norm": float(np.linalg.norm(obs.e)),
        "head_path": trace.head_path,
        "tail_path": trace.tail_path,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    # The summary takes whichever stream the trace CSV left free, in one format.
    (sys.stdout if args.out else sys.stderr).write(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if args.gap is None:
        if args.spikes_out:
            raise ConfigError("--spikes-out needs --gap: uniform instances have no spikes")
        x = gen_uniform(args.n, args.seed)
    else:
        if not args.gap >= 1:  # also rejects NaN
            raise ConfigError(f"--gap must be >= 1, got {args.gap}")
        x, spikes = gen_poisson(args.n, args.gap, args.seed)
        if args.spikes_out:
            write_support(args.spikes_out, spikes)
    if args.out:
        write_vector(args.out, x)
    else:
        sys.stdout.write("".join(f"{v!r}\n" for v in x.tolist()))
    return 0


def _cmd_bench(args) -> int:
    if args.format == "dat" and not args.out:
        raise ConfigError("--format dat needs --out as a filename prefix")
    if args.repeats is not None and args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    rows = bench_mod.run_preset(args.preset, seed=args.seed, repeats=args.repeats)
    if args.format == "dat":
        written = bench_mod.rows_to_dat(rows, args.out)
        print("\n".join(written))
        return 0
    writer = bench_mod.rows_to_csv if args.format == "csv" else bench_mod.rows_to_json
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer(rows, fh)
    else:
        writer(rows, sys.stdout)
    return 0


def _emit_json(payload, out) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepsparse",
        description="Projection and recovery toolkit for separated-sparsity models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    proj = sub.add_parser("project", help="project a weight vector onto the model")
    proj.add_argument("--in", dest="infile", required=True, help="vector file, one number per line")
    proj.add_argument("--k", type=int, required=True)
    proj.add_argument("--delta", type=int, required=True)
    proj.add_argument("--spikes", type=int, default=1,
                      help="spike count p of the model (tail and topk take only 1)")
    proj.add_argument("--algo", required=True, choices=["dp", "head", "tail", "topk", "oracle"])
    proj.add_argument("--epsilon", type=float, default=None)
    proj.add_argument("--out", default=None, help="write the JSON result here instead of stdout")
    proj.set_defaults(func=_cmd_project)

    rec = sub.add_parser("recover", help="simulate measurement and run the recovery loop")
    rec.add_argument("--n", type=int, required=True)
    rec.add_argument("--k", type=int, required=True)
    rec.add_argument("--delta", type=int, required=True)
    rec.add_argument("--m", type=int, default=None, help="default ceil(6 k ln n), clamped to [1, n]")
    rec.add_argument("--sigma", type=float, default=0.0)
    rec.add_argument("--iters", type=int, default=30)
    rec.add_argument("--eps", type=float, default=0.01)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--stop-tol", type=float, default=None)
    rec.add_argument("--out", default=None, help="trace CSV path (stdout when omitted)")
    rec.set_defaults(func=_cmd_recover)

    gen = sub.add_parser("gen", help="generate a random instance vector")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--gap", type=float, default=None,
                     help="expected spike gap of a Poisson spike train (uniform without it)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.add_argument("--spikes-out", default=None, help="also write the spike support here")
    gen.set_defaults(func=_cmd_gen)

    ben = sub.add_parser("bench", help="run a benchmark preset")
    ben.add_argument("--preset", required=True, choices=sorted(bench_mod.PRESETS))
    ben.add_argument("--out", default=None)
    ben.add_argument("--format", choices=["csv", "dat", "json"], default="csv")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--repeats", type=int, default=None)
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    raise SystemExit(main())
