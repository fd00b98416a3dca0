"""Command-line interface: project / recover / gen / bench.

Exit codes: 0 on success, 2 on configuration errors, 3 when the requested
parameters admit no feasible support.  A configuration error is any
``ValueError`` or ``OSError``: the library checks every parameter and input
vector itself, so the commands check only what their flags add.

``project`` runs its algorithm through ``bench.solve`` and scores it with
``bench.ratios``, the rules the benchmark sweeps use.  Every command writes
its main output through :func:`_emit`: to the ``--out`` file, or to stdout
without one.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import dp
from .generators import gen_poisson, gen_uniform
from .model import InfeasibleParameters, check_count, objective
from .recovery import am_iht, default_measurement_count, gen_sensing, measure, random_feasible_support
from .seeding import derive_seed, make_rng
from .serialize import format_vector, read_vector, write_support

# perfbench/tracing.py patches this name here; keep it importable.
from .head import head_project  # noqa: F401

__all__ = ["main", "run"]

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# Largest DP cell count (dp.table_cells) that `project` spends on the exact
# optimum behind its ratio report.
MAX_OPT_CELLS = 5e7


def _project_opt(x, k, delta, spikes):
    """Exact optimum for ratio reporting, skipped when a DP would be too big."""
    if dp.table_cells(x.size, k, delta, spikes) > MAX_OPT_CELLS:
        return None
    return float(dp.table_builder(spikes)(x, k, delta).values[-1])


def _cmd_project(args) -> int:
    x = read_vector(args.infile)
    if x.size == 0:
        raise ValueError(f"{args.infile} contains no values")
    check_count(args.k, "k")
    spikes = args.spikes
    if args.algo in ("head", "tail") and args.epsilon is None:
        raise ValueError(f"--epsilon is required for --algo {args.algo}")

    start = time.perf_counter()
    support = bench_mod.solve(args.algo, x, args.k, args.delta, spikes, args.epsilon)
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
            result["head_ratio"], result["tail_ratio"] = bench_mod.ratios(
                value, opt, float(x.sum()), spikes, 1
            )
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def _cmd_recover(args) -> int:
    check_count(args.n, "n")
    check_count(args.k, "k")
    m = args.m if args.m is not None else default_measurement_count(args.n, args.k)

    # The support checks delta and k, so a bad one fails before the m x n draw.
    support = random_feasible_support(
        args.n, args.k, args.delta, 1, make_rng(args.seed, 1)
    )
    A = gen_sensing(m, args.n, derive_seed(args.seed, 0))
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
    _emit(csv_text, args.out)
    # The summary takes whichever stream the trace CSV left free, in one format.
    (sys.stdout if args.out else sys.stderr).write(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_gen(args) -> int:
    if args.gap is None:
        if args.spikes_out:
            raise ValueError("--spikes-out needs --gap: uniform instances have no spikes")
        x = gen_uniform(args.n, args.seed)
    else:
        x, spikes = gen_poisson(args.n, args.gap, args.seed)
        if args.spikes_out:
            write_support(args.spikes_out, spikes)
    _emit(format_vector(x), args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.format == "dat" and not args.out:
        raise ValueError("--format dat needs --out as a filename prefix")
    rows = bench_mod.run_preset(args.preset, seed=args.seed, repeats=args.repeats)
    if args.format == "dat":
        written = bench_mod.rows_to_dat(rows, args.out)
        print("\n".join(written))
        return 0
    writer = bench_mod.rows_to_csv if args.format == "csv" else bench_mod.rows_to_json
    text = io.StringIO()
    writer(rows, text)
    _emit(text.getvalue(), args.out)
    return 0


def _emit(text: str, out) -> None:
    """Write ``text`` to the ``--out`` file as it is, or to stdout without one."""
    if out:
        with open(out, "w", newline="") as fh:
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
    proj.add_argument("--algo", required=True, choices=bench_mod.ALGOS)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    raise SystemExit(main())
