"""Benchmark harness: runtime and quality sweeps over random instances.

Every sweep cell derives its instance seeds from (master seed, cell index,
repeat index), so value columns reproduce bit-identically run to run; only
the timing columns vary.  Quality sweeps compare against an exact solver run
in the same process and check each row against its proven guarantee:
``value >= lam/(lam+1) * opt`` for head rows and
``leftover <= (1 + 2/(lam+1)) * optimal leftover`` for tail rows.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import dp
from .generators import gen_poisson, gen_uniform
from .head import head_project
from .model import objective
from .seeding import derive_seed
from .tail import tail_project

__all__ = [
    "AlgoSpec",
    "BenchRow",
    "PRESETS",
    "QualitySweep",
    "RuntimeSweep",
    "bench_quality",
    "bench_runtime",
    "rows_to_csv",
    "rows_to_dat",
    "rows_to_json",
    "run_preset",
]

GUARANTEE_SLACK = 1e-9


@dataclass(frozen=True)
class AlgoSpec:
    """One benchmarked algorithm: 'dp', 'dp2', 'head', or 'tail'.

    ``lam`` is the precision knob of the approximate algorithms (head runs
    at epsilon = 1/lam, tail at epsilon = 2/lam); ``p`` the spike count.
    """

    algo: str
    lam: int | None = None
    p: int = 1

    @property
    def label(self) -> str:
        suffix = f"-lam{self.lam}" if self.lam is not None else ""
        spikes = "-p2" if self.p == 2 else ""
        return f"{self.algo}{suffix}{spikes}"

    def run(self, x: np.ndarray, k: int, delta: int) -> tuple[int, ...]:
        if self.algo == "dp":
            _, sols = dp.dp_solve(x, k, delta)
            return sols[-1]
        if self.algo == "dp2":
            _, sols = dp.dp_solve_2spike(x, k, delta)
            return sols[-1]
        if self.algo == "head":
            return head_project(x, k, delta, self.p, 1.0 / self.lam)
        if self.algo == "tail":
            return tail_project(x, k, delta, 2.0 / self.lam)
        raise ValueError(f"unknown algo {self.algo!r}")


@dataclass(frozen=True)
class RuntimeSweep:
    """Wall-clock sweep over (n, k, delta) points on fresh uniform instances."""

    points: list[tuple[int, int, int]]
    algos: list[AlgoSpec]
    repeats: int = 100
    seed: int = 0
    kind: str = "uniform"
    expected_gap: float | None = None


@dataclass(frozen=True)
class QualitySweep:
    """Approximation-ratio sweep over k at fixed (n, delta)."""

    n: int
    delta: int
    ks: list[int]
    algos: list[AlgoSpec]
    repeats: int = 100
    seed: int = 0
    kind: str = "uniform"
    expected_gap: float | None = None
    spikes: int = 1


@dataclass
class BenchRow:
    """One CSV row: identification, mean runtime, and mean ratios (percent)."""

    algo: str
    kind: str
    n: int
    k: int
    delta: int
    lam: int | None
    p: int
    repeats: int
    mean_ms: float
    head_pct: float | None = None
    tail_pct: float | None = None
    bound_ok: bool | None = None

    def as_record(self) -> dict:
        record = asdict(self)
        record["mean_ms"] = round(self.mean_ms, 3)
        for key in ("head_pct", "tail_pct"):
            if record[key] is not None:
                record[key] = round(record[key], 4)
        return record


CSV_FIELDS = [f.name for f in fields(BenchRow)]


def _instance(sweep, n: int, cell: int, rep: int) -> np.ndarray:
    seed = derive_seed(sweep.seed, cell, rep)
    if sweep.kind == "uniform":
        return gen_uniform(n, seed)
    if sweep.kind == "poisson":
        x, _ = gen_poisson(n, float(sweep.expected_gap), seed)
        return x
    raise ValueError(f"unknown instance kind {sweep.kind!r}")


def bench_runtime(sweep: RuntimeSweep) -> list[BenchRow]:
    """Mean wall time per (point, algorithm); instance generation excluded."""
    rows: list[BenchRow] = []
    for cell, (n, k, delta) in enumerate(sweep.points):
        instances = [_instance(sweep, n, cell, rep) for rep in range(sweep.repeats)]
        for spec in sweep.algos:
            elapsed = 0.0
            for x in instances:
                start = time.perf_counter()
                spec.run(x, k, delta)
                elapsed += time.perf_counter() - start
            rows.append(
                BenchRow(
                    algo=spec.label,
                    kind=sweep.kind,
                    n=n,
                    k=k,
                    delta=delta,
                    lam=spec.lam,
                    p=spec.p,
                    repeats=sweep.repeats,
                    mean_ms=1000.0 * elapsed / max(1, sweep.repeats),
                )
            )
    return rows


def bench_quality(sweep: QualitySweep) -> list[BenchRow]:
    """Mean head/tail ratios against the exact optimum, per (k, algorithm).

    Tail ratios average only the repeats whose optimal leftover is nonzero;
    if every repeat degenerates the column is left empty.  Two-spike sweeps
    report head ratios only.
    """
    build = dp.table_builder(sweep.spikes)
    rows: list[BenchRow] = []
    for cell, k in enumerate(sweep.ks):
        instances = [
            _instance(sweep, sweep.n, cell, rep) for rep in range(sweep.repeats)
        ]
        optima = [float(build(x, k, sweep.delta).values[-1]) for x in instances]
        totals = [float(x.sum()) for x in instances]
        for spec in sweep.algos:
            elapsed = 0.0
            head_ratios: list[float] = []
            tail_ratios: list[float] = []
            ok = True
            for x, opt, total in zip(instances, optima, totals):
                start = time.perf_counter()
                sol = spec.run(x, k, sweep.delta)
                elapsed += time.perf_counter() - start
                val = objective(x, sol)
                if opt > 0.0:
                    head_ratios.append(100.0 * val / opt)
                if spec.algo == "head" and val < (spec.lam / (spec.lam + 1)) * opt - GUARANTEE_SLACK:
                    ok = False
                if sweep.spikes == 1:
                    leftover, opt_leftover = total - val, total - opt
                    if opt_leftover > GUARANTEE_SLACK:
                        tail_ratios.append(100.0 * leftover / opt_leftover)
                    if spec.algo == "tail":
                        bound = 1.0 + 2.0 / (spec.lam + 1)
                        if leftover > bound * opt_leftover + GUARANTEE_SLACK:
                            ok = False
            rows.append(
                BenchRow(
                    algo=spec.label,
                    kind=sweep.kind,
                    n=sweep.n,
                    k=k,
                    delta=sweep.delta,
                    lam=spec.lam,
                    p=spec.p,
                    repeats=sweep.repeats,
                    mean_ms=1000.0 * elapsed / max(1, sweep.repeats),
                    head_pct=float(np.mean(head_ratios)) if head_ratios else None,
                    tail_pct=float(np.mean(tail_ratios)) if tail_ratios else None,
                    bound_ok=ok if spec.algo in ("head", "tail") else None,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Presets mirroring the benchmark figures, scaled for a desk run.
# ---------------------------------------------------------------------------


def _sqrt_points(ns: list[int]) -> list[tuple[int, int, int]]:
    return [(n, int(math.isqrt(n) // 2), int(math.isqrt(n) // 2)) for n in ns]


def _log_points(ns: list[int], delta: int) -> list[tuple[int, int, int]]:
    return [(n, int(math.log2(n)), delta) for n in ns]


def _preset_fig2_left(seed: int, repeats: int):
    ns = [25_000, 50_000, 100_000, 200_000, 400_000]
    algos = [AlgoSpec("dp")] + [AlgoSpec(a, lam) for a in ("head", "tail") for lam in (2, 3)]
    return [("runtime", RuntimeSweep(_sqrt_points(ns), algos, repeats, seed))]


def _preset_fig2_right(seed: int, repeats: int):
    ns = [25_000, 50_000, 100_000, 200_000, 400_000]
    algos = [AlgoSpec("dp")] + [AlgoSpec(a, lam) for a in ("head", "tail") for lam in (2, 3)]
    return [("runtime", RuntimeSweep(_log_points(ns, 40), algos, repeats, seed))]


_QUALITY_KS = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]


def _preset_fig3(seed: int, repeats: int):
    algos = [AlgoSpec("head", lam) for lam in (1, 2, 3)] + [AlgoSpec("tail", lam) for lam in (2, 3)]
    return [("quality", QualitySweep(1000, 20, _QUALITY_KS, algos, repeats, seed))]


def _preset_fig4(seed: int, repeats: int):
    algos = [AlgoSpec("head", lam) for lam in (2, 3)] + [AlgoSpec("tail", lam) for lam in (2, 3)]
    sweep = QualitySweep(
        1000, 20, _QUALITY_KS, algos, repeats, seed, kind="poisson", expected_gap=20.0
    )
    return [("quality", sweep)]


def _preset_fig5(seed: int, repeats: int):
    ns = [2000, 4000, 8000, 16_000]
    algos = [AlgoSpec("dp2", p=2)] + [AlgoSpec("head", lam, p=2) for lam in (2, 3)]
    return [("runtime", RuntimeSweep(_sqrt_points(ns), algos, repeats, seed))]


def _preset_fig6(seed: int, repeats: int):
    algos = [AlgoSpec("head", lam, p=2) for lam in (1, 2, 3)]
    uniform = QualitySweep(1000, 20, _QUALITY_KS, algos, repeats, seed, spikes=2)
    poisson = QualitySweep(
        1000,
        20,
        _QUALITY_KS,
        algos,
        repeats,
        seed,
        kind="poisson",
        expected_gap=10.0,
        spikes=2,
    )
    return [("quality", uniform), ("quality", poisson)]


PRESETS = {
    "fig2-left": _preset_fig2_left,
    "fig2-right": _preset_fig2_right,
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
}


def run_preset(name: str, seed: int = 0, repeats: int | None = None) -> list[BenchRow]:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    rows: list[BenchRow] = []
    for mode, sweep in PRESETS[name](seed, repeats if repeats is not None else 100):
        rows.extend(bench_runtime(sweep) if mode == "runtime" else bench_quality(sweep))
    return rows


def rows_to_csv(rows: list[BenchRow], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in rows:
        record = row.as_record()
        writer.writerow({key: "" if record[key] is None else record[key] for key in CSV_FIELDS})


def rows_to_json(rows: list[BenchRow], fh) -> None:
    json.dump([row.as_record() for row in rows], fh, indent=2)
    fh.write("\n")


def rows_to_dat(rows: list[BenchRow], prefix: str) -> list[str]:
    """Two-column whitespace files per (algorithm, metric) series.

    Runtime rows use n as the x axis, quality rows use k.  Returns the
    written paths.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for row in rows:
        x_axis = row.k if row.head_pct is not None or row.tail_pct is not None else row.n
        for metric, value in (("ms", row.mean_ms), ("head", row.head_pct), ("tail", row.tail_pct)):
            if value is None:
                continue
            series.setdefault(f"{prefix}_{row.kind}_{row.algo}_{metric}.dat", []).append(
                (x_axis, value)
            )
    written = []
    for path, pairs in series.items():
        with open(path, "w") as fh:
            for x_axis, value in pairs:
                fh.write(f"{x_axis} {value:.6f}\n")
        written.append(path)
    return written
