"""Benchmark harness: runtime and quality sweeps over random instances.

A sweep lists ``(n, k, delta)`` points, the algorithms to run at each and
the spike count ``p`` they all share.  Every repeat of a point draws one
instance from (master seed, point index, repeat index) and runs every
algorithm on it, so value columns reproduce bit-identically run to run;
only the timing columns vary.  A quality sweep also compares each run
against the exact ``p``-spike optimum and checks its proven guarantee:
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
    "Sweep",
    "bench_sweep",
    "rows_to_csv",
    "rows_to_dat",
    "rows_to_json",
    "run_preset",
]

GUARANTEE_SLACK = 1e-9


@dataclass(frozen=True)
class AlgoSpec:
    """One benchmarked algorithm: 'dp', 'head', or 'tail'.

    ``lam`` is the precision knob of the approximate algorithms: head and
    tail each solve ``lam + 1`` keep-sets, at an epsilon well inside the
    range that maps back to ``lam`` (``1/lam`` itself can map to
    ``lam + 1``).  The spike count comes from the sweep.
    """

    algo: str
    lam: int | None = None

    def label(self, p: int) -> str:
        name = f"dp{p}" if self.algo == "dp" and p != 1 else self.algo
        suffix = f"-lam{self.lam}" if self.lam is not None else ""
        spikes = f"-p{p}" if p != 1 else ""
        return f"{name}{suffix}{spikes}"

    def run(self, x: np.ndarray, k: int, delta: int, p: int) -> tuple[int, ...]:
        if self.algo == "dp":
            return dp.table_builder(p)(x, k, delta)[-1]
        if self.algo == "head":
            return head_project(x, k, delta, p, 1.0 / (self.lam - 0.5))
        if self.algo == "tail":
            if p != 1:
                raise ValueError(f"tail supports p = 1 only, got p={p}")
            return tail_project(x, k, delta, 2.0 / (self.lam - 0.5))
        raise ValueError(f"unknown algo {self.algo!r}")


@dataclass(frozen=True)
class Sweep:
    """Algorithms run at each ``(n, k, delta)`` point on fresh instances.

    Without a ``gap`` the instances are uniform; with one they are Poisson
    spike trains of that expected spike gap.  A ``quality`` sweep adds ratio
    and guarantee columns to the timings.
    """

    points: list[tuple[int, int, int]]
    algos: list[AlgoSpec]
    quality: bool = False
    p: int = 1
    gap: float | None = None

    @property
    def kind(self) -> str:
        """The instance kind named in rows and file names: 'uniform' or 'poisson'."""
        return "uniform" if self.gap is None else "poisson"


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


def _instance(sweep: Sweep, n: int, seed: int) -> np.ndarray:
    if sweep.gap is None:
        return gen_uniform(n, seed)
    return gen_poisson(n, float(sweep.gap), seed)[0]


def bench_sweep(sweep: Sweep, seed: int = 0, repeats: int = 100) -> list[BenchRow]:
    """One row per (point, algorithm): mean wall time, plus ratios for quality.

    Instance generation and the exact optimum are not timed.  Tail ratios
    average only the repeats whose optimal leftover is nonzero; if every
    repeat degenerates the column is left empty.  Two-spike sweeps report
    head ratios only.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    build = dp.table_builder(sweep.p)
    rows: list[BenchRow] = []
    for cell, (n, k, delta) in enumerate(sweep.points):
        seconds = [0.0] * len(sweep.algos)
        values: list[list[float]] = [[] for _ in sweep.algos]
        optima: list[tuple[float, float]] = []
        for rep in range(repeats):
            x = _instance(sweep, n, derive_seed(seed, cell, rep))
            if sweep.quality:
                optima.append((float(build(x, k, delta).values[-1]), float(x.sum())))
            for i, spec in enumerate(sweep.algos):
                start = time.perf_counter()
                sol = spec.run(x, k, delta, sweep.p)
                seconds[i] += time.perf_counter() - start
                if sweep.quality:
                    values[i].append(objective(x, sol))
        for spec, elapsed, vals in zip(sweep.algos, seconds, values):
            row = BenchRow(
                algo=spec.label(sweep.p),
                kind=sweep.kind,
                n=n,
                k=k,
                delta=delta,
                lam=spec.lam,
                p=sweep.p,
                repeats=repeats,
                mean_ms=1000.0 * elapsed / repeats,
            )
            if sweep.quality:
                _score(row, spec, vals, optima)
            rows.append(row)
    return rows


def _score(
    row: BenchRow, spec: AlgoSpec, values: list[float], optima: list[tuple[float, float]]
) -> None:
    """Fill a quality row's ratio columns and ``bound_ok`` from its runs."""
    head_ratios: list[float] = []
    tail_ratios: list[float] = []
    ok = True
    for val, (opt, total) in zip(values, optima):
        if opt > 0.0:
            head_ratios.append(100.0 * val / opt)
        if spec.algo == "head" and val < (spec.lam / (spec.lam + 1)) * opt - GUARANTEE_SLACK:
            ok = False
        if row.p == 1:
            leftover, opt_leftover = total - val, total - opt
            if opt_leftover > GUARANTEE_SLACK:
                tail_ratios.append(100.0 * leftover / opt_leftover)
            if spec.algo == "tail":
                bound = 1.0 + 2.0 / (spec.lam + 1)
                if leftover > bound * opt_leftover + GUARANTEE_SLACK:
                    ok = False
    row.head_pct = float(np.mean(head_ratios)) if head_ratios else None
    row.tail_pct = float(np.mean(tail_ratios)) if tail_ratios else None
    row.bound_ok = ok if spec.algo in ("head", "tail") else None


# ---------------------------------------------------------------------------
# Presets mirroring the benchmark figures, scaled for a desk run.
# ---------------------------------------------------------------------------


def _sqrt_points(ns: list[int]) -> list[tuple[int, int, int]]:
    return [(n, math.isqrt(n) // 2, math.isqrt(n) // 2) for n in ns]


def _specs(algo: str, lams: tuple[int, ...]) -> list[AlgoSpec]:
    return [AlgoSpec(algo, lam) for lam in lams]


_FIG2_NS = [25_000, 50_000, 100_000, 200_000, 400_000]
_FIG2_ALGOS = [AlgoSpec("dp")] + _specs("head", (2, 3)) + _specs("tail", (2, 3))
_QUALITY_POINTS = [(1000, k, 20) for k in range(5, 51, 5)]

PRESETS: dict[str, list[Sweep]] = {
    "fig2-left": [Sweep(_sqrt_points(_FIG2_NS), _FIG2_ALGOS)],
    "fig2-right": [Sweep([(n, int(math.log2(n)), 40) for n in _FIG2_NS], _FIG2_ALGOS)],
    "fig3": [
        Sweep(_QUALITY_POINTS, _specs("head", (1, 2, 3)) + _specs("tail", (2, 3)), quality=True)
    ],
    "fig4": [
        Sweep(_QUALITY_POINTS, _specs("head", (2, 3)) + _specs("tail", (2, 3)), quality=True, gap=20.0)
    ],
    "fig5": [
        Sweep(_sqrt_points([2000, 4000, 8000, 16_000]), [AlgoSpec("dp")] + _specs("head", (2, 3)), p=2)
    ],
    "fig6": [
        Sweep(_QUALITY_POINTS, _specs("head", (1, 2, 3)), quality=True, p=2),
        Sweep(_QUALITY_POINTS, _specs("head", (1, 2, 3)), quality=True, p=2, gap=10.0),
    ],
}


def run_preset(name: str, seed: int = 0, repeats: int | None = None) -> list[BenchRow]:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    repeats = 100 if repeats is None else repeats
    return [row for sweep in PRESETS[name] for row in bench_sweep(sweep, seed, repeats)]


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
