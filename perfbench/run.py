"""sepsparse benchmark: one workload per invocation, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact|approx|recovery --seed N \
        --seconds S --trace 0|1

Load is one closed-loop caller on one thread: each call starts when the
previous one has returned and been checked.  A run sets the workload up
(with ``--trace 0`` at least three times and for at least a second,
timing each), then repeats rounds -- every
operation of the workload once, in a fixed order -- until ``--seconds`` have
passed.  The set-up already allocates at full size, so no warm-up round is
run; the first round's outputs give the quality figures.  With ``--trace 0``
a last pass runs each operation once more under tracemalloc for ``peak_mb``;
tracemalloc slows Python allocations severalfold, so no timed call runs
under it.  With ``--trace 1`` untraced and traced rounds alternate, so both
see the same host speed, and the per-layer split plus the tracing overhead
are reported instead.

The host's speed drifts: on a shared core fixed Python code runs up to 1.5
times slower for seconds to minutes at a time, while numpy's vector kernels
over long arrays barely slow down.  So a short fixed piece of Python work
(the probe, see ``make_probe``) is timed right before and right after every
call and every set-up.  Where that time is Python interpreter work
(``Workload.calibrated_calls`` and ``calibrated_setup``) the gated
``round_cal_ms`` and ``setup_s`` scale each call or set-up to the speed at
which the probe takes ``PROBE_REF_MS``.  The wall-clock ``round_ms`` and
set-up time are printed beside them.

Every output is checked (see workloads.py); a wrong output or an exception is
a failed operation, and any failure makes the exit code 1.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc
import json
import math
import platform
import statistics
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# Set up at least this many times and for at least this long, then take the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The calibrated unit: a millisecond at the host speed where the probe takes this long.
PROBE_REF_MS = 1.1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["exact", "approx", "recovery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_package():
    """Import sepsparse from the checkout's ``src``; fail if it is not there."""
    if not (ROOT / "src" / "sepsparse" / "__init__.py").is_file():
        sys.exit(f"error: no sepsparse sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy

    import workloads

    return numpy, workloads


class Tally:
    """Attempts, failures and per-operation timing samples of one pass kind.

    Each sample pairs a call's seconds with the mean of the probes timed just
    before and just after it.
    """

    def __init__(self, ops, probe) -> None:
        self.ops = ops
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {op.name: [] for op in ops}
        self.probes: dict[str, list[float]] = {op.name: [] for op in ops}

    def run(self, op, call):
        """Call and check one operation; return (seconds, probe seconds, quality) or None."""
        self.attempted += 1
        try:
            before = self.probe()
            start = perf_counter()
            out = call()
            elapsed = perf_counter() - start
            after = self.probe()
            quality = op.check(out)
        except Exception:  # any failure of the program under test is counted
            self.failed += 1
            print(f"FAILED {op.name}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return elapsed, (before + after) / 2, quality

    def round(self, tracer=None) -> list[dict[str, float]]:
        """Every operation once, in order; return the quality of each output."""
        gc.collect()
        qualities = []
        for op in self.ops:
            call = op.call if tracer is None else (lambda op=op: tracer.call(f"op.{op.name}", op.call))
            result = self.run(op, call)
            if result is not None:
                self.samples[op.name].append(result[0])
                self.probes[op.name].append(result[1])
                qualities.append(result[2])
        return qualities

    def round_ms(self) -> float:
        """One round at the median: each call costs its operation's median time."""
        return sum(median_ms(self.samples[op.name]) for op in self.ops)

    def calibrated_ms(self, name: str) -> float:
        """Median per-call time of one operation, scaled to the reference probe speed."""
        return 1000.0 * calibrated_median(self.samples[name], self.probes[name])

    def round_cal_ms(self, calibrated: bool) -> float:
        """``round_ms`` with each call scaled to the reference speed, if ``calibrated``."""
        if not calibrated:
            return self.round_ms()
        return sum(self.calibrated_ms(op.name) for op in self.ops)


def median_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def calibrated_median(times: list[float], probes: list[float]) -> float:
    """Median of the times, each scaled to the host speed where the probe takes PROBE_REF_MS."""
    ratios = [t / p for t, p in zip(times, probes)]
    return statistics.median(ratios) * PROBE_REF_MS / 1000.0 if ratios else 0.0


def tail_note(values: list[float]) -> str:
    """Sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return f"n={n} p{p:g}={1000.0 * ordered[rank - 1]:.3f}ms"
    return f"n={n} (no percentile has 10 samples beyond it)"


def make_probe(numpy):
    """Return a function giving the seconds of a fixed piece of work, about a millisecond.

    The work is of the kinds the package does between its vector kernels: a
    dict-update loop over 3000 floats, sorting them, and numpy calls on short
    arrays.  Its time shows how fast the host runs such code right now; it
    tracks the host's drift better than a bare integer loop does.
    """
    rng = numpy.random.default_rng(0)
    floats = rng.random(3000).tolist()
    short = rng.random(300)

    def probe() -> float:
        start = perf_counter()
        sums: dict[int, float] = {}
        for i, value in enumerate(floats):
            sums[i % 97] = sums.get(i % 97, 0.0) + value
        sorted(floats)
        for _ in range(60):
            int(numpy.argmax(short))
            short[5:50].sum()
        return perf_counter() - start

    return probe


def peak_pass(tally: Tally) -> float:
    """Largest tracemalloc peak, in MB, of one call of each distinct operation."""
    peak = 0
    seen = set()
    tracemalloc.start()
    try:
        for op in tally.ops:
            if op.name in seen:
                continue
            seen.add(op.name)
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            if tally.run(op, op.call) is not None:
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def measure(ops, seconds: float, probe, tracer=None):
    """Rounds until ``seconds`` pass.

    With a tracer, untraced and traced rounds alternate so that both see the
    same host speed; each traced round's span-index range is returned too.
    """
    plain, traced = Tally(ops, probe), Tally(ops, probe)
    ranges: list[tuple[int, int]] = []
    first = None
    start = perf_counter()
    while first is None or perf_counter() - start < seconds:
        qualities = plain.round()
        first = qualities if first is None else first
        if tracer is not None:
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced.round(tracer)
            finally:
                tracer.restore()
            ranges.append((lo, len(tracer.spans)))
    return plain, traced, first, ranges


def sanity(workload: str, tracer) -> list[str]:
    """Compare the traced layer split with the ROADMAP baseline (not a gate)."""
    checks = {
        "exact": ("op.dp", "dp.support", "dp.support is most of dp_ms", lambda s: s > 0.5),
        "recovery": ("recovery.iht", "head.project", "head_project is about 80% of recover_ms",
                     lambda s: 0.7 <= s <= 0.9),
    }
    if workload not in checks:
        return []
    parent, child, claim, holds = checks[workload]
    share = tracer.share_within(parent, child)
    if share is None:
        return [f"{claim}: no {parent} spans recorded (does NOT hold)"]
    return [f"{claim}: {share:.1%} ({'holds' if holds(share) else 'does NOT hold'})"]


def main(argv=None) -> int:
    args = parse_args(argv)
    numpy, workloads = load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": os.environ["OMP_NUM_THREADS"],
    }
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup = workloads.SETUPS[args.workload]
    probe = make_probe(numpy)
    setup_times: list[float] = []
    setup_probes: list[float] = []
    while not setup_times or (args.trace == 0 and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS)):
        wl = None  # drop the previous set-up before timing the next
        gc.collect()
        before = probe()
        start = perf_counter()
        wl = setup(args.seed, OUT_DIR)
        setup_times.append(perf_counter() - start)
        setup_probes.append((before + probe()) / 2)

    if wl.calibrated_setup:
        setup_s = calibrated_median(setup_times, setup_probes)
    else:
        setup_s = statistics.median(setup_times)
    report: dict[str, object] = {"env": env, "setup_s": setup_times, "setup_probes": setup_probes}
    tracer = None
    if args.trace == 1:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced, first, ranges = measure(wl.ops, args.seconds, probe, tracer)
    quality = wl.quality(first) if len(first) == len(wl.ops) else {}
    if tracer is None:
        values = {
            "round_cal_ms": plain.round_cal_ms(wl.calibrated_calls),
            "setup_s": setup_s,
            "peak_mb": peak_pass(plain),
            "quality": quality.get("quality", 0.0),
        }
        wanted = spec["end_to_end"]
        lines = [f"{name}_ms {median_ms(s):.3f} ms (calibrated {plain.calibrated_ms(name):.3f} ms) "
                 f"{tail_note(s)}" for name, s in plain.samples.items()]
        lines += [f"round_ms {plain.round_ms():.3f} ms",
                  f"round_cal_ms {values['round_cal_ms']:.3f} ms "
                  f"({'calibrated' if wl.calibrated_calls else 'wall clock'})",
                  f"peak_mb {values['peak_mb']:.3f} MB"]
        report["samples"] = plain.samples
    else:
        values = tracer.layer_metrics(ranges)
        values["trace.overhead_ms"] = traced.round_ms() - plain.round_ms()
        for name in workloads.ALL_OPS:
            values[f"op.{name}_ms"] = median_ms(plain.samples.get(name, []))
        wanted = spec["per_layer"]
        lines = [
            f"{name}_ms untraced {median_ms(s):.3f} ms, traced {median_ms(traced.samples[name]):.3f} ms "
            f"(overhead {median_ms(traced.samples[name]) - median_ms(s):+.3f} ms) {tail_note(s)}"
            for name, s in plain.samples.items()
        ]
        lines += [f"sanity: {line}" for line in sanity(args.workload, tracer)]
        report["samples"] = {"untraced": plain.samples, "traced": traced.samples}
        tracer.write(OUT_DIR / f"{tag}-spans.jsonl.gz")
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed

    # Human-readable lines first: every figure by name, with its unit.
    print(f"setup_s {setup_s:.4f} s ({'calibrated' if wl.calibrated_setup else 'wall clock'}; "
          f"wall-clock median {statistics.median(setup_times):.4f} s of {len(setup_times)})")
    for line in lines:
        print(line)
    for name, value in quality.items():
        print(f"{name} {value!r} ratio")
    print(f"fail_share {failed / attempted!r} ({failed}/{attempted})")
    probes = [1000.0 * p for ps in plain.probes.values() for p in ps]
    print(f"probe_ms {statistics.median(probes):.3f} ms (min {min(probes):.3f}, max {max(probes):.3f}, "
          f"reference {PROBE_REF_MS} ms)")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report.update(quality=quality, probes=plain.probes, metrics=metrics, attempted=attempted,
                  failed=failed, printed=lines)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
