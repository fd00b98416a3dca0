import csv
import io
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sepsparse import head
from sepsparse.bench import (
    AlgoSpec,
    CSV_FIELDS,
    Sweep,
    bench_sweep,
    rows_to_csv,
    rows_to_dat,
    rows_to_json,
    run_preset,
)
from sepsparse.dp import dp_solve_2spike
from sepsparse.seeding import make_rng


def small_quality(kind="uniform", spikes=1):
    algos = [AlgoSpec("head", lam) for lam in (1, 2)] + ([AlgoSpec("tail", 2)] if spikes == 1 else [])
    return Sweep(
        points=[(200, 3, 10), (200, 8, 10)],
        algos=algos,
        quality=True,
        p=spikes,
        gap=10.0 if kind == "poisson" else None,
    )


class TestRuntime:
    def test_row_count_contract(self):
        sweep = Sweep(
            points=[(100, 5, 5)],
            algos=[AlgoSpec("dp"), AlgoSpec("head", 2), AlgoSpec("tail", 2)],
        )
        rows = bench_sweep(sweep, seed=1, repeats=3)
        assert len(rows) == 3
        assert [r.algo for r in rows] == ["dp", "head-lam2", "tail-lam2"]
        for row in rows:
            assert row.mean_ms >= 0.0
            assert row.head_pct is None and row.tail_pct is None

    def test_two_spike_row(self):
        sweep = Sweep(points=[(60, 4, 4)], algos=[AlgoSpec("dp"), AlgoSpec("head", 2)], p=2)
        rows = bench_sweep(sweep, seed=0, repeats=2)
        assert [r.algo for r in rows] == ["dp2-p2", "head-lam2-p2"]
        assert all(r.p == 2 for r in rows)


class TestSpikeCount:
    x = np.array([5.0, 4.0, 3.0, 2.0, 1.0])

    def test_dp_runs_the_sweeps_spike_count(self):
        # The 1-spike DP would return (1, 4) here.
        _, sols = dp_solve_2spike(self.x, 4, 3)
        assert AlgoSpec("dp").run(self.x, 4, 3, p=2) == sols[-1] == (1, 2, 4, 5)
        assert AlgoSpec("dp").run(self.x, 4, 3, p=1) == (1, 4)

    def test_tail_rejects_two_spikes(self):
        with pytest.raises(ValueError, match="p=2"):
            AlgoSpec("tail", 2).run(self.x, 2, 3, p=2)
        with pytest.raises(ValueError):
            bench_sweep(Sweep([(60, 4, 4)], [AlgoSpec("tail", 2)], p=2), repeats=1)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_must_be_positive(self, repeats):
        with pytest.raises(ValueError, match="repeats"):
            bench_sweep(Sweep([(60, 4, 4)], [AlgoSpec("dp")]), repeats=repeats)


class TestLam:
    @pytest.mark.parametrize("algo", ["head", "tail"])
    def test_runs_the_keep_sets_it_is_labelled_with(self, monkeypatch, algo):
        # epsilon = 1/lam turns back into ceil(1/epsilon) = lam + 1 for
        # lam = 49, 98, 103, 107, 196, ...; the count must stay lam + 1.
        keep_sets = []
        monkeypatch.setattr(head, "slice_solve", lambda keep, *args: keep_sets.append(keep) or ())
        x = make_rng(211).random(5000)
        for lam in [*range(1, 120), 196, 197, 206, 1000, 1600]:
            keep_sets.clear()
            AlgoSpec(algo, lam).run(x, 10, 3, 1)
            assert len(keep_sets) == lam + 1, f"{AlgoSpec(algo, lam).label(1)} ran {len(keep_sets)}"


class TestSweep:
    def test_gap_picks_the_instance_kind(self):
        uniform = Sweep([(60, 4, 4)], [AlgoSpec("dp")])
        poisson = Sweep([(60, 4, 4)], [AlgoSpec("dp")], gap=8.0)
        assert uniform.kind == "uniform"
        assert poisson.kind == "poisson"
        assert [r.kind for r in bench_sweep(poisson, repeats=1)] == ["poisson"]


class TestQuality:
    def test_guarantee_columns_and_determinism(self):
        rows1 = bench_sweep(small_quality(), seed=5, repeats=4)
        rows2 = bench_sweep(small_quality(), seed=5, repeats=4)
        assert len(rows1) == 2 * 3
        for r1, r2 in zip(rows1, rows2):
            assert (r1.algo, r1.k, r1.head_pct, r1.tail_pct) == (
                r2.algo,
                r2.k,
                r2.head_pct,
                r2.tail_pct,
            )
            assert r1.bound_ok is True
            assert r1.head_pct is not None
            lam = r1.lam
            assert r1.head_pct >= 100.0 * lam / (lam + 1) - 1e-6

    def test_poisson_quality(self):
        rows = bench_sweep(small_quality(kind="poisson"), seed=5, repeats=4)
        assert all(r.bound_ok for r in rows)

    def test_two_spike_drops_tail_column(self):
        rows = bench_sweep(small_quality(spikes=2), seed=5, repeats=4)
        assert all(r.tail_pct is None for r in rows)
        assert all(r.head_pct is not None for r in rows)

    def test_tail_sentinel_when_optimum_leftover_zero(self):
        # an instance that is already feasible: optimal leftover is 0
        sweep = Sweep(
            points=[(40, 20, 2)],
            algos=[AlgoSpec("head", 1)],
            quality=True,
            gap=8.0,
        )
        rows = bench_sweep(sweep, seed=123, repeats=1)
        assert rows[0].tail_pct is None


class TestFormats:
    def test_csv_schema(self):
        rows = bench_sweep(small_quality(), seed=5, repeats=2)
        buf = io.StringIO()
        rows_to_csv(rows, buf)
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert list(parsed[0].keys()) == CSV_FIELDS == [
            "algo", "kind", "n", "k", "delta", "lam", "p", "repeats",
            "mean_ms", "head_pct", "tail_pct", "bound_ok",
        ]
        assert len(parsed) == len(rows)
        assert parsed[0]["bound_ok"] == "True"

    def test_json_roundtrip(self):
        rows = bench_sweep(small_quality(), seed=5, repeats=2)
        buf = io.StringIO()
        rows_to_json(rows, buf)
        data = json.loads(buf.getvalue())
        assert len(data) == len(rows)
        assert data[0]["algo"] == "head-lam1"

    def test_dat_files(self, tmp_path):
        rows = bench_sweep(small_quality(), seed=5, repeats=2)
        written = rows_to_dat(rows, str(tmp_path / "series"))
        assert written
        for path in written:
            lines = Path(path).read_text().strip().splitlines()
            assert all(len(line.split()) == 2 for line in lines)


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            run_preset("nope")

    def test_preset_registry_complete(self):
        from sepsparse.bench import PRESETS

        assert sorted(PRESETS) == [
            "fig2-left",
            "fig2-right",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
        ]


# -- golden replay --------------------------------------------------------
#
# ``data/bench_golden.json`` holds every column but ``mean_ms`` of all six
# presets at seed 0.  Running this file as a script
# (``PYTHONPATH=src python tests/test_bench.py``) writes it again from the
# current package; do that only on a commit whose outputs are trusted.

BENCH_GOLDEN = Path(__file__).resolve().parent / "data" / "bench_golden.json"
GOLDEN_REPEATS = {"fig2-left": 1, "fig2-right": 1, "fig3": 3, "fig4": 3, "fig5": 1, "fig6": 3}


def preset_records(name: str) -> list[dict]:
    rows = run_preset(name, seed=0, repeats=GOLDEN_REPEATS[name])
    return [{key: value for key, value in asdict(row).items() if key != "mean_ms"} for row in rows]


@pytest.mark.parametrize("name", sorted(GOLDEN_REPEATS))
def test_presets_match_recording(name):
    want = json.loads(BENCH_GOLDEN.read_text())[name]
    assert preset_records(name) == want


def record() -> None:
    golden = {name: preset_records(name) for name in sorted(GOLDEN_REPEATS)}
    BENCH_GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} rows to {BENCH_GOLDEN}")


if __name__ == "__main__":
    record()
