import csv
import io
import json

import pytest

from sepsparse.bench import (
    AlgoSpec,
    CSV_FIELDS,
    QualitySweep,
    RuntimeSweep,
    bench_quality,
    bench_runtime,
    rows_to_csv,
    rows_to_dat,
    rows_to_json,
    run_preset,
)


def small_quality(kind="uniform", spikes=1, repeats=4):
    algos = (
        [AlgoSpec("head", lam) for lam in (1, 2)] + [AlgoSpec("tail", 2)]
        if spikes == 1
        else [AlgoSpec("head", lam, p=2) for lam in (1, 2)]
    )
    return QualitySweep(
        n=200,
        delta=10,
        ks=[3, 8],
        algos=algos,
        repeats=repeats,
        seed=5,
        kind=kind,
        expected_gap=10.0 if kind == "poisson" else None,
        spikes=spikes,
    )


class TestRuntime:
    def test_row_count_contract(self):
        sweep = RuntimeSweep(
            points=[(100, 5, 5)],
            algos=[AlgoSpec("dp"), AlgoSpec("head", 2), AlgoSpec("tail", 2)],
            repeats=3,
            seed=1,
        )
        rows = bench_runtime(sweep)
        assert len(rows) == 3
        assert [r.algo for r in rows] == ["dp", "head-lam2", "tail-lam2"]
        for row in rows:
            assert row.mean_ms >= 0.0
            assert row.head_pct is None and row.tail_pct is None

    def test_two_spike_row(self):
        sweep = RuntimeSweep(
            points=[(60, 4, 4)],
            algos=[AlgoSpec("dp2", p=2), AlgoSpec("head", 2, p=2)],
            repeats=2,
            seed=0,
        )
        rows = bench_runtime(sweep)
        assert [r.algo for r in rows] == ["dp2-p2", "head-lam2-p2"]


class TestQuality:
    def test_guarantee_columns_and_determinism(self):
        rows1 = bench_quality(small_quality())
        rows2 = bench_quality(small_quality())
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
        rows = bench_quality(small_quality(kind="poisson"))
        assert all(r.bound_ok for r in rows)

    def test_two_spike_drops_tail_column(self):
        rows = bench_quality(small_quality(spikes=2))
        assert all(r.tail_pct is None for r in rows)
        assert all(r.head_pct is not None for r in rows)

    def test_tail_sentinel_when_optimum_leftover_zero(self):
        # an instance that is already feasible: optimal leftover is 0
        sweep = QualitySweep(
            n=40,
            delta=2,
            ks=[20],
            algos=[AlgoSpec("head", 1)],
            repeats=1,
            seed=123,
            kind="poisson",
            expected_gap=8.0,
        )
        rows = bench_quality(sweep)
        assert rows[0].tail_pct is None


class TestFormats:
    def test_csv_schema(self):
        rows = bench_quality(small_quality(repeats=2))
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
        rows = bench_quality(small_quality(repeats=2))
        buf = io.StringIO()
        rows_to_json(rows, buf)
        data = json.loads(buf.getvalue())
        assert len(data) == len(rows)
        assert data[0]["algo"] == "head-lam1"

    def test_dat_files(self, tmp_path):
        rows = bench_quality(small_quality(repeats=2))
        written = rows_to_dat(rows, str(tmp_path / "series"))
        assert written
        for path in written:
            lines = open(path).read().strip().splitlines()
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
