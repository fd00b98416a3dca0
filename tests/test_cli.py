import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sepsparse import bench as bench_mod
from sepsparse import cli, dp
from sepsparse.cli import build_parser, main
from sepsparse.generators import gen_uniform
from sepsparse.serialize import read_vector, write_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def vector_file(tmp_path):
    path = tmp_path / "x.txt"
    write_vector(path, [0.0, 5.0, 1.0, 0.0, 3.0, 0.5])
    return str(path)


class TestProject:
    @pytest.mark.parametrize("algo", ["dp", "head", "tail", "topk", "oracle"])
    def test_algos_agree_on_easy_instance(self, capsys, vector_file, algo):
        args = ["project", "--in", vector_file, "--k", "2", "--delta", "2", "--algo", algo]
        if algo in ("head", "tail"):
            args += ["--epsilon", "0.5"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        result = json.loads(out)
        assert result["support"] == [2, 5]
        assert result["value"] == 8.0
        assert result["runtime_ms"] >= 0.0

    def test_dp2(self, capsys, vector_file):
        code, out, _ = run_cli(
            capsys, "project", "--in", vector_file, "--k", "3", "--delta", "3",
            "--algo", "dp", "--spikes", "2",
        )
        assert code == 0
        result = json.loads(out)
        assert result["spikes"] == 2
        # oracle-checked: {2, 3, 5} is two-spike feasible at delta=3
        assert result["support"] == [2, 3, 5]
        assert result["value"] == pytest.approx(9.0)

    @pytest.mark.parametrize("spikes", [1, 2])
    def test_dp_runs_the_table_builder_for_spikes(self, capsys, vector_file, spikes):
        code, out, _ = run_cli(
            capsys, "project", "--in", vector_file, "--k", "3", "--delta", "3",
            "--algo", "dp", "--spikes", str(spikes),
        )
        assert code == 0
        expected = dp.table_builder(spikes)(read_vector(vector_file), 3, 3)[-1]
        assert json.loads(out)["support"] == list(expected)

    def test_dp_without_exact_solver_for_p(self, capsys, vector_file):
        code, out, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--algo", "dp", "--spikes", "3",
        )
        assert code == 2
        assert out == ""
        assert "p=3" in err

    def test_dp2_is_not_an_algo(self, capsys, vector_file):
        with pytest.raises(SystemExit) as exc:
            main(["project", "--in", vector_file, "--k", "2", "--delta", "2", "--algo", "dp2"])
        assert exc.value.code == 2

    def test_spikes_algo_mismatch(self, capsys, vector_file):
        code, _, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--spikes", "2", "--algo", "tail", "--epsilon", "0.5",
        )
        assert code == 2
        assert "spikes" in err

    def test_head_without_exact_solver_for_p(self, capsys, vector_file):
        code, out, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--spikes", "3", "--algo", "head", "--epsilon", "0.5",
        )
        assert code == 2
        assert out == ""
        assert "p=3" in err

    @pytest.mark.parametrize(
        "algo_args",
        [["head", "--epsilon", "0.5"], ["tail", "--epsilon", "0.5"], ["dp", "--spikes", "2"]],
        ids=["head", "tail", "dp2"],
    )
    def test_huge_delta_runs_as_delta_n(self, capsys, vector_file, algo_args):
        results = []
        for delta in ("4611686018427387904", "6"):
            args = ["project", "--in", vector_file, "--k", "2", "--delta", delta, "--algo", *algo_args]
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            results.append(json.loads(out))
        assert results[0]["support"] == results[1]["support"]
        assert results[0]["value"] == results[1]["value"]

    @pytest.mark.parametrize("spikes, limit", [("1", 3), ("2", 6)], ids=["dp-3", "dp2-6"])
    def test_k_past_packing_limit_solves_at_the_limit(self, capsys, vector_file, spikes, limit):
        # 6 entries at delta 2 pack 3 one-spike or 6 two-spike picks.
        results = []
        for k in ("4611686018427387904", str(10**23), str(limit)):
            code, out, _ = run_cli(
                capsys, "project", "--in", vector_file, "--k", k, "--delta", "2",
                "--algo", "dp", "--spikes", spikes,
            )
            assert code == 0
            results.append(json.loads(out))
        assert results[0]["k"] == 4611686018427387904
        assert results[1]["k"] == 10**23
        for result in results[:2]:
            assert result["support"] == results[-1]["support"]
            assert result["value"] == results[-1]["value"]

    @pytest.mark.parametrize(
        "algo_args",
        [
            ("head", "--epsilon", "0.5"),
            ("head", "--spikes", "2", "--epsilon", "0.5"),
            ("tail", "--epsilon", "0.5"),
        ],
        ids=["head", "head2", "tail"],
    )
    def test_k_past_int64_runs_as_k_n(self, capsys, vector_file, algo_args):
        results = []
        for k in (str(10**23), "6"):
            args = ["project", "--in", vector_file, "--k", k, "--delta", "2", "--algo", *algo_args]
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            results.append(json.loads(out))
        assert results[0]["k"] == 10**23
        assert results[0]["support"] == results[1]["support"]
        assert results[0]["value"] == results[1]["value"]
        assert results[0].get("opt") == results[1].get("opt")

    def test_ratios_reported_for_k_past_n(self, capsys, tmp_path):
        # 1,000 entries pack 50 picks at delta 20, so the DP behind the
        # ratios runs 50 levels however large k is.
        x = np.arange(1000.0)
        path = tmp_path / "x.txt"
        write_vector(path, x)
        want = float(dp.build_table_1spike(x, 1000, 20).values[-1])
        for k in ("1000000", str(10**23)):
            args = ["project", "--in", str(path), "--k", k, "--delta", "20", "--algo", "topk"]
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            assert json.loads(out)["opt"] == want

    def test_ratios_reported_past_the_packing_limit(self, capsys, tmp_path):
        # 10,000 entries pack 10 picks at delta 1000: k = 10 and k = 10**6
        # both run the same 10-level table of 1e5 cells.
        path = tmp_path / "x.txt"
        write_vector(path, gen_uniform(10_000, 1))
        results = []
        for k in ("10", "1000000"):
            args = ["project", "--in", str(path), "--k", k, "--delta", "1000", "--algo", "head", "--epsilon", "0.5"]
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            results.append(json.loads(out))
        for key in ("opt", "head_ratio", "tail_ratio"):
            assert results[1][key] == results[0][key] is not None

    def test_ratios_skipped_past_the_cell_cap(self, capsys, vector_file, monkeypatch):
        # The DP behind the ratios fills 12 cells here; past the cap the
        # result has no optimum and no ratio at all.
        monkeypatch.setattr(cli, "MAX_OPT_CELLS", 11)
        code, out, _ = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--algo", "head", "--epsilon", "0.5",
        )
        assert code == 0
        result = json.loads(out)
        assert result["support"] == [2, 5]
        assert {"opt", "head_ratio", "tail_ratio"} & set(result) == set()

    def test_delta_below_one_exits_2(self, capsys, vector_file):
        code, out, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "0", "--algo", "dp"
        )
        assert code == 2
        assert out == ""
        assert "delta must be >= 1" in err

    def test_k_below_one_exits_2(self, capsys, vector_file):
        code, out, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "0", "--delta", "2", "--algo", "dp"
        )
        assert code == 2
        assert out == ""
        assert "k must be >= 1" in err

    def test_ratio_reporting(self, capsys, vector_file):
        code, out, _ = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--algo", "head", "--epsilon", "0.5",
        )
        result = json.loads(out)
        assert result["opt"] == 8.0
        assert result["head_ratio"] == pytest.approx(1.0)

    def test_missing_epsilon_is_config_error(self, capsys, vector_file):
        code, _, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2", "--algo", "head"
        )
        assert code == 2
        assert "epsilon" in err

    @pytest.mark.parametrize("algo", ["head", "tail"])
    def test_tiny_epsilon_runs(self, capsys, vector_file, algo):
        code, out, _ = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--algo", algo, "--epsilon", "1e-20",
        )
        assert code == 0
        assert json.loads(out)["support"] == [2, 5]

    @pytest.mark.parametrize("algo", ["head", "tail"])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_epsilon_rejected(self, capsys, vector_file, algo, bad):
        code, out, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--algo", algo, "--epsilon", bad,
        )
        assert code == 2
        assert out == ""
        assert "epsilon" in err

    def test_negative_vector_rejected(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        write_vector(path, [1.0, -2.0])
        code, _, err = run_cli(
            capsys, "project", "--in", str(path), "--k", "1", "--delta", "1", "--algo", "dp"
        )
        assert code == 2

    def test_ratios_agree_with_bench_on_a_near_zero_leftover(self, capsys, tmp_path, monkeypatch):
        # The optimal leftover is 5e-10, inside bench.GUARANTEE_SLACK: project
        # and a bench quality row on the same values both leave the tail
        # ratio out.
        x = [1.0, 0.0, 5e-10]
        path = tmp_path / "x.txt"
        write_vector(path, x)
        code, out, _ = run_cli(
            capsys, "project", "--in", str(path), "--k", "1", "--delta", "2",
            "--algo", "head", "--epsilon", "0.5",
        )
        assert code == 0
        result = json.loads(out)
        assert (result["head_ratio"], result["tail_ratio"]) == (1.0, None)

        monkeypatch.setattr(bench_mod, "_instance", lambda sweep, n, seed: np.array(x))
        sweep = bench_mod.Sweep([(3, 1, 2)], [bench_mod.AlgoSpec("head", 2)], quality=True)
        [row] = bench_mod.bench_sweep(sweep, repeats=1)
        assert (row.head_pct, row.tail_pct) == (100.0, None)

    def test_two_spike_runs_report_no_tail_ratio(self, capsys, vector_file):
        # The tail ratio is a single-spike figure: project leaves it null at
        # p = 2, as bench leaves a two-spike row's tail_pct empty, although
        # the optimal leftover (9.5 - 8.0) is positive.
        code, out, _ = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--algo", "head", "--spikes", "2", "--epsilon", "0.5",
        )
        assert code == 0
        result = json.loads(out)
        assert result["opt"] == 8.0
        assert result["head_ratio"] == result["value"] / 8.0
        assert result["tail_ratio"] is None
        assert bench_mod.ratios(8.0, 8.0, 9.5, 2, 100.0) == (100.0, None)
        assert bench_mod.ratios(8.0, 8.0, 9.5, 1, 100.0) == (100.0, 100.0)

    @pytest.mark.parametrize("algo", ["dp", "head", "tail", "topk", "oracle"])
    def test_every_algo_rejects_what_the_library_rejects(self, capsys, tmp_path, algo):
        # project checks neither the sign nor delta itself: each algorithm does.
        eps = ["--epsilon", "0.5"] if algo in ("head", "tail") else []
        path = tmp_path / "neg.txt"
        write_vector(path, [1.0, -2.0])
        code, out, err = run_cli(
            capsys, "project", "--in", str(path), "--k", "1", "--delta", "1", "--algo", algo, *eps
        )
        assert (code, out) == (2, "")
        assert "non-negative; square a signed signal first" in err
        path.write_text("1.0\n2.0\n")
        code, out, err = run_cli(
            capsys, "project", "--in", str(path), "--k", "1", "--delta", "0", "--algo", algo, *eps
        )
        assert (code, out) == (2, "")
        assert "delta must be >= 1" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_vector_rejected(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"1.0\n{bad}\n2.0\n")
        code, out, err = run_cli(
            capsys, "project", "--in", str(path), "--k", "1", "--delta", "1", "--algo", "head",
            "--epsilon", "0.5",
        )
        assert code == 2
        assert out == ""
        assert "must be finite (no NaN or inf)" in err

    @pytest.mark.parametrize("text, message", [("\n", "contains no values"), ("1 2\n3 4\n", "per line")])
    def test_empty_or_multi_column_vector_rejected(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "project", "--in", str(path), "--k", "1", "--delta", "1", "--algo", "dp"
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "project", "--in", "/no/such/file", "--k", "1", "--delta", "1", "--algo", "dp"
        )
        assert code == 2

    def test_out_file(self, capsys, vector_file, tmp_path):
        out_path = tmp_path / "res.json"
        code, out, _ = run_cli(
            capsys, "project", "--in", vector_file, "--k", "1", "--delta", "1",
            "--algo", "dp", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["support"] == [2]


class TestGen:
    def test_uniform_to_file_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(capsys, "gen", "--n", "50", "--seed", "4", "--out", str(p1))[0] == 0
        assert run_cli(capsys, "gen", "--n", "50", "--seed", "4", "--out", str(p2))[0] == 0
        assert np.array_equal(read_vector(p1), read_vector(p2))

    def test_poisson_with_spikes_out(self, capsys, tmp_path):
        vec, spk = tmp_path / "v.txt", tmp_path / "s.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--n", "100", "--gap", "5",
            "--seed", "1", "--out", str(vec), "--spikes-out", str(spk),
        )
        assert code == 0
        x = read_vector(vec)
        spikes = [int(v) for v in spk.read_text().strip().split(",")]
        assert all(x[i - 1] > 0 for i in spikes)

    def test_spikes_out_needs_gap(self, capsys, tmp_path):
        spk = tmp_path / "s.txt"
        code, out, err = run_cli(capsys, "gen", "--n", "10", "--spikes-out", str(spk))
        assert code == 2
        assert out == ""
        assert "--gap" in err
        assert not spk.exists()

    def test_gap_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--n", "10", "--gap", "0.5")
        assert code == 2
        assert out == ""
        assert "expected_gap must be a real >= 1, got 0.5" in err

    @pytest.mark.parametrize("gap", ["1e300", "inf"])
    def test_gap_past_int64_returns(self, capsys, gap):
        code, out, _ = run_cli(capsys, "gen", "--n", "5", "--gap", gap)
        assert code == 0
        assert [float(v) for v in out.split()] == [0.0] * 5

    def test_gap_nan_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--n", "5", "--gap", "nan")
        assert code == 2
        assert out == ""
        assert "expected_gap must be a real >= 1, got nan" in err

    def test_n_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--n", "0")
        assert code == 2
        assert out == ""
        assert "n must be >= 1, got 0" in err

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "3", "--seed", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestRecover:
    def test_trace_csv_and_summary(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "recover", "--n", "60", "--k", "2", "--delta", "8",
            "--iters", "10", "--eps", "0.1", "--seed", "3", "--out", str(trace_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["m"] > 0
        assert summary["residual"] <= 1e-6
        # eps 0.1 gives lam 10 (head) and 20 (tail), past ceil(60/8) = 8.
        assert (summary["head_path"], summary["tail_path"]) == ("exact", "exact")
        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        assert len(rows) == summary["iterations"] + 1
        assert list(rows[0].keys()) == ["iteration", "residual", "proxy"]

    def test_coarse_epsilon_reports_the_windowed_path(self, capsys):
        code, _, err = run_cli(
            capsys, "recover", "--n", "40", "--k", "2", "--delta", "5",
            "--iters", "2", "--eps", "0.5", "--seed", "1",
        )
        assert code == 0
        summary = json.loads(err)
        assert (summary["head_path"], summary["tail_path"]) == ("windowed", "windowed")

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    def test_bad_epsilon_exits_2(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "recover", "--n", "40", "--k", "2", "--delta", "5", "--iters", "1", "--eps", eps
        )
        assert code == 2
        assert out == ""
        assert "epsilon must be a finite real > 0, got " in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_2(self, capsys, sigma):
        code, out, err = run_cli(
            capsys, "recover", "--n", "40", "--k", "2", "--delta", "5", "--iters", "1",
            "--sigma", sigma,
        )
        assert code == 2
        assert out == ""
        assert "sigma" in err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_stop_tol_exits_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "recover", "--n", "40", "--k", "2", "--delta", "5", "--iters", "1", "--stop-tol", tol
        )
        assert code == 2
        assert out == ""
        assert "stop_tol must be a real >= 0, got " in err

    def test_infeasible_k_exits_3_before_the_sensing_draw(self, capsys, monkeypatch):
        draws = []
        real = cli.gen_sensing
        monkeypatch.setattr(cli, "gen_sensing", lambda m, n, seed: draws.append((m, n)) or real(m, n, seed))
        code, out, err = run_cli(capsys, "recover", "--n", "10", "--k", "5", "--delta", "5")
        assert code == 3
        assert out == ""
        assert "no (delta=5, p=1)-feasible support of size 5 exists in [1, 10]" in err
        assert draws == []

    def test_delta_below_one_exits_2(self, capsys, monkeypatch):
        # The check runs before the sensing matrix is drawn.
        monkeypatch.setattr(cli, "gen_sensing", None)
        code, out, err = run_cli(capsys, "recover", "--n", "40", "--k", "2", "--delta", "0", "--iters", "1")
        assert code == 2
        assert out == ""
        assert "delta must be >= 1" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--k", "0", "k must be >= 1, got 0"),
            ("--iters", "-1", "iterations must be >= 0, got -1"),
            ("--m", "0", "m must be >= 1"),
        ],
    )
    def test_counts_below_their_least_exit_2(self, capsys, flag, value, message):
        # The CLI checks n and k with model.check_count; gen_sensing checks
        # m and am_iht the iterations, both before anything is written.
        args = ["recover", "--n", "40", "--k", "2", "--delta", "5", "--iters", "1"]
        code, out, err = run_cli(capsys, *args, flag, value)
        assert code == 2
        assert out == ""
        assert message in err

    def test_infeasible_parameters_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "recover", "--n", "10", "--k", "5", "--delta", "5", "--iters", "1"
        )
        assert code == 3

    def test_stdout_trace(self, capsys):
        code, out, err = run_cli(
            capsys, "recover", "--n", "40", "--k", "2", "--delta", "5",
            "--iters", "3", "--seed", "1",
        )
        assert code == 0
        assert out.startswith("iteration,residual,proxy")
        assert json.loads(err)["k"] == 2

    def test_summary_has_one_format_on_either_stream(self, capsys, tmp_path):
        args = ["recover", "--n", "40", "--k", "2", "--delta", "5", "--iters", "3", "--seed", "1"]
        code, out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "trace.csv"))
        assert code == 0
        code, trace_csv, err = run_cli(capsys, *args)
        assert code == 0
        assert trace_csv == (tmp_path / "trace.csv").read_text()
        assert out == err


@pytest.fixture
def no_sweep(monkeypatch):
    """Make any benchmark sweep fail, so argument checks must come first."""

    def fail(*args, **kwargs):
        raise AssertionError("the sweep ran before the arguments were checked")

    monkeypatch.setattr(bench_mod, "run_preset", fail)


@pytest.fixture
def small_sweep(monkeypatch):
    """Run any preset as one small quality sweep, so a test of the output
    formats runs in a moment."""
    sweep = bench_mod.Sweep([(40, 2, 3), (40, 4, 3)], [bench_mod.AlgoSpec("head", 2)], quality=True)

    def run(name, seed=0, repeats=None):
        return bench_mod.bench_sweep(sweep, seed, repeats)

    monkeypatch.setattr(bench_mod, "run_preset", run)


class TestBench:
    def test_preset_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--preset", "fig3", "--repeats", "1", "--out", str(out_path)
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 10 * 5  # ten budgets, five algorithms
        assert all(row["bound_ok"] == "True" for row in rows)

    def test_csv_to_stdout(self, capsys, small_sweep):
        code, out, _ = run_cli(capsys, "bench", "--preset", "fig3", "--repeats", "2")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [(row["algo"], row["k"], row["repeats"], row["bound_ok"]) for row in rows] == [
            ("head-lam2", "2", "2", "True"),
            ("head-lam2", "4", "2", "True"),
        ]

    def test_dat_files(self, capsys, small_sweep, tmp_path):
        prefix = str(tmp_path / "fig")
        code, out, _ = run_cli(
            capsys, "bench", "--preset", "fig3", "--repeats", "1", "--format", "dat", "--out", prefix
        )
        assert code == 0
        written = out.splitlines()
        assert [Path(path).name for path in written] == [
            f"fig_uniform_head-lam2_{metric}.dat" for metric in ("ms", "head", "tail")
        ]
        for path in written:
            assert [line.split()[0] for line in Path(path).read_text().splitlines()] == ["2", "4"]

    def test_dat_requires_out(self, capsys, no_sweep):
        code, _, err = run_cli(capsys, "bench", "--preset", "fig3", "--format", "dat")
        assert code == 2
        assert "--out" in err

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_must_be_positive(self, capsys, small_sweep, repeats):
        # Zero repeats would report bound_ok=True from no samples at all;
        # bench_sweep rejects them before it runs a point.
        code, out, err = run_cli(capsys, "bench", "--preset", "fig3", "--repeats", repeats)
        assert code == 2
        assert out == ""
        assert f"repeats must be >= 1, got {repeats}" in err

    def test_bad_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--preset", "nope"])
        assert exc.value.code == 2


# bench's CSV holds mean_ms in one column; blank it on every line.
_MEAN_MS_COLUMN = re.compile(
    r"^((?:[^,\r\n]*,){%d})[^,\r\n]*" % bench_mod.CSV_FIELDS.index("mean_ms"), re.M
)
_TIMING_FIELD = re.compile(r'("(?:runtime_ms|mean_ms)": )[^,\n]+')


@pytest.mark.parametrize(
    "argv, timed",
    [
        (["gen", "--n", "6", "--gap", "2", "--seed", "1"], False),
        (["recover", "--n", "40", "--k", "2", "--delta", "5", "--iters", "3", "--seed", "1"], False),
        (["project", "--k", "2", "--delta", "2", "--algo", "head", "--epsilon", "0.5"], True),
        (["bench", "--preset", "fig3", "--repeats", "1"], True),
        (["bench", "--preset", "fig3", "--repeats", "1", "--format", "json"], True),
    ],
    ids=["gen", "recover", "project", "bench-csv", "bench-json"],
)
def test_out_file_holds_what_stdout_would(capsys, tmp_path, vector_file, small_sweep, argv, timed):
    # Every command writes its main output through one path: the --out file
    # gets the very bytes that stdout gets without it, timings aside.
    if argv[0] == "project":
        argv = [*argv, "--in", vector_file]
    out_path = tmp_path / "out"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    written = out_path.read_bytes().decode()
    if timed:
        written, out = (_TIMING_FIELD.sub(r"\1_", _MEAN_MS_COLUMN.sub(r"\1_", text)) for text in (written, out))
    assert written == out


class TestParser:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```bash\n(.*?)^```", readme.read_text(), re.M | re.S)
        commands = [
            shlex.split(line, comments=True)
            for block in blocks
            for line in block.splitlines()
            if line.startswith("sepsparse ")
        ]
        assert commands
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")

    def test_readme_python_blocks_run(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
