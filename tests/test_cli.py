import csv
import json

import numpy as np
import pytest

from sepsparse import bench as bench_mod
from sepsparse.cli import main
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
            capsys, "project", "--in", vector_file, "--k", "3", "--delta", "3", "--algo", "dp2",
        )
        assert code == 0
        result = json.loads(out)
        assert result["spikes"] == 2  # dp2 implies the two-spike model
        # oracle-checked: {2, 3, 5} is two-spike feasible at delta=3
        assert result["support"] == [2, 3, 5]
        assert result["value"] == pytest.approx(9.0)

    def test_spikes_algo_mismatch(self, capsys, vector_file):
        code, _, err = run_cli(
            capsys, "project", "--in", vector_file, "--k", "2", "--delta", "2",
            "--spikes", "2", "--algo", "tail", "--epsilon", "0.5",
        )
        assert code == 2
        assert "spikes" in err

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

    def test_negative_vector_rejected(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        write_vector(path, [1.0, -2.0])
        code, _, err = run_cli(
            capsys, "project", "--in", str(path), "--k", "1", "--delta", "1", "--algo", "dp"
        )
        assert code == 2

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
        assert "NaN or infinite" in err

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
        assert run_cli(capsys, "gen", "--kind", "uniform", "--n", "50", "--seed", "4", "--out", str(p1))[0] == 0
        assert run_cli(capsys, "gen", "--kind", "uniform", "--n", "50", "--seed", "4", "--out", str(p2))[0] == 0
        assert np.array_equal(read_vector(p1), read_vector(p2))

    def test_poisson_with_spikes_out(self, capsys, tmp_path):
        vec, spk = tmp_path / "v.txt", tmp_path / "s.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--kind", "poisson", "--n", "100", "--gap", "5",
            "--seed", "1", "--out", str(vec), "--spikes-out", str(spk),
        )
        assert code == 0
        x = read_vector(vec)
        spikes = [int(v) for v in spk.read_text().strip().split(",")]
        assert all(x[i - 1] > 0 for i in spikes)

    def test_poisson_needs_gap(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "poisson", "--n", "10")
        assert code == 2

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "uniform", "--n", "3", "--seed", "0")
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
        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        assert len(rows) == summary["iterations"] + 1
        assert list(rows[0].keys()) == ["iteration", "residual", "proxy"]

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


@pytest.fixture
def no_sweep(monkeypatch):
    """Make any benchmark sweep fail, so argument checks must come first."""

    def fail(*args, **kwargs):
        raise AssertionError("the sweep ran before the arguments were checked")

    monkeypatch.setattr(bench_mod, "run_preset", fail)


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

    def test_dat_requires_out(self, capsys, no_sweep):
        code, _, err = run_cli(capsys, "bench", "--preset", "fig3", "--format", "dat")
        assert code == 2
        assert "--out" in err

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_must_be_positive(self, capsys, no_sweep, repeats):
        # Zero repeats would report bound_ok=True from no samples at all.
        code, _, err = run_cli(capsys, "bench", "--preset", "fig3", "--repeats", repeats)
        assert code == 2
        assert "--repeats" in err

    def test_bad_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--preset", "nope"])
        assert exc.value.code == 2


class TestParser:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
