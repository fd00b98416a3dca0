import math
import re

import numpy as np
import pytest

import sepsparse.recovery as recovery
from sepsparse import dp
from sepsparse.head import head_project, window_cap, window_count
from sepsparse.model import InfeasibleParameters, is_feasible, objective
from sepsparse.recovery import (
    am_iht,
    default_measurement_count,
    empirical_rip,
    gen_sensing,
    measure,
    random_feasible_support,
)
from sepsparse.seeding import make_rng
from sepsparse.tail import tail_project


def planted_signal(n, k, delta, seed):
    support = random_feasible_support(n, k, delta, 1, make_rng(seed, 1))
    x = np.zeros(n)
    x[np.asarray(support, dtype=int) - 1] = make_rng(seed, 2).standard_normal(k)
    return x, support


# Sensing models that are 2-D but no numeric numpy array of finite entries,
# and the message every model taker raises for each: the model's own for one
# that is no numeric numpy array, model.check_finite's for a NaN or inf entry.
BAD_MODEL_MESSAGE = (
    r"sensing model must be a 2-D \(m, n\) matrix, got shape .*; "
    r"it must be a numeric numpy array with finite entries"
)
NON_FINITE_MODEL_MESSAGE = re.escape("the sensing model must be finite (no NaN or inf)")
BAD_MODELS = {
    "nested list": ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], BAD_MODEL_MESSAGE),
    "NaN entry": (np.array([[1.0, 0.0, 0.0, 0.0], [0.0, math.nan, 0.0, 0.0]]), NON_FINITE_MODEL_MESSAGE),
    "inf entry": (np.array([[1.0, 0.0, 0.0, -math.inf], [0.0, 1.0, 0.0, 0.0]]), NON_FINITE_MODEL_MESSAGE),
    "object dtype": (np.ones((2, 4), dtype=object), BAD_MODEL_MESSAGE),
    "complex dtype": (np.ones((2, 4), dtype=complex), BAD_MODEL_MESSAGE),
}


class TestSensing:
    def test_deterministic_per_seed(self):
        a = gen_sensing(2, 3, 7)
        b = gen_sensing(2, 3, 7)
        c = gen_sensing(2, 3, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (2, 3)

    def test_entry_statistics(self):
        A = gen_sensing(80, 50, 3)
        mean = float(A.mean())
        assert abs(mean) <= 5.0 / np.sqrt(80 * 50)
        assert np.array_equal(A, make_rng(3).standard_normal((80, 50)) * (1.0 / np.sqrt(80)))

    def test_unit_vector_norm_concentration(self):
        hits = 0
        e1 = np.zeros(1)
        e1[0] = 1.0
        for seed in range(100):
            A = gen_sensing(1000, 1, seed)
            sq = float(np.linalg.norm(A @ e1) ** 2)
            hits += 0.8 <= sq <= 1.2
        assert hits >= 95

    def test_measure_exact_when_noiseless(self):
        A = gen_sensing(4, 6, 1)
        x = make_rng(5).standard_normal(6)
        obs = measure(A, x, 0.0, 9)
        assert np.array_equal(obs.y, A @ x)
        assert np.array_equal(obs.e, np.zeros(4))
        obs0 = measure(A, np.zeros(6), 0.0, 9)
        assert np.array_equal(obs0.y, np.zeros(4))

    def test_noise_norm_scale(self):
        norms = []
        A = gen_sensing(100, 5, 0)
        for seed in range(60):
            obs = measure(A, np.zeros(5), 0.1, seed)
            norms.append(float(np.linalg.norm(obs.e)))
        norms = np.array(norms)
        assert 0.6 <= np.median(norms) <= 1.4

    def test_dimension_mismatch(self):
        A = gen_sensing(3, 4, 0)
        with pytest.raises(ValueError):
            measure(A, np.zeros(5), 0.0, 0)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_a_model_that_is_not_a_matrix_raises(self, shape):
        # measure, am_iht and empirical_rip read (m, n) off the model's shape
        # through one check, which names the shape it expects.
        model = np.ones(shape)
        message = rf"sensing model must be a 2-D \(m, n\) matrix, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            measure(model, np.zeros(4), 0.0, 0)
        with pytest.raises(ValueError, match=message):
            empirical_rip(model, 1, 2, 1, 2, 0)

    @pytest.mark.parametrize("kind", sorted(BAD_MODELS))
    def test_a_model_that_is_no_finite_numeric_array_raises(self, kind):
        model, message = BAD_MODELS[kind]
        with pytest.raises(ValueError, match=message):
            measure(model, np.ones(4), 0.0, 0)
        with pytest.raises(ValueError, match=message):
            empirical_rip(model, 1, 2, 1, 2, 0)

    def test_an_integer_model_measures_as_its_float_copy(self):
        A = np.arange(12).reshape(3, 4)
        x = np.array([0.5, -1.0, 2.0, 0.0])
        assert np.array_equal(measure(A, x, 0.0, 0).y, measure(A.astype(float), x, 0.0, 0).y)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf, None, "0.1"])
    def test_bad_noise_sigma_raises(self, sigma):
        A = gen_sensing(3, 4, 0)
        with pytest.raises(ValueError, match="noise_sigma must be a finite real >= 0, got "):
            measure(A, np.zeros(4), sigma, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_signal_raises(self, bad):
        A = gen_sensing(3, 4, 0)
        x = np.zeros(4)
        x[2] = bad
        with pytest.raises(ValueError, match="signal x must be finite"):
            measure(A, x, 0.0, 0)

    def test_measurement_identity_bitwise(self):
        A = gen_sensing(6, 9, 2)
        x = make_rng(8).standard_normal(9)
        obs = measure(A, x, 0.3, 4)
        assert np.array_equal(obs.y, A @ x + obs.e)


class TestRandomSupport:
    def test_uniform_p1_hits_all_supports(self):
        rng = make_rng(21)
        seen = set()
        for _ in range(400):
            seen.add(random_feasible_support(5, 2, 2, 1, rng))
        # all six 2-separated pairs of [5]
        assert seen == {(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)}

    def test_feasibility_general_p(self):
        rng = make_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            delta = int(rng.integers(1, 6))
            p = int(rng.integers(1, 3))
            from sepsparse.model import max_support_size

            cap = max_support_size(n, delta, p)
            k = int(rng.integers(0, cap + 1))
            sup = random_feasible_support(n, k, delta, p, rng)
            assert len(sup) == k
            assert is_feasible(sup, n, max(k, 1), delta, p)

    def test_p2_draws_are_pinned(self):
        # Rejection sampling near the packing limit (6 picks at this n and
        # delta); any change to the acceptance rule or the draws shows here.
        rng = make_rng(31)
        draws = [random_feasible_support(12, 4, 5, 2, rng) for _ in range(3)]
        assert draws == [(1, 2, 6, 11), (3, 4, 8, 9), (1, 3, 8, 9)]

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleParameters):
            random_feasible_support(10, 4, 5, 1, make_rng(0))

    def test_negative_k_raises(self):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            random_feasible_support(10, -1, 2, 1, make_rng(0))

    def test_delta_zero_raises(self):
        with pytest.raises(ValueError, match="delta must be >= 1"):
            random_feasible_support(5, 1, 0, 1, make_rng(0))
        with pytest.raises(ValueError, match="delta must be >= 1"):
            empirical_rip(gen_sensing(3, 5, 0), 1, 0, 1, 2, 0)


class TestAmIht:
    def test_zero_measurements_fixed_point(self):
        A = gen_sensing(4, 8, 0)
        x_hat, trace = am_iht(np.zeros(4), A, 2, 3, 5, 0.5, 0.5, x_true=np.zeros(8))
        assert np.array_equal(x_hat, np.zeros(8))
        assert trace.supports == [()] * 6
        assert trace.residuals == [0.0] * 6
        assert trace.proxies == [0.0] * 6
        assert trace.iterations == 5

    def test_trace_layout_and_determinism(self):
        n, k, delta = 60, 3, 8
        m = default_measurement_count(n, k)
        A = gen_sensing(m, n, 11)
        x, _ = planted_signal(n, k, delta, 4)
        obs = measure(A, x, 0.01, 12)
        out1 = am_iht(obs.y, A, k, delta, 6, 0.1, 0.1, x_true=x)
        out2 = am_iht(obs.y, A, k, delta, 6, 0.1, 0.1, x_true=x)
        assert np.array_equal(out1[0], out2[0])
        assert out1[1].supports == out2[1].supports
        assert out1[1].residuals == out2[1].residuals
        assert out1[1].proxies == out2[1].proxies
        assert len(out1[1].supports) == 7

    def test_iterate_supports_feasible(self):
        n, k, delta = 80, 4, 10
        A = gen_sensing(default_measurement_count(n, k), n, 3)
        x, _ = planted_signal(n, k, delta, 8)
        obs = measure(A, x, 0.0, 2)
        _, trace = am_iht(obs.y, A, k, delta, 8, 0.05, 0.05, x_true=x)
        for support in trace.supports:
            assert is_feasible(support, n, k, delta, 1)

    def test_noiseless_recovery_single_seed(self):
        n, k, delta = 100, 3, 12
        A = gen_sensing(default_measurement_count(n, k), n, 19)
        x, support = planted_signal(n, k, delta, 19)
        obs = measure(A, x, 0.0, 19)
        x_hat, trace = am_iht(obs.y, A, k, delta, 25, 0.01, 0.01, x_true=x)
        assert np.linalg.norm(x - x_hat) <= 1e-6 * np.linalg.norm(x)
        assert trace.supports[-1] == support

    def test_infeasible_projection_raises(self, monkeypatch):
        # eps 0.5 gives lam 2 (head) and 4 (tail), below ceil(40/5) = 8, so
        # the head step takes the windowed path and calls the patched projector.
        n, k, delta = 40, 2, 5
        A = gen_sensing(default_measurement_count(n, k), n, 7)
        x, _ = planted_signal(n, k, delta, 7)
        obs = measure(A, x, 0.0, 7)
        # Three picks inside one window of delta = 5 break the two-spike rule.
        monkeypatch.setattr(recovery, "head_project", lambda *args: (1, 2, 3))
        with pytest.raises(RuntimeError, match="infeasible"):
            am_iht(obs.y, A, k, delta, 3, 0.5, 0.5)

    def test_early_stop(self):
        A = gen_sensing(4, 8, 0)
        _, trace = am_iht(np.zeros(4), A, 2, 3, 50, 0.5, 0.5, stop_tol=1e-12)
        assert trace.iterations == 1  # proxy is constant, stop after one step

    def test_residuals_non_increasing_noiseless(self):
        monotone = 0
        for seed in range(20):
            n, k, delta = 100, 3, 10
            A = gen_sensing(default_measurement_count(n, k), n, seed)
            x, _ = planted_signal(n, k, delta, seed)
            obs = measure(A, x, 0.0, seed)
            _, trace = am_iht(obs.y, A, k, delta, 12, 0.01, 0.01, x_true=x)
            after_first = trace.residuals[1:]
            if all(b <= a + 1e-12 for a, b in zip(after_first, after_first[1:])):
                monotone += 1
        assert monotone >= 18


def ac9_instance(seed, sigma=0.0):
    n, k, delta = 200, 5, 20
    A = gen_sensing(default_measurement_count(n, k), n, seed)
    x, _ = planted_signal(n, k, delta, seed)
    return measure(A, x, sigma, seed + 10_000).y, A, x


def refuse(*args):
    raise AssertionError("the windowed projector ran on the exact path")


class TestProjectionPath:
    def test_ac9_parameters_take_the_exact_path(self, monkeypatch):
        # lam is 100 for head and 200 for tail; both reach ceil(200/20) = 10.
        monkeypatch.setattr(recovery, "head_project", refuse)
        monkeypatch.setattr(recovery, "tail_project", refuse)
        for seed, sigma in ((0, 0.0), (1, 0.005)):
            y, A, x = ac9_instance(seed, sigma)
            x_hat, trace = am_iht(y, A, 5, 20, 30, 0.01, 0.01, x_true=x)
            assert (trace.head_path, trace.tail_path) == ("exact", "exact")
            assert trace.iterations == 30
            if sigma == 0.0:
                assert np.linalg.norm(x - x_hat) <= 1e-3 * np.linalg.norm(x)

    def test_coarse_epsilon_takes_the_windowed_path_once_per_iteration(self, monkeypatch):
        # eps 0.5 gives lam 2 (head) and 4 (tail), both below the cap of 10.
        calls = {"head": 0, "tail": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(recovery, "head_project", counted("head", head_project))
        monkeypatch.setattr(recovery, "tail_project", counted("tail", tail_project))
        y, A, x = ac9_instance(2)
        _, trace = am_iht(y, A, 5, 20, 6, 0.5, 0.5, x_true=x)
        assert (trace.head_path, trace.tail_path) == ("windowed", "windowed")
        assert calls == {"head": 6, "tail": 6}

    def test_each_step_picks_its_own_path(self, monkeypatch):
        # Head lam ceil(1/0.2) = 5 misses the cap of 10; tail lam 10 reaches it.
        monkeypatch.setattr(recovery, "tail_project", refuse)
        y, A, x = ac9_instance(3)
        _, trace = am_iht(y, A, 5, 20, 3, 0.2, 0.2, x_true=x)
        assert (trace.head_path, trace.tail_path) == ("windowed", "exact")

    def test_exact_support_beats_the_windowed_one_at_the_cap(self):
        rng = make_rng(4242)
        cases = 0
        for _ in range(240):
            n = int(rng.integers(1, 61))
            kind = int(rng.integers(0, 3))
            if kind == 0:  # ties
                w = rng.integers(0, 3, size=n).astype(float)
            elif kind == 1:  # zero runs
                w = rng.random(n)
                lo = int(rng.integers(0, n))
                w[lo : lo + int(rng.integers(1, n + 1))] = 0.0
            else:
                w = rng.random(n) ** 4
            delta = int(rng.integers(1, n + 5))
            k = int(rng.integers(0, n + 2))
            slack = 64 * np.finfo(float).eps * float(w.sum())
            # lam = n reaches the cap ceil(n/delta) for every delta >= 1.
            eps_head, eps_tail = 1.0 / n, 2.0 / n
            assert window_count(n, delta, eps_head) == window_cap(n, delta)
            assert window_count(n, delta, eps_tail, 2.0) == window_cap(n, delta)
            for p, budget, windowed in (
                (2, 2 * k, head_project(w, 2 * k, delta, 2, eps_head)),
                (1, k, tail_project(w, k, delta, eps_tail)),
            ):
                exact = dp.table_builder(p)(w, budget, delta).support(budget)
                assert is_feasible(exact, n, budget, delta, p)
                assert objective(w, exact) >= objective(w, windowed) - slack
            cases += 1
        assert cases >= 200

    def test_zero_width_model_returns_empty_supports(self):
        x_hat, trace = am_iht(np.zeros(3), np.zeros((3, 0)), 2, 3, 2, 0.5, 0.5)
        assert x_hat.size == 0
        assert trace.supports == [()] * 3


@pytest.mark.parametrize("other_eps", [0.01, 0.5], ids=["exact", "windowed"])
class TestAmIhtInputErrors:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, None, "0.5"])
    def test_bad_epsilon_raises(self, other_eps, bad):
        y, A, _ = ac9_instance(0)
        with pytest.raises(ValueError, match="epsilon must be a finite real > 0, got "):
            am_iht(y, A, 5, 20, 1, bad, other_eps)
        with pytest.raises(ValueError, match="epsilon must be a finite real > 0, got "):
            am_iht(y, A, 5, 20, 1, other_eps, bad)

    def test_delta_zero_raises(self, other_eps):
        y, A, _ = ac9_instance(0)
        with pytest.raises(ValueError, match="delta must be >= 1"):
            am_iht(y, A, 5, 0, 1, other_eps, other_eps)

    def test_negative_k_raises(self, other_eps):
        y, A, _ = ac9_instance(0)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            am_iht(y, A, -1, 20, 1, other_eps, other_eps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_measurements_raise(self, other_eps, bad):
        y, A, _ = ac9_instance(0)
        y[3] = bad
        with pytest.raises(ValueError, match="measurements y must be finite"):
            am_iht(y, A, 5, 20, 1, other_eps, other_eps)
        y, A, x = ac9_instance(0)
        x[7] = bad
        with pytest.raises(ValueError, match="x_true must be finite"):
            am_iht(y, A, 5, 20, 1, other_eps, other_eps, x_true=x)

    @pytest.mark.parametrize("length", [199, 201])
    def test_x_true_of_the_wrong_length_raises(self, other_eps, length):
        y, A, _ = ac9_instance(0)
        with pytest.raises(ValueError, match=f"x_true length {length} != model width 200"):
            am_iht(y, A, 5, 20, 1, other_eps, other_eps, x_true=np.zeros(length))

    def test_y_of_the_wrong_length_raises(self, other_eps):
        y, A, _ = ac9_instance(0)
        m = A.shape[0]
        with pytest.raises(ValueError, match=f"measurements y length {m - 1} != model height {m}"):
            am_iht(y[:-1], A, 5, 20, 1, other_eps, other_eps)

    @pytest.mark.parametrize("shape", [(3,), (3, 3, 3)])
    def test_a_model_that_is_not_a_matrix_raises(self, other_eps, shape):
        message = rf"sensing model must be a 2-D \(m, n\) matrix, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            am_iht(np.zeros(3), np.ones(shape), 1, 2, 2, other_eps, other_eps)

    @pytest.mark.parametrize("kind", sorted(BAD_MODELS))
    def test_a_model_that_is_no_finite_numeric_array_raises(self, other_eps, kind):
        model, message = BAD_MODELS[kind]
        with pytest.raises(ValueError, match=message):
            am_iht(np.zeros(2), model, 1, 2, 2, other_eps, other_eps)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf, "abc", np.array([0.1]), 1j])
    def test_bad_stop_tol_raises_before_the_first_iteration(self, monkeypatch, other_eps, bad):
        # A NaN or negative tolerance would never stop the loop, and a
        # string would fail only after an iteration's work.
        y, A, _ = ac9_instance(0)

        def unused(v):
            raise AssertionError("an iteration ran")

        monkeypatch.setattr(recovery, "squared_weights", unused)
        with pytest.raises(ValueError, match="stop_tol must be a real >= 0, got "):
            am_iht(y, A, 5, 20, 1, other_eps, other_eps, stop_tol=bad)

    @pytest.mark.parametrize("tol", [None, 0, 0.0, 1e-12, np.float64(1e-12), np.int64(0), math.inf])
    def test_stop_tol_none_or_a_real_at_least_0_runs(self, other_eps, tol):
        y, A, _ = ac9_instance(0)
        _, trace = am_iht(y, A, 5, 20, 3, other_eps, other_eps, stop_tol=tol)
        # An infinite tolerance stops after the first iteration.
        assert trace.iterations == (1 if tol == math.inf else 3)

    def test_k_zero_keeps_the_zero_iterate(self, other_eps):
        y, A, _ = ac9_instance(0)
        x_hat, trace = am_iht(y, A, 0, 20, 3, other_eps, other_eps)
        assert np.array_equal(x_hat, np.zeros(200))
        assert trace.supports == [()] * 4
        path = "exact" if other_eps == 0.01 else "windowed"
        assert (trace.head_path, trace.tail_path) == (path, path)


class TestEmpiricalRip:
    def test_identity_model(self):
        assert empirical_rip(np.eye(7), 2, 3, 1, 40, 5) <= 1e-12

    def test_k1_matches_column_norms(self):
        A = gen_sensing(50, 50, 31)
        norms_sq = np.sum(A**2, axis=0)
        expected = float(np.max(np.abs(norms_sq - 1.0)))
        # enough samples that every singleton support is drawn
        got = empirical_rip(A, 1, 5, 1, 3000, 77)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_decreases_with_more_measurements(self):
        medians = []
        for m in (100, 400, 1600):
            vals = [
                empirical_rip(gen_sensing(m, 60, seed), 3, 8, 1, 40, seed + 1000)
                for seed in range(20)
            ]
            medians.append(float(np.median(vals)))
        assert medians[0] > medians[1] > medians[2]
