import numpy as np
import pytest

from sepsparse.model import InfeasibleParameters, is_feasible
from sepsparse.recovery import (
    am_iht,
    default_measurement_count,
    empirical_rip,
    gen_sensing,
    measure,
    random_feasible_support,
)
from sepsparse.seeding import make_rng


def planted_signal(n, k, delta, seed):
    support = random_feasible_support(n, k, delta, 1, make_rng(seed, 1))
    x = np.zeros(n)
    x[np.asarray(support, dtype=int) - 1] = make_rng(seed, 2).standard_normal(k)
    return x, support


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

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleParameters):
            random_feasible_support(10, 4, 5, 1, make_rng(0))


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
        import sepsparse.recovery as recovery

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
