import numpy as np
import pytest

from sepsparse.dp import dp_solve
from sepsparse.head import block_decompose
from sepsparse.model import brute_force_solve, is_feasible, objective
from sepsparse.seeding import make_rng
from sepsparse.tail import strong_and_reduced, tail_project, tail_vector, topk_tail_project

from util import (
    direct_tail_vector,
    gather_tail_vector,
    keep_only,
    tail_bound_coefficient,
    topk_reference,
    unrestricted_cases,
    window_members,
)


def leftover(x, support):
    return float(np.asarray(x, dtype=float).sum()) - objective(x, support)


class TestTailVector:
    def test_spec_examples(self):
        assert np.allclose(tail_vector([0.0, 5, 1, 0], 2), [5, 1, 5, 1])
        assert np.array_equal(tail_vector([3.0, 1, 4], 1), [0.0, 0.0, 0.0])
        assert np.array_equal(tail_vector([4.0], 9), [0.0])

    def test_matches_direct_windowed_sum(self):
        rng = make_rng(83)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            delta = int(rng.integers(1, n + 10))  # includes delta > n
            x = rng.random(n) * float(rng.integers(1, 5))
            assert np.allclose(tail_vector(x, delta), direct_tail_vector(x, delta), atol=1e-9)


    def test_matches_the_gather_formula_bit_for_bit(self):
        # Slices of the prefix sums read the same operands as two gathers,
        # so every float, -0.0 included, comes out the same.
        rng = make_rng(1601)
        cases = [(np.array([2.5]), 1), (np.array([2.5]), 7), (np.zeros(0), 3)]
        for c in range(400):
            n = int(rng.integers(1, 60))
            x = 10.0 ** rng.uniform(-300, 300, n) * (rng.random(n) < 0.7)
            if c % 3 == 0:
                x[int(rng.integers(0, n)) :][: int(rng.integers(0, 20))] = 0.0
            if c % 4 == 0:
                x = np.where(x == 0.0, -0.0, x)
            delta = (1, n, n + int(rng.integers(1, 10**6)), int(rng.integers(1, n + 1)))[c % 4]
            cases.append((x, delta))
        for x, delta in cases:
            got, want = tail_vector(x, delta), gather_tail_vector(x, delta)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (x, delta)

    def test_huge_delta_equals_delta_n(self):
        rng = make_rng(149)
        for _ in range(40):
            n = int(rng.integers(1, 16))
            x = np.round(rng.random(n) * 3)
            for delta in (2**62, 2**63 - 1):
                assert np.array_equal(tail_vector(x, delta), tail_vector(x, n))


class TestStrongAndReduced:
    def test_spec_examples(self):
        prof = strong_and_reduced([0.0, 5, 1, 0], 2)
        assert list(prof.strong) == [2]
        assert np.array_equal(prof.r, [0.0, 5.0, 0.0, 0.0])
        assert np.array_equal(tail_vector([1.0, 1, 1], 2), [1.0, 2.0, 1.0])
        prof = strong_and_reduced([1.0, 1, 1], 2)
        assert prof.strong.size == 0
        assert np.array_equal(prof.r, [1.0, 1.0, 1.0])
        prof = strong_and_reduced(np.zeros(4), 3)
        assert prof.strong.size == 0
        assert np.array_equal(prof.r, np.zeros(4))

    def test_strong_indices_separated(self):
        rng = make_rng(89)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            delta = int(rng.integers(1, 8))
            x = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 3)
            prof = strong_and_reduced(x, delta)
            gaps = np.diff(prof.strong)
            assert np.all(gaps >= delta)
            # reduced vector never exceeds x, keeps strong entries verbatim
            assert np.all(prof.r <= x + 0.0)
            for s in prof.strong:
                assert prof.r[s - 1] == x[s - 1]
            # weak survivors are >= delta away from every strong index
            for i in np.flatnonzero(prof.r) + 1:
                if i not in prof.strong:
                    assert all(abs(int(i) - int(s)) >= delta for s in prof.strong)

    def test_reduction_preserves_optimum(self):
        rng = make_rng(97)
        for _ in range(250):
            n = int(rng.integers(1, 13))
            delta = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            x = np.where(rng.random(n) < 0.4, 0.0, rng.random(n) * 2)
            prof = strong_and_reduced(x, delta)
            _, opt_x = brute_force_solve(x, k, delta)
            _, opt_r = brute_force_solve(prof.r, k, delta)
            assert opt_x == pytest.approx(opt_r, abs=1e-9)


class TestTopK:
    def test_tight_example(self):
        x = np.array([1.0, 1, 1])
        sol = topk_tail_project(x, 2, 2)
        assert sol == (1,)
        assert leftover(x, sol) == 2.0  # exactly twice the optimal leftover of 1

    def test_trivial_examples(self):
        assert topk_tail_project([9.0, 0, 0], 1, 2) == (1,)
        assert topk_tail_project([5.0, 1, 4, 1], 2, 2) == (1, 3)

    def test_matches_selection_on_reference_solver(self):
        for x, k, delta in unrestricted_cases(47, 3000):
            assert topk_tail_project(x, k, delta) == topk_reference(x, k, delta)

    def test_delta_validation(self):
        # Checked before the early return for an empty x or a k <= 0.
        for x, k, delta in ((np.ones(3), 2, 0), ([], 2, 0), (np.ones(3), 0, 0), ([], 1, -1)):
            with pytest.raises(ValueError, match="delta must be >= 1"):
                topk_tail_project(x, k, delta)

    def test_factor_two_vs_oracle(self):
        rng = make_rng(101)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            delta = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            sol = topk_tail_project(x, k, delta)
            assert is_feasible(sol, n, k, delta, 1)
            _, opt = brute_force_solve(x, k, delta)
            assert leftover(x, sol) <= 2.0 * (float(x.sum()) - opt) + 1e-9


class TestTailProject:
    def test_spec_examples(self):
        x = np.array([0.0, 5, 1, 0])
        sol = tail_project(x, 1, 2, 1.0)
        assert sol == (2,)
        assert leftover(x, sol) == 1.0
        assert tail_project(np.zeros(5), 2, 2, 1.0) == ()
        x = np.array([1.0, 1, 1])
        sol = tail_project(x, 2, 2, 1.0)
        assert leftover(x, sol) <= 2.0 - 1e-12  # strictly better than the 2x baseline here

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            tail_project(np.ones(3), 1, 2, 0.0)

    def test_non_finite_epsilon_rejected(self):
        for eps in (float("inf"), float("-inf"), float("nan"), None, "0.5"):
            with pytest.raises(ValueError, match="epsilon must be finite and positive"):
                tail_project(np.ones(3), 1, 2, eps)

    def test_tiny_epsilon_solves_the_largest_useful_lam(self):
        rng = make_rng(107)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            delta = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            want = tail_project(x, k, delta, 2.0 / -(-n // delta))
            for eps in (1e-20, 1e-300, 5e-324):
                assert tail_project(x, k, delta, eps) == want

    def test_delta_validation(self):
        for delta in (0, -2):
            with pytest.raises(ValueError):
                tail_project(np.ones(3), 1, delta, 0.5)
        for x, k in (([], 1), (np.ones(3), 0)):
            with pytest.raises(ValueError, match="delta must be >= 1"):
                tail_project(x, k, -1, 0.5)

    def test_huge_delta_equals_delta_n(self):
        rng = make_rng(151)
        for _ in range(60):
            n = int(rng.integers(1, 16))
            k = int(rng.integers(1, n + 2))
            x = np.round(rng.random(n) * 3)
            for eps in (1.0, 0.5, 0.25):
                want = tail_project(x, k, n, eps)
                for delta in (2**62, 2**63 - 1):
                    assert tail_project(x, k, delta, eps) == want

    def test_huge_k_equals_k_n(self):
        rng = make_rng(173)
        for _ in range(60):
            n = int(rng.integers(1, 16))
            delta = int(rng.integers(1, n + 3))
            x = np.round(rng.random(n) * 3)
            for eps in (1.0, 0.25):
                assert tail_project(x, 10**23, delta, eps) == tail_project(x, n, delta, eps)

    def test_guarantee_vs_oracle(self):
        rng = make_rng(103)
        for _ in range(250):
            n = int(rng.integers(1, 13))
            delta = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            _, opt = brute_force_solve(x, k, delta)
            opt_left = float(x.sum()) - opt
            for eps in (1.0, 0.5, 0.25):
                sol = tail_project(x, k, delta, eps)
                assert is_feasible(sol, n, k, delta, 1)
                assert leftover(x, sol) <= (1 + eps) * opt_left + 1e-9

    def test_guarantee_vs_dp_at_scale(self):
        rng = make_rng(107)
        for trial in range(8):
            n = 2000
            delta = int(rng.integers(2, 40))
            k = int(rng.integers(1, 80))
            x = rng.random(n)
            values, _ = dp_solve(x, k, delta)
            opt_left = float(x.sum()) - float(values[-1])
            for eps in (1.0, 0.5):
                sol = tail_project(x, k, delta, eps)
                assert leftover(x, sol) <= (1 + eps) * opt_left + 1e-9

    def test_reported_mass_agrees_under_x_and_r(self):
        # the slice winner is scored under the reduced weights; on feasible
        # outputs the original weights give the same mass
        rng = make_rng(109)
        for _ in range(150):
            n = int(rng.integers(1, 16))
            delta = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            x = np.where(rng.random(n) < 0.4, 0.0, rng.random(n) * 2)
            prof = strong_and_reduced(x, delta)
            sol = tail_project(x, k, delta, 0.5)
            assert objective(x, sol) == pytest.approx(objective(prof.r, sol), abs=1e-12)

    def test_numpy_integer_delta_zeroes_the_same_neighbours(self):
        # The neighbourhood loop computes with the checked delta, a Python
        # int: a numpy unsigned delta neither wraps below index 1 nor
        # leaves a strong index's neighbours unzeroed.
        x = np.array([5.0, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        want = strong_and_reduced(x, 3)
        assert want.strong.tolist() == [1] and want.r.tolist() == [5.0, 0, 0] + [1.0] * 7
        for delta in (np.uint64(3), np.int8(3)):
            got = strong_and_reduced(x, delta)
            assert got.strong.tolist() == [1] and got.r.tolist() == want.r.tolist()
            assert tail_project(x, 2, delta, 0.5) == tail_project(x, 2, 3, 0.5)
        assert strong_and_reduced(x, 2**63).r.tolist() == strong_and_reduced(x, 10).r.tolist()

    def test_block_sizes_bounded_with_strong_merge(self):
        rng = make_rng(113)
        import math

        for _ in range(150):
            n = int(rng.integers(1, 60))
            delta = int(rng.integers(1, 6))
            x = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 4)
            prof = strong_and_reduced(x, delta)
            for eps in (1.0, 0.5):
                lam = math.ceil(2.0 / eps)
                for nu in range(min(lam, (n - 1) // delta) + 1):
                    members = np.union1d(window_members(n, delta, lam, nu), prof.strong)
                    kept = np.where(keep_only(n, members), prof.r, 0.0)
                    dec = block_decompose(np.flatnonzero(kept) + 1, delta)
                    for lo, hi in dec.blocks:
                        assert hi - lo + 1 <= lam * delta


class TestBoundCoefficient:
    def test_recovers_one_plus_eps(self):
        for eps in (0.5, 0.1, 0.01):
            got = tail_bound_coefficient(1 - eps / 2, 2.0 / 3.0)
            assert got == pytest.approx(1 + eps, abs=1e-12)

    def test_spec_numeric_examples(self):
        assert tail_bound_coefficient(0.75, 2 / 3) == pytest.approx(1.5, abs=1e-12)
        assert tail_bound_coefficient(0.5, 0.5) == pytest.approx(1.5, abs=1e-12)
        assert tail_bound_coefficient(0.999999, 0.5) == pytest.approx(1.0, abs=1e-4)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            tail_bound_coefficient(1.0, 0.5)
        with pytest.raises(ValueError):
            tail_bound_coefficient(0.5, 0.0)
