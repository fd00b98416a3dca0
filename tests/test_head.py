import numpy as np
import pytest

from sepsparse.dp import dp_solve
from sepsparse.head import (
    best_over_windows,
    block_decompose,
    drop_phase,
    head_project,
    slice_solve,
    window_cap,
    window_count,
)
from sepsparse.model import brute_force_solve, is_feasible, objective
from sepsparse.seeding import make_rng

from util import coverage_best_window, keep_only, restricted_optimum, slice_solve_reference, window_members


class TestWindows:
    def test_spec_examples(self):
        assert window_members(8, 2, 1, 0) == [3, 4, 7, 8]
        assert window_members(8, 2, 1, 1) == [1, 2, 5, 6]
        assert window_members(6, 1, 2, 2) == [1, 2, 4, 5]
        assert list(drop_phase(np.arange(1, 9), 2, 1)) == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_each_index_in_exactly_lam_windows(self):
        rng = make_rng(51)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            delta = int(rng.integers(1, 6))
            lam = int(rng.integers(1, 5))
            counts = np.zeros(n, dtype=int)
            for nu in range(lam + 1):
                for i in window_members(n, delta, lam, nu):
                    counts[i - 1] += 1
            assert np.all(counts == lam)

    def test_partition_mass(self):
        for n, delta, lam in [(17, 3, 2), (40, 5, 1), (9, 1, 3)]:
            total = sum(len(window_members(n, delta, lam, nu)) for nu in range(lam + 1))
            assert total == lam * n

    def test_negative_lam_or_delta_raises(self):
        # The period (lam + 1) * delta would be 0 or negative.
        with pytest.raises(ValueError, match="delta must be >= 1"):
            drop_phase(np.arange(1, 5), 0, 1)
        with pytest.raises(ValueError, match="lam must be >= 0, got -1"):
            drop_phase(np.arange(1, 5), 2, -1)
        with pytest.raises(ValueError, match="lam must be >= 0, got -1"):
            best_over_windows(np.ones(4), 2, 2, 1, -1)
        # A delta past every index puts all of them in phase 0.
        assert list(drop_phase(np.arange(1, 5), 2**62, 1)) == [0, 0, 0, 0]

    def test_drop_phase_takes_integer_indices_only(self):
        # A float index once got a phase of its own.
        for bad in (np.array([1.5]), np.array([2.0]), np.array([True]), 2.5):
            with pytest.raises(ValueError, match="idx must be integer indices, got "):
                drop_phase(bad, 2, 1)

    def test_best_over_windows_tiles_the_phases_of_drop_phase(self, monkeypatch):
        # best_over_windows reads the phases of the nonzero positions once;
        # each slice's kept positions must be those drop_phase keeps over
        # all of [n], with the forced indices kept by every slice.
        import sepsparse.head as head_mod

        masks = []

        def record(kept, x, k, delta, p=1):
            masks.append(keep_only(x.size, kept))
            return ()

        monkeypatch.setattr(head_mod, "slice_solve", record)
        rng = make_rng(1603)
        cases = [(600, 1, 300), (600, 2, 299), (300, 1, 127), (300, 1, 128)]  # past int8
        for c in range(300):
            n = int(rng.integers(1, 80))
            delta = int(rng.integers(1, 12)) if c % 4 else n + int(rng.integers(1, 10**6))
            cases.append((n, delta, int(rng.integers(0, window_cap(n, delta) + 3))))
        for c, (n, delta, lam) in enumerate(cases):
            cap = window_cap(n, delta)
            forced = rng.random(n) < 0.2 if c % 2 else None
            masks.clear()
            positions = None if forced is None else np.flatnonzero(forced) + 1
            best_over_windows(rng.random(n), 3, delta, 1, lam, positions)
            lam = min(lam, cap)
            phase = drop_phase(np.arange(1, n + 1), delta, lam)
            want = [(phase != nu) | (forced if forced is not None else False) for nu in range(lam + 1)]
            assert len(masks) == lam + 1
            assert all(np.array_equal(got, w) for got, w in zip(masks, want)), (n, delta, lam)

    def test_best_over_windows_scores_slices_without_rechecking(self, monkeypatch):
        # The slices are scored by the unchecked ascending sum, not by
        # objective, which re-validates all of x; the pick is the one
        # objective makes.
        import sepsparse.head as head_mod

        rng = make_rng(1727)
        cases = []
        for c in range(200):
            n = int(rng.integers(1, 60))
            x = np.round(rng.random(n) * 3) if c % 2 else rng.random(n)
            k, delta, lam = int(rng.integers(1, 6)), int(rng.integers(1, 8)), int(rng.integers(0, 4))
            cases.append((x, k, delta, 1 + c % 2, lam))
        want = []
        for x, k, delta, p, lam in cases:
            lam = min(lam, window_cap(x.size, delta))
            phase = drop_phase(np.arange(1, x.size + 1), delta, lam)
            best, best_val = (), 0.0
            for nu in range(lam + 1):
                sol = slice_solve(np.flatnonzero(phase != nu) + 1, x, k, delta, p)
                if objective(x, sol) > best_val:
                    best, best_val = sol, objective(x, sol)
            want.append(best)

        def unused(x, indices):
            raise AssertionError("objective called")

        monkeypatch.setattr(head_mod, "objective", unused)
        assert [best_over_windows(*case) for case in cases] == want

    def test_degenerate_input_runs_no_slice(self, monkeypatch):
        # k <= 0 and a vector without a nonzero weight return () before any
        # slice runs; p and forced are still checked first.
        import sepsparse.head as head_mod

        def unused(*args):
            raise AssertionError("slice_solve called")

        monkeypatch.setattr(head_mod, "slice_solve", unused)
        for x, k in ((np.ones(5), 0), (np.ones(5), -2), (np.zeros(5), 3), (np.array([0.0, -0.0]), 3), (np.zeros(0), 3)):
            for p in (1, 2):
                assert best_over_windows(x, k, 2, p, 2) == ()
                assert best_over_windows(x, k, 2, p, 2, np.flatnonzero(np.ones(x.size, dtype=bool)) + 1) == ()
            with pytest.raises(ValueError, match="p=3"):
                best_over_windows(x, k, 2, 3, 2)
            with pytest.raises(ValueError, match="forced must be a strictly increasing integer array"):
                best_over_windows(x, k, 2, 1, 2, np.flatnonzero(np.ones(x.size + 1, dtype=bool)) + 1)

    def test_window_count_reaches_the_cap(self):
        # best_over_windows caps lam at ceil(n / min(delta, n)).
        assert window_count(100, 10, 0.1) == window_cap(100, 10) == 10
        assert window_count(100, 10, 0.2) == 5
        assert window_count(100, 10, 0.2, 2.0) == window_cap(100, 10)
        assert window_count(7, 100, 1.0) == window_cap(7, 100) == 1  # delta past n: one window
        assert window_count(7, 1, 5e-324) == window_cap(7, 1) == 7  # 1/eps overflows to inf

    def test_block_size_capped_by_lam_delta(self):
        rng = make_rng(53)
        for _ in range(60):
            n = int(rng.integers(1, 60))
            delta = int(rng.integers(1, 6))
            lam = int(rng.integers(1, 4))
            x = rng.random(n)
            for nu in range(lam + 1):
                kept = np.where(keep_only(n, window_members(n, delta, lam, nu)), x, 0.0)
                dec = block_decompose(np.flatnonzero(kept) + 1, delta)
                for lo, hi in dec.blocks:
                    assert hi - lo + 1 <= lam * delta


class TestCoverage:
    def test_spec_examples(self):
        nu, mass = coverage_best_window([1.0, 1, 1, 1], 1, 1)
        assert mass == 2.0 and mass >= 0.5 * 4 / 2
        nu, mass = coverage_best_window([0.0, 0, 0, 0], 2, 1)
        assert mass == 0.0
        nu, mass = coverage_best_window([1.0, 0, 0, 0], 2, 1)
        assert nu == 1 and mass == 1.0

    def test_guarantee_on_random_vectors(self):
        rng = make_rng(59)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            delta = int(rng.integers(1, 6))
            lam = int(rng.integers(1, 5))
            z = rng.random(n) * float(rng.integers(1, 10))
            nu, mass = coverage_best_window(z, delta, lam)
            assert mass >= lam / (lam + 1) * float(z.sum()) - 1e-9
            direct = sum(z[i - 1] for i in window_members(n, delta, lam, nu))
            assert mass == pytest.approx(direct, abs=1e-9)


class TestBlocks:
    def test_spec_examples(self):
        x = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
        dec = block_decompose(np.flatnonzero(x) + 1, 2)
        assert dec.blocks.tolist() == [[3, 4], [7, 8]]
        assert dec.budgets.tolist() == [1, 1]
        dec = block_decompose(np.flatnonzero(np.zeros(6)) + 1, 2)
        assert dec.blocks.shape == (0, 2) and dec.budgets.shape == (0,)
        dec = block_decompose(np.flatnonzero(np.array([1.0, 0, 0, 0, 1])) + 1, 3, 2)
        assert dec.blocks.tolist() == [[1, 1], [5, 5]]
        assert dec.budgets.tolist() == [2, 2]
        # The blocks iterate as (lo, hi) pairs of ints.
        assert [(int(lo), int(hi)) for lo, hi in dec.blocks] == [(1, 1), (5, 5)]
        assert dec.blocks.dtype.kind == dec.budgets.dtype.kind == "i"

    def test_kept_must_be_increasing_integer_positions_from_one(self):
        # A compare, not a difference, finds a step down, so neither an
        # unsigned nor a narrow array wraps past the check.
        bad = (
            np.array([0, 2]),
            np.array([2, 2]),
            np.array([3, 1]),
            np.array([3, 2], dtype=np.uint64),
            np.array([100, -100, 1], dtype=np.int8),
            np.array([1.0, 2.0]),
            np.array([True, False]),
            np.ones((2, 2), dtype=int),
            np.int64(3),
            [],
        )
        for kept in bad:
            with pytest.raises(ValueError, match=r"kept must be a strictly increasing integer array in \[1, inf\]"):
                block_decompose(kept, 2)
            with pytest.raises(ValueError, match=r"kept must be a strictly increasing integer array in \[1, 3\]"):
                slice_solve(kept, np.ones(3), 1, 2)
        with pytest.raises(ValueError, match=r"in \[1, 3\]"):
            slice_solve(np.array([2, 4]), np.ones(3), 1, 2)
        # Any integer type, a list included, gives int blocks and budgets.
        for kept in ([1, 2, 5], np.array([1, 2, 5], dtype=np.uint64), np.array([1, 2, 5], dtype=np.int8)):
            dec = block_decompose(kept, 3, 2)
            assert dec.blocks.tolist() == [[1, 2], [5, 5]] and dec.budgets.tolist() == [2, 2]
            assert dec.blocks.dtype == dec.budgets.dtype == np.intp
        # A delta past the last position cuts nothing.
        dec = block_decompose(np.array([1, 2, 5], dtype=np.int32), np.uint64(2**63))
        assert dec.blocks.tolist() == [[1, 5]] and dec.budgets.tolist() == [1]

    def test_blocks_are_delta_apart_and_budgeted(self):
        rng = make_rng(61)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            delta = int(rng.integers(1, 5))
            p = int(rng.integers(1, 3))
            x = np.where(rng.random(n) < 0.35, 0.0, rng.random(n))
            members = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False) + 1)
            kept = np.where(keep_only(n, members), x, 0.0)
            dec = block_decompose(np.flatnonzero(kept) + 1, delta, p)
            for (l1, h1), (l2, h2) in zip(dec.blocks, dec.blocks[1:]):
                assert l2 - h1 >= delta
            covered = []
            for (lo, hi), budget in zip(dec.blocks, dec.budgets):
                assert budget == p * -(-(hi - lo + 1) // delta)
                chain = [i for i in range(lo, hi + 1) if kept[i - 1] != 0]
                assert chain[0] == lo and chain[-1] == hi
                assert all(b - a < delta for a, b in zip(chain, chain[1:]))
                covered += chain
            assert covered == [i for i in range(1, n + 1) if kept[i - 1] != 0]


class TestSliceSolve:
    def test_spec_examples(self):
        x = np.zeros(8)
        x[2], x[3], x[6], x[7] = 5.0, 1.0, 4.0, 2.0
        assert slice_solve(np.array([3, 4, 7, 8]), x, 2, 2, 1) == (3, 7)
        assert slice_solve(np.array([], dtype=int), np.ones(3), 2, 2, 1) == ()
        assert slice_solve(np.arange(1, 4), np.ones(3), 2, 2, 1) == (1, 3)

    def test_optimal_on_random_slices(self):
        rng = make_rng(67)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            delta = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            p = int(rng.integers(1, 3))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            members = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False) + 1)
            sol = slice_solve(np.array(members, dtype=int), x, k, delta, p)
            assert set(sol) <= set(members)
            assert is_feasible(sol, n, k, delta, p)
            best = restricted_optimum(members, x, k, delta, p)
            assert objective(x, sol) == pytest.approx(best, abs=1e-9)

    def test_zero_weights_join_no_block(self, monkeypatch):
        # Kept positions of zero weight, -0.0 included, are dropped before
        # the cut: here 3 and 5 would chain 1 to 7 into one block.
        import sepsparse.head as head_mod

        x = np.array([1.0, 0.0, 0.0, 0.0, -0.0, 0.0, 2.0])
        seen = []
        monkeypatch.setattr(head_mod, "block_decompose", lambda kept, *a: seen.append(kept) or block_decompose(kept, *a))
        assert slice_solve(np.array([1, 3, 5, 7]), x, 2, 3, 1) == (1, 7)
        assert [v.tolist() for v in seen] == [[1, 7]]

    def test_reads_only_the_kept_weights(self):
        # A span can hold weights the slice leaves out: a forced index 5 in
        # a slice that drops 4 to 6 chains 3, 5 and 7 into one block.  The
        # slice reads 4 and 6 as zeros and never checks them, while a kept
        # weight goes through the builder's weight check.
        kept = np.array([1, 2, 3, 5, 7, 8, 9])
        masked = np.where(keep_only(9, kept), 1.0, 0.0)
        for k in range(1, 6):
            for p in (1, 2):
                want = slice_solve_reference(kept, masked, k, 3, p)
                assert slice_solve(kept, np.ones(9), k, 3, p) == want
                for bad in (np.nan, np.inf, -1.0):
                    x = np.ones(9)
                    x[[3, 5]] = bad
                    assert slice_solve(kept, x, k, 3, p) == want
                    x[4] = bad
                    with pytest.raises(ValueError, match="weight vectors must be"):
                        slice_solve(kept, x, k, 3, p)
        forced = np.flatnonzero(keep_only(9, [5])) + 1
        assert best_over_windows(np.ones(9), 3, 3, 1, 1, forced) == best_over_windows(masked, 3, 3, 1, 1, forced)
        # Any integer type of positions reads the same, up to the largest
        # an int8 holds.
        x = np.ones(130)
        kept = np.array([1, 3, 4, 6, 125, 127])
        for dtype in (np.uint64, np.int8, np.int32):
            for k in (2, 4, 8):
                assert slice_solve(kept.astype(dtype), x, k, 3) == slice_solve(kept, x, k, 3)

    def test_mask_must_be_boolean_of_x_length(self):
        # kept holds positions, not a mask: a boolean or float array is
        # refused, and [1, 3] keeps positions 1 and 3.
        x = np.ones(3)
        for mask in (np.array([True]), np.ones(3), np.array([1, 4]), [True, True, True]):
            for k in (2, 0):
                with pytest.raises(ValueError, match=r"kept must be a strictly increasing integer array in \[1, 3\]"):
                    slice_solve(mask, x, k, 2, 1)
        assert slice_solve(np.array([1, 3]), x, 2, 2, 1) == (1, 3)
        # Any weight vector, a list included, as for every public projector.
        assert best_over_windows([1.0, 2.0, 3.0], 1, 1, 1, 1) == (3,)

    def test_forced_holds_sorted_positions(self):
        # forced names 1-based positions as kept does, never by a mask:
        # each keep-set drops one of positions 3 and 6, and forcing both
        # keeps them together; 0-based, they would force two zero weights.
        w = np.array([0.0, 1, 4, 0, 0, 1, 0, 0])
        assert best_over_windows(w, 2, 2, 1, 1) == (3,)
        assert best_over_windows(w, 2, 2, 1, 1, np.array([3, 6])) == (3, 6)
        message = r"forced must be a strictly increasing integer array in \[1, 8\]"
        bad = (keep_only(8, [2, 5]), np.ones(8, dtype=bool), np.array([5, 2]), np.array([2, 2, 5]),
               np.array([0, 2]), np.array([2, 9]), np.array([2.0, 5.0]), np.array([[2, 5]]))
        for forced in bad:
            for k in (2, 0):
                with pytest.raises(ValueError, match=message):
                    best_over_windows(w, k, 2, 1, 1, forced)
        # Any integer type of positions forces the same ones, and a forced
        # position of zero weight changes nothing.
        rng = make_rng(1741)
        for c in range(200):
            n = int(rng.integers(1, 130))
            x = rng.random(n) * (rng.random(n) < 0.6)
            forced = np.flatnonzero(rng.random(n) < 0.3) + 1
            zero = np.flatnonzero(x == 0.0) + 1
            delta, lam, p = int(rng.integers(1, 8)), int(rng.integers(0, 4)), 1 + c % 2
            want = best_over_windows(x, 3, delta, p, lam, forced)
            for dtype in (np.int8, np.uint64, np.int32):
                if n < 128 or dtype != np.int8:
                    assert best_over_windows(x, 3, delta, p, lam, forced.astype(dtype)) == want
            assert best_over_windows(x, 3, delta, p, lam, np.union1d(forced, zero)) == want
            assert best_over_windows(x, 3, delta, p, lam, zero) == best_over_windows(x, 3, delta, p, lam)

    def test_rejects_p3_without_solver(self):
        with pytest.raises(ValueError):
            slice_solve(np.arange(1, 3), np.ones(2), 1, 2, 3)
        with pytest.raises(ValueError):
            head_project(np.ones(2), 1, 2, 3, 0.5)
        # A vector with no blocks still names the p it has no solver for.
        with pytest.raises(ValueError, match="p=3"):
            slice_solve(np.arange(1, 5), np.zeros(4), 1, 2, 3)
        with pytest.raises(ValueError, match="p=3"):
            head_project(np.zeros(4), 1, 2, 3, 0.5)
        # Nor does an empty x or a k <= 0 skip the check.
        for x, k in (([], 1), (np.ones(4), 0)):
            with pytest.raises(ValueError, match="p=3"):
                head_project(x, k, 2, 3, 0.5)
        for k in (0, -1):
            with pytest.raises(ValueError, match="p=3"):
                slice_solve(np.arange(1, 5), np.ones(4), k, 2, 3)
            with pytest.raises(ValueError, match="p=3"):
                best_over_windows(np.ones(4), k, 2, 3, 2)


class TestHeadProject:
    def test_spec_example_small(self):
        sol = head_project([1.0, 1, 1, 1], 4, 1, 1, 0.5)
        assert objective([1.0, 1, 1, 1], sol) >= 3.0

    def test_tightness_on_ones(self):
        for lam in (1, 2, 3):
            n = (lam + 1) * 100
            sol = head_project(np.ones(n), n, 1, 1, 1.0 / lam)
            assert objective(np.ones(n), sol) == lam / (lam + 1) * n

    def test_zeros(self):
        assert head_project(np.zeros(6), 3, 2, 1, 0.5) == ()

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            head_project(np.ones(3), 1, 1, 1, 0.0)

    def test_non_finite_epsilon_rejected(self):
        for eps in (float("inf"), float("-inf"), float("nan"), None, "0.5"):
            with pytest.raises(ValueError, match="epsilon must be a finite real > 0, got "):
                head_project(np.ones(3), 1, 1, 1, eps)

    def test_tiny_epsilon_solves_the_largest_useful_lam(self):
        rng = make_rng(83)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            delta = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            p = int(rng.integers(1, 3))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            want = head_project(x, k, delta, p, 1.0 / -(-n // delta))
            for eps in (1e-20, 1e-300, 5e-324):
                assert head_project(x, k, delta, p, eps) == want

    def test_delta_validation(self):
        for delta in (0, -2):
            with pytest.raises(ValueError):
                head_project(np.ones(3), 1, delta, 1, 0.5)
        for x, k in (([], 1), (np.ones(3), 0)):
            with pytest.raises(ValueError, match="delta must be >= 1"):
                head_project(x, k, 0, 1, 0.5)

    def test_huge_delta_equals_delta_n(self):
        rng = make_rng(139)
        for _ in range(60):
            n = int(rng.integers(1, 16))
            k = int(rng.integers(1, n + 2))
            p = int(rng.integers(1, 3))
            x = np.round(rng.random(n) * 3)  # ties and zeros
            for eps in (1.0, 0.5, 0.25):
                want = head_project(x, k, n, p, eps)
                for delta in (2**62, 2**63 - 1):
                    assert head_project(x, k, delta, p, eps) == want

    def test_huge_k_equals_k_n(self):
        # No support holds more than n indices, so any k >= n is the same
        # problem, even a k past int64.
        rng = make_rng(167)
        for _ in range(60):
            n = int(rng.integers(1, 16))
            delta = int(rng.integers(1, n + 3))
            p = int(rng.integers(1, 3))
            x = np.round(rng.random(n) * 3)  # ties and zeros
            for eps in (1.0, 0.25):
                assert head_project(x, 10**23, delta, p, eps) == head_project(x, n, delta, p, eps)

    def test_guarantee_vs_oracle(self):
        rng = make_rng(71)
        for _ in range(250):
            n = int(rng.integers(1, 13))
            delta = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            p = int(rng.integers(1, 3))
            x = np.where(rng.random(n) < 0.25, 0.0, rng.random(n))
            _, opt = brute_force_solve(x, k, delta, p)
            for lam in (1, 2, 3):
                sol = head_project(x, k, delta, p, 1.0 / lam)
                assert is_feasible(sol, n, k, delta, p)
                assert objective(x, sol) >= lam / (lam + 1) * opt - 1e-9

    def test_guarantee_vs_dp_at_scale(self):
        rng = make_rng(73)
        for trial in range(10):
            n = 2000
            delta = int(rng.integers(2, 40))
            k = int(rng.integers(1, 80))
            x = rng.random(n)
            values, _ = dp_solve(x, k, delta)
            opt = float(values[-1])
            for lam in (1, 2, 3):
                sol = head_project(x, k, delta, 1, 1.0 / lam)
                assert objective(x, sol) >= lam / (lam + 1) * opt - 1e-9

    def test_marginal_gain_sequences_concave(self):
        rng = make_rng(79)
        from sepsparse.dp import build_table_1spike, build_table_2spike

        for _ in range(120):
            n = int(rng.integers(1, 25))
            delta = int(rng.integers(1, 5))
            p = int(rng.integers(1, 3))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            dec = block_decompose(np.flatnonzero(x) + 1, delta, p)
            build = build_table_1spike if p == 1 else build_table_2spike
            for (lo, hi), budget in zip(dec.blocks, dec.budgets):
                gains = np.diff(build(x[lo - 1 : hi], budget, delta).values, prepend=0.0)
                assert np.all(np.diff(gains) <= 1e-12)
                assert np.all(gains >= -1e-15)
