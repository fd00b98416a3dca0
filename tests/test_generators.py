import re

import numpy as np
import pytest

from sepsparse.generators import gen_poisson, gen_uniform
from sepsparse.tail import strong_and_reduced

from util import stepwise_poisson


class TestUniform:
    def test_deterministic(self):
        assert np.array_equal(gen_uniform(5, 1), gen_uniform(5, 1))
        assert not np.array_equal(gen_uniform(5, 1), gen_uniform(5, 2))

    def test_range_and_mean(self):
        x = gen_uniform(10_000, 3)
        assert float(x.min()) >= 0.0 and float(x.max()) < 1.0
        assert 0.47 <= float(x.mean()) <= 0.53

    def test_single_entry(self):
        x = gen_uniform(1, 9)
        assert x.shape == (1,) and 0.0 <= x[0] < 1.0

    def test_few_strong_indices(self):
        # dense uniform noise rarely lets one entry dominate its window
        strong = total = 0
        for seed in range(3):
            x = gen_uniform(50_000, seed)
            strong += strong_and_reduced(x, 3).strong.size
            total += x.size
        assert strong / total < 0.01


class TestPoisson:
    def test_deterministic(self):
        a = gen_poisson(200, 4.0, 9)
        b = gen_poisson(200, 4.0, 9)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_structure(self):
        x, spikes = gen_poisson(500, 3.0, 5)
        arr = np.asarray(spikes)
        assert np.all(np.diff(arr) >= 1)
        assert arr.min() >= 1 and arr.max() <= 500
        on = np.zeros(500, dtype=bool)
        on[arr - 1] = True
        assert np.all(x[~on] == 0.0)
        assert np.all((x[on] >= 0.0) & (x[on] < 1.0))

    def test_spike_density(self):
        counts = [len(gen_poisson(10_000, 4.0, seed)[1]) for seed in range(100)]
        med = float(np.median(counts))
        assert 2000 <= med <= 3000
        assert abs(med - 2500) <= 250

    def test_huge_gap_small_count(self):
        counts = [len(gen_poisson(50, 51.0, seed)[1]) for seed in range(200)]
        assert max(counts) <= 50
        assert float(np.mean(counts)) <= 2.0

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 4_000, 400_000])
    def test_matches_stepwise_reference(self, n):
        # Gaps from 1 up to far past n: dense trains, trains that need
        # several chunks of draws, and trains of zero or one spike.
        for gap in (1.0, 1.5, 3.7, 20.0, n / 2 + 1, float(n), n + 1.0, 10.0 * n, 1e6):
            for seed in range(2 if n >= 4_000 else 12):
                x, spikes = gen_poisson(n, gap, seed)
                ref_x, ref_spikes = stepwise_poisson(n, gap, seed)
                assert spikes == ref_spikes
                assert all(type(pos) is int for pos in spikes)
                assert np.array_equal(x, ref_x)

    @pytest.mark.parametrize(
        "gap, chunk, seed",
        [(200.0, 18, 209775), (200.0, 18, 276760), (200.0, 18, 319989), (125.0, 24, 333347), (125.0, 24, 678170)],
    )
    def test_matches_stepwise_reference_over_several_chunks(self, gap, chunk, seed):
        # Rare seeds whose first chunk of gaps sums to at most n = 1000: the
        # train is only complete after a second chunk, so it has at least
        # ``chunk`` spikes.
        x, spikes = gen_poisson(1000, gap, seed)
        ref_x, ref_spikes = stepwise_poisson(1000, gap, seed)
        assert len(spikes) >= chunk
        assert spikes == ref_spikes
        assert np.array_equal(x, ref_x)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_poisson(10, 0.5, 0)
        with pytest.raises(ValueError):
            gen_poisson(0, 2.0, 0)
        with pytest.raises(ValueError, match="expected_gap"):
            gen_poisson(10, float("nan"), 0)
        for gap in (None, "5"):
            with pytest.raises(ValueError, match=re.escape(f"expected_gap must be a real >= 1, got {gap!r}")):
                gen_poisson(10, gap, 1)

    @pytest.mark.parametrize("gap", [np.array([5.0]), np.array(5.0), [5.0]])
    def test_a_gap_that_is_no_real_scalar_raises_the_rules_error(self, gap):
        # A one-element array once passed the check and raised TypeError
        # further on.
        with pytest.raises(ValueError, match=re.escape(f"expected_gap must be a real >= 1, got {gap!r}")):
            gen_poisson(10, gap, 1)

    @pytest.mark.parametrize("gap", [1e300, float("inf")])
    def test_gap_past_int64_returns_an_empty_train(self, gap):
        # Gaps this large once wrapped to negative int64 positions, and the
        # draw loop never ended.
        for seed in range(5):
            x, spikes = gen_poisson(5, gap, seed)
            assert spikes == ()
            assert np.array_equal(x, np.zeros(5))

