"""Tests for the statistics toolkit (repro.stats)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.errors import ReproError
from repro.stats import (
    SlidingWindowSample,
    autocorrelation,
    build_histogram,
    kolmogorov_sf,
    ks_two_sample,
    sliding_mean,
    summarize,
)


class TestHistogram:
    def test_density_integrates_to_one(self, rng):
        hist = build_histogram(rng.normal(0, 1, 10_000), bins=30)
        mass = float(np.sum(hist.density() * hist.widths))
        assert mass == pytest.approx(1.0)

    def test_total(self, rng):
        hist = build_histogram(rng.random(123), bins=5)
        assert hist.total == 123

    def test_rejects_empty_and_bad_bins(self):
        with pytest.raises(ReproError):
            build_histogram(np.array([np.nan]))
        with pytest.raises(ReproError):
            build_histogram(np.array([1.0]), bins=0)


class TestAutocorrelation:
    def test_lag_zero_is_one(self, rng):
        result = autocorrelation(rng.normal(0, 1, 500), max_lag=5)
        assert result.acf[0] == pytest.approx(1.0)

    def test_iid_noise_inside_band(self, rng):
        result = autocorrelation(rng.normal(0, 1, 20_000), max_lag=20)
        # Nearly all lags within the 95% independence band.
        assert result.significant_lags().size <= 2

    def test_ar1_is_detected(self, rng):
        noise = rng.normal(0, 1, 10_000)
        series = np.empty_like(noise)
        series[0] = noise[0]
        for index in range(1, len(noise)):
            series[index] = 0.8 * series[index - 1] + noise[index]
        result = autocorrelation(series, max_lag=10)
        assert not result.is_independent()
        assert result.acf[1] == pytest.approx(0.8, abs=0.05)

    def test_constant_series(self):
        result = autocorrelation(np.full(100, 3.0), max_lag=5)
        assert result.acf[0] == 1.0
        assert np.all(result.acf[1:] == 0.0)

    def test_band_shrinks_with_n(self, rng):
        small = autocorrelation(rng.normal(0, 1, 100), max_lag=2)
        large = autocorrelation(rng.normal(0, 1, 10_000), max_lag=2)
        assert large.band < small.band

    def test_rejects_too_short(self):
        with pytest.raises(ReproError):
            autocorrelation(np.array([1.0]))


class TestKs:
    def test_same_sample_statistic_zero(self, rng):
        data = rng.normal(0, 1, 500)
        result = ks_two_sample(data, data)
        assert result.statistic == 0.0
        assert result.pvalue == pytest.approx(1.0)

    def test_matches_scipy(self, rng):
        a = rng.normal(0, 1, 800)
        b = rng.normal(0.3, 1, 900)
        ours = ks_two_sample(a, b)
        reference = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(reference.statistic, abs=1e-12)
        assert ours.pvalue == pytest.approx(reference.pvalue, rel=0.1, abs=1e-4)

    def test_distinguishes_distributions(self, rng):
        a = rng.normal(0, 1, 2_000)
        b = rng.normal(1.0, 1, 2_000)
        assert ks_two_sample(a, b).pvalue < 0.01

    def test_accepts_same_distribution(self, rng):
        a = rng.normal(0, 1, 2_000)
        b = rng.normal(0, 1, 2_000)
        assert not ks_two_sample(a, b).pvalue < 0.001

    def test_kolmogorov_sf_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-12)
        # Known value: P(K > 1.36) ~ 0.049 (the 5% critical point).
        assert kolmogorov_sf(1.36) == pytest.approx(0.049, abs=0.002)

    def test_rejects_empty(self):
        with pytest.raises(ReproError):
            ks_two_sample(np.array([]), np.array([1.0]))


class TestSmoothing:
    def test_sliding_mean_constant(self):
        out = sliding_mean(np.full(10, 4.0), window=3)
        assert np.allclose(out, 4.0)

    def test_sliding_mean_known(self):
        out = sliding_mean(np.array([1.0, 2.0, 3.0, 4.0]), window=2)
        assert np.allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_window_longer_than_series(self):
        out = sliding_mean(np.array([2.0, 4.0]), window=10)
        assert np.allclose(out, [2.0, 3.0])

    def test_empty_series(self):
        assert sliding_mean(np.array([]), window=3).size == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ReproError):
            sliding_mean(np.array([1.0]), window=0)


class TestSlidingWindowSample:
    def test_keeps_most_recent(self):
        window = SlidingWindowSample(capacity=3)
        window.offer_many(np.arange(10))
        assert list(window.sample()) == [7.0, 8.0, 9.0]
        assert window.seen == 10
        assert window.full

    def test_not_full_initially(self):
        window = SlidingWindowSample(capacity=5)
        window.offer_many([1.0])
        assert not window.full
        assert len(window) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 9),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("offer"), st.floats(allow_nan=False)),
                # Batch lengths around every capacity boundary: empty, one,
                # below, equal, just above, and many times the capacity.
                st.tuples(st.just("offer_many"), st.integers(0, 40)),
                st.tuples(st.just("offer_2d"), st.integers(1, 6)),
            ),
            max_size=30,
        ),
    )
    def test_ring_matches_deque_reference(self, capacity, steps):
        """The numpy ring behaves exactly like ``deque(maxlen=capacity)``
        fed one value at a time, after every operation."""
        window = SlidingWindowSample(capacity)
        reference: deque[float] = deque(maxlen=capacity)
        seen = 0
        next_value = 0.0
        for op, arg in steps:
            if op == "offer":
                window.offer_many([arg])
                reference.append(float(arg))
                seen += 1
            else:
                shape = (arg,) if op == "offer_many" else (arg, 3)
                count = int(np.prod(shape))
                batch = next_value + np.arange(count, dtype=float)
                next_value += count
                window.offer_many(batch.reshape(shape))
                reference.extend(batch.tolist())
                seen += count
            sample = window.sample()
            assert sample.dtype == np.float64
            assert sample.tolist() == list(reference)
            assert len(window) == len(reference)
            assert window.seen == seen
            assert window.full == (len(reference) == capacity)

    def test_sample_is_a_copy(self):
        window = SlidingWindowSample(capacity=4)
        window.offer_many(np.arange(3.0))
        window.sample()[:] = -1.0
        assert list(window.sample()) == [0.0, 1.0, 2.0]
        window.offer_many(np.arange(3.0, 9.0))
        window.sample()[:] = -1.0
        assert list(window.sample()) == [5.0, 6.0, 7.0, 8.0]


class TestSummary:
    def test_known_values(self):
        summary = summarize(np.arange(101, dtype=float))
        assert summary.count == 101
        assert summary.mean == 50.0
        assert summary.median == 50.0
        assert summary.minimum == 0.0
        assert summary.maximum == 100.0
        assert summary.p95 == pytest.approx(95.0)

    def test_ignores_non_finite(self):
        summary = summarize(np.array([1.0, np.nan, 2.0, np.inf]))
        assert summary.count == 2

    def test_format_contains_fields(self):
        text = summarize(np.array([1.0, 2.0])).format(unit="ms")
        assert "mean=" in text and "ms" in text

    def test_rejects_empty(self):
        with pytest.raises(ReproError):
            summarize(np.array([np.nan]))
