"""Tests for EmpiricalDelay."""

import numpy as np
import pytest

from repro import DistributionError, EmpiricalDelay, LogNormalDelay


@pytest.fixture()
def lognormal_sample(rng):
    return LogNormalDelay(4.0, 1.0).sample(5_000, rng)


class TestEmpiricalDelay:
    def test_cdf_is_ecdf(self):
        dist = EmpiricalDelay(np.array([1.0, 2.0, 3.0, 4.0]))
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == 0.25
        assert dist.cdf(2.5) == 0.5
        assert dist.cdf(4.0) == 1.0

    def test_tracks_the_source_distribution(self, lognormal_sample):
        dist = EmpiricalDelay(lognormal_sample)
        source = LogNormalDelay(4.0, 1.0)
        grid = np.asarray(source.quantile(np.array([0.1, 0.5, 0.9])))
        assert np.allclose(
            np.asarray(dist.cdf(grid)),
            np.asarray(source.cdf(grid)),
            atol=0.03,
        )

    def test_log_cdf_is_the_log_of_cdf_to_the_bit(self, lognormal_sample):
        """The table of ``log(k / n)`` answers what ``log(cdf(x))`` does,
        scalar or array: ``-inf`` below the smallest sample, ``0.0`` at
        and above the largest, and the same bits in between."""
        dist = EmpiricalDelay(lognormal_sample)
        lo, hi = float(lognormal_sample.min()), float(lognormal_sample.max())
        rows = np.linspace(-1.0, 1.2 * hi, 96 * 512).reshape(512, 96)
        points = np.concatenate((np.sort(lognormal_sample), rows.ravel()))
        for x in (points, rows, rows[:, ::5]):
            with np.errstate(divide="ignore"):
                expected = np.log(dist.cdf(x))
            got = dist.log_cdf(x)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        for x in (0.0, lo, 0.5 * (lo + hi), float(np.median(lognormal_sample)), hi):
            got = dist.log_cdf(x)
            assert type(got) is float
            with np.errstate(divide="ignore"):
                assert got.hex() == float(np.log(dist.cdf(x))).hex()
        assert dist.log_cdf(np.nextafter(lo, -np.inf)) == -np.inf
        assert dist.log_cdf(-3.0) == -np.inf
        assert np.all(dist.log_cdf(np.array([hi, 2.0 * hi, np.inf])) == 0.0)
        assert dist.log_cdf(1e300) == 0.0

    def test_quantile_within_sample_range(self, lognormal_sample):
        dist = EmpiricalDelay(lognormal_sample)
        q = dist.quantile(np.array([0.0, 0.5, 1.0]))
        assert q[0] == lognormal_sample.min()
        assert q[-1] == lognormal_sample.max()

    def test_negative_observations_clipped(self):
        dist = EmpiricalDelay(np.array([-5.0, -1.0, 2.0, 3.0]))
        assert dist.quantile(0.0) == 0.0
        assert dist.support_upper() == 3.0

    def test_nan_observations_dropped(self):
        dist = EmpiricalDelay(np.array([1.0, np.nan, 2.0, np.inf, 3.0]))
        assert dist.name == "empirical(n=3)"
        assert dist.mean() == pytest.approx(2.0)

    def test_sampling_is_bootstrap(self, lognormal_sample, rng):
        dist = EmpiricalDelay(lognormal_sample)
        draw = dist.sample(1_000, rng)
        assert set(np.unique(draw)).issubset(set(lognormal_sample))

    def test_pdf_zero_outside_range(self, lognormal_sample):
        dist = EmpiricalDelay(lognormal_sample)
        assert dist.pdf(lognormal_sample.max() + 1.0) == 0.0

    def test_pdf_integrates_to_one(self, lognormal_sample):
        dist = EmpiricalDelay(lognormal_sample)
        grid = np.linspace(0.0, dist.support_upper(), 100_001)
        mass = float(np.trapezoid(np.asarray(dist.pdf(grid)), grid))
        assert mass == pytest.approx(1.0, abs=0.05)

    def test_moments_match_sample(self, lognormal_sample):
        dist = EmpiricalDelay(lognormal_sample)
        assert dist.mean() == pytest.approx(lognormal_sample.mean())
        assert dist.variance() == pytest.approx(lognormal_sample.var())

    def test_constant_delays_supported(self):
        # A perfectly regular channel produces identical delays; the
        # profile (and everything downstream) must still work.
        dist = EmpiricalDelay(np.full(50, 3.0))
        assert dist.cdf(2.9) == 0.0
        assert dist.cdf(3.0) == 1.0
        assert dist.quantile(0.5) == 3.0
        grid = np.linspace(0.0, 6.0, 1001)
        assert np.all(np.asarray(dist.pdf(grid)) >= 0.0)

    def test_denormal_span_supported(self):
        # Delays identical except denormal-scale noise (a hypothesis
        # stateful run found this crashing np.histogram).
        data = np.full(35, 1.0)
        data[0] = np.nextafter(1.0, 2.0)
        dist = EmpiricalDelay(data)
        assert dist.quantile(0.5) == pytest.approx(1.0)

    def test_constant_delays_feed_the_tuner(self):
        from repro import tune_separation_policy

        dist = EmpiricalDelay(np.full(100, 5.0))
        decision = tune_separation_policy(dist, 50.0, 64)
        assert decision.policy == "conventional"
        assert decision.r_c == pytest.approx(1.0)

    def test_rejects_tiny_samples(self):
        with pytest.raises(DistributionError):
            EmpiricalDelay(np.array([1.0]))
