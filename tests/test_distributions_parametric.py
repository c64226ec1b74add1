"""Tests for the parametric delay distributions, and the contract every
continuous law the models consume is held to."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro import (
    DistributionError,
    ExponentialDelay,
    GammaDelay,
    HalfNormalDelay,
    LogNormalDelay,
    UniformDelay,
)
from tests.delay_support import DiscreteDelay, MixtureDelay, ParetoDelay, ShiftedDelay, periodic_batch_delay

ALL_DISTRIBUTIONS = [
    LogNormalDelay(mu=4.0, sigma=1.5),
    LogNormalDelay(mu=5.0, sigma=2.0),
    ExponentialDelay(mean=120.0),
    UniformDelay(low=0.0, high=200.0),
    HalfNormalDelay(sigma=80.0),
    GammaDelay(shape=2.0, scale=50.0),
    ParetoDelay(alpha=2.5, scale=60.0),
    # The fidelity gate's bimodal outage law and constant-plus-jitter law.
    MixtureDelay(
        [LogNormalDelay(mu=4.0, sigma=1.0), UniformDelay(low=5000.0, high=5500.0)],
        [0.95, 0.05],
    ),
    ShiftedDelay(ExponentialDelay(mean=100.0), offset=500.0),
]

IDS = [d.name for d in ALL_DISTRIBUTIONS]


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
class TestCommonContract:
    def test_cdf_zero_below_support(self, dist):
        assert dist.cdf(-1.0) == 0.0
        assert float(np.asarray(dist.cdf(np.array([-5.0, -0.001])))[0]) == 0.0

    def test_cdf_monotone_and_bounded(self, dist):
        grid = np.linspace(0.0, 5000.0, 400)
        values = np.asarray(dist.cdf(grid))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= -1e-12)

    def test_cdf_reaches_one(self, dist):
        assert float(dist.cdf(dist.quantile(1.0 - 1e-9))) > 1.0 - 1e-6

    def test_pdf_nonnegative(self, dist):
        grid = np.linspace(-10.0, 5000.0, 300)
        assert np.all(np.asarray(dist.pdf(grid)) >= 0.0)

    def test_pdf_integrates_cdf_increment(self, dist):
        # Integrate the density on a log-spaced grid (heavy tails make a
        # linear grid hopeless) and compare with the CDF increment.
        lo = max(float(dist.quantile(1e-6)), 1e-9)
        hi = float(dist.quantile(1.0 - 1e-6))
        grid = np.geomspace(lo, hi, 200_001)
        mass = float(np.trapezoid(np.asarray(dist.pdf(grid)), grid))
        expected = float(dist.cdf(hi)) - float(dist.cdf(lo))
        assert mass == pytest.approx(expected, abs=0.02)

    def test_quantile_inverts_cdf(self, dist):
        levels = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
        points = np.asarray(dist.quantile(levels))
        assert np.allclose(np.asarray(dist.cdf(points)), levels, atol=1e-6)

    def test_quantile_rejects_bad_levels(self, dist):
        with pytest.raises(DistributionError):
            dist.quantile(1.5)

    def test_samples_nonnegative_and_match_cdf(self, dist):
        rng = np.random.default_rng(3)
        samples = dist.sample(20_000, rng)
        assert np.all(samples >= 0.0)
        # One-sample KS against the distribution's own CDF.
        result = scipy_stats.kstest(samples, lambda x: np.asarray(dist.cdf(x)))
        assert result.pvalue > 1e-4

    def test_sample_mean_matches_mean(self, dist):
        rng = np.random.default_rng(4)
        samples = dist.sample(200_000, rng)
        mean = dist.mean()
        if np.isfinite(mean):
            assert samples.mean() == pytest.approx(mean, rel=0.1)

    def test_log_cdf_matches_log_of_cdf(self, dist):
        grid = np.asarray(dist.quantile(np.array([0.1, 0.5, 0.9])))
        log_values = np.asarray(dist.log_cdf(grid))
        assert np.allclose(log_values, np.log(np.asarray(dist.cdf(grid))), atol=1e-9)

    def test_scalar_calls_return_floats(self, dist):
        assert isinstance(dist.cdf(10.0), float)
        assert isinstance(dist.pdf(10.0), float)
        assert isinstance(dist.quantile(0.5), float)


class TestLogNormal:
    def test_matches_scipy(self):
        dist = LogNormalDelay(mu=5.0, sigma=2.0)
        ref = scipy_stats.lognorm(s=2.0, scale=np.exp(5.0))
        grid = np.array([1.0, 50.0, 148.4, 1000.0, 1e5])
        assert np.allclose(dist.cdf(grid), ref.cdf(grid), atol=1e-12)
        assert np.allclose(dist.pdf(grid), ref.pdf(grid), atol=1e-12)

    def test_closed_form_moments(self):
        dist = LogNormalDelay(mu=1.0, sigma=0.5)
        assert dist.mean() == pytest.approx(np.exp(1.125))
        assert dist.variance() == pytest.approx(
            (np.exp(0.25) - 1.0) * np.exp(2.25)
        )

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DistributionError):
            LogNormalDelay(mu=1.0, sigma=0.0)


class TestExponential:
    def test_median(self):
        dist = ExponentialDelay(mean=100.0)
        assert dist.quantile(0.5) == pytest.approx(100.0 * np.log(2.0))

    def test_memoryless_cdf_value(self):
        dist = ExponentialDelay(mean=50.0)
        assert float(dist.cdf(50.0)) == pytest.approx(1.0 - np.exp(-1.0))

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(DistributionError):
            ExponentialDelay(mean=-1.0)


class TestUniform:
    def test_support_and_density(self):
        dist = UniformDelay(low=10.0, high=30.0)
        assert dist.pdf(20.0) == pytest.approx(0.05)
        assert dist.pdf(5.0) == 0.0
        assert dist.pdf(31.0) == 0.0
        assert dist.support_upper() == 30.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(DistributionError):
            UniformDelay(low=5.0, high=5.0)


class TestPareto:
    def test_infinite_mean_when_alpha_below_one(self):
        assert ParetoDelay(alpha=0.9, scale=10.0).mean() == np.inf

    def test_survival_form(self):
        dist = ParetoDelay(alpha=2.0, scale=10.0)
        assert 1.0 - float(dist.cdf(10.0)) == pytest.approx(0.25)


class TestConstant:
    """The constant law is a one-atom :class:`DiscreteDelay`; the
    model-identity tests use it as such."""

    def test_step_cdf(self):
        dist = DiscreteDelay([5.0], [1.0])
        assert dist.cdf(4.999) == 0.0
        assert dist.cdf(5.0) == 1.0

    def test_samples_are_constant(self, rng):
        dist = DiscreteDelay([7.0], [1.0])
        assert np.all(dist.sample(10, rng) == 7.0)

    def test_moments(self):
        dist = DiscreteDelay([3.0], [1.0])
        assert dist.mean() == 3.0
        assert dist.variance() == 0.0

    def test_quantile(self):
        dist = DiscreteDelay([2.0], [1.0])
        assert dist.quantile(0.3) == 2.0
        assert dist.quantile(0.0) == 2.0

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            DiscreteDelay([-1.0], [1.0])


#: One builder per numeric constructor parameter of every kept law.
NON_FINITE_BUILDERS = {
    "lognormal-mu": lambda x: LogNormalDelay(mu=x, sigma=1.0),
    "lognormal-sigma": lambda x: LogNormalDelay(mu=4.0, sigma=x),
    "exponential-mean": lambda x: ExponentialDelay(mean=x),
    "uniform-low": lambda x: UniformDelay(low=x, high=10.0),
    "uniform-high": lambda x: UniformDelay(low=0.0, high=x),
    "halfnormal-sigma": lambda x: HalfNormalDelay(sigma=x),
    "gamma-shape": lambda x: GammaDelay(shape=x, scale=1.0),
    "gamma-scale": lambda x: GammaDelay(shape=1.0, scale=x),
    "pareto-alpha": lambda x: ParetoDelay(alpha=x, scale=1.0),
    "pareto-scale": lambda x: ParetoDelay(alpha=2.0, scale=x),
    "discrete-values": lambda x: DiscreteDelay([1.0, x], [1.0, 1.0]),
    "discrete-weights": lambda x: DiscreteDelay([1.0, 2.0], [1.0, x]),
    "mixture-weights": lambda x: MixtureDelay(
        [ExponentialDelay(1.0), ExponentialDelay(2.0)], [1.0, x]
    ),
    "shifted-offset": lambda x: ShiftedDelay(ExponentialDelay(1.0), x),
    "periodic-period": lambda x: periodic_batch_delay(x, 0.2),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build", list(NON_FINITE_BUILDERS.values()), ids=list(NON_FINITE_BUILDERS)
)
def test_non_finite_parameters_are_rejected(build, value):
    with pytest.raises(DistributionError, match="must be finite"):
        build(value)
