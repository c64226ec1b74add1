"""Tests for mixture and shifted delay distributions."""

import numpy as np
import pytest

from repro import (
    DistributionError,
    ExponentialDelay,
    UniformDelay,
)
from tests.delay_support import DiscreteDelay, MixtureDelay, ShiftedDelay


class TestMixtureDelay:
    def test_cdf_is_weighted_sum(self):
        mixture = MixtureDelay(
            [UniformDelay(0, 10), UniformDelay(0, 20)], [0.5, 0.5]
        )
        assert float(mixture.cdf(10.0)) == pytest.approx(0.75)

    def test_weights_normalised(self):
        mixture = MixtureDelay(
            [UniformDelay(0, 10), UniformDelay(0, 20)], [2.0, 2.0]
        )
        assert np.allclose(mixture.weights, [0.5, 0.5])

    def test_mean_is_weighted(self):
        mixture = MixtureDelay(
            [DiscreteDelay([10.0], [1.0]), DiscreteDelay([30.0], [1.0])],
            [0.25, 0.75],
        )
        assert mixture.mean() == pytest.approx(25.0)

    def test_sampling_respects_weights(self, rng):
        mixture = MixtureDelay(
            [DiscreteDelay([1.0], [1.0]), DiscreteDelay([2.0], [1.0])],
            [0.9, 0.1],
        )
        draws = mixture.sample(10_000, rng)
        assert np.mean(draws == 1.0) == pytest.approx(0.9, abs=0.02)

    def test_support_upper_is_max(self):
        mixture = MixtureDelay(
            [UniformDelay(0, 10), UniformDelay(0, 50)], [0.5, 0.5]
        )
        assert mixture.support_upper() == 50.0

    def test_quantile_via_generic_bisection(self):
        mixture = MixtureDelay(
            [UniformDelay(0, 10), UniformDelay(90, 100)], [0.5, 0.5]
        )
        assert float(mixture.quantile(0.25)) == pytest.approx(5.0, abs=0.01)
        assert float(mixture.quantile(0.75)) == pytest.approx(95.0, abs=0.01)

    @pytest.mark.parametrize(
        "components,weights",
        [
            ([], []),
            ([UniformDelay(0, 1)], [0.5, 0.5]),
            ([UniformDelay(0, 1)], [-1.0]),
            ([UniformDelay(0, 1)], [0.0]),
        ],
    )
    def test_rejects_bad_construction(self, components, weights):
        with pytest.raises(DistributionError):
            MixtureDelay(components, weights)


class TestShiftedDelay:
    def test_cdf_translated(self):
        shifted = ShiftedDelay(ExponentialDelay(10.0), offset=5.0)
        assert shifted.cdf(4.9) == 0.0
        base = ExponentialDelay(10.0)
        assert float(shifted.cdf(15.0)) == pytest.approx(float(base.cdf(10.0)))

    def test_mean_and_variance(self):
        base = ExponentialDelay(10.0)
        shifted = ShiftedDelay(base, offset=3.0)
        assert shifted.mean() == pytest.approx(13.0)
        assert shifted.variance() == pytest.approx(base.variance())

    def test_samples_at_least_offset(self, rng):
        shifted = ShiftedDelay(ExponentialDelay(1.0), offset=100.0)
        assert np.all(shifted.sample(100, rng) >= 100.0)

    def test_quantile_translated(self):
        shifted = ShiftedDelay(UniformDelay(0, 10), offset=5.0)
        assert float(shifted.quantile(0.5)) == pytest.approx(10.0)

    def test_rejects_negative_offset(self):
        with pytest.raises(DistributionError):
            ShiftedDelay(ExponentialDelay(1.0), offset=-1.0)
