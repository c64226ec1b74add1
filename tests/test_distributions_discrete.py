"""Tests for discrete delay distributions."""

import numpy as np
import pytest

from repro import DistributionError, zeta
from tests.delay_support import DiscreteDelay, periodic_batch_delay


class TestDiscreteDelay:
    def test_cdf_steps(self):
        dist = DiscreteDelay([0.0, 10.0, 20.0], [0.5, 0.3, 0.2])
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(0.0) == pytest.approx(0.5)
        assert dist.cdf(9.99) == pytest.approx(0.5)
        assert dist.cdf(10.0) == pytest.approx(0.8)
        assert dist.cdf(100.0) == 1.0

    def test_quantile_picks_atoms(self):
        dist = DiscreteDelay([0.0, 10.0, 20.0], [0.5, 0.3, 0.2])
        assert dist.quantile(0.4) == 0.0
        assert dist.quantile(0.7) == 10.0
        assert dist.quantile(0.99) == 20.0

    def test_values_sorted_and_normalised(self):
        dist = DiscreteDelay([20.0, 0.0], [2.0, 6.0])
        assert repr(dist) == "DiscreteDelay(values=[0.0, 20.0], weights=[0.75, 0.25])"

    def test_moments(self):
        dist = DiscreteDelay([0.0, 10.0], [0.5, 0.5])
        assert dist.mean() == pytest.approx(5.0)
        assert dist.variance() == pytest.approx(25.0)

    def test_sampling_matches_weights(self, rng):
        dist = DiscreteDelay([1.0, 2.0], [0.8, 0.2])
        draws = dist.sample(20_000, rng)
        assert np.mean(draws == 1.0) == pytest.approx(0.8, abs=0.02)

    def test_support_upper(self):
        assert DiscreteDelay([3.0, 7.0], [1, 1]).support_upper() == 7.0

    @pytest.mark.parametrize(
        "values,weights",
        [([], []), ([1.0], [1.0, 2.0]), ([-1.0], [1.0]), ([1.0], [0.0])],
    )
    def test_rejects_bad_construction(self, values, weights):
        with pytest.raises(DistributionError):
            DiscreteDelay(values, weights)


class TestPeriodicBatchDelay:
    def test_structure(self):
        dist = periodic_batch_delay(period=50_000.0, batch_weight=0.1, ticks=3)
        atoms = [0.0, 50_000.0, 100_000.0, 150_000.0]
        assert dist.name == "discrete(4 atoms)"
        assert [dist.quantile(p) for p in (0.0, 0.95, 0.98, 1.0)] == atoms
        masses = np.diff(dist.cdf(np.asarray([-1.0, *atoms])))
        assert masses[0] == pytest.approx(0.9)
        # Tick probabilities decay geometrically.
        assert masses[1] > masses[2] > masses[3]

    def test_zeta_consumes_atoms(self):
        # The WA models must work on a purely atomic law: delays of
        # exactly 0 or one 50-tick period, dt=1000 (the H shape).
        dist = periodic_batch_delay(
            period=50_000.0, batch_weight=0.05, ticks=2
        )
        value = zeta(dist, 1000.0, 128)
        assert np.isfinite(value)
        assert value >= 0.0
        # Atoms 50 intervals deep make *some* points subsequent.
        assert value > 0.0

    def test_no_batches_means_no_disorder(self):
        dist = periodic_batch_delay(period=50_000.0, batch_weight=0.0)
        # All mass at delay 0 -> arrival order is generation order, so
        # no data point is ever subsequent to the buffered minimum.
        assert zeta(dist, 1000.0, 128) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0.0, "batch_weight": 0.1},
            {"period": 10.0, "batch_weight": 1.0},
            {"period": 10.0, "batch_weight": 0.1, "ticks": 0},
            {"period": 10.0, "batch_weight": 0.1, "tick_decay": 1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(DistributionError):
            periodic_batch_delay(**kwargs)
