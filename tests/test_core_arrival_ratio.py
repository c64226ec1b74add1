"""Tests for the arrival-ratio model (Eq. 1)."""

import numpy as np
import pytest

from repro import ExponentialDelay, LogNormalDelay, UniformDelay
from repro.core import InOrderCurve
from repro.errors import ModelError
from tests.delay_support import DiscreteDelay


class TestExpectedInOrder:
    """Eq. 1, ``X(alpha) = sum F(i*dt)``, read through its inverse: the
    curve answers how many arrivals bring ``x`` in-order points."""

    def test_zero_arrivals(self):
        assert InOrderCurve(ExponentialDelay(10.0), 50.0).arrivals_for_in_order(0) == 0.0

    def test_matches_direct_sum(self):
        dist = LogNormalDelay(4.0, 1.5)
        dt = 50.0
        direct = float(
            np.sum(dist.cdf(dt * np.arange(1, 101, dtype=float)))
        )
        assert InOrderCurve(dist, dt).arrivals_for_in_order(direct) == pytest.approx(100)

    def test_monotone_in_alpha(self):
        curve = InOrderCurve(ExponentialDelay(100.0), 10.0)
        values = [curve.arrivals_for_in_order(x) for x in (1, 10, 100, 1000)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_tiny_delays_make_everything_in_order(self):
        # Delays far below dt: every arrival is in order.
        curve = InOrderCurve(DiscreteDelay([0.0], [1.0]), 50.0)
        assert curve.arrivals_for_in_order(100) == pytest.approx(100.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            InOrderCurve(ExponentialDelay(1.0), 0.0)
        with pytest.raises(ModelError):
            InOrderCurve(ExponentialDelay(1.0), 1.0).arrivals_for_in_order(-1)


class TestG:
    def test_zero_for_ordered_workload(self):
        assert InOrderCurve(DiscreteDelay([0.0], [1.0]), 50.0).g(100) == 0.0

    def test_positive_under_disorder(self):
        g = InOrderCurve(LogNormalDelay(5.0, 2.0), 50.0).g(256)
        assert g > 1.0

    def test_grows_with_delay_scale(self):
        mild = InOrderCurve(LogNormalDelay(4.0, 1.5), 50.0).g(256)
        severe = InOrderCurve(LogNormalDelay(5.0, 2.0), 50.0).g(256)
        assert severe > mild

    def test_shrinks_with_dt(self):
        dist = LogNormalDelay(5.0, 2.0)
        dense = InOrderCurve(dist, 10.0).g(256)
        sparse = InOrderCurve(dist, 100.0).g(256)
        assert dense > sparse

    def test_inversion_consistency(self):
        # alpha arrivals should produce the in-order count that inverts
        # back to (approximately) alpha.
        dist = LogNormalDelay(4.0, 1.5)
        curve = InOrderCurve(dist, 50.0)
        in_order = float(np.sum(dist.cdf(50.0 * np.arange(1, 501, dtype=float))))
        assert curve.arrivals_for_in_order(in_order) == pytest.approx(500, abs=1.01)

    def test_a_round_inverted_at_once_equals_one_at_a_time(self):
        """The tuner inverts Eq. 1 for a whole sweep round in one table
        search; ``alpha`` is the bits of the scalar walk that read the
        table entry by entry."""
        dist = LogNormalDelay(5.0, 2.0)
        targets = [1, 23, 45.5, 256, 511, 0, 511, 300_000]
        batch = InOrderCurve(dist, 50.0).arrivals_batch(targets)
        single = InOrderCurve(dist, 50.0)
        assert batch.tolist() == [single.arrivals_for_in_order(t) for t in targets]
        table = np.cumsum(dist.cdf(50.0 * np.arange(1, 131_073)))  # the first chunk
        for target, alpha in zip(targets[:5], batch.tolist()):
            idx = int(np.searchsorted(table, target, side="left"))
            lower = table[idx - 1] if idx else 0.0
            assert alpha == idx + float((target - lower) / (table[idx] - lower))
        with pytest.raises(ModelError):
            single.arrivals_batch([4, float("nan")])
        with pytest.raises(ModelError):
            single.arrivals_batch([4, -1])

    def test_table_bits_do_not_depend_on_how_lazily_it_grew(self):
        """An inversion starts the table at 4096 entries and doubles.
        Its first 131 072 entries are one running sum however many
        steps computed them; past them every doubling adds its own sum
        to the last entry.  Here 511 in-order points take ~200 000
        arrivals, so both kinds of step are read."""
        dist, dt = LogNormalDelay(5.0, 2.0), 5e-6
        probs = dist.cdf(dt * np.arange(1, 262_145))
        head = np.cumsum(probs[:131_072])
        table = np.concatenate((head, head[-1] + np.cumsum(probs[131_072:])))
        curve = InOrderCurve(dist, dt)
        for target in (1, 64, 300, 511):  # 4096, ..., 131 072, 262 144 entries
            idx = int(np.searchsorted(table, target, side="left"))
            expected = idx + float((target - table[idx - 1]) / (table[idx] - table[idx - 1]))
            assert curve.arrivals_for_in_order(target) == expected
        assert idx > 131_072
        assert np.array_equal(curve._cumulative, table)

    def test_matches_monte_carlo(self):
        """g(n_seq) tracks a direct simulation of the defining process."""
        dist = LogNormalDelay(4.0, 1.5)
        dt = 50.0
        n_seq = 64
        rng = np.random.default_rng(17)
        trials = []
        for _ in range(200):
            in_order = 0
            out_of_order = 0
            i = 0
            while in_order < n_seq:
                i += 1
                # Arrival i is in-order iff its implied delay < i*dt.
                if rng.random() < float(dist.cdf(i * dt)):
                    in_order += 1
                else:
                    out_of_order += 1
            trials.append(out_of_order)
        simulated = float(np.mean(trials))
        model = InOrderCurve(dist, dt).g(n_seq)
        assert model == pytest.approx(simulated, rel=0.15)

    def test_constant_delay_threshold(self):
        # Constant delay of 3.5*dt: the first 3 arrivals after a flush
        # are out-of-order, the rest in order.
        curve = InOrderCurve(DiscreteDelay([175.0], [1.0]), 50.0)
        assert curve.arrivals_for_in_order(1) == 4.0
        assert curve.arrivals_for_in_order(7) == pytest.approx(10.0)
        assert curve.g(7) == pytest.approx(3.0)

    def test_bounded_uniform(self):
        # Uniform delays below dt never cause disorder.
        assert InOrderCurve(UniformDelay(0.0, 40.0), 50.0).g(128) == 0.0
