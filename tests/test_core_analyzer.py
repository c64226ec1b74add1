"""Tests for the delay analyzer and drift detection."""

import numpy as np
import pytest

from repro import DelayAnalyzer, KsDriftDetector, LogNormalDelay
from repro.errors import ModelError
from repro.workloads import generate_synthetic


def _feed(analyzer, dataset, count=None):
    data = dataset if count is None else dataset.head(count)
    analyzer.observe(data.tg, data.ta)


class TestDelayAnalyzer:
    def test_dt_estimation(self):
        dataset = generate_synthetic(
            5_000, dt=50, delay=LogNormalDelay(4.0, 1.0), seed=1
        )
        analyzer = DelayAnalyzer(memory_budget=512)
        _feed(analyzer, dataset)
        assert analyzer.estimated_dt() == pytest.approx(50.0, rel=0.01)

    def test_fixed_dt_wins(self):
        dataset = generate_synthetic(
            1_000, dt=50, delay=LogNormalDelay(4.0, 1.0), seed=1
        )
        analyzer = DelayAnalyzer(memory_budget=512, dt=10.0)
        _feed(analyzer, dataset)
        assert analyzer.estimated_dt() == 10.0

    def test_profile_empirical_by_default(self):
        dataset = generate_synthetic(
            5_000, dt=50, delay=LogNormalDelay(4.0, 1.0), seed=1
        )
        analyzer = DelayAnalyzer(memory_budget=512)
        _feed(analyzer, dataset)
        profile = analyzer.profile()
        assert profile.family == "empirical"
        assert profile.sample_count > 0
        assert "empirical" in profile.describe()

    def test_profile_parametric_mode_recovers_family(self):
        dataset = generate_synthetic(
            8_000, dt=50, delay=LogNormalDelay(4.0, 1.5), seed=2
        )
        analyzer = DelayAnalyzer(memory_budget=512, use_empirical=False)
        _feed(analyzer, dataset)
        assert analyzer.profile().family == "lognormal"

    def test_recommend_sets_drift_reference(self):
        dataset = generate_synthetic(
            8_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=3
        )
        analyzer = DelayAnalyzer(memory_budget=256, sstable_size=256)
        _feed(analyzer, dataset)
        decision = analyzer.recommend()
        assert analyzer.last_decision is decision
        assert analyzer.drift.has_reference
        assert not analyzer.should_retune()

    def test_should_retune_initially_after_window_fills(self):
        dataset = generate_synthetic(
            8_000, dt=50, delay=LogNormalDelay(4.0, 1.0), seed=4
        )
        analyzer = DelayAnalyzer(memory_budget=256, window=1024)
        assert not analyzer.should_retune()  # window empty
        _feed(analyzer, dataset)
        assert analyzer.should_retune()  # full window, no decision yet

    def test_drift_triggers_retune(self):
        calm = generate_synthetic(
            6_000, dt=50, delay=LogNormalDelay(3.0, 0.5), seed=5
        )
        wild = generate_synthetic(
            6_000, dt=50, delay=LogNormalDelay(6.0, 2.0), seed=6
        )
        analyzer = DelayAnalyzer(memory_budget=256, window=2048)
        _feed(analyzer, calm)
        analyzer.recommend()
        assert not analyzer.should_retune()
        _feed(analyzer, wild)
        assert analyzer.should_retune()

    def test_delay_summary(self):
        dataset = generate_synthetic(
            2_000, dt=50, delay=LogNormalDelay(4.0, 1.0), seed=7
        )
        analyzer = DelayAnalyzer(memory_budget=256)
        _feed(analyzer, dataset)
        assert analyzer.delay_summary().count > 0

    def test_errors_on_empty_state(self):
        analyzer = DelayAnalyzer(memory_budget=256)
        with pytest.raises(ModelError):
            analyzer.estimated_dt()
        with pytest.raises(ModelError):
            analyzer.profile()

    def test_misaligned_observe_rejected(self):
        analyzer = DelayAnalyzer(memory_budget=256)
        with pytest.raises(ModelError):
            analyzer.observe(np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "tg, ta",
        [
            ([1.0, 2.0, 3.0], [1.5, np.nan, 3.5]),
            ([1.0, 2.0, 3.0], [1.5, np.inf, 3.5]),
            ([1.0, np.nan, 3.0], [1.5, 2.5, 3.5]),
            ([1.0, np.inf, 3.0], [1.5, np.inf, 3.5]),
        ],
    )
    def test_non_finite_observe_rejected_without_trace(self, tg, ta):
        analyzer = DelayAnalyzer(memory_budget=256)
        analyzer.observe(np.array([0.0]), np.array([0.25]))
        with pytest.raises(ModelError):
            analyzer.observe(np.array(tg), np.array(ta))
        assert analyzer.observed_points == 1
        assert analyzer.window.sample().tolist() == [0.25]

    def test_chunking_does_not_change_decisions(self):
        """The same stream observed point by point, in odd chunks, in
        window-sized chunks or whole yields the same window, the same
        ``should_retune`` sequence and the same ``recommend`` decision."""
        calm = generate_synthetic(
            6_000, dt=50, delay=LogNormalDelay(3.0, 0.5), seed=5
        )
        wild = generate_synthetic(
            6_000, dt=50, delay=LogNormalDelay(6.0, 2.0), seed=6
        )
        tg = np.concatenate((calm.tg, wild.tg + calm.tg[-1] + 50.0))
        ta = np.concatenate((calm.ta, wild.ta + calm.tg[-1] + 50.0))
        checkpoints = (500, 3_000, 6_000, 7_000, 12_000)

        def drive(chunk):
            analyzer = DelayAnalyzer(
                memory_budget=256, window=1024, sstable_size=256
            )
            trace = []
            start = 0
            for stop in checkpoints:
                for lo in range(start, stop, chunk):
                    hi = min(lo + chunk, stop)
                    analyzer.observe(tg[lo:hi], ta[lo:hi])
                start = stop
                trace.append(analyzer.should_retune())
                if stop == 6_000:
                    decision = analyzer.recommend()
                    trace.append(
                        (
                            decision.policy,
                            decision.seq_capacity,
                            decision.r_c,
                            decision.r_s_star,
                            decision.sweep_n_seq.tolist(),
                            decision.sweep_r_s.tolist(),
                        )
                    )
                    trace.append(analyzer.should_retune())
            trace.append(analyzer.estimated_dt())
            trace.append(analyzer.observed_points)
            trace.append(analyzer.window.sample().tolist())
            return trace

        whole = drive(len(tg))
        # Window not yet full, full without a decision, fresh decision,
        # and the wild tail drifting away from it.
        retunes = [x for x in whole if isinstance(x, bool)]
        assert retunes[:4] == [False, True, True, False]
        assert retunes[-1] is True
        for chunk in (1, 7, 4096):
            assert drive(chunk) == whole


class TestKsDriftDetector:
    def test_no_reference_never_drifts(self, rng):
        detector = KsDriftDetector()
        assert not detector.drifted(rng.normal(0, 1, 5_000))

    def test_same_distribution_no_drift(self, rng):
        detector = KsDriftDetector()
        detector.set_reference(rng.exponential(10, 4_000))
        assert not detector.drifted(rng.exponential(10, 4_000))

    def test_shifted_distribution_drifts(self, rng):
        detector = KsDriftDetector()
        detector.set_reference(rng.exponential(10, 4_000))
        assert detector.drifted(rng.exponential(40, 4_000))

    def test_small_window_withheld(self, rng):
        detector = KsDriftDetector(min_samples=1000)
        detector.set_reference(rng.exponential(10, 4_000))
        assert not detector.drifted(rng.exponential(40, 100))

    def test_statistic_floor_suppresses_tiny_shifts(self, rng):
        detector = KsDriftDetector(statistic_floor=0.5)
        detector.set_reference(rng.normal(0, 1, 50_000))
        # Statistically significant but practically tiny shift.
        assert not detector.drifted(rng.normal(0.05, 1, 50_000))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            KsDriftDetector(alpha=1.5)
        with pytest.raises(ModelError):
            KsDriftDetector(min_samples=1)
        detector = KsDriftDetector()
        with pytest.raises(ModelError):
            detector.set_reference(np.array([1.0]))
