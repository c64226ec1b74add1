"""Tests for the delay analyzer and drift detection."""

import warnings
from collections import deque

import numpy as np
import pytest

from repro import DelayAnalyzer, KsDriftDetector, LogNormalDelay, TimeSeriesDatabase
from repro.core.analyzer import _STAGE_POINTS
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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("memory_budget", 1),
            ("memory_budget", 512.0),
            ("memory_budget", True),
            ("window", 2.5),
            ("window", True),
            ("window", 0),
            ("sstable_size", 2.5),
            ("sstable_size", False),
        ],
    )
    def test_sizes_must_be_integers(self, name, value):
        settings = {"memory_budget": 256, "window": 64, "sstable_size": 32, name: value}
        with pytest.raises(ModelError, match=f"^{name} must be an integer"):
            DelayAnalyzer(**settings)

    def test_numpy_integer_sizes_are_accepted(self):
        analyzer = DelayAnalyzer(np.int64(256), window=np.int32(64), sstable_size=np.int64(32))
        assert analyzer.window.capacity == 64

    def test_misaligned_observe_rejected(self):
        analyzer = DelayAnalyzer(memory_budget=256)
        with pytest.raises(ModelError):
            analyzer.observe(np.array([1.0]), np.array([1.0, 2.0]))

    # inf - inf is rejected like any non-finite pair; numpy also warns.
    @pytest.mark.filterwarnings("ignore:.* encountered in subtract:RuntimeWarning")
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


class _EagerReference:
    """What the analyzer's statistics are by definition: every batch
    folded on arrival, one point at a time."""

    def __init__(self, window):
        self.window = deque(maxlen=window)
        self.count = 0
        self.min_tg = np.inf
        self.max_tg = -np.inf

    def observe(self, tg, ta):
        for generated, arrived in zip(tg.tolist(), ta.tolist()):
            self.window.append(max(arrived - generated, 0.0))
            self.min_tg = min(self.min_tg, generated)
            self.max_tg = max(self.max_tg, generated)
            self.count += 1


class TestStagedObservations:
    """``observe`` stages small batches and folds them on the first read;
    no reader may be able to tell."""

    WINDOW = 1500
    SIZES = (1, 7, 128, _STAGE_POINTS - 1, _STAGE_POINTS, _STAGE_POINTS + 1, 4096)

    def _stream(self):
        calm = generate_synthetic(
            30_000, dt=50, delay=LogNormalDelay(3.0, 0.5), seed=5
        )
        wild = generate_synthetic(
            30_000, dt=50, delay=LogNormalDelay(6.0, 2.0), seed=6
        )
        shift = calm.tg[-1] + 50.0
        return (
            np.concatenate((calm.tg, wild.tg + shift)),
            np.concatenate((calm.ta, wild.ta + shift)),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_staged_equals_eager(self, seed):
        """Random batch sizes around the stage size, a randomly chosen
        read (or none) after every ``observe``: the staged analyzer, an
        eager twin that is read after every batch, and the by-definition
        reference agree bit for bit at every read."""
        tg, ta = self._stream()
        rng = np.random.default_rng(seed)
        staged = DelayAnalyzer(256, window=self.WINDOW, sstable_size=256)
        eager = DelayAnalyzer(256, window=self.WINDOW, sstable_size=256)
        reference = _EagerReference(self.WINDOW)
        reads = ("none", "window", "observed_points", "estimated_dt",
                 "should_retune", "recommend")
        seen = set()
        pos = 0
        while pos < tg.size:
            size = int(rng.choice(self.SIZES, p=(.2, .2, .3, .075, .075, .075, .075)))
            batch = slice(pos, pos + size)
            pos += size
            for sink in (staged, eager, reference):
                sink.observe(tg[batch], ta[batch])
            # A read folds: the twin never defers more than one batch.
            assert eager.observed_points == reference.count
            read = reads[rng.integers(len(reads))]
            if read in ("should_retune", "recommend") and reference.count < 4:
                read = "observed_points"
            seen.add(read)
            if read == "window":
                assert staged.window.sample().tolist() == list(reference.window)
                assert staged.window.full == (reference.count >= self.WINDOW)
            elif read == "observed_points":
                assert staged.observed_points == reference.count
            elif read == "estimated_dt":
                if reference.count >= 2:
                    span = reference.max_tg - reference.min_tg
                    assert staged.estimated_dt() == span / (reference.count - 1)
            elif read == "should_retune":
                assert staged.should_retune() == eager.should_retune()
            elif read == "recommend":
                ours, theirs = staged.recommend(), eager.recommend()
                assert (ours.policy, ours.seq_capacity, ours.r_c, ours.r_s_star) == (
                    theirs.policy, theirs.seq_capacity, theirs.r_c, theirs.r_s_star
                )
                assert ours.sweep_r_s.tolist() == theirs.sweep_r_s.tolist()
        assert seen == set(reads)
        assert staged.window.sample().tolist() == list(reference.window)
        assert eager.window.sample().tolist() == list(reference.window)
        assert staged.delay_summary() == eager.delay_summary()

    def test_the_stage_owns_its_memory(self):
        """A caller that reuses its arrays after ``observe`` returns
        changes nothing the analyzer recorded."""
        analyzer = DelayAnalyzer(256, window=64)
        tg = np.array([100.0, 150.0, 200.0])
        ta = np.array([101.0, 152.0, 204.0])
        analyzer.observe(tg, ta)
        tg[:] = -1e9
        ta[:] = 1e9
        analyzer.observe(np.array([250.0]), np.array([258.0]))
        assert analyzer.window.sample().tolist() == [1.0, 2.0, 4.0, 8.0]
        assert analyzer.estimated_dt() == 50.0

    @pytest.mark.filterwarnings("ignore:.* encountered in subtract:RuntimeWarning")
    def test_rejected_batch_keeps_earlier_staged_points(self):
        analyzer = DelayAnalyzer(256, window=64)
        analyzer.observe(np.array([0.0, 50.0]), np.array([0.25, 50.5]))
        for tg, ta in (
            ([100.0, np.nan], [100.0, 150.0]),
            ([100.0], [100.0, 150.0]),
            ([-1.7e308], [1.7e308]),
        ):
            with pytest.raises(ModelError):
                analyzer.observe(np.array(tg), np.array(ta))
        analyzer.observe(np.array([100.0]), np.array([101.0]))
        assert analyzer.observed_points == 3
        assert analyzer.window.sample().tolist() == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_overflowing_delay_is_a_typed_error(self, action):
        """Finite timestamps too far apart for a float (and ``inf -
        inf``): ``ModelError`` and nothing recorded, whether numpy's own
        warning about the subtraction is an error or not."""
        analyzer = DelayAnalyzer(256, window=64)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ModelError):
                analyzer.observe(np.array([-1.7e308]), np.array([1.7e308]))
            with pytest.raises(ModelError):
                analyzer.observe(np.array([np.inf]), np.array([np.inf]))
        assert analyzer.observed_points == 0

    def test_database_retune_sees_staged_points(self):
        """``retune(min_observations=N)`` counts points still staged."""
        stream = generate_synthetic(
            4_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=3
        )
        db = TimeSeriesDatabase(memory_budget_per_series=256, sstable_size=256)
        for pos in range(0, 4_000, 100):
            db.write("s", stream.tg[pos : pos + 100], stream.ta[pos : pos + 100])
        assert db.retune(min_observations=4_001) == {}
        assert "s" in db.retune(min_observations=4_000)


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
