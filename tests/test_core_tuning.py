"""Tests for Algorithm 1 (tune_separation_policy) and its fan-out."""

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    InOrderCurve,
    LogNormalDelay,
    ModelConfig,
    UniformDelay,
    ZetaModel,
    tune_separation_policy,
)
from repro.core import CONVENTIONAL, SEPARATION
from repro.core.subsequent import _BLOCK_ROWS
from repro.core.tuning import map_concurrently
from repro.core.wa_conventional import predict_wa_conventional
from repro.core.wa_separation import separation_breakdown
from repro.distributions import EmpiricalDelay
from repro.errors import ModelError
from tests.conformance_support import (
    TUNE_BUDGET,
    TUNE_DT,
    TUNE_FIXTURE_PATH,
    TUNE_SSTABLE,
    tune_profile,
    tune_windows,
)


class TestPolicyDecision:
    def test_severe_disorder_chooses_separation(self):
        decision = tune_separation_policy(
            LogNormalDelay(5.0, 2.0), 50.0, 512, sstable_size=512
        )
        assert decision.policy == SEPARATION
        assert decision.seq_capacity is not None
        assert 1 <= decision.seq_capacity <= 511
        assert decision.r_s_star < decision.r_c
        assert decision.predicted_wa == decision.r_s_star

    def test_ordered_workload_chooses_conventional(self):
        decision = tune_separation_policy(
            UniformDelay(0.0, 20.0), 50.0, 512, sstable_size=512
        )
        assert decision.policy == CONVENTIONAL
        assert decision.seq_capacity is None
        assert decision.r_c == pytest.approx(1.0)
        assert decision.predicted_wa == decision.r_c

    def test_sweep_is_recorded(self):
        decision = tune_separation_policy(LogNormalDelay(5.0, 2.0), 50.0, 128)
        assert decision.sweep_n_seq.size == decision.sweep_r_s.size
        assert decision.sweep_n_seq.size >= 8
        assert np.all(decision.sweep_n_seq >= 1)
        assert np.all(decision.sweep_n_seq <= 127)
        assert decision.r_s_star == pytest.approx(float(decision.sweep_r_s.min()))

    def test_exhaustive_covers_every_capacity(self):
        decision = tune_separation_policy(
            LogNormalDelay(5.0, 2.0), 50.0, 32, exhaustive=True
        )
        assert list(decision.sweep_n_seq) == list(range(1, 32))

    def test_refined_search_close_to_exhaustive(self):
        dist = LogNormalDelay(5.0, 2.0)
        exhaustive = tune_separation_policy(dist, 50.0, 64, exhaustive=True)
        refined = tune_separation_policy(dist, 50.0, 64)
        assert refined.r_s_star == pytest.approx(
            exhaustive.r_s_star, rel=0.02
        )

    def test_describe_mentions_policy(self):
        decision = tune_separation_policy(LogNormalDelay(5.0, 2.0), 50.0, 128)
        assert "pi_" in decision.describe()

    def test_granularity_correction_changes_marginal_calls(self):
        # M3-like workload: raw Eq. 3 under-predicts pi_c and picks it;
        # with the engine's real granularity padding pi_s wins.
        dist = LogNormalDelay(4.0, 2.0)
        raw = tune_separation_policy(dist, 50.0, 512)
        corrected = tune_separation_policy(dist, 50.0, 512, sstable_size=512)
        assert corrected.r_c > raw.r_c

    def test_rejects_tiny_budget(self):
        with pytest.raises(ModelError):
            tune_separation_policy(LogNormalDelay(4, 1.5), 50.0, 1)


class TestHostileInput:
    """Anything that cannot be a tuning problem is a ``ModelError`` at
    the front door, before any CDF is evaluated."""

    class _Untouchable(LogNormalDelay):
        def cdf(self, x):
            raise AssertionError("the CDF was evaluated")

        def log_cdf(self, x):
            raise AssertionError("the log-CDF was evaluated")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": float("nan")},
            {"dt": float("inf")},
            {"dt": -float("inf")},
            {"dt": 0.0},
            {"memory_budget": 512.5},
            {"memory_budget": True},
            {"memory_budget": "512"},
            {"memory_budget": float("nan")},
            {"memory_budget": float("inf")},
            {"memory_budget": None},
            {"coarse_points": 0},
            {"refine_rounds": -1},
            {"refine_rounds": 1.5},
            {"refine_rounds": float("nan")},
            {"refine_rounds": True},
            {"coarse_points": 2.5},
            {"coarse_points": True},
            {"coarse_points": "24"},
            {"sstable_size": float("nan")},
            {"sstable_size": 512.0},
            {"sstable_size": True},
            {"sstable_size": 0},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_tuner_rejects(self, kwargs):
        arguments = {"dt": 50.0, "memory_budget": 512, **kwargs}
        with pytest.raises(ModelError):
            tune_separation_policy(self._Untouchable(4.0, 1.5), **arguments)

    @pytest.mark.parametrize("sstable_size", [float("nan"), 512.5, True, 0])
    def test_r_c_rejects_a_table_size_that_is_no_count(self, sstable_size):
        with pytest.raises(ModelError, match="sstable_size"):
            predict_wa_conventional(
                self._Untouchable(4.0, 1.5), 50.0, 512, sstable_size=sstable_size
            )

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -1.0, 0.0])
    def test_models_reject_a_non_finite_interval(self, dt):
        law = self._Untouchable(4.0, 1.5)
        with pytest.raises(ModelError):
            ZetaModel(law, dt)
        with pytest.raises(ModelError):
            InOrderCurve(law, dt)

    def test_integral_budgets_of_any_numeric_type_are_the_same_problem(self):
        law = LogNormalDelay(4.0, 1.5)
        plain = tune_separation_policy(law, 50.0, 64)
        for budget in (np.int64(64), 64.0, np.float64(64.0)):
            same = tune_separation_policy(law, 50.0, budget)
            assert same.r_c == plain.r_c
            assert same.sweep_n_seq.tolist() == plain.sweep_n_seq.tolist()
            assert same.sweep_r_s.tolist() == plain.sweep_r_s.tolist()


class TestPinnedDecisions:
    """What a fleet retune of the system benchmark decides, bit for bit:
    every ``PolicyDecision`` field for its eight disordered cells' windows
    (``tests/data/tune_golden.json``).  A change meant only to make
    Algorithm 1 cheaper must leave each one as it is."""

    with open(TUNE_FIXTURE_PATH, encoding="utf-8") as _handle:
        GOLDEN = json.load(_handle)

    @pytest.fixture(scope="class")
    def windows(self):
        return tune_windows()

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_every_field_keeps_its_bits(self, windows, key):
        decision = tune_separation_policy(
            windows[key], TUNE_DT, TUNE_BUDGET, sstable_size=TUNE_SSTABLE
        )
        assert tune_profile(decision) == self.GOLDEN[key]


class TestTunerBudget:
    def test_a_tune_computes_each_log_cdf_row_at_most_once(self):
        """Rows computed <= the highest row any candidate reads, plus a
        block: r_c, the coarse grid and every refine round share one
        stream (the parent streamed the prefix again for each)."""
        rng = np.random.default_rng(11)
        law = EmpiricalDelay(rng.lognormal(np.log(1000.0) - 0.5, 2.2, 4096))
        config = ModelConfig()
        decision = tune_separation_policy(law, 1000.0, 512, sstable_size=512)
        assert decision.policy == SEPARATION
        assert decision.sweep_n_seq.size > 24  # refine rounds ran
        models = {
            "zeta_model": ZetaModel(law, 1000.0),
            "in_order_curve": InOrderCurve(law, 1000.0),
        }
        n_arrive = max(
            separation_breakdown(law, 1000.0, 512, int(n_seq), **models).n_arrive
            for n_seq in decision.sweep_n_seq
        )
        highest = round(n_arrive) + config.dense_terms
        assert 0 < decision.rows_computed <= highest + _BLOCK_ROWS


def _pin_cpus(monkeypatch, count):
    """Make the process look as if it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestMapConcurrently:
    """The decide half's fan-out: caller plus ``usable CPUs - 1`` helper
    threads, results in item order, failures raised after every item."""

    @pytest.fixture
    def started(self, monkeypatch):
        """Threads the function under test starts."""
        threads = []

        class Counted(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        return threads

    def test_results_come_back_in_item_order(self, monkeypatch):
        _pin_cpus(monkeypatch, 4)
        items = list(range(40))
        assert map_concurrently(lambda x: x * x, items) == [x * x for x in items]
        assert map_concurrently(lambda x: x, []) == []

    def test_every_usable_cpu_works_at_once(self, monkeypatch, started):
        """Four CPUs, four items that each wait for the other three: only
        the caller and three helpers running together get past."""
        _pin_cpus(monkeypatch, 4)
        barrier = threading.Barrier(4, timeout=30)

        def meet(item):
            barrier.wait()
            return item, threading.get_ident()

        results = map_concurrently(meet, ["a", "b", "c", "d"])
        assert [item for item, _ in results] == ["a", "b", "c", "d"]
        assert len({ident for _, ident in results}) == 4
        assert threading.get_ident() in {ident for _, ident in results}
        assert len(started) == 3

    def test_helpers_are_capped_by_the_items(self, monkeypatch, started):
        _pin_cpus(monkeypatch, 16)
        assert map_concurrently(str, [1, 2, 3]) == ["1", "2", "3"]
        assert len(started) == 2
        assert map_concurrently(str, [7]) == ["7"]
        assert len(started) == 2

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_cpu_runs_the_loop_on_the_caller(self, monkeypatch, started, affinity):
        if affinity:
            _pin_cpus(monkeypatch, 1)
        else:  # a platform without affinity masks
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        idents = map_concurrently(lambda _: threading.get_ident(), range(6))
        assert idents == [threading.get_ident()] * 6
        assert started == []

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_failure_is_raised_after_every_item_ran(self, monkeypatch, cpus):
        _pin_cpus(monkeypatch, cpus)
        ran = []

        def fn(item):
            ran.append(item)
            if item % 3 == 1:
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError, match="^item 1$"):
            map_concurrently(fn, range(9))
        assert sorted(ran) == list(range(9))

    def test_every_item_is_handed_out_once_under_contention(self, monkeypatch):
        """Sixteen threads on whatever cores there are, switching every
        microsecond: an item handed out twice, or lost, shows here."""
        _pin_cpus(monkeypatch, 16)
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = map_concurrently(lambda i: ran.append(i) or -i, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(3000))
        assert results == [-i for i in range(3000)]

    def test_an_interrupt_in_the_caller_stops_the_helpers(self, monkeypatch, started):
        _pin_cpus(monkeypatch, 4)
        caller = threading.get_ident()
        ran = []

        def fn(item):
            ran.append(item)
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            time.sleep(0.01)

        with pytest.raises(KeyboardInterrupt):
            map_concurrently(fn, range(200))
        assert len(ran) < 200
        assert not any(helper.is_alive() for helper in started)
