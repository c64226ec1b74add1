"""Tests for the adaptive and IoTDB-style engines."""

import numpy as np
import pytest

from repro import (
    AdaptiveEngine,
    EngineError,
    IoTDBStyleEngine,
    LogNormalDelay,
    LsmConfig,
    ModelError,
)
from repro.lsm import LsmEngine
from repro.lsm.policies import SeparationFlush, SplitPlacement
from repro.workloads import generate_synthetic


class TestAdaptiveEngine:
    def test_starts_conventional(self):
        engine = AdaptiveEngine(LsmConfig(memory_budget=64, sstable_size=64))
        assert engine.current_policy == "pi_c"

    def test_switches_on_disordered_stream(self):
        dataset = generate_synthetic(
            40_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=11
        )
        engine = AdaptiveEngine(
            LsmConfig(memory_budget=512, sstable_size=512), check_interval=4096
        )
        engine.ingest(dataset.tg, dataset.ta)
        engine.flush_all()
        assert engine.current_policy.startswith("pi_s")
        assert engine.switches
        assert engine.write_amplification >= 1.0

    def test_stays_conventional_on_ordered_stream(self):
        dataset = generate_synthetic(
            30_000, dt=50, delay=LogNormalDelay(1.0, 0.3), seed=11
        )
        engine = AdaptiveEngine(
            LsmConfig(memory_budget=512, sstable_size=512), check_interval=4096
        )
        engine.ingest(dataset.tg, dataset.ta)
        engine.flush_all()
        assert engine.current_policy == "pi_c"
        assert engine.write_amplification == pytest.approx(1.0, abs=0.01)

    def test_no_data_loss_across_switches(self):
        dataset = generate_synthetic(
            30_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=12
        )
        engine = AdaptiveEngine(
            LsmConfig(memory_budget=256, sstable_size=256), check_interval=4096
        )
        engine.ingest(dataset.tg, dataset.ta)
        engine.flush_all()
        snapshot = engine.snapshot()
        assert snapshot.total_points == len(dataset)
        ids = np.concatenate([t.ids for t in snapshot.tables])
        assert np.unique(ids).size == len(dataset)

    def test_decision_log_records_evidence(self):
        dataset = generate_synthetic(
            20_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=13
        )
        engine = AdaptiveEngine(
            LsmConfig(memory_budget=512, sstable_size=512), check_interval=4096
        )
        engine.ingest(dataset.tg, dataset.ta)
        assert engine.decisions
        index, decision, _ = engine.decisions[0]
        assert index > 0
        assert decision.r_c > 0

    def test_config_seq_capacity_is_the_live_split(self):
        """Whatever split the constructor was handed, ``config`` reports
        the one in force: none under ``pi_c``, ``n_seq`` under ``pi_s``."""
        dataset = generate_synthetic(
            8000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=1
        )
        engine = AdaptiveEngine(
            LsmConfig(memory_budget=128, sstable_size=64, seq_capacity=10),
            check_interval=512,
        )
        assert engine.current_policy == "pi_c"
        assert engine.config.seq_capacity is None
        engine.ingest(dataset.tg, dataset.ta)
        assert engine.switches
        n_seq = engine.placement.seq.capacity
        assert engine.config.seq_capacity == n_seq
        assert engine.current_policy == f"pi_s(n_seq={n_seq})"
        assert engine.policy_name == "pi_s"
        assert engine.row.policy_name == "pi_adaptive"
        # It is an engine like any other, so federation can version it.
        assert isinstance(engine, LsmEngine)
        before = engine.read_version()
        engine.ingest(dataset.tg[:1] + 1e9, dataset.ta[:1] + 1e9)
        assert engine.read_version() != before

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_rebind_refuses_an_undrained_kernel(self, scheduled):
        """``rebind`` swaps in fresh MemTables and a fresh landing queue,
        so it must refuse — and touch nothing — while either holds a point."""
        config = LsmConfig(memory_budget=64, sstable_size=32).with_stability(
            compaction_scheduler=scheduled,
            compaction_tokens_per_point=0.01,
            compaction_burst=1,
        )
        engine = AdaptiveEngine(config, check_interval=512)
        tg = np.arange(200, dtype=np.float64)
        engine.ingest(tg, tg)
        before = engine.snapshot()
        assert before.memory_points > 0
        if scheduled:
            assert len(engine.scheduler) > 0
        placement, flush, version = engine.placement, engine.flush, engine.read_version()
        with pytest.raises(EngineError, match="drained"):
            engine.rebind(config.with_seq_capacity(16), SplitPlacement(), SeparationFlush())
        assert engine.placement is placement and engine.flush is flush
        assert engine.config.seq_capacity is None
        assert engine.read_version() == version
        assert engine.snapshot().total_points == 200
        engine.flush_all()
        engine.rebind(config.with_seq_capacity(16), SplitPlacement(), SeparationFlush())
        assert engine.read_version() != version
        engine.ingest(tg + 200.0, tg + 200.0)
        engine.flush_all()
        engine.verify()
        assert engine.snapshot().total_points == 400

    def test_misaligned_inputs_rejected(self):
        engine = AdaptiveEngine(LsmConfig(memory_budget=64, sstable_size=64))
        with pytest.raises(ModelError, match="must align"):
            engine.ingest(np.array([1.0, 2.0]), np.array([1.0]))

    def test_bad_check_interval_rejected(self):
        with pytest.raises(EngineError):
            AdaptiveEngine(check_interval=0)

    @pytest.mark.parametrize("check_interval", [512.0, True, np.float64(512)])
    def test_check_interval_must_be_an_integer(
        self, tmp_path, check_interval
    ):
        wal_path = tmp_path / "a.wal"
        with pytest.raises(EngineError, match="^check_interval must be an integer"):
            AdaptiveEngine(LsmConfig(64, 32, wal_path=str(wal_path)), check_interval=check_interval)
        assert not wal_path.exists()
        engine = AdaptiveEngine(check_interval=np.int64(512))
        assert engine.check_interval == 512


class TestIoTDBStyleEngine:
    def test_flushes_land_in_l1(self):
        engine = IoTDBStyleEngine(
            LsmConfig(memory_budget=8, sstable_size=8),
            policy="conventional",
            l1_file_limit=100,
        )
        engine.ingest(np.arange(24, dtype=np.float64))
        assert len(engine.compaction.l1_files) == 3
        assert engine.compaction.l2.empty

    def test_background_compaction_moves_l1_to_l2(self):
        engine = IoTDBStyleEngine(
            LsmConfig(memory_budget=8, sstable_size=8),
            policy="conventional",
            l1_file_limit=2,
        )
        engine.ingest(np.arange(16, dtype=np.float64))
        assert len(engine.compaction.l1_files) == 0
        assert engine.compaction.l2.total_points == 16
        engine.verify()

    def test_l1_files_may_overlap_under_conventional(self):
        engine = IoTDBStyleEngine(
            LsmConfig(memory_budget=4, sstable_size=4),
            policy="conventional",
            l1_file_limit=100,
        )
        # Interleave old/new so consecutive flushes overlap in range.
        engine.ingest(np.array([0.0, 100.0, 1.0, 101.0, 2.0, 102.0, 3.0, 103.0]))
        (a, b) = engine.compaction.l1_files
        assert a.overlaps(b.min_tg, b.max_tg)

    def test_separation_splits_memtables(self):
        engine = IoTDBStyleEngine(
            LsmConfig(memory_budget=8, seq_capacity=4),
            policy="separation",
            l1_file_limit=100,
        )
        engine.ingest(np.array([10.0, 20.0, 30.0, 40.0]))  # seq flush
        engine.ingest(np.array([5.0, 50.0]))
        snapshot = engine.snapshot()
        names = {view.name: len(view) for view in snapshot.memtables}
        assert names == {"C_seq": 1, "C_nonseq": 1}

    def test_throughput_positive_and_policy_insensitive(self):
        dataset = generate_synthetic(
            20_000, dt=50, delay=LogNormalDelay(4.0, 1.5), seed=1
        )
        results = {}
        for policy in ("conventional", "separation"):
            engine = IoTDBStyleEngine(
                LsmConfig(memory_budget=512, seq_capacity=256), policy=policy
            )
            engine.ingest(dataset.tg)
            engine.flush_all()
            results[policy] = engine.compaction.throughput_points_per_ms
        assert results["conventional"] > 0
        ratio = results["separation"] / results["conventional"]
        assert 0.9 < ratio < 1.1

    def test_background_time_tracked(self):
        engine = IoTDBStyleEngine(
            LsmConfig(memory_budget=8, sstable_size=8),
            policy="conventional",
            l1_file_limit=2,
        )
        engine.ingest(np.arange(64, dtype=np.float64))
        assert engine.compaction.background_ms > 0

    def test_no_data_loss(self):
        rng = np.random.default_rng(9)
        tg = rng.permutation(500).astype(np.float64)
        engine = IoTDBStyleEngine(
            LsmConfig(memory_budget=16, sstable_size=16),
            policy="separation",
            l1_file_limit=4,
        )
        engine.ingest(tg)
        engine.flush_all()
        assert engine.snapshot().total_points == 500

    def test_rejects_unknown_policy(self):
        with pytest.raises(EngineError):
            IoTDBStyleEngine(policy="tiered")

    def test_throughput_nan_before_writes(self):
        engine = IoTDBStyleEngine()
        assert np.isnan(engine.compaction.throughput_points_per_ms)
