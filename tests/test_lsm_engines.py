"""Behavioural tests for the conventional and separation engines."""

import numpy as np
import pytest

from repro import (
    ConventionalEngine,
    EngineError,
    LsmConfig,
    SeparationEngine,
)
from repro.errors import EngineClosedError


def _ordered(n, dt=1.0):
    return dt * np.arange(n, dtype=np.float64)


class TestConventionalEngine:
    def test_fully_ordered_input_has_wa_one(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        engine.ingest(_ordered(160))
        engine.flush_all()
        assert engine.write_amplification == pytest.approx(1.0)
        engine.verify()

    def test_every_point_persisted_exactly_once_in_snapshot(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=8, sstable_size=8))
        rng = np.random.default_rng(0)
        tg = rng.permutation(100).astype(np.float64)
        engine.ingest(tg)
        engine.flush_all()
        snapshot = engine.snapshot()
        ids = np.concatenate([t.ids for t in snapshot.tables])
        assert sorted(ids) == list(range(100))

    def test_disorder_causes_rewrites(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=8, sstable_size=8))
        rng = np.random.default_rng(1)
        # Shuffle within blocks of 32 -> guaranteed cross-memtable disorder.
        tg = np.concatenate(
            [rng.permutation(32) + 32 * block for block in range(20)]
        ).astype(np.float64)
        engine.ingest(tg)
        engine.flush_all()
        assert engine.write_amplification > 1.0
        merges = [event for event in engine.stats.events if event.kind == "merge"]
        assert any(event.rewritten_points > 0 for event in merges)

    def test_run_sorted_after_arbitrary_input(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=4, sstable_size=4))
        rng = np.random.default_rng(2)
        engine.ingest(rng.permutation(200).astype(np.float64))
        engine.flush_all()
        engine.verify()
        all_tg = np.concatenate([t.tg for t in engine.compaction.run.tables])
        assert np.all(np.diff(all_tg) > 0)

    def test_incremental_ingest_equals_bulk(self):
        rng = np.random.default_rng(3)
        tg = rng.permutation(500).astype(np.float64)
        bulk = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        bulk.ingest(tg)
        bulk.flush_all()
        chunked = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        for start in range(0, 500, 7):
            chunked.ingest(tg[start : start + 7])
        chunked.flush_all()
        assert bulk.write_amplification == chunked.write_amplification
        assert bulk.stats.disk_writes == chunked.stats.disk_writes

    def test_memtable_visible_in_snapshot(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        engine.ingest(_ordered(10))
        snapshot = engine.snapshot()
        assert snapshot.memory_points == 10
        assert snapshot.disk_points == 0
        assert snapshot.max_tg == 9.0

    def test_close_flushes_and_blocks_ingest(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        engine.ingest(_ordered(10))
        engine.close()
        assert engine.snapshot().disk_points == 10
        with pytest.raises(EngineClosedError):
            engine.ingest(_ordered(1))

    def test_rejects_bad_shapes_and_start_id(self):
        engine = ConventionalEngine()
        with pytest.raises(EngineError):
            engine.ingest(np.zeros((2, 2)))

    def test_empty_ingest_noop(self):
        engine = ConventionalEngine()
        engine.ingest(np.array([]))
        assert engine.ingested_points == 0


class TestSeparationEngine:
    def test_classification_against_disk_max(self):
        engine = SeparationEngine(LsmConfig(memory_budget=8, seq_capacity=4))
        # All in-order while disk is empty.
        engine.ingest(np.array([10.0, 20.0, 30.0, 40.0]))  # fills C_seq -> flush
        assert engine.compaction.watermark() == 40.0
        # 35 < disk max -> out-of-order; 50 > -> in-order.
        engine.ingest(np.array([35.0, 50.0]))
        snapshot = engine.snapshot()
        names = {view.name: len(view) for view in snapshot.memtables}
        assert names == {"C_seq": 1, "C_nonseq": 1}

    def test_seq_only_workload_never_merges(self):
        engine = SeparationEngine(
            LsmConfig(memory_budget=16, sstable_size=16, seq_capacity=8)
        )
        engine.ingest(_ordered(160))
        engine.flush_all()
        assert engine.write_amplification == pytest.approx(1.0)
        assert not [event for event in engine.stats.events if event.kind == "merge"]

    def test_nonseq_merge_closes_phase(self):
        engine = SeparationEngine(
            LsmConfig(memory_budget=8, sstable_size=8, seq_capacity=4)
        )
        engine.ingest(np.array([10.0, 20.0, 30.0, 40.0]))  # flush, max=40
        # Four out-of-order points fill C_nonseq (capacity 4) -> merge.
        engine.ingest(np.array([5.0, 15.0, 25.0, 35.0]))
        merges = [event for event in engine.stats.events if event.kind == "merge"]
        assert len(merges) == 1
        assert merges[0].rewritten_points > 0
        engine.verify()

    def test_no_data_loss(self):
        rng = np.random.default_rng(5)
        tg = np.arange(300, dtype=np.float64) + rng.normal(0, 20, 300)
        engine = SeparationEngine(
            LsmConfig(memory_budget=16, sstable_size=16, seq_capacity=8)
        )
        engine.ingest(tg[np.argsort(tg + rng.normal(0, 5, 300))])
        engine.flush_all()
        snapshot = engine.snapshot()
        assert snapshot.total_points == 300
        ids = np.concatenate([t.ids for t in snapshot.tables])
        assert sorted(ids) == list(range(300))

    def test_capacities_exposed(self):
        engine = SeparationEngine(LsmConfig(memory_budget=10, seq_capacity=3))
        assert engine.placement.seq.capacity == 3
        assert engine.placement.nonseq.capacity == 7

    def test_default_split_is_half(self):
        engine = SeparationEngine(LsmConfig(memory_budget=10))
        assert engine.placement.seq.capacity == 5

    def test_flush_all_handles_both_tables(self):
        engine = SeparationEngine(LsmConfig(memory_budget=8, seq_capacity=4))
        engine.ingest(np.array([10.0, 20.0, 30.0, 40.0, 5.0, 50.0]))
        engine.flush_all()
        assert engine.snapshot().memory_points == 0
        assert engine.snapshot().disk_points == 6

    def test_wa_lower_than_conventional_on_heavy_disorder(
        self, small_disordered_dataset
    ):
        config = LsmConfig(memory_budget=512, sstable_size=512, seq_capacity=256)
        separation = SeparationEngine(config)
        separation.ingest(small_disordered_dataset.tg)
        separation.flush_all()
        conventional = ConventionalEngine(LsmConfig(512, 512))
        conventional.ingest(small_disordered_dataset.tg)
        conventional.flush_all()
        # Figure 7's regime: pi_s clearly beats pi_c.
        assert (
            separation.write_amplification
            < conventional.write_amplification
        )

    def test_seq_flush_never_rewrites(self, small_disordered_dataset):
        engine = SeparationEngine(LsmConfig(512, 512, seq_capacity=256))
        engine.ingest(small_disordered_dataset.tg)
        engine.flush_all()
        for event in engine.stats.events:
            if event.kind == "flush":
                assert event.rewritten_points == 0
