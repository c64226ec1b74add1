"""Tests for the size-ratio-T multi-level engine."""

import numpy as np
import pytest

from repro import EngineError, LsmConfig, MultiLevelEngine


class TestMultiLevelEngine:
    def test_level_capacities_follow_ratio(self):
        engine = MultiLevelEngine(
            LsmConfig(memory_budget=10, sstable_size=10), size_ratio=4
        )
        assert engine.compaction.level_capacity(0) == 40
        assert engine.compaction.level_capacity(1) == 160

    def test_spill_cascades(self):
        engine = MultiLevelEngine(
            LsmConfig(memory_budget=4, sstable_size=4),
            size_ratio=2,
            max_levels=4,
        )
        engine.ingest(np.arange(64, dtype=np.float64))
        engine.flush_all()
        # Level 0 holds at most 8 points; the rest must have spilled.
        assert engine.compaction.levels[0].total_points <= engine.compaction.level_capacity(0)
        assert engine.snapshot().disk_points == 64

    def test_sorted_invariant_per_level(self):
        rng = np.random.default_rng(4)
        engine = MultiLevelEngine(
            LsmConfig(memory_budget=8, sstable_size=8),
            size_ratio=3,
            max_levels=4,
        )
        engine.ingest(rng.permutation(300).astype(np.float64))
        engine.flush_all()
        engine.verify()

    def test_wa_greater_than_one_even_for_sorted_input(self):
        engine = MultiLevelEngine(
            LsmConfig(memory_budget=4, sstable_size=4),
            size_ratio=2,
            max_levels=5,
        )
        engine.ingest(np.arange(200, dtype=np.float64))
        engine.flush_all()
        # Cascading spills rewrite data even when input is ordered: this
        # is the structural cost the O(T*L/B) bound describes.
        assert engine.write_amplification > 1.0

    def test_no_data_loss(self):
        rng = np.random.default_rng(8)
        engine = MultiLevelEngine(
            LsmConfig(memory_budget=8, sstable_size=8), size_ratio=2
        )
        engine.ingest(rng.permutation(250).astype(np.float64))
        engine.flush_all()
        snapshot = engine.snapshot()
        assert snapshot.total_points == 250
        ids = np.concatenate([t.ids for t in snapshot.tables])
        assert np.unique(ids).size == 250

    @pytest.mark.parametrize("kwargs", [{"size_ratio": 1}, {"max_levels": 0}])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(EngineError):
            MultiLevelEngine(**kwargs)
