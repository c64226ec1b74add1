"""Tests for the tiered-compaction engine."""

import numpy as np
import pytest

from repro import ConventionalEngine, EngineError, LsmConfig, TieredEngine


class TestTieredEngine:
    def test_flushes_accumulate_as_runs(self):
        engine = TieredEngine(
            LsmConfig(memory_budget=8, sstable_size=8), tier_fanout=4
        )
        engine.ingest(np.arange(24, dtype=np.float64))
        assert len(engine.compaction.levels[0]) == 3
        assert engine.compaction.run_count == 3

    def test_full_tier_merges_down(self):
        engine = TieredEngine(
            LsmConfig(memory_budget=8, sstable_size=8), tier_fanout=4
        )
        engine.ingest(np.arange(32, dtype=np.float64))
        assert len(engine.compaction.levels[0]) == 0
        assert len(engine.compaction.levels[1]) == 1
        assert engine.compaction.run_count == 1

    def test_merge_cascades_through_levels(self):
        engine = TieredEngine(
            LsmConfig(memory_budget=2, sstable_size=2),
            tier_fanout=2,
            max_levels=5,
        )
        engine.ingest(np.arange(32, dtype=np.float64))
        engine.flush_all()
        # 32 points through fanout-2 tiers: data reaches level 4.
        assert any(engine.compaction.levels[level] for level in range(2, 5))

    def test_runs_internally_sorted_non_overlapping(self):
        rng = np.random.default_rng(7)
        engine = TieredEngine(
            LsmConfig(memory_budget=8, sstable_size=4), tier_fanout=3
        )
        engine.ingest(rng.permutation(200).astype(np.float64))
        engine.flush_all()
        for level in engine.compaction.levels:
            for run in level:
                all_tg = np.concatenate([t.tg for t in run])
                assert np.all(np.diff(all_tg) > 0)

    def test_no_data_loss(self):
        rng = np.random.default_rng(8)
        engine = TieredEngine(
            LsmConfig(memory_budget=8, sstable_size=8), tier_fanout=3
        )
        engine.ingest(rng.permutation(300).astype(np.float64))
        engine.flush_all()
        snapshot = engine.snapshot()
        assert snapshot.total_points == 300
        ids = np.concatenate([t.ids for t in snapshot.tables])
        assert np.unique(ids).size == 300

    def test_lower_wa_than_leveling_on_disorder(self):
        rng = np.random.default_rng(9)
        tg = np.arange(20_000, dtype=np.float64)
        arrival = tg + rng.lognormal(5.0, 2.0, tg.size) / 50.0
        order = np.argsort(arrival, kind="stable")
        stream = tg[order]
        config = LsmConfig(memory_budget=256, sstable_size=256)
        tiered = TieredEngine(config, tier_fanout=4)
        tiered.ingest(stream)
        tiered.flush_all()
        leveled = ConventionalEngine(config)
        leveled.ingest(stream)
        leveled.flush_all()
        assert tiered.write_amplification < leveled.write_amplification

    def test_wa_bounded_by_level_count(self):
        engine = TieredEngine(
            LsmConfig(memory_budget=4, sstable_size=4),
            tier_fanout=2,
            max_levels=6,
        )
        engine.ingest(np.arange(256, dtype=np.float64))
        engine.flush_all()
        # Tiering writes each point at most once per level.
        assert engine.write_amplification <= 6.0

    @pytest.mark.parametrize("kwargs", [{"tier_fanout": 1}, {"max_levels": 0}])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(EngineError):
            TieredEngine(**kwargs)
