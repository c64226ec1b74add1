"""Tests for the point sort helper, merge primitives and snapshots."""

import numpy as np

from repro import ConventionalEngine, LsmConfig, execute_range_query
from repro.lsm import SSTable, merge_tables_with_batch
from repro.lsm.base import MemTableView, Snapshot
from repro.lsm.points import sort_by_generation


class TestPointBatch:
    # Named for the batch class that once lived beside the helper; kept
    # so the test keeps its id.
    def test_sort_by_generation_helper(self):
        tg, ids = sort_by_generation(
            np.array([2.0, 1.0]), np.array([7, 8], dtype=np.int64)
        )
        assert list(tg) == [1.0, 2.0]
        assert list(ids) == [8, 7]
        # Stable: equal keys keep arrival order (10 before 12).
        tg, ids = sort_by_generation(
            np.array([3.0, 1.0, 3.0, 2.0]), np.array([10, 11, 12, 13], dtype=np.int64)
        )
        assert list(tg) == [1.0, 2.0, 3.0, 3.0]
        assert list(ids) == [11, 13, 10, 12]


class TestMergePrimitive:
    def test_merges_tables_and_batch(self):
        table = SSTable(
            tg=np.array([1.0, 3.0]), ids=np.array([0, 1], dtype=np.int64)
        )
        tg, ids = merge_tables_with_batch(
            [table], np.array([2.0, 4.0]), np.array([2, 3], dtype=np.int64)
        )
        assert list(tg) == [1.0, 2.0, 3.0, 4.0]
        assert list(ids) == [0, 2, 1, 3]

    def test_empty_table_list(self):
        tg, ids = merge_tables_with_batch(
            [], np.array([5.0]), np.array([9], dtype=np.int64)
        )
        assert list(tg) == [5.0]


class TestSnapshot:
    def test_counts_and_max(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=4, sstable_size=4))
        engine.ingest(np.arange(6, dtype=np.float64))
        snapshot = engine.snapshot()
        assert snapshot.disk_points == 4
        assert snapshot.memory_points == 2
        assert snapshot.total_points == 6
        assert snapshot.max_tg == 5.0

    def test_empty_snapshot(self):
        snapshot = Snapshot(tables=[], memtables=[])
        assert snapshot.total_points == 0
        assert snapshot.max_tg == float("-inf")

    def test_memtable_view_range_count(self):
        view = MemTableView(name="m", tg=np.array([1.0, 5.0, 9.0]))
        snapshot = Snapshot(tables=[], memtables=[view])
        assert execute_range_query(snapshot, 2.0, 9.0).result_points == 2
        assert len(view) == 3

    def test_snapshot_is_frozen_view(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=4, sstable_size=4))
        engine.ingest(np.arange(4, dtype=np.float64))
        before = engine.snapshot()
        engine.ingest(np.arange(4, 8, dtype=np.float64))
        # The earlier snapshot's table list must not grow.
        assert before.disk_points == 4
