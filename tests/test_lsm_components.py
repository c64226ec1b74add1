"""Tests for LSM building blocks: MemTable, SSTable, Run, WriteStats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import ConventionalEngine, LsmConfig, execute_range_query
from repro.errors import EngineError
from repro.lsm import MemTable, Run, SSTable, WriteStats, build_sstables
from repro.lsm.base import Snapshot
from repro.lsm.wa_tracker import CompactionEvent


def _table(values):
    tg = np.asarray(values, dtype=np.float64)
    return SSTable(tg=tg, ids=np.arange(tg.size, dtype=np.int64))


class TestMemTable:
    def test_extend_and_room(self):
        table = MemTable(capacity=5)
        table.extend(np.array([3.0, 1.0]), np.array([0, 1]))
        assert len(table) == 2
        assert table.room == 3
        assert not table.full

    def test_full_flag(self):
        table = MemTable(capacity=2)
        table.extend(np.array([1.0, 2.0]), np.array([0, 1]))
        assert table.full

    def test_overflow_rejected(self):
        table = MemTable(capacity=2)
        with pytest.raises(EngineError):
            table.extend(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 2]))

    def test_drain_sorts_by_generation(self):
        table = MemTable(capacity=4)
        table.extend(np.array([3.0, 1.0]), np.array([10, 11]))
        table.extend(np.array([2.0]), np.array([12]))
        tg, ids = table.drain()
        assert list(tg) == [1.0, 2.0, 3.0]
        assert list(ids) == [11, 12, 10]
        assert table.empty

    def test_drain_empty(self):
        tg, ids = MemTable(capacity=2).drain()
        assert tg.size == 0 and ids.size == 0

    def test_misaligned_arrays_rejected(self):
        table = MemTable(capacity=5)
        with pytest.raises(EngineError):
            table.extend(np.array([1.0]), np.array([1, 2]))


#: A MemTable's life as steps: an extend of that many points (clipped
#: to the room), or ``None`` for a clear.
_STEPS = st.lists(st.one_of(st.none(), st.integers(0, 12)), max_size=40)


class TestMemTableSlab:
    """The slab against the list of segments it replaced, and the views
    it hands out against later writes."""

    @given(steps=_STEPS, capacity=st.integers(1, 24))
    def test_sorted_view_matches_a_list_of_segments(self, steps, capacity):
        table, segments, next_id = MemTable(capacity), [], 0
        for step in steps:
            if step is None:
                table.clear()
                segments = []
                continue
            count = min(step, table.room)
            # Few distinct times, so ties are common: a stable sort keeps
            # them in arrival order.
            tg = (np.arange(next_id, next_id + count) * 7 % 5).astype(np.float64)
            ids = np.arange(next_id, next_id + count, dtype=np.int64)
            next_id += count
            table.extend(tg, ids)
            segments.append((tg, ids))
            joined_tg = np.concatenate([s[0] for s in segments])
            joined_ids = np.concatenate([s[1] for s in segments])
            order = np.argsort(joined_tg, kind="stable")
            tg_view, ids_view = table.sorted_view()
            np.testing.assert_array_equal(tg_view, joined_tg[order])
            np.testing.assert_array_equal(ids_view, joined_ids[order])
            np.testing.assert_array_equal(table.peek_tg(), joined_tg)
            np.testing.assert_array_equal(table.peek_ids(), joined_ids)
            assert len(table) == joined_tg.size

    def test_a_view_survives_extends_a_clear_and_a_refill(self):
        table = MemTable(capacity=6)
        table.extend(np.array([3.0, 1.0]), np.array([0, 1]))
        tg, ids = table.peek_tg(), table.peek_ids()
        held = tg.tobytes(), ids.tobytes()
        table.extend(np.array([9.0, 8.0]), np.array([2, 3]))
        table.clear()
        table.extend(np.full(6, -1.0), np.full(6, -1))
        assert (tg.tobytes(), ids.tobytes()) == held
        assert table.peek_tg().tolist() == [-1.0] * 6

    def test_a_detached_table_keeps_its_points_until_its_landing_commits(self):
        config = LsmConfig(memory_budget=64, sstable_size=32).with_stability(
            compaction_scheduler=True,
            compaction_work_unit=32,
            compaction_tokens_per_point=0.01,
            compaction_burst=1,
            backpressure_throttle=10**9,
            backpressure_shed=10**9,
        )
        engine = ConventionalEngine(config)
        tg = np.random.default_rng(0).permutation(200).astype(np.float64)
        # The second landing merges into a run, so it outlasts its unit.
        engine.ingest(tg[:128])
        detached = engine.scheduler.pending_memtables()[-1]
        assert detached is not engine.placement.memtable
        held = detached.peek_tg().copy(), detached.peek_ids().copy()
        np.testing.assert_array_equal(held[0], tg[64:128])
        engine.ingest(tg[128:138])  # into the fresh C0, not the detached slab
        np.testing.assert_array_equal(detached.peek_tg(), held[0])
        np.testing.assert_array_equal(detached.peek_ids(), held[1])
        view = detached.peek_tg()
        engine.scheduler.drain()
        assert detached.empty
        np.testing.assert_array_equal(view, held[0])
        assert engine.snapshot().total_points == 138


class TestSSTable:
    def test_bounds_and_len(self):
        table = _table([1.0, 2.0, 5.0])
        assert table.min_tg == 1.0
        assert table.max_tg == 5.0
        assert len(table) == 3

    def test_overlaps(self):
        table = _table([10.0, 20.0])
        assert table.overlaps(5.0, 10.0)
        assert table.overlaps(15.0, 16.0)
        assert not table.overlaps(21.0, 30.0)
        assert not table.overlaps(0.0, 9.0)

    def test_count_in_range(self):
        snapshot = Snapshot(tables=[_table([1.0, 2.0, 3.0, 4.0])], memtables=[])
        for lo, hi, count in ((2.0, 3.0, 2), (0.0, 10.0, 4), (5.0, 6.0, 0)):
            assert execute_range_query(snapshot, lo, hi).result_points == count

    def test_rejects_empty_or_unsorted(self):
        with pytest.raises(EngineError):
            SSTable(tg=np.array([]), ids=np.array([], dtype=np.int64))
        with pytest.raises(EngineError):
            SSTable(tg=np.array([2.0, 1.0]), ids=np.array([0, 1]))

    def test_unique_table_ids(self):
        assert _table([1.0]).table_id != _table([1.0]).table_id

    def test_build_sstables_chunks(self):
        tg = np.arange(10, dtype=np.float64)
        ids = np.arange(10, dtype=np.int64)
        tables = build_sstables(tg, ids, sstable_size=4)
        assert [len(t) for t in tables] == [4, 4, 2]
        assert tables[0].min_tg == 0.0 and tables[-1].max_tg == 9.0


class TestRun:
    def test_append_and_bounds(self):
        run = Run()
        assert run.empty and run.max_tg == -np.inf
        run.append([_table([1.0, 2.0]), _table([3.0, 4.0])])
        assert run.max_tg == 4.0
        assert run.min_tg == 1.0
        assert run.total_points == 4

    def test_append_overlap_rejected(self):
        run = Run()
        run.append([_table([1.0, 5.0])])
        with pytest.raises(EngineError):
            run.append([_table([4.0, 6.0])])

    def test_overlap_slice_finds_contiguous_range(self):
        run = Run()
        run.append([_table([0.0, 9.0]), _table([10.0, 19.0]), _table([20.0, 29.0])])
        region = run.overlap_slice(12.0, 22.0)
        assert (region.start, region.stop) == (1, 3)
        assert len(run.overlapping_tables(12.0, 22.0)) == 2

    def test_overlap_slice_gap_insert_position(self):
        run = Run()
        run.append([_table([0.0, 9.0]), _table([20.0, 29.0])])
        region = run.overlap_slice(12.0, 15.0)
        assert region.start == region.stop == 1

    def test_replace_keeps_invariants(self):
        run = Run()
        run.append([_table([0.0, 9.0]), _table([10.0, 19.0]), _table([20.0, 29.0])])
        region = run.overlap_slice(10.0, 19.0)
        removed = run.replace(region, [_table([10.0, 15.0]), _table([16.0, 19.0])])
        assert len(removed) == 1
        assert len(run) == 4
        view = run.view()
        assert view.mins == [0.0, 10.0, 16.0, 20.0]
        assert all(high <= low for high, low in zip(view.maxs, view.mins[1:]))

    def test_replace_overlapping_result_rejected(self):
        run = Run()
        run.append([_table([0.0, 9.0]), _table([20.0, 29.0])])
        with pytest.raises(EngineError):
            run.replace(slice(1, 1), [_table([5.0, 25.0])])

    def test_count_points_above(self):
        run = Run()
        run.append([_table([0.0, 1.0, 2.0]), _table([3.0, 4.0]), _table([5.0, 6.0])])
        assert run.count_points_above(2.5) == 4
        assert run.count_points_above(-1.0) == 7
        assert run.count_points_above(6.0) == 0
        assert run.count_points_above(0.5) == 6

    def test_clear(self):
        run = Run()
        run.append([_table([1.0, 2.0])])
        removed = run.clear()
        assert len(removed) == 1
        assert run.empty
        assert run.count_points_above(0.0) == 0

    def test_inverted_range_rejected(self):
        run = Run()
        with pytest.raises(EngineError):
            run.overlap_slice(5.0, 1.0)

    @staticmethod
    def _columns(run):
        return (run._tables, run._mins, run._maxs, run._lens, run._blocks, run._sums)

    def _expected_view(self, run):
        tables = list(run.tables)
        return (
            tables,
            [t.min_tg for t in tables],
            [t.max_tg for t in tables],
            [len(t) for t in tables],
            [math.ceil(len(t) / t.block_size) if t.block_size else 0 for t in tables],
            [float(t.tg.sum()) for t in tables],
        )

    def _view_columns(self, view):
        return (view.tables, view.mins, view.maxs, view.lens, view.blocks, view.sums)

    def test_a_run_nobody_reads_never_copies_its_lists(self):
        run = Run()
        columns = self._columns(run)
        for k in range(40):  # appends at the tail, rewrites in the middle
            run.append([_table([10.0 * k, 10.0 * k + 4.0]), _table([10.0 * k + 5.0, 10.0 * k + 9.0])])
            if k % 3 == 2:
                region = run.overlap_slice(10.0 * (k - 1), 10.0 * (k - 1) + 9.0)
                run.replace(region, [_table([10.0 * (k - 1) + 1.0, 10.0 * (k - 1) + 8.0])])
        assert all(a is b for a, b in zip(self._columns(run), columns))
        assert len(run) == 40 * 2 - 13

    def test_view_is_the_lists_themselves_until_the_run_mutates(self):
        run = Run()
        run.append([_table([0.0, 9.0]), _table([10.0, 19.0]), _table([20.0, 29.0])])
        run.tables[1].convert_to_columnar(1)
        view = run.view()
        assert run.view() is view  # O(1): nothing changed
        assert view.tables is run.tables  # handed out, not copied
        assert list(self._view_columns(view)) == list(self._expected_view(run))
        frozen = [list(column) for column in self._view_columns(view)]

        run.append([_table([30.0, 39.0])])  # first mutation with a view out: copies
        after_first = self._columns(run)
        assert all(a is not b for a, b in zip(after_first, self._view_columns(view)))
        run.replace(run.overlap_slice(10.0, 19.0), [_table([11.0, 12.0]), _table([13.0, 18.0])])
        run.append([_table([40.0, 49.0])])  # later ones splice the run's own lists
        assert all(a is b for a, b in zip(self._columns(run), after_first))
        # The held view is untouched, and the next one is current:
        # block counts and sums re-read from the earliest entry touched.
        assert [list(column) for column in self._view_columns(view)] == frozen
        fresh = run.view()
        assert fresh is not view and len(fresh) == 6
        assert list(self._view_columns(fresh)) == list(self._expected_view(run))

    def test_relayout_rereads_block_counts_for_the_next_view_only(self):
        run = Run()
        run.append([_table([0.0, 1.0, 2.0]), _table([3.0, 4.0])])
        view = run.view()
        assert view.blocks == [0, 0]
        run.tables[0].convert_to_columnar(2)  # laid out on the shared handle
        run.relayout()
        assert view.blocks == [0, 0]
        assert run.view().blocks == [2, 0] and run.view().sums == view.sums

    def test_clear_leaves_a_held_view_alone(self):
        run = Run()
        run.append([_table([1.0, 2.0])])
        view = run.view()
        run.clear()
        assert len(view) == 1 and view.lens == [2]
        assert len(run.view()) == 0


class TestWriteStats:
    def test_wa_counting(self):
        stats = WriteStats()
        stats.record_ingest(10)
        stats.record_written(np.arange(10, dtype=np.int64))
        stats.record_written(np.arange(5, dtype=np.int64))
        assert stats.disk_writes == 15
        assert stats.write_amplification == pytest.approx(1.5)
        counts = stats.write_counts
        assert list(counts) == [2] * 5 + [1] * 5

    def test_wa_nan_before_ingest(self):
        assert np.isnan(WriteStats().write_amplification)

    def test_counters_grow(self):
        stats = WriteStats(initial_capacity=2)
        stats.record_written(np.array([100], dtype=np.int64))
        assert stats.write_counts[100] == 1

    def test_event_log_and_merge_filter(self):
        stats = WriteStats()
        stats.record_event(CompactionEvent("flush", 10, 10, 0, 0, 1))
        stats.record_event(CompactionEvent("merge", 20, 10, 30, 2, 3))
        merges = [event for event in stats.events if event.kind == "merge"]
        assert len(merges) == 1
        assert merges[0].disk_writes == 40

    def test_wa_timeline(self):
        stats = WriteStats()
        stats.record_ingest(20)
        stats.record_event(CompactionEvent("flush", 10, 10, 0, 0, 1))
        stats.record_event(CompactionEvent("merge", 20, 10, 10, 1, 1))
        edges, wa = stats.wa_timeline(window_points=10)
        assert list(edges) == [10, 20]
        assert wa[0] == pytest.approx(1.0)
        assert wa[1] == pytest.approx(2.0)

    def test_wa_timeline_empty(self):
        edges, wa = WriteStats().wa_timeline(window_points=10)
        assert edges.size == 0 and wa.size == 0

    def test_negative_ingest_rejected(self):
        with pytest.raises(EngineError):
            WriteStats().record_ingest(-1)
