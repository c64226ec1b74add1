"""WriteStats hardening: id validation, narrow counters and wa_timeline
edge cases."""

import numpy as np
import pytest

from repro import EngineError, LsmConfig, SeparationEngine
from repro.errors import CheckpointCorruptError
from repro.lsm.wa_tracker import CompactionEvent, WriteStats
from repro.workloads import generate_synthetic
from tests.delay_support import DiscreteDelay


def _event(kind, arrival, new, rewritten=0):
    return CompactionEvent(
        kind=kind,
        arrival_index=arrival,
        new_points=new,
        rewritten_points=rewritten,
        tables_rewritten=1 if rewritten else 0,
        tables_written=1,
    )


class TestRecordWrittenValidation:
    def test_negative_ids_rejected(self):
        stats = WriteStats()
        with pytest.raises(EngineError):
            stats.record_written(np.array([3, -1, 5], dtype=np.int64))

    def test_negative_ids_do_not_corrupt_counters(self):
        stats = WriteStats(initial_capacity=8)
        stats.record_written(np.arange(8, dtype=np.int64))
        before = stats.write_counts.copy()
        with pytest.raises(EngineError):
            stats.record_written(np.array([-2], dtype=np.int64))
        # The rejected batch must leave every counter untouched (the old
        # behaviour wrapped -2 onto id 6).
        np.testing.assert_array_equal(stats.write_counts, before)
        assert stats.disk_writes == 8

    def test_valid_ids_still_counted(self):
        stats = WriteStats()
        stats.record_written(np.array([0, 0, 2], dtype=np.int64))
        np.testing.assert_array_equal(stats.write_counts, [2, 0, 1])


class TestNarrowCounters:
    """Counters are stored as ``uint16`` and widen to ``int64`` only when
    the overflow guard cannot rule an overflow out; every reading is
    exact and ``int64`` either way."""

    def test_one_id_recorded_70_000_times_counts_exactly_and_widens(self):
        stats = WriteStats()
        stats.record_written(np.arange(10, dtype=np.int64))
        assert stats._counts.dtype == np.uint16
        for _ in range(10_000):
            stats.record_written(np.full(7, 3, dtype=np.int64))
        assert stats._counts.dtype == np.int64
        counts = stats.write_counts
        assert counts.dtype == np.int64
        assert counts[3] == 70_001
        assert counts.sum() == stats.disk_writes == 70_010

    def test_duplicates_count_per_occurrence_across_the_widening(self):
        stats = WriteStats()
        stats.record_written(np.full(65_530, 2, dtype=np.int64))
        assert stats._counts.dtype == np.uint16
        stats.record_written(np.array([2, 2, 2, 2, 2, 2, 0, 2], dtype=np.int64))
        assert stats._counts.dtype == np.int64
        np.testing.assert_array_equal(stats.write_counts, [1, 0, 65_537])

    def test_distinct_ids_stay_narrow(self):
        stats = WriteStats()
        for _ in range(100):
            stats.record_written(np.arange(5_000, dtype=np.int64))
        assert stats._counts.dtype == np.uint16
        assert stats.write_counts.dtype == np.int64
        assert (stats.write_counts == 100).all()

    def test_checkpoint_arrays_are_int64_and_restore_narrow_when_they_fit(self):
        for top in (9, 70_000):
            stats = WriteStats()
            stats.record_written(np.arange(4, dtype=np.int64))
            stats.record_written(np.full(top, 1, dtype=np.int64))
            meta, arrays = stats.to_checkpoint()
            assert arrays["stats.counts"].dtype == np.int64
            restored = WriteStats.from_checkpoint(meta, arrays)
            assert restored._counts.dtype == (np.uint16 if top < 65_535 else np.int64)
            assert restored._ceiling == top + 1
            np.testing.assert_array_equal(restored.write_counts, stats.write_counts)

    @pytest.mark.parametrize("counts", [[1, -1, 2], [1, 1], [1, 1, 1, 0]])
    def test_an_impossible_counter_array_is_a_corrupt_checkpoint(self, counts):
        stats = WriteStats()
        stats.record_written(np.arange(3, dtype=np.int64))
        meta, arrays = stats.to_checkpoint()
        arrays["stats.counts"] = np.asarray(counts, dtype=np.int64)
        with pytest.raises(CheckpointCorruptError, match="stats.counts"):
            WriteStats.from_checkpoint(meta, arrays)


class TestWaTimelineEdgeCases:
    def test_window_larger_than_whole_stream(self):
        stats = WriteStats()
        stats.record_ingest(100)
        stats.record_written(np.arange(100, dtype=np.int64))
        stats.record_event(_event("flush", 100, 100))
        edges, wa = stats.wa_timeline(window_points=10_000)
        assert edges.size == 1
        # Single window covering everything: WA == overall WA.
        assert wa[0] == pytest.approx(stats.write_amplification)

    def test_final_partial_window(self):
        stats = WriteStats()
        stats.record_ingest(250)
        stats.record_written(np.arange(250, dtype=np.int64))
        stats.record_event(_event("flush", 100, 100))
        stats.record_event(_event("flush", 200, 100))
        stats.record_event(_event("flush", 250, 50))
        edges, wa = stats.wa_timeline(window_points=100)
        assert list(edges) == [100, 200, 300]
        # Last window holds only 50 user points but all 50 writes.
        assert wa[-1] == pytest.approx(1.0)
        user = np.diff(np.concatenate(([0], np.minimum(edges, 250))))
        assert float(np.nansum(wa * user)) == pytest.approx(stats.disk_writes)

    def test_flushes_but_zero_merges(self):
        # Fully in-order data through pi_s: C_seq flushes only, and the
        # timeline must still integrate to WA == 1.
        dataset = generate_synthetic(
            4_096, dt=50, delay=DiscreteDelay([0.0], [1.0]), seed=0
        )
        engine = SeparationEngine(LsmConfig(256, 256, seq_capacity=128))
        engine.ingest(dataset.tg)
        engine.flush_all()
        assert [event for event in engine.stats.events if event.kind == "merge"] == []
        edges, wa = engine.stats.wa_timeline(window_points=256)
        assert engine.write_amplification == pytest.approx(1.0)
        assert np.nanmax(wa) == pytest.approx(1.0)
        assert np.nanmin(wa) == pytest.approx(1.0)

    def test_out_of_order_event_log_sorted_before_windowing(self):
        ordered = WriteStats()
        shuffled = WriteStats()
        events = [
            _event("flush", 100, 100),
            _event("merge", 200, 100, rewritten=50),
            _event("merge", 300, 100, rewritten=150),
        ]
        for stats in (ordered, shuffled):
            stats.record_ingest(300)
        for event in events:
            ordered.record_event(event)
        # record_event enforces monotone arrival_index, so build the
        # disordered log directly (e.g. a trace merged from two engines).
        shuffled.events.extend((events[2], events[0], events[1]))
        ordered_edges, ordered_wa = ordered.wa_timeline(window_points=100)
        shuffled_edges, shuffled_wa = shuffled.wa_timeline(window_points=100)
        np.testing.assert_array_equal(ordered_edges, shuffled_edges)
        np.testing.assert_allclose(shuffled_wa, ordered_wa)

    def test_empty_log_returns_empty(self):
        stats = WriteStats()
        edges, wa = stats.wa_timeline(window_points=64)
        assert edges.size == 0 and wa.size == 0

    def test_window_must_be_positive(self):
        stats = WriteStats()
        with pytest.raises(EngineError):
            stats.wa_timeline(window_points=0)

    @pytest.mark.parametrize(
        "window", [float("nan"), 1.5, True, np.float64(64.0)], ids=repr
    )
    def test_window_must_be_an_integer_count(self, window):
        stats = WriteStats()
        stats.record_ingest(100)
        stats.record_written(np.arange(100, dtype=np.int64))
        stats.record_event(_event("flush", 100, 100))
        with pytest.raises(EngineError, match="^window_points must be an integer >= 1"):
            stats.wa_timeline(window_points=window)
        edges, _ = stats.wa_timeline(window_points=np.int64(50))
        assert list(edges) == [50, 100]
