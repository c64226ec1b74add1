"""Tests for the query layer: executor, latency, workloads."""

import math

import numpy as np
import pytest

from repro import (
    ConventionalEngine,
    DEFAULT_DISK_MODEL,
    IoTDBStyleEngine,
    LogNormalDelay,
    LsmConfig,
    QueryError,
    execute_range_query,
    query_latency_ms,
    run_query_workload,
)
from repro.lsm.database import TimeSeriesDatabase
from repro.query import (
    aggregate_over_series,
    execute_aggregate_query,
    historical_window_query,
    recent_window_query,
    scan_over_series,
)
from repro.serving import ShardedDatabase
from repro.workloads import generate_synthetic


@pytest.fixture()
def loaded_engine():
    engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
    engine.ingest(np.arange(100, dtype=np.float64))
    return engine


class TestExecutor:
    def test_counts_result_points(self, loaded_engine):
        stats = execute_range_query(loaded_engine.snapshot(), 10.0, 19.0)
        assert stats.result_points == 10

    def test_reads_whole_overlapping_tables(self, loaded_engine):
        # 100 points flushed in 16-point tables; [10, 19] spans 2 tables.
        stats = execute_range_query(loaded_engine.snapshot(), 10.0, 19.0)
        assert stats.files_touched == 2
        assert stats.disk_points_read == 32

    def test_read_amplification(self, loaded_engine):
        stats = execute_range_query(loaded_engine.snapshot(), 10.0, 19.0)
        assert stats.read_amplification == pytest.approx(3.2)

    def test_empty_result_nan_amplification(self, loaded_engine):
        loaded_engine.flush_all()
        stats = execute_range_query(loaded_engine.snapshot(), 500.0, 600.0)
        assert stats.result_points == 0
        assert np.isnan(stats.read_amplification)

    def test_memtable_points_counted(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        engine.ingest(np.arange(10, dtype=np.float64))
        stats = execute_range_query(engine.snapshot(), 0.0, 4.0)
        assert stats.result_points == 5
        assert stats.files_touched == 0
        assert stats.memtable_points_scanned == 10

    def test_inverted_range_rejected(self, loaded_engine):
        with pytest.raises(QueryError):
            execute_range_query(loaded_engine.snapshot(), 10.0, 5.0)

    def test_collect_returns_sorted_rows(self, loaded_engine):
        stats = execute_range_query(
            loaded_engine.snapshot(), 10.0, 19.0, collect=True
        )
        assert stats.rows is not None
        assert list(stats.rows) == [float(v) for v in range(10, 20)]
        assert stats.rows.size == stats.result_points

    def test_collect_spans_memtable_and_disk(self):
        engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        engine.ingest(np.arange(20, dtype=np.float64))  # 16 flushed + 4 buffered
        stats = execute_range_query(engine.snapshot(), 14.0, 18.0, collect=True)
        assert list(stats.rows) == [14.0, 15.0, 16.0, 17.0, 18.0]
        # Arrival ids come back for both disk and buffered rows, letting
        # callers join values stored in an id-indexed side array.
        assert list(stats.row_ids) == [14, 15, 16, 17, 18]

    def test_row_ids_enable_value_joins(self, rng):
        engine = ConventionalEngine(LsmConfig(memory_budget=8, sstable_size=8))
        tg = rng.permutation(50).astype(np.float64)
        values = tg * 10.0  # the caller's value column, arrival-indexed
        engine.ingest(tg)
        engine.flush_all()
        stats = execute_range_query(engine.snapshot(), 20.0, 29.0, collect=True)
        joined = values[stats.row_ids]
        assert np.allclose(joined, stats.rows * 10.0)

    def test_collect_empty_result(self, loaded_engine):
        stats = execute_range_query(
            loaded_engine.snapshot(), 500.0, 600.0, collect=True
        )
        assert stats.rows is not None and stats.rows.size == 0

    def test_metrics_identical_with_and_without_collect(self, loaded_engine):
        snapshot = loaded_engine.snapshot()
        plain = execute_range_query(snapshot, 5.0, 55.0)
        collected = execute_range_query(snapshot, 5.0, 55.0, collect=True)
        assert plain.result_points == collected.result_points
        assert plain.disk_points_read == collected.disk_points_read
        assert plain.files_touched == collected.files_touched
        assert plain.rows is None



@pytest.mark.parametrize("base", [0.0, 1e8, 1.7e12])
def test_a_strict_bound_is_the_closed_bound_at_the_next_float(base):
    """Bounds are closed; the paper's ``time > a`` is ``lo =
    nextafter(a, inf)``.  A fixed 1e-9 nudge vanished in rounding from
    |t| ~ 1.7e7 on, so every front door must count exactly at real
    timestamp magnitudes."""
    tg = np.array([base, base + 1000.0, base + 2000.0])
    engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
    engine.ingest(tg)
    db = TimeSeriesDatabase(memory_budget_per_series=16, sstable_size=16)
    db.write("s", tg)
    fleet = ShardedDatabase(n_shards=2, memory_budget_per_series=16, sstable_size=16)
    fleet.write("s", tg)
    snapshot = engine.snapshot()
    doors = [
        (
            lambda lo, hi: execute_aggregate_query(snapshot, lo, hi),
            lambda lo, hi: execute_range_query(snapshot, lo, hi, collect=True),
        ),
        (
            lambda lo, hi: aggregate_over_series(db, "s", lo, hi),
            lambda lo, hi: scan_over_series(db, "s", lo, hi, collect=True),
        ),
        (
            lambda lo, hi: fleet.query_aggregate("s", lo, hi),
            lambda lo, hi: fleet.query_range("s", lo, hi, collect=True),
        ),
    ]
    mid = base + 1000.0
    above, below = math.nextafter(mid, math.inf), math.nextafter(mid, -math.inf)
    windows = [
        (above, math.inf, 1),  # time > mid
        (-math.inf, below, 1),  # time < mid
        (mid, math.inf, 2),  # time >= mid
        (-math.inf, mid, 2),  # time <= mid
        (-math.inf, math.inf, 3),  # no WHERE
    ]
    for aggregate, scan in doors:
        for lo, hi, count in windows:
            assert aggregate(lo, hi).count == count, (lo, hi)
            assert scan(lo, hi).result_points == count, (lo, hi)
        # time > base AND time < base + 2000
        inner = aggregate(
            math.nextafter(base, math.inf), math.nextafter(base + 2000.0, -math.inf)
        )
        assert inner.minimum == inner.maximum == mid


class TestLatencyModel:
    def test_seek_dominates_small_reads(self, loaded_engine):
        disk = DEFAULT_DISK_MODEL
        stats = execute_range_query(loaded_engine.snapshot(), 10.0, 19.0)
        latency = query_latency_ms(stats)
        assert latency == pytest.approx(
            disk.query_overhead_ms + 2 * disk.seek_ms + 32 * disk.read_point_ms, rel=0.05
        )
        assert 2 * disk.seek_ms > 32 * disk.read_point_ms

    def test_more_files_cost_more(self, loaded_engine):
        narrow = execute_range_query(loaded_engine.snapshot(), 10.0, 12.0)
        wide = execute_range_query(loaded_engine.snapshot(), 10.0, 90.0)
        assert query_latency_ms(wide) > query_latency_ms(narrow)


class TestWindowHelpers:
    def test_recent_window(self):
        assert recent_window_query(1000.0, 100.0) == (900.0, 1000.0)

    def test_historical_window_within_bounds(self, rng):
        for _ in range(50):
            lo, hi = historical_window_query(1000.0, 100.0, rng)
            assert 0.0 <= lo
            assert hi == lo + 100.0
            assert hi <= 1000.0


class TestRunQueryWorkload:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(
            15_000, dt=50, delay=LogNormalDelay(4.0, 1.5), seed=3
        )

    def test_recent_mode_produces_queries(self, dataset):
        engine = IoTDBStyleEngine(LsmConfig(memory_budget=512))
        result = run_query_workload(
            engine, dataset, window=5_000.0, mode="recent"
        )
        assert result.queries > 0
        assert result.workload == "recent"
        assert result.mean_latency_ms > 0

    def test_historical_mode(self, dataset):
        engine = IoTDBStyleEngine(LsmConfig(memory_budget=512))
        result = run_query_workload(
            engine, dataset, window=5_000.0, mode="historical", seed=5
        )
        assert result.queries > 0
        assert result.mean_result_points > 0

    def test_rejects_bad_parameters(self, dataset):
        engine = IoTDBStyleEngine(LsmConfig(memory_budget=512))
        with pytest.raises(QueryError):
            run_query_workload(engine, dataset, window=5.0, mode="weird")
        with pytest.raises(QueryError):
            run_query_workload(engine, dataset, window=-1.0)

    def test_policy_label_recorded(self, dataset):
        engine = IoTDBStyleEngine(
            LsmConfig(memory_budget=512, seq_capacity=256), policy="separation"
        )
        result = run_query_workload(engine, dataset, window=5_000.0)
        assert result.policy == "pi_s"
