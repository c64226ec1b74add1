"""Parallel subsystem: pool, telemetry merge, result cache, equivalence.

The contract under test is the one ``repro.parallel`` documents: any
driver run with ``workers=N`` must produce results byte-identical to the
serial path, worker telemetry must fold back into totals equal to a
serial run's, and the content-hash cache must hit only when nothing
relevant changed.
"""

from __future__ import annotations

import json

import pytest

from repro import LogNormalDelay, TelemetryError
from repro.errors import CacheError, ExperimentError, ParallelError
from repro.experiments.registry import run_experiment
from repro.faults.crashtest import run_crash_test
from repro.obs import MetricsRegistry
from repro.obs.telemetry import (
    configure_telemetry,
    global_telemetry,
    reset_global_telemetry,
)
from repro.parallel import (
    ResultCache,
    Task,
    code_fingerprint,
    dataset_fingerprint,
    experiment_key,
    resolve_workers,
    run_experiments,
    run_tasks,
    task_seed,
)
from repro.workloads import generate_synthetic

_DELAY = LogNormalDelay(5.0, 2.0)
_DT = 50.0


def _square(value, seed=None):
    return value * value, seed


def _ingest_with_telemetry(n_points: int, seed: int) -> float:
    """Task fn reporting engine counters through the process-global bus."""
    from repro import ConventionalEngine, LsmConfig

    dataset = generate_synthetic(n_points, dt=_DT, delay=_DELAY, seed=seed)
    engine = ConventionalEngine(
        LsmConfig(256, 256), telemetry=global_telemetry()
    )
    engine.ingest(dataset.tg)
    engine.flush_all()
    return float(engine.write_amplification)


class TestPool:
    def test_serial_and_parallel_results_identical_in_task_order(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(8)]
        serial = run_tasks(tasks, workers=1)
        parallel = run_tasks(tasks, workers=3)
        assert serial == [(i * i, None) for i in range(8)]
        assert parallel == serial

    def test_task_seed_is_deterministic_and_distinct(self):
        seeds = [task_seed(123, i) for i in range(16)]
        assert seeds == [task_seed(123, i) for i in range(16)]
        assert len(set(seeds)) == len(seeds)
        assert task_seed(124, 0) != task_seed(123, 0)
        with pytest.raises(ParallelError):
            task_seed(123, -1)

    def test_task_seed_is_injected_into_kwargs(self):
        tasks = [Task(fn=_square, args=(2,), seed=task_seed(7, 0))]
        ((value, seed),) = run_tasks(tasks, workers=1)
        assert value == 4
        assert seed == task_seed(7, 0)

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(-1) >= 1
        with pytest.raises(ParallelError):
            resolve_workers(-2)


class TestMetricsMerge:
    def test_counters_add_and_gauges_take_last_write(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("n").inc(3)
        right.counter("n").inc(4)
        right.counter("only_right").inc()
        left.gauge("depth").set(2.0)
        right.gauge("depth").set(5.0)
        left.merge(right)
        assert left.counter("n").value == 7
        assert left.counter("only_right").value == 1
        assert left.gauge("depth").value == 5.0

    def test_histograms_merge_bucketwise(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for value in (0.5, 3.0):
            left.histogram("lat", buckets=(1.0, 10.0)).observe(value)
        for value in (0.7, 50.0):
            right.histogram("lat", buckets=(1.0, 10.0)).observe(value)
        left.merge(right)
        merged = left.histogram("lat", buckets=(1.0, 10.0))
        assert merged.count == 4
        assert merged.bucket_counts == [2, 1, 1]
        assert merged.total == pytest.approx(54.2)
        assert merged.max == 50.0

    def test_histogram_merge_rejects_mismatched_bounds(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("lat", buckets=(1.0, 10.0)).observe(0.5)
        right.histogram("lat", buckets=(2.0, 20.0)).observe(0.5)
        with pytest.raises(TelemetryError):
            left.merge(right)


class TestTelemetryMerge:
    @pytest.fixture(autouse=True)
    def _clean_global_bus(self):
        reset_global_telemetry()
        yield
        reset_global_telemetry()

    def _snapshot(self, workers: int) -> dict:
        bus = configure_telemetry(sink="memory")
        tasks = [
            Task(
                fn=_ingest_with_telemetry,
                args=(2_000, seed),
                label=f"ingest-{seed}",
            )
            for seed in (1, 2, 3)
        ]
        results = run_tasks(tasks, workers=workers, telemetry=bus)
        payload = bus.snapshot_payload()
        reset_global_telemetry()
        return {"results": results, **payload}

    def test_merged_counters_equal_serial_totals(self):
        serial = self._snapshot(workers=1)
        merged = self._snapshot(workers=2)
        assert merged["results"] == serial["results"]
        assert serial["metrics"]["counters"]["ingest.points"] == 6_000
        assert (
            merged["metrics"]["counters"] == serial["metrics"]["counters"]
        )
        # Histograms record span *durations* — wall-clock, so bucket
        # placement varies run to run; the observation counts must not.
        assert set(merged["metrics"]["histograms"]) == set(
            serial["metrics"]["histograms"]
        )
        for name, data in serial["metrics"]["histograms"].items():
            other = merged["metrics"]["histograms"][name]
            assert other["count"] == data["count"]
            assert sum(other["bucket_counts"]) == sum(data["bucket_counts"])

    def test_absorbed_events_carry_worker_tags(self):
        merged = self._snapshot(workers=2)
        tagged = [e for e in merged["events"] if "worker" in e]
        assert tagged, "parallel run should forward worker-tagged events"
        assert {e["worker"] for e in tagged} <= {
            "ingest-1",
            "ingest-2",
            "ingest-3",
        }

    def test_disabled_bus_absorbs_nothing(self):
        bus = global_telemetry()  # NULL_TELEMETRY after reset
        assert not bus.enabled
        bus.absorb({"metrics": {"counters": {"x": 1}}})
        assert bus.snapshot_payload()["metrics"]["counters"] == {}


class TestResultCache:
    def test_roundtrip_preserves_render(self, tmp_path):
        result = run_experiment("concepts", scale=0.05, seed=5)
        cache = ResultCache(tmp_path)
        key = experiment_key("concepts", scale=0.05, seed=5)
        assert cache.load(key) is None
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded.render() == result.render()
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert len(cache) == 1

    def test_key_changes_with_inputs_and_code(self):
        base = experiment_key("fig05", scale=1.0, seed=None)
        assert base == experiment_key("fig05", scale=1.0, seed=None)
        assert base != experiment_key("fig07", scale=1.0, seed=None)
        assert base != experiment_key("fig05", scale=0.5, seed=None)
        assert base != experiment_key("fig05", scale=1.0, seed=9)
        assert base != experiment_key("fig05", code="deadbeef")
        assert base != experiment_key("fig05", datasets="deadbeef")
        assert base != experiment_key("fig05", extra={"variant": "b"})

    def test_fingerprints_are_stable_hex_digests(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64
        assert len(dataset_fingerprint()) == 64

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = experiment_key("concepts", scale=0.05)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.load(key) is None
        (tmp_path / f"{key}.json").write_text(json.dumps({"format": 99}))
        assert cache.load(key) is None
        assert cache.misses == 2

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CacheError):
            cache.load("../escape")
        with pytest.raises(CacheError):
            cache.load("UPPER")

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_experiment("concepts", scale=0.05, seed=5)
        cache.store(experiment_key("concepts", scale=0.05, seed=5), result)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRunExperiments:
    IDS = ["concepts", "table02"]
    SCALE = 0.05

    def test_rejects_unknown_ids(self):
        with pytest.raises(ExperimentError):
            run_experiments(["nope"])

    def test_parallel_matches_serial_byte_for_byte(self):
        serial = run_experiments(self.IDS, scale=self.SCALE, workers=1)
        parallel = run_experiments(self.IDS, scale=self.SCALE, workers=2)
        assert [r.experiment_id for r in parallel] == self.IDS
        for left, right in zip(serial, parallel):
            assert not left.cached and not right.cached
            assert left.result.render() == right.result.render()

    def test_cache_hits_on_second_run_and_preserves_output(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_experiments(self.IDS, scale=self.SCALE, cache=cache)
        second = run_experiments(self.IDS, scale=self.SCALE, cache=cache)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        assert all(r.duration_s == 0.0 for r in second)
        for left, right in zip(first, second):
            assert left.result.render() == right.result.render()
        # Different scale is a different key: both experiments miss.
        third = run_experiments(self.IDS, scale=0.04, cache=cache)
        assert all(not r.cached for r in third)


class TestCrashMatrixEquivalence:
    def test_parallel_matrix_equals_serial(self):
        kwargs = dict(engines=["pi_s"], seeds=1, n_points=1_500)
        serial = run_crash_test(**kwargs)
        parallel = run_crash_test(workers=2, **kwargs)
        assert serial.ok and parallel.ok
        assert [r.describe() for r in parallel.results] == [
            r.describe() for r in serial.results
        ]

    def test_fleet_cells_fan_out_through_the_same_runner(self):
        kwargs = dict(fleet_shards=2, seeds=1)
        serial = run_crash_test(**kwargs)
        parallel = run_crash_test(workers=2, **kwargs)
        assert serial.ok and parallel.ok and len(serial.results) == 2
        assert [r.describe() for r in parallel.results] == [
            r.describe() for r in serial.results
        ]
