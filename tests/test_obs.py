"""Telemetry subsystem: metrics registry, sinks, spans, engine wiring."""

import json

import numpy as np
import pytest

from repro import (
    ConventionalEngine,
    IoTDBStyleEngine,
    LogNormalDelay,
    LsmConfig,
    MultiLevelEngine,
    SeparationEngine,
    TieredEngine,
    TimeSeriesDatabase,
    ConfigError,
    TelemetryError,
    configure_telemetry,
    execute_range_query,
    global_telemetry,
    load_trace,
    render_trace_report,
    reset_global_telemetry,
)
from repro.lsm import AdaptiveEngine
from repro.obs import (
    JsonlFileSink,
    MetricsRegistry,
    NULL_TELEMETRY,
    RingBufferSink,
    Telemetry,
    summarize_trace,
)
from repro.workloads import generate_synthetic


@pytest.fixture(scope="module")
def disordered():
    return generate_synthetic(
        30_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=11
    )


class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.counter("a").value == 5

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3)
        registry.gauge("g").set(1.5)
        assert registry.gauge("g").value == 1.5

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.bucket_counts == [1, 1, 2]  # <=1, <=10, +inf
        assert h.mean == pytest.approx(138.875)
        assert h.max == 500.0

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("bad", buckets=(5.0, 5.0))
        with pytest.raises(TelemetryError):
            registry.histogram("empty", buckets=())

    def test_name_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")

    def test_as_dict_and_render(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(3.0)
        snapshot = registry.as_dict()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 1.0}
        assert snapshot["histograms"]["h"]["count"] == 1
        text = registry.render()
        assert "c" in text and "g" in text and "h" in text


class TestSinks:
    @pytest.mark.parametrize(
        "build",
        [lambda: RingBufferSink(0), lambda: RingBufferSink(-1), lambda: JsonlFileSink("")],
        ids=["ring-0", "ring-negative", "jsonl-empty-path"],
    )
    def test_bad_sink_arguments_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_ring_buffer_caps_and_counts_drops(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.write({"seq": i})
        assert [e["seq"] for e in sink.events] == [2, 3, 4]
        assert sink.dropped == 2
        sink.clear()
        assert len(sink) == 0 and sink.dropped == 0

    def test_jsonl_sink_appends_and_lazy_opens(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(str(path))
        assert not path.exists()  # lazy: no event, no file
        sink.write({"type": "x", "n": np.int64(3)})
        sink.write({"type": "y"})
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"type": "x", "n": 3}


class TestTelemetryBus:
    def test_emit_stamps_seq_and_ts(self):
        sink = RingBufferSink()
        telemetry = Telemetry(sinks=[sink])
        telemetry.emit({"type": "a"})
        telemetry.emit({"type": "b"})
        events = sink.events
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["ts_ms"] >= 0 for e in events)

    def test_span_duration_and_fields(self):
        sink = RingBufferSink()
        telemetry = Telemetry(sinks=[sink])
        with telemetry.span("phase", engine="pi_c") as span:
            span.set(points=10)
        (event,) = sink.events
        assert event["type"] == "span"
        assert event["name"] == "phase"
        assert event["engine"] == "pi_c"
        assert event["points"] == 10
        assert event["duration_ms"] >= 0
        assert telemetry.registry.histogram("span.phase.ms").count == 1

    def test_span_nesting_depth(self):
        sink = RingBufferSink()
        telemetry = Telemetry(sinks=[sink])
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        inner, outer = sink.events
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0

    def test_span_records_error(self):
        sink = RingBufferSink()
        telemetry = Telemetry(sinks=[sink])
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("x")
        (event,) = sink.events
        assert event["error"] == "ValueError"

    def test_disabled_bus_is_noop(self):
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.emit({"type": "ignored"})
        NULL_TELEMETRY.count("nope")
        with NULL_TELEMETRY.span("nothing") as span:
            span.set(a=1)
        assert NULL_TELEMETRY.sinks == []
        assert NULL_TELEMETRY.registry.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_configure_telemetry_takes_a_sink_or_a_ring_buffer(self, tmp_path):
        try:
            assert isinstance(configure_telemetry().sinks[0], RingBufferSink)
            sink = JsonlFileSink(str(tmp_path / "run.jsonl"))
            telemetry = configure_telemetry(sink)
            assert telemetry.sinks == [sink] and global_telemetry() is telemetry
        finally:
            reset_global_telemetry()
        assert global_telemetry() is NULL_TELEMETRY

    def test_engine_bus_is_its_argument_or_null(self):
        assert ConventionalEngine(LsmConfig()).telemetry is NULL_TELEMETRY
        telemetry = Telemetry(sinks=[RingBufferSink(16)])
        assert ConventionalEngine(LsmConfig(), telemetry=telemetry).telemetry is telemetry


class TestEngineIntegration:
    """The acceptance path: engine + query -> JSONL trace -> report."""

    @pytest.fixture()
    def traced_separation(self, tmp_path, disordered):
        path = tmp_path / "trace.jsonl"
        engine = SeparationEngine(
            LsmConfig(256, 256, seq_capacity=128),
            telemetry=Telemetry(sinks=[JsonlFileSink(str(path))]),
        )
        engine.ingest(disordered.tg)
        engine.flush_all()
        execute_range_query(
            engine.snapshot(), 1_000.0, 400_000.0, telemetry=engine.telemetry
        )
        engine.telemetry.close()
        return engine, path

    def test_trace_contains_flush_merge_query_with_durations(
        self, traced_separation
    ):
        _, path = traced_separation
        events = load_trace(path)
        spans = {e["name"] for e in events if e["type"] == "span"}
        assert {"ingest", "flush", "merge"} <= spans
        for event in events:
            if event["type"] == "span":
                assert event["duration_ms"] >= 0
        merges = [
            e for e in events if e["type"] == "span" and e["name"] == "merge"
        ]
        assert all("rewritten_points" in e for e in merges)
        queries = [e for e in events if e["type"] == "query"]
        assert len(queries) == 1
        assert queries[0]["duration_ms"] >= 0
        assert queries[0]["result_points"] > 0
        assert queries[0]["files_touched"] > 0

    def test_merge_rewrites_agree_with_exact_wa_accounting(
        self, traced_separation
    ):
        """Telemetry must agree with WriteStats: rewrites = disk - first."""
        engine, path = traced_separation
        events = load_trace(path)
        merge_rewrites = sum(
            e["rewritten_points"]
            for e in events
            if e["type"] == "compaction" and e["kind"] == "merge"
        )
        first_writes = engine.stats.user_points  # every point written once
        assert merge_rewrites == engine.stats.disk_writes - first_writes

    def test_compaction_events_mirror_write_stats_log(self, traced_separation):
        engine, path = traced_separation
        events = [e for e in load_trace(path) if e["type"] == "compaction"]
        assert len(events) == len(engine.stats.events)
        for traced, recorded in zip(events, engine.stats.events):
            assert traced["kind"] == recorded.kind
            assert traced["arrival_index"] == recorded.arrival_index
            assert traced["new_points"] == recorded.new_points
            assert traced["rewritten_points"] == recorded.rewritten_points

    def test_report_renders_summary(self, traced_separation):
        _, path = traced_separation
        events = load_trace(path)
        report = render_trace_report(events, source=str(path))
        assert "flush" in report and "merge" in report
        assert "queries" in report
        summary = summarize_trace(events)
        assert summary.query_count == 1
        assert summary.compactions["merge"]["rewritten_points"] > 0

    def test_metrics_counters_track_ingest_and_queries(self, disordered):
        engine = ConventionalEngine(
            LsmConfig(256, 256), telemetry=Telemetry(sinks=[RingBufferSink()])
        )
        engine.ingest(disordered.tg)
        engine.flush_all()
        execute_range_query(
            engine.snapshot(), 0.0, 1e9, telemetry=engine.telemetry
        )
        counters = engine.telemetry.registry.as_dict()["counters"]
        assert counters["ingest.points"] == len(disordered)
        assert counters["engine.disk_points_written"] == engine.stats.disk_writes
        assert counters["query.count"] == 1
        assert counters["query.disk_points_read"] >= counters["query.result_points"]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda t: ConventionalEngine(LsmConfig(128, 128), telemetry=t),
            lambda t: SeparationEngine(
                LsmConfig(128, 128, seq_capacity=64), telemetry=t
            ),
            lambda t: IoTDBStyleEngine(
                LsmConfig(128, 128), policy="separation", telemetry=t
            ),
            lambda t: MultiLevelEngine(
                LsmConfig(128, 128), size_ratio=2, max_levels=4, telemetry=t
            ),
            lambda t: TieredEngine(
                LsmConfig(128, 128), tier_fanout=2, max_levels=6, telemetry=t
            ),
        ],
        ids=["conventional", "separation", "iotdb", "multilevel", "tiered"],
    )
    def test_every_engine_emits_spans_and_compactions(self, factory, disordered):
        sink = RingBufferSink(capacity=100_000)
        engine = factory(Telemetry(sinks=[sink]))
        engine.ingest(disordered.tg[:8_000])
        engine.flush_all()
        types = {e["type"] for e in sink.events}
        assert "span" in types and "compaction" in types
        span_names = {e["name"] for e in sink.events if e["type"] == "span"}
        assert "flush" in span_names or "merge" in span_names

    def test_telemetry_does_not_change_wa(self, disordered):
        quiet = SeparationEngine(LsmConfig(256, 256, seq_capacity=128))
        loud = SeparationEngine(
            LsmConfig(256, 256, seq_capacity=128),
            telemetry=Telemetry(sinks=[RingBufferSink(64)]),
        )
        for engine in (quiet, loud):
            engine.ingest(disordered.tg)
            engine.flush_all()
        assert loud.stats.disk_writes == quiet.stats.disk_writes
        assert loud.stats.user_points == quiet.stats.user_points
        assert loud.write_amplification == quiet.write_amplification


class TestAdaptiveAndDatabase:
    def test_adaptive_engine_publishes_decisions(self):
        sink = RingBufferSink(capacity=100_000)
        telemetry = Telemetry(sinks=[sink])
        dataset = generate_synthetic(
            40_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=5
        )
        engine = AdaptiveEngine(
            LsmConfig(256, 256), check_interval=4096, telemetry=telemetry
        )
        engine.ingest(dataset.tg, dataset.ta)
        engine.flush_all()
        types = {e["type"] for e in sink.events}
        assert "compaction" in types
        decisions = [
            e for e in sink.events if e["type"] == "adaptive.decision"
        ]
        switches = [e for e in sink.events if e["type"] == "adaptive.switch"]
        assert len(decisions) == len(engine.decisions)
        assert len(switches) == len(engine.switches)

    def test_database_counts_routed_writes(self):
        sink = RingBufferSink(capacity=100_000)
        telemetry = Telemetry(sinks=[sink])
        db = TimeSeriesDatabase(
            memory_budget_per_series=64, sstable_size=64, telemetry=telemetry
        )
        rng = np.random.default_rng(0)
        for name in ("s1", "s2"):
            db.write(name, np.sort(rng.uniform(0, 1e4, 500)))
        db.flush_all()
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["db.series"] == 2
        assert counters["db.write.points"] == 1000
        assert counters["db.write.batches"] == 2
        created = [
            e for e in sink.events if e["type"] == "db.series_created"
        ]
        assert {e["series"] for e in created} == {"s1", "s2"}
