"""Observability: metrics registry, structured event bus, trace reports.

The telemetry layer makes every ingest/flush/merge/query path in the
simulator observable without changing its semantics:

* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms (:mod:`repro.obs.metrics`);
* :class:`Telemetry` — the event bus: ``emit`` structured events to
  pluggable sinks (ring buffer, JSONL file) and time phases with nested
  ``span()`` contexts (:mod:`repro.obs.telemetry`);
* :func:`render_trace_report` — turn a captured JSONL trace back into
  aligned summary tables — span, compaction and query sections, then the
  robustness view: group-commit coalescing, backpressure transitions and
  writer stalls — and :func:`render_shard_report`, the fleet dashboard:
  the two reports of the one ``repro report PATH`` command
  (:mod:`repro.obs.report`).

Telemetry is off by default and the disabled bus is a constant-time
no-op.  There is one way in: hand an engine, database or fleet the bus
it should publish to (``telemetry=Telemetry(sinks=[JsonlFileSink(path)])``),
or install a process-wide one with :func:`configure_telemetry`.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labelled_name,
    split_labelled,
)
from .report import (
    TraceSummary,
    load_trace,
    render_shard_report,
    render_trace_report,
    summarize_trace,
)
from .sinks import (
    JsonlFileSink,
    RingBufferSink,
    TelemetrySink,
)
from .telemetry import (
    NULL_TELEMETRY,
    Span,
    Telemetry,
    configure_telemetry,
    global_telemetry,
    reset_global_telemetry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "Span",
    "NULL_TELEMETRY",
    "configure_telemetry",
    "global_telemetry",
    "reset_global_telemetry",
    "TelemetrySink",
    "RingBufferSink",
    "JsonlFileSink",
    "TraceSummary",
    "load_trace",
    "summarize_trace",
    "render_trace_report",
    "labelled_name",
    "split_labelled",
    "render_shard_report",
]
