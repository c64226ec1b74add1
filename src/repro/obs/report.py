"""The reports behind ``repro report PATH``.

A JSONL trace — the read side of the JSONL sink — is folded in one pass
into one :class:`TraceSummary` and printed as two documents: the
telemetry sections (span timing by name, compaction volume by kind,
query cost) and the operator's stability sections (how well the
group-commit WAL coalesced, how often the admission controller changed
state or stalled a writer, how much landing work the incremental
scheduler committed).  A fleet prints its dashboard: one row per shard,
fleet totals and the last memory-arbiter rebalance.  Every
report is a :class:`repro.tables.Document`, like an experiment's result.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import TelemetryError
from ..tables import Document, ResultTable, format_table, format_value

__all__ = [
    "TraceSummary",
    "load_trace",
    "summarize_trace",
    "render_trace_report",
    "render_shard_report",
]

#: The volumes a compaction event carries; the report sums each by kind.
_COMPACTION_FIELDS = (
    "new_points",
    "rewritten_points",
    "tables_rewritten",
    "tables_written",
)

#: The numeric fields the summary reads, per event type.
_NUMBER_FIELDS = {
    "span": ("duration_ms",),
    "compaction": _COMPACTION_FIELDS,
    "query": ("result_points", "disk_points_read", "files_touched", "duration_ms"),
    "wal.group_commit": ("records", "bytes"),
    "backpressure": ("debt_points",),
    "stall": ("duration_ms", "work_points"),
}


def _check_event(event: dict, where: str) -> str:
    """The event's type, once everything the summary reads of it is sound.

    A trace is outside input: a ``type`` that is not a string would not
    sort beside one that is, and a count that is not a finite number
    would not add.  ``where`` names the event in the error.
    """
    etype = event.get("type", "?")
    if not isinstance(etype, str):
        raise TelemetryError(
            f"{where}: event type must be a string, got {etype!r}"
        )
    for key in _NUMBER_FIELDS.get(etype, ()):
        value = event.get(key, 0)
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise TelemetryError(
                f"{where}: {etype} event field {key!r} must be a finite "
                f"number, got {value!r}"
            )
    return etype


def load_trace(path: str | Path) -> list[dict]:
    """Parse one JSONL trace file into a list of checked event dicts."""
    path = Path(path)
    if not path.exists():
        raise TelemetryError(f"no such trace file: {path}")
    if path.is_dir():
        raise TelemetryError(f"{path} is a directory, not a JSONL trace file")
    events = []
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise TelemetryError(
                    f"{path}:{lineno}: not UTF-8 text: {exc}"
                ) from None
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TelemetryError(
                    f"{path}:{lineno}: invalid JSON event: {exc}"
                ) from None
            if not isinstance(event, dict):
                raise TelemetryError(
                    f"{path}:{lineno}: event must be a JSON object, "
                    f"got {type(event).__name__}"
                )
            _check_event(event, f"{path}:{lineno}")
            events.append(event)
    return events


@dataclass
class _SpanAgg:
    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    def add(self, duration_ms: float) -> None:
        self.count += 1
        self.total_ms += duration_ms
        self.max_ms = max(self.max_ms, duration_ms)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else float("nan")


@dataclass
class TraceSummary:
    """Aggregates of one trace, grouped the way the report prints them."""

    total_events: int = 0
    spans: dict[str, _SpanAgg] = field(default_factory=dict)
    #: Per kind: ``"count"`` and the sum of each :data:`_COMPACTION_FIELDS`.
    compactions: dict[str, Counter] = field(default_factory=dict)
    query_count: int = 0
    query_result_points: int = 0
    query_disk_points_read: int = 0
    query_files_touched: int = 0
    query_total_ms: float = 0.0
    other_types: Counter = field(default_factory=Counter)
    # Group-commit WAL.
    group_commits: int = 0
    group_records: int = 0
    group_bytes: int = 0
    max_group_records: int = 0
    # Backpressure state machine.
    transitions: list[tuple[str, str, int]] = field(default_factory=list)
    entered: Counter = field(default_factory=Counter)
    # Writer stalls (throttled / shedding waits).
    stalls: _SpanAgg = field(default_factory=_SpanAgg)
    stall_work_points: int = 0
    stalls_by_state: Counter = field(default_factory=Counter)
    # Incremental landings.
    incremental_merges: int = 0

    @property
    def read_amplification(self) -> float:
        """Trace-wide disk points read per result point (NaN if no results)."""
        if self.query_result_points == 0:
            return float("nan")
        return self.query_disk_points_read / self.query_result_points

    @property
    def coalescing_ratio(self) -> float:
        """Mean WAL records per coalesced write (1.0 = per-record)."""
        if self.group_commits == 0:
            return 1.0
        return self.group_records / self.group_commits


def summarize_trace(events: list[dict]) -> TraceSummary:
    """Fold a list of events into a :class:`TraceSummary`, in one pass.

    Events :func:`load_trace` read are sound; a hand-built list gets the
    same check here, the error naming the event by its position.
    """
    summary = TraceSummary()
    for index, event in enumerate(events):
        etype = _check_event(event, f"event {index}")
        summary.total_events += 1
        if etype == "span":
            name = str(event.get("name", "?"))
            summary.spans.setdefault(name, _SpanAgg()).add(
                float(event.get("duration_ms", 0.0))
            )
            if name == "merge" and event.get("incremental"):
                summary.incremental_merges += 1
        elif etype == "compaction":
            kind = str(event.get("kind", "?"))
            agg = summary.compactions.setdefault(kind, Counter())
            agg["count"] += 1
            for key in _COMPACTION_FIELDS:
                agg[key] += int(event.get(key, 0))
        elif etype == "query":
            summary.query_count += 1
            summary.query_result_points += int(event.get("result_points", 0))
            summary.query_disk_points_read += int(event.get("disk_points_read", 0))
            summary.query_files_touched += int(event.get("files_touched", 0))
            summary.query_total_ms += float(event.get("duration_ms", 0.0))
        else:
            summary.other_types[etype] += 1
        if etype == "wal.group_commit":
            records = int(event.get("records", 0))
            summary.group_commits += 1
            summary.group_records += records
            summary.group_bytes += int(event.get("bytes", 0))
            summary.max_group_records = max(summary.max_group_records, records)
        elif etype == "backpressure":
            target = str(event.get("to_state", "?"))
            summary.transitions.append(
                (
                    str(event.get("from_state", "?")),
                    target,
                    int(event.get("debt_points", 0)),
                )
            )
            summary.entered[target] += 1
        elif etype == "stall":
            summary.stalls.add(float(event.get("duration_ms", 0.0)))
            summary.stall_work_points += int(event.get("work_points", 0))
            summary.stalls_by_state[str(event.get("state", "?"))] += 1
    return summary


def _titled(kind: str, source: str) -> str:
    return f"{kind}: {source}" if source else kind


def _tally(counts: Counter) -> str:
    return ", ".join(f"{key}x{count}" for key, count in sorted(counts.items()))


def _telemetry_document(summary: TraceSummary, source: str) -> Document:
    doc = Document(
        _titled("telemetry report", source), f"{summary.total_events} events"
    )
    if summary.spans:
        doc.add_table(
            "spans",
            ["name", "count", "total_ms", "mean_ms", "max_ms"],
            [
                [name, agg.count, agg.total_ms, agg.mean_ms, agg.max_ms]
                for name, agg in sorted(summary.spans.items())
            ],
        )
    if summary.compactions:
        columns = ("count", *_COMPACTION_FIELDS)
        doc.add_table(
            "compaction events",
            ["kind", *columns],
            [
                [kind, *(agg[column] for column in columns)]
                for kind, agg in sorted(summary.compactions.items())
            ],
        )
    if summary.query_count:
        doc.add_table(
            "queries",
            [
                "count",
                "result_points",
                "disk_points_read",
                "files_touched",
                "total_ms",
                "read_amplification",
            ],
            [
                [
                    summary.query_count,
                    summary.query_result_points,
                    summary.query_disk_points_read,
                    summary.query_files_touched,
                    summary.query_total_ms,
                    summary.read_amplification,
                ]
            ],
        )
    if summary.other_types:
        doc.add_table(
            "other events",
            ["type", "count"],
            [[etype, count] for etype, count in sorted(summary.other_types.items())],
        )
    return doc


def _stability_document(summary: TraceSummary, source: str) -> Document:
    doc = Document(
        _titled("stability report", source), f"{summary.total_events} events"
    )
    if summary.group_commits:
        doc.add_table(
            "group-commit WAL",
            [
                "commits",
                "records",
                "bytes",
                "coalescing_ratio",
                "max_group_records",
            ],
            [
                [
                    summary.group_commits,
                    summary.group_records,
                    summary.group_bytes,
                    summary.coalescing_ratio,
                    summary.max_group_records,
                ]
            ],
        )
    else:
        doc.blocks.append(
            "group-commit WAL\n"
            "  no coalesced commits (per-record WAL, or trace has no "
            "wal.group_commit events)"
        )
    if summary.transitions:
        table = ResultTable(
            "backpressure transitions",
            ["transition", "debt_points"],
            [
                [f"{source_state} -> {target_state}", debt]
                for source_state, target_state, debt in summary.transitions
            ],
        )
        doc.blocks.append(
            f"{table.render()}\n  states entered: {_tally(summary.entered)}"
        )
    else:
        doc.blocks.append(
            "backpressure transitions\n"
            "  none (admission controller stayed healthy)"
        )
    stalls = summary.stalls
    if stalls.count:
        table = ResultTable(
            "writer stalls",
            ["count", "total_ms", "mean_ms", "max_ms", "work_points"],
            [
                [
                    stalls.count,
                    stalls.total_ms,
                    stalls.mean_ms,
                    stalls.max_ms,
                    summary.stall_work_points,
                ]
            ],
        )
        doc.blocks.append(
            f"{table.render()}\n  by state: {_tally(summary.stalls_by_state)}"
        )
    else:
        doc.blocks.append("writer stalls\n  none")
    if summary.incremental_merges:
        doc.blocks.append(
            f"incremental landings: {summary.incremental_merges} "
            "scheduler-committed merges"
        )
    return doc


def render_trace_report(events: list[dict], source: str = "") -> str:
    """The full plain-text report for a loaded trace: the telemetry
    sections, then the stability sections, from one summary."""
    summary = summarize_trace(events)
    return "\n\n".join(
        document(summary, source).render()
        for document in (_telemetry_document, _stability_document)
    )


def _shard_rows(fleet) -> list[list]:
    rows = []
    for index, db in enumerate(fleet.shards):
        report = db.report()
        budget = sum(
            db.series(name).config.memory_budget for name in db.series_names()
        )
        wal_bytes = sum(
            state.engine.wal.size_bytes()
            for state in (db.series(name) for name in db.series_names())
            if state.engine.wal is not None
        )
        rows.append(
            [
                db.namespace or f"shard-{index:02d}",
                report.series_count,
                report.total_points,
                report.total_disk_writes,
                report.write_amplification,
                budget,
                wal_bytes,
                fleet.shard_backpressure_state(index),
            ]
        )
    return rows


def render_shard_report(fleet, source: str = "") -> str:
    """The plain-text fleet report for a (live or recovered) fleet.

    ``fleet`` is a :class:`~repro.serving.ShardedDatabase`; ``source``
    labels the report header (e.g. the durability directory).
    """
    rows = _shard_rows(fleet)
    total_points = sum(row[2] for row in rows)
    total_writes = sum(row[3] for row in rows)
    fleet_wa = total_writes / total_points if total_points else float("nan")
    doc = Document(
        _titled("shard report", source),
        f"{fleet.n_shards} shards (hash routing), "
        f"{sum(row[1] for row in rows)} series, "
        f"{total_points} points, fleet WA {format_value(fleet_wa)}, "
        f"admission {fleet.backpressure_state()}",
    )
    doc.blocks.append(
        format_table(
            [
                "shard",
                "series",
                "points",
                "disk_writes",
                "wa",
                "budget",
                "wal_bytes",
                "backpressure",
            ],
            rows,
        )
    )
    decision = fleet.last_rebalance
    if decision is None:
        doc.blocks.append("last rebalance: none")
        return doc.render()
    caption = (
        f"last rebalance: tick {decision.get('tick')}, "
        f"objective {format_value(float(decision.get('objective', float('nan'))))}, "
        f"{len(decision.get('changed', []))} resized "
        f"of {len(decision.get('budgets', {}))} profiled "
        f"(total budget {decision.get('total_budget')})"
    )
    budgets = decision.get("budgets", {})
    if budgets:
        changed = set(decision.get("changed", []))
        doc.add_table(
            caption,
            ["series", "budget", "resized"],
            [
                [name, budgets[name], "yes" if name in changed else ""]
                for name in sorted(budgets)
            ],
        )
    else:
        doc.blocks.append(caption)
    return doc.render()
