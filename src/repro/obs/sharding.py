"""Render the fleet dashboard for a sharded serving tier.

``repro shard-report <fleet_dir>`` recovers the fleet from its
durability directory and prints the operator view: one row per shard
(series, points, disk writes, WA, MemTable budget, WAL bytes,
backpressure state), fleet totals, and the last memory-arbiter
rebalance decision recorded in the fleet manifest.  Formatting reuses
the aligned tables of :mod:`repro.obs.report`.
"""

from __future__ import annotations

from .metrics import labelled_name
from .report import _format_cell, _table

__all__ = ["render_shard_report", "render_federation_report"]


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
    title = "== shard report"
    if source:
        title += f": {source}"
    rows = _shard_rows(fleet)
    total_points = sum(row[2] for row in rows)
    total_writes = sum(row[3] for row in rows)
    fleet_wa = total_writes / total_points if total_points else float("nan")
    parts = [
        title,
        f"{fleet.n_shards} shards ({fleet.router.mode} routing), "
        f"{sum(row[1] for row in rows)} series, "
        f"{total_points} points, fleet WA {_format_cell(fleet_wa)}, "
        f"admission {fleet.backpressure_state()}",
        "",
        _table(
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
        ),
    ]
    decision = fleet.last_rebalance
    parts.append("")
    if decision is None:
        parts.append("last rebalance: none")
    else:
        parts.append(
            f"last rebalance: tick {decision.get('tick')}, "
            f"objective {_format_cell(float(decision.get('objective', float('nan'))))}, "
            f"{len(decision.get('changed', []))} resized "
            f"of {len(decision.get('budgets', {}))} profiled "
            f"(total budget {decision.get('total_budget')})"
        )
        budgets = decision.get("budgets", {})
        if budgets:
            changed = set(decision.get("changed", []))
            parts.append(
                _table(
                    ["series", "budget", "resized"],
                    [
                        [name, budgets[name], "yes" if name in changed else ""]
                        for name in sorted(budgets)
                    ],
                )
            )
    return "\n".join(parts)


def render_federation_report(fleet, source: str = "") -> str:
    """Federated read-path attribution for a fleet with telemetry on.

    One row per shard out of the fleet bus registry: series owned,
    ``query.*`` reads served, federation cache hits/misses, and the
    ``federation.shard_latency_ms`` histogram summary (scatters, mean
    and max milliseconds).  The header rolls up the fleet-level
    counters — federated queries, single-shard fast-path hits and
    shards pruned by routing.
    """
    registry = fleet.telemetry.registry
    title = "== federation report"
    if source:
        title += f": {source}"
    queries = registry.counter("federation.queries").value
    single = registry.counter("federation.single_shard").value
    pruned = registry.counter("federation.shards_pruned").value
    hits = registry.shard_values("federation.cache_hits")
    misses = registry.shard_values("federation.cache_misses")
    reads = registry.shard_values("query.count")
    rows = []
    for index, db in enumerate(fleet.shards):
        shard = db.namespace or f"shard-{index:02d}"
        latency = registry.histogram(
            labelled_name("federation.shard_latency_ms", shard)
        )
        rows.append(
            [
                shard,
                len(db.series_names()),
                int(reads.get(shard, 0)),
                int(hits.get(shard, 0)),
                int(misses.get(shard, 0)),
                latency.count,
                latency.mean,
                latency.max if latency.count else float("nan"),
            ]
        )
    return "\n".join(
        [
            title,
            f"{fleet.n_shards} shards ({fleet.router.mode} routing), "
            f"{int(queries)} federated queries "
            f"({int(single)} single-shard fast path), "
            f"{int(pruned)} shard fan-outs pruned",
            "",
            _table(
                [
                    "shard",
                    "series",
                    "reads",
                    "cache_hits",
                    "cache_misses",
                    "scatters",
                    "lat_mean_ms",
                    "lat_max_ms",
                ],
                rows,
            ),
        ]
    )
