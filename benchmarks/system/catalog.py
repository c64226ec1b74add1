"""The benchmark's vocabulary: workloads, metrics, bounds, layers.

Single source of truth for every name the benchmark prints.
``BENCHMARK.json`` at the repository root is the driver-facing copy;
``test_selfcheck.py`` asserts the two agree.

Two gates read this table:

* the **driver** gates the metrics of :func:`driver_end_to_end`.  Its
  contract wants every gated metric reported, non-zero, by *every*
  workload, so only metrics that exist on all four qualify;
* ``run.py --check-repeat`` gates every :data:`END_TO_END` entry on the
  workloads it :attr:`Metric.applies_to`, which keeps the durability
  metrics (two workloads only) and the ingest tail under a bound too.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("fleet_ingest_durable", "bulk_ingest_kernel", "read_storm", "mixed_live")
DURABLE = ("fleet_ingest_durable", "mixed_live")
CLOSED = ("fleet_ingest_durable", "bulk_ingest_kernel", "read_storm")

#: name -> why the workload exists (one line each, <= 200 characters).
WORKLOADS: dict[str, str] = {
    "fleet_ingest_durable": (
        "closed loop, 128x16-point synced batches into the WAL + group-commit + "
        "scheduler fleet: per-call routing, framing, barriers and admission dominate, "
        "the policy kernel does not"
    ),
    "bulk_ingest_kernel": (
        "closed loop, 4096x16-point batches, no WAL, stop-the-world landing: "
        "placement/flush/compaction do nearly all the work, so a kernel speed-up "
        "shows here and barely moves the durable path"
    ),
    "read_storm": (
        "closed loop, read-only class mix on a loaded half-cold fleet: random windows "
        "outnumber the federation cache 50:1 while a 64-panel pool is re-read, so both "
        "sides of every read cache run"
    ),
    "mixed_live": (
        "open loop at a frozen rate, ingest beside reads on the durable fleet, latency "
        "from due time: the only place writes invalidate read caches and a landing "
        "stall reaches queries"
    ),
}


@dataclass(frozen=True)
class Metric:
    """One named number the benchmark reports."""

    name: str
    unit: str
    #: ``"lower"`` or ``"higher"``.
    better: str
    #: Share of the baseline median by which it may worsen (``None`` =
    #: reported, never gated: zero by construction, or demoted because
    #: no bound up to the 0.25 ceiling would hold).
    bound: float | None = None
    #: Workloads on which the number is defined.
    applies_to: tuple[str, ...] = ALL
    #: Counts that must repeat bit-identically for one (seed, size).
    exact: bool = False
    #: False = bounded under ``--check-repeat`` only (same seed on both
    #: sides): over ten *different* seeds its spread exceeds the 0.25
    #: ceiling on at least one workload, and the driver takes a metric
    #: on all workloads or on none.
    driver_gated: bool = True
    #: What it should move (per-layer) / how it is taken (end-to-end).
    note: str = ""


# Bounds come from the measured spreads in README.md ("Measured spreads").
# Counts get at least three times their inter-quartile spread over ten
# seeds.  Timings are speed-corrected (speed.py) and get the driver's
# ceiling, 0.25: corrected throughputs spread 3-12% over ten seeds on the
# 2-core baseline VM and their medians move up to 11% between sets taken
# in different weather (the wall-clock values: 13-34% and 40%).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           note="median of three fleet builds: create, ingest the prefix, retune; "
                "speed-corrected, like every timing in this table"),
    Metric("ingest_points_per_s", "points/s", "higher", 0.25,
           note="median over equal-work segments of the ingest phase "
                "(read_storm: its bulk load; mixed_live: achieved)"),
    Metric("ingest_batch_p50_ms", "ms", "lower", 0.25, driver_gated=False,
           note="per ingest_batch call; mixed_live: completion - due time; "
                "--check-repeat only: queueing on mixed_live when the VM slows (6-54% spread)"),
    Metric("ingest_batch_p99_ms", "ms", "lower", None, applies_to=DURABLE,
           note=">= 1000 calls only, so not on the two large-batch workloads; reported, "
                "not gated: 7-23% spread closed-loop, over 100% on mixed_live"),
    Metric("query_per_s", "queries/s", "higher", 0.25,
           note="median over equal-work segments (ingest workloads: the read-back "
                "probe; mixed_live: achieved)"),
    Metric("query_p50_ms", "ms", "lower", 0.25, driver_gated=False,
           note="mixed_live: completion - due time; "
                "--check-repeat only: queueing on mixed_live when the VM slows (10-92% spread)"),
    Metric("query_p99_ms", "ms", "lower", None,
           note="p99 within each quarter of the phase, median of the four quarters; "
                "reported, not gated: 4-15% spread closed-loop, over 80% on mixed_live"),
    Metric("write_amplification", "writes/point", "lower", 0.05, exact=True,
           note="fleet-wide disk writes / user points from engine.stats"),
    Metric("read_amplification", "reads/result", "lower", 0.10, exact=True,
           note="sum disk_points_read / sum result_points over returned QueryStats"),
    Metric("fsyncs_per_kpoint", "1/kpoint", "lower", 0.02, applies_to=DURABLE,
           exact=True, note="fsync barriers per 1000 acknowledged points"),
    Metric("disk_bytes_per_point", "B/point", "lower", 0.02,
           applies_to=("fleet_ingest_durable",), exact=True,
           note="(WAL + checkpoint + manifest bytes) / user point after checkpoint_all"),
    Metric("recover_s", "s", "lower", 0.25, applies_to=("fleet_ingest_durable",),
           note="ShardedDatabase.recover after the crash, median of 3"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, note="ru_maxrss of the run's process"),
    Metric("failed_ops_frac", "frac", "lower", None, exact=True,
           note="failed / attempted; any non-zero value fails the command"),
)


def _layer(name: str, unit: str, better: str, moves: str, on: tuple[str, ...] = ALL):
    return Metric(name, unit, better, None, on, note=moves)


PER_LAYER: tuple[Metric, ...] = (
    # serving.router
    _layer("serving.router.split_batch_us_per_call", "us", "lower",
           "ingest_batch_p50_ms on fleet_ingest_durable (fixed cost per small call)"),
    _layer("serving.router.shards_pruned_per_query", "count", "higher",
           "query_p50_ms on read_storm"),
    # serving.database
    _layer("serving.database.ingest_self_frac", "frac", "lower",
           "ingest_points_per_s on fleet_ingest_durable"),
    _layer("serving.database.wrapper_ratio", "x", "lower",
           "ingest_points_per_s on bulk_ingest_kernel (ingest_batch time / bare "
           "engine.ingest time, same points)"),
    # lsm.database
    _layer("lsm.database.write_self_frac", "frac", "lower",
           "ingest_points_per_s on both closed-loop ingest workloads"),
    _layer("lsm.database.wrapper_ratio", "x", "lower",
           "ingest_points_per_s (TimeSeriesDatabase.write / bare engine.ingest)"),
    # core
    _layer("core.analyzer.observe_frac", "frac", "lower",
           "ingest_points_per_s on bulk_ingest_kernel"),
    _layer("core.tuning.retune_s", "s", "lower", "setup_s everywhere"),
    _layer("core.tuning.series_separated", "count", "higher",
           "setup_s; which kernel the ingest phase runs"),
    # lsm.wal
    _layer("lsm.wal.append_frac", "frac", "lower",
           "ingest_points_per_s on the durable workloads", DURABLE),
    _layer("lsm.wal.sync_frac", "frac", "lower",
           "ingest_batch_p99_ms on the durable workloads", DURABLE),
    _layer("lsm.wal.bytes_per_point", "B/point", "lower", "disk_bytes_per_point", DURABLE),
    _layer("lsm.wal.coalescing_ratio", "records/group", "higher",
           "fsyncs_per_kpoint", DURABLE),
    _layer("lsm.wal.groups_committed", "count", "lower", "fsyncs_per_kpoint", DURABLE),
    _layer("lsm.wal.fsyncs", "count", "lower", "fsyncs_per_kpoint", DURABLE),
    # lsm.backpressure
    _layer("lsm.backpressure.admit_frac", "frac", "lower",
           "ingest_batch_p99_ms on mixed_live", DURABLE),
    _layer("lsm.backpressure.throttled_batches", "count", "lower",
           "ingest_batch_p99_ms on mixed_live", DURABLE),
    _layer("lsm.backpressure.shed_batches", "count", "lower",
           "failed_ops_frac on mixed_live", DURABLE),
    # lsm.policies
    _layer("lsm.policies.ingest_frac", "frac", "lower",
           "ingest_points_per_s: large share on bulk_ingest_kernel, small on "
           "fleet_ingest_durable"),
    _layer("lsm.policies.pi_c_ns_per_point", "ns/point", "lower",
           "ingest_points_per_s on bulk_ingest_kernel"),
    _layer("lsm.policies.pi_s_ns_per_point", "ns/point", "lower",
           "ingest_points_per_s on bulk_ingest_kernel"),
    _layer("lsm.policies.pi_s_over_pi_c", "x", "lower",
           "ingest_points_per_s on bulk_ingest_kernel (the separation gap)"),
    _layer("lsm.policies.flushes", "count", "lower",
           "write_amplification; must not move under a pure speed-up"),
    _layer("lsm.policies.merges", "count", "lower", "write_amplification"),
    _layer("lsm.policies.points_rewritten", "count", "lower", "write_amplification"),
    # lsm.scheduler
    _layer("lsm.scheduler.run_frac", "frac", "lower",
           "ingest_batch_p99_ms on fleet_ingest_durable", DURABLE),
    _layer("lsm.scheduler.max_batch_work_points", "points", "lower",
           "ingest_batch_p99_ms on fleet_ingest_durable", DURABLE),
    _layer("lsm.scheduler.backlog_points_max", "points", "lower",
           "query_p99_ms on mixed_live, through stalls", DURABLE),
    # lsm.checkpoint / lsm.recovery
    _layer("lsm.checkpoint.checkpoint_all_s", "s", "lower", "recover_s (data volume)",
           ("fleet_ingest_durable",)),
    _layer("lsm.checkpoint.bytes_per_point", "B/point", "lower", "disk_bytes_per_point",
           ("fleet_ingest_durable",)),
    _layer("lsm.recovery.restore_frac", "frac", "lower", "recover_s",
           ("fleet_ingest_durable",)),
    _layer("lsm.recovery.replay_frac", "frac", "lower", "recover_s",
           ("fleet_ingest_durable",)),
    _layer("lsm.recovery.verify_frac", "frac", "lower", "recover_s",
           ("fleet_ingest_durable",)),
    _layer("lsm.recovery.wal_tail_points", "points", "lower", "recover_s",
           ("fleet_ingest_durable",)),
    # serving.federation
    _layer("serving.federation.q_recent_p50_us", "us", "lower", "query_p50_ms on read_storm"),
    _layer("serving.federation.q_panel_p50_us", "us", "lower",
           "query_p50_ms: cache hit on read_storm, miss on mixed_live"),
    _layer("serving.federation.q_hist_rows_p50_us", "us", "lower",
           "query_p99_ms on read_storm", CLOSED),
    _layer("serving.federation.q_fleet_agg_p50_us", "us", "lower",
           "query_p99_ms on read_storm"),
    _layer("serving.federation.cache_hit_rate", "frac", "higher",
           "query_p50_ms: about the panel share on read_storm, collapses on mixed_live"),
    _layer("serving.federation.self_frac", "frac", "lower", "query_per_s on read_storm"),
    _layer("serving.federation.fanout_mean", "shards", "lower", "query_p99_ms on read_storm"),
    # lsm.snapshot
    _layer("lsm.snapshot.build_frac", "frac", "lower",
           "query_p50_ms on mixed_live (every tick invalidates), none on read_storm"),
    _layer("lsm.snapshot.cache_hit_rate", "frac", "higher", "query_p50_ms on mixed_live"),
    # lsm.pruning
    _layer("lsm.pruning.tables_consulted_per_query", "tables", "lower",
           "query_p50_ms and read_amplification on read_storm"),
    _layer("lsm.pruning.tables_pruned_frac", "frac", "higher",
           "read_amplification on read_storm"),
    # query.* / lsm.blocks
    _layer("query.executor.scan_frac", "frac", "lower", "query_p99_ms on read_storm"),
    _layer("query.aggregation.agg_frac", "frac", "lower", "query_p99_ms on read_storm"),
    _layer("query.aggregation.blocks_stat_answered_frac", "frac", "higher",
           "query_p99_ms on read_storm (q_fleet_agg over the cold series)"),
    _layer("lsm.blocks.blocks_skipped_per_query", "blocks", "higher",
           "read_amplification on read_storm"),
    _layer("lsm.blocks.convert_cold_s", "s", "lower", "nothing gated; read_storm load cost",
           ("read_storm",)),
    _layer("query.merge.merge_frac", "frac", "lower", "query_p99_ms on read_storm"),
    # loadgen (the benchmark itself)
    _layer("loadgen.late_tick_frac", "frac", "lower",
           "validity of mixed_live: > 1% marks the run overloaded", ("mixed_live",)),
    _layer("loadgen.max_lateness_ms", "ms", "lower", "validity of mixed_live",
           ("mixed_live",)),
    _layer("loadgen.sustained_points_per_s", "points/s", "higher",
           "diagnostic step function: highest ladder rung meeting the 50 ms p99 limit",
           ("mixed_live",)),
    # obs
    _layer("obs.trace_overhead_frac", "frac", "lower",
           "trust in the per-layer shares (span bookkeeping cost / traced time)"),
    _layer("obs.layer_coverage_frac", "frac", "higher",
           "trust in the per-layer shares (>= 0.90 asserted)"),
    _layer("obs.machine_speed", "x", "higher",
           "nothing: the reference kernel's speed during the run (1.0 = baseline), "
           "whose power 1.4 is the factor between wall-clock and speed-corrected timings"),
)

#: Per-layer metrics whose non-zero value is only possible with a WAL,
#: a scheduler or an admission controller.
DURABLE_ONLY_PREFIXES = ("lsm.wal.", "lsm.scheduler.", "lsm.backpressure.")


def driver_end_to_end() -> list[Metric]:
    """End-to-end metrics the driver gates: defined on every workload
    and steady enough across seeds."""
    return [
        m for m in END_TO_END
        if m.bound is not None and m.applies_to == ALL and m.driver_gated
    ]


def driver_per_layer() -> list[Metric]:
    """What ``--trace 1`` reports: every layer metric, plus the
    end-to-end metrics the driver does not gate (reported there under
    their own names, without a driver bound)."""
    gated = {m.name for m in driver_end_to_end()}
    return list(PER_LAYER) + [m for m in END_TO_END if m.name not in gated]


def benchmark_json(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in driver_end_to_end()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in driver_per_layer()
        ],
    }
