"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro list
    python -m repro fig07
    python -m repro fig09 --scale 0.5 --seed 1
    python -m repro all --scale 0.2 --workers 4
    python -m repro run-all --workers 4
    python -m repro run-all --workers 4 --no-cache --scale 0.5
    python -m repro fig07 --trace trace.jsonl
    python -m repro telemetry-report trace.jsonl
    python -m repro stability-report trace.jsonl
    python -m repro crash-test --engines all --seeds 3 --workers 4
    python -m repro crash-test --faults fsync_delay,slow_merge --seeds 2
    python -m repro crash-test --fleet --shards 4 --seeds 2
    python -m repro checkpoint --dir state/
    python -m repro recover --dir state/
    python -m repro shard-report --dir fleet/
    python -m repro federated-report --shards 4
    python -m repro engines
    python -m repro cold-report --points 200000 --block-size 256
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .errors import ReproError
from .experiments import experiment_ids, run_experiment
from .obs import configure_telemetry, load_trace, render_trace_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures/tables of 'Separation or Not' (ICDE 2022)"
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (see 'list'), 'all', 'list', or a subcommand: "
            "'run-all', 'telemetry-report <trace.jsonl>', "
            "'stability-report <trace.jsonl>', 'crash-test', "
            "'checkpoint', 'recover', 'shard-report', "
            "'federated-report', 'engines'"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset-size multiplier (default 1.0; paper scale is ~100x)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the default RNG seed"
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="also write each result table as CSV into this directory",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "capture telemetry (experiment wall-times, engine flush/merge "
            "events) as JSON lines into PATH; inspect it later with "
            "'telemetry-report PATH'"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan experiments out over N worker processes (default: serial; "
            "-1 = one per CPU); results are bit-identical to the serial run"
        ),
    )
    return parser


def _build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments telemetry-report",
        description=(
            "Summarise a JSONL telemetry trace: span timings, compaction "
            "volumes, query costs"
        ),
    )
    parser.add_argument("trace", help="path to a JSONL trace file")
    return parser


def _telemetry_report(argv: list[str]) -> int:
    """The ``telemetry-report`` subcommand; returns an exit code."""
    args = _build_report_parser().parse_args(argv)
    try:
        events = load_trace(args.trace)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(render_trace_report(events, source=args.trace))
    return 0


def _build_stability_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments stability-report",
        description=(
            "Summarise the robustness signals in a JSONL telemetry trace: "
            "group-commit coalescing ratios, backpressure state "
            "transitions, and writer stall counts/durations"
        ),
    )
    parser.add_argument("trace", help="path to a JSONL trace file")
    return parser


def _stability_report(argv: list[str]) -> int:
    """The ``stability-report`` subcommand; returns an exit code."""
    from .obs import render_stability_report

    args = _build_stability_report_parser().parse_args(argv)
    try:
        events = load_trace(args.trace)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(render_stability_report(events, source=args.trace))
    return 0


def _build_crash_test_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments crash-test",
        description=(
            "Fault-injection crash matrix: for every engine x fault kind x "
            "seed, ingest under an armed fault, crash, recover from WAL "
            "(+checkpoint), verify invariants, and check the recovered "
            "write amplification equals a crash-free rerun"
        ),
    )
    parser.add_argument(
        "--engines",
        default="all",
        help=(
            "comma-separated engine keys "
            "(pi_c,pi_s,adaptive,iotdb,multilevel,tiered) or 'all'"
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="seeds per (engine, fault) cell"
    )
    parser.add_argument(
        "--faults",
        default=None,
        help=(
            "comma-separated fault kinds to sweep (default: the four "
            "crash/corruption kinds); overload kinds 'fsync_delay' and "
            "'slow_merge' run the engines degraded under group-commit + "
            "the incremental compaction scheduler"
        ),
    )
    parser.add_argument(
        "--points", type=int, default=6000, help="points ingested per case"
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="keep WAL/checkpoint files here instead of a temp directory",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run matrix cells on N worker processes (default: serial; "
            "-1 = one per CPU)"
        ),
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "run the fleet crash matrix instead: kill one shard of a "
            "sharded serving tier mid-group-commit, recover only that "
            "shard, and check the survivors are byte-for-byte untouched "
            "(--engines/--points/--workers do not apply)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="fleet width for --fleet cases (default 4)",
    )
    return parser


def _crash_test(argv: list[str]) -> int:
    """The ``crash-test`` subcommand; returns an exit code."""
    from .faults.crashtest import run_crash_test, run_fleet_crash_test

    args = _build_crash_test_parser().parse_args(argv)
    engines = (
        None
        if args.engines == "all"
        else [key.strip() for key in args.engines.split(",") if key.strip()]
    )
    faults = (
        None
        if args.faults is None
        else [kind.strip() for kind in args.faults.split(",") if kind.strip()]
    )
    try:
        if args.fleet:
            report = run_fleet_crash_test(
                seeds=args.seeds,
                workdir=args.workdir,
                faults=faults,
                n_shards=args.shards,
            )
        else:
            report = run_crash_test(
                engines=engines,
                seeds=args.seeds,
                n_points=args.points,
                workdir=args.workdir,
                workers=args.workers,
                faults=faults,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def _build_checkpoint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments checkpoint",
        description=(
            "Ingest a seeded synthetic fleet into a WAL-backed database "
            "and checkpoint every series; 'recover --dir' revives it"
        ),
    )
    parser.add_argument(
        "--dir", required=True, dest="durability_dir",
        help="durability directory for WALs, checkpoints and the manifest",
    )
    parser.add_argument(
        "--series", type=int, default=3, help="number of series to ingest"
    )
    parser.add_argument(
        "--points", type=int, default=20_000, help="points per series"
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    return parser


def _checkpoint(argv: list[str]) -> int:
    """The ``checkpoint`` subcommand; returns an exit code."""
    from .distributions import ExponentialDelay
    from .lsm import TimeSeriesDatabase
    from .workloads import generate_synthetic

    args = _build_checkpoint_parser().parse_args(argv)
    try:
        db = TimeSeriesDatabase(durability_dir=args.durability_dir)
        for index in range(args.series):
            dataset = generate_synthetic(
                args.points,
                dt=1.0,
                delay=ExponentialDelay(mean=40.0),
                seed=args.seed + index,
            )
            db.write(f"series-{index}", dataset.tg, dataset.ta)
        manifest = db.checkpoint_all()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for name in db.series_names():
        engine = db.series(name).engine
        print(
            f"{name}: {engine.ingested_points} points, "
            f"wa={engine.write_amplification:.3f}"
        )
    print(f"[checkpoint manifest written to {manifest}]")
    return 0


def _build_recover_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments recover",
        description=(
            "Recover a database from a durability directory: restore each "
            "series' checkpoint (falling back to full WAL replay when "
            "corrupt), replay the WAL tail, and verify invariants"
        ),
    )
    parser.add_argument(
        "--dir", required=True, dest="durability_dir",
        help="durability directory written by 'checkpoint'",
    )
    return parser


def _recover(argv: list[str]) -> int:
    """The ``recover`` subcommand; returns an exit code."""
    from .lsm import TimeSeriesDatabase

    args = _build_recover_parser().parse_args(argv)
    try:
        db = TimeSeriesDatabase.recover(args.durability_dir)
        for name in db.series_names():
            engine = db.series(name).engine
            engine.verify()
            print(
                f"{name}: recovered {engine.ingested_points} points, "
                f"wa={engine.write_amplification:.3f}, invariants ok"
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"[recovered {len(db)} series from {args.durability_dir}]")
    return 0


def _build_shard_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments shard-report",
        description=(
            "Recover a sharded serving tier from its fleet durability "
            "directory and print the operator view: per-shard series, "
            "points, disk writes, WA, MemTable budget, WAL bytes and "
            "backpressure state, plus the last memory-arbiter rebalance"
        ),
    )
    parser.add_argument(
        "--dir", required=True, dest="durability_dir",
        help="fleet durability directory (contains fleet.json)",
    )
    return parser


def _shard_report(argv: list[str]) -> int:
    """The ``shard-report`` subcommand; returns an exit code."""
    from .obs.sharding import render_shard_report
    from .serving import ShardedDatabase

    args = _build_shard_report_parser().parse_args(argv)
    try:
        fleet = ShardedDatabase.recover(args.durability_dir)
        print(render_shard_report(fleet, source=args.durability_dir))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _build_run_all_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments run-all",
        description=(
            "Run every registered experiment through the parallel driver: "
            "unchanged experiments are served from the result cache, the "
            "rest fan out over a worker pool; results are bit-identical "
            "to a serial run"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: serial; -1 = one per CPU)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-run; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset-size multiplier"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the default RNG seed"
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="also write each result table as CSV into this directory",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="capture merged telemetry (workers included) as JSONL into PATH",
    )
    return parser


def _run_all(argv: list[str]) -> int:
    """The ``run-all`` subcommand; returns an exit code."""
    from .parallel import ResultCache, run_experiments

    args = _build_run_all_parser().parse_args(argv)
    if args.trace is not None:
        configure_telemetry(sink=f"jsonl:{args.trace}")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    started = time.perf_counter()
    try:
        runs = run_experiments(
            scale=args.scale,
            seed=args.seed,
            workers=args.workers,
            cache=cache,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for run in runs:
        print(run.result.render())
        if args.csv_dir is not None:
            for path in run.result.save_csv(args.csv_dir):
                print(f"[wrote {path}]")
        status = "cached" if run.cached else f"ran in {run.duration_s:.1f}s"
        print(f"\n[{run.experiment_id}: {status}]\n")
    elapsed = time.perf_counter() - started
    cached = sum(1 for run in runs if run.cached)
    print(
        f"[run-all: {len(runs)} experiments ({cached} cached) in "
        f"{elapsed:.1f}s, workers={args.workers or 1}]"
    )
    if args.trace is not None:
        print(f"[telemetry trace written to {args.trace}]")
    return 0


def _build_engines_parser() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(
        prog="repro-experiments engines",
        description=(
            "List every registered engine as its policy triple (placement "
            "x flush x compaction); novel combinations are available via "
            "repro.lsm.policies.compose_engine"
        ),
    )


def _engines(argv: list[str]) -> int:
    """The ``engines`` subcommand; returns an exit code."""
    from .lsm.policies import engine_compositions

    _build_engines_parser().parse_args(argv)
    rows = engine_compositions()
    headers = ("engine", "policy_name", "placement", "flush", "compaction")
    widths = [
        max(len(header), max(len(row[header]) for row in rows))
        for header in headers
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(row[h].ljust(w) for h, w in zip(headers, widths)))
    print(f"[{len(rows)} engine configurations registered]")
    return 0


def _build_cold_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments cold-report",
        description=(
            "Demonstrate the columnar cold tier: ingest a synthetic "
            "out-of-order stream, convert the settled tables to the "
            "columnar block format, and compare aggregation served from "
            "block statistics against the row-scan path (results are "
            "verified bit-identical)"
        ),
    )
    parser.add_argument(
        "--points", type=int, default=120_000,
        help="stream length (default 120000)",
    )
    parser.add_argument(
        "--sstable-size", type=int, default=8192,
        help="points per SSTable (default 8192)",
    )
    parser.add_argument(
        "--block-size", type=int, default=256,
        help="points per columnar statistics block (default 256)",
    )
    parser.add_argument(
        "--windows", type=int, default=32,
        help="aggregation windows per timing pass (default 32)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed (default 0)"
    )
    return parser


def _cold_report(argv: list[str]) -> int:
    """The ``cold-report`` subcommand; returns an exit code."""
    import numpy as np

    from .config import LsmConfig
    from .lsm.conventional import ConventionalEngine
    from .query.aggregation import execute_aggregate_query
    from .distributions import LogNormalDelay
    from .workloads import generate_synthetic

    args = _build_cold_report_parser().parse_args(argv)
    config = LsmConfig(
        memory_budget=args.sstable_size,
        sstable_size=args.sstable_size,
        cold_block_size=args.block_size,
    ).with_telemetry()
    engine = ConventionalEngine(config)
    stream = generate_synthetic(
        args.points, dt=50.0, delay=LogNormalDelay(5.0, 2.0), seed=args.seed
    )
    engine.ingest(stream.tg)
    engine.flush_all()
    snapshot = engine.snapshot()
    lo_all, hi_all = float(stream.tg.min()), float(stream.tg.max())
    span = hi_all - lo_all
    rng = np.random.default_rng(args.seed)
    windows = [
        (lo, lo + 0.4 * span)
        for lo in rng.uniform(lo_all, hi_all - 0.4 * span, size=args.windows)
    ]

    def timed_pass():
        start = time.perf_counter()
        results = [
            execute_aggregate_query(snapshot, lo, hi, telemetry=engine.telemetry)
            for lo, hi in windows
        ]
        return results, time.perf_counter() - start

    row_results, row_s = timed_pass()
    converted = engine.convert_cold()
    snapshot = engine.snapshot()
    cold_results, cold_s = timed_pass()
    identical = all(
        r.count == c.count and r.total == c.total
        and r.minimum == c.minimum and r.maximum == c.maximum
        for r, c in zip(row_results, cold_results)
    )
    registry = engine.telemetry.registry
    stat_blocks = registry.counter("query.blocks_stat_answered").value
    print(f"tables: {len(snapshot.tables)}  "
          f"converted to columnar: {converted}  "
          f"resident stats bytes: {engine.cold_tier_bytes()}")
    print(f"row-scan aggregation:   {row_s * 1e3:8.2f} ms "
          f"({args.windows} windows)")
    print(f"stat-answered (cold):   {cold_s * 1e3:8.2f} ms "
          f"({args.windows} windows)")
    speedup = row_s / cold_s if cold_s > 0 else float("inf")
    print(f"speedup: {speedup:.1f}x  "
          f"blocks stat-answered: {int(stat_blocks)}  "
          f"bit-identical: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


def _build_federated_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments federated-report",
        description=(
            "Demonstrate cross-shard query federation: ingest a "
            "synthetic multi-series workload into a sharded fleet, run "
            "fleet-wide aggregate and range queries through the "
            "federated executor, verify every answer bitwise "
            "against a single unsharded database, and print per-shard "
            "latency/cache attribution"
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="fleet width (default 4)"
    )
    parser.add_argument(
        "--series", type=int, default=8,
        help="series count (default 8)",
    )
    parser.add_argument(
        "--points", type=int, default=4000,
        help="points per series (default 4000)",
    )
    parser.add_argument(
        "--windows", type=int, default=16,
        help="query windows per pass (default 16)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed (default 0)"
    )
    return parser


def _federated_report(argv: list[str]) -> int:
    """The ``federated-report`` subcommand; returns an exit code."""
    import numpy as np

    from .distributions import ExponentialDelay
    from .lsm.database import TimeSeriesDatabase
    from .obs.sharding import render_federation_report
    from .obs.telemetry import Telemetry
    from .query.merge import aggregate_over_series, scan_over_series
    from .serving import ShardedDatabase
    from .workloads import generate_synthetic

    args = _build_federated_report_parser().parse_args(argv)
    fleet = ShardedDatabase(
        n_shards=args.shards,
        memory_budget_per_series=256,
        sstable_size=256,
        telemetry=Telemetry(sinks=[]),
    )
    reference = TimeSeriesDatabase(
        memory_budget_per_series=256, sstable_size=256
    )
    names = [f"sensor-{i:03d}" for i in range(args.series)]
    lo_all, hi_all = math.inf, -math.inf
    for offset, name in enumerate(names):
        stream = generate_synthetic(
            args.points,
            dt=50.0,
            delay=ExponentialDelay(200.0),
            seed=args.seed + offset,
        )
        fleet.write(name, stream.tg)
        reference.write(name, stream.tg)
        lo_all = min(lo_all, float(stream.tg.min()))
        hi_all = max(hi_all, float(stream.tg.max()))
    span = hi_all - lo_all
    rng = np.random.default_rng(args.seed)
    windows = [
        (lo, lo + 0.4 * span)
        for lo in rng.uniform(lo_all, hi_all - 0.4 * span, size=args.windows)
    ]

    started = time.perf_counter()
    federated = [
        (
            fleet.query_aggregate(lo=lo, hi=hi),
            fleet.query_range(lo=lo, hi=hi, collect=True),
        )
        for lo, hi in windows
    ]
    federated_s = time.perf_counter() - started
    started = time.perf_counter()
    serial = [
        (
            aggregate_over_series(reference, lo=lo, hi=hi),
            scan_over_series(reference, lo=lo, hi=hi, collect=True),
        )
        for lo, hi in windows
    ]
    serial_s = time.perf_counter() - started
    identical = all(
        fa == sa
        and np.array_equal(fr.rows, sr.rows)
        and np.array_equal(fr.row_ids, sr.row_ids)
        for (fa, fr), (sa, sr) in zip(federated, serial)
    )
    print(render_federation_report(fleet, source=f"{args.series} series"))
    print()
    print(f"federated pass: {federated_s * 1e3:8.2f} ms ({args.windows} windows)")
    print(f"unsharded pass: {serial_s * 1e3:8.2f} ms")
    print(f"bit-identical to single database: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


_SUBCOMMANDS = {
    "run-all": _run_all,
    "engines": _engines,
    "cold-report": _cold_report,
    "telemetry-report": _telemetry_report,
    "stability-report": _stability_report,
    "crash-test": _crash_test,
    "checkpoint": _checkpoint,
    "recover": _recover,
    "shard-report": _shard_report,
    "federated-report": _federated_report,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = _build_parser().parse_args(argv)
    if args.experiment == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.trace is not None:
        configure_telemetry(sink=f"jsonl:{args.trace}")
    targets = (
        experiment_ids() if args.experiment == "all" else [args.experiment]
    )
    if args.workers is not None and len(targets) > 1:
        # Fan the whole target list out at once; per-experiment output
        # below is unchanged (results are bit-identical to the serial
        # path, only wall-clock differs).
        from .parallel import run_experiments

        try:
            runs = run_experiments(
                targets, scale=args.scale, seed=args.seed, workers=args.workers
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        for run in runs:
            print(run.result.render())
            if args.csv_dir is not None:
                for path in run.result.save_csv(args.csv_dir):
                    print(f"[wrote {path}]")
            print(f"\n[{run.experiment_id} completed in "
                  f"{run.duration_s:.1f}s]\n")
        if args.trace is not None:
            print(f"[telemetry trace written to {args.trace}]")
        return 0
    for experiment_id in targets:
        started = time.perf_counter()
        try:
            result = run_experiment(experiment_id, scale=args.scale, seed=args.seed)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(result.render())
        if args.csv_dir is not None:
            for path in result.save_csv(args.csv_dir):
                print(f"[wrote {path}]")
        print(f"\n[{experiment_id} completed in "
              f"{time.perf_counter() - started:.1f}s]\n")
    if args.trace is not None:
        print(f"[telemetry trace written to {args.trace}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
