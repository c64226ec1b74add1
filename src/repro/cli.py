"""Command-line entry point: one program, one command tree.

Regenerate any paper figure or table, ask the paper's question for a
stream of your own, and operate the storage system around it::

    python -m repro list
    python -m repro fig07
    python -m repro fig09 --scale 0.5 --seed 1
    python -m repro all --scale 0.2
    python -m repro fig07 --trace trace.jsonl
    python -m repro report trace.jsonl
    python -m repro decide --mu 5 --sigma 2 --dt 50 --budget 512
    python -m repro analyze mystream.csv --budget 512
    python -m repro generate out.csv --points 100000 --mu 4 --sigma 1.5
    python -m repro crash-test --engines all --seeds 3
    python -m repro crash-test --faults fsync_delay,slow_merge --seeds 2
    python -m repro crash-test --fleet --shards 4 --seeds 2
    python -m repro checkpoint --dir state/
    python -m repro recover --dir state/
    python -m repro report fleet/
    python -m repro engines

Every command is a subparser of one :mod:`argparse` tree (a leading
word that is no command is an experiment id); every handler takes the
parsed arguments and returns an exit code; :func:`main` is the one place
a :class:`~repro.errors.ReproError` or an :class:`OSError` becomes
``error: ...`` and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .config import DEFAULT_MEMORY_BUDGET, DEFAULT_SSTABLE_SIZE
from .errors import ReproError
from .experiments import experiment_ids, registry
from .obs import (
    JsonlFileSink,
    configure_telemetry,
    load_trace,
    render_trace_report,
    reset_global_telemetry,
)
from .tables import format_table


def _finite_float(text: str) -> float:
    """``argparse`` type of ``--scale``: NaN and infinities have no
    dataset size, so they are usage errors like any other non-number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # reported below, in argparse's own words
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


# -- experiments: <id>, all, list ----------------------------------------------------


def _list(args: argparse.Namespace) -> int:
    for experiment_id in experiment_ids():
        print(experiment_id)
    return 0


def _experiments(args: argparse.Namespace) -> int:
    """``<id>`` and ``all``: run each experiment in turn and print its
    result as soon as it finishes.  ``--trace`` holds the process-global
    bus for this run only: it is closed and disabled when the run ends,
    so a later command in the same process appends nothing to the file."""
    traced = args.trace is not None
    if traced:
        configure_telemetry(JsonlFileSink(args.trace))
    ids = experiment_ids() if args.command == "all" else [args.command]
    try:
        for experiment_id in ids:
            started = time.perf_counter()
            result = registry.run_experiment(
                experiment_id, scale=args.scale, seed=args.seed
            )
            duration_s = time.perf_counter() - started
            print(result.render())
            if args.csv_dir is not None:
                for path in result.save_csv(args.csv_dir):
                    print(f"[wrote {path}]")
            print(f"\n[{experiment_id} completed in {duration_s:.1f}s]\n", flush=True)
    finally:
        if traced:
            reset_global_telemetry()
    if traced:
        print(f"[telemetry trace written to {args.trace}]")
    return 0


# -- the operator's question: decide, analyze, generate ------------------------------


def _decision_report(decision, header: str) -> str:
    lines = [header, f"  {decision.describe()}"]
    lines.append(
        f"  predicted WA: pi_c={decision.r_c:.3f}, "
        f"best pi_s={decision.r_s_star:.3f}"
    )
    if decision.policy == "separation":
        lines.append(
            f"  provision C_seq={decision.seq_capacity}, "
            f"C_nonseq={decision.sweep_n_seq.max() + 1 - decision.seq_capacity}"
        )
    return "\n".join(lines)


def _decide(args: argparse.Namespace) -> int:
    from .core import tune_separation_policy
    from .distributions import LogNormalDelay

    decision = tune_separation_policy(
        LogNormalDelay(mu=args.mu, sigma=args.sigma),
        args.dt,
        args.budget,
        sstable_size=args.sstable,
        exhaustive=args.exhaustive,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "policy": decision.policy,
                    "seq_capacity": decision.seq_capacity,
                    "r_c": decision.r_c,
                    "r_s_star": decision.r_s_star,
                    "predicted_wa": decision.predicted_wa,
                }
            )
        )
        return 0
    print(
        _decision_report(
            decision,
            f"workload: lognormal(mu={args.mu:g}, sigma={args.sigma:g}) "
            f"delays, dt={args.dt:g}, budget={args.budget}",
        )
    )
    return 0


def _analyze(args: argparse.Namespace) -> int:
    from .core import DelayAnalyzer
    from .workloads import load_csv

    dataset = load_csv(args.csv)
    print(dataset.describe())
    analyzer = DelayAnalyzer(
        memory_budget=args.budget,
        window=args.window,
        sstable_size=args.sstable,
    )
    for chunk in dataset.chunks(10_000):
        analyzer.observe(chunk.tg, chunk.ta)
    profile = analyzer.profile()
    print(f"profile: {profile.describe()}")
    print(f"delays:  {analyzer.delay_summary().format()}")
    decision = analyzer.recommend(exhaustive=args.exhaustive)
    print(_decision_report(decision, f"analyzed {len(dataset)} points"))
    return 0


def _generate(args: argparse.Namespace) -> int:
    from .distributions import LogNormalDelay
    from .workloads import generate_synthetic, save_csv

    dataset = generate_synthetic(
        args.points,
        dt=args.dt,
        delay=LogNormalDelay(mu=args.mu, sigma=args.sigma),
        seed=args.seed,
    )
    save_csv(dataset, args.csv)
    print(f"wrote {len(dataset)} points to {args.csv}")
    print(dataset.describe())
    return 0


# -- reports ---------------------------------------------------------------------------


def _report(args: argparse.Namespace) -> int:
    """``report PATH``: what ``PATH`` is decides what is printed."""
    from .obs import render_shard_report
    from .serving import FLEET_MANIFEST, ShardedDatabase

    if os.path.exists(os.path.join(args.path, FLEET_MANIFEST)):
        fleet = ShardedDatabase.recover(args.path)
        print(render_shard_report(fleet, source=args.path))
    else:
        print(render_trace_report(load_trace(args.path), source=args.path))
    return 0


def _engines(args: argparse.Namespace) -> int:
    from .lsm.policies import engine_compositions

    rows = engine_compositions()
    headers = ["engine", "policy_name", "placement", "flush", "compaction"]
    print(
        format_table(
            headers, [[row[h] for h in headers] for row in rows], justify=str.ljust
        )
    )
    print(f"[{len(rows)} engine configurations registered]")
    return 0


# -- durability: crash-test, checkpoint, recover -------------------------------------


def _selection(text: str | None) -> list[str] | None:
    """A comma-separated selector as a list; ``None`` (the flag was not
    given) and ``"all"`` mean the default set, which an empty list never
    does."""
    if text is None or text == "all":
        return None
    return [item.strip() for item in text.split(",") if item.strip()]


def _crash_test(args: argparse.Namespace) -> int:
    from .faults.crashtest import run_crash_test

    if args.fleet:
        for flag in ("engines", "points"):
            if getattr(args, flag) is not None:
                args.usage_error(
                    f"--{flag} does not apply to the fleet matrix (--fleet)"
                )
    report = run_crash_test(
        engines=_selection(args.engines),
        seeds=args.seeds,
        n_points=6000 if args.points is None else args.points,
        workdir=args.workdir,
        faults=_selection(args.faults),
        fleet_shards=args.shards if args.fleet else None,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _checkpoint(args: argparse.Namespace) -> int:
    from .distributions import ExponentialDelay
    from .lsm import TimeSeriesDatabase
    from .workloads import generate_synthetic

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
    for name in db.series_names():
        engine = db.series(name).engine
        print(
            f"{name}: {engine.ingested_points} points, "
            f"wa={engine.write_amplification:.3f}"
        )
    print(f"[checkpoint manifest written to {manifest}]")
    return 0


def _recover(args: argparse.Namespace) -> int:
    from .lsm import TimeSeriesDatabase

    db = TimeSeriesDatabase.recover(args.durability_dir)
    for name in db.series_names():
        engine = db.series(name).engine
        print(
            f"{name}: recovered {engine.ingested_points} points, "
            f"wa={engine.write_amplification:.3f}, invariants ok"
        )
    print(f"[recovered {len(db)} series from {args.durability_dir}]")
    return 0


# -- the tree --------------------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The command tree, and its subparser table."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures/tables of 'Separation or Not' (ICDE 2022)"
        ),
        epilog=(
            "An experiment id (see 'list') in place of COMMAND runs that "
            "experiment with the flags of 'all'."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    # The flags '<id>' and 'all' share.
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument(
        "--scale",
        type=_finite_float,
        default=1.0,
        help="dataset-size multiplier (default 1.0; paper scale is ~100x)",
    )
    options.add_argument(
        "--seed", type=int, default=None, help="override the default RNG seed"
    )
    options.add_argument(
        "--csv-dir",
        default=None,
        help="also write each result table as CSV into this directory",
    )
    options.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "capture telemetry (experiment wall-times, engine flush/merge "
            "events) as JSON lines into PATH; inspect it later with "
            "'report PATH'"
        ),
    )

    def command(name, handler, help, description=None, **kwargs):
        child = sub.add_parser(
            name, help=help, description=description or help, **kwargs
        )
        child.set_defaults(handler=handler)
        return child

    command("list", _list, "print every experiment id")
    command(
        "all",
        _experiments,
        "run every registered experiment (or one: give its id instead)",
        parents=[options],
    )

    decide = command(
        "decide", _decide, "run Algorithm 1 for a parametric workload"
    )
    decide.add_argument("--mu", type=float, required=True,
                        help="lognormal mu of the delays")
    decide.add_argument("--sigma", type=float, required=True,
                        help="lognormal sigma of the delays")
    decide.add_argument("--dt", type=float, required=True,
                        help="generation interval")
    decide.add_argument("--budget", type=int, default=DEFAULT_MEMORY_BUDGET,
                        help="MemTable budget in points")
    decide.add_argument("--sstable", type=int, default=DEFAULT_SSTABLE_SIZE,
                        help="SSTable size in points")
    decide.add_argument("--exhaustive", action="store_true",
                        help="sweep every n_seq (slow, literal Algorithm 1)")
    decide.add_argument("--json", action="store_true",
                        help="emit the decision as one JSON object")

    analyze = command(
        "analyze", _analyze, "profile a CSV of generation,arrival timestamps"
    )
    analyze.add_argument("csv", help="input CSV (generation,arrival header)")
    analyze.add_argument("--budget", type=int, default=DEFAULT_MEMORY_BUDGET)
    analyze.add_argument("--sstable", type=int, default=DEFAULT_SSTABLE_SIZE)
    analyze.add_argument("--window", type=int, default=8192,
                         help="analyzer delay-window size")
    analyze.add_argument("--exhaustive", action="store_true")

    generate = command(
        "generate", _generate, "write a synthetic workload CSV"
    )
    generate.add_argument("csv", help="output CSV path")
    generate.add_argument("--points", type=int, default=100_000)
    generate.add_argument("--dt", type=float, default=50.0)
    generate.add_argument("--mu", type=float, default=5.0)
    generate.add_argument("--sigma", type=float, default=2.0)
    generate.add_argument("--seed", type=int, default=0)

    report = command(
        "report",
        _report,
        "summarise a JSONL trace, or a fleet durability directory",
        description=(
            "Print the report PATH calls for. A JSONL telemetry trace: span "
            "timings, compaction volumes, query costs, then the robustness "
            "signals — group-commit coalescing ratios, backpressure state "
            "transitions, and writer stall counts/durations. A fleet "
            "durability directory (contains fleet.json): recover the "
            "sharded serving tier and print the operator view — per-shard "
            "series, points, disk writes, WA, MemTable budget, WAL bytes "
            "and backpressure state, plus the last memory-arbiter rebalance"
        ),
    )
    report.add_argument(
        "path", metavar="PATH",
        help="a JSONL trace file, or a fleet durability directory",
    )

    command(
        "engines",
        _engines,
        "list every registered engine as its policy triple",
        description=(
            "List every registered engine as its policy triple (placement "
            "x flush x compaction); novel combinations are available via "
            "repro.lsm.policies.compose_engine"
        ),
    )

    crash = command(
        "crash-test",
        _crash_test,
        "fault-injection crash matrix (exits non-zero on any failure)",
        description=(
            "Fault-injection crash matrix: for every engine x fault kind x "
            "seed, ingest under an armed fault, crash, recover from WAL "
            "(+checkpoint), verify invariants, and check the recovered "
            "write amplification equals a crash-free rerun"
        ),
    )
    crash.set_defaults(usage_error=crash.error)
    crash.add_argument(
        "--engines",
        default=None,
        help=(
            "comma-separated engine keys "
            "(pi_c,pi_s,adaptive,iotdb,multilevel,tiered) or 'all'"
        ),
    )
    crash.add_argument(
        "--seeds", type=int, default=3, help="seeds per (engine, fault) cell"
    )
    crash.add_argument(
        "--faults",
        default=None,
        help=(
            "comma-separated fault kinds to sweep (default: the four "
            "crash/corruption kinds); overload kinds 'fsync_delay' and "
            "'slow_merge' run the engines degraded under group-commit + "
            "the incremental compaction scheduler"
        ),
    )
    crash.add_argument(
        "--points", type=int, default=None, help="points ingested per case"
    )
    crash.add_argument(
        "--workdir",
        default=None,
        help="keep WAL/checkpoint files here instead of a temp directory",
    )
    crash.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "run the fleet crash matrix instead: kill one shard of a "
            "sharded serving tier mid-group-commit, recover only that "
            "shard, and check the survivors are byte-for-byte untouched "
            "(--engines/--points do not apply)"
        ),
    )
    crash.add_argument(
        "--shards",
        type=int,
        default=4,
        help="fleet width for --fleet cases (default 4)",
    )

    checkpoint = command(
        "checkpoint",
        _checkpoint,
        "ingest a seeded fleet into a WAL-backed database and checkpoint it",
        description=(
            "Ingest a seeded synthetic fleet into a WAL-backed database "
            "and checkpoint every series; 'recover --dir' revives it"
        ),
    )
    checkpoint.add_argument(
        "--dir", required=True, dest="durability_dir",
        help="durability directory for WALs, checkpoints and the manifest",
    )
    checkpoint.add_argument(
        "--series", type=int, default=3, help="number of series to ingest"
    )
    checkpoint.add_argument(
        "--points", type=int, default=20_000, help="points per series"
    )
    checkpoint.add_argument("--seed", type=int, default=0, help="base RNG seed")

    recover = command(
        "recover",
        _recover,
        "recover a database from its durability directory and verify it",
        description=(
            "Recover a database from a durability directory: restore each "
            "series' checkpoint (falling back to full WAL replay when "
            "corrupt), replay the WAL tail, and verify invariants"
        ),
    )
    recover.add_argument(
        "--dir", required=True, dest="durability_dir",
        help="durability directory written by 'checkpoint'",
    )
    return parser, sub


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, sub = _build_parser()
    if argv and not argv[0].startswith("-") and argv[0] not in sub.choices:
        # Not a command, so an experiment id: 'fig07 --scale 0.5' takes the
        # flags of 'all' and runs that one (an unknown id is the
        # registry's error, like any other).
        args = sub.choices["all"].parse_args(argv[1:])
        args.command = argv[0]
    else:
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
