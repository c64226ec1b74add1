"""Crash-test harness: inject a fault, recover, prove nothing was lost.

Each *case* drives one engine through a seeded out-of-order workload in
batches, with one fault armed (a crash at a flush/merge boundary, a torn
WAL append, or a corrupted checkpoint page).  When the simulated process
"dies", the harness recovers from the surviving WAL (+ checkpoint),
verifies every crash-consistency invariant, and then proves the strong
durability property: the recovered engine's *per-point write counters*
equal those of a crash-free engine run over the same durable prefix — so
recovery reproduced not just the data but the exact write-amplification
history.

``python -m repro crash-test`` runs the full matrix (six engines × fault
kinds × seeds) and exits non-zero on any failure; ``--fleet`` runs the
fleet cells (one shard of a sharded tier killed mid-group-commit)
through the same matrix runner.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..config import LsmConfig
from ..distributions import ExponentialDelay
from ..errors import FaultError, InjectedCrash
from ..lsm.policies.compose import ENGINES, engine_class
from ..lsm.recovery import RecoveryReport, recover_engine
from ..workloads.synthetic import generate_synthetic
from .injector import FaultInjector, FaultPlan

__all__ = [
    "CRASH_TEST_ENGINES",
    "FAULT_KINDS",
    "OVERLOAD_FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "CrashCaseResult",
    "CrashTestReport",
    "FleetCrashCaseResult",
    "run_crash_case",
    "run_crash_test",
    "run_fleet_crash_case",
]

#: Fault kinds a case can arm.
FAULT_KINDS = ("crash_flush", "crash_merge", "torn_wal", "corrupt_checkpoint")

#: Overload fault kinds: a latency fault (fsync delay spike / slow merge)
#: runs throughout, with group-commit WAL + the incremental compaction
#: scheduler enabled, and a crash is armed on top — so each case proves
#: recovery stays exact while the engine is degraded.  Opt-in via the
#: ``faults`` selector (not part of the default matrix).
OVERLOAD_FAULT_KINDS = ("fsync_delay", "slow_merge")

#: Fault kinds the fleet crash matrix arms on the victim shard.  Both
#: run under group-commit WAL (``wal_group_records=4``) with half the
#: ingest rounds left unsynced, so the crash lands mid-group-commit:
#: acknowledged-but-uncommitted frames are lost and recovery must land
#: on exactly the committed prefix.  (``crash_merge`` rather than
#: ``crash_flush``: the shards run conventional engines, whose merges
#: recur all run long while their pure-flush site fires only once,
#: before anything is durable.)
FLEET_FAULT_KINDS = ("crash_merge", "torn_wal")

#: Small buffers so a few thousand points exercise many flushes/merges.
_CASE_CONFIG = dict(memory_budget=64, sstable_size=32)

#: Stability overrides an overload case runs under (both the live engine
#: and the crash-free reference, so their write accounting is comparable).
_OVERLOAD_STABILITY = dict(
    wal_group_records=4,
    compaction_scheduler=True,
    compaction_work_unit=256,
)

#: Per engine key: its row of the engine table, run in its small shape.
_ENGINES = {row.crash_key: row for row in ENGINES if row.crash_key is not None}

#: Engine keys the harness knows how to build and recover.
CRASH_TEST_ENGINES = tuple(_ENGINES)


@dataclass
class CrashCaseResult:
    """Outcome of one engine × fault × seed case."""

    engine: str
    fault: str
    seed: int
    #: The armed fault actually fired and killed the run.
    crashed: bool = False
    #: Points proven durable (WAL records surviving the crash).
    durable_points: int = 0
    #: Points replayed from the WAL during recovery.
    replayed_points: int = 0
    #: A checkpoint existed and was used as the recovery base.
    checkpoint_used: bool = False
    #: A checkpoint existed but was detected as corrupt and discarded.
    checkpoint_corrupt: bool = False
    #: The WAL had a torn tail that was truncated.
    wal_torn: bool = False
    #: Invariant verification passed on the recovered engine.
    verified: bool = False
    #: Recovered per-point write counters match a crash-free rerun.
    wa_match: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        """The case proved durability end to end."""
        return (
            self.error is None
            and self.crashed
            and self.verified
            and self.wa_match
        )

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        detail = (
            f"durable={self.durable_points} replayed={self.replayed_points}"
            f"{' ckpt' if self.checkpoint_used else ''}"
            f"{' ckpt-corrupt' if self.checkpoint_corrupt else ''}"
            f"{' torn' if self.wal_torn else ''}"
        )
        if self.error:
            detail += f" error={self.error}"
        return (
            f"[{status}] {self.engine:<10} {self.fault:<18} "
            f"seed={self.seed} {detail}"
        )


@dataclass
class CrashTestReport:
    """Every case of one crash-test sweep."""

    results: list[CrashCaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every case proved durability (and there was one)."""
        return bool(self.results) and all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CrashCaseResult]:
        """Only the failing cases."""
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        lines = [r.describe() for r in self.results]
        lines.append(
            f"{len(self.results)} cases, "
            f"{len(self.results) - len(self.failures)} ok, "
            f"{len(self.failures)} failed"
        )
        return "\n".join(lines)


def _build_plan(fault: str, seed: int, engine: str, n_appends: int) -> FaultPlan:
    """Arm exactly one fault, with a seeded trigger occurrence.

    The ``"flush"`` site fires once and then rarely for engines whose
    compactions almost always overlap existing tables (``pi_c``,
    ``multilevel``, ``adaptive`` pre-switch), so only the engines with a
    recurring pure-flush path get a varied flush trigger.  The
    ``corrupt_checkpoint`` kind arms no crash: the harness itself "cuts
    the power" a few batches after the (corrupted) checkpoint.
    """
    rng = np.random.default_rng(seed)
    if fault == "crash_flush":
        recurring_flushes = engine in ("pi_s", "iotdb", "tiered")
        occurrence = int(rng.integers(1, 6)) if recurring_flushes else 1
        return FaultPlan(seed=seed, crash_at_flush=occurrence)
    if fault == "crash_merge":
        return FaultPlan(seed=seed, crash_at_merge=int(rng.integers(1, 4)))
    if fault == "torn_wal":
        # Anywhere in the run, so roughly half the cases tear *after*
        # the mid-run checkpoint and exercise checkpoint + tail replay.
        return FaultPlan(
            seed=seed,
            torn_wal_append_at=int(rng.integers(2, max(n_appends, 3))),
        )
    if fault == "corrupt_checkpoint":
        return FaultPlan(seed=seed, corrupt_checkpoint=True)
    if fault in OVERLOAD_FAULT_KINDS:
        # A latency fault runs throughout, plus a crash late enough to
        # leave a meaningful durable prefix.  IoTDB-style engines merge
        # only during background reorganisation, so their merge site
        # fires far less often than the leveled engines'.
        occurrence = int(rng.integers(2, 6) if engine == "iotdb" else rng.integers(8, 24))
        if fault == "fsync_delay":
            return FaultPlan(
                seed=seed,
                fsync_delay_ms=0.5,
                fsync_delay_every=2,
                crash_at_merge=occurrence,
            )
        return FaultPlan(
            seed=seed,
            merge_delay_ms=0.5,
            merge_delay_every=2,
            crash_at_merge=occurrence,
        )
    raise FaultError(
        f"unknown fault kind {fault!r}; expected one of "
        f"{FAULT_KINDS + OVERLOAD_FAULT_KINDS}"
    )


def _batches(n_points: int, seed: int) -> list[slice]:
    """Seeded irregular batch boundaries over ``n_points`` points."""
    rng = np.random.default_rng(seed + 0x5EED)
    slices = []
    pos = 0
    while pos < n_points:
        take = int(rng.integers(48, 320))
        slices.append(slice(pos, min(pos + take, n_points)))
        pos += take
    return slices


def run_crash_case(
    engine: str,
    fault: str,
    seed: int,
    workdir: str,
    n_points: int = 6000,
    telemetry=None,
) -> CrashCaseResult:
    """Run one ingest → crash → recover → verify case."""
    if engine not in _ENGINES:
        raise FaultError(
            f"unknown engine {engine!r}; expected one of {CRASH_TEST_ENGINES}"
        )
    result = CrashCaseResult(engine=engine, fault=fault, seed=seed)
    adaptive = engine == "adaptive"

    dataset = generate_synthetic(
        n_points, dt=1.0, delay=ExponentialDelay(mean=40.0), seed=seed
    )
    batches = _batches(n_points, seed)
    stem = f"{engine}-{fault}-{seed}"
    wal_path = os.path.join(workdir, f"{stem}.wal")
    checkpoint_path = os.path.join(workdir, f"{stem}.ckpt")
    config = LsmConfig(**_CASE_CONFIG, wal_path=wal_path)
    overload = fault in OVERLOAD_FAULT_KINDS
    if overload:
        config = config.with_stability(**_OVERLOAD_STABILITY)
    plan = _build_plan(fault, seed, engine, n_appends=len(batches))
    row = _ENGINES[engine]
    live = row.build(config, faults=FaultInjector(plan))

    # -- ingest until the armed fault kills the "process" ---------------------
    checkpoint_after = len(batches) // 2
    power_cut_after = None
    if fault == "corrupt_checkpoint":
        # No crash is armed; the harness cuts the power a few batches
        # after the (silently corrupted) checkpoint lands, so recovery
        # would *want* the checkpoint — and must detect the damage.
        rng = np.random.default_rng(seed + 0xDEAD)
        power_cut_after = checkpoint_after + int(
            rng.integers(1, max(len(batches) - checkpoint_after, 2))
        )
    try:
        for index, region in enumerate(batches):
            if adaptive:
                live.ingest(dataset.tg[region], dataset.ta[region])
            else:
                live.ingest(dataset.tg[region])
            if index + 1 == checkpoint_after and not adaptive:
                live.save_checkpoint(checkpoint_path)
            if power_cut_after is not None and index + 1 == power_cut_after:
                result.crashed = True
                break
    except InjectedCrash:
        result.crashed = True
    if not result.crashed:
        result.error = "armed fault never fired"
        return result
    del live  # the process is dead; only the files survive

    # -- recover ---------------------------------------------------------------
    try:
        # The adaptive engine never took a checkpoint above (its analyzer
        # is not durable), so for it this is a whole-WAL replay.
        report = recover_engine(
            engine_class(row.engine),
            wal_path,
            checkpoint_path=(
                checkpoint_path if os.path.exists(checkpoint_path) else None
            ),
            config=config,
            engine_kwargs={**row.selector, **row.small},
            telemetry=telemetry,
        )
    except Exception as exc:  # recovery must never fail a case silently
        result.error = f"recovery failed: {exc!r}"
        return result
    _fill_result(result, report)
    if fault == "torn_wal" and not result.wal_torn:
        result.error = "torn WAL tail was not detected"
        return result
    if fault == "corrupt_checkpoint" and not result.checkpoint_corrupt:
        result.error = "checkpoint corruption was not detected"
        return result

    # -- the durable prefix must reproduce a crash-free run exactly ------------
    recovered = report.engine
    durable = result.durable_points
    clean_config = LsmConfig(**_CASE_CONFIG)
    if overload:
        clean_config = clean_config.with_stability(**_OVERLOAD_STABILITY)
    clean = row.build(clean_config)
    if adaptive:
        clean.ingest(dataset.tg[:durable], dataset.ta[:durable])
    else:
        clean.ingest(dataset.tg[:durable])
    result.wa_match = bool(
        recovered.stats.disk_writes == clean.stats.disk_writes
        and np.array_equal(
            recovered.stats.write_counts, clean.stats.write_counts
        )
    )
    if not result.wa_match and result.error is None:
        result.error = (
            f"WA mismatch: recovered {recovered.stats.disk_writes} disk "
            f"writes vs crash-free {clean.stats.disk_writes} over "
            f"{durable} durable points"
        )
    return result


def _fill_result(result: CrashCaseResult, report: RecoveryReport) -> None:
    result.durable_points = report.durable_points
    result.replayed_points = report.replayed_points
    result.checkpoint_used = report.checkpoint_used
    result.checkpoint_corrupt = report.checkpoint_corrupt
    result.wal_torn = report.wal_torn
    result.verified = report.verified


def _run_cell(cell, workdir: str, telemetry=None, **size):
    """One matrix cell ``(engine, fault, seed)``; the engine key
    ``"fleet"`` is a fleet case.  ``size`` is the case's own size
    argument (``n_points``, or ``n_shards``)."""
    key, fault, seed = cell
    if key == "fleet":
        return run_fleet_crash_case(fault, seed, workdir, **size)
    return run_crash_case(key, fault, seed, workdir, telemetry=telemetry, **size)


def _cell_task(cell, workdir: str, size: dict):
    """Worker task: one matrix cell, reporting on the worker's bus."""
    from ..obs.telemetry import global_telemetry

    bus = global_telemetry()
    return _run_cell(cell, workdir, bus if bus.enabled else None, **size)


def run_crash_test(
    engines: list[str] | None = None,
    seeds: int = 3,
    n_points: int = 6000,
    workdir: str | None = None,
    telemetry=None,
    workers: int | None = None,
    faults: list[str] | None = None,
    fleet_shards: int | None = None,
) -> CrashTestReport:
    """Run the full crash-test matrix: engines × fault kinds × seeds.

    Every cell is independent (its WAL/checkpoint files are keyed by
    ``engine-fault-seed``), so ``workers`` > 1 fans the matrix out over
    a process pool with results identical to the serial sweep; worker
    telemetry is merged into ``telemetry`` (or the process-global bus).
    ``faults`` selects the fault kinds to sweep — pass overload kinds
    (:data:`OVERLOAD_FAULT_KINDS`) to crash-test the degraded engine.
    ``fleet_shards`` runs the fleet matrix instead — every
    :data:`FLEET_FAULT_KINDS` kind × seed against a fleet that wide
    (``engines`` and ``n_points`` do not apply to it).

    The ``corrupt_checkpoint`` kind is skipped for the adaptive engine,
    which never checkpoints (its recovery is always a full WAL replay).
    A selection that leaves no cell is a :class:`FaultError`: a matrix
    that tested nothing must not pass.
    """
    from ..parallel.pool import Task, resolve_workers, run_tasks

    fleet = fleet_shards is not None
    if fleet:
        keys = ["fleet"]
    else:
        keys = list(CRASH_TEST_ENGINES if engines is None else engines)
        for key in keys:
            if key not in _ENGINES:
                raise FaultError(
                    f"unknown engine {key!r}; expected one of {CRASH_TEST_ENGINES}"
                )
    allowed = FLEET_FAULT_KINDS if fleet else FAULT_KINDS + OVERLOAD_FAULT_KINDS
    default = FLEET_FAULT_KINDS if fleet else FAULT_KINDS
    kinds = list(default if faults is None else faults)
    for kind in kinds:
        if kind not in allowed:
            raise FaultError(
                f"unknown {'fleet ' if fleet else ''}fault kind {kind!r}; "
                f"expected one of {allowed}"
            )
    size = dict(n_shards=fleet_shards) if fleet else dict(n_points=n_points)
    cells = [
        (key, fault, seed)
        for key in keys
        for fault in kinds
        if not (fault == "corrupt_checkpoint" and key == "adaptive")
        for seed in range(seeds)
    ]
    if not cells:
        raise FaultError(
            f"empty crash matrix: engines {keys} x fault kinds {kinds} x "
            f"{seeds} seeds selects no case"
        )
    with tempfile.TemporaryDirectory() as tmp:
        base = workdir if workdir is not None else tmp
        os.makedirs(base, exist_ok=True)
        if resolve_workers(workers) > 1:
            tasks = [
                Task(
                    fn=_cell_task,
                    args=(cell, base, size),
                    label="crash:{}-{}-{}".format(*cell),
                )
                for cell in cells
            ]
            results = run_tasks(tasks, workers=workers, telemetry=telemetry)
        else:
            results = [_run_cell(cell, base, telemetry, **size) for cell in cells]
    return CrashTestReport(results)


# -- fleet crash matrix --------------------------------------------------------


@dataclass
class FleetCrashCaseResult:
    """Outcome of one fleet-wide fault × seed case."""

    fault: str
    seed: int
    #: Shard index the fault was armed on.
    victim: int = -1
    #: The armed fault actually fired and killed the victim shard.
    crashed: bool = False
    #: Series living on the victim shard.
    victim_series: int = 0
    #: Durable points recovered across the victim's series.
    victim_durable_points: int = 0
    #: Every recovered victim engine verified and matched a crash-free
    #: rerun of its durable prefix (disk writes + per-point counters).
    victim_wa_match: bool = False
    #: Surviving shards' on-disk files were byte-identical before and
    #: after the victim's recovery, and their live engines verify.
    survivors_untouched: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        """The case proved shard-independent recovery end to end."""
        return (
            self.error is None
            and self.crashed
            and self.victim_wa_match
            and self.survivors_untouched
        )

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        detail = (
            f"victim=shard-{self.victim:02d} series={self.victim_series} "
            f"durable={self.victim_durable_points}"
        )
        if self.error:
            detail += f" error={self.error}"
        return f"[{status}] fleet {self.fault:<12} seed={self.seed} {detail}"


def _dir_fingerprint(root: str) -> dict[str, bytes]:
    """Content digest per file under ``root`` (survivor-untouched check)."""
    import hashlib

    digests: dict[str, bytes] = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, root)] = hashlib.sha256(
                    handle.read()
                ).digest()
    return digests


def run_fleet_crash_case(
    fault: str,
    seed: int,
    workdir: str,
    n_shards: int = 4,
    n_series: int = 6,
    points_per_series: int = 3000,
) -> FleetCrashCaseResult:
    """Kill one shard mid-group-commit; recover it; prove isolation.

    Builds an ``n_shards`` fleet under group-commit WAL
    (``wal_group_records=4``), arms ``fault`` on the shard owning the
    most series, and ingests multi-series rounds with only every other
    round synced — so the injected crash lands with acknowledged frames
    still pending in the victim's group buffers.  After the crash the
    surviving shards sync and keep their live engines; only the victim
    is recovered from disk.  The case passes when (a) every recovered
    victim engine verifies and reproduces a crash-free run over its
    durable prefix exactly, and (b) the survivors' on-disk files are
    byte-identical before and after that recovery.
    """
    from ..lsm.database import TimeSeriesDatabase
    from ..serving import ShardedDatabase, ShardRouter, shard_name

    if fault not in FLEET_FAULT_KINDS:
        raise FaultError(
            f"unknown fleet fault kind {fault!r}; expected one of "
            f"{FLEET_FAULT_KINDS}"
        )
    result = FleetCrashCaseResult(fault=fault, seed=seed)
    rng = np.random.default_rng(seed)
    names = [f"series-{index:02d}" for index in range(n_series)]
    router = ShardRouter(n_shards)
    owners = {name: router.shard_of(name) for name in names}
    counts = {index: 0 for index in range(n_shards)}
    for shard in owners.values():
        counts[shard] += 1
    # The victim is the busiest shard (ties to the lowest index), so the
    # crash interrupts as many per-series engines as possible.
    victim = max(counts, key=lambda index: (counts[index], -index))
    result.victim = victim
    result.victim_series = counts[victim]
    if counts[victim] == 0:
        result.error = "no series routed to any shard"
        return result

    datasets = {
        name: generate_synthetic(
            points_per_series,
            dt=1.0,
            delay=ExponentialDelay(mean=40.0),
            seed=seed * 131 + index,
            name=name,
        )
        for index, name in enumerate(names)
    }
    batches = _batches(points_per_series, seed)
    if fault == "crash_merge":
        # Late enough that at least one synced round precedes the crash
        # (per-engine merges run ~2-3 per round at these buffer sizes),
        # so the lost tail sits on top of a non-trivial durable prefix.
        plan = FaultPlan(seed=seed, crash_at_merge=int(rng.integers(6, 18)))
    else:
        plan = FaultPlan(
            seed=seed,
            torn_wal_append_at=int(rng.integers(2, max(len(batches) - 1, 3))),
        )
    fleet_dir = os.path.join(workdir, f"fleet-{fault}-{seed}")
    stability = dict(wal_group_records=4)
    fleet = ShardedDatabase(
        n_shards=n_shards,
        router=router,
        memory_budget_per_series=64,
        sstable_size=32,
        auto_tune=False,
        durability_dir=fleet_dir,
        stability=stability,
        shard_fault_plans={victim: plan},
    )
    # Register every series, then checkpoint: the shard manifests must
    # exist before the crash for recovery to know the fleet's shape.
    for name in names:
        fleet.database_for(name).create_series(name)
    fleet.checkpoint_all()

    checkpoint_after = len(batches) // 2
    try:
        for index, region in enumerate(batches):
            fleet.ingest_batch(
                [(name, datasets[name].tg[region]) for name in names],
                sync=(index % 2 == 1),
            )
            if index + 1 == checkpoint_after:
                fleet.checkpoint_all()
    except InjectedCrash:
        result.crashed = True
    if not result.crashed:
        result.error = "armed fault never fired on the victim shard"
        return result

    # The victim process is dead: its pending group frames are lost with
    # it (never close its WAL handles — close would commit them).  The
    # survivors are still alive; they sync and carry on.
    survivor_stats: dict[str, tuple[int, tuple]] = {}
    for index, db in enumerate(fleet.shards):
        if index == victim:
            continue
        db.sync()
        for name in db.series_names():
            engine = db.series(name).engine
            engine.verify()
            survivor_stats[name] = (
                engine.stats.disk_writes,
                tuple(engine.stats.write_counts),
            )
    survivor_dirs = {
        index: os.path.join(fleet_dir, shard_name(index))
        for index in range(n_shards)
        if index != victim
    }
    before = {
        index: _dir_fingerprint(path) for index, path in survivor_dirs.items()
    }

    # -- recover the victim shard only -----------------------------------------
    try:
        recovered = TimeSeriesDatabase.recover(
            os.path.join(fleet_dir, shard_name(victim)),
            namespace=shard_name(victim),
        )
    except Exception as exc:
        result.error = f"victim recovery failed: {exc!r}"
        return result

    after = {
        index: _dir_fingerprint(path) for index, path in survivor_dirs.items()
    }
    result.survivors_untouched = before == after
    if not result.survivors_untouched:
        result.error = "victim recovery modified a surviving shard's files"
        return result
    for index, db in enumerate(fleet.shards):
        if index == victim:
            continue
        for name in db.series_names():
            engine = db.series(name).engine
            if (
                engine.stats.disk_writes,
                tuple(engine.stats.write_counts),
            ) != survivor_stats[name]:
                result.survivors_untouched = False
                result.error = f"survivor series {name!r} state drifted"
                return result

    # -- the victim's durable prefixes must reproduce crash-free runs ----------
    victim_names = [name for name in names if owners[name] == victim]
    if sorted(recovered.series_names()) != sorted(victim_names):
        result.error = (
            f"victim recovered series {sorted(recovered.series_names())} != "
            f"routed {sorted(victim_names)}"
        )
        return result
    clean = TimeSeriesDatabase(
        memory_budget_per_series=64,
        sstable_size=32,
        auto_tune=False,
        stability=stability,
    )
    result.victim_wa_match = True
    for name in victim_names:
        engine = recovered.series(name).engine
        engine.verify()
        durable = engine.ingested_points
        result.victim_durable_points += durable
        clean.write(name, datasets[name].tg[:durable])
        reference = clean.series(name).engine
        if not (
            engine.stats.disk_writes == reference.stats.disk_writes
            and np.array_equal(
                engine.stats.write_counts, reference.stats.write_counts
            )
        ):
            result.victim_wa_match = False
            result.error = (
                f"victim series {name!r}: recovered "
                f"{engine.stats.disk_writes} disk writes vs crash-free "
                f"{reference.stats.disk_writes} over {durable} points"
            )
            return result
    return result
