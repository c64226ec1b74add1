"""Crash-test harness: inject a fault, recover, prove nothing was lost.

Each *case* drives one engine — or one shard of a sharded fleet —
through a seeded out-of-order workload in batches, with one fault armed
(a crash at a flush/merge boundary, a torn WAL append, or a corrupted
checkpoint page).  When the simulated process "dies", the harness
recovers from the surviving WAL (+ checkpoint), verifies every
crash-consistency invariant, and then proves the strong durability
property: each recovered engine's *per-point write counters* equal those
of a crash-free engine run over the same durable prefix — so recovery
reproduced not just the data but the exact write-amplification history.

``python -m repro crash-test`` runs the full matrix (six engines × fault
kinds × seeds) and exits non-zero on any failure; ``--fleet`` runs the
fleet cells (one shard of a sharded tier killed mid-group-commit)
through the same case function.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from ..config import LsmConfig
from ..distributions import ExponentialDelay
from ..errors import FaultError, InjectedCrash
from ..lsm.policies.compose import ENGINES, engine_constructor
from ..lsm.recovery import recover_engine
from ..workloads.synthetic import generate_synthetic
from .injector import FaultPlan

__all__ = [
    "CRASH_TEST_ENGINES",
    "FAULT_KINDS",
    "OVERLOAD_FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "CrashCaseResult",
    "CrashTestReport",
    "run_crash_case",
    "run_crash_test",
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

#: Stability overrides every fleet case runs under: group commit, so a
#: crash can lose acknowledged frames.
_FLEET_STABILITY = dict(wal_group_records=4)

#: A fleet case's series, and the points each one ingests.
_FLEET_SERIES = 6
_FLEET_POINTS = 3000

#: Per engine key: its row of the engine table, run in its small shape.
_ENGINES = {row.crash_key: row for row in ENGINES if row.crash_key is not None}

#: Engine keys the harness knows how to build and recover.
CRASH_TEST_ENGINES = tuple(_ENGINES)


@dataclass
class CrashCaseResult:
    """Outcome of one engine × fault × seed case (engine ``"fleet"``:
    one shard of a fleet killed and recovered)."""

    engine: str
    fault: str
    seed: int
    #: The armed fault actually fired and killed the run.
    crashed: bool = False
    #: Points proven durable (WAL records surviving the crash; a fleet
    #: case sums them over the victim's series).
    durable_points: int = 0
    #: Points replayed from the WAL during recovery.
    replayed_points: int = 0
    #: A checkpoint existed and was used as the recovery base.
    checkpoint_used: bool = False
    #: A checkpoint existed but was detected as corrupt and discarded.
    checkpoint_corrupt: bool = False
    #: The WAL had a torn tail that was truncated.
    wal_torn: bool = False
    #: Invariant verification passed on every recovered engine.
    verified: bool = False
    #: Recovered per-point write counters match a crash-free rerun.
    wa_match: bool = False
    #: Fleet case: shard index the fault was armed on.
    victim: int = -1
    #: Fleet case: series living on the victim shard.
    victim_series: int = 0
    #: Fleet case: surviving shards' on-disk files were byte-identical
    #: before and after the victim's recovery, their engines' write
    #: accounting unchanged, and their live engines verify.
    survivors_untouched: bool = True
    error: str | None = None

    @property
    def ok(self) -> bool:
        """The case proved durability end to end."""
        return (
            self.error is None
            and self.crashed
            and self.verified
            and self.wa_match
            and self.survivors_untouched
        )

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        if self.engine == "fleet":
            detail = (
                f"victim=shard-{self.victim:02d} series={self.victim_series} "
                f"durable={self.durable_points}"
            )
            head = f"fleet {self.fault:<12}"
        else:
            detail = (
                f"durable={self.durable_points} replayed={self.replayed_points}"
                f"{' ckpt' if self.checkpoint_used else ''}"
                f"{' ckpt-corrupt' if self.checkpoint_corrupt else ''}"
                f"{' torn' if self.wal_torn else ''}"
            )
            head = f"{self.engine:<10} {self.fault:<18}"
        if self.error:
            detail += f" error={self.error}"
        return f"[{status}] {head} seed={self.seed} {detail}"


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


def _check(keys: list[str], kinds: list[str]) -> None:
    """Raise :class:`FaultError` for an engine key (a
    :data:`CRASH_TEST_ENGINES` key or ``"fleet"``) or a fault kind no
    case of that key arms."""
    for key in keys:
        fleet = key == "fleet"
        if not fleet and key not in _ENGINES:
            raise FaultError(
                f"unknown engine {key!r}; expected one of {CRASH_TEST_ENGINES}"
            )
        allowed = FLEET_FAULT_KINDS if fleet else FAULT_KINDS + OVERLOAD_FAULT_KINDS
        for kind in kinds:
            if kind not in allowed:
                raise FaultError(
                    f"unknown {'fleet ' if fleet else ''}fault kind {kind!r}; "
                    f"expected one of {allowed}"
                )


def _build_plan(fault: str, seed: int, engine: str, n_appends: int) -> FaultPlan:
    """Arm exactly one fault, with a seeded trigger occurrence.

    The ``"flush"`` site fires once and then rarely for engines whose
    compactions almost always overlap existing tables (``pi_c``,
    ``multilevel``, ``adaptive`` pre-switch), so only the engines with a
    recurring pure-flush path get a varied flush trigger.  The
    ``corrupt_checkpoint`` kind arms no crash: the harness itself "cuts
    the power" a few batches after the (corrupted) checkpoint.  A fleet
    case (``engine == "fleet"``) arms its plan on the victim shard.
    """
    rng = np.random.default_rng(seed)
    fleet = engine == "fleet"
    if fault == "crash_flush":
        recurring_flushes = engine in ("pi_s", "iotdb", "tiered")
        occurrence = int(rng.integers(1, 6)) if recurring_flushes else 1
        return FaultPlan(seed=seed, crash_at_flush=occurrence)
    if fault == "crash_merge":
        # A fleet crash comes late enough that at least one synced round
        # precedes it (per-engine merges run ~2-3 per round at these
        # buffer sizes), so the lost tail sits on top of a non-trivial
        # durable prefix.
        low, high = (6, 18) if fleet else (1, 4)
        return FaultPlan(seed=seed, crash_at_merge=int(rng.integers(low, high)))
    if fault == "torn_wal":
        # Anywhere in the run (a fleet's before its last round), so
        # roughly half the cases tear *after* the mid-run checkpoint and
        # exercise checkpoint + tail replay.
        last = n_appends - 1 if fleet else n_appends
        return FaultPlan(
            seed=seed, torn_wal_append_at=int(rng.integers(2, max(last, 3)))
        )
    if fault == "corrupt_checkpoint":
        return FaultPlan(seed=seed, corrupt_checkpoint=True)
    # An overload kind: a latency fault runs throughout, plus a crash
    # late enough to leave a meaningful durable prefix.  IoTDB-style
    # engines merge only during background reorganisation, so their
    # merge site fires far less often than the leveled engines'.
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


def _prefix_mismatch(row, config: LsmConfig, dataset, recovered) -> str | None:
    """The durable-prefix proof: ``None`` when ``recovered`` has exactly
    the disk writes and per-point write counters of a crash-free
    ``row`` engine under ``config`` fed the first
    ``recovered.ingested_points`` points of ``dataset``; else why not."""
    durable = recovered.ingested_points
    clean = row.build(config)
    clean.ingest(dataset.tg[:durable], dataset.ta[:durable])
    if recovered.stats.disk_writes == clean.stats.disk_writes and np.array_equal(
        recovered.stats.write_counts, clean.stats.write_counts
    ):
        return None
    return (
        f"WA mismatch: recovered {recovered.stats.disk_writes} disk writes "
        f"vs crash-free {clean.stats.disk_writes} over {durable} durable points"
    )


def _survivors(fleet, victim: int) -> dict:
    """What the victim's recovery must leave alone: a content digest of
    every file under each surviving shard's directory, and each surviving
    engine's write accounting (every live survivor must also verify)."""
    from ..serving import shard_name

    state: dict = {}
    for index, db in enumerate(fleet.shards):
        if index == victim:
            continue
        root = os.path.join(fleet.durability_dir, shard_name(index))
        for base, _, files in os.walk(root):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as handle:
                    state[path] = hashlib.sha256(handle.read()).digest()
        for name in db.series_names():
            engine = db.series(name).engine
            engine.verify()
            state[name] = (engine.stats.disk_writes, tuple(engine.stats.write_counts))
    return state


def run_crash_case(
    engine: str,
    fault: str,
    seed: int,
    workdir: str,
    n_points: int = 6000,
    telemetry=None,
    n_shards: int = 4,
) -> CrashCaseResult:
    """Run one ingest → crash → recover → prove case.

    ``engine`` is a :data:`CRASH_TEST_ENGINES` key — that row, in its
    small shape, ingests ``n_points`` points — or ``"fleet"``: an
    ``n_shards`` fleet of ``pi_c`` series at the same shape under
    group-commit WAL, with ``fault`` armed on the shard owning the most
    series and only every other round synced, so the crash lands with
    acknowledged frames still pending in the victim's group buffers.
    The fleet's survivors sync and keep their live engines; only the
    victim shard is recovered from disk, and its recovery must leave
    their files and write accounting untouched.  Either way, every
    recovered engine must verify and reproduce a crash-free run over its
    durable prefix exactly.
    """
    from ..lsm.database import TimeSeriesDatabase
    from ..serving import ShardedDatabase, ShardRouter, shard_name

    _check([engine], [fault])
    result = CrashCaseResult(engine=engine, fault=fault, seed=seed)
    fleet = engine == "fleet"
    row = _ENGINES["pi_c" if fleet else engine]
    stem = os.path.join(workdir, f"{engine}-{fault}-{seed}")
    if fleet:
        stability = _FLEET_STABILITY
        names = [f"series-{index:02d}" for index in range(_FLEET_SERIES)]
        seeds = [seed * 131 + index for index in range(_FLEET_SERIES)]
        n_points = _FLEET_POINTS
    else:
        stability = _OVERLOAD_STABILITY if fault in OVERLOAD_FAULT_KINDS else {}
        names, seeds = [engine], [seed]
    datasets = {
        name: generate_synthetic(
            n_points, dt=1.0, delay=ExponentialDelay(mean=40.0), seed=series_seed,
            name=name,
        )
        for name, series_seed in zip(names, seeds)
    }
    batches = _batches(n_points, seed)

    # -- 1. arm one fault ------------------------------------------------------
    plan = _build_plan(fault, seed, engine, n_appends=len(batches))
    if fleet:
        router = ShardRouter(n_shards)
        owners = {name: router.shard_of(name) for name in names}
        shards = list(owners.values())
        counts = [shards.count(index) for index in range(n_shards)]
        # The victim is the busiest shard (ties to the lowest index), so
        # the crash interrupts as many per-series engines as possible.
        result.victim = counts.index(max(counts))
        result.victim_series = counts[result.victim]
        live = ShardedDatabase(
            n_shards,
            memory_budget_per_series=_CASE_CONFIG["memory_budget"],
            sstable_size=_CASE_CONFIG["sstable_size"],
            auto_tune=False,
            durability_dir=stem,
            stability=stability,
            shard_fault_plans={result.victim: plan},
        )
        # Register every series, then checkpoint: the shard manifests
        # must exist before the crash for recovery to know the fleet's
        # shape.
        for name in names:
            live.database_for(name).create_series(name)
        live.checkpoint_all()
    else:
        wal_path, checkpoint_path = f"{stem}.wal", f"{stem}.ckpt"
        config = LsmConfig(**_CASE_CONFIG, wal_path=wal_path).with_stability(
            **stability
        )
        live = row.build(replace(config, fault_plan=plan))

    # -- 2. ingest until the armed fault kills the "process" -------------------
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
            if fleet:
                live.ingest_batch(
                    [(name, datasets[name].tg[region]) for name in names],
                    sync=(index % 2 == 1),
                )
            else:
                live.ingest(datasets[engine].tg[region], datasets[engine].ta[region])
            if index + 1 == checkpoint_after:
                if fleet:
                    live.checkpoint_all()
                else:
                    live.save_checkpoint(checkpoint_path)
            if power_cut_after is not None and index + 1 == power_cut_after:
                result.crashed = True
                break
    except InjectedCrash:
        result.crashed = True
    if not result.crashed:
        result.error = "armed fault never fired"
        return result

    # -- 3. die: only the files survive ----------------------------------------
    if fleet:
        # The victim process is dead: its pending group frames are lost
        # with it (never close its WAL handles — close would commit
        # them).  The survivors are still alive; they sync and carry on.
        for index, db in enumerate(live.shards):
            if index != result.victim:
                db.sync()
        before = _survivors(live, result.victim)
    else:
        del live

    # -- 4. recover from the directory -----------------------------------------
    try:
        if fleet:
            victim = TimeSeriesDatabase.recover(
                os.path.join(stem, shard_name(result.victim)),
                telemetry=telemetry,
                namespace=shard_name(result.victim),
            )
            recovered = {name: victim.series(name).engine for name in victim.series_names()}
            result.verified = True  # ``recover`` verifies every engine
        else:
            report = recover_engine(
                engine_constructor(row.engine),
                wal_path,
                checkpoint_path=(
                    checkpoint_path if os.path.exists(checkpoint_path) else None
                ),
                config=config,
                engine_kwargs={**row.selector, **row.small},
                telemetry=telemetry,
            )
            recovered = {engine: report.engine}
            result.replayed_points = report.replayed_points
            result.checkpoint_used = report.checkpoint_used
            result.checkpoint_corrupt = report.checkpoint_corrupt
            result.wal_torn = report.wal_torn
            result.verified = report.verified
    except Exception as exc:  # recovery must never fail a case silently
        result.error = f"recovery failed: {exc!r}"
        return result
    result.durable_points = sum(e.ingested_points for e in recovered.values())
    if fleet:
        result.survivors_untouched = _survivors(live, result.victim) == before
        routed = sorted(name for name in names if owners[name] == result.victim)
        if not result.survivors_untouched:
            result.error = "victim recovery touched a surviving shard"
        elif sorted(recovered) != routed:
            result.error = f"victim recovered series {sorted(recovered)} != routed {routed}"
    elif fault == "torn_wal" and not result.wal_torn:
        result.error = "torn WAL tail was not detected"
    elif fault == "corrupt_checkpoint" and not result.checkpoint_corrupt:
        result.error = "checkpoint corruption was not detected"
    if result.error is not None:
        return result

    # -- 5. every durable prefix must reproduce a crash-free run exactly ------
    clean_config = LsmConfig(**_CASE_CONFIG).with_stability(**stability)
    result.wa_match = True
    for name, revived in recovered.items():
        mismatch = _prefix_mismatch(row, clean_config, datasets[name], revived)
        if mismatch is not None:
            result.wa_match = False
            result.error = f"{name}: {mismatch}" if fleet else mismatch
            break
    return result


def run_crash_test(
    engines: list[str] | None = None,
    seeds: int = 3,
    n_points: int = 6000,
    workdir: str | None = None,
    telemetry=None,
    faults: list[str] | None = None,
    fleet_shards: int | None = None,
) -> CrashTestReport:
    """Run the full crash-test matrix: engines × fault kinds × seeds.

    Cells run one after another; each keys its WAL/checkpoint files by
    ``engine-fault-seed``, so none sees another's files.  ``faults`` selects the fault kinds to sweep — pass overload kinds
    (:data:`OVERLOAD_FAULT_KINDS`) to crash-test the degraded engine.
    ``fleet_shards`` runs the fleet matrix instead — every
    :data:`FLEET_FAULT_KINDS` kind × seed against a fleet that wide
    (``engines`` and ``n_points`` do not apply to it).

    A selection that leaves no cell is a :class:`FaultError`: a matrix
    that tested nothing must not pass.
    """
    fleet = fleet_shards is not None
    keys = ["fleet"] if fleet else list(CRASH_TEST_ENGINES if engines is None else engines)
    default = FLEET_FAULT_KINDS if fleet else FAULT_KINDS
    kinds = list(default if faults is None else faults)
    _check(keys, kinds)
    size = dict(n_shards=fleet_shards) if fleet else dict(n_points=n_points)
    cells = [
        (key, fault, seed)
        for key in keys
        for fault in kinds
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
        results = [
            run_crash_case(*cell, base, telemetry=telemetry, **size)
            for cell in cells
        ]
    return CrashTestReport(results)
