"""Tail-latency stability: group-commit WAL, scheduler, backpressure.

Covers the robustness machinery end to end:

* stability knob validation on :class:`LsmConfig`;
* group-commit WAL bit-identity, durability window and sync barrier;
* crash mid-group-commit recovery for every registered engine class;
* scheduler/stop-the-world equivalence and bounded per-append work;
* crash mid-schedule recovery under overload faults;
* backpressure state transitions, shedding included;
* the injectable fault clock and the stability report renderer.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    AdaptiveEngine,
    ConfigError,
    ConventionalEngine,
    FaultInjector,
    FaultPlan,
    IoTDBStyleEngine,
    LsmConfig,
    MultiLevelEngine,
    SeparationEngine,
    ShardedDatabase,
    TieredEngine,
    TimeSeriesDatabase,
    WriteAheadLog,
    read_wal,
    recover_engine,
)
from repro.distributions import ExponentialDelay, LogNormalDelay
from repro.errors import InjectedCrash
from repro.faults import OVERLOAD_FAULT_KINDS, run_crash_case
from repro.lsm import HEALTHY, SHEDDING, THROTTLED, LsmEngine, SSTable
from repro.lsm.sstable import POINT_BYTES
from repro.lsm.policies import (
    LeveledSingleRun,
    MergeFlush,
    SeparationFlush,
    SinglePlacement,
    SplitPlacement,
    compose_engine,
)
from repro.lsm.wal import GROUP_BYTES
from repro.obs import render_trace_report, summarize_trace
from repro.workloads import generate_synthetic

from tests.conformance_support import snapshot_digest

#: Small buffers so a few thousand points exercise many landings.
_SMALL = dict(memory_budget=64, sstable_size=32)

#: Scheduler pacing used by the equivalence tests: slow enough that the
#: queue stays populated across batches, with admission kept healthy so
#: only the pacing itself is under test.
_PACED = dict(
    compaction_scheduler=True,
    compaction_work_unit=256,
    compaction_tokens_per_point=2.0,
    compaction_burst=2048,
    backpressure_throttle=10**9,
    backpressure_shed=10**9,
)

#: Every registered engine class, with constructor kwargs and whether
#: ingest wants aligned arrival times.
_ENGINE_CASES = {
    "pi_c": (ConventionalEngine, {}, False),
    "pi_s": (SeparationEngine, {}, False),
    "adaptive": (AdaptiveEngine, {"check_interval": 512}, True),
    "iotdb": (IoTDBStyleEngine, {"policy": "conventional", "l1_file_limit": 4}, False),
    "multilevel": (MultiLevelEngine, {"size_ratio": 4, "max_levels": 4}, False),
    "tiered": (TieredEngine, {"tier_fanout": 3, "max_levels": 4}, False),
    "composed": (
        compose_engine,
        {"placement": "split", "compaction": "multilevel"},
        False,
    ),
}


def _stream(n=3000, seed=7):
    return generate_synthetic(n, dt=1.0, delay=ExponentialDelay(mean=40.0), seed=seed)


# -- config validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(wal_group_records=0), "wal_group_records"),
        (dict(wal_group_records=-1), "wal_group_records"),
        (dict(compaction_work_unit=0), "compaction_work_unit"),
        (dict(compaction_tokens_per_point=0.0), "compaction_tokens_per_point"),
        (dict(compaction_burst=0), "compaction_burst"),
        (dict(backpressure_throttle=0), "backpressure_throttle"),
        (dict(backpressure_shed=-3), "backpressure_shed"),
        (
            dict(backpressure_throttle=500, backpressure_shed=100),
            "must not exceed",
        ),
        (dict(compaction_tokens_per_point=float("nan")), "compaction_tokens_per_point"),
        (dict(compaction_tokens_per_point="2"), "compaction_tokens_per_point"),
        (dict(compaction_scheduler="yes"), "compaction_scheduler"),
        (dict(compaction_scheduler=1), "compaction_scheduler"),
    ],
)
def test_stability_knob_validation(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        LsmConfig(64, 32, **overrides)


def test_with_stability_rejects_unknown_knob():
    with pytest.raises(ConfigError, match="unknown stability knob"):
        LsmConfig(64, 32).with_stability(wal_group_record=4)


# -- group-commit WAL ----------------------------------------------------------


def _sample_batches(n_batches=9, points=16, seed=3):
    rng = np.random.default_rng(seed)
    batches, start = [], 0
    for _ in range(n_batches):
        tg = np.sort(rng.uniform(0, 1e4, points))
        batches.append((tg, start))
        start += points
    return batches


def test_group_commit_bytes_identical_to_per_record(tmp_path):
    """Grouping changes commit timing, never the on-disk byte stream."""
    per_record = str(tmp_path / "per_record.wal")
    grouped = str(tmp_path / "grouped.wal")
    wal_a = WriteAheadLog(per_record)
    wal_b = WriteAheadLog(grouped, group_records=4)
    for tg, start in _sample_batches():
        wal_a.append(tg, start)
        wal_b.append(tg, start)
    wal_a.close()
    wal_b.close()
    with open(per_record, "rb") as a, open(grouped, "rb") as b:
        assert a.read() == b.read()
    assert wal_b.coalescing_ratio > 1.0


def test_group_commit_durability_window_and_sync(tmp_path):
    """Pending frames are not durable until the group or sync commits."""
    path = str(tmp_path / "grouped.wal")
    wal = WriteAheadLog(path, group_records=3)
    batches = _sample_batches(n_batches=7)
    for tg, start in batches:
        wal.append(tg, start)
    # 7 appends, trigger at 3: two groups (6 records) are on disk, one
    # acknowledged record is still pending in memory.
    assert wal.appended == 7
    assert wal.appended - wal.records_committed == 1
    assert wal.groups_committed == 2
    assert len(read_wal(path).records) == 6
    wal.sync()
    assert wal.appended - wal.records_committed == 0
    result = read_wal(path)
    assert len(result.records) == 7
    assert not result.torn
    for record, (tg, start) in zip(result.records, batches):
        assert record.start_id == start
        np.testing.assert_array_equal(record.tg, tg)
    wal.close()


def test_group_commit_bytes_trigger(tmp_path):
    """A group of GROUP_BYTES commits even when the record trigger is huge."""
    path = str(tmp_path / "bytes.wal")
    wal = WriteAheadLog(path, group_records=1_000_000)
    small, start = _sample_batches(n_batches=1)[0]
    wal.append(small, start)
    assert wal.appended - wal.records_committed == 1
    big = np.arange(GROUP_BYTES // 8 + 1, dtype=np.float64)  # one frame > 1 MiB
    wal.append(big, start + small.size)
    assert wal.appended - wal.records_committed == 0
    assert [record.tg.size for record in read_wal(path).records] == [small.size, big.size]
    wal.close()


def test_fresh_wal_header_is_durable_before_first_group(tmp_path):
    """A crash inside the first group window leaves a valid empty WAL."""
    path = str(tmp_path / "fresh.wal")
    wal = WriteAheadLog(path, group_records=100)
    tg, start = _sample_batches(n_batches=1)[0]
    wal.append(tg, start)
    # The frame is pending, but the header was flushed eagerly: the file
    # on disk must already read as a valid, empty WAL.
    assert wal.appended - wal.records_committed == 1
    assert os.path.getsize(path) > 0
    result = read_wal(path)
    assert result.records == []
    assert not result.torn
    wal.close()


# -- crash mid-group-commit, every registered engine ---------------------------


@pytest.mark.parametrize("key", sorted(_ENGINE_CASES))
def test_torn_group_crash_recovers_last_complete_record(key, tmp_path):
    """Recovery after a crash mid-group-commit is exact for every engine.

    A torn append commits the pending group, tears the in-flight frame,
    and kills the run; recovery must truncate the tail and reproduce the
    crash-free write history over the durable prefix.
    """
    cls, kwargs, wants_ta = _ENGINE_CASES[key]
    wal_path = str(tmp_path / f"{key}.wal")
    config = LsmConfig(**_SMALL, wal_path=wal_path).with_stability(
        wal_group_records=3
    )
    armed = replace(config, fault_plan=FaultPlan(seed=1, torn_wal_append_at=11))
    live = cls(config=armed, **kwargs)
    dataset = _stream()
    step = 100
    with pytest.raises(InjectedCrash):
        for start in range(0, len(dataset), step):
            region = slice(start, start + step)
            if wants_ta:
                live.ingest(dataset.tg[region], dataset.ta[region])
            else:
                live.ingest(dataset.tg[region])
    del live  # the process is dead; only the files survive

    scan = read_wal(wal_path)
    assert scan.torn, "the torn frame must be detectable"
    # Appends 1-10 were acknowledged; the torn branch committed them all
    # before tearing frame 11, so the durable prefix is 10 full records.
    assert len(scan.records) == 10

    report = recover_engine(cls, wal_path, config=config, engine_kwargs=kwargs)
    assert report.wal_torn
    assert report.verified
    durable = report.durable_points
    assert durable == 10 * step

    clean = cls(config=LsmConfig(**_SMALL), **kwargs)
    if wants_ta:
        clean.ingest(dataset.tg[:durable], dataset.ta[:durable])
    else:
        clean.ingest(dataset.tg[:durable])
    recovered = report.engine
    assert recovered.stats.disk_writes == clean.stats.disk_writes
    assert np.array_equal(recovered.stats.write_counts, clean.stats.write_counts)


# -- incremental scheduler -----------------------------------------------------


@pytest.mark.parametrize("key", sorted(set(_ENGINE_CASES) - {"adaptive"}))
def test_scheduler_matches_stop_the_world(key, tmp_path):
    """Pacing landings must not change what lands, for every kernel."""
    cls, kwargs, _ = _ENGINE_CASES[key]
    dataset = _stream(4000, seed=11)
    baseline = cls(config=LsmConfig(**_SMALL), **kwargs)
    paced = cls(config=LsmConfig(**_SMALL).with_stability(**_PACED), **kwargs)
    step = 137
    for start in range(0, len(dataset), step):
        region = slice(start, start + step)
        baseline.ingest(dataset.tg[region])
        paced.ingest(dataset.tg[region])
    baseline.flush_all()
    paced.flush_all()
    assert paced.scheduler is not None
    assert len(paced.scheduler) == 0, "flush_all must drain the queue"
    assert baseline.ingested_points == paced.ingested_points
    assert baseline.write_amplification == paced.write_amplification
    assert np.array_equal(baseline.stats.write_counts, paced.stats.write_counts)
    # Same landings in the same order with the same rewrite volumes —
    # pacing may only move their ``arrival_index`` stamps — and the
    # same tables on disk afterwards.
    assert [
        event._replace(arrival_index=0) for event in paced.stats.events
    ] == [
        event._replace(arrival_index=0) for event in baseline.stats.events
    ]
    assert snapshot_digest(paced.snapshot()) == snapshot_digest(baseline.snapshot())
    baseline.verify()
    paced.verify()


class _ObservingLeveled(LeveledSingleRun):
    """Records every landing at the moment it starts executing."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def land(self, op, memtable, unit_points):
        self.seen.append((op, len(memtable)))
        yield from super().land(op, memtable, unit_points)


@pytest.mark.parametrize(
    "placement, flush",
    [(SinglePlacement, MergeFlush), (SplitPlacement, SeparationFlush)],
    ids=["pi_c", "pi_s"],
)
def test_landing_hook_sees_every_landing_in_both_modes(placement, flush):
    """There is one landing path: a policy subclass observing ``land``
    sees the same ``(op, len(memtable))`` sequence paced or not."""
    dataset = _stream(20_000, seed=23)
    seen = {}
    for label, config in (
        ("stop_the_world", LsmConfig(**_SMALL)),
        ("paced", LsmConfig(**_SMALL).with_stability(**_PACED)),
    ):
        compaction = _ObservingLeveled()
        engine = LsmEngine(
            config, placement=placement(), flush=flush(), compaction=compaction
        )
        for start in range(0, len(dataset), 137):
            engine.ingest(dataset.tg[start : start + 137])
        engine.flush_all()
        assert len(compaction.seen) == len(engine.stats.events)
        seen[label] = compaction.seen
    assert len(seen["paced"]) > 300
    assert seen["paced"] == seen["stop_the_world"]


def test_scheduler_bounds_per_append_work():
    """No single append may execute more than one bucket's worth of work."""
    dataset = _stream(4000, seed=5)
    config = LsmConfig(**_SMALL).with_stability(
        compaction_scheduler=True,
        compaction_work_unit=32,
        compaction_tokens_per_point=1.0,
        compaction_burst=128,
        backpressure_throttle=10**9,
        backpressure_shed=10**9,
    )
    engine = ConventionalEngine(config)
    step = 100
    for start in range(0, len(dataset), step):
        engine.ingest(dataset.tg[start : start + step])
    scheduler = engine.scheduler
    # Per batch: at most burst + refill tokens of charged work, plus one
    # work unit of overshoot (spend() may overdraw a unit).
    bound = 128 + 1.0 * step + 32
    assert 0 < scheduler.max_batch_work_points <= bound
    engine.flush_all()
    engine.verify()


def test_checkpoint_drains_scheduler(tmp_path):
    """A checkpoint is a sync point: nothing may stay queued."""
    dataset = _stream(2000, seed=9)
    engine = ConventionalEngine(LsmConfig(**_SMALL).with_stability(**_PACED))
    engine.ingest(dataset.tg)
    path = str(tmp_path / "paced.ckpt")
    engine.save_checkpoint(path)
    assert len(engine.scheduler) == 0
    restored = LsmEngine.restore(path)
    assert restored.ingested_points == engine.ingested_points
    assert np.array_equal(restored.stats.write_counts, engine.stats.write_counts)
    restored.verify()


@pytest.mark.parametrize("fault", OVERLOAD_FAULT_KINDS)
def test_crash_mid_schedule_recovers_exactly(fault, tmp_path):
    """Overload cases: crash while degraded, group-commit + scheduler on."""
    result = run_crash_case("pi_c", fault, seed=0, workdir=str(tmp_path))
    assert result.ok, result.describe()


# -- backpressure --------------------------------------------------------------


def _congested_config(**overrides):
    """A scheduler that cannot keep up, so landing debt accumulates."""
    base = dict(
        compaction_scheduler=True,
        compaction_work_unit=32,
        compaction_tokens_per_point=0.01,
        compaction_burst=1,
    )
    base.update(overrides)
    return LsmConfig(**_SMALL).with_stability(**base)


def test_backpressure_wait_mode_throttles_then_recovers():
    dataset = _stream(4000, seed=13)
    config = _congested_config(
        backpressure_throttle=256,
        backpressure_shed=2048,
    )
    engine = ConventionalEngine(config)
    step = 64
    for start in range(0, len(dataset), step):
        engine.ingest(dataset.tg[start : start + step])
    admission = engine.admission
    states_entered = {target for _, target, _ in admission.transitions}
    assert THROTTLED in states_entered
    assert admission.stall_count > 0
    assert admission.total_stall_ms >= admission.max_stall_ms >= 0.0
    engine.flush_all()
    engine.verify()
    assert engine.ingested_points == len(dataset)
    # With the backlog drained, the next admission sees a tiny debt and
    # the controller recovers to healthy.
    engine.ingest(dataset.tg[:1])
    assert engine.admission.state == HEALTHY


def test_backpressure_shedding_wait_mode_drains():
    dataset = _stream(2000, seed=17)
    config = _congested_config(
        backpressure_throttle=192,
        backpressure_shed=192,  # throttle == shed: straight to shedding
    )
    engine = ConventionalEngine(config)
    step = 64
    for start in range(0, len(dataset), step):
        engine.ingest(dataset.tg[start : start + step])
    transitions = engine.admission.transitions
    assert SHEDDING in {target for _, target, _ in transitions}
    # A shedding wait drains the whole backlog, so the admission right
    # after it sees only the live MemTable and recovers to healthy.
    assert any(
        source == SHEDDING and target == HEALTHY
        for source, target, _ in transitions
    )
    # Every batch admitted while shedding is counted, and each stalled.
    assert 0 < engine.admission.shed_batches <= engine.admission.stall_count
    engine.flush_all()
    engine.verify()


def test_database_surfaces_backpressure_and_sync(tmp_path):
    db = TimeSeriesDatabase(
        memory_budget_per_series=64,
        sstable_size=32,
        auto_tune=False,
        durability_dir=str(tmp_path / "fleet"),
        stability=dict(wal_group_records=4, compaction_scheduler=True),
    )
    dataset = _stream(600, seed=23)
    db.write("s1", dataset.tg)
    assert db.backpressure_state("s1") == HEALTHY
    engine = db.series("s1").engine
    # Group commit may hold acknowledged frames; sync is the barrier.
    db.sync()
    assert engine.wal.appended == engine.wal.records_committed
    scan = read_wal(engine.config.wal_path)
    assert scan.total_points == len(dataset)

    manifest_path = db.checkpoint_all()
    manifest = json.loads(open(manifest_path).read())
    assert manifest["stability"] == db.stability
    revived = TimeSeriesDatabase.recover(str(tmp_path / "fleet"))
    assert revived.stability == db.stability
    series = revived.series("s1")
    assert series.config.wal_group_records == 4
    assert series.config.compaction_scheduler is True
    assert series.engine.ingested_points == len(dataset)


def test_a_manifest_with_retired_knobs_recovers(tmp_path):
    """A durability directory whose manifests record the retired
    ``wal_group_bytes`` / ``backpressure_mode`` knobs (settable once)
    recovers without them, write counters included; a fleet too."""
    retired = {"wal_group_bytes": 4096, "backpressure_mode": "wait"}
    dataset = _stream(600, seed=29)
    db = TimeSeriesDatabase(
        64, 32, auto_tune=False, durability_dir=str(tmp_path / "db"),
        stability=dict(wal_group_records=4),
    )
    fleet = ShardedDatabase(
        2, 64, 32, auto_tune=False, durability_dir=str(tmp_path / "fleet"),
        stability=dict(wal_group_records=4),
    )
    for name in ("s1", "s2"):
        db.write(name, dataset.tg[:400])
        fleet.write(name, dataset.tg[:400])
    manifests = [db.checkpoint_all(), fleet.checkpoint_all()]
    manifests += [str(p) for p in (tmp_path / "fleet").rglob("*manifest*.json")]
    for path in manifests:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["stability"].update(retired)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
    for name in ("s1", "s2"):  # a WAL tail past the checkpoints
        db.write(name, dataset.tg[400:])
        fleet.write(name, dataset.tg[400:])
    db.sync()
    fleet.sync()
    revived = TimeSeriesDatabase.recover(str(tmp_path / "db"))
    revived_fleet = ShardedDatabase.recover(str(tmp_path / "fleet"))
    assert revived.stability == revived_fleet.stability == {"wal_group_records": 4}
    for name in ("s1", "s2"):
        for live, back in (
            (db, revived),
            (fleet.database_for(name), revived_fleet.database_for(name)),
        ):
            want, got = live.series(name).engine.stats, back.series(name).engine.stats
            assert got.user_points == want.user_points == 600
            assert got.disk_writes == want.disk_writes
            np.testing.assert_array_equal(got.write_counts[:600], want.write_counts[:600])


def test_wal_handle_and_its_pending_group_survive_a_retune(tmp_path):
    """A retune re-splits the engine in place: the WAL handle and the
    group it is still filling stay — a policy change is not a durability
    barrier.  Its control frame joins that group like any other frame."""
    db = TimeSeriesDatabase(
        memory_budget_per_series=512,
        sstable_size=128,
        durability_dir=str(tmp_path / "db"),
        stability=dict(wal_group_records=8),
    )
    dataset = generate_synthetic(6000, 50.0, LogNormalDelay(5.0, 2.0), seed=3)
    for pos in range(0, 6000, 100):
        db.write("s", dataset.tg[pos : pos + 100], dataset.ta[pos : pos + 100])
    def counters():
        wal = db.series("s").engine.wal
        return (
            wal.appended,
            wal.groups_committed,
            wal.coalescing_ratio,
            wal.appended - wal.records_committed,
        )

    before = counters()
    assert before == (60, 7, 8.0, 4)
    assert db.retune()
    assert counters() == (61, 7, 8.0, 5)


# -- admission debt is a running total -----------------------------------------

#: The cold layout a walk keeps: after every step, the tables whose newest
#: point trails the watermark by at least this age go columnar (``0.0``:
#: every table); ``None`` leaves conversion to the walk's own steps.
_COLD_MODES = {
    "row": None,
    "cold-all": 0.0,
    "cold-deep": 1000.0,
    "cold-aged": 200.0,
}


def _convert_aged(engine, age):
    engine.convert_cold(max_tg=engine.compaction.watermark() - age, block_size=8)


_DEBT_ENGINES = {
    "leveled": (ConventionalEngine, {}),
    "multilevel": (MultiLevelEngine, {"size_ratio": 3, "max_levels": 4}),
    "tiered": (TieredEngine, {"tier_fanout": 3, "max_levels": 4}),
    "iotdb": (IoTDBStyleEngine, {"policy": "separation", "l1_file_limit": 3}),
}


def _assert_debt_is_its_definition(engine):
    """The O(1) totals against the from-scratch walks they replaced."""
    tables = engine.compaction.visible_tables()
    resident = sum(table.stats_nbytes for table in tables)
    assert engine.cold_tier_bytes() == resident
    scheduler = engine.scheduler
    assert engine.admission.debt_points() == (
        sum(len(memtable) for memtable in engine.placement.memtables())
        + (scheduler.backlog_points if scheduler is not None else 0)
        + resident // POINT_BYTES
    )


@pytest.mark.parametrize("scheduled", [False, True], ids=["sync", "scheduled"])
@pytest.mark.parametrize("engine_key", sorted(_DEBT_ENGINES))
@pytest.mark.parametrize("cold", sorted(_COLD_MODES))
def test_admission_debt_equals_its_definition_after_every_step(
    cold, engine_key, scheduled, tmp_path
):
    """A seeded walk over everything that adds, converts, removes or
    replaces tables: after each step the kernel's running total of
    resident block statistics, and the admission debt built on it, equal
    the sums over ``visible_tables()`` they used to be computed from."""
    config = LsmConfig(**_SMALL).with_stability(
        backpressure_throttle=10**9, backpressure_shed=10**9
    )
    if scheduled:
        config = config.with_stability(**_PACED)
    cls, kwargs = _DEBT_ENGINES[engine_key]
    engine = cls(config=config, **kwargs)
    dataset = _stream(6000, seed=23)
    rng = np.random.default_rng(sorted(_COLD_MODES).index(cold) * 8 + scheduled)
    pos = 0
    steps = []
    for _ in range(60):
        step = rng.choice(
            ["ingest"] * 6 + ["flush_all", "convert_cold", "resplit", "restore"]
        )
        if step == "ingest":
            take = int(rng.choice([1, 17, 64, 150, 400]))
            engine.ingest(dataset.tg[pos : pos + take])
            pos += take
        elif step == "flush_all":
            engine.flush_all()
        elif step == "convert_cold":
            # Half of what is on disk, so row and columnar tables mix.
            mark = engine.compaction.watermark()
            engine.convert_cold(max_tg=mark / 2 if mark > 0 else None, block_size=4)
        elif step == "resplit":
            if engine.row.key not in ("conventional", "separation"):
                continue
            n_seq = engine.config.seq_capacity
            engine.resplit(None if n_seq is not None else int(rng.integers(8, 56)))
        else:
            path = str(tmp_path / "walk.ckpt")
            engine.save_checkpoint(path)
            engine = LsmEngine.restore(path, config=engine.config)
        steps.append(step)
        _assert_debt_is_its_definition(engine)
        if _COLD_MODES[cold] is not None:
            _convert_aged(engine, _COLD_MODES[cold])
            _assert_debt_is_its_definition(engine)
    assert {"ingest", "flush_all", "convert_cold", "restore"} <= set(steps)
    assert pos > 2000 and len(engine.compaction.visible_tables()) > 10
    engine.flush_all()
    engine.verify()
    _assert_debt_is_its_definition(engine)


@pytest.mark.parametrize("cold", ["row", "cold-all"])
def test_admission_reads_statistics_only_of_tables_a_landing_touched(
    cold, monkeypatch
):
    """No table walk on the admit path: on a series holding 500+ tables,
    1000 admitted 128-point batches read ``stats_nbytes`` only of tables
    their own landings wrote or removed — not of the run."""
    config = LsmConfig(memory_budget=128, sstable_size=32).with_stability(
        compaction_scheduler=True
    )
    engine = ConventionalEngine(config)
    dataset = generate_synthetic(
        150_000, dt=1.0, delay=ExponentialDelay(mean=40.0), seed=29
    )
    loaded = 22_000
    engine.ingest(dataset.tg[:loaded])
    if _COLD_MODES[cold] is not None:
        _convert_aged(engine, _COLD_MODES[cold])
    resident_before = {table.table_id for table in engine.compaction.run.tables}
    assert len(resident_before) >= 500
    first_new_id = SSTable(np.zeros(1), np.zeros(1, dtype=np.int64)).table_id

    reads = []
    plain = SSTable.stats_nbytes
    monkeypatch.setattr(
        SSTable,
        "stats_nbytes",
        property(lambda table: reads.append(table.table_id) or plain.fget(table)),
    )
    admitted_before = engine.stats.user_points
    for start in range(loaded, loaded + 1000 * 128, 128):
        engine.ingest(dataset.tg[start : start + 128])
    monkeypatch.undo()

    assert engine.stats.user_points == admitted_before + 128_000
    removed = resident_before - {table.table_id for table in engine.compaction.run.tables}
    assert removed, "the stream must rewrite some of the loaded tables"
    assert all(read in removed or read >= first_new_id for read in reads)
    # Each table is read at most once entering and once leaving.
    written = SSTable(np.zeros(1), np.zeros(1, dtype=np.int64)).table_id - first_new_id
    assert len(reads) <= 2 * written + len(removed)
    _assert_debt_is_its_definition(engine)


# -- injectable fault clock ----------------------------------------------------


def test_fault_clock_is_injectable():
    """Delay spikes and backoff stall through the injected clock only."""
    sleeps: list[float] = []
    injector = FaultInjector(
        FaultPlan(seed=0, fsync_delay_ms=5.0, fsync_delay_every=2),
        sleep=sleeps.append,
    )
    assert injector.maybe_delay("wal.fsync") == 0.0  # 1st: not the every-2nd
    assert injector.maybe_delay("wal.fsync") == 5.0
    assert injector.maybe_delay("wal.fsync") == 0.0
    assert injector.maybe_delay("wal.fsync") == 5.0
    assert sleeps == [0.005, 0.005]
    assert injector.slept_s == pytest.approx(0.01)
    assert injector.counts["delay:wal.fsync"] == 4


# -- stability report ----------------------------------------------------------


def _trace_events():
    return [
        {"type": "wal.group_commit", "records": 4, "bytes": 600},
        {"type": "wal.group_commit", "records": 2, "bytes": 300},
        {
            "type": "backpressure",
            "from_state": "healthy",
            "to_state": "throttled",
            "debt_points": 300,
        },
        {
            "type": "backpressure",
            "from_state": "throttled",
            "to_state": "healthy",
            "debt_points": 40,
        },
        {"type": "stall", "state": "throttled", "duration_ms": 1.5, "work_points": 128},
        {"type": "span", "name": "merge", "incremental": True, "ms": 0.3},
        {"type": "span", "name": "merge", "ms": 0.2},
    ]


def test_summarize_stability_folds_events():
    summary = summarize_trace(_trace_events())
    assert summary.group_commits == 2
    assert summary.group_records == 6
    assert summary.coalescing_ratio == 3.0
    assert summary.max_group_records == 4
    assert summary.transitions == [
        ("healthy", "throttled", 300),
        ("throttled", "healthy", 40),
    ]
    assert summary.entered == {"throttled": 1, "healthy": 1}
    assert summary.stalls.count == 1
    assert summary.stalls.max_ms == 1.5
    assert summary.incremental_merges == 1


def test_render_stability_report_sections():
    text = render_trace_report(_trace_events(), source="unit")
    assert "stability report: unit" in text
    assert "group-commit WAL" in text
    assert "healthy -> throttled" in text
    assert "writer stalls" in text
    assert "incremental landings: 1" in text


def test_stability_report_cli_subcommand(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(json.dumps(e) for e in _trace_events()) + "\n")
    assert main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "group-commit WAL" in out
    assert "backpressure transitions" in out
