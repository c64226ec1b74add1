"""Engine conformance suite for the policy kernel.

Five layers of guarantees:

* **Golden fixture** — every first-class engine, driven over two Table II
  workloads, reproduces bit-for-bit the write-amplification accounting,
  event logs, telemetry totals and snapshot content recorded from the
  pre-refactor monolithic implementations
  (``tests/data/conformance_golden.json``).
* **Scheduled fixture** — every engine with the compaction scheduler
  pacing its landings reproduces the recorded event log
  (``arrival_index`` stamps included), snapshot, write counters and
  scheduler unit counts — the adaptive engine: its switch log
  (``tests/data/conformance_scheduled_golden.json``).
* **Database fixture** — three series through ``TimeSeriesDatabase``
  with retunes, resizes, checkpoints and a recovery reproduce what was
  recorded while a retune still replaced the engine object
  (``tests/data/database_retune_golden.json``).
* **Adaptive switch == database re-split** — the adaptive engine's own
  switch and ``resize_series`` on a database series, both
  ``StorageKernel.resplit``, produce the same event log, write counters
  and snapshot.
* **Roundtrip + crash recovery** — every registered engine *and* novel
  ``compose_engine`` combinations survive checkpoint/restore with equal
  WA and snapshots, and recover losslessly from an injected crash.
* **Legacy checkpoints** — checkpoint files written by the pre-refactor
  engines, and by the adaptive engine while it still wrapped an inner
  engine (``tests/data/legacy_checkpoints/``), still restore.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil

import numpy as np
import pytest

from repro.config import LsmConfig
from repro.core.tuning import SEPARATION
from repro.distributions import LogNormalDelay
from repro.errors import InjectedCrash
from repro.faults import FaultPlan
from repro.faults.crashtest import CRASH_TEST_ENGINES, run_crash_case
from repro.lsm import AdaptiveEngine, ConventionalEngine, SeparationEngine
from repro.lsm.base import LsmEngine
from repro.lsm.checkpoint import read_checkpoint
from repro.lsm.database import TimeSeriesDatabase
from repro.lsm.policies import ENGINES, compose_engine, engine_constructor
from repro.lsm.policies.compaction import SizeTiered
from repro.lsm.policies.flush import IndependentFlush
from repro.lsm.policies.placement import SplitPlacement
from repro.lsm.policies.compose import (
    _DEFAULT_FLUSH,
    _PARAMETERS,
    COMPACTIONS,
    PLACEMENTS,
    EngineRow,
    recordable_labels,
)
from repro.lsm.recovery import recover_engine
from repro.workloads import TABLE_II, DelaySegment, generate_dynamic, generate_synthetic

from tests.conformance_support import (
    CHECKPOINT_FIXTURE_PATH,
    CONFIG,
    DATABASE_FIXTURE_PATH,
    DATABASE_STABILITY,
    ENGINE_FACTORIES,
    LEGACY_DATABASE_DIR,
    N_POINTS,
    NOVEL_COMPOSITIONS,
    RESPLIT_CHECKPOINTS,
    SCHEDULED_CONFIG,
    SCHEDULED_ENGINES,
    SCHEDULED_FIXTURE_PATH,
    SCHEDULED_STABILITY,
    WORKLOADS,
    _feed,
    accounting_profile,
    build_checkpoint_fixture,
    load_fixture,
    profile_database,
    profile_engine,
    profile_scheduled,
    recovered_profile,
)

LEGACY_DIR = os.path.join(
    os.path.dirname(__file__), "data", "legacy_checkpoints"
)

def _dataset(n=3000, seed=9):
    return TABLE_II["M8"].build(n_points=n, seed=seed)


def _assert_same_state(left, right):
    """Two engines hold bit-identical durable state and accounting."""
    ls, rs = left.snapshot(), right.snapshot()
    assert ls.total_points == rs.total_points
    assert ls.disk_points == rs.disk_points
    assert ls.memory_points == rs.memory_points
    for attr in ("tg", "ids"):
        l_disk = (
            np.concatenate([getattr(t, attr) for t in ls.tables])
            if ls.tables
            else np.array([])
        )
        r_disk = (
            np.concatenate([getattr(t, attr) for t in rs.tables])
            if rs.tables
            else np.array([])
        )
        np.testing.assert_array_equal(np.sort(l_disk), np.sort(r_disk))
    assert left.ingested_points == right.ingested_points
    assert left.stats.user_points == right.stats.user_points
    assert left.stats.disk_writes == right.stats.disk_writes
    np.testing.assert_array_equal(
        left.stats.write_counts[: left.stats.user_points],
        right.stats.write_counts[: right.stats.user_points],
    )


class TestRegistry:
    def test_every_engine_class_is_registered(self):
        """Every row's recorded name resolves to the constructor that
        builds engines recording that name; nothing else does."""
        for row in ENGINES:
            build = engine_constructor(row.engine)
            if row.key is not None:
                assert build.__name__ == row.engine
                assert row.engine in recordable_labels(build)
        assert engine_constructor("ComposedEngine") is compose_engine
        assert engine_constructor("LeveledEngine") is None

    def test_a_named_constructor_takes_its_compactions_defaults(self):
        """A named constructor spells its compaction's parameters out,
        with the policy's own defaults; none takes an injector (faults
        arm an engine through ``config.fault_plan`` alone)."""
        for row in ENGINES:
            takes = inspect.signature(engine_constructor(row.engine)).parameters
            assert "faults" not in takes
            if row.key is not None:
                for name, default in _PARAMETERS[row.compaction].items():
                    assert takes[name].default == default, (row.engine, name)
        for entry in (LsmEngine, LsmEngine.restore, recover_engine, EngineRow.build):
            assert "faults" not in inspect.signature(entry).parameters

    def test_conformance_suite_covers_the_registry(self):
        """No registered engine can dodge the golden fixture."""
        covered = {
            factory(None).checkpoint_label
            for factory in ENGINE_FACTORIES.values()
        }
        uncovered = {row.engine for row in ENGINES} - covered - {"ComposedEngine"}
        assert not uncovered, f"engines missing a fixture profile: {uncovered}"
        assert set(load_fixture()["profiles"]) == set(ENGINE_FACTORIES)

    @pytest.mark.parametrize("key", sorted(ENGINE_FACTORIES))
    def test_a_built_engine_is_its_row(self, key):
        """The labels the table prints are the policies the engine runs."""
        (row,) = (row for row in ENGINES if row.key == key)
        engine = ENGINE_FACTORIES[key](None)
        assert engine.checkpoint_label == row.engine
        assert engine.compaction.name == row.compaction
        if key != "adaptive":  # its row describes the re-splitting, not one split
            assert engine.policy_name == row.policy_name
            assert engine.describe_policies() == {
                "placement": row.placement,
                "flush": row.flush,
                "compaction": row.compaction,
            }


#: Every triple ``compose_engine`` builds: each placement x compaction
#: pair, with the flush the pair fixes.
TRIPLES = [
    (placement, _DEFAULT_FLUSH[(placement, compaction)], compaction)
    for placement in PLACEMENTS
    for compaction in COMPACTIONS
]


@pytest.mark.parametrize("triple", TRIPLES, ids="+".join)
def test_every_triple_is_refused_or_ingests_a_disordered_stream(triple):
    """Every triple ``compose_engine`` builds ingests a disordered
    stream, drains and verifies: no pair fixes a flush its compaction
    cannot land (an appending flush over the one leveled run)."""
    assert len(TRIPLES) == 8
    placement, flush, compaction = triple
    config = LsmConfig(512, 512)
    engine = compose_engine(placement, compaction, config=config)
    assert engine.describe_policies() == dict(placement=placement, flush=flush, compaction=compaction)
    dataset = generate_synthetic(20_000, 50.0, LogNormalDelay(5.0, 2.0), seed=7)
    engine.ingest(dataset.tg, dataset.ta)
    engine.flush_all()
    engine.verify()
    assert engine.snapshot().total_points == 20_000


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine_key", sorted(ENGINE_FACTORIES))
class TestGoldenFixture:
    def test_profile_is_bit_identical(self, engine_key, workload):
        expected = load_fixture()["profiles"][engine_key][workload]
        actual = profile_engine(engine_key, workload)
        assert set(actual) == set(expected)
        for field in sorted(expected):
            assert actual[field] == expected[field], (
                f"{engine_key}/{workload}: {field} diverged from the "
                f"pre-refactor recording"
            )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine_key", sorted(SCHEDULED_ENGINES))
def test_scheduled_profile_is_bit_identical(engine_key, workload):
    """The paced path lands the same things at the same arrival stamps
    in the same number of work units as when the fixture was recorded."""
    fixture = load_fixture(SCHEDULED_FIXTURE_PATH)
    assert profile_scheduled(engine_key, workload) == (
        fixture["profiles"][engine_key][workload]
    )


@pytest.mark.parametrize("mode", sorted(DATABASE_STABILITY))
def test_database_profile_is_bit_identical(mode):
    """Retunes, resizes, checkpoints and recovery through the database
    leave the accounting, labels, files and telemetry that were recorded
    (group-commit counts aside: see ``conformance_support``)."""
    expected = load_fixture(DATABASE_FIXTURE_PATH)["profiles"][mode]
    actual = json.loads(json.dumps(profile_database(mode)))
    assert set(actual) == set(expected)
    for field in sorted(expected):
        assert actual[field] == expected[field], (
            f"{mode}: {field} diverged from the recording"
        )


def test_engine_checkpoints_are_byte_identical():
    """Every engine and the two novel triples write the checkpoint meta
    (recorded name, policy label, constructor kwargs, state) and the
    arrays, name by name, that were recorded — what directories written
    earlier are read back by."""
    expected = load_fixture(CHECKPOINT_FIXTURE_PATH)["profiles"]
    actual = json.loads(json.dumps(build_checkpoint_fixture()))["profiles"]
    assert sorted(actual) == sorted(expected)
    for key, profile in sorted(expected.items()):
        assert actual[key] == profile, f"{key}: checkpoint diverged"


@pytest.mark.parametrize("key", sorted(RESPLIT_CHECKPOINTS))
def test_a_resplit_engine_restores_as_the_engine_of_its_split(key, tmp_path):
    """A leveled engine re-split mid-stream records the name of the
    split it has, and every entry point that takes a leveled name —
    ``LsmEngine.restore`` and both named constructors' — revives it as
    that engine, in the state it was saved in."""
    cls, seq_capacity = RESPLIT_CHECKPOINTS[key]
    engine = cls(CONFIG)
    _feed(engine, "M8", resplit=(N_POINTS // 2, seq_capacity))
    path = str(tmp_path / "resplit.ckpt")
    engine.save_checkpoint(path)
    recorded = "SeparationEngine" if seq_capacity is not None else "ConventionalEngine"
    assert read_checkpoint(path)[0]["engine"] == recorded
    recovered = [
        recover_engine(cls, str(tmp_path / "absent.wal"), checkpoint_path=path).engine
        for cls in (ConventionalEngine, SeparationEngine)
    ]
    for restored in (LsmEngine.restore(path), *recovered):
        assert restored.checkpoint_label == recorded
        assert restored.current_policy == engine.current_policy
        _assert_same_state(engine, restored)
        restored.verify()


def _roundtrip_factories():
    cases = {
        key: (lambda cfg, f=factory: f(None))
        for key, factory in ENGINE_FACTORIES.items()
    }
    for name, spec in NOVEL_COMPOSITIONS.items():
        cases[name] = lambda cfg, s=spec: compose_engine(config=cfg, **s)
    return cases


ROUNDTRIP_FACTORIES = _roundtrip_factories()


@pytest.mark.parametrize("key", sorted(ROUNDTRIP_FACTORIES))
class TestCheckpointRoundtrip:
    def test_restore_continues_bit_identically(self, key, tmp_path):
        dataset = _dataset(3000, seed=9)
        config = LsmConfig(memory_budget=64, sstable_size=32)
        engine = ROUNDTRIP_FACTORIES[key](config)
        adaptive = engine.row.key == "adaptive"

        def feed(target, lo, hi):
            for pos in range(lo, hi, 700):
                end = min(pos + 700, hi)
                if adaptive:
                    target.ingest(dataset.tg[pos:end], dataset.ta[pos:end])
                else:
                    target.ingest(dataset.tg[pos:end])

        feed(engine, 0, 2100)
        ckpt = str(tmp_path / "mid.ckpt")
        engine.save_checkpoint(ckpt)
        # By-name restore through the base class proves registry routing.
        restored = LsmEngine.restore(ckpt)
        assert restored.row == engine.row
        _assert_same_state(engine, restored)
        feed(engine, 2100, 3000)
        feed(restored, 2100, 3000)
        engine.flush_all()
        restored.flush_all()
        _assert_same_state(engine, restored)
        assert (
            engine.stats.write_amplification
            == restored.stats.write_amplification
        )
        restored.verify()


@pytest.mark.parametrize("key", sorted(CRASH_TEST_ENGINES))
class TestInjectedCrashRecovery:
    def test_crash_at_flush_recovers_losslessly(self, key, tmp_path):
        result = run_crash_case(key, "crash_flush", 0, str(tmp_path))
        assert result.ok, result.describe()

    def test_crash_at_merge_recovers_losslessly(self, key, tmp_path):
        result = run_crash_case(key, "crash_merge", 0, str(tmp_path))
        assert result.ok, result.describe()


@pytest.mark.parametrize("name", sorted(NOVEL_COMPOSITIONS))
class TestComposedCrashRecovery:
    def test_injected_crash_then_wal_recovery(self, name, tmp_path):
        spec = NOVEL_COMPOSITIONS[name]
        dataset = _dataset(3000, seed=4)
        wal_path = str(tmp_path / "composed.wal")
        engine = compose_engine(
            config=LsmConfig(
                memory_budget=64,
                sstable_size=32,
                wal_path=wal_path,
                fault_plan=FaultPlan(seed=1, crash_at_flush=4),
            ),
            **spec,
        )
        crashed = False
        for pos in range(0, 3000, 500):
            try:
                engine.ingest(dataset.tg[pos : pos + 500])
            except InjectedCrash:
                crashed = True
                break
        assert crashed, "the armed flush crash never fired"
        engine.wal.close()

        report = recover_engine(
            compose_engine,
            wal_path,
            config=LsmConfig(memory_budget=64, sstable_size=32),
            engine_kwargs=dict(spec),
        )
        assert report.verified
        durable = report.durable_points
        assert durable > 0

        clean = compose_engine(
            config=LsmConfig(memory_budget=64, sstable_size=32), **spec
        )
        for pos in range(0, durable, 500):
            clean.ingest(dataset.tg[pos : min(pos + 500, durable)])
        _assert_same_state(clean, report.engine)


class TestAdaptiveRestore:
    """The satellite bugfix: pi_adaptive is a first-class LsmEngine."""

    def test_registered_and_restorable_by_name(self, tmp_path):
        assert engine_constructor("AdaptiveEngine") is AdaptiveEngine
        dataset = TABLE_II["M8"].build(n_points=6000, seed=3)
        engine = AdaptiveEngine(
            LsmConfig(memory_budget=64, sstable_size=32), check_interval=512
        )
        for pos in range(0, 6000, 937):
            engine.ingest(
                dataset.tg[pos : pos + 937], dataset.ta[pos : pos + 937]
            )
        assert engine.switches, "workload M8 must trigger a policy switch"
        assert engine.current_policy.startswith("pi_s")

        ckpt = str(tmp_path / "adaptive.ckpt")
        engine.save_checkpoint(ckpt)
        restored = LsmEngine.restore(ckpt)
        assert restored.row.engine == "AdaptiveEngine"
        assert restored.current_policy == engine.current_policy
        assert restored.switches == engine.switches
        assert len(restored.decisions) == len(engine.decisions)
        _assert_same_state(engine, restored)

        tail = TABLE_II["M8"].build(n_points=6000, seed=3)
        engine.ingest(tail.tg[:500] + 1e6, tail.ta[:500] + 1e6)
        restored.ingest(tail.tg[:500] + 1e6, tail.ta[:500] + 1e6)
        engine.flush_all()
        restored.flush_all()
        _assert_same_state(engine, restored)
        restored.verify()

        # The delays collapse: a tail that crosses checks and drifts.  The
        # restored analyzer holds the checkpointed window and drift
        # reference, so it retunes where the live one does.
        calm = generate_dynamic(
            [DelaySegment(3000, LogNormalDelay(0.0, 0.25))], dt=10.0, seed=4
        )
        decided = len(engine.decisions)
        for side in (engine, restored):
            side.ingest(calm.tg + 2e6, calm.ta + 2e6)
            side.flush_all()
        assert len(engine.decisions) > decided, "the tail must drift"
        assert restored.switches == engine.switches
        assert [d.arrival_index for d in restored.decisions] == [
            d.arrival_index for d in engine.decisions
        ]
        _assert_same_state(engine, restored)


_DIFF_STREAMS = {
    "M8": lambda: TABLE_II["M8"].build(n_points=6000, seed=3),
    # pi_c -> pi_s(n) -> pi_s(n'): both kinds of switch.
    "sigma_step": lambda: generate_dynamic(
        [DelaySegment(6000, LogNormalDelay(5.0, sigma)) for sigma in (0.5, 2.0)],
        dt=50.0,
        seed=5,
    ),
}


@pytest.mark.parametrize("scheduled", [False, True], ids=["sync", "scheduled"])
@pytest.mark.parametrize("stream", sorted(_DIFF_STREAMS))
def test_rebind_in_place_equals_successor_engines(stream, scheduled):
    """An adaptive switch and a database re-split are one behaviour: the
    same stream, re-split at the same arrivals to the same splits — by
    the engine's own tuner on one side, by ``resize_series`` on a series
    of an untuned database on the other — lands the same things at the
    same stamps.  (The name is from when the database side replaced its
    engine with a successor; ``database_retune_golden.json``, recorded
    then, is the reference for that equivalence now.)"""
    dataset = _DIFF_STREAMS[stream]()
    config = SCHEDULED_CONFIG if scheduled else CONFIG
    step = 512  # == check_interval, so both sides see the same calls
    adaptive = AdaptiveEngine(config, check_interval=step)
    for pos in range(0, len(dataset), step):
        adaptive.ingest(dataset.tg[pos : pos + step], dataset.ta[pos : pos + step])
    adaptive.flush_all()
    decided = {index: decision for index, decision, _ in adaptive.decisions}
    splits = {
        index: decided[index].seq_capacity
        if decided[index].policy == SEPARATION
        else None
        for index, _ in adaptive.switches
    }
    assert splits, "the stream must switch policy at least once"

    db = TimeSeriesDatabase(
        config.memory_budget,
        config.sstable_size,
        auto_tune=False,
        stability=SCHEDULED_STABILITY if scheduled else None,
    )
    engine = db.create_series("s").engine
    for pos in range(0, len(dataset), step):
        db.write("s", dataset.tg[pos : pos + step])
        if engine.ingested_points in splits:
            assert db.resize_series(
                "s", config.memory_budget, seq_capacity=splits[engine.ingested_points]
            )
    db.flush_all()

    assert db.series("s").engine is engine
    assert accounting_profile(adaptive) == accounting_profile(engine)
    assert adaptive.current_policy == db.series("s").policy_label
    adaptive.verify()
    engine.verify()


class TestLegacyCheckpoints:
    """Checkpoints written by the pre-refactor monoliths still restore."""

    @pytest.fixture(scope="class")
    def manifest(self):
        with open(os.path.join(LEGACY_DIR, "manifest.json")) as handle:
            return json.load(handle)

    @pytest.mark.parametrize(
        "key",
        [
            "conventional",
            "separation",
            "iotdb_conventional",
            "iotdb_separation",
            "multilevel",
            "tiered",
            "adaptive",
        ],
    )
    def test_legacy_checkpoint_restores(self, key, manifest):
        expected = manifest[key]
        engine = LsmEngine.restore(os.path.join(LEGACY_DIR, f"{key}.ckpt"))
        assert engine.checkpoint_label == expected["engine_class"]
        assert engine.ingested_points == expected["ingested_points"]
        assert engine.stats.disk_writes == expected["disk_writes"]
        assert engine.stats.write_amplification == pytest.approx(
            expected["write_amplification"]
        )
        snap = engine.snapshot()
        assert snap.disk_points == expected["disk_points"]
        assert snap.memory_points == expected["memory_points"]
        engine.verify()
        # The restored engine keeps working under the policy kernel.
        tail = np.linspace(1e9, 1e9 + 500.0, 200)
        if key == "adaptive":
            # Recorded mid-stream: after a switch, points still buffered.
            assert engine.current_policy == expected["current_policy"]
            assert [list(s) for s in engine.switches] == expected["switch_log"]
            assert len(engine.decisions) == expected["decisions"]
            engine.ingest(tail, tail + 1.0)
        else:
            engine.ingest(tail)
        engine.flush_all()
        engine.verify()

    @pytest.mark.parametrize(
        "key, recorded",
        [("iotdb_conventional", 29730.0), ("iotdb_separation", 29990.0), ("separation", 29990.0)],
    )
    def test_the_derived_watermark_is_the_one_recorded(self, key, recorded):
        """These files still store the watermark ``LAST(R).t_g`` beside
        the tables that define it (``max_disk_tg`` / ``last_disk_tg``);
        restore ignores that copy and derives the same value from the
        tables."""
        path = os.path.join(LEGACY_DIR, f"{key}.ckpt")
        state = read_checkpoint(path)[0]["state"]
        assert state.get("max_disk_tg", state.get("last_disk_tg")) == recorded
        assert LsmEngine.restore(path).compaction.watermark() == recorded


def test_legacy_database_directory_recovers(tmp_path):
    """A durability directory written when a retune replaced the engine
    object — one series retuned to pi_s, one split by hand, one left on
    pi_c, each WAL running past its checkpoint — recovers to the
    profile recorded beside it."""
    directory = str(tmp_path / "db")
    shutil.copytree(LEGACY_DATABASE_DIR, directory)
    with open(os.path.join(directory, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    assert sorted(expected["labels"].values()) == [
        "pi_c",
        "pi_s(n_seq=17)",
        "pi_s(n_seq=24)",
    ]
    assert json.loads(json.dumps(recovered_profile(directory))) == expected


_SPLIT_CONFIG = LsmConfig(512, 512, seq_capacity=256)


class TestSplitBatchingInvariance:
    """How a stream is cut into ``ingest`` calls must not show.

    The split placement classifies a bounded look-ahead window per
    iteration, and a call boundary cuts that window short.  A mistake
    in either place moves a fill event — and with it flush boundaries,
    event stamps and per-point write counts — for some batch sizes and
    not others.  So the same 100k-point stream goes in whole, in 4096s,
    in 255s and point by point, and everything observable must agree.
    """

    CHUNKS = (100_000, 4096, 255, 1)
    ENGINES = {
        "pi_s": lambda: SeparationEngine(_SPLIT_CONFIG),
        "pi_s+scheduler": lambda: SeparationEngine(
            _SPLIT_CONFIG.with_stability(compaction_scheduler=True)
        ),
        # No pair fixes this triple: a split placement over tiers lands
        # by separation.  Built by hand, it still cuts its stream alike.
        "split+independent+tiered": lambda: LsmEngine(
            _SPLIT_CONFIG,
            placement=SplitPlacement(),
            flush=IndependentFlush(),
            compaction=SizeTiered(),
        ),
    }

    @pytest.fixture(scope="class")
    def stream(self):
        return TABLE_II["M8"].build(n_points=100_000, seed=1).tg

    @staticmethod
    def _observe(engine, path, stamps):
        """Everything a caller can see of ``engine``, as plain values.

        Under the scheduler a landing commits some calls after it was
        queued, so its ``arrival_index`` stamp (and the checkpoint that
        stores it) follows the call boundaries by design; there the
        stamp is masked and only the drained end state is compared.
        """
        engine.verify()
        observed = {}
        if stamps:
            observed["mid_counts"] = engine.stats.write_counts.tobytes()
            engine.save_checkpoint(path)
            meta, arrays = read_checkpoint(path)
            observed["checkpoint_meta"] = meta
            observed["checkpoint_arrays"] = {
                key: (str(value.dtype), value.shape, value.tobytes())
                for key, value in arrays.items()
            }
        engine.flush_all()
        engine.verify()
        observed["events"] = [
            (
                event.kind,
                event.arrival_index if stamps else None,
                event.new_points,
                event.rewritten_points,
                event.tables_rewritten,
                event.tables_written,
            )
            for event in engine.stats.events
        ]
        observed["counts"] = engine.stats.write_counts.tobytes()
        observed["tables"] = [
            (table.tg.tobytes(), table.ids.tobytes())
            for table in engine.snapshot().tables
        ]
        return observed

    @pytest.mark.parametrize("kind", list(ENGINES))
    def test_same_state_for_every_batching(self, kind, stream, tmp_path):
        reference = None
        for chunk in self.CHUNKS:
            engine = self.ENGINES[kind]()
            for lo in range(0, stream.size, chunk):
                engine.ingest(stream[lo : lo + chunk])
            observed = self._observe(
                engine,
                str(tmp_path / f"{chunk}.ckpt"),
                stamps=engine.scheduler is None,
            )
            if reference is None:
                reference = observed
                assert len(observed["events"]) > 300
            else:
                for key, value in reference.items():
                    assert observed[key] == value, (
                        f"{kind}: {key} differs between one "
                        f"{self.CHUNKS[0]}-point call and {chunk}-point calls"
                    )
