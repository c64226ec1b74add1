"""Failure-injection and robustness tests across the stack."""

import json
import os
import re
import warnings

import numpy as np
import pytest

from repro import (
    AdaptiveEngine,
    ConfigError,
    ConventionalEngine,
    EngineError,
    ExponentialDelay,
    FaultPlan,
    IoTDBStyleEngine,
    JsonlFileSink,
    LogNormalDelay,
    LsmConfig,
    MultiLevelEngine,
    SeparationEngine,
    Telemetry,
    TieredEngine,
    TimeSeriesDatabase,
    compose_engine,
    read_wal,
    recover_engine,
)
from repro.cli import main as cli_main
from repro.errors import (
    EngineClosedError,
    InjectedCrash,
    ModelError,
    QueryError,
    RecoveryError,
    TelemetryError,
)
from repro.faults.crashtest import run_crash_case
from repro.lsm import CompactionEvent, WriteStats
from repro.lsm.base import Snapshot
from repro.lsm.pruning import TableIndex
from repro.obs import load_trace, render_trace_report, summarize_trace
from repro.query.aggregation import execute_aggregate_query
from repro.query.executor import execute_range_query
from repro.query.merge import aggregate_over_series, scan_over_series
from repro.serving import ShardedDatabase, ShardRouter
from repro.workloads import generate_synthetic
from tests.conformance_support import ENGINE_FACTORIES


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ConventionalEngine(LsmConfig(8, 8)),
        lambda: SeparationEngine(LsmConfig(8, 8)),
        lambda: IoTDBStyleEngine(LsmConfig(8, 8)),
        lambda: MultiLevelEngine(LsmConfig(8, 8)),
        lambda: TieredEngine(LsmConfig(8, 8)),
    ],
    ids=["conventional", "separation", "iotdb", "multilevel", "tiered"],
)
class TestNonFiniteInputsRejected:
    def test_nan_rejected(self, factory):
        engine = factory()
        with pytest.raises(EngineError):
            engine.ingest(np.array([1.0, np.nan, 2.0]))

    def test_inf_rejected(self, factory):
        engine = factory()
        with pytest.raises(EngineError):
            engine.ingest(np.array([np.inf]))

    def test_state_clean_after_rejection(self, factory):
        engine = factory()
        with pytest.raises(EngineError):
            engine.ingest(np.array([np.nan]))
        # A rejected batch must not leave partial state behind: a good
        # batch afterwards works and accounting stays exact.
        engine.ingest(np.arange(16, dtype=np.float64))
        engine.flush_all()
        assert engine.snapshot().total_points == 16


class TestAdaptiveRejectsBeforeLogging:
    """A batch the adaptive engine refuses must leave no durable trace."""

    def _engine(self, tmp_path):
        config = LsmConfig(64, 64, wal_path=str(tmp_path / "adaptive.wal"))
        return AdaptiveEngine(config, check_interval=64)

    def test_nan_arrival_time_does_not_poison_the_wal(self, tmp_path):
        engine = self._engine(tmp_path)
        dataset = generate_synthetic(200, 10.0, LogNormalDelay(4.0, 1.5), seed=2)
        engine.ingest(dataset.tg[:100], dataset.ta[:100])
        bad_ta = dataset.ta[100:].copy()
        bad_ta[7] = np.nan
        with pytest.raises(ModelError):
            engine.ingest(dataset.tg[100:], bad_ta)
        assert engine.ingested_points == 100
        engine.wal.sync()
        assert len(read_wal(engine.config.wal_path).records) == 1
        report = recover_engine(
            AdaptiveEngine,
            engine.config.wal_path,
            engine_kwargs={"check_interval": 64},
        )
        assert report.engine.ingested_points == 100
        # The corrected batch is accepted verbatim.
        engine.ingest(dataset.tg[100:], dataset.ta[100:])
        assert engine.ingested_points == 200
        engine.wal.sync()
        assert len(read_wal(engine.config.wal_path).records) == 2
        engine.flush_all()
        engine.verify()


class TestNanQueryBoundsRejected:
    """``hi < lo`` is false for NaN, so a NaN bound used to slip past
    the inverted-range check and get a count of *something* back (the
    tables' points but not the MemTables')."""

    BAD = [(0.0, np.nan), (np.nan, 0.0), (np.nan, np.nan), (-np.inf, np.nan)]

    def _snapshot(self):
        engine = ConventionalEngine(LsmConfig(8, 8))
        engine.ingest(np.arange(100, dtype=np.float64))
        snapshot = engine.snapshot()
        assert snapshot.tables and snapshot.memtables and snapshot.index is not None
        return snapshot

    @pytest.mark.parametrize("lo,hi", BAD)
    def test_executors_and_index_raise(self, lo, hi):
        snapshot = self._snapshot()
        bare = Snapshot(tables=snapshot.tables, memtables=snapshot.memtables)
        for snap in (snapshot, bare):
            with pytest.raises(QueryError, match="NaN"):
                execute_aggregate_query(snap, lo, hi)
            for collect in (False, True):
                with pytest.raises(QueryError, match="NaN"):
                    execute_range_query(snap, lo, hi, collect=collect)
        with pytest.raises(QueryError, match="NaN"):
            snapshot.index.overlapping(lo, hi)
        with pytest.raises(QueryError, match="NaN"):
            TableIndex([]).read_plan(lo, hi)

    def test_infinite_bounds_stay_legal(self):
        snapshot = self._snapshot()
        everything = execute_aggregate_query(snapshot, -np.inf, np.inf)
        assert everything.count == 100
        assert execute_aggregate_query(snapshot, np.inf, np.inf).count == 0
        assert execute_range_query(snapshot, -np.inf, -np.inf).result_points == 0
        assert execute_range_query(snapshot, 10.0, np.inf).result_points == 90
        with pytest.raises(QueryError, match="inverted"):
            execute_range_query(snapshot, np.inf, -np.inf)


class TestSerialFoldsSpellBoundsOnce:
    """``check_window`` gives every window one spelling — plain floats —
    and the serial folds ``aggregate_over_series`` / ``scan_over_series``
    report it as the fleet does, whichever facade they fold over.  A
    truth value is no bound: ``True`` is rejected as ``np.bool_`` is."""

    @staticmethod
    def _store(facade):
        store = (
            TimeSeriesDatabase(memory_budget_per_series=8, sstable_size=8)
            if facade == "database"
            else ShardedDatabase(n_shards=2, memory_budget_per_series=8, sstable_size=8)
        )
        for name in ("a", "b"):
            store.write(name, np.arange(20, dtype=np.float64))
        return store

    @pytest.mark.parametrize("facade", ["database", "fleet"])
    def test_bounds_come_back_as_floats(self, facade):
        store = self._store(facade)
        fleet = self._store("fleet")
        for lo, hi in ((2, 6), (np.float32(1), 7), (np.int64(2), np.float16(6))):
            for got in (
                aggregate_over_series(store, ["a"], lo, hi),
                scan_over_series(store, ["a", "b"], lo, hi),
                scan_over_series(store, "b", lo, hi, collect=True),
            ):
                assert (type(got.lo), type(got.hi)) == (float, float)
                assert (got.lo, got.hi) == (float(lo), float(hi))
            assert aggregate_over_series(store, ["a"], lo, hi) == fleet.query_aggregate(
                ["a"], lo, hi
            )

    @pytest.mark.parametrize("facade", ["database", "fleet"])
    @pytest.mark.parametrize("bound", [True, False, np.bool_(True)], ids=repr)
    def test_a_truth_value_is_no_bound(self, facade, bound):
        store = self._store(facade)
        snapshot = store.snapshot("a")
        with pytest.raises(QueryError, match="real numbers"):
            aggregate_over_series(store, ["a"], bound, 6)
        with pytest.raises(QueryError, match="real numbers"):
            scan_over_series(store, ["a", "b"], 0, bound, collect=True)
        with pytest.raises(QueryError, match="real numbers"):
            execute_aggregate_query(snapshot, bound, 6)
        with pytest.raises(QueryError, match="real numbers"):
            execute_range_query(snapshot, 0, bound)
        if facade == "fleet":
            with pytest.raises(QueryError, match="real numbers"):
                store.query_aggregate(None, bound, 6)
            with pytest.raises(QueryError, match="real numbers"):
                store.query_range("a", 0, bound)


class TestFleetFrontDoor:
    """Hostile input to ``ShardedDatabase.ingest_batch``: a typed error
    with nothing mutated, or a correct answer."""

    GOOD = np.array([1000.0, 1010.0, 1020.0, 1030.0])

    def _fleet(self, tmp_path):
        fleet = ShardedDatabase(
            n_shards=2,
            memory_budget_per_series=8,
            sstable_size=8,
            durability_dir=str(tmp_path / "fleet"),
        )
        fleet.ingest_batch([("a", self.GOOD, self.GOOD + 1.0)])
        return fleet

    def _fingerprint(self, fleet):
        state = fleet.database_for("a").series("a")
        return (
            fleet.series_names(),
            state.engine.ingested_points,
            state.engine.wal.appended,
            state.engine.analyzer.observed_points,
            state.engine.analyzer.window.sample().tolist(),
        )

    @pytest.mark.parametrize(
        "entry, error",
        [
            (("b",), EngineError),
            (("b", GOOD, GOOD, GOOD), EngineError),
            ("b", EngineError),
            ((7, GOOD), EngineError),
            ((None, GOOD, GOOD), EngineError),
            ((b"b", GOOD), EngineError),
            (("b", GOOD, (GOOD + 1.0).reshape(2, 2)), ModelError),
            (("a", GOOD + 100.0, (GOOD + 101.0).reshape(2, 2)), ModelError),
            (("a", np.full(4, -1.7e308), np.full(4, 1.7e308)), ModelError),
            (("b", np.array([-1.7e308]), np.array([1.7e308])), ModelError),
        ],
        ids=[
            "no-tg", "four-fields", "bare-string", "int-name", "none-name",
            "bytes-name", "2d-ta-new-series", "2d-ta", "overflow",
            "overflow-new-series",
        ],
    )
    def test_malformed_entry_is_a_typed_error_and_changes_nothing(
        self, tmp_path, entry, error
    ):
        fleet = self._fleet(tmp_path)
        before = self._fingerprint(fleet)
        # The bad entry comes last, behind good ones bound for both
        # shards: a malformed batch must be refused before any of them
        # is written, a bad pair before its engine or WAL sees it.
        malformed = error is EngineError
        batch = [("a", self.GOOD + 50.0, self.GOOD + 51.0), entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                fleet.ingest_batch(batch if malformed else [entry])
        assert self._fingerprint(fleet) == before
        # ...and the fleet still works.
        assert fleet.ingest_batch(batch[:1]) == 4

    @pytest.mark.filterwarnings("ignore:.* encountered in subtract:RuntimeWarning")
    def test_overflowing_delay_never_reaches_the_window(self):
        db = TimeSeriesDatabase(memory_budget_per_series=8, sstable_size=8)
        db.write("a", self.GOOD, self.GOOD + 1.0)
        with pytest.raises(ModelError):
            db.write("a", np.array([-1.7e308]), np.array([1.7e308]))
        state = db.series("a")
        assert state.engine.ingested_points == 4
        assert np.isfinite(state.engine.analyzer.window.sample()).all()

    def test_degenerate_but_legal_entries(self, tmp_path):
        """Empty and single-point entries, the same series twice in one
        batch, negative timestamps and arrivals before generation are
        all answers, not errors."""
        fleet = self._fleet(tmp_path)
        empty = np.empty(0)
        written = fleet.ingest_batch(
            [
                ("e", empty, empty),
                ("e", [], []),
                ("one", [5.0], [6.0]),
                ("twice", self.GOOD, self.GOOD + 1.0),
                ("twice", self.GOOD + 40.0, self.GOOD + 41.0),
                ("neg", -self.GOOD, -self.GOOD + 2.0),
                ("early", self.GOOD, self.GOOD - 5.0),
            ]
        )
        assert written == 0 + 0 + 1 + 4 + 4 + 4 + 4
        fleet.flush_all()
        assert fleet.snapshot("e").total_points == 0
        assert fleet.snapshot("one").total_points == 1
        assert fleet.snapshot("twice").total_points == 8
        assert fleet.snapshot("neg").max_tg == -1000.0
        assert fleet.database_for("neg").report().disordered_series >= 1
        early = fleet.database_for("early").series("early").engine.analyzer
        assert early.window.sample().tolist() == [0.0] * 4  # clipped, not negative
        result = fleet.query_aggregate(["twice", "neg"])
        assert result.count == 12
        for name in fleet.series_names():
            fleet.database_for(name).series(name).engine.verify()


def _truncate(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _edit(change):
    def damage(path):
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))

    return damage


def _last_series(manifest):
    return manifest["series"][sorted(manifest["series"])[-1]]


class TestDamagedManifests:
    """A damaged ``fleet.json`` or shard manifest is a ``RecoveryError``
    naming the file, raised before any engine is built from it — and
    ``error: ...`` with exit status 1 from the commands that recover."""

    DAMAGE = {
        "truncated": _truncate,
        "not-an-object": lambda path: path.write_text("[]"),
        "not-utf8": lambda path: path.write_bytes(b"\xff\xfe{"),
        "no-router": _edit(lambda m: m.pop("router")),
        "n-shards-not-a-number": _edit(lambda m: m["router"].update(n_shards="x")),
        # JSON ``true`` is no count: a one-shard fleet must not read it as 1.
        "n-shards-true": _edit(lambda m: (m["router"].update(n_shards=True), m["shards"].pop())),
        # Routing a range fleet's names by hash would strand its series.
        "range-router": _edit(lambda m: m["router"].update(mode="range", boundaries=["s3"])),
        "shard-entry-missing": _edit(lambda m: m["shards"].pop()),
        "dir-outside": _edit(lambda m: m["shards"][0].update(dir="../elsewhere")),
        "no-budget": _edit(lambda m: m.pop("memory_budget_per_series")),
        "budget-not-a-number": _edit(lambda m: _last_series(m).update(memory_budget="x")),
        "budget-true": _edit(lambda m: m.update(memory_budget_per_series=True)),
        "sstable-size-true": _edit(lambda m: m.update(sstable_size=True)),
        "series-budget-true": _edit(lambda m: _last_series(m).update(memory_budget=True)),
        "seq-capacity-true": _edit(lambda m: _last_series(m).update(seq_capacity=True)),
        "series-without-wal": _edit(lambda m: _last_series(m).pop("wal")),
        "wal-outside": _edit(lambda m: _last_series(m).update(wal="../a.wal")),
        "checkpoint-absolute": _edit(
            lambda m: _last_series(m).update(checkpoint="/tmp/a.ckpt")
        ),
        # Values of the right kind that a constructor refuses.
        "n-shards-negative": _edit(lambda m: m["router"].update(n_shards=-1)),
        "budget-negative": _edit(lambda m: m.update(memory_budget_per_series=-1)),
        "sstable-size-negative": _edit(lambda m: m.update(sstable_size=-1)),
        "series-budget-negative": _edit(lambda m: _last_series(m).update(memory_budget=-1)),
        "seq-capacity-negative": _edit(lambda m: _last_series(m).update(seq_capacity=-1)),
        "seq-capacity-past-budget": _edit(lambda m: _last_series(m).update(seq_capacity=10**6)),
        # The series' checkpoint holds points, so its WAL tail would be lost.
        "wal-renamed": _edit(lambda m: _last_series(m).update(wal="renamed.wal")),
        # The stability knobs are checked as a config checks them: an
        # unknown knob (not a retired one), a wrong kind, a bad range.
        "stability-unknown-knob": _edit(lambda m: m.update(stability={"wal_group": 8})),
        "stability-group-zero": _edit(lambda m: m.update(stability={"wal_group_records": 0})),
        "stability-scheduler-yes": _edit(
            lambda m: m.update(stability={"compaction_scheduler": "yes"})
        ),
        "stability-rate-text": _edit(
            lambda m: m.update(stability={"compaction_tokens_per_point": "fast"})
        ),
    }

    REFUSED = (
        "budget-negative", "sstable-size-negative", "series-budget-negative",
        "seq-capacity-negative", "seq-capacity-past-budget", "wal-renamed",
    )
    STABILITY = (
        "stability-unknown-knob", "stability-group-zero", "stability-scheduler-yes",
        "stability-rate-text",
    )

    FLEET = (
        "truncated", "not-an-object", "not-utf8", "no-router",
        "n-shards-not-a-number", "n-shards-true", "range-router",
        "shard-entry-missing", "dir-outside", "n-shards-negative", *STABILITY,
    )
    DATABASE = (
        "truncated", "not-an-object", "not-utf8", "no-budget",
        "budget-not-a-number", "budget-true", "sstable-size-true",
        "series-budget-true", "seq-capacity-true", "series-without-wal",
        "wal-outside", "checkpoint-absolute", *REFUSED, *STABILITY,
    )

    @pytest.mark.parametrize(
        "target, damage",
        [
            pytest.param(target, damage, id=f"{target}-{damage}")
            for target, cases in (
                ("fleet", FLEET),
                ("shard", DATABASE),
                ("database", ("truncated", "series-without-wal", *REFUSED, *STABILITY)),
            )
            for damage in cases
        ],
    )
    def test_recovery_error_before_any_engine_is_built(
        self, tmp_path, monkeypatch, capsys, target, damage
    ):
        root, plain = tmp_path / "fleet", tmp_path / "plain"
        sizes = dict(memory_budget_per_series=8, sstable_size=8)
        fleet = ShardedDatabase(n_shards=2, durability_dir=str(root), **sizes)
        db = TimeSeriesDatabase(durability_dir=str(plain), **sizes)
        for name in [f"s{i}" for i in range(6)]:
            fleet.write(name, np.arange(20.0))
            db.write(name, np.arange(20.0))
        fleet.checkpoint_all()
        db.checkpoint_all()
        # The damaged series entry is the last of several, in the shard
        # recovered first: nothing may be built on the way to it.
        assert len(fleet.shards[0]) >= 2
        (shard_manifest,) = (root / "shard-00").glob("*manifest*.json")
        path, recover, command = {
            "fleet": (root / "fleet.json", ShardedDatabase.recover, ["report"]),
            "shard": (shard_manifest, ShardedDatabase.recover, ["report"]),
            "database": (plain / "manifest.json", TimeSeriesDatabase.recover, ["recover", "--dir"]),
        }[target]
        directory = str(plain if target == "database" else root)
        self.DAMAGE[damage](path)

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built from a damaged manifest")

        monkeypatch.setattr("repro.lsm.recovery.recover_engine", no_engine)
        with pytest.raises(RecoveryError, match=path.name):
            recover(directory)
        assert cli_main([*command, directory]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: manifest ") and path.name in error


class TestTraceIsOutsideInput:
    """A trace nobody here wrote: what cannot be read or summed is a
    ``TelemetryError`` naming the file and the line — where the file is
    read, so the summaries can trust what ``load_trace`` hands them — and
    ``error: ...`` with exit status 1 from ``report``."""

    SPAN = '{"type": "span", "name": "merge", "duration_ms": %s}'
    CASES = {
        "a-directory": (None, ""),
        "not-utf8": (b'{"type": "x"}\n\xff\xfe\n', ":2: "),
        "type-not-a-string": (b'{"type": "x"}\n{"type": 1}\n', ":2: "),
        "duration-text": ((SPAN % '"abc"').encode(), ":1: "),
        "duration-null": (b"\n" + (SPAN % "null").encode(), ":2: "),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_typed_error_naming_file_and_line(self, tmp_path, capsys, case):
        content, line = self.CASES[case]
        path = tmp_path / "trace.jsonl"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(TelemetryError, match=re.escape(f"{path}{line}")):
            load_trace(path)
        assert cli_main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}{line}")
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"type": 1},
            {"type": "stall", "work_points": "abc"},
            {"type": "query", "duration_ms": None},
            {"type": "compaction", "new_points": float("nan")},
        ],
    )
    def test_a_hand_built_list_names_the_event(self, bad):
        with pytest.raises(TelemetryError, match="^event 1: "):
            summarize_trace([{"type": "x"}, bad])
        with pytest.raises(TelemetryError, match="^event 1: "):
            render_trace_report([{"type": "x"}, bad])

    def test_fields_of_other_event_types_are_not_read(self):
        events = [{"type": "x", "duration_ms": "abc"}, {"type": "y", "records": None}]
        assert summarize_trace(events).other_types == {"x": 1, "y": 1}


_NOT_FINITE_TG = (EngineError, "generation times must be finite; got NaN/inf in the batch")
_NOT_FINITE_TA = (ModelError, "arrival times must be finite; got NaN/inf")
_NOT_1D = (EngineError, "ingest expects a 1-d array, got shape (2, 2)")


def _unpaired(shapes):
    return (
        ModelError,
        f"ta must pair with tg point by point at a finite delay: shapes {shapes}, "
        "or ta - tg overflows",
    )


#: ``(tg, ta, (error, message))``: each batch against the one check on
#: the write path, which covers ``ta``, the overflow and ``tg`` in one
#: pass when a pair comes and ``tg`` alone otherwise.
DAMAGED_BATCHES = {
    "nan-tg": ([1.0, np.nan, 2.0, 3.0], [2.0, 3.0, 4.0, 5.0], _NOT_FINITE_TG),
    "inf-tg": ([1.0, np.inf, 2.0, 3.0], [2.0, 3.0, 4.0, 5.0], _NOT_FINITE_TG),
    "-inf-tg": ([1.0, -np.inf, 2.0, 3.0], [2.0, 3.0, 4.0, 5.0], _NOT_FINITE_TG),
    "nan-tg-alone": ([1.0, np.nan, 2.0, 3.0], None, _NOT_FINITE_TG),
    "inf-tg-alone": ([1.0, 2.0, np.inf, 3.0], None, _NOT_FINITE_TG),
    "nan-ta": ([1.0, 2.0, 3.0, 4.0], [2.0, np.nan, 4.0, 5.0], _NOT_FINITE_TA),
    "inf-ta": ([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, np.inf, 5.0], _NOT_FINITE_TA),
    "-inf-ta": ([1.0, 2.0, 3.0, 4.0], [-np.inf, 3.0, 4.0, 5.0], _NOT_FINITE_TA),
    "nan-both": ([np.nan, 2.0, 3.0, 4.0], [2.0, np.nan, 4.0, 5.0], _NOT_FINITE_TA),
    "inf-both": ([np.inf, 2.0, 3.0, 4.0], [np.inf, 3.0, 4.0, 5.0], _NOT_FINITE_TA),
    "overflow": ([-1e308], [1e308], _unpaired("(1,) vs (1,)")),
    "misaligned": ([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0], (ModelError, "tg and ta must align: 4 vs 3")),
    "2d": ([[1.0, 2.0], [3.0, 4.0]], [[2.0, 3.0], [4.0, 5.0]], _NOT_1D),
    "2d-tg": ([[1.0, 2.0], [3.0, 4.0]], [2.0, 3.0, 4.0, 5.0], _NOT_1D),
    "2d-ta": ([1.0, 2.0, 3.0, 4.0], [[2.0, 3.0], [4.0, 5.0]], _unpaired("(4,) vs (2, 2)")),
    "2d-tg-alone": ([[1.0, 2.0], [3.0, 4.0]], None, _NOT_1D),
}


class TestDamagedBatchesMeetTheOneCheck:
    """Every front door refuses a damaged batch with the same typed error
    and message, before anything moves: the WAL's bytes, the MemTables
    and the analyzer's window are as they were.  Each case fails if its
    part of the check is taken out."""

    GOOD = np.array([1000.0, 1010.0, 1020.0, 1030.0, 1040.0])

    def _store(self, tmp_path, door, policy):
        directory = str(tmp_path / "state")
        if door == "fleet":
            store = ShardedDatabase(
                n_shards=2, memory_budget_per_series=8, sstable_size=8,
                durability_dir=directory,
            )
            db = store.database_for("a")
        else:
            store = db = TimeSeriesDatabase(
                memory_budget_per_series=8, sstable_size=8, durability_dir=directory
            )
        db.create_series("a", seq_capacity=4 if policy == "pi_s" else None)
        # Out of order, then in order again: each of a split's MemTables
        # holds points.
        db.write("a", self.GOOD[::-1], self.GOOD[::-1] + 1.0)
        db.write("a", np.array([1050.0]), np.array([1051.0]))
        db.sync()
        return store, db.series("a").engine

    @staticmethod
    def _fingerprint(engine):
        analyzer = engine.analyzer
        with open(engine.config.wal_path, "rb") as handle:
            wal_bytes = handle.read()
        return (
            wal_bytes,
            engine.wal.appended,
            engine.ingested_points,
            [
                (m.name, m.version, m.peek_tg().tolist(), m.peek_ids().tolist())
                for m in engine.placement.memtables()
            ],
            analyzer.observed_points,
            analyzer.window.sample().tolist(),
        )

    @pytest.mark.parametrize("policy", ["pi_c", "pi_s"])
    @pytest.mark.parametrize("door", ["engine", "database", "fleet"])
    @pytest.mark.parametrize("case", sorted(DAMAGED_BATCHES))
    def test_a_damaged_batch_is_refused_before_anything_moves(
        self, tmp_path, door, policy, case
    ):
        tg, ta, (error, message) = DAMAGED_BATCHES[case]
        tg = np.array(tg)
        ta = None if ta is None else np.array(ta)
        store, engine = self._store(tmp_path, door, policy)
        before = self._fingerprint(engine)
        with warnings.catch_warnings():
            # numpy's own overflow warning is not the refusal under test.
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                if door == "engine":
                    engine.ingest(tg, ta)
                elif door == "database":
                    store.write("a", tg, ta)
                else:
                    store.ingest_batch([("a", tg) if ta is None else ("a", tg, ta)])
        store.sync()
        assert self._fingerprint(engine) == before


def _held_arrays(engine):
    """Every point array the engine holds: MemTable slabs, and the
    snapshot's MemTable views and tables."""
    snapshot = engine.snapshot()
    arrays = [view.tg for view in snapshot.memtables]
    arrays += [array for table in snapshot.tables for array in (table.tg, table.ids)]
    for memtable in engine.placement.memtables():
        arrays.append(memtable._tg)
    return arrays


def _contents(engine):
    snapshot = engine.snapshot()
    parts = [view.tg for view in snapshot.memtables] + [t.tg for t in snapshot.tables]
    return np.sort(np.concatenate(parts)), engine.stats.write_counts


class TestTheEngineOwnsWhatItBuffers:
    """A caller may reuse (or scribble on) its batch array once a write
    returns: nothing the engine keeps shares memory with it."""

    @staticmethod
    def _batches(n, size=16):
        return [np.arange(size) * 10.0 + k * size * 10.0 for k in range(n)]

    @pytest.mark.parametrize("key", sorted(ENGINE_FACTORIES))
    def test_no_engine_array_shares_the_callers_buffer(self, key):
        engine, twin = ENGINE_FACTORIES[key](None), ENGINE_FACTORIES[key](None)
        buf, ta = np.empty(16), np.empty(16)
        for batch in self._batches(9):
            buf[:] = batch
            ta[:] = batch + 1.0
            engine.ingest(buf, ta)
            twin.ingest(batch.copy(), batch + 1.0)
            assert not any(np.shares_memory(buf, array) for array in _held_arrays(engine))
        buf[:] = np.nan  # past validation: must reach nothing
        for held in (engine, twin):
            held.flush_all()
            held.verify()
        mine, theirs = _contents(engine), _contents(twin)
        np.testing.assert_array_equal(mine[0], theirs[0])
        np.testing.assert_array_equal(mine[1], theirs[1])

    def test_a_database_recovers_what_it_holds_after_buffer_reuse(self, tmp_path):
        state_dir = str(tmp_path / "db")
        db = TimeSeriesDatabase(durability_dir=state_dir, auto_tune=False)
        db.write("s", np.arange(16.0) - 1000.0)
        db.checkpoint_all()
        buf = np.empty(16)
        for batch in self._batches(3):
            buf[:] = batch
            db.write("s", buf)
            assert not any(np.shares_memory(buf, a) for a in _held_arrays(db.series("s").engine))
        db.sync()
        live = _contents(db.series("s").engine)
        assert np.unique(live[0]).size == live[0].size == 64
        recovered = _contents(TimeSeriesDatabase.recover(state_dir).series("s").engine)
        np.testing.assert_array_equal(recovered[0], live[0])
        np.testing.assert_array_equal(recovered[1], live[1])

    def test_a_fleet_recovers_what_it_holds_after_buffer_reuse(self, tmp_path):
        state_dir = str(tmp_path / "fleet")
        names = ["a", "b", "c"]
        fleet = ShardedDatabase(n_shards=2, durability_dir=state_dir)
        fleet.ingest_batch([(name, np.arange(16.0) - 1000.0) for name in names])
        fleet.checkpoint_all()
        buf, ta = np.empty(16), np.empty(16)
        for batch in self._batches(4):
            buf[:] = batch
            ta[:] = batch + 1.0
            fleet.ingest_batch([(name, buf, ta) for name in names])
        for name in names:
            engine = fleet.database_for(name).series(name).engine
            assert not any(np.shares_memory(buf, array) for array in _held_arrays(engine))
        recovered = ShardedDatabase.recover(state_dir)
        for name in names:
            live = _contents(fleet.database_for(name).series(name).engine)
            again = _contents(recovered.database_for(name).series(name).engine)
            assert np.unique(live[0]).size == live[0].size == 80
            np.testing.assert_array_equal(again[0], live[0])
            np.testing.assert_array_equal(again[1], live[1])


class TestEngineMisuse:
    def test_double_close_is_idempotent(self):
        engine = ConventionalEngine(LsmConfig(8, 8))
        engine.ingest(np.arange(4, dtype=np.float64))
        engine.close()
        engine.close()
        assert engine.snapshot().disk_points == 4

    def test_flush_all_on_empty_engine(self):
        engine = SeparationEngine(LsmConfig(8, 8))
        engine.flush_all()
        assert engine.snapshot().total_points == 0

    def test_duplicate_generation_times_survive(self):
        # Definition 1 says t_g is unique, but the engines should not
        # corrupt state if a client violates that.
        engine = ConventionalEngine(LsmConfig(4, 4))
        engine.ingest(np.array([5.0, 5.0, 5.0, 5.0, 5.0]))
        engine.flush_all()
        assert engine.snapshot().total_points == 5


class TestRowParametersAreOutsideInput:
    """The compaction parameters of an engine row — a caller's, or a
    checkpoint's — are checked for name and kind once, where the row is
    built: an ``EngineError`` at construction through a named
    constructor and ``compose_engine`` alike, never a bare ``TypeError``
    or an ``AttributeError`` at the first ingest."""

    @pytest.mark.parametrize(
        "build, names",
        [
            (lambda: compose_engine(compaction_kwargs={"bogus": 1}), ["bogus"]),
            (
                lambda: compose_engine(
                    compaction="multilevel", compaction_kwargs={"bogus": 1}
                ),
                ["bogus", "size_ratio", "max_levels"],
            ),
            (lambda: MultiLevelEngine(max_levels="3"), ["max_levels", "'3'"]),
            (lambda: MultiLevelEngine(size_ratio=2.5), ["size_ratio", "2.5"]),
            (lambda: TieredEngine(tier_fanout=2.5), ["tier_fanout", "2.5"]),
            (lambda: TieredEngine(max_levels=True), ["max_levels", "True"]),
            (lambda: IoTDBStyleEngine(l1_file_limit=2.0), ["l1_file_limit", "2.0"]),
            # Past the cap no stream fills a level: refused before a
            # million empty levels are built.
            (lambda: MultiLevelEngine(max_levels=10**6), ["max_levels", "64", "1000000"]),
            (lambda: TieredEngine(max_levels=65), ["max_levels", "64", "65"]),
            (
                lambda: compose_engine(
                    compaction="tiered", compaction_kwargs={"tier_fanout": 2.5}
                ),
                ["tier_fanout", "2.5"],
            ),
        ],
        ids=[
            "unknown", "unknown-names-the-ones-taken", "str", "float-ratio",
            "float-fanout", "bool", "float-limit", "levels-past-cap",
            "tiered-levels-past-cap", "composed-float",
        ],
    )
    def test_engine_error_at_construction(self, build, names):
        with pytest.raises(EngineError) as excinfo:
            build()
        for name in names:
            assert name in str(excinfo.value)


class TestShardFaultPlansAreOutsideInput:
    """``ShardedDatabase(shard_fault_plans=...)`` checks every key as a
    shard index and every value as a plan, at construction: a plan
    keyed by no shard used to be dropped silently, a key that does not
    compare with an int escaped as a ``TypeError``, ``True`` armed
    shard 1, and plans given as no mapping (a list, a string) escaped
    as an ``AttributeError``."""

    PLAN = FaultPlan(crash_at_flush=1)

    @pytest.mark.parametrize(
        "key", [1.5, "0", None, True, np.bool_(False), 2, -1],
        ids=["float", "str", "none", "true", "np-bool", "past-end", "negative"],
    )
    def test_a_key_that_names_no_shard_is_an_engine_error(self, tmp_path, key):
        root = tmp_path / "fleet"
        with pytest.raises(EngineError, match=r"shard index .* outside \[0, 2\)"):
            ShardedDatabase(
                n_shards=2, durability_dir=str(root), shard_fault_plans={key: self.PLAN}
            )
        assert not root.exists()

    @pytest.mark.parametrize("value", ["crash", object(), {"crash_at_flush": 1}])
    def test_a_value_that_is_no_plan_is_a_config_error(self, tmp_path, value):
        root = tmp_path / "fleet"
        with pytest.raises(ConfigError, match="fault_plan must be a repro.faults.FaultPlan"):
            ShardedDatabase(
                n_shards=2, durability_dir=str(root), shard_fault_plans={0: value}
            )
        assert not root.exists()

    @pytest.mark.parametrize("plans", [[PLAN], "crash"], ids=["list", "str"])
    def test_plans_that_are_no_mapping_are_an_engine_error(self, tmp_path, plans):
        root = tmp_path / "fleet"
        with pytest.raises(EngineError, match="shard_fault_plans must map shard indexes"):
            ShardedDatabase(n_shards=2, durability_dir=str(root), shard_fault_plans=plans)
        assert not root.exists()


class TestSeedRobustness:
    """The headline reproduction claims hold across seeds."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_severe_disorder_always_prefers_separation(self, seed):
        dataset = generate_synthetic(
            40_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=seed
        )
        conventional = ConventionalEngine(LsmConfig(512, 512))
        conventional.ingest(dataset.tg)
        conventional.flush_all()
        separation = SeparationEngine(LsmConfig(512, 512, seq_capacity=256))
        separation.ingest(dataset.tg)
        separation.flush_all()
        assert (
            separation.write_amplification
            < conventional.write_amplification
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mild_disorder_keeps_conventional_competitive(self, seed):
        dataset = generate_synthetic(
            40_000, dt=50, delay=LogNormalDelay(4.0, 1.5), seed=seed
        )
        conventional = ConventionalEngine(LsmConfig(512, 512))
        conventional.ingest(dataset.tg)
        conventional.flush_all()
        separation = SeparationEngine(LsmConfig(512, 512, seq_capacity=256))
        separation.ingest(dataset.tg)
        separation.flush_all()
        assert (
            conventional.write_amplification
            <= separation.write_amplification * 1.05
        )


class TestClosedEngine:
    """flush_all on a closed engine must raise, never silently no-op."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ConventionalEngine(LsmConfig(8, 8)),
            lambda: SeparationEngine(LsmConfig(8, 8)),
            lambda: AdaptiveEngine(LsmConfig(8, 8)),
            lambda: IoTDBStyleEngine(LsmConfig(8, 8)),
            lambda: MultiLevelEngine(LsmConfig(8, 8)),
            lambda: TieredEngine(LsmConfig(8, 8)),
        ],
        ids=[
            "conventional", "separation", "adaptive",
            "iotdb", "multilevel", "tiered",
        ],
    )
    def test_flush_all_after_close_raises(self, factory):
        engine = factory()
        tg = np.arange(4, dtype=np.float64)
        engine.ingest(tg, tg + 1.0)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.flush_all()
        with pytest.raises(EngineClosedError):
            engine.ingest(np.array([9.0]), np.array([10.0]))


class TestResplitValidatesBeforeDraining:
    """The one re-split path — ``StorageKernel.resplit``, reached through
    ``resize_series`` and ``create_series`` — checks the new split, the
    new budget and that the engine is open *before* it drains anything:
    a refused call leaves epoch, event log and buffered points alone."""

    BUDGET = 64

    def _db(self):
        db = TimeSeriesDatabase(self.BUDGET, 32, auto_tune=False)
        db.write("s", np.arange(100, dtype=np.float64))  # 64 landed, 36 buffered
        return db

    @staticmethod
    def _fingerprint(engine):
        return (
            engine.read_version()[0],
            len(engine.stats.events),
            engine.snapshot().memory_points,
            engine.current_policy,
            engine.config.memory_budget,
        )

    @pytest.mark.parametrize(
        "seq_capacity",
        [0, BUDGET, BUDGET + 6, -1],
        ids=["zero", "whole-budget", "over-budget", "negative"],
    )
    def test_bad_split(self, seq_capacity):
        db = self._db()
        engine = db.series("s").engine
        before = self._fingerprint(engine)
        assert before[2] == 36
        with pytest.raises(ConfigError):
            engine.resplit(seq_capacity)
        with pytest.raises(ConfigError):
            db.resize_series("s", self.BUDGET, seq_capacity=seq_capacity)
        with pytest.raises(ConfigError):
            db.create_series("t", seq_capacity=seq_capacity)
        assert self._fingerprint(engine) == before
        assert db.series_names() == ["s"]

    def test_bad_budget(self):
        db = self._db()
        engine = db.series("s").engine
        before = self._fingerprint(engine)
        with pytest.raises(ConfigError):
            engine.resplit(None, memory_budget=1)
        with pytest.raises(EngineError):
            db.resize_series("s", 1)
        with pytest.raises(ConfigError):
            db.create_series("t", memory_budget=1)
        assert self._fingerprint(engine) == before
        assert db.series_names() == ["s"]

    def test_closed_engine(self):
        db = self._db()
        engine = db.series("s").engine
        engine.close()
        before = self._fingerprint(engine)
        with pytest.raises(EngineClosedError):
            engine.resplit(16)
        with pytest.raises(EngineClosedError):
            db.resize_series("s", 32)
        with pytest.raises(ConfigError):
            engine.resplit(0)  # validation still comes first
        assert self._fingerprint(engine) == before

    def test_crash_inside_the_drain_keeps_the_old_split(self, tmp_path):
        """``resplit``'s ``flush_all`` crosses the same fault boundaries
        as any other landing.  A crash there escapes before anything
        moved: the old split is still bound, the points are still
        buffered, the WAL recovers all of them — and the engine's one
        injector has counted the crash, so a retry goes through."""
        wal_path = str(tmp_path / "s.wal")
        engine = ConventionalEngine(
            LsmConfig(
                self.BUDGET,
                32,
                wal_path=wal_path,
                fault_plan=FaultPlan(seed=1, crash_at_merge=1),
            )
        )
        engine.ingest(np.arange(64, dtype=np.float64))  # lands; nothing to merge
        engine.ingest(np.arange(10, dtype=np.float64) + 0.5)  # overlaps the run
        injector = engine.faults
        before = self._fingerprint(engine)
        with pytest.raises(InjectedCrash):
            engine.resplit(16)
        assert self._fingerprint(engine) == before
        assert engine.describe_policies()["placement"] == "single"
        engine.verify()

        engine.wal.sync()
        report = recover_engine(
            ConventionalEngine, wal_path, config=LsmConfig(self.BUDGET, 32)
        )
        assert report.verified and report.durable_points == 74

        assert engine.resplit(16)
        assert engine.faults is injector
        assert injector.injected == [("merge", "crash")]
        assert engine.current_policy == "pi_s(n_seq=16)"
        assert engine.snapshot().disk_points == 74
        engine.verify()


def _durable_db(directory, budget=8, sstable_size=4, **kwargs):
    return TimeSeriesDatabase(budget, sstable_size, durability_dir=directory, **kwargs)


@pytest.mark.parametrize(
    "field, build",
    [
        ("memory_budget", lambda d: _durable_db(d, budget=6.5)),
        ("memory_budget", lambda d: _durable_db(d, budget="64")),
        ("memory_budget", lambda d: _durable_db(d, budget=None)),
        ("sstable_size", lambda d: _durable_db(d, sstable_size=True)),
        ("sstable_size", lambda d: ShardedDatabase(2, 8, 2.5, durability_dir=d)),
        ("memory_budget", lambda d: _durable_db(d).create_series("s", 6.5)),
        ("seq_capacity", lambda d: _durable_db(d).create_series("s", 8, 3.5)),
        ("wal_group_records", lambda d: _durable_db(d, stability={"wal_group_records": 2.5})),
    ],
    ids=[
        "db", "db-str", "db-none", "db-bool", "fleet", "create", "create-split",
        "stability",
    ],
)
def test_a_database_rejects_a_fractional_size_before_its_wal(tmp_path, field, build):
    """A size that is no integer is a ``ConfigError`` naming the field,
    raised where the database builds its config — before a WAL exists
    to hold a batch no replay could place."""
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        build(str(tmp_path))
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_a_fractional_resize_leaves_the_series_alone(tmp_path):
    db = _durable_db(str(tmp_path))
    db.write("s", np.arange(50.0))
    engine = db.series("s").engine
    wal_bytes = os.path.getsize(engine.config.wal_path)
    with pytest.raises(ConfigError, match="^memory_budget must be an integer"):
        db.resize_series("s", 6.5)
    assert engine.config.memory_budget == 8
    assert os.path.getsize(engine.config.wal_path) == wal_bytes


@pytest.mark.parametrize("budget", ["64", None, True], ids=["str", "none", "bool"])
def test_a_resize_to_no_integer_is_a_config_error(tmp_path, budget):
    """Checked before the ``< 2`` comparison, which raised a raw
    ``TypeError`` for a string or ``None``."""
    db = _durable_db(str(tmp_path), budget=8)
    db.write("s", np.arange(50.0))
    engine = db.series("s").engine
    wal_bytes = os.path.getsize(engine.config.wal_path)
    with pytest.raises(ConfigError, match="^memory_budget must be an integer"):
        db.resize_series("s", budget)
    assert engine.config.memory_budget == 8
    assert os.path.getsize(engine.config.wal_path) == wal_bytes


@pytest.mark.parametrize(
    "build",
    [
        lambda: ShardRouter(True),
        lambda: ShardRouter(2.5),
        lambda: ShardedDatabase(n_shards=2.5),
        lambda: ShardedDatabase(n_shards="4"),
    ],
    ids=["router-bool", "router-float", "fleet-float", "fleet-str"],
)
def test_a_fleet_width_is_an_integer(build):
    with pytest.raises(EngineError, match="^n_shards must be an integer"):
        build()


@pytest.mark.parametrize("index", [-1, 1.0, True], ids=["negative", "float", "bool"])
def test_a_shard_index_is_an_integer_inside_the_fleet(index):
    """``shards[-1]`` used to answer for the last shard, although the
    error text promises ``[0, n)``."""
    fleet = ShardedDatabase(n_shards=2)
    for read in (fleet.shard, fleet.shard_backpressure_state):
        with pytest.raises(EngineError, match=r"outside \[0, 2\)"):
            read(index)


class TestEventValidation:
    """record_event rejects malformed compaction events at the door."""

    def test_bad_kind_rejected(self):
        stats = WriteStats()
        with pytest.raises(EngineError, match="kind"):
            stats.record_event(
                CompactionEvent(
                    kind="defrag", arrival_index=0, new_points=1,
                    rewritten_points=0, tables_rewritten=0, tables_written=1,
                )
            )

    @pytest.mark.parametrize(
        "field", [
            "arrival_index", "new_points", "rewritten_points",
            "tables_rewritten", "tables_written",
        ],
    )
    def test_negative_counts_rejected(self, field):
        stats = WriteStats()
        kwargs = dict(
            kind="flush", arrival_index=0, new_points=1,
            rewritten_points=0, tables_rewritten=0, tables_written=1,
        )
        kwargs[field] = -1
        with pytest.raises(EngineError, match="non-negative"):
            stats.record_event(CompactionEvent(**kwargs))

    def test_arrival_index_must_be_monotone(self):
        stats = WriteStats()
        stats.record_event(
            CompactionEvent(
                kind="flush", arrival_index=100, new_points=10,
                rewritten_points=0, tables_rewritten=0, tables_written=1,
            )
        )
        with pytest.raises(EngineError, match="monotone"):
            stats.record_event(
                CompactionEvent(
                    kind="merge", arrival_index=50, new_points=5,
                    rewritten_points=0, tables_rewritten=0, tables_written=1,
                )
            )


class TestSinkHardening:
    """Telemetry must degrade, not take down ingest, when its file dies."""

    def test_write_failure_disables_sink(self, tmp_path):
        target = tmp_path / "gone" / "trace.jsonl"  # parent doesn't exist
        sink = JsonlFileSink(str(target))
        sink.write({"type": "x"})  # must not raise
        assert sink.disabled and sink.errors == 1 and sink.written == 0
        sink.write({"type": "y"})  # silently dropped
        assert sink.errors == 2

    def test_engine_survives_sink_failure(self, tmp_path):
        target = tmp_path / "missing-dir" / "trace.jsonl"
        sink = JsonlFileSink(str(target))
        engine = ConventionalEngine(
            LsmConfig(16, 16), telemetry=Telemetry(sinks=[sink])
        )
        dataset = generate_synthetic(
            2_000, dt=50, delay=LogNormalDelay(4.0, 1.0), seed=7
        )
        engine.ingest(dataset.tg)
        engine.flush_all()
        engine.verify()
        assert sink.disabled

    def test_healthy_sink_still_writes(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(str(target))
        sink.write({"type": "x"})
        sink.close()
        assert not sink.disabled and sink.written == 1
        assert target.read_text().strip() == '{"type":"x"}'


class TestCrashRecoveryProperty:
    """Property over seeds: crash -> recover => durable prefix intact."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torn_wal_recovery_across_seeds(self, seed, tmp_path):
        result = run_crash_case("pi_c", "torn_wal", seed, str(tmp_path))
        assert result.ok, result.describe()
        assert result.verified and result.wa_match

    @pytest.mark.parametrize("engine", ["pi_s", "multilevel"])
    def test_crash_at_merge_recovery(self, engine, tmp_path):
        result = run_crash_case(engine, "crash_merge", 0, str(tmp_path))
        assert result.ok, result.describe()


def _far_delays():
    """Delays far longer than the stream itself: nearly every point
    arrives after points generated long after it."""
    dataset = generate_synthetic(300, dt=1.0, delay=ExponentialDelay(1e6), seed=5)
    return dataset.tg, dataset.ta


#: Legal but hostile streams, each as ``(tg, ta)`` in arrival order.
HOSTILE_STREAMS = {
    "duplicate-tg": lambda: (np.repeat(np.arange(50.0), 3), np.repeat(np.arange(50.0), 3) + 0.5),
    "negative-tg": lambda: (np.arange(-100.0, 0.0), np.arange(-100.0, 0.0) + 1.0),
    "delays-beyond-the-stream": _far_delays,
}


def _store_profile(store):
    """What a live or recovered database (or fleet) answers and records."""
    shards = getattr(store, "shards", [store])
    engines = {
        name: db.series(name).engine for db in shards for name in db.series_names()
    }
    rows = scan_over_series(store, collect=True)
    return {
        "aggregate": aggregate_over_series(store),
        "rows": rows.rows.tolist(),
        "row_ids": rows.row_ids.tolist(),
        "wa": {name: engine.write_amplification for name, engine in engines.items()},
        "write_counts": {
            name: engine.stats.write_counts.tolist() for name, engine in engines.items()
        },
        "policies": {name: engine.current_policy for name, engine in engines.items()},
        "disordered": sum(db.report().disordered_series for db in shards),
    }


class TestHostileInputSurvivesRecovery:
    """Duplicate and negative timestamps and delays longer than the stream
    recover, from a checkpoint plus a synced WAL tail, to what the live
    store answers — through one database and through a two-shard fleet."""

    @pytest.mark.parametrize("stream", sorted(HOSTILE_STREAMS))
    @pytest.mark.parametrize(
        "facade", [TimeSeriesDatabase, ShardedDatabase], ids=["database", "fleet"]
    )
    def test_live_and_recovered_agree(self, tmp_path, facade, stream):
        tg, ta = HOSTILE_STREAMS[stream]()
        directory = str(tmp_path / "state")
        sizes = dict(memory_budget_per_series=16, sstable_size=16, durability_dir=directory)
        if facade is ShardedDatabase:
            sizes["n_shards"] = 2
        store = facade(auto_tune=True, **sizes)
        batches = range(0, tg.size, 7)
        for index, start in enumerate(batches):
            if index == len(batches) // 2:
                store.retune(min_observations=0)
                store.checkpoint_all()
            for name in ("s0", "s1", "s4"):  # two shards of a 2-shard fleet
                store.write(name, tg[start : start + 7], ta[start : start + 7])
        store.sync()
        recovered = facade.recover(directory)
        assert _store_profile(recovered) == _store_profile(store)

