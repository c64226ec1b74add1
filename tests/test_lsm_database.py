"""Tests for the multi-series TimeSeriesDatabase."""

import os

import numpy as np
import pytest

from repro import EngineError, TimeSeriesDatabase
from repro.errors import EngineClosedError, ModelError
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.workloads import generate_fleet, generate_synthetic
from repro import LogNormalDelay, UniformDelay


class TestSeriesManagement:
    def test_create_and_lookup(self):
        db = TimeSeriesDatabase(memory_budget_per_series=16, sstable_size=16)
        db.create_series("temp")
        assert db.series("temp").policy_label == "pi_c"
        assert db.series_names() == ["temp"]
        assert len(db) == 1

    def test_duplicate_rejected(self):
        db = TimeSeriesDatabase()
        db.create_series("a")
        with pytest.raises(EngineError):
            db.create_series("a")

    def test_unknown_series_rejected(self):
        with pytest.raises(EngineError):
            TimeSeriesDatabase().series("ghost")

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_a_name_that_is_no_string_registers_nothing(self, durable, tmp_path):
        db = TimeSeriesDatabase(
            memory_budget_per_series=16,
            sstable_size=16,
            durability_dir=str(tmp_path) if durable else None,
        )
        with pytest.raises(EngineError, match="series names are strings, got 5"):
            db.write(5, np.arange(10, dtype=np.float64))
        with pytest.raises(EngineError, match="series names are strings"):
            db.create_series(b"s0")
        assert db.series_names() == []
        if durable:
            assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", [["a"], {"a": 1}], ids=["list", "dict"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda db, name: db.write(name, np.arange(4, dtype=np.float64)),
            lambda db, name: db.snapshot(name),
            lambda db, name: db.sync(name),
            lambda db, name: db.backpressure_state(name),
            lambda db, name: db.resize_series(name, 32),
        ],
        ids=["write", "snapshot", "sync", "backpressure_state", "resize_series"],
    )
    def test_an_unhashable_name_is_an_engine_error(self, call, name):
        db = TimeSeriesDatabase(memory_budget_per_series=16, sstable_size=16)
        db.create_series("a")
        with pytest.raises(EngineError, match="^series names are strings, got "):
            call(db, name)
        assert db.series_names() == ["a"]

    def test_write_creates_on_demand(self):
        db = TimeSeriesDatabase(memory_budget_per_series=16, sstable_size=16)
        db.write("auto", np.arange(10, dtype=np.float64))
        assert "auto" in db.series_names()

    def test_bad_budget_rejected(self):
        with pytest.raises(EngineError):
            TimeSeriesDatabase(memory_budget_per_series=1)

    def test_per_series_budget_override(self):
        db = TimeSeriesDatabase(memory_budget_per_series=512, sstable_size=64)
        state = db.create_series("small", memory_budget=64)
        assert state.config.memory_budget == 64
        assert db.series("small").engine.config.memory_budget == 64

    def test_create_series_with_separation_policy(self):
        db = TimeSeriesDatabase(memory_budget_per_series=128, sstable_size=128)
        state = db.create_series("sep", memory_budget=64, seq_capacity=16)
        assert state.policy_label == "pi_s(n_seq=16)"
        db.write("sep", np.arange(100, dtype=np.float64))
        db.flush_all()
        assert db.snapshot("sep").total_points == 100


class TestWriteAndRead:
    def test_series_are_isolated(self):
        db = TimeSeriesDatabase(memory_budget_per_series=8, sstable_size=8)
        db.write("a", np.arange(20, dtype=np.float64))
        db.write("b", np.arange(100, 105, dtype=np.float64))
        db.flush_all()
        assert db.snapshot("a").total_points == 20
        assert db.snapshot("b").total_points == 5

    def test_empty_write_noop(self):
        db = TimeSeriesDatabase()
        db.write("a", np.array([]))
        assert db.snapshot("a").total_points == 0

    def test_disorder_tracked_across_writes(self):
        db = TimeSeriesDatabase(memory_budget_per_series=8, sstable_size=8)
        db.write("s", np.array([10.0, 20.0]))
        db.write("s", np.array([15.0]))  # out-of-order vs earlier write
        report = db.report()
        assert report.disordered_series == 1


class TestRejectedBatchLeavesNoTrace:
    """A batch ``write`` refuses changes nothing: the same database then
    behaves as if the call had never been made."""

    GOOD_TG = np.array([1000.0, 1010.0, 1020.0])
    GOOD_TA = np.array([1001.0, 1012.0, 1023.0])

    def _db(self, **kwargs):
        db = TimeSeriesDatabase(memory_budget_per_series=8, sstable_size=8, **kwargs)
        db.write("a", self.GOOD_TG, self.GOOD_TA)
        return db

    def _fingerprint(self, db):
        state = db.series("a")
        return (
            db.series_names(),
            db.report().disordered_series,
            state.engine.ingested_points,
            state.engine.analyzer.observed_points,
            state.engine.analyzer.window.sample().tolist(),
        )

    @pytest.mark.parametrize(
        "tg, ta, error",
        [
            ([2000.0, np.nan, 2020.0], [2001.0, 2011.0, 2021.0], EngineError),
            ([2000.0, np.inf, 2020.0], [2001.0, 2011.0, 2021.0], EngineError),
            ([2000.0, 2010.0, 2020.0], [2001.0, 2011.0], ModelError),
            ([2000.0, 2010.0, 2020.0], [2001.0, np.nan, 2021.0], ModelError),
            ([2000.0, 2010.0, 2020.0], [2001.0, np.inf, 2021.0], ModelError),
            ([[2000.0, 2010.0]], [[2001.0, 2011.0]], EngineError),
        ],
        ids=["nan-tg", "inf-tg", "short-ta", "nan-ta", "inf-ta", "2d-tg"],
    )
    def test_invalid_batch(self, tg, ta, error):
        db = self._db()
        before = self._fingerprint(db)
        with pytest.raises(error):
            db.write("a", np.array(tg), np.array(ta))
        assert self._fingerprint(db) == before
        # The disorder count and the delay profile still work afterwards.
        db.write("a", np.array([500.0]), np.array([2030.0]))
        assert db.report().disordered_series == 1
        assert np.isfinite(db.series("a").engine.analyzer.profile().distribution.mean())

    def test_invalid_first_batch_registers_no_series(self):
        db = TimeSeriesDatabase(memory_budget_per_series=8, sstable_size=8)
        with pytest.raises(EngineError):
            db.write("ghost", np.array([1.0, np.nan]))
        with pytest.raises(ModelError):
            db.write("ghost", np.array([1.0, 2.0]), np.array([1.0]))
        assert db.series_names() == []

    def test_closed_engine(self):
        db = self._db()
        db.series("a").engine.close()
        before = self._fingerprint(db)
        with pytest.raises(EngineClosedError):
            db.write("a", np.array([900.0]), np.array([2000.0]))
        assert self._fingerprint(db) == before


class TestRetune:
    def test_disordered_series_switches_to_separation(self):
        db = TimeSeriesDatabase(
            memory_budget_per_series=256, sstable_size=256
        )
        stream = generate_synthetic(
            20_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=3
        )
        db.write("noisy", stream.tg, stream.ta)
        switched = db.retune()
        assert "noisy" in switched
        state = db.series("noisy")
        assert state.policy_label == switched["noisy"]
        assert state.policy_label.startswith("pi_s(n_seq=")
        assert state.config.seq_capacity == state.engine.placement.seq.capacity
        # Points survive the switch.
        db.write("noisy", stream.tg + stream.tg.max() + 50.0)
        db.flush_all()
        assert db.snapshot("noisy").total_points == 40_000

    def test_ordered_series_stays_conventional(self):
        db = TimeSeriesDatabase(
            memory_budget_per_series=256, sstable_size=256
        )
        stream = generate_synthetic(
            10_000, dt=50, delay=UniformDelay(0.0, 20.0), seed=4
        )
        db.write("clean", stream.tg, stream.ta)
        switched = db.retune()
        assert "clean" not in switched
        assert db.series("clean").policy_label == "pi_c"

    def test_under_observed_series_skipped(self):
        db = TimeSeriesDatabase(memory_budget_per_series=64, sstable_size=64)
        stream = generate_synthetic(
            100, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=5
        )
        db.write("tiny", stream.tg, stream.ta)
        assert db.retune() == {}

    def test_no_analyzers_without_auto_tune(self):
        db = TimeSeriesDatabase(auto_tune=False)
        db.write("s", np.arange(10, dtype=np.float64))
        assert db.series("s").engine.analyzer is None
        assert db.retune() == {}

    @pytest.mark.parametrize("facade", ["database", "fleet"])
    @pytest.mark.parametrize(
        "min_observations", [float("nan"), "x", None, True, -1, 2.5], ids=repr
    )
    def test_min_observations_must_be_a_count(self, facade, min_observations):
        """Before, NaN failed the "too few" comparison and so retuned
        everything (this 100-point window became pi_s(n_seq=28)), "x" and
        None were a bare TypeError, and True was taken for 1."""
        from repro.serving import ShardedDatabase

        target = (
            TimeSeriesDatabase(64, 64)
            if facade == "database"
            else ShardedDatabase(n_shards=2, memory_budget_per_series=64, sstable_size=64)
        )
        stream = _noisy(n=100)
        target.write("tiny", stream.tg, stream.ta)
        with pytest.raises(EngineError, match="^min_observations must be an integer >= 0"):
            target.retune(min_observations)
        state = (target if facade == "database" else target.database_for("tiny")).series("tiny")
        assert (state.engine.decisions, state.engine.analyzer.last_decision) == ([], None)
        assert state.policy_label == "pi_c"


def _noisy(n=6000, seed=3):
    return generate_synthetic(n, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=seed)


class TestRetuneSkipsWhatItCannotProfile:
    """One series whose window cannot be profiled keeps its policy, as
    one under ``min_observations`` does; it does not abort the retune of
    the series around it."""

    GOOD = [f"noisy-{k}" for k in range(5)]
    REASON = "cannot estimate dt: zero generation-time span"

    @staticmethod
    def _fill(db, names):
        for k, name in enumerate(names):
            if name == "stuck":
                # 4096 points, one generation time: no interval to estimate.
                tg = np.full(4096, 1000.0)
                db.write(name, tg, tg + np.arange(4096.0))
            else:
                stream = _noisy(seed=20 + k)
                db.write(name, stream.tg, stream.ta)

    @classmethod
    def _names(cls, position):
        """The good series with the stuck one at ``position``; decided
        concurrently, it must still be skipped in its place."""
        at = {"first": 0, "middle": len(cls.GOOD) // 2, "last": len(cls.GOOD)}[position]
        return [*cls.GOOD[:at], "stuck", *cls.GOOD[at:]]

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_database(self, position, caplog, monkeypatch):
        names = self._names(position)
        sink = RingBufferSink()
        db = TimeSeriesDatabase(256, 256, telemetry=Telemetry(sinks=[sink]))
        self._fill(db, names)
        # Four threads decide the six series, whatever the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        with caplog.at_level("WARNING", logger="repro.lsm.database"):
            switched = db.retune()
        records = ("db.retune_decision", "db.retune_skipped")
        assert [e["series"] for e in sink.events if e["type"] in records] == names
        assert sorted(switched) == self.GOOD
        for name in self.GOOD:
            assert switched[name] == db.series(name).policy_label
            assert switched[name].startswith("pi_s(n_seq=")
        assert db.series("stuck").policy_label == "pi_c"
        assert db.series("stuck").engine.decisions == []
        skipped = [e for e in sink.events if e["type"] == "db.retune_skipped"]
        assert [(e["series"], e["policy"], e["reason"]) for e in skipped] == [
            ("stuck", "pi_c", self.REASON)
        ]
        assert [r.message for r in caplog.records if "stuck" in r.message] == [
            f"retune skipped series 'stuck', which keeps pi_c: {self.REASON}"
        ]

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_four_shard_fleet(self, position):
        from repro.serving import ShardedDatabase

        names = self._names(position)
        fleet = ShardedDatabase(
            n_shards=4, memory_budget_per_series=256, sstable_size=256
        )
        self._fill(fleet, names)
        # The series share shards with the stuck one and sit on later ones.
        stuck_shard = fleet.router.shard_of("stuck")
        shards = {fleet.router.shard_of(name) for name in self.GOOD}
        assert stuck_shard in shards and max(shards) > stuck_shard
        assert sorted(fleet.retune()) == self.GOOD
        assert fleet.database_for("stuck").series("stuck").policy_label == "pi_c"


class TestDecisionRecords:
    def test_one_event_per_series_considered_inputs_output_and_cost(self):
        sink = RingBufferSink()
        db = TimeSeriesDatabase(256, 256, telemetry=Telemetry(sinks=[sink]))
        noisy = _noisy()
        clean = generate_synthetic(5000, dt=50, delay=UniformDelay(0.0, 20.0), seed=4)
        db.write("noisy", noisy.tg, noisy.ta)
        db.write("clean", clean.tg, clean.ta)
        db.write("tiny", noisy.tg[:100], noisy.ta[:100])
        db.retune()
        records = {
            e["series"]: e for e in sink.events if e["type"] == "db.retune_decision"
        }
        assert sorted(records) == ["clean", "noisy"]  # "tiny" was not considered
        for name, observed in (("noisy", 6000), ("clean", 5000)):
            record, decision = records[name], db.series(name).engine.analyzer.last_decision
            assert record["observed_points"] == observed
            assert record["sample_count"] == 4096
            assert record["dt"] == pytest.approx(50.0, rel=1e-3)
            assert (record["memory_budget"], record["sstable_size"]) == (256, 256)
            assert record["policy"] == decision.policy
            assert record["seq_capacity"] == decision.seq_capacity
            assert (record["r_c"], record["r_s_star"]) == (decision.r_c, decision.r_s_star)
            assert record["candidates"] == decision.sweep_n_seq.size >= 24
            assert record["rows_computed"] == decision.rows_computed > 0
            assert record["duration_ms"] > 0
        assert records["noisy"]["policy"] == "separation"
        assert records["clean"]["policy"] == "conventional"
        # The heavy tail is what costs: the clean series' stream ends
        # inside its first block.
        assert records["clean"]["rows_computed"] < 2048
        assert records["noisy"]["rows_computed"] > 4 * records["clean"]["rows_computed"]


class TestOneEnginePerSeries:
    """A series keeps the engine it was created with; retune, resize and
    rebalance change that engine's split, never the object."""

    def test_retune_and_resize_keep_the_engine_object(self):
        db = TimeSeriesDatabase(memory_budget_per_series=512, sstable_size=128)
        stream = _noisy()
        db.write("s", stream.tg, stream.ta)
        engine = db.series("s").engine
        assert db.retune()
        assert db.series("s").engine is engine
        assert db.resize_series("s", 256)
        assert db.resize_series("s", 256, seq_capacity=40)
        assert db.series("s").engine is engine
        assert engine.config.memory_budget == 256
        engine.verify()

    def test_rebalance_keeps_the_engine_objects(self):
        from repro.core.allocation import MemoryArbiter
        from repro.serving import ShardedDatabase

        fleet = ShardedDatabase(
            n_shards=2,
            memory_budget_per_series=64,
            sstable_size=32,
            arbiter=MemoryArbiter(
                total_budget=2 * 64,
                candidate_budgets=(32, 64, 96),
                decision_interval=10**9,
                min_observations=512,
            ),
        )
        streams = {
            "noisy": _noisy(3000),
            "clean": generate_synthetic(
                3000, dt=50, delay=UniformDelay(0.0, 20.0), seed=4
            ),
        }
        for name, stream in streams.items():
            fleet.write(name, stream.tg, stream.ta)
        engines = {
            name: fleet.database_for(name).series(name).engine for name in streams
        }
        decision = fleet.maybe_rebalance(force=True)
        assert decision.changed, "the arbiter must move budget between the series"
        for name, engine in engines.items():
            state = fleet.database_for(name).series(name)
            assert state.engine is engine
            assert state.config.memory_budget == fleet.last_rebalance["budgets"][name]
            engine.verify()

    def test_state_config_is_the_live_split(self):
        db = TimeSeriesDatabase(memory_budget_per_series=512, sstable_size=128)
        stream = _noisy()
        db.write("s", stream.tg, stream.ta)
        state = db.series("s")
        assert state.config.seq_capacity is None
        db.retune()
        n_seq = state.engine.placement.seq.capacity
        assert state.config.seq_capacity == n_seq
        assert state.policy_label == f"pi_s(n_seq={n_seq})"
        with pytest.raises(AttributeError):
            state.config = state.config.with_seq_capacity(None)

    def test_reference_taken_before_a_retune_stays_the_writer(self, tmp_path):
        """``engine = db.series(name).engine`` held across a retune is
        still the series' engine: writing through it continues the one
        WAL, and the directory recovers."""
        from repro.lsm import read_wal

        directory = str(tmp_path / "db")
        db = TimeSeriesDatabase(
            memory_budget_per_series=512, sstable_size=128, durability_dir=directory
        )
        stream = _noisy()
        for pos in range(0, 6000, 100):
            db.write("s", stream.tg[pos : pos + 100], stream.ta[pos : pos + 100])
        engine = db.series("s").engine
        assert db.retune()
        engine.ingest(stream.tg[:2] + 1e9)
        db.write("s", stream.tg[2:4] + 1e9)
        db.checkpoint_all()
        db.sync()
        records = read_wal(engine.config.wal_path).records
        # The retune is a control frame at the arrival it was made at.
        assert [(r.start_id, r.split) for r in records if r.split is not None] == [
            (6000, (engine.config.seq_capacity, 512))
        ]
        starts = [r.start_id for r in records if r.split is None]
        assert starts[-2:] == [6000, 6002]
        assert all(a < b for a, b in zip(starts, starts[1:]))
        revived = TimeSeriesDatabase.recover(directory)
        assert revived.series("s").engine.ingested_points == 6004
        revived.series("s").engine.verify()


class TestFleetReport:
    def test_aggregates(self):
        db = TimeSeriesDatabase(memory_budget_per_series=8, sstable_size=8)
        db.write("a", np.arange(16, dtype=np.float64))
        db.write("b", np.array([10.0, 5.0, 20.0, 15.0, 30.0, 25.0, 40.0, 35.0]))
        db.flush_all()
        report = db.report()
        assert report.series_count == 2
        assert report.total_points == 24
        assert report.write_amplification >= 1.0
        assert report.disordered_series == 1
        assert report.disordered_fraction == pytest.approx(0.5)
        assert len(report.rows) == 2

    def test_empty_database(self):
        report = TimeSeriesDatabase().report()
        assert report.series_count == 0
        assert np.isnan(report.write_amplification)
        assert report.disordered_fraction == 0.0


class TestFleetWorkload:
    def test_fleet_shape(self):
        fleet = generate_fleet(n_series=10, points_per_series=500, seed=1)
        assert len(fleet) == 10
        assert all(len(ds) == 500 for ds in fleet.values())

    def test_disordered_fraction_calibrated(self):
        fleet = generate_fleet(
            n_series=30, points_per_series=2_000,
            disordered_fraction=0.4, seed=2,
        )
        disordered = sum(
            1 for ds in fleet.values() if ds.out_of_order_fraction() > 0
        )
        assert disordered == pytest.approx(12, abs=3)

    def test_rejects_bad_parameters(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            generate_fleet(n_series=0)
        with pytest.raises(WorkloadError):
            generate_fleet(disordered_fraction=2.0)
