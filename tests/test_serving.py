"""Tests for the sharded serving tier and its memory arbiter.

The load-bearing property is *shard independence*: an N-shard
:class:`~repro.serving.ShardedDatabase` run must be bit-identical, shard
by shard (write amplification, per-point write counters, checkpoint
bytes, ``verify()``), to N standalone single-shard databases run over
the same routed partitions.  Everything the serving tier adds — routing,
fleet manifests, the online arbiter, the fleet crash matrix — is checked
against that invariant here.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro import tune_separation_policy
from repro.core.allocation import MemoryArbiter
from repro.distributions import ExponentialDelay, UniformDelay
from repro.errors import EngineError, ModelError, RecoveryError, TelemetryError
from repro.faults.crashtest import FLEET_FAULT_KINDS, run_crash_case
from repro.lsm.database import TimeSeriesDatabase, manifest_filename
from repro.lsm.wal import WriteAheadLog, read_wal
from repro.obs import render_shard_report
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.serving import (
    FLEET_MANIFEST,
    ShardRouter,
    ShardedDatabase,
    shard_name,
)
from repro.workloads import generate_synthetic
from tests.fleet_support import benchmark_fleet, lockstep_rounds

#: Small buffers: a few thousand points exercise many flushes/merges.
_DB_KWARGS = dict(memory_budget_per_series=64, sstable_size=32)


def _datasets(names, n_points=1500, disordered=True, base_seed=11):
    delay = (
        ExponentialDelay(mean=40.0) if disordered else UniformDelay(0.0, 0.5)
    )
    return {
        name: generate_synthetic(
            n_points, dt=1.0, delay=delay, seed=base_seed + index, name=name
        )
        for index, name in enumerate(names)
    }


class TestShardRouter:
    def test_hash_routing_is_stable_across_instances(self):
        names = [f"series-{i}" for i in range(40)]
        a = ShardRouter(4)
        b = ShardRouter(4)
        assert [a.shard_of(n) for n in names] == [b.shard_of(n) for n in names]
        assert all(0 <= a.shard_of(n) < 4 for n in names)

    def test_hash_routing_spreads_series(self):
        router = ShardRouter(4)
        hit = {router.shard_of(f"series-{i:03d}") for i in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_split_batch_preserves_per_shard_order(self):
        router = ShardRouter(2)
        batch = [(f"s{i}", np.arange(3.0) + i) for i in range(8)]
        parts = router.split_batch(batch)
        for index, entries in parts.items():
            expected = [e for e in batch if router.shard_of(e[0]) == index]
            assert [e[0] for e in entries] == [e[0] for e in expected]

    def test_round_trips_through_dict(self):
        router = ShardRouter(3)
        clone = ShardRouter.from_dict(router.as_dict())
        for name in ("alpha", "golf", "pike", "zulu"):
            assert clone.shard_of(name) == router.shard_of(name)

    def test_rejects_bad_inputs(self):
        for n_shards in (0, 2.5, True):
            with pytest.raises(EngineError):
                ShardRouter(n_shards)


class TestShardConformance:
    """The tier invariant, across three engine policy triples.

    ``pi_c`` runs every series conventional, ``pi_s`` pins every series
    to separation with a fixed split, and ``tuned`` lets the mid-run
    retune switch disordered series to separation — so the comparison
    covers the conventional triple, the separation triple and the
    tuned mix of both.
    """

    MODES = ("pi_c", "pi_s", "tuned")

    def _run_pair(self, tmp_path, mode):
        names = [f"series-{i:02d}" for i in range(5)]
        datasets = _datasets(names)
        rounds = lockstep_rounds(datasets, 400, with_ta=(mode == "tuned"))
        auto_tune = mode == "tuned"

        fleet = ShardedDatabase(
            3,
            auto_tune=auto_tune,
            durability_dir=str(tmp_path / "fleet"),
            **_DB_KWARGS,
        )
        router = fleet.router
        solos = [
            TimeSeriesDatabase(
                auto_tune=auto_tune,
                durability_dir=str(tmp_path / "solo" / shard_name(index)),
                namespace=shard_name(index),
                **_DB_KWARGS,
            )
            for index in range(router.n_shards)
        ]
        if mode == "pi_s":
            for name in names:
                fleet.database_for(name).create_series(name, seq_capacity=16)
                solos[router.shard_of(name)].create_series(
                    name, seq_capacity=16
                )
        retune_at = len(rounds) // 2
        for rnd, batch in enumerate(rounds):
            fleet.ingest_batch(batch)
            # The solo runs replicate ingest_batch exactly: routed
            # slices, per-shard input order, one sync per shard slice.
            parts = router.split_batch(batch)
            for index in sorted(parts):
                for entry in parts[index]:
                    solos[index].write(entry[0], entry[1], *entry[2:])
                solos[index].sync()
            if mode == "tuned" and rnd + 1 == retune_at:
                fleet.retune(min_observations=512)
                for solo in solos:
                    solo.retune(min_observations=512)
        return fleet, solos, names, router

    @pytest.mark.parametrize("mode", MODES)
    def test_fleet_matches_standalone_shards(self, tmp_path, mode):
        fleet, solos, names, router = self._run_pair(tmp_path, mode)
        assert len(fleet) == len(names)
        for name in names:
            sharded = fleet.database_for(name).series(name).engine
            solo = solos[router.shard_of(name)].series(name).engine
            sharded.verify()
            solo.verify()
            assert type(sharded) is type(solo)
            assert sharded.ingested_points == solo.ingested_points
            assert sharded.stats.disk_writes == solo.stats.disk_writes
            assert np.array_equal(
                sharded.stats.write_counts, solo.stats.write_counts
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_checkpoint_bytes_identical(self, tmp_path, mode):
        fleet, solos, _, router = self._run_pair(tmp_path, mode)
        fleet.checkpoint_all()
        for solo in solos:
            solo.checkpoint_all()
        for index in range(router.n_shards):
            shard_dir = tmp_path / "fleet" / shard_name(index)
            solo_dir = tmp_path / "solo" / shard_name(index)
            shard_files = sorted(os.listdir(shard_dir))
            assert shard_files == sorted(os.listdir(solo_dir))
            for file_name in shard_files:
                assert (shard_dir / file_name).read_bytes() == (
                    solo_dir / file_name
                ).read_bytes(), f"{shard_name(index)}/{file_name} diverged"


class TestNamespaceCollision:
    """Regression: databases sharing one directory must not collide."""

    def test_namespaced_databases_share_a_directory(self, tmp_path):
        shared = str(tmp_path)
        names = ["sensor", "sensor.2"]
        first = TimeSeriesDatabase(
            durability_dir=shared, namespace="shard-00", **_DB_KWARGS
        )
        second = TimeSeriesDatabase(
            durability_dir=shared, namespace="shard-01", **_DB_KWARGS
        )
        data = _datasets(names, n_points=600)
        for name in names:
            first.write(name, data[name].tg)
            second.write(name, data[name].tg[:300])
        first.sync()
        second.sync()
        first.checkpoint_all()
        second.checkpoint_all()
        # Same series names, same directory — every file still distinct.
        assert manifest_filename("shard-00") != manifest_filename("shard-01")
        assert len(os.listdir(shared)) == 2 * (2 * len(names) + 1)
        for namespace, points in (("shard-00", 600), ("shard-01", 300)):
            recovered = TimeSeriesDatabase.recover(
                shared, namespace=namespace
            )
            assert sorted(recovered.series_names()) == sorted(names)
            for name in names:
                engine = recovered.series(name).engine
                engine.verify()
                assert engine.ingested_points == points

    def test_recover_rejects_namespace_mismatch(self, tmp_path):
        db = TimeSeriesDatabase(
            durability_dir=str(tmp_path), namespace="shard-00", **_DB_KWARGS
        )
        db.write("s", np.arange(64.0))
        db.checkpoint_all()
        with pytest.raises(RecoveryError):
            TimeSeriesDatabase.recover(str(tmp_path))

    def test_empty_namespace_keeps_historical_layout(self, tmp_path):
        db = TimeSeriesDatabase(durability_dir=str(tmp_path), **_DB_KWARGS)
        db.write("s", np.arange(64.0))
        db.checkpoint_all()
        assert manifest_filename() == "manifest.json"
        assert (tmp_path / "manifest.json").exists()
        recovered = TimeSeriesDatabase.recover(str(tmp_path))
        assert recovered.series("s").engine.ingested_points == 64


class TestShardLabels:
    def test_per_shard_counters_stay_distinguishable(self, tmp_path):
        telemetry = Telemetry(sinks=[RingBufferSink()])
        fleet = ShardedDatabase(
            n_shards=2, telemetry=telemetry, **_DB_KWARGS
        )
        fleet.ingest_batch(
            [("left", np.arange(100.0)), ("night", np.arange(50.0))]
        )
        values = telemetry.registry.shard_values("db.write.points")
        assert set(values) == {shard_name(0), shard_name(1)}
        assert sum(values.values()) == 150
        assert telemetry.registry.counter("fleet.ingest.points").value == 150

    def test_label_rejects_metachars(self):
        telemetry = Telemetry(sinks=[RingBufferSink()])
        with pytest.raises(TelemetryError):
            telemetry.registry.counter("db.write.points", shard='ba"d')


class TestFleetCrash:
    """Killing one shard mid-group-commit leaves the rest untouched."""

    @pytest.mark.parametrize("fault", FLEET_FAULT_KINDS)
    def test_victim_recovers_exactly_survivors_untouched(
        self, tmp_path, fault
    ):
        result = run_crash_case("fleet", fault, seed=0, workdir=str(tmp_path))
        assert result.crashed, result.describe()
        assert result.victim_series > 0
        assert result.survivors_untouched, result.describe()
        assert result.wa_match, result.describe()
        assert result.ok, result.describe()


class TestFleetRecovery:
    def test_fleet_round_trips_through_recovery(self, tmp_path):
        names = [f"series-{i:02d}" for i in range(4)]
        datasets = _datasets(names, n_points=800)
        fleet = ShardedDatabase(
            n_shards=3, durability_dir=str(tmp_path), **_DB_KWARGS
        )
        for batch in lockstep_rounds(datasets, 300):
            fleet.ingest_batch(batch)
        fleet.checkpoint_all()
        expected = {
            name: fleet.database_for(name).series(name).engine.ingested_points
            for name in names
        }
        revived = ShardedDatabase.recover(str(tmp_path))
        assert revived.n_shards == 3
        assert sorted(revived.series_names()) == sorted(names)
        for name in names:
            engine = revived.database_for(name).series(name).engine
            engine.verify()
            assert engine.ingested_points == expected[name]

    def test_recover_without_manifest_fails(self, tmp_path):
        with pytest.raises(RecoveryError):
            ShardedDatabase.recover(str(tmp_path))


class TestMemoryArbiter:
    def _skewed_fleet(self, tmp_path=None, arbiter=None):
        telemetry = Telemetry(sinks=[RingBufferSink()])
        fleet = ShardedDatabase(
            n_shards=2,
            memory_budget_per_series=64,
            sstable_size=32,
            auto_tune=True,
            telemetry=telemetry,
            durability_dir=str(tmp_path) if tmp_path is not None else None,
            arbiter=arbiter,
        )
        noisy = _datasets(
            ["noisy-0", "noisy-1"], n_points=2000, base_seed=3
        )
        clean = _datasets(
            ["clean-0", "clean-1"],
            n_points=2000,
            disordered=False,
            base_seed=23,
        )
        datasets = {**noisy, **clean}
        return fleet, datasets

    def test_requires_auto_tune(self):
        with pytest.raises(EngineError):
            ShardedDatabase(
                n_shards=2,
                auto_tune=False,
                arbiter=MemoryArbiter(total_budget=256),
            )

    def test_recover_requires_auto_tune(self, tmp_path):
        """``recover`` holds the constructor's rule: an arbiter over a
        fleet without delay profiles would never rebalance."""
        fleet = ShardedDatabase(n_shards=2, auto_tune=False, durability_dir=str(tmp_path))
        fleet.write("s", np.arange(100.0))
        fleet.checkpoint_all()
        with pytest.raises(EngineError, match="auto_tune=True"):
            ShardedDatabase.recover(str(tmp_path), arbiter=MemoryArbiter(total_budget=256))
        assert ShardedDatabase.recover(str(tmp_path)).arbiter is None

    def test_rejects_fault_plans_outside_fleet(self):
        with pytest.raises(EngineError):
            ShardedDatabase(n_shards=2, shard_fault_plans={5: object()})

    def test_rebalance_moves_memory_to_disordered_series(self, tmp_path):
        arbiter = MemoryArbiter(
            total_budget=4 * 64,
            candidate_budgets=(32, 64, 128),
            decision_interval=4000,
            min_observations=512,
        )
        fleet, datasets = self._skewed_fleet(tmp_path, arbiter)
        for batch in lockstep_rounds(datasets, 500, with_ta=True):
            fleet.ingest_batch(batch)
        assert fleet.last_rebalance is not None
        budgets = {
            name: fleet.database_for(name).series(name).config.memory_budget
            for name in datasets
        }
        assert sum(budgets.values()) <= arbiter.total_budget
        for noisy in ("noisy-0", "noisy-1"):
            for clean in ("clean-0", "clean-1"):
                assert budgets[noisy] > budgets[clean], budgets
        # Resizes preserved exact WA accounting: every engine verifies
        # and still holds its full ingest history.
        for name in datasets:
            engine = fleet.database_for(name).series(name).engine
            engine.verify()
            assert engine.ingested_points == 2000
        assert fleet.telemetry.registry.counter("arbiter.decisions").value > 0

    def test_decision_persists_through_fleet_manifest(self, tmp_path):
        arbiter = MemoryArbiter(
            total_budget=4 * 64,
            candidate_budgets=(32, 64, 128),
            decision_interval=4000,
            min_observations=512,
        )
        fleet, datasets = self._skewed_fleet(tmp_path, arbiter)
        for batch in lockstep_rounds(datasets, 500, with_ta=True):
            fleet.ingest_batch(batch)
        fleet.checkpoint_all()
        with open(tmp_path / FLEET_MANIFEST, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["last_rebalance"]["tick"] >= 1
        revived = ShardedDatabase.recover(str(tmp_path))
        assert revived.last_rebalance == fleet.last_rebalance

    def test_shard_report_renders(self, tmp_path):
        arbiter = MemoryArbiter(
            total_budget=4 * 64,
            candidate_budgets=(32, 64, 128),
            decision_interval=4000,
            min_observations=512,
        )
        fleet, datasets = self._skewed_fleet(tmp_path, arbiter)
        for batch in lockstep_rounds(datasets, 500, with_ta=True):
            fleet.ingest_batch(batch)
        report = render_shard_report(fleet, source="test-fleet")
        assert "shard-00" in report and "shard-01" in report
        assert "last rebalance: tick" in report
        assert "test-fleet" in report

    def test_backpressure_rolls_up_worst_state(self):
        fleet, _ = self._skewed_fleet()
        fleet.write("s", np.arange(64.0))
        assert fleet.backpressure_state() == "healthy"


class TestRejectedEntryBarrier:
    """``ingest_batch(sync=True)`` is per entry, not all or nothing —
    but whatever it did place is durable when the error leaves."""

    def _fleet(self, tmp_path, n_shards):
        return ShardedDatabase(
            n_shards=n_shards,
            durability_dir=str(tmp_path / "fleet"),
            stability=dict(wal_group_records=8),
            **_DB_KWARGS,
        )

    def test_barrier_runs_for_the_shard_that_rejected(self, tmp_path):
        fleet = self._fleet(tmp_path, n_shards=1)
        good = np.arange(10.0)
        with pytest.raises(ModelError):
            fleet.ingest_batch(
                [
                    ("a", good, good + 1.0),
                    ("b", np.array([1.0, 2.0]), np.array([1.0, np.nan])),
                    ("c", good, good + 1.0),
                ],
                sync=True,
            )
        wal = fleet.shards[0].series("a").engine.wal
        # The entry before the rejected one: applied and on disk.
        assert fleet.snapshot("a").total_points == 10
        assert (wal.appended, wal.records_committed) == (1, 1)
        assert read_wal(wal.path).total_points == 10
        # The rejected one left no trace; the one after was not attempted.
        assert fleet.series_names() == ["a"]

    def test_unsynced_batch_still_defers_its_group(self, tmp_path):
        fleet = self._fleet(tmp_path, n_shards=1)
        good = np.arange(10.0)
        with pytest.raises(ModelError):
            fleet.ingest_batch(
                [("a", good, good + 1.0), ("b", good, good[:3])], sync=False
            )
        wal = fleet.shards[0].series("a").engine.wal
        assert (wal.appended, wal.records_committed) == (1, 0)

    def test_later_shards_are_not_attempted(self, tmp_path):
        fleet = self._fleet(tmp_path, n_shards=4)
        names = [f"series-{index:02d}" for index in range(12)]
        owners = {name: fleet.shard_of(name) for name in names}
        first, last = min(owners.values()), max(owners.values())
        assert first != last
        in_first = [name for name in names if owners[name] == first]
        assert len(in_first) > 1
        bad = in_first[-1]
        good = np.arange(10.0)
        batch = [
            (name, good, good + (np.nan if name == bad else 1.0)) for name in names
        ]
        with pytest.raises(ModelError):
            fleet.ingest_batch(batch, sync=True)
        assert fleet.series_names() == in_first[:-1]
        for name in fleet.series_names():
            wal = fleet.database_for(name).series(name).engine.wal
            assert (wal.appended, wal.records_committed) == (1, 1)


class TestBarriersFsyncOnlyWhatWasWritten:
    """A barrier fsyncs a WAL only when bytes reached it since its last
    fsync: a synced batch pays for the series it wrote, not for every
    series on the shards it touched."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counted(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counted)
        return calls

    def test_a_log_with_nothing_unsynced_is_not_fsynced(self, tmp_path, fsyncs):
        wal = WriteAheadLog(str(tmp_path / "a.wal"), group_records=8)
        wal.sync()
        assert fsyncs == []  # never opened
        wal.append(np.arange(3.0), start_id=0)
        wal.sync()
        wal.sync()
        assert len(fsyncs) == 1
        wal.append(np.arange(3.0), start_id=3)
        wal.close()
        wal.sync()  # closed: nothing to fsync through
        assert len(fsyncs) == 1

    def test_a_one_series_batch_fsyncs_one_log(self, tmp_path, fsyncs):
        names = [f"s{index}" for index in range(8)]
        fleet = ShardedDatabase(
            n_shards=2, durability_dir=str(tmp_path / "fleet"),
            stability=dict(wal_group_records=8), **_DB_KWARGS,
        )
        batch = np.arange(16.0)
        fleet.ingest_batch([(name, batch) for name in names], sync=True)
        assert sum(fleet.shard_of(n) == fleet.shard_of("s0") for n in names) > 1
        fleet.checkpoint_all()
        fsyncs.clear()
        fleet.ingest_batch([("s0", batch + 16.0)], sync=True)
        assert len(fsyncs) == 1
        fleet.sync()
        assert len(fsyncs) == 1
        # A crash right after the skipped barriers loses nothing acknowledged.
        revived = ShardedDatabase.recover(str(tmp_path / "fleet"))
        for name in names:
            assert revived.snapshot(name).total_points == (32 if name == "s0" else 16), name


def _bits(decision):
    """Every field of a ``PolicyDecision``, floats by ``float.hex``."""
    bits = {}
    for field in dataclasses.fields(decision):
        value = getattr(decision, field.name)
        if isinstance(value, np.ndarray):
            value = (str(value.dtype), [float(v).hex() for v in value.tolist()])
        elif isinstance(value, float):
            value = value.hex()
        bits[field.name] = value
    return bits


class TestConcurrentRetune:
    """A fleet retune decides every shard's series in one concurrent
    pass and applies them shard by shard, series by series: decisions
    and events equal a serial retune's, whatever the CPU count."""

    @pytest.fixture(scope="class")
    def retuned(self):
        """The benchmark-shaped fleet retuned as if on four CPUs and on
        one: ``{cpus: (fleet, switched, events)}``."""
        data, _ = benchmark_fleet(8192, seed=7)
        runs = {}
        for cpus in (4, 1):
            sink = RingBufferSink(capacity=100_000)
            fleet = ShardedDatabase(
                n_shards=4, memory_budget_per_series=512, sstable_size=512,
                telemetry=Telemetry(sinks=[sink]),
            )
            for batch in lockstep_rounds(data, 2048, with_ta=True):
                fleet.ingest_batch(batch, sync=False)
            mark = len(sink.events)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False
                )
                switched = fleet.retune()
            runs[cpus] = (fleet, switched, list(sink.events)[mark:])
        return runs

    def test_decisions_are_serial_tunes_of_the_same_windows(self, retuned):
        fleet, switched, events = retuned[4]
        assert len(switched) >= 3  # the heavy pi_s tunes are among them
        for name in fleet.series_names():
            state = fleet.database_for(name).series(name)
            profile = state.engine.analyzer.profile()
            serial = tune_separation_policy(
                profile.distribution, profile.dt, 512, sstable_size=512
            )
            assert _bits(state.engine.analyzer.last_decision) == _bits(serial), name
        decided = [e for e in events if e["type"] == "db.retune_decision"]
        assert [e["series"] for e in decided] == fleet.series_names()
        assert all(e["duration_ms"] > 0 for e in decided)

    def test_one_cpu_gives_the_same_retune(self, retuned):
        (fleet, switched, events), (alone, switched_alone, events_alone) = (
            retuned[4], retuned[1]
        )
        assert switched == switched_alone
        for name in fleet.series_names():
            decided = [
                side.database_for(name).series(name).engine.analyzer.last_decision
                for side in (fleet, alone)
            ]
            assert _bits(decided[0]) == _bits(decided[1]), name

        def untimed(stream):
            return [
                {k: v for k, v in e.items() if k not in ("ts_ms", "duration_ms")}
                for e in stream
            ]

        assert untimed(events) == untimed(events_alone)
