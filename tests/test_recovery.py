"""Durability tests: WAL framing, checkpoints, crash recovery."""

import numpy as np
import pytest

from repro import (
    AdaptiveEngine,
    ConventionalEngine,
    ExponentialDelay,
    IoTDBStyleEngine,
    LogNormalDelay,
    LsmConfig,
    MultiLevelEngine,
    SeparationEngine,
    TieredEngine,
    TimeSeriesDatabase,
    WriteAheadLog,
    read_wal,
    recover_adaptive,
    recover_engine,
)
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    InjectedCrash,
    RecoveryError,
    WalError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.lsm import ComposedEngine, LeveledEngine, LsmEngine
from repro.lsm.checkpoint import read_checkpoint, write_checkpoint
from repro.workloads import TABLE_II, generate_synthetic


def _dataset(n=4000, seed=0):
    return generate_synthetic(
        n, dt=1.0, delay=ExponentialDelay(mean=40.0), seed=seed
    )


def _assert_same_state(left, right):
    """Two engines hold bit-identical durable state."""
    ls, rs = left.snapshot(), right.snapshot()
    assert ls.total_points == rs.total_points
    assert ls.disk_points == rs.disk_points
    for attr in ("tg", "ids"):
        l_disk = np.concatenate(
            [getattr(t, attr) for t in ls.tables]
        ) if ls.tables else np.array([])
        r_disk = np.concatenate(
            [getattr(t, attr) for t in rs.tables]
        ) if rs.tables else np.array([])
        np.testing.assert_array_equal(np.sort(l_disk), np.sort(r_disk))
    assert left.ingested_points == right.ingested_points
    np.testing.assert_array_equal(
        left.stats.write_counts[: left.stats.user_points],
        right.stats.write_counts[: right.stats.user_points],
    )
    assert left.stats.disk_writes == right.stats.disk_writes


ENGINE_FACTORIES = {
    "pi_c": lambda cfg: ConventionalEngine(cfg),
    "pi_s": lambda cfg: SeparationEngine(
        LsmConfig(
            cfg.memory_budget, cfg.sstable_size, seq_capacity=48,
            wal_path=cfg.wal_path,
        )
    ),
    "iotdb": lambda cfg: IoTDBStyleEngine(cfg, l1_file_limit=4),
    "multilevel": lambda cfg: MultiLevelEngine(cfg, size_ratio=4, max_levels=4),
    "tiered": lambda cfg: TieredEngine(cfg, tier_fanout=3, max_levels=4),
}


class TestWal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.wal")
        wal = WriteAheadLog(path)
        tg0 = np.array([3.0, 1.0, 2.0])
        tg1 = np.array([5.0, 4.0])
        ta1 = np.array([6.0, 7.0])
        wal.append(tg0, start_id=0)
        wal.append(tg1, start_id=3, ta=ta1)
        wal.close()
        result = read_wal(path)
        assert not result.torn
        assert [r.start_id for r in result.records] == [0, 3]
        np.testing.assert_array_equal(result.records[0].tg, tg0)
        assert result.records[0].ta is None
        np.testing.assert_array_equal(result.records[1].ta, ta1)
        assert result.total_points == 5

    def test_missing_file_reads_empty(self, tmp_path):
        result = read_wal(str(tmp_path / "never-written.wal"))
        assert result.records == [] and not result.torn

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.wal"
        path.write_bytes(b"not a wal at all")
        with pytest.raises(WalError):
            read_wal(str(path))
        with pytest.raises(WalError):
            WriteAheadLog(str(path)).append(np.array([1.0]), start_id=0)

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        wal = WriteAheadLog(path)
        wal.append(np.array([1.0, 2.0]), start_id=0)
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x07\x00\x00")  # partial frame header
        result = read_wal(path)
        assert result.torn and result.torn_bytes == 3
        assert len(result.records) == 1
        result.truncate()
        clean = read_wal(path)
        assert not clean.torn and len(clean.records) == 1

    def test_injected_torn_append(self, tmp_path):
        path = str(tmp_path / "inj.wal")
        faults = FaultInjector(FaultPlan(seed=7, torn_wal_append_at=2))
        wal = WriteAheadLog(path, faults=faults)
        wal.append(np.array([1.0]), start_id=0)
        with pytest.raises(InjectedCrash):
            wal.append(np.array([2.0, 3.0]), start_id=1)
        wal.close()
        result = read_wal(path)
        assert result.torn and len(result.records) == 1
        assert ("wal.append", "torn") in faults.injected


@pytest.mark.parametrize("key", sorted(ENGINE_FACTORIES))
class TestCheckpointRoundTrip:
    def test_restore_continues_bit_identically(self, key, tmp_path):
        dataset = _dataset(3000, seed=3)
        head, tail = dataset.tg[:1800], dataset.tg[1800:]
        engine = ENGINE_FACTORIES[key](LsmConfig(64, 32))
        engine.ingest(head)
        ckpt = str(tmp_path / "mid.ckpt")
        engine.save_checkpoint(ckpt)
        restored = type(engine).restore(ckpt)
        _assert_same_state(engine, restored)
        engine.ingest(tail)
        restored.ingest(tail)
        _assert_same_state(engine, restored)
        restored.verify()

    def test_corrupt_checkpoint_detected(self, key, tmp_path):
        engine = ENGINE_FACTORIES[key](LsmConfig(64, 32))
        engine.ingest(_dataset(1000, seed=1).tg)
        ckpt = str(tmp_path / "bad.ckpt")
        engine.save_checkpoint(ckpt)
        FaultInjector(FaultPlan(seed=5)).corrupt_file(ckpt, spare_prefix=8)
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(ckpt)
        with pytest.raises(CheckpointCorruptError):
            type(engine).restore(ckpt)


class TestAClassRestoresWhatItBuilds:
    """``cls.restore`` takes every name ``cls``'s own engines record
    (``cls.checkpoint_labels``), and no other."""

    @pytest.fixture()
    def leveled(self, tmp_path):
        """``[(engine, its checkpoint)]``, one per leveled split."""
        pairs = []
        for engine in (
            ConventionalEngine(LsmConfig(64, 32)),
            SeparationEngine(LsmConfig(64, 32, seq_capacity=48)),
        ):
            engine.ingest(_dataset(1500, seed=7).tg)
            path = str(tmp_path / f"{engine.checkpoint_label}.ckpt")
            engine.save_checkpoint(path)
            pairs.append((engine, path))
        return pairs

    def test_leveled_engine_restores_both_named_constructors(self, leveled):
        """``LeveledEngine`` is what ``create_series`` builds; it used to
        refuse every checkpoint ever written."""
        for engine, path in leveled:
            restored = LeveledEngine.restore(path)
            assert restored.current_policy == engine.current_policy
            _assert_same_state(engine, restored)
            restored.verify()

    def test_conventional_engine_restores_its_own_engine_after_a_resplit(
        self, tmp_path
    ):
        dataset = _dataset(2400, seed=8)
        engine = ConventionalEngine(LsmConfig(64, 32))
        engine.ingest(dataset.tg[:800])
        assert engine.resplit(24)
        engine.ingest(dataset.tg[800:1600])
        path = str(tmp_path / "resplit.ckpt")
        engine.save_checkpoint(path)
        assert read_checkpoint(path)[0]["engine"] == "SeparationEngine"
        restored = ConventionalEngine.restore(path)
        assert restored.current_policy == engine.current_policy == "pi_s(n_seq=24)"
        _assert_same_state(engine, restored)
        engine.ingest(dataset.tg[1600:])
        restored.ingest(dataset.tg[1600:])
        _assert_same_state(engine, restored)
        restored.verify()

    def test_a_name_the_class_cannot_build_is_still_refused(self, leveled, tmp_path):
        (_, conventional), (_, separation) = leveled
        tiered = str(tmp_path / "tiered.ckpt")
        TieredEngine(LsmConfig(64, 32)).save_checkpoint(tiered)
        for cls, path in (
            (LeveledEngine, tiered),
            (ConventionalEngine, tiered),
            (AdaptiveEngine, conventional),
            (MultiLevelEngine, tiered),
            (TieredEngine, separation),
        ):
            with pytest.raises(CheckpointError, match=f"not {cls.__name__}"):
                cls.restore(path)
        assert isinstance(ComposedEngine.restore(tiered), TieredEngine)
        meta, arrays = read_checkpoint(tiered)
        meta["engine"] = "LeveledEngine"  # a class, but no row records it
        write_checkpoint(tiered, meta, arrays)
        for cls in (LsmEngine, LeveledEngine, TieredEngine):
            with pytest.raises(CheckpointError, match="unknown engine class"):
                cls.restore(tiered)


class TestRecoverEngine:
    def test_full_wal_replay(self, tmp_path):
        wal_path = str(tmp_path / "e.wal")
        dataset = _dataset(2500, seed=2)
        engine = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        for lo in range(0, 2500, 300):
            engine.ingest(dataset.tg[lo : lo + 300])
        engine.wal.close()
        report = recover_engine(
            ConventionalEngine, wal_path, config=LsmConfig(64, 32)
        )
        assert not report.checkpoint_used and report.verified
        assert report.replayed_points == 2500
        _assert_same_state(engine, report.engine)

    def test_checkpoint_plus_tail_replay(self, tmp_path):
        wal_path = str(tmp_path / "e.wal")
        ckpt_path = str(tmp_path / "e.ckpt")
        dataset = _dataset(2500, seed=4)
        engine = SeparationEngine(
            LsmConfig(64, 32, seq_capacity=48, wal_path=wal_path)
        )
        for lo in range(0, 2500, 250):
            engine.ingest(dataset.tg[lo : lo + 250])
            if lo == 1000:
                engine.save_checkpoint(ckpt_path)
        engine.wal.close()
        report = recover_engine(
            SeparationEngine,
            wal_path,
            checkpoint_path=ckpt_path,
            config=LsmConfig(64, 32, seq_capacity=48),
        )
        assert report.checkpoint_used and report.verified
        assert report.replayed_points == 2500 - 1250
        assert report.durable_points == 2500
        _assert_same_state(engine, report.engine)

    def test_corrupt_checkpoint_falls_back_to_full_replay(self, tmp_path):
        wal_path = str(tmp_path / "e.wal")
        ckpt_path = str(tmp_path / "e.ckpt")
        dataset = _dataset(2000, seed=5)
        engine = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        engine.ingest(dataset.tg[:1000])
        engine.save_checkpoint(ckpt_path)
        engine.ingest(dataset.tg[1000:])
        engine.wal.close()
        FaultInjector(FaultPlan(seed=9)).corrupt_file(ckpt_path, spare_prefix=8)
        report = recover_engine(
            ConventionalEngine,
            wal_path,
            checkpoint_path=ckpt_path,
            config=LsmConfig(64, 32),
        )
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert report.replayed_points == 2000
        _assert_same_state(engine, report.engine)

    def test_adaptive_full_replay(self, tmp_path):
        wal_path = str(tmp_path / "a.wal")
        dataset = _dataset(3000, seed=6)
        engine = AdaptiveEngine(
            LsmConfig(64, 32, wal_path=wal_path), check_interval=512
        )
        for lo in range(0, 3000, 400):
            engine.ingest(
                dataset.tg[lo : lo + 400], dataset.ta[lo : lo + 400]
            )
        engine.wal.close()
        report = recover_adaptive(
            wal_path,
            config=LsmConfig(64, 32),
            engine_kwargs={"check_interval": 512},
        )
        assert report.verified
        assert report.durable_points == 3000
        recovered = report.engine
        assert recovered.policy_name == engine.policy_name
        np.testing.assert_array_equal(
            recovered.stats.write_counts[:3000],
            engine.stats.write_counts[:3000],
        )
        assert recovered.stats.disk_writes == engine.stats.disk_writes

    def test_adaptive_wal_without_ta_rejected(self, tmp_path):
        wal_path = str(tmp_path / "plain.wal")
        wal = WriteAheadLog(wal_path)
        wal.append(np.array([1.0, 2.0]), start_id=0)
        wal.close()
        with pytest.raises(RecoveryError):
            recover_adaptive(wal_path, config=LsmConfig(64, 32))

    def test_recover_engine_rejects_adaptive_wal_without_ta(self, tmp_path):
        """The generic entry refuses it too — bare generation times are
        never replayed as if the engine were a fixed ``pi_c``."""
        wal_path = str(tmp_path / "plain.wal")
        wal = WriteAheadLog(wal_path)
        wal.append(np.array([1.0, 2.0]), start_id=0)
        wal.close()
        with pytest.raises(RecoveryError):
            recover_engine(AdaptiveEngine, wal_path, config=LsmConfig(64, 32))

    def test_recover_engine_recovers_an_adaptive_engine(self, tmp_path):
        """``recover_engine`` is the one loop: handed the adaptive class
        it replays ``(tg, ta)`` records through the analyzer, switches
        included, exactly as ``recover_adaptive`` does."""
        wal_path = str(tmp_path / "a.wal")
        dataset = TABLE_II["M8"].build(n_points=6000, seed=3)
        engine = AdaptiveEngine(
            LsmConfig(64, 32, wal_path=wal_path), check_interval=64
        )
        for lo in range(0, 6000, 400):
            engine.ingest(dataset.tg[lo : lo + 400], dataset.ta[lo : lo + 400])
        engine.wal.close()
        assert engine.switch_log, "the stream must switch policy at least once"
        kwargs = dict(config=LsmConfig(64, 32), engine_kwargs={"check_interval": 64})
        generic = recover_engine(AdaptiveEngine, wal_path, **kwargs)
        dedicated = recover_adaptive(wal_path, **kwargs)
        assert generic.verified and generic.durable_points == 6000
        assert not generic.checkpoint_used
        assert generic.engine.switch_log == dedicated.engine.switch_log
        np.testing.assert_array_equal(
            generic.engine.stats.write_counts, dedicated.engine.stats.write_counts
        )
        _assert_same_state(engine, generic.engine)


class TestDatabaseDurability:
    def test_checkpoint_all_and_recover(self, tmp_path):
        state_dir = str(tmp_path / "state")
        db = TimeSeriesDatabase(
            memory_budget_per_series=64,
            sstable_size=32,
            durability_dir=state_dir,
        )
        datasets = {
            "plain": _dataset(2000, seed=10),
            "split": _dataset(2000, seed=11),
        }
        db.create_series("split", seq_capacity=24)
        for name, dataset in datasets.items():
            db.write(name, dataset.tg, dataset.ta)
        db.checkpoint_all()
        # More writes after the checkpoint: recovery replays the WAL tail.
        extra = _dataset(500, seed=12)
        db.write("plain", extra.tg, extra.ta)

        revived = TimeSeriesDatabase.recover(state_dir)
        assert sorted(revived.series_names()) == ["plain", "split"]
        for name in datasets:
            original = db.series(name).engine
            recovered = revived.series(name).engine
            recovered.verify()
            _assert_same_state(original, recovered)

    @pytest.mark.xfail(
        strict=True,
        reason="a retune or resize after the last checkpoint_all is not "
        "durable: the manifest still names the old split, so the WAL tail "
        "replays under it (docs/durability.md, 'What a crash forgets')",
    )
    def test_retune_after_the_last_checkpoint_survives_recovery(self, tmp_path):
        """The contract recovery should meet: after ``sync()``, what
        ``recover`` rebuilds has the live engine's per-point write counts
        — same points *and* same accounting, whatever was retuned when."""
        state_dir = str(tmp_path / "state")
        db = TimeSeriesDatabase(
            memory_budget_per_series=512, sstable_size=128, durability_dir=state_dir
        )
        dataset = generate_synthetic(
            8000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=3
        )
        db.write("s", dataset.tg[:6000], dataset.ta[:6000])
        db.checkpoint_all()
        assert db.retune()  # pi_c -> pi_s, recorded nowhere durable
        db.write("s", dataset.tg[6000:], dataset.ta[6000:])
        db.sync()

        live = db.series("s").engine
        recovered = TimeSeriesDatabase.recover(state_dir).series("s").engine
        assert recovered.ingested_points == live.ingested_points
        for engine in (live, recovered):
            engine.flush_all()
        np.testing.assert_array_equal(
            recovered.stats.write_counts, live.stats.write_counts
        )

    def test_recover_without_manifest_fails(self, tmp_path):
        with pytest.raises(RecoveryError):
            TimeSeriesDatabase.recover(str(tmp_path / "nothing"))
