"""Durability tests: WAL framing, checkpoints, crash recovery."""

import json
import os
import re
import struct
import zlib
from dataclasses import asdict, replace
from pathlib import Path

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
    recover_engine,
)
from repro.config import DEFAULT_DISK_MODEL, DEFAULT_MODEL_CONFIG
from repro.core.analyzer import DelayAnalyzer
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    InjectedCrash,
    InvariantViolation,
    RecoveryError,
    WalError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.crashtest import _prefix_mismatch
from repro.lsm import LsmEngine, compose_engine
from repro.lsm import wal as wal_module
from repro.lsm.checkpoint import read_checkpoint, write_checkpoint
from repro.lsm.policies.compose import ENGINES, engine_constructor
from repro.lsm.wal import WAL_MAGIC
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.serving import FLEET_MANIFEST, ShardedDatabase
from repro.workloads import TABLE_II, generate_synthetic

LEGACY_DIR = Path(__file__).parent / "data" / "legacy_checkpoints"


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

    @staticmethod
    def _fifteen_records(path):
        """A WAL of 15 records x 200 points; returns its bytes and the
        byte offset of each frame."""
        wal = WriteAheadLog(str(path))
        for start in range(0, 3000, 200):
            wal.append(np.arange(start, start + 200, dtype=np.float64), start_id=start)
        wal.close()
        blob = path.read_bytes()
        frame = (len(blob) - len(WAL_MAGIC)) // 15
        return blob, [len(WAL_MAGIC) + k * frame for k in range(15)]

    def test_damage_mid_log_is_an_error_not_a_torn_tail(self, tmp_path):
        """A bad frame with intact frames behind it is no crash
        mid-append: truncating there would throw away 2 600 acknowledged
        points, so the scan refuses and nothing is truncated."""
        path = tmp_path / "mid.wal"
        blob, starts = self._fifteen_records(path)
        damaged = bytearray(blob)
        damaged[starts[2] + 100] ^= 0x01  # inside record 3's payload
        path.write_bytes(damaged)
        message = rf"{re.escape(str(path))}: damaged record at byte {starts[2]} after 400 points"
        with pytest.raises(WalError, match=message):
            read_wal(str(path))
        with pytest.raises(WalError, match=message):
            recover_engine(ConventionalEngine, str(path), config=LsmConfig(64, 32))
        assert path.read_bytes() == damaged

    def test_a_bad_last_frame_is_still_a_torn_tail(self, tmp_path):
        path = tmp_path / "last.wal"
        blob, starts = self._fifteen_records(path)
        damaged = bytearray(blob)
        damaged[starts[14] + 100] ^= 0x01
        path.write_bytes(damaged)
        report = recover_engine(ConventionalEngine, str(path), config=LsmConfig(64, 32))
        assert report.wal_torn and report.durable_points == 2800
        assert path.read_bytes() == blob[: starts[14]]


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
    """Recovery through a named constructor takes a checkpoint of every
    name that constructor's engines record (``recordable_labels``), and
    no other; ``LsmEngine.restore`` takes any name a row records."""

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

    @staticmethod
    def _recover(cls, path):
        """``cls``'s engine from the checkpoint at ``path`` alone (its WAL
        does not exist, so nothing is replayed)."""
        return recover_engine(cls, f"{path}.absent.wal", checkpoint_path=path).engine

    def test_leveled_engine_restores_both_named_constructors(self, leveled):
        """Either leveled named constructor restores both: the split is
        live state, so each one's engines may record either name."""
        for cls in (ConventionalEngine, SeparationEngine):
            for engine, path in leveled:
                restored = self._recover(cls, path)
                assert restored.checkpoint_label == engine.checkpoint_label
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
        restored = self._recover(ConventionalEngine, path)
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
            (ConventionalEngine, tiered),
            (AdaptiveEngine, conventional),
            (MultiLevelEngine, tiered),
            (TieredEngine, separation),
        ):
            with pytest.raises(CheckpointError, match=f"not {cls.__name__}"):
                self._recover(cls, path)
        assert LsmEngine.restore(tiered).row.engine == "TieredEngine"
        assert self._recover(compose_engine, tiered).row.engine == "TieredEngine"
        meta, arrays = read_checkpoint(tiered)
        meta["engine"] = "LeveledEngine"  # a name no row records
        write_checkpoint(tiered, meta, arrays)
        with pytest.raises(CheckpointError, match="unknown engine class"):
            LsmEngine.restore(tiered)
        for cls in (ConventionalEngine, TieredEngine):
            with pytest.raises(CheckpointError, match="unknown engine class"):
                self._recover(cls, tiered)


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
        report = recover_engine(
            AdaptiveEngine,
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

    def test_a_zero_span_stream_is_ingested_whole_and_recovers(self, tmp_path):
        """5000 points generated at one instant leave Algorithm 1 no
        interval to estimate.  Each check skips the retune, as
        ``db.retune`` skips such a series; the batch is not failed after
        it was logged, and its WAL recovers."""
        wal_path = str(tmp_path / "a.wal")
        sink = RingBufferSink()
        engine = AdaptiveEngine(
            LsmConfig(64, 32, wal_path=wal_path), check_interval=512,
            telemetry=Telemetry(sinks=[sink]),
        )
        tg = np.full(5000, 1000.0)
        engine.ingest(tg, tg + np.arange(5000.0))
        assert engine.ingested_points == 5000
        assert (engine.current_policy, engine.decisions) == ("pi_c", [])
        skipped = [e for e in sink.events if e["type"] == "adaptive.retune_skipped"]
        assert [e["arrival_index"] for e in skipped] == [4096, 4608]
        assert all("zero generation-time span" in e["reason"] for e in skipped)
        engine.wal.close()
        report = recover_engine(
            AdaptiveEngine, wal_path, config=LsmConfig(64, 32),
            engine_kwargs={"check_interval": 512},
        )
        assert report.durable_points == 5000
        _assert_same_state(engine, report.engine)

    def test_adaptive_wal_without_ta_rejected(self, tmp_path):
        wal_path = str(tmp_path / "plain.wal")
        wal = WriteAheadLog(wal_path)
        wal.append(np.array([1.0, 2.0]), start_id=0)
        wal.close()
        with pytest.raises(RecoveryError):
            recover_engine(
                AdaptiveEngine, wal_path, checkpoint_path=None, config=LsmConfig(64, 32)
            )

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
        included, and a second recovery of the same log lands on the
        same switches and write counters."""
        wal_path = str(tmp_path / "a.wal")
        dataset = TABLE_II["M8"].build(n_points=6000, seed=3)
        engine = AdaptiveEngine(
            LsmConfig(64, 32, wal_path=wal_path), check_interval=64
        )
        for lo in range(0, 6000, 400):
            engine.ingest(dataset.tg[lo : lo + 400], dataset.ta[lo : lo + 400])
        engine.wal.close()
        assert engine.switches, "the stream must switch policy at least once"
        kwargs = dict(config=LsmConfig(64, 32), engine_kwargs={"check_interval": 64})
        generic = recover_engine(AdaptiveEngine, wal_path, **kwargs)
        again = recover_engine(AdaptiveEngine, wal_path, checkpoint_path=None, **kwargs)
        assert generic.verified and generic.durable_points == 6000
        assert not generic.checkpoint_used
        assert generic.engine.switches == again.engine.switches
        np.testing.assert_array_equal(
            generic.engine.stats.write_counts, again.engine.stats.write_counts
        )
        _assert_same_state(engine, generic.engine)


class TestControlFrames:
    """A re-split is a control frame in its engine's WAL: replayed at the
    arrival it was made at, and outside input when it is read back."""

    def _log(self, tmp_path, *split, start_id=100):
        wal_path = str(tmp_path / "c.wal")
        wal = WriteAheadLog(wal_path)
        wal.append(np.arange(100.0), start_id=0)
        wal.append_split(start_id, *split)
        wal.append(np.arange(100.0, 150.0), start_id=100)
        wal.close()
        return wal_path

    def test_a_resize_replays_where_it_was_made(self, tmp_path):
        wal_path = str(tmp_path / "live.wal")
        live = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        dataset = _dataset(600, seed=8)
        live.ingest(dataset.tg[:300])
        assert live.resplit(20, 48)
        assert not live.resplit(20, 48)  # nothing changes, nothing logged
        live.ingest(dataset.tg[300:])
        live.wal.close()
        records = read_wal(wal_path).records
        assert [(r.start_id, r.split) for r in records if r.split] == [(300, (20, 48))]
        recovered = recover_engine(ConventionalEngine, wal_path, config=LsmConfig(64, 32)).engine
        assert recovered.config.seq_capacity == 20 and recovered.config.memory_budget == 48
        _assert_same_state(live, recovered)

    def test_frames_at_the_checkpoint_cursor_replay_as_no_ops(self, tmp_path):
        """Two re-splits, then a checkpoint, at one arrival index: both
        frames are at the restored cursor and replay, and the first
        re-split drained the MemTables the checkpoint holds."""
        wal_path, ckpt_path = str(tmp_path / "e.wal"), str(tmp_path / "e.ckpt")
        live = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        dataset = _dataset(900, seed=9)
        live.ingest(dataset.tg[:400])
        assert live.resplit(20) and live.resplit(None, 48)
        live.save_checkpoint(ckpt_path)
        live.ingest(dataset.tg[400:])
        live.wal.close()
        report = recover_engine(
            ConventionalEngine, wal_path, checkpoint_path=ckpt_path, config=LsmConfig(64, 32)
        )
        assert report.checkpoint_used and report.replayed_points == 500
        assert report.engine.config == replace(live.config, wal_path=None)
        live.flush_all()
        report.engine.flush_all()
        _assert_same_state(live, report.engine)

    @pytest.mark.parametrize(
        "split",
        [(64, 64), (80, 64), (-3, 64), (None, 1), (8, -64)],
        ids=["seq=budget", "seq>budget", "negative", "budget<2", "negative-budget"],
    )
    def test_a_split_the_configuration_rejects_is_a_recovery_error(self, tmp_path, split):
        wal_path = self._log(tmp_path, *split)
        offset = read_wal(wal_path).records[1].offset
        assert offset == len(WAL_MAGIC) + 8 + 13 + 800
        with pytest.raises(RecoveryError, match=re.escape(f"{wal_path}@{offset}: control frame")):
            recover_engine(ConventionalEngine, wal_path, config=LsmConfig(64, 32))
        assert len(read_wal(wal_path).records) == 3  # nothing was truncated

    def test_a_control_frame_carries_no_points(self, tmp_path):
        wal_path = self._log(tmp_path, 16, 64)
        blob = bytearray(Path(wal_path).read_bytes())
        offset = read_wal(wal_path).records[1].offset
        payload = bytes(blob[offset + 8 : offset + 8 + 29])
        payload = payload[:9] + struct.pack("<I", 2) + payload[13:]
        blob[offset + 4 : offset + 8] = struct.pack("<I", zlib.crc32(payload))
        blob[offset + 8 : offset + 8 + 29] = payload
        Path(wal_path).write_bytes(bytes(blob))
        with pytest.raises(WalError, match="a control frame with 2 points"):
            read_wal(wal_path)

    def test_a_frame_ahead_of_the_log_is_a_recovery_error(self, tmp_path):
        wal_path = self._log(tmp_path, 16, 64, start_id=120)
        with pytest.raises(RecoveryError, match="engine is at id 100"):
            recover_engine(ConventionalEngine, wal_path, config=LsmConfig(64, 32))

    def test_an_engine_that_cannot_resplit_refuses_one(self, tmp_path):
        wal_path = self._log(tmp_path, 16, 64)
        with pytest.raises(RecoveryError, match="cannot re-split"):
            recover_engine(TieredEngine, wal_path, config=LsmConfig(64, 32))


class TestTailOnlyRecovery:
    """Recovery restores the checkpoint first and decodes only the WAL
    records it does not cover; every covered frame is still checked."""

    BATCH, BATCHES, CHECKPOINT_AFTER = 250, 10, 4

    @pytest.fixture
    def crashed(self, tmp_path):
        """A ``pi_s`` engine checkpointed after four of ten batches, then
        abandoned: ``(live engine, WAL path, checkpoint path)``."""
        wal_path, ckpt_path = str(tmp_path / "e.wal"), str(tmp_path / "e.ckpt")
        dataset = _dataset(self.BATCH * self.BATCHES, seed=21)
        engine = SeparationEngine(LsmConfig(64, 32, seq_capacity=48, wal_path=wal_path))
        for index in range(self.BATCHES):
            engine.ingest(dataset.tg[index * self.BATCH : (index + 1) * self.BATCH])
            if index + 1 == self.CHECKPOINT_AFTER:
                engine.save_checkpoint(ckpt_path)
        engine.wal.close()
        return engine, wal_path, ckpt_path

    def _recover(self, wal_path, ckpt_path):
        return recover_engine(
            SeparationEngine, wal_path, checkpoint_path=ckpt_path,
            config=LsmConfig(64, 32, seq_capacity=48),
        )

    def test_only_records_past_the_checkpoint_are_decoded(self, crashed, monkeypatch):
        engine, wal_path, ckpt_path = crashed
        decoded = []
        real = wal_module._decode_payload

        def spy(payload, kind, start_id, count):
            decoded.append(start_id)
            return real(payload, kind, start_id, count)

        monkeypatch.setattr(wal_module, "_decode_payload", spy)
        report = self._recover(wal_path, ckpt_path)
        covered = self.CHECKPOINT_AFTER * self.BATCH
        assert decoded == list(range(covered, self.BATCH * self.BATCHES, self.BATCH))
        assert report.wal_records == self.BATCHES
        assert report.replayed_records == self.BATCHES - self.CHECKPOINT_AFTER
        # Recovered accounting equals the engine that never crashed.
        np.testing.assert_array_equal(
            report.engine.stats.write_counts, engine.stats.write_counts
        )
        assert report.engine.stats.disk_writes == engine.stats.disk_writes
        _assert_same_state(engine, report.engine)
        # Without a covering checkpoint every record is decoded, as before.
        assert len(read_wal(wal_path).records) == self.BATCHES

    def test_a_damaged_covered_frame_is_still_an_error(self, crashed):
        _, wal_path, ckpt_path = crashed
        blob = Path(wal_path).read_bytes()
        frame = (len(blob) - len(WAL_MAGIC)) // self.BATCHES
        second = len(WAL_MAGIC) + frame  # covered by the checkpoint
        damaged = bytearray(blob)
        damaged[second + 100] ^= 0x01
        Path(wal_path).write_bytes(damaged)
        with pytest.raises(WalError, match=f"damaged record at byte {second} "):
            self._recover(wal_path, ckpt_path)
        assert Path(wal_path).read_bytes() == damaged

    @pytest.mark.parametrize("damage", ["negative", "too_long", "too_short"])
    def test_an_impossible_counter_array_is_discarded(self, crashed, damage):
        """A CRC-valid checkpoint whose counters cannot be right — a
        negative counter (the sum still reconciling), or not one counter
        per id up to ``max_id`` — is corrupt: recovery replays the WAL."""
        engine, wal_path, ckpt_path = crashed
        meta, arrays = read_checkpoint(ckpt_path)
        counts = arrays["stats.counts"].copy()
        if damage == "negative":
            counts[6] += counts[5] + 1
            counts[5] = -1
        elif damage == "too_long":
            counts = np.append(counts, 0)
        else:
            counts = counts[:-1]
        arrays["stats.counts"] = counts
        write_checkpoint(ckpt_path, meta, arrays)
        report = self._recover(wal_path, ckpt_path)
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert "stats.counts" in report.notes[0]
        assert report.replayed_points == self.BATCH * self.BATCHES
        np.testing.assert_array_equal(
            report.engine.stats.write_counts, engine.stats.write_counts
        )


class TestImpossibleMemTables:
    """A CRC-valid checkpoint whose MemTable arrays the table cannot have
    held — ids one short, more points than its capacity, or 2-d arrays —
    is corrupt: recovery replays the WAL, through the database's entry
    and through ``recover_engine``, to the live engine's state."""

    DAMAGE = {
        "misaligned": lambda tg, ids, capacity: (tg, ids[:-1]),
        "overfull": lambda tg, ids, capacity: (
            np.resize(tg, capacity + 1), np.resize(ids, capacity + 1)
        ),
        "2d": lambda tg, ids, capacity: (tg.reshape(1, -1), ids.reshape(1, -1)),
    }
    #: The damaged table and its capacity, per policy (``pi_s`` splits
    #: the 64-point budget 24 / 40).
    TABLE = {"pi_c": ("mem.c0", 64), "pi_s": ("mem.nonseq", 40)}

    @pytest.fixture
    def live(self, tmp_path, request):
        return _half_checkpointed(str(tmp_path / "state"), request.param)

    @pytest.mark.parametrize("live", ["pi_c", "pi_s"], indirect=True)
    @pytest.mark.parametrize("entry", ["database", "recover_engine"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_an_impossible_memtable_is_discarded(self, live, entry, damage):
        db, directory = live
        engine = db.series("s").engine
        ckpt_path = _checkpoint_path(directory)
        prefix, capacity = self.TABLE[engine.policy_name]
        meta, arrays = read_checkpoint(ckpt_path)
        assert 0 < arrays[f"{prefix}.tg"].size < capacity
        arrays[f"{prefix}.tg"], arrays[f"{prefix}.ids"] = self.DAMAGE[damage](
            arrays[f"{prefix}.tg"], arrays[f"{prefix}.ids"], capacity
        )
        write_checkpoint(ckpt_path, meta, arrays)
        _recovers_by_replay(db, directory, entry, prefix)


class TestImpossibleTables:
    """A CRC-valid checkpoint whose run is not one — a table whose points
    are out of order, or two tables that overlap — is corrupt: recovery
    replays the WAL instead of aborting on the run's own check."""

    @staticmethod
    def _unsorted(tg, sizes):
        tg[1], tg[2] = tg[2], tg[1]  # inside the first table

    @staticmethod
    def _overlapping(tg, sizes):
        edge = int(sizes[0])  # the first table's last point and the next's first
        tg[edge - 1], tg[edge] = tg[edge], tg[edge - 1]

    @pytest.mark.parametrize("entry", ["database", "recover_engine"])
    @pytest.mark.parametrize("damage", ["unsorted", "overlapping"])
    def test_a_run_out_of_order_is_discarded(self, tmp_path, entry, damage):
        db, directory = _half_checkpointed(str(tmp_path / "state"), "pi_c")
        ckpt_path = _checkpoint_path(directory)
        meta, arrays = read_checkpoint(ckpt_path)
        tg = arrays["run.tg"].copy()
        assert arrays["run.sizes"][0] > 2 and arrays["run.sizes"].size > 1
        getattr(self, f"_{damage}")(tg, arrays["run.sizes"])
        assert np.any(np.diff(tg) < 0)
        arrays["run.tg"] = tg
        write_checkpoint(ckpt_path, meta, arrays)
        _recovers_by_replay(db, directory, entry, "run")

    def test_an_overlapping_tiered_run_is_discarded(self, tmp_path):
        """A tiered level keeps its runs as table lists; each must still
        be one run when it is restored."""
        wal_path, ckpt_path = str(tmp_path / "t.wal"), str(tmp_path / "t.ckpt")
        config = LsmConfig(memory_budget=64, sstable_size=32, wal_path=wal_path)
        engine = TieredEngine(config)
        dataset = _dataset(3000, seed=3)
        engine.ingest(dataset.tg, dataset.ta)
        engine.save_checkpoint(ckpt_path)
        meta, arrays = read_checkpoint(ckpt_path)
        tg = arrays["level0.run0.tg"].copy()
        assert arrays["level0.run0.sizes"].size > 1
        self._overlapping(tg, arrays["level0.run0.sizes"])
        arrays["level0.run0.tg"] = tg
        write_checkpoint(ckpt_path, meta, arrays)
        report = recover_engine(
            TieredEngine, wal_path, checkpoint_path=ckpt_path,
            config=replace(config, wal_path=None),
        )
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert "level0.run0" in report.notes[0]
        _assert_same_state(engine, report.engine)


def _half_checkpointed(directory, policy):
    """A one-series database checkpointed half way through its 3000
    points, then written on and synced: ``(database, its directory)``."""
    db = TimeSeriesDatabase(
        memory_budget_per_series=64, sstable_size=32, durability_dir=directory
    )
    db.create_series("s", seq_capacity=24 if policy == "pi_s" else None)
    dataset = _dataset(3000, seed=31)
    for start in range(0, 3000, 100):
        if start == 1500:
            db.checkpoint_all()
        db.write("s", dataset.tg[start : start + 100], dataset.ta[start : start + 100])
    db.sync()
    return db, directory


def _checkpoint_path(directory):
    manifest = json.loads(Path(directory, "manifest.json").read_text())
    return os.path.join(directory, manifest["series"]["s"]["checkpoint"])


def _recovers_by_replay(db, directory, entry, prefix):
    """Recover series ``s`` through ``entry`` (the database or
    ``recover_engine``): its damaged checkpoint is discarded, naming
    ``prefix``, and the WAL replays to the live engine's state."""
    engine = db.series("s").engine
    sink = RingBufferSink()
    if entry == "database":
        revived = TimeSeriesDatabase.recover(directory, telemetry=Telemetry(sinks=[sink]))
        recovered = revived.series("s").engine
    else:
        manifest = json.loads(Path(directory, "manifest.json").read_text())
        report = recover_engine(
            engine_constructor(engine.checkpoint_label),
            os.path.join(directory, manifest["series"]["s"]["wal"]),
            checkpoint_path=_checkpoint_path(directory),
            config=replace(engine.config, wal_path=None),
            telemetry=Telemetry(sinks=[sink]),
        )
        assert prefix in report.notes[0]
        recovered = report.engine
    (event,) = [e for e in sink.events if e["type"] == "recovery"]
    assert event["checkpoint_corrupt"] and not event["checkpoint_used"]
    assert event["replayed_points"] == 3000

    def profile(engine):
        snapshot = engine.snapshot()
        return (
            engine.stats.write_counts.tolist(),
            [(len(t), t.block_size) for t in snapshot.tables],
            [(view.name, view.tg.tolist(), view.ids.tolist()) for view in snapshot.memtables],
        )

    assert profile(recovered) == profile(engine)


def _decisions(engine):
    """What an engine's decision records say, arrays as lists."""
    return [
        (index, d.policy, d.seq_capacity, d.r_c, d.r_s_star, d.sweep_r_s.tolist(), to)
        for index, d, to in engine.decisions
    ]


def _tuner(meta):
    return meta["state"]["tuner"]


def _analyzer_meta(meta):
    return _tuner(meta)["analyzer"]


class TestTunerBlockChecks:
    """A CRC-valid checkpoint whose tuner block the engine cannot have
    written is corrupt: recovery replays the WAL instead of hanging,
    raising an untyped error or restoring an engine that decides from
    the wrong window."""

    DAMAGE = {
        "negative check_interval": lambda m, a: _tuner(m).update(check_interval=-1),
        "zero check_interval": lambda m, a: _tuner(m).update(check_interval=0),
        "fractional check_interval": lambda m, a: _tuner(m).update(check_interval=512.0),
        "negative seen": lambda m, a: _analyzer_meta(m).update(seen=-5),
        "window smaller than its ring": lambda m, a: _analyzer_meta(m).update(window=10),
        "non-finite window setting": lambda m, a: _analyzer_meta(m).update(window=float("nan")),
        "missing drift": lambda m, a: _analyzer_meta(m).pop("drift"),
        "one-element tg_span": lambda m, a: a.update({"analyzer.tg_span": np.array([0.0])}),
        "non-finite window": lambda m, a: a["analyzer.window"].__setitem__(3, np.nan),
        "decision without fields": lambda m, a: _tuner(m).update(decisions=[[1]]),
        "analyzer budget of 1": lambda m, a: _analyzer_meta(m).update(memory_budget=1),
        "analyzer budget not the engine's": lambda m, a: _analyzer_meta(m).update(
            memory_budget=96
        ),
    }

    @pytest.fixture(scope="class")
    def crashed(self, tmp_path_factory):
        """An adaptive engine checkpointed at 3 000 of 6 000 points:
        ``(live engine, WAL bytes, checkpoint meta, checkpoint arrays)``."""
        tmp = tmp_path_factory.mktemp("tuner")
        wal_path, ckpt_path = str(tmp / "a.wal"), str(tmp / "a.ckpt")
        dataset = _dataset(6000, seed=7)
        engine = AdaptiveEngine(LsmConfig(64, 32, wal_path=wal_path), check_interval=512)
        for lo in range(0, 6000, 500):
            engine.ingest(dataset.tg[lo : lo + 500], dataset.ta[lo : lo + 500])
            if lo + 500 == 3000:
                engine.save_checkpoint(ckpt_path)
        engine.wal.close()
        meta, arrays = read_checkpoint(ckpt_path)
        return engine, Path(wal_path).read_bytes(), meta, arrays

    def _recover(self, crashed, tmp_path, damage=None):
        engine, wal_bytes, meta, arrays = crashed
        meta, arrays = json.loads(json.dumps(meta)), {k: v.copy() for k, v in arrays.items()}
        if damage is not None:
            damage(meta, arrays)
        wal_path, ckpt_path = tmp_path / "a.wal", str(tmp_path / "a.ckpt")
        wal_path.write_bytes(wal_bytes)
        write_checkpoint(ckpt_path, meta, arrays)
        return recover_engine(
            AdaptiveEngine, str(wal_path), checkpoint_path=ckpt_path,
            config=LsmConfig(64, 32), engine_kwargs={"check_interval": 512},
        )

    def test_an_intact_block_restores(self, crashed, tmp_path):
        report = self._recover(crashed, tmp_path)
        assert report.checkpoint_used and report.replayed_points == 3000
        assert crashed[0].switches, "the tail must re-split the engine"
        assert report.engine.switches == crashed[0].switches
        _assert_same_state(crashed[0], report.engine)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_an_impossible_block_is_replayed_from_the_wal(self, crashed, tmp_path, damage):
        report = self._recover(crashed, tmp_path, self.DAMAGE[damage])
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert report.replayed_points == 6000
        assert report.engine.switches == crashed[0].switches
        _assert_same_state(crashed[0], report.engine)


def test_a_tuner_block_that_resplits_a_fixed_split_engine_is_replayed(tmp_path):
    """Only an engine whose split is live state can have written a tuner
    block on another split; on a tiered engine it is corruption, and
    recovery replays the WAL."""
    dataset = _dataset(3000, seed=5)
    tuned = AdaptiveEngine(LsmConfig(64, 32), check_interval=512)
    tuned.ingest(dataset.tg, dataset.ta)
    tuned.save_checkpoint(str(tmp_path / "a.ckpt"))
    tuned_meta, tuned_arrays = read_checkpoint(str(tmp_path / "a.ckpt"))
    wal_path, ckpt_path = str(tmp_path / "t.wal"), str(tmp_path / "t.ckpt")
    engine = TieredEngine(LsmConfig(64, 32, wal_path=wal_path))
    engine.ingest(dataset.tg[:1000])
    engine.save_checkpoint(ckpt_path)
    engine.wal.close()
    meta, arrays = read_checkpoint(ckpt_path)
    meta["state"]["tuner"] = dict(tuned_meta["state"]["tuner"], seq_capacity=20)
    arrays.update({k: v for k, v in tuned_arrays.items() if k.startswith("analyzer")})
    write_checkpoint(ckpt_path, meta, arrays)
    report = recover_engine(TieredEngine, wal_path, ckpt_path, config=LsmConfig(64, 32))
    assert report.checkpoint_corrupt and report.replayed_points == 1000
    _assert_same_state(engine, report.engine)


class TestHeaderChecks:
    """A CRC-valid checkpoint whose header the engine cannot have written
    is corrupt too: recovery replays the WAL instead of skipping its
    tail or escaping with an untyped error."""

    DAMAGE = {
        "next_id past the points": lambda m: m.update(next_id=10**9),
        "next_id not a number": lambda m: m.update(next_id="x"),
        "next_id fractional": lambda m: m.update(next_id=2000.5),
        "arrival_cursor past next_id": lambda m: m.update(arrival_cursor=2001),
        "arrival_cursor negative": lambda m: m.update(arrival_cursor=-1),
        "arrival_cursor fractional": lambda m: m.update(arrival_cursor=1.5),
        "unknown kwargs key": lambda m: m.update(kwargs={"bogus": 1}),
        "kwargs a list": lambda m: m.update(kwargs=[1]),
        "missing stats": lambda m: m.pop("stats"),
        "missing state": lambda m: m.pop("state"),
        "budget of 1": lambda m: m["config"].update(memory_budget=1),
    }

    @pytest.fixture(scope="class")
    def crashed(self, tmp_path_factory):
        """A ``pi_c`` engine checkpointed at 2 000 of 3 000 points:
        ``(live engine, WAL bytes, checkpoint meta, checkpoint arrays)``."""
        tmp = tmp_path_factory.mktemp("header")
        wal_path, ckpt_path = str(tmp / "c.wal"), str(tmp / "c.ckpt")
        dataset = _dataset(3000, seed=11)
        engine = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        engine.ingest(dataset.tg[:2000])
        engine.save_checkpoint(ckpt_path)
        engine.ingest(dataset.tg[2000:])
        engine.wal.close()
        meta, arrays = read_checkpoint(ckpt_path)
        return engine, Path(wal_path).read_bytes(), meta, arrays

    def _recover(self, crashed, tmp_path, damage=None):
        _, wal_bytes, meta, arrays = crashed
        meta = json.loads(json.dumps(meta))
        if damage is not None:
            damage(meta)
        wal_path, ckpt_path = tmp_path / "c.wal", str(tmp_path / "c.ckpt")
        wal_path.write_bytes(wal_bytes)
        write_checkpoint(ckpt_path, meta, arrays)
        return recover_engine(
            ConventionalEngine, str(wal_path), checkpoint_path=ckpt_path,
            config=LsmConfig(64, 32),
        )

    def test_an_intact_header_restores(self, crashed, tmp_path):
        report = self._recover(crashed, tmp_path)
        assert report.checkpoint_used and report.replayed_points == 1000
        _assert_same_state(crashed[0], report.engine)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_an_impossible_header_is_replayed_from_the_wal(self, crashed, tmp_path, damage):
        report = self._recover(crashed, tmp_path, self.DAMAGE[damage])
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert report.replayed_points == 3000
        _assert_same_state(crashed[0], report.engine)

    def test_verify_counts_the_id_cursor(self):
        """An id cursor that is not the count of points written is a
        conservation failure, whatever is visible."""
        engine = ConventionalEngine(LsmConfig(64, 32))
        engine.ingest(_dataset(500, seed=1).tg)
        engine._next_id += 1000
        with pytest.raises(InvariantViolation, match="id cursor"):
            engine.verify()



class TestRecordedParameterChecks:
    """A CRC-valid checkpoint whose recorded compaction parameter is of
    the wrong kind builds no engine: the row's constructor refuses it
    with an ``EngineError``, which restore reports as a corrupt header,
    so recovery replays the WAL instead of escaping with it."""

    DAMAGE = {
        "multilevel size_ratio a string": (MultiLevelEngine, "size_ratio", "4"),
        "multilevel max_levels fractional": (MultiLevelEngine, "max_levels", 4.5),
        "tiered tier_fanout a string": (TieredEngine, "tier_fanout", "3"),
        "tiered max_levels a bool": (TieredEngine, "max_levels", True),
        "iotdb l1_file_limit a string": (IoTDBStyleEngine, "l1_file_limit", "4"),
        "iotdb disk a list": (IoTDBStyleEngine, "disk", [8.0]),
        "iotdb policy no row has": (IoTDBStyleEngine, "policy", "tiered"),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_a_parameter_of_the_wrong_kind_is_replayed_from_the_wal(self, tmp_path, damage):
        constructor, key, value = self.DAMAGE[damage]
        wal_path, ckpt_path = str(tmp_path / "p.wal"), str(tmp_path / "p.ckpt")
        dataset = _dataset(3000, seed=13)
        engine = constructor(LsmConfig(64, 32, wal_path=wal_path))
        engine.ingest(dataset.tg[:2000])
        engine.save_checkpoint(ckpt_path)
        engine.ingest(dataset.tg[2000:])
        engine.wal.close()
        meta, arrays = read_checkpoint(ckpt_path)
        # No checkpoint records the disk model any more; older ones did.
        assert (key in meta["kwargs"]) == (key != "disk")
        meta["kwargs"][key] = value
        write_checkpoint(ckpt_path, meta, arrays)
        with pytest.raises(CheckpointCorruptError, match=re.escape(ckpt_path) + f": EngineError.*{key}"):
            LsmEngine.restore(ckpt_path)
        report = recover_engine(
            constructor, wal_path, checkpoint_path=ckpt_path, config=LsmConfig(64, 32)
        )
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert report.replayed_points == 3000
        _assert_same_state(engine, report.engine)

    # What older checkpoints recorded and no constructor takes now: kept
    # when it is what the engine has, corrupt when it is not.
    RECORDED = {
        "iotdb disk": (
            IoTDBStyleEngine, {"l1_file_limit": 4}, ("disk",),
            asdict(DEFAULT_DISK_MODEL), {**asdict(DEFAULT_DISK_MODEL), "seek_ms": 10.0},
        ),
        "composed iotdb disk": (
            compose_engine, {"placement": "split", "compaction": "iotdb"},
            ("compaction_kwargs", "disk"),
            asdict(DEFAULT_DISK_MODEL), {**asdict(DEFAULT_DISK_MODEL), "write_point_ms": 1.0},
        ),
        "composed flush": (
            compose_engine, {"placement": "split", "compaction": "tiered"}, ("flush",),
            "separation", "independent",
        ),
        "composed leveled flush": (
            compose_engine, {}, ("flush",), "merge", "append",
        ),
    }

    @pytest.mark.parametrize("case", sorted(RECORDED))
    def test_a_recorded_constant_is_dropped_or_corrupt(self, tmp_path, case):
        constructor, kwargs, path, kept, other = self.RECORDED[case]
        wal_path, ckpt_path = str(tmp_path / "p.wal"), str(tmp_path / "p.ckpt")
        dataset = _dataset(3000, seed=13)
        engine = constructor(config=LsmConfig(64, 32, wal_path=wal_path), **kwargs)
        engine.ingest(dataset.tg[:2000])
        engine.save_checkpoint(ckpt_path)
        engine.ingest(dataset.tg[2000:])
        engine.wal.close()
        meta, arrays = read_checkpoint(ckpt_path)
        assert f'"{path[-1]}"' not in json.dumps(meta["kwargs"])
        for value in (kept, other):
            write_checkpoint(ckpt_path, _with_leaf(meta, ("kwargs", *path), value), arrays)
            if value is kept:
                restored = LsmEngine.restore(ckpt_path)
                restored.verify()
                assert restored.describe_policies() == engine.describe_policies()
                assert restored.ingested_points == 2000
                continue
            with pytest.raises(
                CheckpointCorruptError,
                match=re.escape(ckpt_path) + f": EngineError.*recorded {path[-1]}",
            ):
                LsmEngine.restore(ckpt_path)
            report = recover_engine(
                constructor, wal_path, checkpoint_path=ckpt_path,
                config=LsmConfig(64, 32), engine_kwargs=kwargs,
            )
            assert report.checkpoint_corrupt and report.replayed_points == 3000
            _assert_same_state(engine, report.engine)


def _leaves(node, path=()):
    """Every leaf of a JSON value, as its key path (an empty object or
    list is a leaf too)."""
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, (*path, key))
    else:
        yield path


def _with_leaf(meta, path, value):
    """A copy of ``meta`` whose leaf at ``path`` is ``value``."""
    meta = json.loads(json.dumps(meta))
    node = meta
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return meta


def _checkpointed_row(directory, row):
    """Row ``row`` in its small shape (64 / 64; an analyzer on a tuner
    row) fed 2 000 points of an LN(3, 1.2) stream, checkpointed, then
    1 000 more as the WAL tail: ``(constructor, engine_kwargs, WAL path,
    checkpoint meta, arrays, the tail, the uncrashed engine)``;
    ``engine_kwargs()`` holds a fresh analyzer each call."""
    constructor = engine_constructor(row.engine)

    def engine_kwargs():
        analyzer = {"analyzer": DelayAnalyzer(64, sstable_size=64)} if row.tuner else {}
        return {**row.selector, **row.small, **analyzer}

    wal_path, ckpt_path = str(directory / "e.wal"), str(directory / "e.ckpt")
    stream = generate_synthetic(3000, 10.0, LogNormalDelay(3.0, 1.2), seed=17)
    engine = constructor(LsmConfig(64, 64, wal_path=wal_path), **engine_kwargs())
    engine.ingest(stream.tg[:2000], stream.ta[:2000])
    engine.save_checkpoint(ckpt_path)
    tail = stream.tg[2000:], stream.ta[2000:]
    engine.ingest(*tail)
    engine.wal.close()
    meta, arrays = read_checkpoint(ckpt_path)
    return constructor, engine_kwargs, wal_path, meta, arrays, tail, engine


class TestEveryHeaderLeaf:
    """The checkpoint property: every keyed ``ENGINES`` row, every JSON
    header leaf of its checkpoint set to each hostile value, rewritten
    with a valid CRC.  Every restore ends one of three ways:

    - ``CheckpointCorruptError`` naming the file, after which
      ``recover_engine`` replays the whole WAL to the uncrashed twin;
    - ``CheckpointError``, only for an ``engine`` name no row has;
    - an engine that passes ``verify()`` and, after the same tail, has
      the twin's write counters and WA.

    No raw exception escapes, and no engine restores only to fail
    ``verify()`` once recovery has replayed into it."""

    HOSTILE = ("4", None, -1, 1.5, True, 10**6, [], {})
    #: ``config`` / ``kwargs`` leaves at 10**6, a value their constructor
    #: accepts: the file restores a working engine of another shape, so
    #: its counters after the tail are its own, not the twin's.
    OTHER_SHAPE = {
        "conventional": {"config/sstable_size"},
        "separation": {"config/sstable_size"},
        "adaptive": {"config/sstable_size"},
        "iotdb_conventional": {
            "config/memory_budget", "config/sstable_size", "kwargs/l1_file_limit",
        },
        "iotdb_separation": {
            "config/memory_budget", "config/sstable_size", "kwargs/l1_file_limit",
        },
        "multilevel": {"config/memory_budget", "config/sstable_size", "kwargs/size_ratio"},
        "tiered": {"config/memory_budget", "kwargs/tier_fanout"},
    }

    @pytest.mark.parametrize("key", [row.key for row in ENGINES if row.key is not None])
    def test_every_restore_is_corrupt_unknown_or_the_twin(self, tmp_path, key):
        (row,) = [row for row in ENGINES if row.key == key]
        constructor, engine_kwargs, wal_path, meta, arrays, tail, twin = _checkpointed_row(
            tmp_path, row
        )
        damaged, other_shapes = str(tmp_path / "damaged.ckpt"), set()
        for path in _leaves(meta):
            leaf = "/".join(map(str, path))
            for value in self.HOSTILE:
                case = f"{key}: {leaf} = {value!r}"
                write_checkpoint(damaged, _with_leaf(meta, path, value), arrays)
                try:
                    engine = LsmEngine.restore(damaged)
                except CheckpointCorruptError as exc:
                    assert str(exc).startswith(damaged), case
                    report = recover_engine(
                        constructor, wal_path, damaged, LsmConfig(64, 64),
                        engine_kwargs=engine_kwargs(),
                    )
                    assert report.checkpoint_corrupt and report.replayed_points == 3000, case
                    engine = report.engine
                except CheckpointError:
                    assert path == ("engine",) and engine_constructor(value) is None, case
                    continue
                else:
                    engine.verify()
                    engine.ingest(*tail)
                    if value == 10**6 and leaf in self.OTHER_SHAPE[key]:
                        other_shapes.add(leaf)
                        continue
                assert engine.stats.write_counts.tolist() == twin.stats.write_counts.tolist(), case
                assert engine.write_amplification == twin.write_amplification, case
        assert other_shapes == self.OTHER_SHAPE[key]


def test_a_meta_block_that_is_not_an_object_is_corrupt(tmp_path):
    """A CRC-valid file whose JSON meta is a list names no engine at all:
    corrupt, naming the file, not an ``AttributeError``."""
    path = str(tmp_path / "c.ckpt")
    engine = ConventionalEngine(LsmConfig(64, 32))
    engine.ingest(_dataset(500, seed=2).tg)
    engine.save_checkpoint(path)
    meta, arrays = read_checkpoint(path)
    write_checkpoint(path, [meta], arrays)
    with pytest.raises(CheckpointCorruptError, match=re.escape(path)):
        LsmEngine.restore(path)


class TestComponentChecks:
    """Values no exception reveals as wrong, each checked by the
    component that reads it: a write total that is not the counters'
    sum, a tiered level count that is not ``max_levels`` counts >= 0,
    and an IoTDB clock that is not a time.  Each such checkpoint is
    corrupt, naming the file, and recovery replays the WAL to the live
    engine's state."""

    DAMAGE = {
        "disk_writes one past the counters": (
            "conventional", lambda m: m["stats"].update(disk_writes=m["stats"]["disk_writes"] + 1)
        ),
        "disk_writes as text": ("multilevel", lambda m: m["stats"].update(disk_writes="4")),
        "tiered level count negative": (
            "tiered", lambda m: m["state"]["runs_per_level"].__setitem__(0, -1)
        ),
        "tiered level count a bool": (
            "tiered", lambda m: m["state"]["runs_per_level"].__setitem__(3, True)
        ),
        "tiered level missing": ("tiered", lambda m: m["state"]["runs_per_level"].pop()),
        "iotdb foreground clock negative": (
            "iotdb_separation", lambda m: m["state"].update(foreground_ms=-1.0)
        ),
        "iotdb background clock a bool": (
            "iotdb_conventional", lambda m: m["state"].update(background_ms=True)
        ),
        "iotdb foreground clock as text": (
            "iotdb_conventional", lambda m: m["state"].update(foreground_ms="4")
        ),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_a_value_only_its_reader_can_judge_is_replayed(self, tmp_path, damage):
        key, change = self.DAMAGE[damage]
        (row,) = [row for row in ENGINES if row.key == key]
        constructor, engine_kwargs, wal_path, meta, arrays, _, twin = _checkpointed_row(
            tmp_path, row
        )
        change(meta)
        damaged = str(tmp_path / "damaged.ckpt")
        write_checkpoint(damaged, meta, arrays)
        with pytest.raises(CheckpointCorruptError, match=re.escape(damaged)):
            LsmEngine.restore(damaged)
        report = recover_engine(
            constructor, wal_path, damaged, LsmConfig(64, 64), engine_kwargs=engine_kwargs()
        )
        assert report.checkpoint_corrupt and report.replayed_points == 3000
        _assert_same_state(twin, report.engine)


class TestByteDamage:
    """Seeded truncations and one-byte flips of a ``pi_c`` run's WAL, of
    its mid-run checkpoint and of the legacy checkpoints.

    Each ends one of two ways: a typed error naming the damaged file, or
    a recovery of a prefix that ends on a record boundary and passes the
    crash case's durable-prefix proof.  Which way is fixed by where the
    first damaged WAL frame says it ends: inside the file, with bytes
    after it, is damage inside the log (:class:`WalError`, the file left
    as it was); at or past the end of file is a torn tail (truncated to
    the records before it).  A damaged checkpoint is a
    :class:`CheckpointCorruptError`, after which recovery replays the
    whole WAL.
    """

    ROW = next(row for row in ENGINES if row.crash_key == "pi_c")
    RECORDS, POINTS, CHECKPOINT_AFTER = 15, 200, 8

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """``(dataset, WAL bytes, checkpoint bytes)`` of one intact run."""
        tmp = tmp_path_factory.mktemp("intact")
        dataset = _dataset(self.RECORDS * self.POINTS, seed=13)
        engine = self.ROW.build(LsmConfig(64, 32, wal_path=str(tmp / "run.wal")))
        for index in range(self.RECORDS):
            engine.ingest(dataset.tg[index * self.POINTS : (index + 1) * self.POINTS])
            if index + 1 == self.CHECKPOINT_AFTER:
                engine.save_checkpoint(str(tmp / "run.ckpt"))
        engine.wal.close()
        return dataset, (tmp / "run.wal").read_bytes(), (tmp / "run.ckpt").read_bytes()

    @staticmethod
    def _damage(blob: bytes, rng) -> bytes:
        """One seeded truncation or one-byte flip of ``blob``."""
        if rng.random() < 0.5:
            return blob[: int(rng.integers(0, len(blob)))]
        damaged = bytearray(blob)
        damaged[int(rng.integers(0, len(blob)))] ^= int(rng.integers(1, 256))
        return bytes(damaged)

    def _torn_at(self, intact: bytes, damaged: bytes) -> int | None:
        """The record index the scan must stop at as a torn tail, or
        ``None`` when the damage must be a :class:`WalError`."""
        first = next(
            (i for i, (a, b) in enumerate(zip(intact, damaged)) if a != b),
            len(damaged),
        )
        if first < len(WAL_MAGIC):
            # A file that is a prefix of the magic never got a record.
            return 0 if damaged == WAL_MAGIC[: len(damaged)] else None
        frame = (len(intact) - len(WAL_MAGIC)) // self.RECORDS
        record = (first - len(WAL_MAGIC)) // frame
        start = len(WAL_MAGIC) + record * frame
        if len(damaged) - start < 8:
            return record  # a partial frame header
        (payload_len,) = struct.unpack_from("<I", damaged, start)
        return record if start + 8 + payload_len >= len(damaged) else None

    def _recover(self, wal: Path, checkpoint: Path):
        return recover_engine(
            ConventionalEngine,
            str(wal),
            checkpoint_path=str(checkpoint),
            config=LsmConfig(64, 32),
        )

    def test_damaged_wal(self, run, tmp_path):
        dataset, wal_bytes, checkpoint_bytes = run
        rng = np.random.default_rng(2024)
        errors = torn = 0
        for copy in range(100):
            wal, checkpoint = tmp_path / f"{copy}.wal", tmp_path / f"{copy}.ckpt"
            damaged = self._damage(wal_bytes, rng)
            wal.write_bytes(damaged)
            checkpoint.write_bytes(checkpoint_bytes)
            record = self._torn_at(wal_bytes, damaged)
            if record is None:
                with pytest.raises(WalError, match=re.escape(str(wal))):
                    self._recover(wal, checkpoint)
                assert wal.read_bytes() == damaged
                errors += 1
                continue
            report = self._recover(wal, checkpoint)
            durable = max(record, self.CHECKPOINT_AFTER) * self.POINTS
            assert report.checkpoint_used and report.durable_points == durable
            assert _prefix_mismatch(self.ROW, LsmConfig(64, 32), dataset, report.engine) is None
            torn += 1
        assert errors > 10 and torn > 10  # both ways are exercised

    def test_damaged_checkpoint(self, run, tmp_path):
        dataset, wal_bytes, checkpoint_bytes = run
        rng = np.random.default_rng(2025)
        for copy in range(40):
            wal, checkpoint = tmp_path / f"{copy}.wal", tmp_path / f"{copy}.ckpt"
            wal.write_bytes(wal_bytes)
            checkpoint.write_bytes(self._damage(checkpoint_bytes, rng))
            with pytest.raises(CheckpointCorruptError, match=re.escape(str(checkpoint))):
                read_checkpoint(str(checkpoint))
            report = self._recover(wal, checkpoint)
            assert report.checkpoint_corrupt and not report.checkpoint_used
            assert report.replayed_points == report.durable_points == len(dataset)
            assert _prefix_mismatch(self.ROW, LsmConfig(64, 32), dataset, report.engine) is None

    @pytest.mark.parametrize("name", sorted(p.name for p in LEGACY_DIR.glob("*.ckpt")))
    def test_damaged_legacy_checkpoint(self, name, tmp_path):
        intact = (LEGACY_DIR / name).read_bytes()
        rng = np.random.default_rng(sum(name.encode()))
        for copy in range(9):
            path = tmp_path / f"{copy}-{name}"
            path.write_bytes(self._damage(intact, rng))
            with pytest.raises(CheckpointCorruptError, match=re.escape(str(path))):
                LsmEngine.restore(str(path))


class TestManifestsLandAtomically:
    """A manifest is fsynced before it replaces the old one, as a
    checkpoint is: a power cut must not leave an empty manifest naming
    fsynced checkpoints."""

    @pytest.fixture()
    def landed(self, monkeypatch):
        """``[(file name, was it fsynced)]`` per ``os.replace``."""
        fsync, replace = os.fsync, os.replace
        synced, landed = set(), []

        def spy_fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            fsync(fd)

        def spy_replace(src, dst):
            landed.append((os.path.basename(dst), os.stat(src).st_ino in synced))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        return landed

    def test_database_manifest(self, tmp_path, landed):
        db = TimeSeriesDatabase(64, 32, auto_tune=False, durability_dir=str(tmp_path))
        db.write("s", _dataset(500).tg)
        db.checkpoint_all()
        assert landed[-1][0] == "manifest.json"
        assert all(synced for _, synced in landed), landed

    def test_fleet_manifest(self, tmp_path, landed):
        fleet = ShardedDatabase(
            n_shards=2, memory_budget_per_series=64, sstable_size=32,
            auto_tune=False, durability_dir=str(tmp_path),
        )
        fleet.ingest_batch([(f"s{i}", _dataset(500, seed=i).tg) for i in range(3)])
        fleet.checkpoint_all()
        assert landed[-1][0] == FLEET_MANIFEST
        assert all(synced for _, synced in landed), landed


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

    def test_retune_after_the_last_checkpoint_survives_recovery(self, tmp_path):
        """After ``sync()``, what ``recover`` rebuilds has the live
        engine's per-point write counts — same points *and* same
        accounting, whatever was retuned when: the retune is a control
        frame in the WAL tail, re-applied at the arrival it was made at."""
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

    def test_disorder_in_the_wal_tail_survives_recovery(self, tmp_path):
        """A stream in order at ``checkpoint_all()`` and out of order only
        in its synced WAL tail is counted disordered live and recovered:
        ``report()`` reads the points, not a flag the manifest froze."""
        state_dir = str(tmp_path / "state")
        db = TimeSeriesDatabase(
            memory_budget_per_series=16, sstable_size=16, durability_dir=state_dir
        )
        tg = np.repeat(np.arange(50.0), 3)
        for start in range(0, tg.size, 7):
            db.write("s", tg[start : start + 7])
        db.checkpoint_all()
        assert db.report().disordered_series == 0
        db.write("s", tg[:5])
        db.sync()
        assert db.report().disordered_series == 1
        assert TimeSeriesDatabase.recover(state_dir).report().disordered_series == 1

    @pytest.mark.xfail(
        strict=True,
        reason="the manifest lists series as of the last checkpoint_all(): "
        "a series created after it has a synced WAL that recover never opens",
    )
    def test_a_series_created_after_the_last_checkpoint_survives_recovery(self, tmp_path):
        """A known gap (docs/durability.md, "What a crash still forgets"):
        ``new`` is created after the checkpoint and its 100 points are
        synced, yet ``recover`` returns only ``old``."""
        state_dir = str(tmp_path / "state")
        db = TimeSeriesDatabase(durability_dir=state_dir, auto_tune=False)
        db.write("old", np.arange(10.0))
        db.checkpoint_all()
        db.write("new", np.arange(100.0))
        db.sync()
        assert any(name.startswith("new-") for name in os.listdir(state_dir))
        revived = TimeSeriesDatabase.recover(state_dir)
        assert sorted(revived.series_names()) == ["new", "old"]
        assert revived.series("new").engine.ingested_points == 100

    RETIRED = {
        "dt": None,
        "use_empirical": True,
        "model_config": asdict(DEFAULT_MODEL_CONFIG),
        "variant": "consistent",
        "track_long_horizon": False,
    }

    @pytest.mark.parametrize("use_empirical", [True, False])
    def test_a_checkpoint_with_the_retired_analyzer_settings(self, tmp_path, use_empirical):
        """Checkpoints once recorded five more analyzer settings.  Held
        at their defaults they restore to the live database's decisions,
        switches and WA, and it keeps retuning like the live one; held
        at another value the checkpoint is corrupt and the WAL replays."""
        state_dir = str(tmp_path / "state")
        db = TimeSeriesDatabase(
            memory_budget_per_series=512, sstable_size=128, durability_dir=state_dir
        )
        wild = generate_synthetic(10_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=3)
        calm = generate_synthetic(6_000, dt=50, delay=LogNormalDelay(2.0, 0.5), seed=4)
        shift = wild.tg[-1] + 50.0
        db.write("s", wild.tg[:6000], wild.ta[:6000])
        assert db.retune()
        db.write("s", wild.tg[6000:8000], wild.ta[6000:8000])
        db.checkpoint_all()
        db.write("s", wild.tg[8000:], wild.ta[8000:])
        db.sync()
        retired = dict(self.RETIRED, use_empirical=use_empirical)
        for path in Path(state_dir).glob("*.ckpt"):
            meta, arrays = read_checkpoint(str(path))
            meta["state"]["tuner"]["analyzer"].update(retired)
            write_checkpoint(str(path), meta, arrays)

        sink = RingBufferSink()
        revived = TimeSeriesDatabase.recover(state_dir, telemetry=Telemetry(sinks=[sink]))
        (event,) = [e for e in sink.events if e["type"] == "recovery"]
        assert event["checkpoint_corrupt"] is not use_empirical
        assert event["checkpoint_used"] is use_empirical
        live, recovered = db.series("s").engine, revived.series("s").engine
        assert recovered.ingested_points == live.ingested_points
        if not use_empirical:
            return  # replayed under the manifest's split: "What a crash forgets"
        for step in ("recovered", "retuned"):
            assert recovered.stats.write_amplification == live.stats.write_amplification
            np.testing.assert_array_equal(
                recovered.stats.write_counts, live.stats.write_counts
            )
            assert _decisions(recovered) == _decisions(live), step
            assert recovered.switches == live.switches, step
            if step == "recovered":
                for database in (db, revived):
                    database.write("s", calm.tg + shift, calm.ta + shift)
                    assert database.retune() == {"s": "pi_c"}
        assert len(live.switches) == 2

    def test_recover_without_manifest_fails(self, tmp_path):
        with pytest.raises(RecoveryError):
            TimeSeriesDatabase.recover(str(tmp_path / "nothing"))
