"""Cold-tier conformance: the columnar layout must be invisible.

A columnar table is its block grid: the same sorted ``tg`` / ``ids``
columns as a row table, with a ``block_size`` that lays block ``k`` over
rows ``[k·bs, (k + 1)·bs)``, and a modelled ``BLOCK_STAT_BYTES`` charge
per block (no per-block object exists).  Its contract is that the
layout is a pure representation choice — switching a table (or a whole
engine) to the columnar format may change *cost accounting* (blocks
skipped, disk points read) but never *results* or *write accounting*.
This suite pins that contract across every first-class engine and the
two composed policy triples:

* range queries and aggregates are bitwise identical between a row
  engine and a twin converted with ``convert_cold`` after every
  lifecycle stage (mid-ingest, pre-flush, post-flush), and once the
  row engine is converted too,
* write amplification, per-point write counts and the compaction event
  log are unchanged by conversion,
* columnar tables survive checkpoint/restore (and crash recovery with
  an injected-fault corrupted checkpoint) with their format intact,
  including checkpoints that still record the retired ``cold_*``
  config keys,
* ``convert_cold`` checks its arguments before it touches a table,
* cold statistics memory is visible to the backpressure debt model,
* the executors' block spans, found by division on the grid, equal
  searches over zone maps this file reads off each table's column.
"""

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AdaptiveEngine,
    ConventionalEngine,
    IoTDBStyleEngine,
    LogNormalDelay,
    LsmConfig,
    LsmEngine,
    MultiLevelEngine,
    SeparationEngine,
    TieredEngine,
    TimeSeriesDatabase,
    execute_aggregate_query,
    execute_range_query,
    generate_synthetic,
    recover_engine,
)
from repro.errors import CheckpointCorruptError, EngineError
from repro.faults import FaultInjector, FaultPlan
from repro.lsm.backpressure import AdmissionController
from repro.lsm.base import Snapshot
from repro.lsm.checkpoint import (
    pack_tables,
    read_checkpoint,
    unpack_tables,
    write_checkpoint,
)
from repro.lsm.policies.compose import compose_engine
from repro.lsm.pruning import edge_slice
from repro.lsm.sstable import BLOCK_STAT_BYTES, POINT_BYTES, SSTable, build_sstables
from repro.obs import RingBufferSink, Telemetry
from repro.workloads import TABLE_II

#: Mirrors the conformance harness geometry (small tables, real
#: cascades); a cold twin is built on it too and differs only in layout.
CONFIG_ROW = LsmConfig(memory_budget=64, sstable_size=32)
#: Points per statistics block of every conversion below.
BLOCK = 8

N_POINTS = 4000
CHUNK = 937

WORKLOADS = ("M1", "M8")


def _factories(cfg):
    """Engine key -> zero-state factory over ``cfg`` (9 conformance keys)."""
    return {
        "conventional": lambda: ConventionalEngine(cfg),
        "separation": lambda: SeparationEngine(cfg),
        "iotdb_conventional": lambda: IoTDBStyleEngine(
            cfg, policy="conventional", l1_file_limit=4
        ),
        "iotdb_separation": lambda: IoTDBStyleEngine(
            cfg, policy="separation", l1_file_limit=4
        ),
        "multilevel": lambda: MultiLevelEngine(cfg, size_ratio=4, max_levels=4),
        "tiered": lambda: TieredEngine(cfg, tier_fanout=3, max_levels=4),
        "adaptive": lambda: AdaptiveEngine(cfg, check_interval=512),
        "composed_split_tiered": lambda: compose_engine(
            "split", compaction="tiered", config=cfg
        ),
        "composed_split_multilevel": lambda: compose_engine(
            "split", compaction="multilevel", config=cfg
        ),
    }


ENGINE_KEYS = sorted(_factories(CONFIG_ROW))


def _dataset(workload):
    return TABLE_II[workload].build(n_points=N_POINTS, seed=3)


def _ingest_cold(engine, dataset, lo, hi):
    """:func:`_ingest`, then every visible row table turned columnar."""
    _ingest(engine, dataset, lo, hi)
    engine.convert_cold(block_size=BLOCK)


def _ingest(engine, dataset, lo, hi):
    adaptive = engine.row.key == "adaptive"
    for pos in range(lo, hi, CHUNK):
        stop = min(pos + CHUNK, hi)
        if adaptive:
            engine.ingest(dataset.tg[pos:stop], dataset.ta[pos:stop])
        else:
            engine.ingest(dataset.tg[pos:stop])


def _windows(dataset):
    """Deterministic probe windows: covering, interior, narrow, empty."""
    lo, hi = float(dataset.tg.min()), float(dataset.tg.max())
    span = hi - lo
    return [
        (lo, hi),
        (lo + 0.2 * span, lo + 0.8 * span),
        (lo + 0.45 * span, lo + 0.55 * span),
        (hi + span, hi + 2 * span),
    ]


def _formats(engine):
    """Columnar or not, per visible table, in snapshot order."""
    return [table.is_columnar for table in engine.snapshot().tables]


def _assert_reads_identical(row_engine, cold_engine, dataset):
    """Every query observable the user can see is bitwise equal."""
    row_snap, cold_snap = row_engine.snapshot(), cold_engine.snapshot()
    for lo, hi in _windows(dataset):
        r = execute_range_query(row_snap, lo, hi, collect=True)
        c = execute_range_query(cold_snap, lo, hi, collect=True)
        assert r.result_points == c.result_points
        np.testing.assert_array_equal(r.rows, c.rows)
        np.testing.assert_array_equal(r.row_ids, c.row_ids)
        ra = execute_aggregate_query(row_snap, lo, hi)
        ca = execute_aggregate_query(cold_snap, lo, hi)
        assert ra.count == ca.count
        # Bitwise, not approximate: the cold tier's stored sums must be
        # the very floats the row path computes.
        assert ra.total == ca.total or (
            math.isnan(ra.total) and math.isnan(ca.total)
        )
        assert ra.minimum == ca.minimum or (
            math.isnan(ra.minimum) and math.isnan(ca.minimum)
        )
        assert ra.maximum == ca.maximum or (
            math.isnan(ra.maximum) and math.isnan(ca.maximum)
        )


def _assert_write_accounting_identical(row_engine, cold_engine):
    """Conversion changes layout only — never what or when we write."""
    rs, cs = row_engine.stats, cold_engine.stats
    assert rs.user_points == cs.user_points
    assert rs.disk_writes == cs.disk_writes
    assert rs.write_amplification == cs.write_amplification
    np.testing.assert_array_equal(rs.write_counts, cs.write_counts)
    assert [
        (e.kind, e.new_points, e.rewritten_points, e.tables_written)
        for e in rs.events
    ] == [
        (e.kind, e.new_points, e.rewritten_points, e.tables_written)
        for e in cs.events
    ]


# -- engine conformance --------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("key", ENGINE_KEYS)
class TestColdEngineConformance:
    def test_row_and_cold_twins_agree_at_every_stage(self, key, workload):
        dataset = _dataset(workload)
        row_engine = _factories(CONFIG_ROW)[key]()
        cold_engine = _factories(CONFIG_ROW)[key]()

        # Stage 1: mid-ingest (buffered + partially compacted state).
        _ingest(row_engine, dataset, 0, N_POINTS // 2)
        _ingest_cold(cold_engine, dataset, 0, N_POINTS // 2)
        _assert_reads_identical(row_engine, cold_engine, dataset)
        _assert_write_accounting_identical(row_engine, cold_engine)

        # Stage 2: pre-flush (full stream ingested, buffers still warm;
        # the landings since stage 1 merged columnar victims).
        _ingest(row_engine, dataset, N_POINTS // 2, N_POINTS)
        _ingest_cold(cold_engine, dataset, N_POINTS // 2, N_POINTS)
        _assert_reads_identical(row_engine, cold_engine, dataset)
        _assert_write_accounting_identical(row_engine, cold_engine)

        # Stage 3: post-flush (everything on disk).
        row_engine.flush_all()
        cold_engine.flush_all()
        cold_engine.convert_cold(block_size=BLOCK)
        _assert_reads_identical(row_engine, cold_engine, dataset)
        _assert_write_accounting_identical(row_engine, cold_engine)
        cold_tables = cold_engine.snapshot().tables
        assert cold_tables and all(t.is_columnar for t in cold_tables)
        assert all(not t.is_columnar for t in row_engine.snapshot().tables)

        # Stage 4: post-conversion (row twin converted in place catches
        # up to the cold twin; layout-only, so accounting still agrees).
        converted = row_engine.convert_cold(block_size=BLOCK)
        assert converted == len(row_engine.snapshot().tables)
        assert all(t.is_columnar for t in row_engine.snapshot().tables)
        _assert_reads_identical(row_engine, cold_engine, dataset)
        _assert_write_accounting_identical(row_engine, cold_engine)
        row_engine.verify()
        cold_engine.verify()


class TestColdConversion:
    def test_convert_cold_respects_age_and_counts_tables(self):
        dataset = _dataset("M1")
        engine = ConventionalEngine(CONFIG_ROW)
        _ingest(engine, dataset, 0, N_POINTS)
        engine.flush_all()
        tables = engine.snapshot().tables
        assert all(not t.is_columnar for t in tables)
        cutoff = tables[len(tables) // 2].max_tg
        converted = engine.convert_cold(max_tg=cutoff)
        assert 0 < converted < len(tables)
        for table in engine.snapshot().tables:
            assert table.is_columnar == (table.max_tg <= cutoff)
            assert table.block_size == (64 if table.is_columnar else 0)
        # Converting again is a no-op on already-cold tables.
        assert engine.convert_cold(max_tg=cutoff) == 0
        assert engine.cold_tables_converted == converted

    def test_conversion_is_not_charged_as_write_amplification(self):
        dataset = _dataset("M1")
        engine = ConventionalEngine(CONFIG_ROW)
        _ingest(engine, dataset, 0, N_POINTS)
        engine.flush_all()
        before = (engine.stats.disk_writes, len(engine.stats.events))
        assert engine.convert_cold(block_size=BLOCK) > 0
        assert (engine.stats.disk_writes, len(engine.stats.events)) == before

    @pytest.mark.parametrize(
        "named, kwargs",
        [
            pytest.param("max_tg", {"max_tg": math.nan}, id="max_tg-nan"),
            pytest.param("max_tg", {"max_tg": "1"}, id="max_tg-str"),
            pytest.param("max_tg", {"max_tg": True}, id="max_tg-bool"),
            pytest.param("block_size", {"block_size": 2.5}, id="block_size-2.5"),
            pytest.param("block_size", {"block_size": 0}, id="block_size-0"),
            pytest.param("block_size", {"block_size": True}, id="block_size-bool"),
            pytest.param("block_size", {"block_size": None}, id="block_size-none"),
            # Nothing qualifies, and the block size is checked all the same.
            pytest.param(
                "block_size", {"max_tg": -math.inf, "block_size": 0}, id="none-qualify-0"
            ),
            pytest.param(
                "block_size",
                {"max_tg": -math.inf, "block_size": True},
                id="none-qualify-bool",
            ),
        ],
    )
    def test_bad_arguments_raise_before_any_table_changes(self, named, kwargs):
        """A NaN cutoff, a fractional or boolean block size, and a block
        size below 1 are each an error naming the argument — also when
        no row table qualifies — and leave every table as it was."""
        engine = ConventionalEngine(CONFIG_ROW)
        _ingest(engine, _dataset("M1"), 0, N_POINTS)
        engine.flush_all()
        tables = engine.snapshot().tables
        engine.convert_cold(max_tg=tables[len(tables) // 2].max_tg, block_size=BLOCK)

        def state():
            return (
                [table.block_size for table in engine.snapshot().tables],
                engine.cold_tier_bytes(),
                engine.cold_tables_converted,
                engine.read_version(),
            )

        before = state()
        with pytest.raises(EngineError, match=f"^{named} must be"):
            engine.convert_cold(**kwargs)
        assert state() == before


# -- durability ----------------------------------------------------------------


class TestColdDurability:
    def test_checkpoint_preserves_columnar_format(self, tmp_path):
        dataset = _dataset("M1")
        engine = ConventionalEngine(CONFIG_ROW)
        _ingest(engine, dataset, 0, N_POINTS)
        engine.flush_all()
        engine.convert_cold(block_size=BLOCK)
        ckpt = str(tmp_path / "cold.ckpt")
        engine.save_checkpoint(ckpt)
        restored = LsmEngine.restore(ckpt)
        live, back = engine.snapshot(), restored.snapshot()
        assert [t.block_size for t in live.tables] == [
            t.block_size for t in back.tables
        ]
        assert all(t.is_columnar for t in back.tables)
        assert restored.cold_tier_bytes() == engine.cold_tier_bytes()
        _assert_reads_identical(engine, restored, dataset)
        restored.verify()

    def test_restore_continues_bit_identically(self, tmp_path):
        dataset = _dataset("M8")
        engine = SeparationEngine(CONFIG_ROW)
        _ingest_cold(engine, dataset, 0, N_POINTS // 2)
        ckpt = str(tmp_path / "mid.ckpt")
        engine.save_checkpoint(ckpt)
        restored = LsmEngine.restore(ckpt)
        assert _formats(restored) == _formats(engine)
        assert restored.cold_tier_bytes() == engine.cold_tier_bytes() > 0
        _ingest(engine, dataset, N_POINTS // 2, N_POINTS)
        _ingest(restored, dataset, N_POINTS // 2, N_POINTS)
        engine.flush_all()
        restored.flush_all()
        _assert_reads_identical(engine, restored, dataset)
        _assert_write_accounting_identical(engine, restored)

    def test_legacy_checkpoint_without_blocks_restores_row(self):
        tg = np.sort(np.random.default_rng(0).uniform(0, 100, 96))
        tables = build_sstables(tg, np.arange(96), 32)
        for table in tables:
            table.convert_to_columnar(BLOCK)
        arrays = {}
        pack_tables(arrays, "lvl", tables)
        del arrays["lvl.blocks"]  # what a pre-cold-tier checkpoint holds
        legacy = unpack_tables(arrays, "lvl")
        assert len(legacy) == len(tables)
        assert all(not t.is_columnar for t in legacy)
        for old, new in zip(tables, legacy):
            np.testing.assert_array_equal(old.tg, new.tg)
            np.testing.assert_array_equal(old.ids, new.ids)

    def test_crash_recovery_with_corrupt_checkpoint(self, tmp_path):
        wal_path = str(tmp_path / "cold.wal")
        ckpt_path = str(tmp_path / "cold.ckpt")
        dataset = _dataset("M1")
        engine = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        _ingest_cold(engine, dataset, 0, N_POINTS // 2)
        engine.save_checkpoint(ckpt_path)
        _ingest_cold(engine, dataset, N_POINTS // 2, N_POINTS)
        engine.wal.close()
        FaultInjector(FaultPlan(seed=9)).corrupt_file(ckpt_path, spare_prefix=8)
        report = recover_engine(
            ConventionalEngine, wal_path, checkpoint_path=ckpt_path, config=CONFIG_ROW
        )
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert report.replayed_points == N_POINTS
        assert report.verified
        _assert_reads_identical(engine, report.engine, dataset)
        _assert_write_accounting_identical(engine, report.engine)

    def test_recovery_from_intact_cold_checkpoint(self, tmp_path):
        wal_path = str(tmp_path / "cold.wal")
        ckpt_path = str(tmp_path / "cold.ckpt")
        dataset = _dataset("M1")
        engine = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        _ingest_cold(engine, dataset, 0, N_POINTS // 2)
        engine.save_checkpoint(ckpt_path)
        _ingest(engine, dataset, N_POINTS // 2, N_POINTS)
        engine.wal.close()
        report = recover_engine(
            ConventionalEngine, wal_path, checkpoint_path=ckpt_path, config=CONFIG_ROW
        )
        assert report.checkpoint_used and report.verified
        # The checkpointed tables come back columnar; the replayed tail
        # lands row tables, exactly as it did on the live engine.
        assert set(_formats(report.engine)) == {True, False}
        assert _formats(report.engine) == _formats(engine)
        assert report.engine.cold_tier_bytes() == engine.cold_tier_bytes()
        _assert_reads_identical(engine, report.engine, dataset)

    @pytest.mark.parametrize("damage", ["short", "negative"])
    def test_a_damaged_blocks_array_falls_back_to_wal_replay(self, tmp_path, damage):
        """A checkpoint whose ``<prefix>.blocks`` array is one entry short
        of its tables, or holds a negative block size, is corrupt: restore
        refuses it and recovery replays the WAL instead."""
        wal_path = str(tmp_path / "cold.wal")
        ckpt_path = str(tmp_path / "cold.ckpt")
        dataset = _dataset("M1")
        engine = ConventionalEngine(LsmConfig(64, 32, wal_path=wal_path))
        _ingest_cold(engine, dataset, 0, N_POINTS)
        engine.save_checkpoint(ckpt_path)
        engine.wal.close()
        meta, arrays = read_checkpoint(ckpt_path)
        name = next(name for name, _, group in engine.compaction.groups() if len(group))
        blocks = arrays[f"{name}.blocks"].copy()
        assert blocks.size > 1 and (blocks == BLOCK).all()
        if damage == "short":
            blocks = blocks[:-1]
        else:
            blocks[blocks.size // 2] = -1
        arrays[f"{name}.blocks"] = blocks
        write_checkpoint(ckpt_path, meta, arrays)
        with pytest.raises(CheckpointCorruptError, match="block-size array must hold one entry"):
            LsmEngine.restore(ckpt_path)
        report = recover_engine(
            ConventionalEngine, wal_path, checkpoint_path=ckpt_path, config=CONFIG_ROW
        )
        assert report.checkpoint_corrupt and not report.checkpoint_used
        assert report.replayed_points == N_POINTS
        assert report.verified
        _assert_reads_identical(engine, report.engine, dataset)


# -- checkpoints that still record the retired cold-tier config keys -----------

LEGACY_DIR = Path(__file__).parent / "data" / "legacy_checkpoints"
#: The keys every checkpoint's ``config`` recorded while the cold tier
#: was configured on ``LsmConfig``.
COLD_KEYS = ("cold_tier", "cold_block_size", "cold_level", "cold_age")


def _rewrite_cold_keys(path, **cold):
    """Rewrite the checkpoint at ``path`` with its recorded ``cold_*``
    keys replaced by ``cold`` (none: stripped); arrays untouched."""
    meta, arrays = read_checkpoint(str(path))
    for key in COLD_KEYS:
        meta["config"].pop(key, None)
    meta["config"].update(cold)
    write_checkpoint(str(path), meta, arrays)


def _assert_formats_as_recorded(engine, path):
    """Every table of a just-restored ``engine`` has the block size the
    checkpoint's arrays record for it, and the resident total agrees."""
    _, arrays = read_checkpoint(str(path))
    for name, _, group in engine.compaction.groups():
        recorded = arrays[f"{name}.blocks"].tolist()
        assert [table.block_size for table in group] == recorded
    assert engine.cold_tier_bytes() == sum(
        table.stats_nbytes for table in engine.compaction.visible_tables()
    )


def _tail(after, seed=5):
    """An out-of-order stream that starts past generation time ``after``."""
    stream = generate_synthetic(2000, 50.0, LogNormalDelay(5.0, 2.0), seed=seed)
    return stream.tg + after + 1.0, stream.ta + after + 1.0


class TestCheckpointsRecordingColdKeys:
    """Checkpoints written while ``LsmConfig`` carried the cold tier still
    record ``cold_*`` keys; they restore with the keys ignored, every table
    keeps its recorded block format, and what lands afterwards is row."""

    def test_adaptive_fixture_restores_without_a_config(self, tmp_path):
        path = LEGACY_DIR / "adaptive.ckpt"
        assert set(COLD_KEYS) <= set(read_checkpoint(str(path))[0]["config"])
        twin_path = tmp_path / "adaptive.ckpt"
        shutil.copyfile(path, twin_path)
        _rewrite_cold_keys(twin_path)
        engine, twin = LsmEngine.restore(str(path)), LsmEngine.restore(str(twin_path))
        _assert_formats_as_recorded(engine, path)
        assert engine.cold_tier_bytes() == 0
        tg, ta = _tail(engine.watermark())
        for restored in (engine, twin):
            restored.ingest(tg, ta)
            restored.flush_all()
        assert _formats(engine) == [False] * len(_formats(twin))
        _assert_write_accounting_identical(twin, engine)
        engine.verify()

    def test_database_fixture_recovers(self, tmp_path):
        directory, twin_directory = tmp_path / "db", tmp_path / "twin"
        shutil.copytree(LEGACY_DIR / "database_retuned", directory)
        shutil.copytree(LEGACY_DIR / "database_retuned", twin_directory)
        for path in twin_directory.glob("*.ckpt"):
            _rewrite_cold_keys(path)
        for path in directory.glob("*.ckpt"):
            meta, arrays = read_checkpoint(str(path))
            assert set(COLD_KEYS) <= set(meta["config"])
            assert not any(arrays[key].any() for key in arrays if key.endswith(".blocks"))
        db = TimeSeriesDatabase.recover(str(directory))
        twin = TimeSeriesDatabase.recover(str(twin_directory))
        names = sorted(db.series_names())
        assert names == sorted(twin.series_names()) and len(names) == 3
        for name in names:
            engine = db.series(name).engine
            assert engine.cold_tier_bytes() == 0
            assert not any(_formats(engine))
            tg, ta = _tail(engine.watermark(), seed=len(name))
            db.write(name, tg, ta)
            twin.write(name, tg, ta)
        db.flush_all()
        twin.flush_all()
        for name in names:
            engine, twin_engine = db.series(name).engine, twin.series(name).engine
            assert not any(_formats(engine))
            _assert_write_accounting_identical(twin_engine, engine)
            engine.verify()

    def test_hand_written_cold_keys_do_not_turn_landings_columnar(self, tmp_path):
        """A checkpoint whose metadata asks for every landing columnar
        (``cold_tier: true, cold_level: 0``) over columnar tables."""
        dataset = _dataset("M8")
        engine = SeparationEngine(CONFIG_ROW)
        _ingest_cold(engine, dataset, 0, N_POINTS // 2)
        path = tmp_path / "cold.ckpt"
        engine.save_checkpoint(str(path))
        _rewrite_cold_keys(
            path, cold_tier=True, cold_block_size=BLOCK, cold_level=0, cold_age=None
        )
        restored = LsmEngine.restore(str(path))
        _assert_formats_as_recorded(restored, path)
        assert _formats(restored) == _formats(engine) and any(_formats(restored))
        assert restored.cold_tier_bytes() == engine.cold_tier_bytes() > 0
        kept = {table.table_id for table in restored.snapshot().tables}

        row_twin = SeparationEngine(CONFIG_ROW)
        _ingest(row_twin, dataset, 0, N_POINTS)
        _ingest(restored, dataset, N_POINTS // 2, N_POINTS)
        row_twin.flush_all()
        restored.flush_all()
        landed = [t for t in restored.snapshot().tables if t.table_id not in kept]
        assert landed and not any(table.is_columnar for table in landed)
        _assert_write_accounting_identical(row_twin, restored)
        _assert_reads_identical(row_twin, restored, dataset)
        restored.verify()


# -- cost model & telemetry ----------------------------------------------------


class TestColdCostModel:
    def test_backpressure_debt_sees_cold_stats_memory(self):
        dataset = _dataset("M1")
        engine = ConventionalEngine(CONFIG_ROW)
        _ingest(engine, dataset, 0, N_POINTS)
        engine.flush_all()
        admission = AdmissionController(engine)
        before = admission.debt_points()
        assert engine.cold_tier_bytes() == 0
        assert engine.convert_cold(block_size=BLOCK) > 0
        resident = engine.cold_tier_bytes()
        assert resident > 0
        assert admission.debt_points() == before + resident // POINT_BYTES

    def test_cold_bytes_match_block_count(self):
        tg = np.sort(np.random.default_rng(1).uniform(0, 100, 200))
        table = SSTable(tg, np.arange(200))
        assert table.stats_nbytes == table.nblocks == 0
        assert table.convert_to_columnar(16)
        assert table.nblocks == len(_zone_maps(table, 16)[0]) == 13  # ceil(200 / 16)
        assert table.stats_nbytes == 13 * BLOCK_STAT_BYTES

    def test_one_block_when_the_size_exceeds_the_points(self):
        table = SSTable(np.array([1.0, 2.0, 3.0]), np.arange(3), block_size=64)
        assert table.nblocks == 1
        assert table.stats_nbytes == BLOCK_STAT_BYTES
        # A window inside the one block reads all of it and skips none.
        assert edge_slice(table, 2.0, 2.0)[1:] == (1, 2, 3, 0)

    def test_a_columnar_table_keeps_the_row_sum(self):
        """Laid out on a grid, built or restored, a table answers with the
        exact float one ``np.sum`` over its whole column gives."""
        tg = np.sort(np.random.default_rng(4).uniform(0, 10, 77))
        ids = np.arange(77)
        row = SSTable(tg, ids)
        cold = SSTable(tg, ids, block_size=8)
        assert (row.block_size, cold.block_size) == (0, 8)
        assert cold.sum_tg == row.sum_tg == float(tg.sum())
        arrays = {}
        pack_tables(arrays, "lvl", [row, cold])
        back = unpack_tables(arrays, "lvl")
        assert [t.block_size for t in back] == [0, 8]
        assert [t.sum_tg for t in back] == [row.sum_tg, cold.sum_tg]
        # The last block of the grid is the column's tail.
        starts, ends, _, _ = _zone_maps(back[1], 8)
        assert (int(starts[-1]), int(ends[-1])) == (72, 77)

    def test_telemetry_counters(self):
        dataset = _dataset("M1")
        engine = ConventionalEngine(
            CONFIG_ROW, telemetry=Telemetry(sinks=[RingBufferSink()])
        )
        _ingest(engine, dataset, 0, N_POINTS)
        engine.flush_all()
        engine.convert_cold(block_size=BLOCK)
        registry = engine.telemetry.registry
        assert registry.counter("cold_tier.tables_converted").value > 0
        engine.cold_tier_bytes()
        assert registry.gauge("cold_tier.resident_bytes").value > 0
        snapshot = engine.snapshot()
        lo, hi = float(dataset.tg.min()), float(dataset.tg.max())
        result = execute_aggregate_query(
            snapshot, lo, hi, telemetry=engine.telemetry
        )
        assert result.blocks_stat_answered > 0
        assert (
            registry.counter("query.blocks_stat_answered").value
            == result.blocks_stat_answered
        )
        stats = execute_range_query(
            snapshot, lo + 0.4 * (hi - lo), lo + 0.6 * (hi - lo),
            telemetry=engine.telemetry,
        )
        assert registry.counter("query.blocks_skipped").value >= (
            stats.blocks_skipped
        )

    def test_conversion_count_survives_an_adaptive_switch(self):
        """``cold_tables_converted`` is the engine's lifetime count: a
        policy switch must not reset it under the bus counter's feet."""
        dataset = generate_synthetic(8000, 50.0, LogNormalDelay(5.0, 2.0), seed=1)
        engine = AdaptiveEngine(
            LsmConfig(memory_budget=128, sstable_size=64),
            telemetry=Telemetry(sinks=[RingBufferSink()]),
            check_interval=512,
        )
        engine.ingest(dataset.tg[:3000], dataset.ta[:3000])
        assert not engine.switches
        converted = engine.convert_cold()
        assert converted > 0
        engine.ingest(dataset.tg[3000:], dataset.ta[3000:])
        assert engine.switches, "the stream must switch policy after converting"
        counter = engine.telemetry.registry.counter("cold_tier.tables_converted")
        assert engine.cold_tables_converted == counter.value == converted

    def test_conversion_count_survives_a_database_retune(self):
        """The same lifetime count through the database: a retune
        re-splits the series' engine, which keeps counting."""
        dataset = generate_synthetic(6000, 50.0, LogNormalDelay(5.0, 2.0), seed=3)
        telemetry = Telemetry(sinks=[])
        db = TimeSeriesDatabase(512, 128, telemetry=telemetry)
        db.write("s", dataset.tg, dataset.ta)
        converted = db.series("s").engine.convert_cold()
        assert converted > 0
        assert db.retune(), "the stream must switch policy after converting"
        counter = telemetry.registry.counter("cold_tier.tables_converted")
        assert db.series("s").engine.cold_tables_converted == counter.value == converted

    def test_executor_reads_blocks_not_files(self):
        """Columnar tables charge only the overlapping block span."""
        tg = np.sort(np.random.default_rng(2).uniform(0, 1000, 512))
        row = SSTable(tg.copy(), np.arange(512))
        cold = SSTable(tg.copy(), np.arange(512))
        assert cold.convert_to_columnar(32)
        lo, hi = float(tg[100]), float(tg[140])
        read, skipped = _block_span(cold, 32, lo, hi)
        assert read < len(row) and skipped > 0
        for table, charged, left_out in ((row, len(row), 0), (cold, read, skipped)):
            stats = execute_range_query(Snapshot(tables=[table], memtables=[]), lo, hi)
            assert (stats.disk_points_read, stats.blocks_skipped) == (charged, left_out)
            for points in (row.tg, cold.tg):
                assert stats.result_points == np.count_nonzero((points >= lo) & (points <= hi))


# -- grid arithmetic ------------------------------------------------------------


def _zone_maps(table, block):
    """``(starts, ends, mins, maxs)`` of ``table``'s blocks on a
    ``block``-point grid, read off its ``tg`` column: block ``k`` holds
    rows ``[k·block, (k + 1)·block)``, the last one clipped at the
    table's end.  The column is sorted, so a block's extrema are its
    boundary rows."""
    column = table.tg
    starts = np.arange(0, column.size, block)
    ends = np.minimum(starts + block, column.size)
    return starts, ends, column[starts], column[ends - 1]


def _block_span(table, block, lo, hi):
    """``(read, skipped)`` of a scan of ``table`` over ``[lo, hi]`` by
    searches over its zone maps: the blocks whose ``[min, max]`` meets
    the window form one span (the first whose max reaches ``lo`` up to
    the first whose min exceeds ``hi``); it reads their points and
    skips every other block."""
    starts, ends, mins, maxs = _zone_maps(table, block)
    b0 = int(maxs.searchsorted(lo, side="left"))
    b1 = max(b0, int(mins.searchsorted(hi, side="right")))
    return int((ends[b0:b1] - starts[b0:b1]).sum()), starts.size - (b1 - b0)


def _zone_map_costs(snapshot, block, lo, hi):
    """``(blocks_stat_answered, blocks_skipped, disk_points_read)`` the
    per-table walk gives, from :func:`_block_span` searches over each
    table's zone maps."""
    answered = skipped = read = 0
    for table in snapshot.tables:
        if not table.overlaps(lo, hi):
            continue
        if lo <= table.min_tg and table.max_tg <= hi:
            answered += len(_zone_maps(table, block)[0])
            read += len(table)
            continue
        points, left_out = _block_span(table, block, lo, hi)
        skipped += left_out
        read += points
    return answered, skipped, read


@st.composite
def _grid_cases(draw):
    """A duplicate-heavy sorted stream cut into tables of ``size``
    points on a block grid that (but for 1) does not divide them —
    3, 100, or one block larger than a table — with a duplicate run
    straddling a block boundary; and windows on block edges."""
    size = draw(st.sampled_from((10, 25, 37)))
    block = draw(st.sampled_from((1, 3, 100, size + 1)))
    n = draw(st.integers(1, 4 * size))
    tg = np.sort(draw(st.lists(st.integers(0, max(1, n // 3)), min_size=n, max_size=n)))
    tg = tg.astype(np.float64)
    if n > block:
        edge = block * draw(st.integers(1, (n - 1) // block))
        tg[edge] = tg[edge - 1]  # ties across the boundary (still sorted)
    edges = sorted({float(v) for v in tg[::block]} | {float(v) for v in tg[block - 1 :: block]})
    on_edge = st.tuples(st.sampled_from(edges), st.sampled_from((None, -math.inf, math.inf)))
    bound = st.one_of(
        on_edge.map(lambda e: e[0] if e[1] is None else float(np.nextafter(*e))),
        st.sampled_from((-math.inf, math.inf, -1.0, float(n))),
    )
    windows = [tuple(sorted(draw(st.lists(bound, min_size=2, max_size=2)))) for _ in range(8)]
    return size, block, tg, windows


class TestGridArithmetic:
    """The executors take a cut columnar table's block span and points
    read by division on its grid, not by searching zone maps; the counts
    must be the searches' counts (:func:`_block_span`, over zone maps
    this file reads off each table's column), on the live engine and on
    one restored from its checkpoint."""

    def test_a_window_reads_only_its_block_span(self):
        tg = np.arange(100, dtype=np.float64)
        table = SSTable(tg, np.arange(100), block_size=10)
        assert table.nblocks == 10
        for lo, hi, rows, read, skipped in (
            (-5.0, -1.0, (0, 0), 0, 10),  # before the table: nothing read
            (0.0, 99.0, (0, 100), 100, 0),
            (25.0, 44.0, (25, 45), 30, 7),  # blocks 2..4, cut at both ends
            (30.0, 39.0, (30, 40), 10, 9),  # exactly block 3
        ):
            assert edge_slice(table, lo, hi)[1:] == (*rows, read, skipped)
            assert _block_span(table, 10, lo, hi) == (read, skipped)

    @settings(max_examples=60, deadline=None)
    @given(case=_grid_cases())
    def test_grid_spans_equal_zone_map_searches(self, case):
        size, block, tg, windows = case
        engine = ConventionalEngine(LsmConfig(memory_budget=size, sstable_size=size))
        engine.ingest(tg)
        engine.flush_all()
        assert engine.convert_cold(block_size=block) == len(engine.snapshot().tables)
        with tempfile.TemporaryDirectory() as scratch:
            path = str(Path(scratch) / "cold.ckpt")
            engine.save_checkpoint(path)
            restored = LsmEngine.restore(path)
        for snapshot in (engine.snapshot(), restored.snapshot()):
            assert all(t.block_size == block for t in snapshot.tables)
            walk = Snapshot(tables=snapshot.tables, memtables=snapshot.memtables)
            for lo, hi in windows:
                answered, skipped, read = _zone_map_costs(snapshot, block, lo, hi)
                for snap in (snapshot, walk):
                    aggregate = execute_aggregate_query(snap, lo, hi)
                    stats = execute_range_query(snap, lo, hi)
                    assert aggregate.blocks_stat_answered == answered
                    assert aggregate.blocks_skipped == stats.blocks_skipped == skipped
                    assert stats.disk_points_read == read
                    inside = int(np.count_nonzero((tg >= lo) & (tg <= hi)))
                    assert aggregate.count == stats.result_points == inside
                # The helper on its own, any table against any window —
                # one that misses the table too (``left == n``).
                for table in snapshot.tables:
                    column = table.tg
                    assert edge_slice(table, lo, hi)[1:] == (
                        int(column.searchsorted(lo, side="left")),
                        int(column.searchsorted(hi, side="right")),
                        *_block_span(table, block, lo, hi),
                    )
