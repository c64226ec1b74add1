"""Leveled LSM-tree storage simulator with exact write accounting.

This is the substrate the paper's experiments ran on: a leveled LSM-tree
for time-series points keyed by generation time, with per-point write
counters ("a prototype system that records the writing times of each
point", Section III).  Every engine is a placement × flush × compaction
composition driven by the one engine class, :class:`LsmEngine` (see
:doc:`docs/architecture`), and every named one is a row of
:data:`repro.lsm.policies.ENGINES` — the table checkpoint dispatch, the
crash matrix and ``python -m repro engines`` read — built by a plain
constructor that returns an :class:`LsmEngine`.  Engines:

* :class:`ConventionalEngine` — ``pi_c``: one MemTable, leveled merges
  (``single + merge + leveled``).
* :class:`SeparationEngine` — ``pi_s(n_seq)``: in-order/out-of-order
  MemTables; flush-only for ``C_seq``, merge on full ``C_nonseq``
  (``split + separation + leveled``).
* :class:`AdaptiveEngine` — ``pi_adaptive``: starts under ``pi_c`` and
  retunes whenever its analyzer sees the delays drift.
* :class:`IoTDBStyleEngine` — the deployed two-level variant with
  overlapping L1 flush files and background compaction (throughput and
  query experiments).
* :class:`MultiLevelEngine` — textbook size-ratio-``T`` leveling, the
  general-WA baseline contrasted in Section VII-A.
* :class:`TieredEngine` — size-tiered compaction, the low-WA baseline.
* :func:`~repro.lsm.policies.compose_engine` — any other triple, by
  name (recorded as ``ComposedEngine``).

The first three are the paper's one storage system: a leveled run whose
``n_seq : n_nonseq`` split is live state, kernel state like the delay
analyzer it may retune from — ``engine.resplit`` / ``engine.retune``
move a running engine between ``pi_c`` and ``pi_s``, so a
``ConventionalEngine`` may come to record ``SeparationEngine``.

Durability (see :doc:`docs/durability`): every engine can write a
checksummed WAL before MemTable placement (:mod:`repro.lsm.wal`),
checkpoint/restore its full state (:mod:`repro.lsm.checkpoint`), recover
from a crash (:mod:`repro.lsm.recovery`), and verify crash-consistency
invariants (:mod:`repro.lsm.invariants`).
"""

from .backpressure import (
    BACKPRESSURE_STATES,
    HEALTHY,
    SHEDDING,
    THROTTLED,
    AdmissionController,
)
from .base import LsmEngine, MemTableView, Snapshot
from .checkpoint import read_checkpoint, write_checkpoint
from .database import FleetReport, SeriesState, TimeSeriesDatabase
from .invariants import InvariantChecker
from .level import Run
from .memtable import MemTable
from .points import sort_by_generation
from .policies import compose_engine
from .policies.compaction import merge_tables_with_batch
from .policies.compose import (
    AdaptiveEngine,
    ConventionalEngine,
    IoTDBStyleEngine,
    MultiLevelEngine,
    SeparationEngine,
    TieredEngine,
)
from .recovery import RecoveryReport, recover_engine
from .scheduler import CompactionScheduler, LandingTask, TokenBucket
from .sstable import SSTable, build_sstables
from .wa_tracker import CompactionEvent, WriteStats
from .wal import WalReadResult, WalRecord, WriteAheadLog, read_wal

__all__ = [
    "LsmEngine",
    "Snapshot",
    "MemTableView",
    "ConventionalEngine",
    "SeparationEngine",
    "AdaptiveEngine",
    "IoTDBStyleEngine",
    "MultiLevelEngine",
    "TieredEngine",
    "compose_engine",
    "TimeSeriesDatabase",
    "SeriesState",
    "FleetReport",
    "Run",
    "MemTable",
    "SSTable",
    "build_sstables",
    "sort_by_generation",
    "merge_tables_with_batch",
    "CompactionEvent",
    "WriteStats",
    "WriteAheadLog",
    "WalRecord",
    "WalReadResult",
    "read_wal",
    "write_checkpoint",
    "read_checkpoint",
    "recover_engine",
    "RecoveryReport",
    "InvariantChecker",
    "CompactionScheduler",
    "LandingTask",
    "TokenBucket",
    "AdmissionController",
    "BACKPRESSURE_STATES",
    "HEALTHY",
    "THROTTLED",
    "SHEDDING",
]
