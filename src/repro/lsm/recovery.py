"""Crash recovery: checkpoint restore + truncating WAL tail replay.

The recovery protocol, in order:

1. **Restore the newest checkpoint**, if one exists and its trailing CRC
   validates.  A corrupt checkpoint (torn page, bit flip, a counter array
   that cannot be right) is *discarded* and recovery falls back to
   replaying the whole WAL into a fresh engine — slower, never wrong.
2. **Scan the WAL** (:func:`repro.lsm.wal.read_wal`).  Every frame is
   checked for length, checksum and kind, but only records past the
   restored engine's arrival cursor are decoded.  A torn tail — a
   partially written record left by a crash mid-append — is truncated
   away; the durable prefix is exactly the fully-framed, checksum-clean
   records.  A damaged record with intact bytes after it, covered or
   not, is no torn tail: recovery stops with
   :class:`~repro.errors.WalError` and leaves the file as it is.
3. **Replay the WAL tail**: every decoded record is re-ingested through
   :meth:`LsmEngine._replay` (bypassing the WAL append, so the log is not
   re-written) — its ``(tg, ta)`` pairs through the engine's analyzer
   when it has one, and a control frame as the re-split it logged.  Ids
   regenerate identically because they are sequential from each
   record's ``start_id``.
4. **Verify** the recovered engine's crash-consistency invariants
   (:mod:`repro.lsm.invariants`).

The result lands in a state bit-identical to a crash-free run over the
durable prefix (modulo cosmetic SSTable sequence numbers).

There is one loop, :func:`recover_engine`, for every engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import CheckpointCorruptError, CheckpointError, ConfigError, RecoveryError
from .base import LsmEngine
from .policies.compose import recordable_labels
from .wal import WalRecord, read_wal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import LsmConfig
    from ..obs.telemetry import Telemetry

__all__ = ["RecoveryReport", "recover_engine"]


@dataclass
class RecoveryReport:
    """What one recovery did, for assertions and operator output."""

    engine: object
    #: Checkpoint state was actually used as the starting point.
    checkpoint_used: bool = False
    #: A checkpoint existed but failed its integrity check.
    checkpoint_corrupt: bool = False
    #: The WAL ended in a torn (partially written) record.
    wal_torn: bool = False
    #: Bytes of torn tail removed by truncating recovery.
    truncated_bytes: int = 0
    #: Valid records found in the WAL.
    wal_records: int = 0
    #: Records replayed past the checkpoint.
    replayed_records: int = 0
    #: Points replayed past the checkpoint.
    replayed_points: int = 0
    #: Total durable points after recovery.
    durable_points: int = 0
    #: :meth:`verify` ran clean on the recovered engine.
    verified: bool = False
    notes: list[str] = field(default_factory=list)


def recover_engine(
    constructor,
    wal_path: str,
    checkpoint_path: str | None = None,
    config: "LsmConfig | None" = None,
    engine_kwargs: dict | None = None,
    telemetry: "Telemetry | None" = None,
    verify: bool = True,
) -> RecoveryReport:
    """Recover one :class:`LsmEngine` from its WAL (+ optional checkpoint).

    ``constructor`` is the constructor of the engine expected (a named
    engine's, or ``compose_engine``).  A checkpoint it restores must
    hold an engine that constructor can have built
    (:func:`~repro.lsm.policies.compose.recordable_labels`), else
    :class:`~repro.errors.CheckpointError`.  ``config`` should carry the
    ``wal_path`` so the recovered engine keeps appending to the same
    log, and arms the engine when it has a ``fault_plan``; replayed
    records are fed around the WAL so nothing is double-logged.
    ``engine_kwargs`` are used only when no usable checkpoint exists and
    the engine is rebuilt from scratch (checkpoints remember their own
    constructor kwargs).
    """
    report = RecoveryReport(engine=None)
    engine: LsmEngine | None = None
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        try:
            engine = LsmEngine.restore(checkpoint_path, config=config, telemetry=telemetry)
        except CheckpointCorruptError as exc:
            report.checkpoint_corrupt = True
            report.notes.append(f"checkpoint discarded: {exc}")
        else:
            label = engine.checkpoint_label
            if label not in recordable_labels(constructor):
                raise CheckpointError(
                    f"{checkpoint_path}: checkpoint was taken by {label!r}, "
                    f"not {constructor.__name__}"
                )
            report.checkpoint_used = True
    if engine is None:
        engine = constructor(config=config, telemetry=telemetry, **(engine_kwargs or {}))
    report.engine = engine

    wal = read_wal(wal_path, covered=engine.ingested_points)
    report.wal_records = wal.covered_records + len(wal.records)
    if wal.torn:
        report.wal_torn = True
        report.truncated_bytes = wal.torn_bytes
        wal.truncate()
        report.notes.append(
            f"truncated {wal.torn_bytes} torn bytes from {wal_path}"
        )
    # Replay logs nothing, the re-splits a trigger re-derives included
    # (an engine whose replay fails is not handed back).
    handle, engine._wal = engine._wal, None
    for record in wal.records:
        _replay_record(engine, record, report, wal_path)
    engine._wal = handle
    report.durable_points = engine.ingested_points
    _publish(engine.telemetry, engine.policy_name, report)
    if verify:
        engine.verify()
        report.verified = True
    return report


def _replay_record(
    engine: LsmEngine, record: WalRecord, report: RecoveryReport, wal_path: str
) -> None:
    """Feed one durable record past the checkpoint into the engine.

    A control frame re-splits the engine at its arrival index.  One
    behind the cursor is a re-split the engine's trigger made inside the
    batch logged before it, which that batch's replay re-derived."""
    at = engine.ingested_points
    if record.start_id > at or (record.start_id < at and record.split is None):
        raise RecoveryError(
            f"WAL record spans ids [{record.start_id}, {record.end_id}) but "
            f"the engine is at id {at}: checkpoints are "
            "taken at batch boundaries, so a straddling record means the "
            "log and checkpoint disagree"
        )
    if record.split is None:
        engine._replay(record)
    elif record.start_id == at:
        try:
            engine.resplit(*record.split)
        except ConfigError as exc:
            raise RecoveryError(
                f"{wal_path}@{record.offset}: control frame re-splits to {record.split}: {exc}"
            ) from None
    report.replayed_records += 1
    report.replayed_points += record.count


def _publish(
    telemetry: "Telemetry", policy: str, report: RecoveryReport
) -> None:
    if not telemetry.enabled:
        return
    telemetry.count("recovery.replayed_points", report.replayed_points)
    telemetry.count("recovery.runs")
    telemetry.emit(
        {
            "type": "recovery",
            "engine": policy,
            "checkpoint_used": report.checkpoint_used,
            "checkpoint_corrupt": report.checkpoint_corrupt,
            "wal_torn": report.wal_torn,
            "replayed_records": report.replayed_records,
            "replayed_points": report.replayed_points,
            "durable_points": report.durable_points,
        }
    )
