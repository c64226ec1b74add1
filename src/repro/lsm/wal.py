"""Binary-framed, checksummed write-ahead log for the LSM engines.

Every engine with ``LsmConfig.wal_path`` set appends each ingested batch
here *before* MemTable placement, so a crash at any later boundary loses
no acknowledged data.  The format is deliberately boring:

``file  = MAGIC (8 bytes) · record*``
``record = u32 payload_len · u32 crc32(payload) · payload``
``payload = u8 kind · u64 start_id · u32 count · count×f64 tg [· count×f64 ta]``
``payload = u8 3 · u64 start_id · u32 0 · i64 seq_capacity · i64 memory_budget``

``kind`` 1 carries generation times only (engines without an analyzer);
``kind`` 2 additionally carries arrival times (an engine with a delay
analyzer logs the aligned ``(tg, ta)`` pairs it observes, so replay
re-observes them).  ``kind`` 3 is a *control* frame: the engine's write
memory was re-split at arrival index ``start_id`` to ``seq_capacity``
(0: one MemTable, ``pi_c``) out of ``memory_budget``.  ``start_id`` is
the arrival index of the first point, so recovery after a checkpoint
can skip every record the checkpoint already covers.

Torn tails — a crash mid-append leaving a partial record — are detected
by :func:`read_wal` (a short frame, or a checksum mismatch in the last
frame) and removed by truncating recovery
(:meth:`WalReadResult.truncate`): the durable prefix is exactly the
records that were fully written and checksum clean.  A damaged frame
with intact bytes after it is not a torn tail; it is a :class:`WalError`
and nothing is truncated.

Group commit (``group_records > 1``) changes *when* frames reach the
file, never *how* they are framed: encoded records accumulate in memory
and one coalesced write + flush lands the whole group once the
record-count or byte trigger fires, or on an explicit
:meth:`WriteAheadLog.sync` barrier (the one place the log fsyncs a
group, and only when bytes reached the file since its last fsync).
Because the on-disk byte stream is
identical to per-record commit, the recovery protocol is unchanged — a
crash mid-group tears at a record boundary (buffered frames are simply
lost) or inside the frame being written, and truncating recovery handles
both exactly as before.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO
from zlib import crc32

import numpy as np

from ..errors import WalError
from ..obs.telemetry import NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..obs.telemetry import Telemetry

__all__ = ["WAL_MAGIC", "GROUP_BYTES", "WalRecord", "WalReadResult", "WriteAheadLog", "read_wal"]

#: File magic: identifies a repro WAL, version 1.
WAL_MAGIC = b"RPWAL1\x00\n"

_HEADER = struct.Struct("<II")  # payload_len, crc32
_PREFIX = struct.Struct("<BQI")  # kind, start_id, count

#: Payload kinds.
_KIND_TG = 1
_KIND_TG_TA = 2
_KIND_SPLIT = 3

_SPLIT = struct.Struct("<qq")  # seq_capacity (0: pi_c), memory_budget

#: Refuse to parse absurd frames (a corrupt length would otherwise make
#: the reader try to allocate gigabytes).
_MAX_PAYLOAD = 1 << 31

#: Group-commit byte trigger: a pending group commits once its frames
#: reach this many bytes, whatever its record trigger, which bounds the
#: memory a group holds.
GROUP_BYTES = 1 << 20


@dataclass(frozen=True)
class WalRecord:
    """One durable ingest batch, or (``split`` set) one re-split."""

    start_id: int
    tg: np.ndarray
    ta: np.ndarray | None = None
    #: A control frame's ``(seq_capacity, memory_budget)``, as read:
    #: outside input, which the engine validates before it re-splits.
    split: tuple | None = None
    #: Byte offset of the frame in its file (``-1``: not read from one).
    offset: int = -1

    @property
    def count(self) -> int:
        """Points in the batch."""
        return int(self.tg.size)

    @property
    def end_id(self) -> int:
        """Arrival index one past the batch's last point."""
        return self.start_id + self.count


@dataclass(frozen=True)
class WalReadResult:
    """Outcome of scanning a WAL file."""

    path: str
    records: list[WalRecord]
    #: Byte offset of the first invalid frame (== file size when clean).
    valid_bytes: int
    #: Bytes past ``valid_bytes`` (a torn tail or trailing corruption).
    torn_bytes: int
    #: Valid records skipped undecoded because a checkpoint covers them
    #: (``read_wal(path, covered=...)``); not in :attr:`records`.
    covered_records: int = 0

    @property
    def torn(self) -> bool:
        """True when the file ends in a partial/corrupt record."""
        return self.torn_bytes > 0

    @property
    def total_points(self) -> int:
        """Points across every decoded record."""
        return sum(r.count for r in self.records)

    def truncate(self) -> None:
        """Drop the torn tail in place (truncating recovery)."""
        if not self.torn:
            return
        with open(self.path, "r+b") as handle:
            handle.truncate(self.valid_bytes)


def _encode_payload(
    start_id: int, tg: np.ndarray, ta: np.ndarray | None
) -> bytes:
    kind = _KIND_TG if ta is None else _KIND_TG_TA
    parts = [
        _PREFIX.pack(kind, start_id, tg.size),
        np.ascontiguousarray(tg, dtype=np.float64).tobytes(),
    ]
    if ta is not None:
        parts.append(np.ascontiguousarray(ta, dtype=np.float64).tobytes())
    return b"".join(parts)


def _check_payload(payload: memoryview, path: str, offset: int) -> tuple[int, int, int]:
    """``(kind, start_id, count)`` of a checksum-clean payload, once its
    kind is known and its length matches its point count."""
    if len(payload) < _PREFIX.size:
        raise WalError(f"{path}@{offset}: payload shorter than its prefix")
    kind, start_id, count = _PREFIX.unpack_from(payload)
    if kind not in (_KIND_TG, _KIND_TG_TA, _KIND_SPLIT):
        raise WalError(f"{path}@{offset}: unknown record kind {kind}")
    if kind == _KIND_SPLIT and count:
        raise WalError(f"{path}@{offset}: a control frame with {count} points")
    # Kinds 1 and 2 carry one and two arrays per point.
    body = _SPLIT.size if kind == _KIND_SPLIT else kind * count * 8
    expected = _PREFIX.size + body
    if len(payload) != expected:
        raise WalError(
            f"{path}@{offset}: payload is {len(payload)} bytes, "
            f"expected {expected} for {count} points"
        )
    return kind, start_id, count


def _decode_payload(
    payload: memoryview, kind: int, start_id: int, count: int
) -> WalRecord:
    """Materialise a checked payload: one copy per array."""
    tg = np.frombuffer(payload, np.float64, count, _PREFIX.size).copy()
    ta = None
    if kind == _KIND_TG_TA:
        ta = np.frombuffer(payload, np.float64, count, _PREFIX.size + count * 8).copy()
    return WalRecord(start_id=int(start_id), tg=tg, ta=ta)


def _decode_split(payload: memoryview, start_id: int, offset: int) -> WalRecord:
    """A checked control frame as the record of its re-split."""
    seq, budget = _SPLIT.unpack_from(payload, _PREFIX.size)
    return WalRecord(int(start_id), np.empty(0), split=(seq or None, budget), offset=offset)


class WriteAheadLog:
    """Append-side handle on one WAL file.

    The file is created (with its magic header) on the first append, so
    an engine that never ingests leaves no artefact.  Appending an
    existing file is allowed only when its header matches.

    With ``group_records > 1`` the log runs in group-commit mode:
    :meth:`append` buffers the encoded frame and a whole group lands
    with one write + flush once ``group_records`` records or
    :data:`GROUP_BYTES` bytes are pending.  Acknowledged but
    uncommitted records are lost on a crash — the bounded durability
    window callers opt into; :meth:`sync` is the explicit barrier.
    """

    def __init__(
        self,
        path: str,
        faults: "FaultInjector | None" = None,
        group_records: int = 1,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if not path:
            raise WalError("WAL needs a non-empty path")
        if group_records < 1:
            raise WalError(f"group_records must be >= 1, got {group_records}")
        self.path = path
        self.faults = faults
        self.group_records = group_records
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._handle: BinaryIO | None = None
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        #: Bytes reached the file since its last fsync (what :meth:`sync`
        #: must make durable; a log with none skips the fsync).
        self._unsynced = False
        #: Records appended through this handle (acknowledged, possibly
        #: still pending in the current group).
        self.appended = 0
        #: Coalesced writes actually issued.
        self.groups_committed = 0
        #: Records those writes carried.
        self.records_committed = 0

    # -- writing ---------------------------------------------------------------

    def _open(self) -> BinaryIO:
        if self._handle is None:
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            self._handle = open(self.path, "ab")
            if fresh:
                # Flush the header immediately: group commit may hold
                # every frame in memory for a while, and a crash in that
                # window must leave a *valid empty* WAL, not a 0-byte file.
                self._handle.write(WAL_MAGIC)
                self._handle.flush()
                self._unsynced = True
            else:
                with open(self.path, "rb") as probe:
                    header = probe.read(len(WAL_MAGIC))
                if header != WAL_MAGIC:
                    self._handle.close()
                    self._handle = None
                    raise WalError(
                        f"{self.path}: existing file is not a repro WAL "
                        "(bad magic); refusing to append"
                    )
        return self._handle

    def append(
        self, tg: np.ndarray, start_id: int, ta: np.ndarray | None = None
    ) -> None:
        """Durably frame one ingest batch.

        With an armed injector this may raise
        :class:`~repro.errors.InjectedCrash` after flushing only a
        *prefix* of the frame — the simulated torn write that recovery
        must truncate.
        """
        if start_id < 0:
            raise WalError(f"start_id must be non-negative, got {start_id}")
        if ta is not None and ta.size != tg.size:
            raise WalError(f"tg and ta must align: {tg.size} vs {ta.size}")
        self._append_frame(_encode_payload(start_id, tg, ta))

    def append_split(self, start_id: int, seq_capacity: int | None, memory_budget: int) -> None:
        """Frame one re-split at arrival index ``start_id`` (a control
        frame: no points), exactly as :meth:`append` frames a batch."""
        payload = _PREFIX.pack(_KIND_SPLIT, start_id, 0)
        self._append_frame(payload + _SPLIT.pack(seq_capacity or 0, memory_budget))

    def _append_frame(self, payload: bytes) -> None:
        frame = _HEADER.pack(len(payload), crc32(payload)) + payload
        handle = self._open()
        if self.faults is not None:
            try:
                self.faults.fire("wal.append")
            except Exception:
                # Torn write: the complete frames already accepted into
                # the pending group reach the disk, then a strict prefix
                # of the *current* frame lands and the crash escapes.
                # flush + fsync so the partial bytes are really "on
                # disk" when recovery scans.
                self._commit_group()
                cut = self.faults.torn_prefix_bytes(len(frame))
                handle.write(frame[:cut])
                handle.flush()
                os.fsync(handle.fileno())
                self._unsynced = False
                raise
        self._pending.append(frame)
        self._pending_bytes += len(frame)
        self.appended += 1
        if (
            len(self._pending) >= self.group_records
            or self._pending_bytes >= GROUP_BYTES
        ):
            self._commit_group()

    def _commit_group(self) -> None:
        """Land every pending frame with one write + flush (no fsync:
        :meth:`sync` is the barrier)."""
        if not self._pending:
            return
        handle = self._open()
        if self.faults is not None:
            # Overload injection: an armed fsync-delay plan stalls the
            # commit, modelling a device latency spike.
            self.faults.maybe_delay("wal.fsync")
        records = len(self._pending)
        group_bytes = self._pending_bytes
        handle.write(b"".join(self._pending))
        handle.flush()
        self._unsynced = True
        self._pending.clear()
        self._pending_bytes = 0
        self.groups_committed += 1
        self.records_committed += records
        telemetry = self.telemetry
        if telemetry.enabled and self.group_records > 1:
            telemetry.emit(
                {
                    "type": "wal.group_commit",
                    "records": records,
                    "bytes": group_bytes,
                }
            )
            telemetry.count("wal.group_commits")
            telemetry.count("wal.group_records", records)

    def size_bytes(self) -> int:
        """Durable bytes on disk (0 before the first commit).

        Pending group-commit frames are *not* counted — they are exactly
        the bytes a crash right now would lose.  Fleet reports use this
        to attribute WAL footprint per shard.
        """
        if self._handle is not None:
            self._handle.flush()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    @property
    def coalescing_ratio(self) -> float:
        """Mean records per coalesced write (1.0 = per-record commit)."""
        if self.groups_committed == 0:
            return 1.0
        return self.records_committed / self.groups_committed

    def sync(self) -> None:
        """Explicit durability barrier: commit pending frames, and fsync
        if any bytes reached the file since the last fsync — a log with
        nothing unsynced costs no fsync."""
        self._commit_group()
        if self._unsynced and self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = False

    def close(self) -> None:
        """Commit pending frames and close the file (idempotent)."""
        self._commit_group()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_wal(path: str, covered: int = 0) -> WalReadResult:
    """Scan ``path``, returning every valid record plus torn-tail info.

    A missing file reads as an empty, clean WAL (the engine never
    ingested).  A present file must start with the magic header.  The
    scan stops at a torn tail — a short frame, or a checksum-failing or
    malformed last frame ending exactly at end of file; everything
    before it is the durable prefix.  A damaged frame with more bytes
    after it is no crash mid-append but damage inside the log: it raises
    :class:`WalError` naming the byte offset, so recovery never truncates
    the intact records behind it.

    Records ending at or before arrival index ``covered`` — what a
    restored checkpoint already holds — are checked (length, checksum,
    kind) like every other frame, counted in ``covered_records``, and
    never decoded.
    """
    if not os.path.exists(path):
        return WalReadResult(path=path, records=[], valid_bytes=0, torn_bytes=0)
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(WAL_MAGIC) and blob == WAL_MAGIC[: len(blob)]:
        # Nothing (or only part of the header) ever reached the disk —
        # a crash inside the first group-commit window.  An empty or
        # torn-header file recovers as an empty WAL.
        return WalReadResult(
            path=path, records=[], valid_bytes=0, torn_bytes=len(blob)
        )
    if len(blob) < len(WAL_MAGIC) or blob[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalError(f"{path}: not a repro WAL (bad or missing magic)")
    view = memoryview(blob)
    records: list[WalRecord] = []
    skipped = points = 0
    offset = len(WAL_MAGIC)
    valid = offset
    size = len(blob)
    while offset < size:
        if size - offset < _HEADER.size:
            break  # torn: partial frame header
        payload_len, checksum = _HEADER.unpack_from(blob, offset)
        if payload_len > _MAX_PAYLOAD:
            break  # corrupt length field
        start = offset + _HEADER.size
        end = start + payload_len
        if end > size:
            break  # torn: partial payload
        payload = view[start:end]
        try:
            if crc32(payload) != checksum:
                raise WalError(f"{path}@{offset}: checksum mismatch")
            kind, start_id, count = _check_payload(payload, path, offset)
        except WalError as exc:
            if end == size:
                break  # torn: the last frame is damaged
            raise WalError(
                f"{path}: damaged record at byte {offset} after "
                f"{points} points, with {size - end} "
                "bytes behind it — damage inside the log, not a torn tail, "
                f"so nothing was truncated ({exc})"
            ) from None
        # A control frame (no points) is covered only *behind* the
        # cursor: one at it may postdate the checkpoint.
        if start_id + max(count, 1) <= covered:
            skipped += 1
        elif kind == _KIND_SPLIT:
            records.append(_decode_split(payload, start_id, offset))
        else:
            records.append(_decode_payload(payload, kind, start_id, count))
        points += count
        offset = end
        valid = end
    return WalReadResult(
        path=path, records=records, valid_bytes=valid, torn_bytes=size - valid,
        covered_records=skipped,
    )
