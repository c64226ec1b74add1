"""Checksummed engine checkpoints: serialise state, detect torn pages.

A checkpoint freezes everything an engine needs to resume without
replaying its whole WAL: the on-disk runs (every SSTable's points and
boundaries), the buffered MemTables, the :class:`~repro.lsm.wa_tracker.
WriteStats` counters and event log, and the arrival cursor.  It stores
no separation watermark ``LAST(R).t_g``: that is the largest generation
time of the restored tables, derived from them.  Restoring a checkpoint
and replaying only the WAL tail lands in a state bit-identical to never
having crashed.

File format (one file, written atomically via rename)::

    MAGIC (8 bytes) · u32 meta_len · meta (JSON, UTF-8) · npz(arrays) · u32 crc32

The trailing CRC covers every preceding byte, so any torn page or bit
flip anywhere in the file surfaces as
:class:`~repro.errors.CheckpointCorruptError` — recovery then falls back
to a full WAL replay instead of trusting damaged state.  A CRC-valid file
is still outside input: whatever reading it raises is turned into the
same error, naming the file, in one place
(:meth:`~repro.lsm.base.LsmEngine.restore`).
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
from typing import TYPE_CHECKING
from zlib import crc32

import numpy as np

from ..errors import CheckpointCorruptError, CheckpointError, EngineError
from .level import Run
from .memtable import MemTable
from .sstable import SSTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

__all__ = [
    "CHECKPOINT_MAGIC",
    "write_checkpoint",
    "write_atomically",
    "read_checkpoint",
    "pack_tables",
    "unpack_tables",
    "unpack_run",
    "pack_memtable",
    "unpack_memtable",
    "namespaced_stem",
]

#: File magic: identifies a repro checkpoint, version 1.
CHECKPOINT_MAGIC = b"RPCKP1\x00\n"

_U32 = struct.Struct("<I")


def namespaced_stem(name: str, namespace: str = "") -> str:
    """Filesystem-safe, collision-free file stem for ``name``.

    Two different ``(namespace, name)`` pairs can never map to the same
    stem: the human-readable prefix is sanitised (and may collide), but
    the appended CRC-32 tag covers the *raw* pair with a separator no
    name can contain, so databases sharing one durability directory —
    e.g. the shards of a :class:`~repro.serving.ShardedDatabase` — keep
    their WALs, checkpoints and manifests apart.  The empty namespace
    reproduces the historical single-database stem byte-for-byte, so
    existing durability directories stay recoverable.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)[:80]
    if not namespace:
        return f"{safe}-{crc32(name.encode('utf-8')) & 0xFFFFFFFF:08x}"
    safe_ns = re.sub(r"[^A-Za-z0-9._-]", "_", namespace)[:40]
    tag = crc32(f"{namespace}\x00{name}".encode("utf-8")) & 0xFFFFFFFF
    return f"{safe_ns}~{safe}-{tag:08x}"


def write_checkpoint(
    path: str,
    meta: dict,
    arrays: dict[str, np.ndarray],
    faults: "FaultInjector | None" = None,
) -> None:
    """Atomically persist ``meta`` + ``arrays`` to ``path``.

    The file lands via ``os.replace`` of a same-directory temp file, so
    a crash mid-write leaves either the old checkpoint or none — never a
    half-written one.  (Byte-level corruption of a *completed* file is
    the fault injector's job and is caught by the trailing CRC.)
    """
    buffer = io.BytesIO()
    # np.savez requires str keys; sorted for deterministic bytes.
    np.savez(buffer, **{key: arrays[key] for key in sorted(arrays)})
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (
        CHECKPOINT_MAGIC
        + _U32.pack(len(meta_bytes))
        + meta_bytes
        + buffer.getvalue()
    )
    write_atomically(path, body, _U32.pack(crc32(body)))
    if faults is not None:
        faults.after_checkpoint_write(path, spare_prefix=len(CHECKPOINT_MAGIC))


def write_atomically(path: str, *chunks: bytes) -> None:
    """Land ``chunks`` at ``path`` all or nothing.

    They go to a same-directory temp file, which is flushed and fsynced
    before ``os.replace`` moves it over ``path`` — so a crash or power
    cut leaves the old file or the new one, never a torn or empty one.
    Checkpoints and both manifests (a database's, a fleet's) land here.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and integrity-check a checkpoint.

    Raises :class:`CheckpointError` when the file is missing and
    :class:`CheckpointCorruptError` when its CRC or framing is damaged
    or its meta block is not a JSON object.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"no such checkpoint: {path}")
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 2 * _U32.size:
        raise CheckpointCorruptError(f"{path}: truncated checkpoint")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"{path}: bad checkpoint magic")
    # Slices of a memoryview: the CRC and the meta block read the file's
    # bytes in place; only the array block is copied, once, for np.load.
    body = memoryview(blob)[: -_U32.size]
    if crc32(body) != _U32.unpack_from(blob, len(body))[0]:
        raise CheckpointCorruptError(
            f"{path}: checksum mismatch (torn or corrupted page)"
        )
    offset = len(CHECKPOINT_MAGIC)
    (meta_len,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    if offset + meta_len > len(body):
        raise CheckpointCorruptError(f"{path}: meta block overruns the file")
    try:
        meta = json.loads(bytes(body[offset : offset + meta_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"{path}: malformed meta block: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointCorruptError(f"{path}: meta block is not a JSON object")
    offset += meta_len
    try:
        with np.load(io.BytesIO(body[offset:])) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
    except (OSError, ValueError) as exc:
        raise CheckpointCorruptError(f"{path}: malformed array block: {exc}") from None
    return meta, arrays


# -- structure packing ---------------------------------------------------------


def pack_tables(
    arrays: dict[str, np.ndarray], prefix: str, tables: list[SSTable]
) -> None:
    """Store ``tables`` as four arrays under ``prefix`` (points + layout).

    Table boundaries are preserved exactly (``sizes``), not re-derived
    from the configured SSTable size, so a restored run is split
    identically to the live one.  ``blocks`` records each table's
    ``block_size`` — 0 for row, else the columnar block size — so
    cold-tier tables restore cold, laid out on the same grid.
    """
    if tables:
        arrays[f"{prefix}.tg"] = np.concatenate([t.tg for t in tables])
        arrays[f"{prefix}.ids"] = np.concatenate([t.ids for t in tables])
    else:
        arrays[f"{prefix}.tg"] = np.empty(0, dtype=np.float64)
        arrays[f"{prefix}.ids"] = np.empty(0, dtype=np.int64)
    arrays[f"{prefix}.sizes"] = np.asarray([len(t) for t in tables], dtype=np.int64)
    arrays[f"{prefix}.blocks"] = np.asarray(
        [t.block_size for t in tables], dtype=np.int64
    )


def unpack_tables(arrays: dict[str, np.ndarray], prefix: str) -> list[SSTable]:
    """Rebuild the table list stored by :func:`pack_tables`.

    Checkpoints written before the cold tier lack the ``blocks`` array;
    every table restores in the row format then, which is exactly what
    such a checkpoint contained.
    """
    tg = np.ascontiguousarray(arrays[f"{prefix}.tg"], dtype=np.float64)
    ids = np.ascontiguousarray(arrays[f"{prefix}.ids"], dtype=np.int64)
    sizes = arrays[f"{prefix}.sizes"]
    if int(sizes.sum(initial=0)) != tg.size or tg.size != ids.size:
        raise CheckpointCorruptError(
            f"{prefix}: table sizes do not cover the stored points"
        )
    blocks = arrays.get(f"{prefix}.blocks")
    if blocks is None:
        blocks = np.zeros(sizes.size, dtype=np.int64)
    elif blocks.size != sizes.size or np.any(blocks < 0):
        raise CheckpointCorruptError(
            f"{prefix}: block-size array must hold one entry >= 0 per table"
        )
    tables = []
    start = 0
    for size, block_size in zip(sizes, blocks):
        stop = start + int(size)
        try:
            tables.append(
                SSTable(tg[start:stop], ids[start:stop], block_size=int(block_size))
            )
        except EngineError as exc:  # empty or out of order
            raise CheckpointCorruptError(f"{prefix}: {exc}") from None
        start = stop
    return tables


def unpack_run(arrays: dict[str, np.ndarray], prefix: str) -> Run:
    """Rebuild a :class:`Run`; re-validates ordering/non-overlap."""
    run = Run()
    tables = unpack_tables(arrays, prefix)
    if tables:
        try:
            run.replace(slice(0, 0), tables)
        except EngineError as exc:
            raise CheckpointCorruptError(f"{prefix}: {exc}") from None
    return run


def pack_memtable(
    arrays: dict[str, np.ndarray], prefix: str, memtable: MemTable
) -> None:
    """Store a MemTable's buffered points in arrival (insertion) order.

    Insertion order matters: drains sort *stably*, so equal generation
    times keep their arrival order — the restored buffer must preserve
    it to stay bit-identical.
    """
    arrays[f"{prefix}.tg"] = memtable.peek_tg()
    arrays[f"{prefix}.ids"] = memtable.peek_ids()


def unpack_memtable(
    arrays: dict[str, np.ndarray], prefix: str, capacity: int, name: str
) -> MemTable:
    """Rebuild the MemTable stored by :func:`pack_memtable`.

    Arrays the table cannot have held — not 1-d, not aligned, or more
    points than its ``capacity`` — are :class:`CheckpointCorruptError`.
    """
    tg = np.ascontiguousarray(arrays[f"{prefix}.tg"], dtype=np.float64)
    ids = np.ascontiguousarray(arrays[f"{prefix}.ids"], dtype=np.int64)
    if tg.ndim != 1 or ids.shape != tg.shape or tg.size > capacity:
        raise CheckpointCorruptError(
            f"{prefix}: {tg.shape} generation times and {ids.shape} ids "
            f"cannot fill a {capacity}-point {name}"
        )
    memtable = MemTable(capacity, name=name)
    if tg.size:
        memtable.extend(tg, ids)
    return memtable
