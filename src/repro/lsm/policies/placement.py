"""Placement policies: which MemTable buffers each arriving point.

The paper's two memory layouts (Section I / Definition 3):

* ``pi_c`` keeps one MemTable ``C0`` — :class:`SinglePlacement`;
* ``pi_s`` splits memory into ``C_seq`` / ``C_nonseq`` and classifies a
  point as in-order iff its generation time exceeds ``LAST(R).t_g``, the
  newest generation time on disk — :class:`SplitPlacement`.  The
  watermark is supplied by the compaction policy (it owns the disk
  state), so the split composes with any on-disk layout.

Both run the engine's hot ingest loop: slice the validated batch at
MemTable-filling events and hand control to the flush strategy after
every slice.  Between two flushes the watermark is constant, so a whole
look-ahead window classifies with one vectorised comparison.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from ...errors import EngineError
from ..checkpoint import pack_memtable, unpack_memtable
from ..memtable import MemTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..base import LsmEngine

__all__ = ["PlacementPolicy", "SinglePlacement", "SplitPlacement"]


class PlacementPolicy(abc.ABC):
    """Routes validated, id-assigned batches into MemTables."""

    #: Short label used by ``repro engines`` and composition tables.
    name: str = "abstract"

    def bind(self, kernel: "LsmEngine") -> None:
        """Attach to the owning kernel (called once, from the kernel)."""
        self.kernel = kernel

    @abc.abstractmethod
    def ingest(self, tg: np.ndarray, ids: np.ndarray) -> None:
        """Buffer a batch, invoking ``kernel.flush.on_memtable_full``
        after every slice that may have filled a MemTable."""

    @abc.abstractmethod
    def memtables(self) -> list[MemTable]:
        """Every MemTable, in drain/snapshot order."""

    @abc.abstractmethod
    def replace_memtable(self, memtable: MemTable) -> MemTable:
        """Detach ``memtable``, swapping in a fresh empty twin.

        Used by the scheduled landing path: the detached table keeps its
        points until the landing commits, while ingest continues into
        the replacement.  ``memtable`` must be one of this policy's live
        tables (identity, not equality)."""

    @abc.abstractmethod
    def pack(self, arrays: dict) -> None:
        """Serialise MemTable contents into checkpoint ``arrays``."""

    @abc.abstractmethod
    def unpack(self, arrays: dict) -> None:
        """Rebuild MemTables from checkpoint ``arrays``."""


class SinglePlacement(PlacementPolicy):
    """One MemTable ``C0`` of ``memory_budget`` points (``pi_c``)."""

    name = "single"

    def bind(self, kernel: "LsmEngine") -> None:
        super().bind(kernel)
        self.memtable = MemTable(kernel.config.memory_budget, name="C0")

    def ingest(self, tg: np.ndarray, ids: np.ndarray) -> None:
        kernel = self.kernel
        on_full = kernel.flush.on_memtable_full
        pos = 0
        total = tg.size
        while pos < total:
            # Re-read each iteration: a scheduled landing detaches the
            # full table and swaps in a fresh one mid-loop.
            memtable = self.memtable
            take = min(memtable.room, total - pos)
            memtable.extend(tg[pos : pos + take], ids[pos : pos + take])
            pos += take
            kernel._arrival_cursor = int(ids[pos - 1]) + 1
            if memtable.full:
                on_full()

    def memtables(self) -> list[MemTable]:
        return [self.memtable]

    def replace_memtable(self, memtable: MemTable) -> MemTable:
        if memtable is not self.memtable:
            raise EngineError("replace_memtable: not the live C0 MemTable")
        self.memtable = MemTable(memtable.capacity, name=memtable.name)
        return self.memtable

    def pack(self, arrays: dict) -> None:
        pack_memtable(arrays, "mem.c0", self.memtable)

    def unpack(self, arrays: dict) -> None:
        self.memtable = unpack_memtable(
            arrays, "mem.c0", self.kernel.config.memory_budget, "C0"
        )


def _fill_index(positions: np.ndarray, room: int, size: int) -> int:
    """Window index of the point that fills a table with ``room`` free
    slots, ``positions`` being the window indices of the points bound
    for that table; the window ``size`` when it gets fewer than ``room``.

    An already full table (a landing failed and left it so) reports
    index 0: one more point is placed and ``on_full`` gets to retry.
    """
    if room == 0:
        return 0
    return int(positions[room - 1]) if positions.size >= room else size


class SplitPlacement(PlacementPolicy):
    """Seq/nonseq MemTable split keyed on ``LAST(R).t_g`` (``pi_s``)."""

    name = "split"

    def bind(self, kernel: "LsmEngine") -> None:
        super().bind(kernel)
        config = kernel.config
        self.seq = MemTable(config.effective_seq_capacity, name="C_seq")
        self.nonseq = MemTable(config.nonseq_capacity, name="C_nonseq")

    def ingest(self, tg: np.ndarray, ids: np.ndarray) -> None:
        kernel = self.kernel
        # The kernel-level watermark folds in pending (queued but not
        # yet landed) seq flushes, so classification under the scheduler
        # matches the synchronous engine's.
        watermark = kernel.watermark
        on_full = kernel.flush.on_memtable_full
        pos = 0
        total = tg.size
        while pos < total:
            # Re-read each iteration: a scheduled landing detaches full
            # tables and swaps in fresh ones mid-loop.
            seq = self.seq
            nonseq = self.nonseq
            seq_room = seq.room
            nonseq_room = nonseq.room
            # Pigeonhole: room_seq + room_nonseq - 1 points cannot all be
            # placed without filling one table, so the next fill event
            # lies inside that window and nothing beyond it needs
            # classifying yet.
            stop = pos + max(seq_room + nonseq_room - 1, 1)
            chunk = tg[pos:stop]
            chunk_ids = ids[pos:stop]
            size = chunk.size
            # The watermark is constant until the next flush/merge, so
            # the whole window classifies with one comparison.
            is_seq = chunk > watermark()
            if size < seq_room and size < nonseq_room:
                # Even if every point lands in one MemTable it cannot
                # fill, so skip the fill-event scan.  (A window this
                # short is the whole remaining batch.)
                seq.extend(chunk[is_seq], chunk_ids[is_seq])
                not_seq = ~is_seq
                nonseq.extend(chunk[not_seq], chunk_ids[not_seq])
                kernel._arrival_cursor = int(chunk_ids[-1]) + 1
                return
            seq_at = is_seq.nonzero()[0]
            nonseq_at = (~is_seq).nonzero()[0]
            # The fill event is the earlier of the two tables' fills;
            # the points up to it go out by position, each table's in
            # arrival order.
            take = min(
                _fill_index(seq_at, seq_room, size),
                _fill_index(nonseq_at, nonseq_room, size),
                size - 1,
            ) + 1
            seq_at = seq_at[: int(seq_at.searchsorted(take))]
            nonseq_at = nonseq_at[: take - seq_at.size]
            seq.extend(chunk[seq_at], chunk_ids[seq_at])
            nonseq.extend(chunk[nonseq_at], chunk_ids[nonseq_at])
            pos += take
            kernel._arrival_cursor = int(chunk_ids[take - 1]) + 1
            on_full()

    def memtables(self) -> list[MemTable]:
        return [self.seq, self.nonseq]

    def replace_memtable(self, memtable: MemTable) -> MemTable:
        if memtable is self.seq:
            self.seq = MemTable(memtable.capacity, name=memtable.name)
            return self.seq
        if memtable is self.nonseq:
            self.nonseq = MemTable(memtable.capacity, name=memtable.name)
            return self.nonseq
        raise EngineError("replace_memtable: not a live split MemTable")

    def pack(self, arrays: dict) -> None:
        pack_memtable(arrays, "mem.seq", self.seq)
        pack_memtable(arrays, "mem.nonseq", self.nonseq)

    def unpack(self, arrays: dict) -> None:
        config = self.kernel.config
        self.seq = unpack_memtable(
            arrays, "mem.seq", config.effective_seq_capacity, "C_seq"
        )
        self.nonseq = unpack_memtable(
            arrays, "mem.nonseq", config.nonseq_capacity, "C_nonseq"
        )
