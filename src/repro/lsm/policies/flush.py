"""Flush strategies: when and in what order MemTables move to disk.

The placement policy calls :meth:`FlushStrategy.on_memtable_full` after
every batch slice; ``flush_all`` calls :meth:`FlushStrategy.drain`.  The
strategy inspects MemTable fullness and asks the kernel to land a
MemTable — ``kernel.land(op, memtable)``, which drains the compaction
policy's ``land`` generator now or queues it on the scheduler:

* :class:`MergeFlush` — a full ``C0`` overlap-merges into the disk
  structure (``pi_c``'s "merge the data in C0 and those in SSTables
  which have overlapping key ranges");
* :class:`AppendFlush` — a full ``C0`` lands as-is (tiered level-0 runs,
  IoTDB's possibly-overlapping L1 files);
* :class:`SeparationFlush` — ``pi_s``'s protocol: ``C_seq`` appends,
  a full ``C_nonseq`` closes the *phase* — the partial ``C_seq`` is
  flushed first, then ``C_nonseq`` merges (Section IV);
* :class:`IndependentFlush` — each MemTable of the split lands
  independently as an append, in seq-then-nonseq order (how IoTDB's
  two MemTables flush to L1 without any foreground merge).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..base import LsmEngine

__all__ = [
    "FlushStrategy",
    "MergeFlush",
    "AppendFlush",
    "SeparationFlush",
    "IndependentFlush",
]


class FlushStrategy(abc.ABC):
    """Decides how full/buffered MemTables transition to disk."""

    #: Short label used by ``repro engines`` and composition tables.
    name: str = "abstract"

    def bind(self, kernel: "LsmEngine") -> None:
        """Attach to the owning kernel (called once, from the kernel)."""
        self.kernel = kernel

    @abc.abstractmethod
    def on_memtable_full(self) -> None:
        """React to a possibly-full MemTable after a batch slice."""

    @abc.abstractmethod
    def drain(self) -> None:
        """Persist every buffered point (end-of-workload drain)."""


class MergeFlush(FlushStrategy):
    """Single MemTable, overlap-merged into the disk structure on full."""

    name = "merge"

    def on_memtable_full(self) -> None:
        kernel = self.kernel
        memtable = kernel.placement.memtable
        if memtable.full:
            kernel.land("compact", memtable)

    def drain(self) -> None:
        kernel = self.kernel
        memtable = kernel.placement.memtable
        if not memtable.empty:
            kernel.land("compact", memtable)


class AppendFlush(FlushStrategy):
    """Single MemTable, landed as a new run/file on full (never merged)."""

    name = "append"

    def on_memtable_full(self) -> None:
        kernel = self.kernel
        memtable = kernel.placement.memtable
        if memtable.full:
            kernel.land("flush", memtable)

    def drain(self) -> None:
        kernel = self.kernel
        memtable = kernel.placement.memtable
        if not memtable.empty:
            kernel.land("flush", memtable)


class SeparationFlush(FlushStrategy):
    """``pi_s``: ``C_seq`` appends; a full ``C_nonseq`` closes the phase.

    A full ``C_nonseq`` takes priority — its merge must see the freshly
    flushed ``C_seq`` on disk so the watermark advances before the next
    classification.  All ``C_nonseq`` points sit below ``LAST(R).t_g``,
    so the just-appended seq tables are never rewritten by the merge.
    """

    name = "separation"

    def on_memtable_full(self) -> None:
        kernel = self.kernel
        placement = kernel.placement
        if placement.nonseq.full:
            self._close_phase()
        elif placement.seq.full:
            kernel.land("flush", placement.seq)

    def _close_phase(self) -> None:
        kernel = self.kernel
        placement = kernel.placement
        if not placement.seq.empty:
            kernel.land("flush", placement.seq)
        kernel.land("merge", placement.nonseq)

    def drain(self) -> None:
        kernel = self.kernel
        placement = kernel.placement
        if not placement.seq.empty:
            kernel.land("flush", placement.seq)
        if not placement.nonseq.empty:
            self._close_phase()


class IndependentFlush(FlushStrategy):
    """Split MemTables landing independently as appends (IoTDB style).

    No foreground merge happens at all: both MemTables flush as loose
    files and the compaction policy reorganises in the background.  The
    seq MemTable flushes first so the watermark advances before the
    out-of-order file lands.
    """

    name = "independent"

    def on_memtable_full(self) -> None:
        kernel = self.kernel
        placement = kernel.placement
        if placement.seq.full:
            kernel.land("flush", placement.seq)
        if placement.nonseq.full:
            kernel.land("flush", placement.nonseq)

    def drain(self) -> None:
        kernel = self.kernel
        for memtable in kernel.placement.memtables():
            if not memtable.empty:
                kernel.land("flush", memtable)
