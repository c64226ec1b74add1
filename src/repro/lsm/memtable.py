"""In-memory write buffers (MemTables).

Both policies buffer arrivals in MemTables before any disk write: one
``C0`` under the conventional policy, and a ``C_seq`` / ``C_nonseq`` pair
under separation (Figure 1).  A MemTable is a slab of its fixed
capacity: a batch is copied into the free tail of two preallocated
arrays, and points are only sorted when the table is drained for a
flush or merge, keeping per-point ingest cost negligible.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import EngineError
from .points import sort_by_generation

__all__ = ["MemTable", "EMPTY_TG", "EMPTY_IDS"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Shared read-only empty arrays: every empty peek (and every snapshot
#: of an empty MemTable) returns these instead of allocating.
EMPTY_TG = _frozen(np.empty(0, dtype=np.float64))
EMPTY_IDS = _frozen(np.empty(0, dtype=np.int64))


class MemTable:
    """A bounded buffer of points, drained in generation-time order.

    The points live in the filled prefix of a slab allocated at full
    capacity.  A slab is only ever written past its filled prefix, and
    :meth:`clear` swaps in a fresh one, so every view handed out — a
    peek, a snapshot, a checkpoint's arrays — keeps its contents.
    """

    def __init__(self, capacity: int, name: str = "memtable") -> None:
        if capacity < 1:
            raise EngineError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._tg = np.empty(capacity, dtype=np.float64)
        self._ids = np.empty(capacity, dtype=np.int64)
        self._size = 0
        #: Monotone content version: bumped by every extend/clear so the
        #: peek cache (and the kernel's snapshot cache) can key on it.
        self.version = 0
        self._peek_version = -1
        self._peek_tg = EMPTY_TG
        self._peek_ids = EMPTY_IDS

    def __len__(self) -> int:
        return self._size

    @property
    def room(self) -> int:
        """Points that still fit before the table is full."""
        return self.capacity - self._size

    @property
    def full(self) -> bool:
        """True when no more points fit."""
        return self._size >= self.capacity

    @property
    def empty(self) -> bool:
        """True when nothing is buffered."""
        return self._size == 0

    @property
    def max_tg(self) -> float:
        """Largest buffered generation time (``-inf`` when empty)."""
        size = self._size
        return float(self._tg[:size].max()) if size else -math.inf

    def extend(self, tg: np.ndarray, ids: np.ndarray) -> None:
        """Copy a batch into the slab; the batch must fit in the room."""
        count = tg.size
        if count != ids.size:
            raise EngineError(
                f"{self.name}: tg and ids must align ({count} vs {ids.size})"
            )
        if count == 0:
            return
        start = self._size
        if count > self.capacity - start:
            raise EngineError(
                f"{self.name}: batch of {count} exceeds room {self.room}"
            )
        stop = start + count
        self._tg[start:stop] = tg
        self._ids[start:stop] = ids
        self._size = stop
        self.version += 1

    def _refresh_peek(self) -> None:
        """Rebuild the cached read-only peek views for this version.

        The cache makes repeated peeks (snapshots between mutations,
        checkpoint packing after a snapshot) one object, and the views
        are frozen, so snapshots can share them safely: the slab is
        never written inside a prefix that was handed out.
        """
        if self._peek_version == self.version:
            return
        size = self._size
        if size:
            self._peek_tg = _frozen(self._tg[:size])
            self._peek_ids = _frozen(self._ids[:size])
        else:
            self._peek_tg = EMPTY_TG
            self._peek_ids = EMPTY_IDS
        self._peek_version = self.version

    def peek_tg(self) -> np.ndarray:
        """Unsorted view of the buffered generation times, in arrival
        order (read-only, cached per content version)."""
        self._refresh_peek()
        return self._peek_tg

    def peek_ids(self) -> np.ndarray:
        """Unsorted view of the buffered ids (read-only, cached)."""
        self._refresh_peek()
        return self._peek_ids

    def sorted_view(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tg, ids)`` sorted by generation time, *without* clearing.

        Compactions use this to stage their output before committing:
        the buffer still holds the points until :meth:`clear`, so an
        exception (or injected fault) between staging and commit leaves
        the engine state untouched.
        """
        size = self._size
        if not size:
            return EMPTY_TG, EMPTY_IDS
        return sort_by_generation(self._tg[:size], self._ids[:size])

    def clear(self) -> None:
        """Drop every buffered point (the commit half of a compaction).

        The table refills a fresh slab: views of the old one stay as
        they were."""
        self._tg = np.empty(self.capacity, dtype=np.float64)
        self._ids = np.empty(self.capacity, dtype=np.int64)
        self._size = 0
        self.version += 1

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Empty the table, returning ``(tg, ids)`` sorted by generation time."""
        tg, ids = self.sorted_view()
        self.clear()
        return tg, ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemTable(name={self.name!r}, size={self._size}/{self.capacity})"
