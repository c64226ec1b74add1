"""In-memory write buffers (MemTables).

Both policies buffer arrivals in MemTables before any disk write: one
``C0`` under the conventional policy, and a ``C_seq`` / ``C_nonseq`` pair
under separation (Figure 1).  Batches are accumulated as array segments
and only sorted when the table is drained for a flush or merge, keeping
per-point ingest cost negligible.
"""

from __future__ import annotations

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
    """A bounded buffer of points, drained in generation-time order."""

    def __init__(self, capacity: int, name: str = "memtable") -> None:
        if capacity < 1:
            raise EngineError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._tg_segments: list[np.ndarray] = []
        self._id_segments: list[np.ndarray] = []
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

    def extend(self, tg: np.ndarray, ids: np.ndarray) -> None:
        """Append a batch; the batch must fit in the remaining room."""
        if tg.size != ids.size:
            raise EngineError(
                f"{self.name}: tg and ids must align ({tg.size} vs {ids.size})"
            )
        if tg.size == 0:
            return
        if tg.size > self.room:
            raise EngineError(
                f"{self.name}: batch of {tg.size} exceeds room {self.room}"
            )
        self._tg_segments.append(np.asarray(tg, dtype=np.float64))
        self._id_segments.append(np.asarray(ids, dtype=np.int64))
        self._size += int(tg.size)
        self.version += 1

    def _refresh_peek(self) -> None:
        """Rebuild the cached read-only peek arrays for this version.

        The cache makes repeated peeks (snapshots between mutations,
        checkpoint packing after a snapshot) free, and returning frozen
        arrays means snapshot views can share them safely: a later
        extend/clear builds *new* arrays, it never touches these.
        """
        if self._peek_version == self.version:
            return
        if not self._tg_segments:
            self._peek_tg = EMPTY_TG
            self._peek_ids = EMPTY_IDS
        elif len(self._tg_segments) == 1:
            # Nothing to join: freeze a view, the segment stays as it is.
            self._peek_tg = _frozen(self._tg_segments[0].view())
            self._peek_ids = _frozen(self._id_segments[0].view())
        else:
            self._peek_tg = _frozen(np.concatenate(self._tg_segments))
            self._peek_ids = _frozen(np.concatenate(self._id_segments))
        self._peek_version = self.version

    def peek_tg(self) -> np.ndarray:
        """Unsorted concatenated view of buffered generation times.

        Read-only and cached per content version — callers share one
        frozen array instead of each paying a concatenation copy.
        """
        self._refresh_peek()
        return self._peek_tg

    def peek_ids(self) -> np.ndarray:
        """Unsorted concatenated view of buffered ids (read-only, cached)."""
        self._refresh_peek()
        return self._peek_ids

    def sorted_view(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tg, ids)`` sorted by generation time, *without* clearing.

        Compactions use this to stage their output before committing:
        the buffer still holds the points until :meth:`clear`, so an
        exception (or injected fault) between staging and commit leaves
        the engine state untouched.
        """
        # Straight from the segments: the peek cache would freeze a
        # join this landing reads once.
        segments = self._tg_segments
        if len(segments) == 1:
            return sort_by_generation(segments[0], self._id_segments[0])
        if not segments:
            return EMPTY_TG, EMPTY_IDS
        return sort_by_generation(
            np.concatenate(segments), np.concatenate(self._id_segments)
        )

    def clear(self) -> None:
        """Drop every buffered point (the commit half of a compaction)."""
        self._tg_segments.clear()
        self._id_segments.clear()
        self._size = 0
        self.version += 1

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Empty the table, returning ``(tg, ids)`` sorted by generation time."""
        tg, ids = self.sorted_view()
        self.clear()
        return tg, ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemTable(name={self.name!r}, size={self._size}/{self.capacity})"
