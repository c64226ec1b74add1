"""Immutable SSTables: sorted, bounded slabs of points on simulated disk.

An SSTable is a thin handle over a pluggable block format
(:mod:`repro.lsm.blocks`): the default :class:`~repro.lsm.blocks.
RowStorage` is bit-identical to the historical two-array layout, while
:class:`~repro.lsm.blocks.ColumnarStorage` adds the cold tier's typed
column blocks with per-block statistics.  The table's logical content
— ``tg``, ``ids``, range metadata, overlap/count queries — is the same
through either format; only metadata (and what queries can skip) differ.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import EngineError
from .blocks import BlockStats, ColumnarStorage, RowStorage
from .intervals import interval_overlaps

__all__ = ["SSTable", "build_sstables"]

_SEQUENCE = itertools.count()


class SSTable:
    """An immutable sorted slab of points with a generation-time range.

    Entries within an SSTable "are sorted by the generation time"
    (Section I-A).  Instances are identified by a monotonically
    increasing sequence number so query-layer bookkeeping (files touched,
    seeks) can distinguish physical files.

    The point data lives in :attr:`storage` — a row or columnar block
    format.  Logical content is immutable; :meth:`convert_to_columnar`
    may swap the *layout* in place (same points, added statistics), the
    cold tier's lifecycle-driven row→column conversion.
    """

    __slots__ = ("storage", "table_id", "min_tg", "max_tg")

    def __init__(
        self,
        tg: np.ndarray | None = None,
        ids: np.ndarray | None = None,
        *,
        storage: RowStorage | ColumnarStorage | None = None,
    ) -> None:
        if storage is None:
            storage = RowStorage(tg, ids)
        elif tg is not None or ids is not None:
            raise EngineError("pass either (tg, ids) or storage, not both")
        tg = storage.tg
        ids = storage.ids
        if tg.size == 0:
            raise EngineError("an SSTable cannot be empty")
        if tg.shape != ids.shape:
            raise EngineError(
                f"tg and ids must align: {tg.shape} vs {ids.shape}"
            )
        _check_sorted(tg)
        self._adopt(storage)

    @classmethod
    def _of_checked(cls, storage: RowStorage | ColumnarStorage) -> "SSTable":
        """Wrap ``storage`` whose arrays the caller has already checked
        to be non-empty, aligned and sorted (:func:`build_sstables`
        checks a whole landing once instead of once per table)."""
        table = cls.__new__(cls)
        table._adopt(storage)
        return table

    def _adopt(self, storage: RowStorage | ColumnarStorage) -> None:
        tg = storage.tg
        self.storage = storage
        self.table_id = next(_SEQUENCE)
        # Range metadata sits on the query hot path (zone maps, pruning
        # index construction); materialise it once at build time.
        #: Earliest generation time in the table.
        self.min_tg = float(tg[0])
        #: Latest generation time in the table.
        self.max_tg = float(tg[-1])

    # -- block-format views ----------------------------------------------------

    @property
    def tg(self) -> np.ndarray:
        """Sorted generation times (contiguous, whatever the format)."""
        return self.storage.tg

    @property
    def ids(self) -> np.ndarray:
        """Arrival ids aligned with :attr:`tg`."""
        return self.storage.ids

    @property
    def is_columnar(self) -> bool:
        """True when this table uses the cold-tier columnar format."""
        return self.storage.format == "columnar"

    @property
    def block_stats(self) -> BlockStats | None:
        """Per-block statistics (``None`` for row tables)."""
        return self.storage.stats

    @property
    def stats_nbytes(self) -> int:
        """Resident bytes of block statistics (0 for row tables)."""
        return self.storage.stats_nbytes

    def convert_to_columnar(self, block_size: int) -> bool:
        """Swap a row table to the columnar format in place.

        Layout-only: the point arrays are reused as the column base, so
        content (and everything derived from it) is bit-identical.
        Returns True when a conversion happened, False when the table
        was already columnar.  Engines must invalidate structure caches
        (pruning index) afterwards — see ``StorageKernel.convert_cold``.
        """
        if block_size < 1:
            raise EngineError(f"block_size must be >= 1, got {block_size}")
        if self.is_columnar:
            return False
        self.storage = ColumnarStorage(self.storage.tg, self.storage.ids, block_size)
        return True

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.storage.tg.size)

    def overlaps(self, lo: float, hi: float) -> bool:
        """True when the table's range intersects ``[lo, hi]``."""
        return interval_overlaps(self.min_tg, self.max_tg, lo, hi)

    def count_in_range(self, lo: float, hi: float) -> int:
        """Number of points with ``lo <= tg <= hi`` (binary search)."""
        tg = self.storage.tg
        left = int(tg.searchsorted(lo, side="left"))
        return max(int(tg.searchsorted(hi, side="right")) - left, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SSTable(id={self.table_id}, n={len(self)}, "
            f"format={self.storage.format}, "
            f"range=[{self.min_tg:g}, {self.max_tg:g}])"
        )


def _check_sorted(tg: np.ndarray) -> None:
    if np.count_nonzero(tg[1:] < tg[:-1]):
        raise EngineError("SSTable points must be sorted by generation time")


def build_sstables(
    tg: np.ndarray, ids: np.ndarray, sstable_size: int
) -> list[SSTable]:
    """Split sorted ``(tg, ids)`` arrays into row-format SSTables of at
    most ``sstable_size`` points each (the last one may be smaller).

    Every landing writes its tables here; a table turns columnar only
    later, through ``StorageKernel.convert_cold``.
    """
    if sstable_size < 1:
        raise EngineError(f"sstable_size must be >= 1, got {sstable_size}")
    if tg.shape != ids.shape:
        raise EngineError(f"tg and ids must align: {tg.shape} vs {ids.shape}")
    # Sorted as a whole, so every chunk below is sorted too.
    _check_sorted(tg)
    if tg.size <= sstable_size:
        # The common landing: one table (none for no points), no loop.
        return [SSTable._of_checked(RowStorage(tg, ids))] if tg.size else []
    tables = []
    for start in range(0, tg.size, sstable_size):
        stop = start + sstable_size
        tables.append(SSTable._of_checked(RowStorage(tg[start:stop], ids[start:stop])))
    return tables
