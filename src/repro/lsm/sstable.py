"""Immutable SSTables: sorted, bounded slabs of points on simulated disk.

An SSTable holds its two sorted columns, ``tg`` and ``ids``, and a
``block_size``: 0 for a row table, the statistics block size for a
cold-tier columnar one (the lifecycle-driven row→column conversion of
*Real-Time LSM-Trees for HTAP Workloads*).  A columnar table is its
block grid: block ``k`` holds rows ``[k·bs, (k + 1)·bs)`` of the same
columns, so the block a row sits in, the span a window overlaps and the
points that span holds are all arithmetic on row positions
(:func:`~repro.lsm.pruning.edge_slice`) — no per-block array is built
or kept.  The table's logical content — ``tg``, ``ids``, range
metadata, overlap/count queries — is the same in either layout; only
cost accounting (blocks skipped, points read) and the modelled
statistics memory differ.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import EngineError
from .intervals import interval_overlaps

__all__ = ["BLOCK_STAT_BYTES", "POINT_BYTES", "SSTable", "build_sstables"]

_SEQUENCE = itertools.count()

#: Simulated size of one data point on disk: float64 ``tg`` + int64 id.
POINT_BYTES = 16

#: Modelled resident size of one columnar block's statistics: min, max,
#: count, sum(tg), sum(ids) — five 8-byte words per block.  A charge,
#: not an object in memory: the backpressure debt model counts it
#: against the memory budget for every block of a columnar table (the
#: point arrays live on simulated disk; a real cold tier would pin its
#: zone maps in RAM).
BLOCK_STAT_BYTES = 40


class SSTable:
    """An immutable sorted slab of points with a generation-time range.

    Entries within an SSTable "are sorted by the generation time"
    (Section I-A).  Instances are identified by a monotonically
    increasing sequence number so query-layer bookkeeping (files touched,
    seeks) can distinguish physical files.

    Logical content is immutable; :meth:`convert_to_columnar` may set
    the *layout* in place (same points, a block grid on them), the cold
    tier's row→column conversion.
    """

    __slots__ = ("tg", "ids", "block_size", "table_id", "min_tg", "max_tg", "_sum_tg")

    def __init__(self, tg: np.ndarray, ids: np.ndarray, *, block_size: int = 0) -> None:
        if tg.size == 0:
            raise EngineError("an SSTable cannot be empty")
        if tg.shape != ids.shape:
            raise EngineError(
                f"tg and ids must align: {tg.shape} vs {ids.shape}"
            )
        if block_size < 0:
            raise EngineError(f"block_size must be >= 0, got {block_size}")
        _check_sorted(tg)
        self._adopt(tg, ids, block_size)

    @classmethod
    def _of_checked(cls, tg: np.ndarray, ids: np.ndarray) -> "SSTable":
        """A row table over arrays the caller has already checked to be
        non-empty, aligned and sorted (:func:`build_sstables` checks a
        whole landing once instead of once per table)."""
        table = cls.__new__(cls)
        table._adopt(tg, ids, 0)
        return table

    def _adopt(self, tg: np.ndarray, ids: np.ndarray, block_size: int) -> None:
        #: Sorted generation times.
        self.tg = tg
        #: Arrival ids aligned with :attr:`tg`.
        self.ids = ids
        #: Points per statistics block; 0 for a row table.
        self.block_size = int(block_size)
        self.table_id = next(_SEQUENCE)
        # Range metadata sits on the query hot path (zone maps, pruning
        # index construction); materialise it once at build time.
        #: Earliest generation time in the table.
        self.min_tg = float(tg[0])
        #: Latest generation time in the table.
        self.max_tg = float(tg[-1])
        # A columnar table is laid out with its sum; a row table takes
        # it on first use (see :attr:`sum_tg`).
        self._sum_tg = float(tg.sum()) if block_size else None

    # -- layout ----------------------------------------------------------------

    @property
    def sum_tg(self) -> float:
        """One whole-column ``np.sum`` — the exact float a row scan's
        ``tg.sum()`` yields (a sum recombined from per-block partial sums
        would not be bitwise equal: numpy's pairwise summation depends
        on the partition).  A columnar table takes it when laid out; a
        row table on first use, kept with the table so neither a flush
        nor an index rebuilt around it pays for it again."""
        total = self._sum_tg
        if total is None:
            total = self._sum_tg = float(self.tg.sum())
        return total

    @property
    def is_columnar(self) -> bool:
        """True when this table is laid out on a block grid."""
        return self.block_size > 0

    @property
    def nblocks(self) -> int:
        """Blocks on the grid, ``ceil(n / block_size)`` (0 for a row table)."""
        size = self.block_size
        return -(-self.tg.size // size) if size else 0

    @property
    def stats_nbytes(self) -> int:
        """Modelled resident bytes of block statistics (0 for a row table)."""
        return self.nblocks * BLOCK_STAT_BYTES

    def convert_to_columnar(self, block_size: int) -> bool:
        """Lay a row table out on a ``block_size`` grid in place.

        Layout-only: the point arrays are the columns, so content (and
        everything derived from it) is bit-identical.  Returns True when
        a conversion happened, False when the table was already
        columnar.  Engines must invalidate structure caches (pruning
        index) afterwards — see ``StorageKernel.convert_cold``.
        """
        if block_size < 1:
            raise EngineError(f"block_size must be >= 1, got {block_size}")
        if self.is_columnar:
            return False
        self.block_size = int(block_size)
        self._sum_tg = float(self.tg.sum())
        return True

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.tg.size)

    def overlaps(self, lo: float, hi: float) -> bool:
        """True when the table's range intersects ``[lo, hi]``."""
        return interval_overlaps(self.min_tg, self.max_tg, lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SSTable(id={self.table_id}, n={len(self)}, "
            f"block_size={self.block_size}, "
            f"range=[{self.min_tg:g}, {self.max_tg:g}])"
        )


def _check_sorted(tg: np.ndarray) -> None:
    if np.count_nonzero(tg[1:] < tg[:-1]):
        raise EngineError("SSTable points must be sorted by generation time")


def build_sstables(
    tg: np.ndarray, ids: np.ndarray, sstable_size: int
) -> list[SSTable]:
    """Split sorted ``(tg, ids)`` arrays into row SSTables of at most
    ``sstable_size`` points each (the last one may be smaller).

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
        return [SSTable._of_checked(tg, ids)] if tg.size else []
    tables = []
    for start in range(0, tg.size, sstable_size):
        stop = start + sstable_size
        tables.append(SSTable._of_checked(tg[start:stop], ids[start:stop]))
    return tables
