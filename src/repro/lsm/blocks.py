"""Pluggable SSTable block formats: row slabs and columnar cold blocks.

An :class:`~repro.lsm.sstable.SSTable` no longer owns its arrays
directly; it holds one *storage* object implementing a small block
format protocol:

``format``
    ``"row"`` or ``"columnar"`` — the on-disk layout tag, round-tripped
    through checkpoints.
``tg`` / ``ids``
    The full sorted column arrays.  Both formats expose them as
    contiguous numpy arrays, so every existing consumer (merges,
    checkpoints, invariant checks, range scans) reads either format
    identically — and bit-identically.
``stats`` / ``stats_nbytes``
    Block-granular zone-map statistics (``None``/zero for row tables).
``sum_tg``
    One ``np.sum`` over the whole ``tg`` column: recorded at build time
    by columnar tables, taken on first use (and kept) by row tables.

:class:`RowStorage` is exactly the pre-refactor layout: two arrays, no
metadata beyond the table's ``[min_tg, max_tg]`` range.

:class:`ColumnarStorage` is the cold-tier layout (the lifecycle-driven
row→column conversion of *Real-Time LSM-Trees for HTAP Workloads*): the
``tg`` and ``ids`` columns are chunked on a fixed ``block_size`` grid
into typed column blocks, and every block carries
``min/max/count/sum(tg)/sum(ids)`` statistics (:class:`BlockStats`).
Queries use those statistics two ways:

* *pruning* — a range scan touches only the contiguous block span that
  intersects the window (``query.blocks_skipped`` counts the rest);
* *stat-answered aggregation* — ``COUNT/MIN/MAX/SUM/AVG`` over fully
  covered tables are answered from metadata without touching the point
  arrays (``query.blocks_stat_answered``).

Bit-identity note: numpy's pairwise summation makes ``np.sum`` depend
on how an array is partitioned, so a sum recombined from per-block
partial sums would *not* be bitwise equal to the row path's
``float(table.tg.sum())``.  :class:`ColumnarStorage` therefore also
records the table-level ``sum_tg`` computed with one ``np.sum`` over
the whole column at build time — the exact float the row scan would
produce — and the per-block sums serve pruning/diagnostics only.

This format seam is deliberately narrow so future backends (mmap'd
blocks, zero-copy views over a shared arena, compressed columns) can
slot in behind the same protocol.
"""

from __future__ import annotations

import numpy as np

from .intervals import covered_span, overlap_span

__all__ = [
    "ROW_FORMAT",
    "COLUMNAR_FORMAT",
    "POINT_BYTES",
    "BLOCK_STAT_BYTES",
    "BlockStats",
    "RowStorage",
    "ColumnarStorage",
    "make_storage",
]

#: Format tags, as stored in checkpoints.
ROW_FORMAT = "row"
COLUMNAR_FORMAT = "columnar"

#: Simulated size of one data point on disk: float64 ``tg`` + int64 id.
POINT_BYTES = 16

#: Simulated resident size of one block-statistics entry: min, max,
#: count, sum(tg), sum(ids) — five 8-byte words kept in memory per
#: block.  This is what the backpressure debt model charges for a
#: columnar table (the point arrays live on simulated disk; the block
#: statistics are the part pinned in RAM).
BLOCK_STAT_BYTES = 40


class BlockStats:
    """Per-block zone maps of one columnar table.

    Blocks partition the table's sorted column on a fixed grid: block
    ``i`` covers rows ``[starts[i], starts[i] + counts[i])``.  Because
    the table is sorted by generation time, block min/max are simply
    the first/last element of each block, and consecutive blocks form
    an ordered, non-overlapping interval sequence (boundary ties
    allowed) — so block lookup reuses the same contiguous-span binary
    searches as runs and the pruning index.
    """

    __slots__ = ("starts", "counts", "mins", "maxs", "sums", "id_sums")

    def __init__(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
        sums: np.ndarray,
        id_sums: np.ndarray,
    ) -> None:
        self.starts = starts
        self.counts = counts
        self.mins = mins
        self.maxs = maxs
        self.sums = sums
        self.id_sums = id_sums

    @classmethod
    def build(cls, tg: np.ndarray, ids: np.ndarray, block_size: int) -> "BlockStats":
        """Compute statistics for ``tg``/``ids`` on a ``block_size`` grid."""
        starts = np.arange(0, tg.size, block_size, dtype=np.int64)
        ends = np.append(starts[1:], tg.size)
        return cls(
            starts=starts,
            counts=ends - starts,
            # Sorted column: block extrema are the boundary elements.
            mins=tg[starts].copy(),
            maxs=tg[ends - 1].copy(),
            sums=np.add.reduceat(tg, starts),
            id_sums=np.add.reduceat(ids, starts),
        )

    @property
    def nblocks(self) -> int:
        """Number of blocks in the table."""
        return int(self.starts.size)

    @property
    def nbytes(self) -> int:
        """Simulated resident bytes of the statistics themselves."""
        return self.nblocks * BLOCK_STAT_BYTES

    def overlapping(self, lo: float, hi: float) -> tuple[int, int]:
        """Contiguous ``[b0, b1)`` block span intersecting ``[lo, hi]``
        (clamped; empty overlap returns ``b0 == b1``)."""
        b0, b1 = overlap_span(self.mins, self.maxs, lo, hi)
        return b0, max(b0, b1)

    def covered(self, lo: float, hi: float) -> tuple[int, int]:
        """Contiguous ``[b0, b1)`` block span fully inside ``[lo, hi]``."""
        b0, b1 = covered_span(self.mins, self.maxs, lo, hi)
        return b0, max(b0, b1)

    def points_in(self, b0: int, b1: int) -> int:
        """Total points across blocks ``[b0, b1)``."""
        if b1 <= b0:
            return 0
        return int(self.counts[b0:b1].sum())


class RowStorage:
    """The original layout: two sorted arrays, no block metadata."""

    __slots__ = ("tg", "ids", "_sum_tg")

    format = ROW_FORMAT
    block_size = 0
    stats: BlockStats | None = None
    stats_nbytes = 0

    def __init__(self, tg: np.ndarray, ids: np.ndarray) -> None:
        self.tg = tg
        self.ids = ids
        self._sum_tg: float | None = None

    @property
    def sum_tg(self) -> float:
        """One whole-column ``np.sum`` — the float
        :attr:`ColumnarStorage.sum_tg` records at build time — taken on
        first use and kept with the table, so neither a flush nor an
        index rebuilt around this table pays for it again."""
        total = self._sum_tg
        if total is None:
            total = self._sum_tg = float(self.tg.sum())
        return total


class ColumnarStorage:
    """Cold-tier layout: column blocks plus per-block statistics."""

    __slots__ = ("tg", "ids", "block_size", "stats", "sum_tg")

    format = COLUMNAR_FORMAT

    def __init__(self, tg: np.ndarray, ids: np.ndarray, block_size: int) -> None:
        self.tg = tg
        self.ids = ids
        self.block_size = int(block_size)
        self.stats = BlockStats.build(tg, ids, self.block_size)
        # One whole-column np.sum — the exact float a row scan's
        # ``table.tg.sum()`` yields (see module docstring).
        self.sum_tg = float(tg.sum())

    @property
    def stats_nbytes(self) -> int:
        """Resident bytes of this table's block statistics."""
        return self.stats.nbytes

    def block_tg(self, index: int) -> np.ndarray:
        """The ``tg`` column of block ``index`` (zero-copy view)."""
        stats = self.stats
        start = int(stats.starts[index])
        return self.tg[start : start + int(stats.counts[index])]

    def block_ids(self, index: int) -> np.ndarray:
        """The ``ids`` column of block ``index`` (zero-copy view)."""
        stats = self.stats
        start = int(stats.starts[index])
        return self.ids[start : start + int(stats.counts[index])]


def make_storage(
    tg: np.ndarray, ids: np.ndarray, block_size: int = 0
) -> RowStorage | ColumnarStorage:
    """Build storage for validated arrays: columnar when ``block_size``
    is positive, row otherwise."""
    if block_size > 0:
        return ColumnarStorage(tg, ids, block_size)
    return RowStorage(tg, ids)
