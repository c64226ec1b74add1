"""A *run*: one level of non-overlapping, ordered SSTables.

"The SSTables on level L1 are organized without overlapping key ranges
with each other.  As a whole, data points on L1 are considered as a run"
(Section II).  :class:`Run` maintains that invariant and supports the two
operations leveled compaction needs: binary-search overlap lookup and
range replacement.

The run is also its own read index.  The per-table lists it keeps for
the write path are exactly what a range lookup searches, so
:meth:`Run.view` hands them to readers as they are — a
:class:`RunView`, no copy — and the run copies them only when it next
mutates while a view is out.  A held view therefore never changes, a
run nobody reads never copies, and a flush between two reads costs the
reader nothing beyond what the flush wrote.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

from ..errors import EngineError
from .sstable import SSTable

__all__ = ["Run", "RunView"]


def block_counts(tables: list[SSTable]) -> list[int]:
    """Columnar block count of each table (0 for a row table)."""
    return [table.nblocks for table in tables]


@dataclass(frozen=True, slots=True)
class RunView:
    """The per-table columns of one sorted, non-overlapping table
    sequence, frozen: parallel lists in run order, never mutated once
    handed out.

    ``blocks`` holds columnar block counts (0 for a row table) and
    ``sums`` each table's ``sum_tg`` — the float the table keeps —
    so a reader answers for any contiguous stretch of tables from list
    slices without visiting one.
    """

    tables: list[SSTable]
    mins: list[float]
    maxs: list[float]
    lens: list[int]
    blocks: list[int]
    sums: list[float]

    @classmethod
    def of(cls, tables: list[SSTable]) -> "RunView":
        """View over a plain sorted table list, built in O(T) (runs
        kept as lists, hand-built indexes); the list must not change
        afterwards."""
        return cls(
            tables,
            [table.min_tg for table in tables],
            [table.max_tg for table in tables],
            [len(table) for table in tables],
            block_counts(tables),
            [table.sum_tg for table in tables],
        )

    def __len__(self) -> int:
        return len(self.tables)


class Run:
    """An ordered sequence of non-overlapping SSTables."""

    def __init__(self) -> None:
        self._tables: list[SSTable] = []
        # Per-table min_tg / max_tg for binary search, spliced alongside
        # ``_tables`` on mutation.  Plain lists: a landing touches a
        # handful of entries, where ``bisect`` and list splicing beat a
        # numpy call, and appends grow them in amortised O(1).
        self._mins: list[float] = []
        self._maxs: list[float] = []
        # Per-table point counts and their total, maintained
        # incrementally: total_points sits on the stats/invariant hot
        # path and must not re-walk every table.
        self._lens: list[int] = []
        self._points = 0
        # Read-side columns (see RunView).  Not spliced per landing:
        # entries from ``_dirty`` on are stale and are brought up to
        # date when a view is next taken.
        self._blocks: list[int] = []
        self._sums: list[float] = []
        self._dirty = 0
        #: The view handed out since the last mutation, if any.  While
        #: set, a reader may hold the lists above: mutate copies.
        self._view: RunView | None = None

    # -- views ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[SSTable]:
        return iter(self._tables)

    @property
    def tables(self) -> list[SSTable]:
        """Ordered list of tables (do not mutate)."""
        return self._tables

    @property
    def empty(self) -> bool:
        """True when the run holds no tables."""
        return not self._tables

    @property
    def total_points(self) -> int:
        """Total points across the run (cached; O(1))."""
        return self._points

    def points_in(self, region: slice) -> int:
        """Total points across the tables in ``region``.

        Summed from the cached lengths — compactions count their
        rewrite volume without touching the victim tables.
        """
        return sum(self._lens[region])

    @property
    def max_tg(self) -> float:
        """``LAST(R).t_g``: the latest generation time on this level
        (``-inf`` when the run is empty)."""
        if not self._tables:
            return -math.inf
        return self._tables[-1].max_tg

    @property
    def min_tg(self) -> float:
        """Earliest generation time on this level (``inf`` when empty)."""
        if not self._tables:
            return math.inf
        return self._tables[0].min_tg

    def view(self) -> RunView:
        """The run's per-table lists as a frozen :class:`RunView`.

        O(1) while the run is unchanged; after landings, O(tables from
        the earliest one touched to the tail) to re-read block counts
        and sums there — a sum the table already holds is not
        taken again.
        """
        view = self._view
        if view is None:
            fresh = self._tables[self._dirty :]
            self._blocks[self._dirty :] = block_counts(fresh)
            self._sums[self._dirty :] = [table.sum_tg for table in fresh]
            self._dirty = len(self._tables)
            view = self._view = RunView(
                self._tables, self._mins, self._maxs, self._lens,
                self._blocks, self._sums,
            )
        return view

    # -- lookup -----------------------------------------------------------------

    def overlap_slice(self, lo: float, hi: float) -> slice:
        """Index slice of tables whose range intersects ``[lo, hi]``.

        Because the run is ordered and non-overlapping, the overlapping
        tables form one contiguous slice found by binary search.
        """
        if hi < lo:
            raise EngineError(f"inverted range: [{lo}, {hi}]")
        if not self._tables:
            return slice(0, 0)
        # The sorted-span convention of ``repro.lsm.intervals``: first
        # table whose max reaches ``lo`` up to the first whose min
        # exceeds ``hi``.
        start = bisect_left(self._maxs, lo)
        stop = bisect_right(self._mins, hi)
        if start >= stop:
            # No overlap: the insertion position keeps ordering correct.
            return slice(start, start)
        return slice(start, stop)

    def overlapping_tables(self, lo: float, hi: float) -> list[SSTable]:
        """Tables intersecting ``[lo, hi]``."""
        return self._tables[self.overlap_slice(lo, hi)]

    def count_points_above(self, value: float) -> int:
        """Number of points in the run with ``t_g > value``.

        With a MemTable whose minimum generation time is ``value``, this
        is exactly the run's *subsequent data point* count (Definition
        4).  Costs one binary search over tables plus one inside the
        boundary table.
        """
        if not self._tables:
            return 0
        # Tables entirely above `value` contribute fully.
        first_above = bisect_right(self._mins, value)
        count = sum(self._lens[first_above:])
        # The boundary table (if it straddles `value`) contributes a part.
        if first_above > 0:
            boundary = self._tables[first_above - 1]
            if boundary.max_tg > value:
                inside = int(boundary.tg.searchsorted(value, side="right"))
                count += len(boundary) - inside
        return count

    # -- mutation ----------------------------------------------------------------

    def replace(self, region: slice, new_tables: list[SSTable]) -> list[SSTable]:
        """Swap the tables in ``region`` for ``new_tables``; returns the
        removed tables.  Validates the non-overlap invariant locally."""
        self._touch(region.start)
        removed = self._tables[region]
        self._tables[region] = new_tables
        self._splice_bounds(region, new_tables)
        self._check_local_order(region.start, region.start + len(new_tables))
        return removed

    def append(self, new_tables: list[SSTable]) -> None:
        """Add tables strictly after the current maximum generation time."""
        if not new_tables:
            return
        end = len(self._tables)
        if new_tables[0].min_tg <= (self._maxs[-1] if end else -math.inf):
            raise EngineError(
                f"append would overlap the run: new min {new_tables[0].min_tg} "
                f"<= run max {self.max_tg}"
            )
        self._touch(end)
        self._tables += new_tables
        self._splice_bounds(slice(end, end), new_tables)
        self._check_local_order(end, end + len(new_tables))

    def clear(self) -> list[SSTable]:
        """Remove every table, returning them."""
        removed = self._tables
        # Fresh lists: a view that is out keeps the old ones.
        self._tables = []
        self._mins = []
        self._maxs = []
        self._lens = []
        self._points = 0
        self._blocks = []
        self._sums = []
        self._dirty = 0
        self._view = None
        return removed

    def relayout(self) -> None:
        """Tables changed layout in place (``convert_cold`` sets the block
        size on the shared handles): re-read every block count."""
        self._touch(0)

    def _check_local_order(self, start: int, stop: int) -> None:
        # From the spliced bound lists: no table attribute per pair.
        mins, maxs = self._mins, self._maxs
        for i in range(max(start - 1, 0), min(stop, len(maxs) - 1)):
            if maxs[i] > mins[i + 1]:
                raise EngineError(
                    f"run overlap after mutation: {self._tables[i]!r} vs "
                    f"{self._tables[i + 1]!r}"
                )

    def _touch(self, start: int) -> None:
        """Entries from ``start`` on are about to change."""
        if self._view is not None:
            # Copy on write: the lists now belong to whoever holds the
            # view; the run goes on with its own.
            self._tables = self._tables.copy()
            self._mins = self._mins.copy()
            self._maxs = self._maxs.copy()
            self._lens = self._lens.copy()
            self._blocks = self._blocks.copy()
            self._sums = self._sums.copy()
            self._view = None
        if start < self._dirty:
            self._dirty = start

    def _splice_bounds(self, region: slice, new_tables: list[SSTable]) -> None:
        """Update the cached min/max/length lists for one contiguous
        mutation: the entries in ``region`` become those of
        ``new_tables`` (an append is the empty region at the end)."""
        # One pass, sizes read off the arrays: a landing writes one or
        # two tables, where per-column comprehensions cost more.
        mins, maxs, lens = [], [], []
        for table in new_tables:
            mins.append(table.min_tg)
            maxs.append(table.max_tg)
            lens.append(table.tg.size)
        self._points += sum(lens) - sum(self._lens[region])
        self._mins[region] = mins
        self._maxs[region] = maxs
        self._lens[region] = lens

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Run(tables={len(self._tables)}, points={self.total_points})"
