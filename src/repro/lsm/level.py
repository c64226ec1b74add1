"""A *run*: one level of non-overlapping, ordered SSTables.

"The SSTables on level L1 are organized without overlapping key ranges
with each other.  As a whole, data points on L1 are considered as a run"
(Section II).  :class:`Run` maintains that invariant and supports the two
operations leveled compaction needs: binary-search overlap lookup and
range replacement.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from ..errors import EngineError
from .sstable import SSTable

__all__ = ["Run"]


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
        # Same convention as ``intervals.overlap_span``: first table
        # whose max reaches ``lo`` up to the first whose min exceeds ``hi``.
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
        removed = self._tables[region]
        self._tables[region] = new_tables
        self._splice_bounds(region, new_tables)
        self._check_local_order(region.start, region.start + len(new_tables))
        return removed

    def append(self, new_tables: list[SSTable]) -> None:
        """Add tables strictly after the current maximum generation time."""
        if not new_tables:
            return
        if new_tables[0].min_tg <= self.max_tg:
            raise EngineError(
                f"append would overlap the run: new min {new_tables[0].min_tg} "
                f"<= run max {self.max_tg}"
            )
        end = len(self._tables)
        self._tables.extend(new_tables)
        self._splice_bounds(slice(end, end), new_tables)
        self._check_local_order(end, len(self._tables))

    def clear(self) -> list[SSTable]:
        """Remove every table, returning them."""
        removed = self._tables
        self._tables = []
        self._mins = []
        self._maxs = []
        self._lens = []
        self._points = 0
        return removed

    # -- invariants -----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`EngineError` if ordering/non-overlap is violated.

        Boundary *ties* are tolerated: duplicate generation times (which
        Definition 1 forbids but clients may produce) chunk into adjacent
        tables sharing a boundary value; overlap queries include both
        sides, so correctness is preserved.

        Intended for tests and debug assertions; engines rely on the
        local checks performed at each mutation.
        """
        for left, right in zip(self._tables, self._tables[1:]):
            if left.max_tg > right.min_tg:
                raise EngineError(
                    f"run overlap: {left!r} and {right!r} are not disjoint"
                )

    def _check_local_order(self, start: int, stop: int) -> None:
        lo = max(start - 1, 0)
        hi = min(stop + 1, len(self._tables))
        for i in range(lo, hi - 1):
            if self._tables[i].max_tg > self._tables[i + 1].min_tg:
                raise EngineError(
                    f"run overlap after mutation: {self._tables[i]!r} vs "
                    f"{self._tables[i + 1]!r}"
                )

    def _splice_bounds(self, region: slice, new_tables: list[SSTable]) -> None:
        """Update the cached min/max/length lists for one contiguous
        mutation: the entries in ``region`` become those of
        ``new_tables`` (an append is the empty region at the end)."""
        new_lens = [len(t) for t in new_tables]
        self._points += sum(new_lens) - sum(self._lens[region])
        self._mins[region] = [t.min_tg for t in new_tables]
        self._maxs[region] = [t.max_tg for t in new_tables]
        self._lens[region] = new_lens

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Run(tables={len(self._tables)}, points={self.total_points})"
