"""Time-range pruning index over a snapshot's SSTables.

Range queries used to find their overlapping tables by scanning every
SSTable's ``[min_tg, max_tg]`` metadata linearly, so read latency grew
with the *table count* rather than with the *overlap* — the
read-amplification instability Luo & Carey analyse for LSM read paths.
:class:`TableIndex` replaces that scan with structure-aware lookup:

* a **sorted group** (one leveled/multilevel run, one tiered run, the
  IoTDB L2 run) is non-overlapping and ordered, so its overlapping
  tables form a contiguous slice found by two binary searches over the
  cached interval endpoints (O(log T));
* a **loose group** (IoTDB L1 flush files, any mutually-overlapping
  file set) falls back to a vectorised zone-map filter over the cached
  ``min``/``max`` arrays — still one numpy comparison instead of a
  Python-level walk.

Below table granularity the same zone-map idea continues into the
tables themselves: cold-tier columnar tables carry per-block
``min``/``max`` statistics (:class:`~repro.lsm.blocks.BlockStats`)
which reuse the identical interval math (:mod:`repro.lsm.intervals`)
to prune block spans inside a touched table.

A sorted group also answers for the tables a window *fully covers*.
Those are the overlap span less the end tables that straddle an edge
(two comparisons), so the group hands them to the executors as one
:class:`CoveredSpan` whose point count, block count, extrema and
per-table sums are list slices of the run's own per-table columns
instead of as tables to be visited one by one.  Only the at most two
tables straddling the window's edges are read.

The group owns no copy of any of it.  It searches a
:class:`~repro.lsm.level.RunView` — the lists the :class:`~repro.lsm.
level.Run` keeps current for the write path, handed out as they are and
copied by the run only if it mutates while a reader holds them — so
rebuilding the index after a flush is O(1) per run and a read after k
landings re-sums only the tables those landings wrote.  Runs kept as
plain lists (tiered) and hand-built indexes get the same view built in
O(T).

Groups are recorded in snapshot order and lookups preserve that order,
so a pruned scan visits exactly the tables a full scan would have
visited, in the same sequence — collected rows (stable ties included)
are bit-identical.  The index is immutable; engines rebuild it only
when the disk structure actually changes (see the structure epoch on
:class:`~repro.lsm.policies.kernel.StorageKernel`).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from functools import reduce

import numpy as np

from ..errors import QueryError
from .intervals import check_window, zone_map_hits
from .level import RunView
from .sstable import SSTable

__all__ = ["TableIndex", "CoveredSpan"]


class _SortedGroup:
    """Contiguous-slice lookup over one sorted, non-overlapping run."""

    __slots__ = ("view",)

    def __init__(self, view: RunView) -> None:
        self.view = view

    def overlapping(self, lo: float, hi: float) -> list[SSTable]:
        # One contiguous span — the convention of Run.overlap_slice and
        # intervals.overlap_span, hence identical to a linear scan.
        view = self.view
        start = bisect_left(view.maxs, lo)
        stop = bisect_right(view.mins, hi)
        if start >= stop:
            return []
        return view.tables[start:stop]

    def plan(self, lo: float, hi: float, out: list) -> None:
        view = self.view
        start = bisect_left(view.maxs, lo)
        stop = bisect_right(view.mins, hi)
        if start >= stop:
            return
        # One search per edge.  Every table after ``start`` begins at or
        # after its predecessor's end, which reaches ``lo``; every table
        # before ``stop - 1`` ends at or before its successor's start,
        # which is within ``hi``.  So only the two end tables can
        # straddle, and the covered span is the overlap span less those.
        first = start + (view.mins[start] < lo)
        last = stop - (hi < view.maxs[stop - 1])
        tables = view.tables
        if first < last:
            out.extend(tables[start:first])
            out.append(CoveredSpan(view, first, last))
            out.extend(tables[last:stop])
        else:
            out.extend(tables[start:stop])


class CoveredSpan:
    """Tables ``[start, stop)`` of one sorted run, ``stop > start``,
    every one of them fully inside the query window.

    Stands in a read plan where those tables would have stood, and
    answers for all of them at once from slices of the run's per-table
    columns.
    """

    __slots__ = ("_view", "start", "stop")

    def __init__(self, view: RunView, start: int, stop: int) -> None:
        self._view = view
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def tables(self) -> list[SSTable]:
        """The covered tables themselves, in run order."""
        return self._view.tables[self.start : self.stop]

    @property
    def points(self) -> int:
        """Total points across the span."""
        return sum(self._view.lens[self.start : self.stop])

    @property
    def min_tg(self) -> float:
        """Earliest generation time: the run is sorted, so the first
        table's."""
        return self._view.mins[self.start]

    @property
    def max_tg(self) -> float:
        """Latest generation time: the last table's."""
        return self._view.maxs[self.stop - 1]

    @property
    def stat_blocks(self) -> int:
        """Columnar blocks across the span (row tables have none)."""
        return sum(self._view.blocks[self.start : self.stop])

    def fold(self, total: float) -> float:
        """``total`` plus every table's ``sum_tg``, added one by one.

        The strict left-to-right fold a per-table walk does — the same
        floats, added in the same order — so it is bitwise that walk's
        answer.  Differences of float prefix sums, pairwise ``np.sum``
        and the compensated built-in ``sum()`` of Python >= 3.12 all
        round differently.
        """
        return reduce(operator.add, self._view.sums[self.start : self.stop], total)


class _LooseGroup:
    """Vectorised zone-map filter over mutually-overlapping tables."""

    __slots__ = ("tables", "_mins", "_maxs")

    def __init__(self, tables: list[SSTable]) -> None:
        self.tables = tables
        self._mins = np.asarray([t.min_tg for t in tables], dtype=np.float64)
        self._maxs = np.asarray([t.max_tg for t in tables], dtype=np.float64)

    def overlapping(self, lo: float, hi: float) -> list[SSTable]:
        # Exactly SSTable.overlaps, evaluated for the whole group at once.
        hits = zone_map_hits(self._mins, self._maxs, lo, hi)
        if hits.size == 0:
            return []
        tables = self.tables
        return [tables[i] for i in hits]

    def plan(self, lo: float, hi: float, out: list) -> None:
        out.extend(self.overlapping(lo, hi))


class TableIndex:
    """Immutable interval index over the tables of one snapshot.

    Built from ``(kind, tables)`` groups in snapshot order, where
    ``kind`` is ``"sorted"`` (ordered, non-overlapping — binary search;
    a table list, or the :class:`~repro.lsm.level.RunView` a
    :class:`~repro.lsm.level.Run` hands out) or ``"loose"`` (zone-map
    filter).  The concatenation of the group table lists must equal the
    snapshot's table list.
    """

    __slots__ = ("_groups", "total_tables")

    def __init__(self, groups: list[tuple[str, list[SSTable] | RunView]]) -> None:
        self._groups: list[_SortedGroup | _LooseGroup] = []
        total = 0
        for kind, tables in groups:
            if not tables:
                continue
            total += len(tables)
            if kind == "sorted":
                if not isinstance(tables, RunView):
                    tables = RunView.of(list(tables))
                self._groups.append(_SortedGroup(tables))
            elif kind == "loose":
                self._groups.append(_LooseGroup(list(tables)))
            else:  # pragma: no cover - programming error
                raise QueryError(f"unknown index group kind {kind!r}")
        #: Number of tables covered by the index.
        self.total_tables = total

    def overlapping(self, lo: float, hi: float) -> list[SSTable]:
        """Tables intersecting ``[lo, hi]``, in snapshot order."""
        lo, hi = check_window(lo, hi)
        out: list[SSTable] = []
        for group in self._groups:
            out.extend(group.overlapping(lo, hi))
        return out

    def read_plan(self, lo: float, hi: float) -> list[SSTable | CoveredSpan]:
        """:meth:`overlapping`, with each sorted group's fully covered
        tables replaced — in place, so order is kept — by one
        :class:`CoveredSpan`."""
        lo, hi = check_window(lo, hi)
        out: list[SSTable | CoveredSpan] = []
        for group in self._groups:
            group.plan(lo, hi, out)
        return out
