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
(two comparisons), so :meth:`TableIndex.read_plan` hands the executors
*stretches* — ``(view, start, stop, covered)``: tables ``[start, stop)``
of one :class:`~repro.lsm.level.RunView`, every one of them fully inside
the window or every one of them cut by it — and a covered stretch is
answered from list slices of the view's per-table columns (point count,
block count, extrema, per-table sums) instead of table by table.  Only
the at most two tables straddling the window's edges are read, each
through :func:`cut`.

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

from bisect import bisect_left, bisect_right

import numpy as np

from ..errors import QueryError
from .blocks import ColumnarStorage, RowStorage
from .intervals import check_window, zone_map_hits
from .level import RunView, block_counts
from .sstable import SSTable

__all__ = ["TableIndex", "cut"]


def cut(
    table: SSTable, lo: float, hi: float
) -> tuple[RowStorage | ColumnarStorage, int, int, int, int]:
    """``(storage, left, right, b0, b1)``: the rows ``[left, right)``
    and columnar blocks ``[b0, b1)`` of ``table`` inside ``[lo, hi]``.

    One binary search per column per edge of the window that cuts the
    table; an edge at or beyond the table's own range needs none.  A
    row table has no blocks (``b0 == b1 == 0``); an empty block overlap
    comes back as ``b0 == b1``.
    """
    storage = table.storage
    tg = storage.tg
    stats = storage.stats
    if lo <= table.min_tg:
        left = b0 = 0
    else:
        left = int(tg.searchsorted(lo, side="left"))
        b0 = 0 if stats is None else int(stats.maxs.searchsorted(lo, side="left"))
    if table.max_tg <= hi:
        right = tg.size
        b1 = 0 if stats is None else stats.nblocks
    else:
        right = int(tg.searchsorted(hi, side="right"))
        b1 = 0 if stats is None else int(stats.mins.searchsorted(hi, side="right"))
    return storage, left, right, b0, max(b0, b1)


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
        if first < last:
            if start < first:
                out.append((view, start, first, False))
            out.append((view, first, last, True))
            if last < stop:
                out.append((view, last, stop, False))
        else:
            out.append((view, start, stop, False))


class _LooseGroup:
    """Vectorised zone-map filter over mutually-overlapping tables."""

    __slots__ = ("view", "_mins", "_maxs")

    def __init__(self, tables: list[SSTable]) -> None:
        mins = [t.min_tg for t in tables]
        maxs = [t.max_tg for t in tables]
        #: The group's tables in the shape a plan hands out.  ``sums``
        #: fills in as tables are first covered (see :meth:`plan`): a
        #: table no window has covered yet is never summed.
        self.view = RunView(
            tables, mins, maxs, [len(t) for t in tables], block_counts(tables),
            [0.0] * len(tables),
        )
        self._mins = np.asarray(mins, dtype=np.float64)
        self._maxs = np.asarray(maxs, dtype=np.float64)

    def overlapping(self, lo: float, hi: float) -> list[SSTable]:
        # Exactly SSTable.overlaps, evaluated for the whole group at once.
        tables = self.view.tables
        return [tables[i] for i in zone_map_hits(self._mins, self._maxs, lo, hi)]

    def plan(self, lo: float, hi: float, out: list) -> None:
        # No order to exploit: every hit is its own stretch of one.
        view = self.view
        for i in zone_map_hits(self._mins, self._maxs, lo, hi).tolist():
            covered = lo <= view.mins[i] and view.maxs[i] <= hi
            if covered:
                # Memoised on the storage; taken when first needed.
                view.sums[i] = view.tables[i].storage.sum_tg
            out.append((view, i, i + 1, covered))


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

    def read_plan(self, lo: float, hi: float) -> list[tuple[RunView, int, int, bool]]:
        """:meth:`overlapping` as stretches ``(view, start, stop,
        covered)`` in snapshot order: tables ``[start, stop)`` of
        ``view``, all fully inside ``[lo, hi]`` (``covered`` — answer
        them from slices of the view's columns) or all cut by it (read
        each through :func:`cut`).  A sorted run yields at most one
        covered stretch with at most one cut table on either side; a
        loose group yields its hits one by one."""
        lo, hi = check_window(lo, hi)
        out: list[tuple[RunView, int, int, bool]] = []
        for group in self._groups:
            group.plan(lo, hi, out)
        return out
