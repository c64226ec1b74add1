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

Below table granularity the same idea continues into the tables
themselves: a cold-tier columnar table is a fixed block grid over its
sorted column, so the blocks a window overlaps inside a touched table
are one contiguous span, found by division on the rows the table's own
binary searches already give (:func:`edge_slice`).

A sorted group also answers for the tables a window *fully covers*.
Those are the overlap span less the end tables that straddle an edge
(two comparisons), so :meth:`TableIndex.read_plan` hands the executors
one *plan entry* per run — ``(view, start, first, last, stop)``: tables
``[start, stop)`` of one :class:`~repro.lsm.level.RunView` overlap the
window, tables ``[first, last)`` lie fully inside it — and a covered
span is answered from list slices of the view's per-table columns
(point count, block count, extrema, per-table sums) instead of table by
table.  Only the at most two tables an edge cuts — ``start`` when
``start < first``, ``stop - 1`` when ``last < stop``, one table when
both edges cut it (``first > last``) — are read, each through
:func:`edge_slice`.

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
from .intervals import check_window, zone_map_hits
from .level import RunView, block_counts
from .sstable import SSTable

__all__ = ["PlanEntry", "TableIndex", "edge_slice"]

#: ``(view, start, first, last, stop)``: one sorted run's share of a
#: window (see :meth:`TableIndex.read_plan`).
PlanEntry = tuple[RunView, int, int, int, int]


def edge_slice(
    table: SSTable, lo: float, hi: float
) -> tuple[np.ndarray, int, int, int, int]:
    """``(tg, left, right, read, skipped)`` of a table ``[lo, hi]``
    cuts: the rows ``[left, right)`` of its ``tg`` column inside the
    window, the points a scan of it reads from disk and the columnar
    blocks the window lets it skip.

    One binary search per edge of the window that cuts the table; an
    edge at or beyond the table's own range needs none.  A row table is
    read whole and has no blocks.  A columnar table is its block grid —
    block ``k`` holds rows ``[k·bs, (k + 1)·bs)`` — and is read over the
    block span that overlaps the window, found by division: the rows
    already found are all the search it needs.  The first overlapping
    block holds row ``left`` (none does when ``left == n``), the last
    one row ``right - 1``; the span holds its blocks' rows, the last
    block clipped at ``n``.
    """
    tg = table.tg
    n = tg.size
    left = 0 if lo <= table.min_tg else int(tg.searchsorted(lo, side="left"))
    right = n if table.max_tg <= hi else int(tg.searchsorted(hi, side="right"))
    size = table.block_size
    if not size:
        return tg, left, right, n, 0
    nblocks = table.nblocks
    if left == n:
        return tg, left, right, 0, nblocks
    b0 = left // size
    b1 = -(-right // size)
    return tg, left, right, min(b1 * size, n) - b0 * size, nblocks - (b1 - b0)


class _SortedGroup:
    """Contiguous-slice lookup over one sorted, non-overlapping run."""

    __slots__ = ("view",)

    def __init__(self, view: RunView) -> None:
        self.view = view

    def overlapping(self, lo: float, hi: float) -> list[SSTable]:
        # One contiguous span — the convention of Run.overlap_slice,
        # hence identical to a linear scan.
        view = self.view
        start = bisect_left(view.maxs, lo)
        stop = bisect_right(view.mins, hi)
        if start >= stop:
            return []
        return view.tables[start:stop]

    def plan(self, lo: float, hi: float, out: list[PlanEntry]) -> None:
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
        out.append((
            view,
            start,
            start + (view.mins[start] < lo),
            stop - (hi < view.maxs[stop - 1]),
            stop,
        ))


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

    def plan(self, lo: float, hi: float, out: list[PlanEntry]) -> None:
        # No order to exploit: every hit is its own entry of one table,
        # covered (``first < last``) or cut on the edges it straddles.
        view = self.view
        mins, maxs = view.mins, view.maxs
        for i in zone_map_hits(self._mins, self._maxs, lo, hi).tolist():
            first = i + (mins[i] < lo)
            last = i + 1 - (hi < maxs[i])
            if first < last:
                # Kept with the table; taken when first needed.
                view.sums[i] = view.tables[i].sum_tg
            out.append((view, i, first, last, i + 1))


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

    def read_plan(self, lo: float, hi: float) -> list[PlanEntry]:
        """:meth:`overlapping` as plan entries ``(view, start, first,
        last, stop)`` in snapshot order, one per sorted run that meets
        ``[lo, hi]``: its tables ``[start, stop)`` overlap the window and
        ``[first, last)`` of them lie fully inside it (answer those from
        slices of the view's columns).  The rest are cut by an edge —
        ``start`` when ``start < first``, ``stop - 1`` when ``last <
        stop``, the one table when ``first > last`` — and are read
        through :func:`edge_slice`.  A loose group yields one entry per
        hit."""
        lo, hi = check_window(lo, hi)
        out: list[PlanEntry] = []
        for group in self._groups:
            group.plan(lo, hi, out)
        return out
