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
Those are a contiguous sub-span of the overlap span (two more binary
searches), so the group hands them to the executors as one
:class:`CoveredSpan` whose point count, block count, extrema and
per-table sums come from a lazily built **run summary** — two integer
prefix sums and the list of per-table ``sum_tg`` floats, three words
per table — instead of as tables to be visited one by one.  Only the at
most two tables straddling the window's edges are read.  The summary is
built once reads of the run have covered as many tables as it holds
(until then covered tables are handed out one by one: a run that is
flushed between reads never pays for a summary it would not reuse);
the per-table sums are memoised on the tables' storage, so an index
rebuilt after a flush re-sums only the tables the flush wrote.

Groups are recorded in snapshot order and lookups preserve that order,
so a pruned scan visits exactly the tables a full scan would have
visited, in the same sequence — collected rows (stable ties included)
are bit-identical.  The index is immutable; engines rebuild it only
when the disk structure actually changes (see the structure epoch on
:class:`~repro.lsm.policies.kernel.StorageKernel`).
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from ..errors import QueryError
from .intervals import check_window, covered_span, overlap_span, zone_map_hits
from .sstable import SSTable

__all__ = ["TableIndex", "CoveredSpan"]


def _prefix_sums(values: list[int]) -> np.ndarray:
    """``out[i] = sum(values[:i])`` as int64 (``len(values) + 1`` long)."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


class _SortedGroup:
    """Contiguous-slice lookup over one sorted, non-overlapping run."""

    __slots__ = (
        "tables", "_mins", "_maxs", "_walked", "_cum_points", "_cum_blocks", "_sums"
    )

    def __init__(self, tables: list[SSTable]) -> None:
        self.tables = tables
        self._mins = np.asarray([t.min_tg for t in tables], dtype=np.float64)
        self._maxs = np.asarray([t.max_tg for t in tables], dtype=np.float64)
        #: Covered tables handed out one by one so far (see _summarise).
        self._walked = 0
        # The run summary, built on first use (see the module docstring).
        self._cum_points: np.ndarray | None = None
        self._cum_blocks: np.ndarray | None = None
        self._sums: list[float] | None = None

    def overlapping(self, lo: float, hi: float) -> list[SSTable]:
        # One contiguous span — identical to Run.overlap_slice (both
        # delegate to intervals.overlap_span), hence to a linear scan.
        start, stop = overlap_span(self._mins, self._maxs, lo, hi)
        if start >= stop:
            return []
        return self.tables[start:stop]

    def plan(self, lo: float, hi: float, out: list) -> None:
        start, stop = overlap_span(self._mins, self._maxs, lo, hi)
        if start >= stop:
            return
        first, last = covered_span(self._mins, self._maxs, lo, hi)
        if first < last and self._summarise(last - first):
            # Covered tables overlap, so start <= first < last <= stop;
            # what is left on either side is the one table straddling
            # that edge.
            out.extend(self.tables[start:first])
            out.append(CoveredSpan(self, first, last))
            out.extend(self.tables[last:stop])
        else:
            out.extend(self.tables[start:stop])

    def _summarise(self, covered: int) -> bool:
        """Whether ``covered`` tables go out as one :class:`CoveredSpan`.

        A summary costs about one visit to every table of the run and
        dies with the index at the next flush, so on a run that is
        written between reads it would cost more than the few visits it
        saves.  Rent, then buy: covered tables go out one by one (their
        sums are memoised, a visit is cheap) until as many have as the
        run holds — by then a summary would have paid for itself — and
        as spans from there on.  Never more than twice the work of the
        better choice, whatever the mix of reads and writes; answers
        are the same either way.
        """
        size = len(self.tables)
        if self._walked < size:
            self._walked += covered
        return self._walked >= size

    def cum_points(self) -> np.ndarray:
        """Prefix sums of the tables' point counts."""
        cum = self._cum_points
        if cum is None:
            cum = self._cum_points = _prefix_sums(
                [t.storage.tg.size for t in self.tables]
            )
        return cum

    def aggregate_summary(self) -> tuple[np.ndarray, list[float]]:
        """``(prefix sums of block counts, per-table sum_tg)``."""
        sums = self._sums
        if sums is None:
            storages = [t.storage for t in self.tables]
            self._cum_blocks = _prefix_sums(
                [0 if s.stats is None else s.stats.nblocks for s in storages]
            )
            sums = self._sums = [s.sum_tg for s in storages]
        return self._cum_blocks, sums


class CoveredSpan:
    """Tables ``[start, stop)`` of one sorted group, ``stop > start``,
    every one of them fully inside the query window.

    Stands in a read plan where those tables would have stood, and
    answers for all of them at once from the group's run summary.
    """

    __slots__ = ("_group", "start", "stop")

    def __init__(self, group: _SortedGroup, start: int, stop: int) -> None:
        self._group = group
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def tables(self) -> list[SSTable]:
        """The covered tables themselves, in run order."""
        return self._group.tables[self.start : self.stop]

    @property
    def points(self) -> int:
        """Total points across the span."""
        cum = self._group.cum_points()
        return cum.item(self.stop) - cum.item(self.start)

    @property
    def min_tg(self) -> float:
        """Earliest generation time: the run is sorted, so the first
        table's."""
        return self._group.tables[self.start].min_tg

    @property
    def max_tg(self) -> float:
        """Latest generation time: the last table's."""
        return self._group.tables[self.stop - 1].max_tg

    @property
    def stat_blocks(self) -> int:
        """Columnar blocks across the span (row tables have none)."""
        cum = self._group.aggregate_summary()[0]
        return cum.item(self.stop) - cum.item(self.start)

    def fold(self, total: float) -> float:
        """``total`` plus every table's ``sum_tg``, added one by one.

        The strict left-to-right fold a per-table walk does — the same
        floats, added in the same order — so it is bitwise that walk's
        answer.  Differences of float prefix sums, pairwise ``np.sum``
        and the compensated built-in ``sum()`` of Python >= 3.12 all
        round differently.
        """
        sums = self._group.aggregate_summary()[1]
        return reduce(operator.add, sums[self.start : self.stop], total)


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
    ``kind`` is ``"sorted"`` (ordered, non-overlapping — binary search)
    or ``"loose"`` (zone-map filter).  The concatenation of the group
    table lists must equal the snapshot's table list.
    """

    __slots__ = ("_groups", "total_tables")

    def __init__(self, groups: list[tuple[str, list[SSTable]]]) -> None:
        self._groups: list[_SortedGroup | _LooseGroup] = []
        total = 0
        for kind, tables in groups:
            if not tables:
                continue
            total += len(tables)
            if kind == "sorted":
                self._groups.append(_SortedGroup(list(tables)))
            elif kind == "loose":
                self._groups.append(_LooseGroup(list(tables)))
            else:  # pragma: no cover - programming error
                raise QueryError(f"unknown index group kind {kind!r}")
        #: Number of tables covered by the index.
        self.total_tables = total

    def overlapping(self, lo: float, hi: float) -> list[SSTable]:
        """Tables intersecting ``[lo, hi]``, in snapshot order."""
        check_window(lo, hi)
        out: list[SSTable] = []
        for group in self._groups:
            out.extend(group.overlapping(lo, hi))
        return out

    def read_plan(self, lo: float, hi: float) -> list[SSTable | CoveredSpan]:
        """:meth:`overlapping`, with each sorted group's fully covered
        tables replaced — in place, so order is kept — by one
        :class:`CoveredSpan`."""
        check_window(lo, hi)
        out: list[SSTable | CoveredSpan] = []
        for group in self._groups:
            group.plan(lo, hi, out)
        return out
