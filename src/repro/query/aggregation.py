"""Aggregate queries over generation-time ranges.

Monitoring dashboards rarely fetch raw points; they ask for ``COUNT``,
``MIN``/``MAX`` or ``AVG`` over a window.  The LSM layout affects these
queries the same way it affects scans — overlapping SSTables must all be
consulted — but aggregates over *generation time* can exploit SSTable
ordering: a table fully inside the window contributes its point count
and min/max bounds without reading its interior.

A sorted run goes one step further than the table: the tables a window
fully covers are one contiguous span of the run, so the pruning index
hands the run over as one plan entry (:meth:`TableIndex.read_plan
<repro.lsm.pruning.TableIndex.read_plan>`) whose covered span is
answered here from slices of the run's own per-table columns — count
and block count from integer lists, extrema from the span's end
entries, ``total`` from the memoised per-table sums.  The *work* per
sorted run is therefore one binary search per window edge over the
run, one more inside each table an edge cuts (at most two, the only
ones read, through :func:`~repro.lsm.pruning.edge_slice`), and four
list slices, whatever the window's width.  A MemTable whose own
``[min, max]`` misses the window is not looked at.  Loose groups and
index-less snapshots have no such order to exploit and hand their
tables over one entry each, through the same loop.

Within a table the cold tier does the same.  A columnar table fully
inside the window is answered **entirely from metadata**: its count,
min/max *and* the sum taken when it was laid out on its block grid, so
the point arrays are never touched (``blocks_stat_answered`` counts the
blocks so answered).  A columnar table that straddles a boundary falls
back to the row path's binary-searched slice — the fixed block grid
still reports how many blocks the window excludes (``blocks_skipped``),
by division on the rows the slice already found.

Bit-identity: a table's ``sum_tg`` is the float produced by one
``np.sum`` over the whole column — taken when a columnar table is laid
out, on first use by a row table — straddling tables share
one slice routine (:func:`repro.lsm.pruning.edge_slice`), and a covered
span adds its tables' ``sum_tg`` to ``total`` one after another in run
order, between the slices of the tables cut by ``lo`` and by ``hi``,
exactly as a walk over them would.  Same floats, same order of
additions: every aggregate is bitwise equal whether its tables are row
or columnar, indexed or not (numpy's pairwise summation forbids
recombining *partial* block sums, and float prefix-sum differences round
differently too; see :attr:`~repro.lsm.sstable.SSTable.sum_tg`).

Engines in this package do not materialise values (WA does not depend on
them), so aggregates are computed over generation timestamps themselves;
the pruning logic is identical for any per-table summarised value.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import NamedTuple

import numpy as np

from ..lsm.base import Snapshot
from ..lsm.intervals import check_window
from ..lsm.pruning import edge_slice
from ..obs.telemetry import Telemetry

__all__ = ["AggregateResult", "execute_aggregate_query"]

_sum = np.add.reduce


class AggregateResult(NamedTuple):
    """COUNT/MIN/MAX/SUM/AVG of generation times in ``[lo, hi]``.

    An immutable value, built once per series of every aggregate and
    once more per fold: a tuple is a quarter of the cost of a frozen
    dataclass to construct.  Derive a changed copy with ``_replace``.
    """

    lo: float
    hi: float
    count: int
    minimum: float
    maximum: float
    total: float
    #: Tables whose interiors had to be scanned (straddle the bounds).
    tables_scanned: int
    #: Tables answered from their metadata alone (fully inside range).
    tables_pruned: int
    #: Columnar blocks whose contribution came from block statistics
    #: without touching the point arrays (cold-tier fast path).
    blocks_stat_answered: int = 0
    #: Columnar blocks excluded by per-block zone maps in straddling
    #: tables (their points were never part of the slice arithmetic).
    blocks_skipped: int = 0

    @property
    def mean(self) -> float:
        """Average generation time in range (NaN when empty)."""
        if self.count == 0:
            return float("nan")
        return self.total / self.count


def execute_aggregate_query(
    snapshot: Snapshot,
    lo: float,
    hi: float,
    telemetry: Telemetry | None = None,
) -> AggregateResult:
    """Aggregate ``lo <= t_g <= hi`` with metadata pruning.

    Tables entirely inside the range contribute without a scan — a
    sorted run's as one span of its per-table columns, a columnar
    table's from block statistics alone; only boundary-straddling
    tables (at most two per sorted run) and the MemTables the window
    reaches are read point-by-point.  With a
    ``telemetry`` bus attached the cold-tier counters
    ``query.blocks_stat_answered`` / ``query.blocks_skipped`` and
    ``query.aggregate_count`` are incremented per query.  A NaN or
    non-real bound, or ``hi < lo``, raises
    :class:`~repro.errors.QueryError`; the result reports the bounds as
    Python floats.
    """
    lo, hi = check_window(lo, hi)
    count = 0
    minimum = math.inf
    maximum = -math.inf
    total = 0.0
    scanned = 0
    pruned = 0
    blocks_stat_answered = 0
    blocks_skipped = 0
    # Non-overlapping tables contribute nothing, so the indexed lookup
    # (when the engine attached one) changes only the cost of finding
    # the overlap set, never the aggregate values.
    for view, start, first, last, stop in snapshot.read_plan(lo, hi):
        # In run order: the table cut by ``lo``, the covered span, the
        # table cut by ``hi`` — the order a walk adds them to ``total``.
        i = start
        while i < stop:
            if i == first < last:
                # Fully covered: metadata suffices.  Extrema are the end
                # entries (the span is sorted, or one table); ``total``
                # takes each table's ``sum_tg`` one by one, the strict
                # left-to-right fold a walk over them does — prefix-sum
                # differences, pairwise ``np.sum`` and the compensated
                # built-in ``sum()`` of Python >= 3.12 all round
                # differently.
                pruned += last - first
                count += sum(view.lens[first:last])
                # Comparisons, not ``min()`` / ``max()``: the same answer
                # (the incumbent wins a tie) without a builtin call.
                low = view.mins[first]
                if low < minimum:
                    minimum = low
                high = view.maxs[last - 1]
                if high > maximum:
                    maximum = high
                total = reduce(operator.add, view.sums[first:last], total)
                blocks_stat_answered += sum(view.blocks[first:last])
                i = last
                continue
            # The block grid accounts for the blocks the window
            # excludes; the contribution itself is the row slice, so
            # the result stays bitwise identical across formats.
            tg, left, right, _, skipped = edge_slice(view.tables[i], lo, hi)
            scanned += 1
            blocks_skipped += skipped
            if right > left:
                count += right - left
                low = tg.item(left)
                if low < minimum:
                    minimum = low
                high = tg.item(right - 1)
                if high > maximum:
                    maximum = high
                # ``ndarray.sum`` is this reduction behind a Python
                # wrapper: the same pairwise sum, the same bits.
                total += float(_sum(tg[left:right]))
            i += 1
    for memtable in snapshot.memtables:
        bottom, top = memtable.bounds
        if top < lo or hi < bottom:
            continue
        mask = (memtable.tg >= lo) & (memtable.tg <= hi)
        if mask.any():
            inside = memtable.tg[mask]
            count += int(inside.size)
            low = float(inside.min())
            if low < minimum:
                minimum = low
            high = float(inside.max())
            if high > maximum:
                maximum = high
            total += float(inside.sum())
    if count == 0:
        minimum = math.nan
        maximum = math.nan
    if telemetry is not None and telemetry.enabled:
        telemetry.count("query.aggregate_count")
        telemetry.count("query.blocks_stat_answered", blocks_stat_answered)
        telemetry.count("query.blocks_skipped", blocks_skipped)
    # In field order: built once per series of every query.
    return AggregateResult(
        lo, hi, count, minimum, maximum, total,
        scanned, pruned, blocks_stat_answered, blocks_skipped,
    )
