"""Aggregate queries over generation-time ranges.

Monitoring dashboards rarely fetch raw points; they ask for ``COUNT``,
``MIN``/``MAX`` or ``AVG`` over a window.  The LSM layout affects these
queries the same way it affects scans — overlapping SSTables must all be
consulted — but aggregates over *generation time* can exploit SSTable
ordering: a table fully inside the window contributes its point count
and min/max bounds without reading its interior.

A sorted run goes one step further than the table: the tables a window
fully covers are one contiguous span of the run, so the pruning index
hands them over as a single :class:`~repro.lsm.pruning.CoveredSpan`
answered from slices of the run's own per-table columns — count and
block count from integer lists, extrema from the span's end entries,
``total`` from the memoised per-table sums.  The *work* per sorted run
is therefore one binary search per window edge over the run, one more
inside each table an edge cuts (at most two, the only ones read), and
four list slices, whatever the window's width.  A MemTable whose own
``[min, max]`` misses the window is not looked at.  Loose groups and
index-less snapshots have no such order to exploit and visit their
tables one by one through the same per-table arithmetic.

Within a table the cold tier does the same.  A columnar table fully
inside the window is answered **entirely from block statistics**: its
count, min/max *and* sum come from metadata recorded at build time, so
the point arrays are never touched (``blocks_stat_answered`` counts the
blocks so answered).  A columnar table that straddles a boundary falls
back to the row path's binary-searched slice — its per-block zone maps
still report how many blocks the window excludes (``blocks_skipped``).

Bit-identity: a table's ``sum_tg`` is the float produced by one
``np.sum`` over the whole column — recorded at build time by columnar
tables, memoised on first use by row tables — straddling tables share
one slice routine, and a covered span adds its tables' ``sum_tg`` to
``total`` one after another in run order, exactly as a walk over them
would.  Same floats, same order of additions: every aggregate is
bitwise equal whether its tables are row or columnar, indexed or not
(numpy's pairwise summation forbids recombining *partial* block sums,
and float prefix-sum differences round differently too; see
:mod:`repro.lsm.blocks` and :meth:`CoveredSpan.fold
<repro.lsm.pruning.CoveredSpan.fold>`).

Engines in this package do not materialise values (WA does not depend on
them), so aggregates are computed over generation timestamps themselves;
the pruning logic is identical for any per-table summarised value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..lsm.base import Snapshot
from ..lsm.intervals import check_window
from ..lsm.pruning import CoveredSpan
from ..obs.telemetry import Telemetry

__all__ = ["AggregateResult", "execute_aggregate_query"]


@dataclass(frozen=True)
class AggregateResult:
    """COUNT/MIN/MAX/SUM/AVG of generation times in ``[lo, hi]``."""

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
    for piece in snapshot.read_plan(lo, hi):
        if type(piece) is CoveredSpan:
            pruned += len(piece)
            count += piece.points
            minimum = min(minimum, piece.min_tg)
            maximum = max(maximum, piece.max_tg)
            total = piece.fold(total)
            blocks_stat_answered += piece.stat_blocks
            continue
        table = piece
        stats = table.block_stats
        if lo <= table.min_tg and table.max_tg <= hi:
            # Fully covered: metadata suffices.  A row table pays one
            # array sum, once; columnar tables answer from statistics.
            pruned += 1
            count += len(table)
            minimum = min(minimum, table.min_tg)
            maximum = max(maximum, table.max_tg)
            total += table.storage.sum_tg
            if stats is not None:
                blocks_stat_answered += stats.nblocks
            continue
        scanned += 1
        if stats is not None:
            # Per-block zone maps: account for the blocks the window
            # excludes; the contribution itself reuses the row slice
            # math below so the result stays bitwise identical.
            b0, b1 = table.block_span(lo, hi)
            blocks_skipped += stats.nblocks - (b1 - b0)
        left, right = table.row_span(lo, hi)
        if right > left:
            inside = table.tg[left:right]
            count += inside.size
            minimum = min(minimum, float(inside[0]))
            maximum = max(maximum, float(inside[-1]))
            total += float(inside.sum())
    for memtable in snapshot.memtables:
        low, high = memtable.bounds
        if high < lo or hi < low:
            continue
        mask = (memtable.tg >= lo) & (memtable.tg <= hi)
        if mask.any():
            inside = memtable.tg[mask]
            count += int(inside.size)
            minimum = min(minimum, float(inside.min()))
            maximum = max(maximum, float(inside.max()))
            total += float(inside.sum())
    if count == 0:
        minimum = math.nan
        maximum = math.nan
    if telemetry is not None and telemetry.enabled:
        telemetry.count("query.aggregate_count")
        telemetry.count("query.blocks_stat_answered", blocks_stat_answered)
        telemetry.count("query.blocks_skipped", blocks_skipped)
    return AggregateResult(
        lo=lo,
        hi=hi,
        count=count,
        minimum=minimum,
        maximum=maximum,
        total=total,
        tables_scanned=scanned,
        tables_pruned=pruned,
        blocks_stat_answered=blocks_stat_answered,
        blocks_skipped=blocks_skipped,
    )
