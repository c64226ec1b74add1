"""Generation-time range queries over engine snapshots.

The paper's query workloads are ``SELECT * FROM TS WHERE time > lo AND
time < hi`` ranges on generation time (Section V-D).  Executing one
against an LSM snapshot means reading every SSTable whose range overlaps
the predicate (whole tables are read — that is what makes read
amplification interesting) plus scanning the MemTables.

The executor reports everything the paper measures: result size, points
read, files touched — from which read amplification (Figure 12) and the
modelled latency (Figures 13/14/20) follow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..lsm.base import Snapshot
from ..lsm.intervals import check_window
from ..lsm.pruning import edge_slice
from ..obs.telemetry import Telemetry

__all__ = ["QueryStats", "execute_range_query"]


@dataclass(frozen=True)
class QueryStats:
    """Cost accounting (and optionally the rows) of one range query."""

    lo: float
    hi: float
    #: Points satisfying the predicate.
    result_points: int
    #: Points read from disk.  Row tables are read whole (that is what
    #: makes read amplification interesting); columnar tables are read
    #: at block granularity — only the contiguous block span their zone
    #: maps admit for the window.
    disk_points_read: int
    #: Distinct SSTable files opened/seeked.
    files_touched: int
    #: Points scanned in MemTables (in memory, no seek).
    memtable_points_scanned: int
    #: SSTables the pruning index (or zone-map fallback) skipped without
    #: touching — ``tables in snapshot - files_touched``.
    tables_pruned: int = 0
    #: SSTables whose metadata the query consulted.  Equal to
    #: :attr:`files_touched` on the indexed path; with no index it is
    #: the full table count (a linear zone-map walk).
    tables_consulted: int = 0
    #: Columnar blocks excluded by per-block zone maps inside touched
    #: tables (always 0 for row tables, which have no block metadata).
    blocks_skipped: int = 0
    #: Sorted generation times of the result set, when ``collect=True``
    #: was requested; ``None`` otherwise (metrics-only mode).
    rows: np.ndarray | None = None
    #: Arrival-index ids aligned with :attr:`rows` (``None`` unless
    #: collected).  Ids are the engine's stable point identities, so a
    #: caller keeping values in an id-indexed array can materialise full
    #: records: ``values[stats.row_ids]``.
    row_ids: np.ndarray | None = None

    @property
    def read_amplification(self) -> float:
        """Points read from disk divided by result points.

        Matches the paper's Figure 12 metric; queries with an empty
        result report ``nan`` (they are excluded from averages).
        """
        if self.result_points == 0:
            return float("nan")
        return self.disk_points_read / self.result_points


def execute_range_query(
    snapshot: Snapshot,
    lo: float,
    hi: float,
    collect: bool = False,
    telemetry: Telemetry | None = None,
) -> QueryStats:
    """Run ``lo <= t_g <= hi`` against a snapshot.

    Every overlapping SSTable is read in full (sequential scan of the
    file); overlapping tables come from the snapshot's pruning index
    when the engine attached one (O(log T) per sorted run, the fully
    covered tables of a run accounted for from its per-table columns in
    one step), falling back to a linear zone-map walk otherwise — the
    tables touched, and the rows collected, are identical either way.
    MemTables are unsorted, so each one counts as scanned whole — but
    one whose own ``[min, max]`` misses the window is passed over
    without building a mask.  With
    ``collect=True`` the matching generation times are materialised,
    sorted, in :attr:`QueryStats.rows` (metrics are identical either
    way; collection just costs the copy — and a stable sort, unless
    the rows come from one sorted run and no MemTable, in which case
    they are in order already).

    With a ``telemetry`` bus attached (e.g. ``engine.telemetry``) each
    query emits a ``{"type": "query"}`` event carrying its wall-clock
    duration and cost counters, and increments the read-amplification
    counters ``query.count`` / ``query.result_points`` /
    ``query.disk_points_read`` / ``query.files_touched``.  A NaN or
    non-real bound, or ``hi < lo``, raises
    :class:`~repro.errors.QueryError`; the result reports the bounds as
    Python floats.
    """
    lo, hi = check_window(lo, hi)
    traced = telemetry is not None and telemetry.enabled
    started = time.monotonic() if traced else 0.0
    result = 0
    disk_read = 0
    files = 0
    collected_tg: list[np.ndarray] = []
    collected_ids: list[np.ndarray] = []
    blocks_skipped = 0
    plan = snapshot.read_plan(lo, hi)
    for view, start, first, last, stop in plan:
        files += stop - start
        # In run order: the table cut by ``lo``, the covered span, the
        # table cut by ``hi`` — so collected rows stay in run order.
        i = start
        while i < stop:
            if i == first < last:
                # Fully covered tables, counted from the per-table
                # lengths: every file is read whole (every block of a
                # columnar one overlaps the window) and every row matches.
                points = sum(view.lens[first:last])
                disk_read += points
                result += points
                if collect:
                    tables = view.tables[first:last]
                    collected_tg.extend(t.tg for t in tables)
                    collected_ids.extend(t.ids for t in tables)
                i = last
                continue
            # A row table is read whole; a columnar one over the span
            # of its block grid that overlaps the window.
            tg, left, right, read, skipped = edge_slice(view.tables[i], lo, hi)
            disk_read += read
            blocks_skipped += skipped
            result += right - left
            if collect:
                collected_tg.append(tg[left:right])
                collected_ids.append(view.tables[i].ids[left:right])
            i += 1
    on_disk = result
    tables_total = len(snapshot.tables)
    consulted = files if snapshot.index is not None else tables_total
    mem_scanned = 0
    for memtable in snapshot.memtables:
        mem_scanned += len(memtable)
        low, high = memtable.bounds
        if high < lo or hi < low:
            # Nothing buffered falls in the window: no mask, no rows.
            continue
        mask = (memtable.tg >= lo) & (memtable.tg <= hi)
        result += int(np.count_nonzero(mask))
        if collect:
            collected_tg.append(memtable.tg[mask])
            if memtable.ids.size == memtable.tg.size:
                collected_ids.append(memtable.ids[mask])
            else:
                # View without ids: mark buffered rows as unknown.
                collected_ids.append(
                    np.full(int(mask.sum()), -1, dtype=np.int64)
                )
    rows = None
    row_ids = None
    if collect:
        if len(plan) == 1 and result == on_disk:
            # One run and nothing buffered in the window: the rows are
            # its tables' slices in run order, non-decreasing already,
            # so the stable sort below would be the identity.
            rows = np.concatenate(collected_tg)
            row_ids = np.concatenate(collected_ids)
        elif collected_tg:
            tg_all = np.concatenate(collected_tg)
            ids_all = np.concatenate(collected_ids)
            order = np.argsort(tg_all, kind="stable")
            rows = tg_all[order]
            row_ids = ids_all[order]
        else:
            rows = np.empty(0, dtype=np.float64)
            row_ids = np.empty(0, dtype=np.int64)
    # In field order (see execute_aggregate_query).
    stats = QueryStats(
        lo, hi, result, disk_read, files, mem_scanned,
        tables_total - files, consulted, blocks_skipped, rows, row_ids,
    )
    if traced:
        duration_ms = (time.monotonic() - started) * 1_000.0
        telemetry.emit(
            {
                "type": "query",
                "lo": lo,
                "hi": hi,
                "duration_ms": duration_ms,
                "result_points": result,
                "disk_points_read": disk_read,
                "files_touched": files,
                "memtable_points_scanned": mem_scanned,
                "tables_total": tables_total,
                "tables_pruned": tables_total - files,
                "tables_consulted": consulted,
                "blocks_skipped": blocks_skipped,
                "memtables_total": len(snapshot.memtables),
            }
        )
        telemetry.count("query.count")
        telemetry.count("query.result_points", result)
        telemetry.count("query.disk_points_read", disk_read)
        telemetry.count("query.files_touched", files)
        telemetry.count("query.memtable_points_scanned", mem_scanned)
        telemetry.count("query.tables_pruned", tables_total - files)
        telemetry.count("query.tables_consulted", consulted)
        telemetry.count("query.blocks_skipped", blocks_skipped)
        telemetry.observe("query.duration_ms", duration_ms)
    return stats
