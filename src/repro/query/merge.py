"""Exact merging of per-series query partials.

Federated queries (``repro.serving.federation``) fan a multi-series
request out across shards and must return *the same bits* as one
unsharded database run over the same points — including the float
``sum``, where IEEE addition is famously non-associative.  The trick is
to never let the shard layout pick the fold order:

* Partials are kept **per series**, never pre-combined per shard.
* Both the federated path and the serial reference fold partials in the
  same **canonical order** — sorted series names for fleet-wide
  queries and for a ``set``, the caller's order for an explicit list.
* Each per-series partial comes from the existing single-series
  executors (:func:`~repro.query.execute_range_query` /
  :func:`~repro.query.execute_aggregate_query`), whose results depend
  only on that series' engine state — and the serving tier's shard
  independence invariant makes that state identical whether the series
  lives in a shard or in a standalone database.

Left-folding identical per-series partials in an identical order is the
whole proof: ``merge_aggregates`` over shard results is bitwise equal
to the same fold over single-database results, no matter how the router
scattered the series.  Range rows are merged by concatenation in
canonical order plus one stable ``argsort`` on ``t_g`` — equivalent to
a k-way merge with input-order tie-breaking, and again identical on
both paths because the inputs and the order are.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Protocol

import numpy as np

from ..errors import QueryError
from ..lsm.base import Snapshot
from ..lsm.intervals import check_window
from ..obs.telemetry import Telemetry
from .aggregation import AggregateResult, execute_aggregate_query
from .executor import QueryStats, execute_range_query

__all__ = [
    "SnapshotProvider",
    "canonical_series_order",
    "merge_aggregates",
    "merge_range_stats",
    "aggregate_over_series",
    "scan_over_series",
]


class SnapshotProvider(Protocol):
    """Anything that can list series and snapshot one of them.

    Both :class:`~repro.lsm.database.TimeSeriesDatabase` and
    :class:`~repro.serving.ShardedDatabase` satisfy this; the serial
    helpers below are therefore usable as the unsharded *reference*
    implementation the federation layer is pinned against.
    """

    def series_names(self) -> list[str]: ...

    def snapshot(self, name: str) -> Snapshot: ...


def canonical_series_order(
    provider: SnapshotProvider,
    names: str | Iterable[str] | None,
) -> list[str]:
    """The canonical fold order for a multi-series query.

    ``None`` means fleet-wide: every series, sorted by name — a total
    order no routing layout can perturb.  An explicit list keeps the
    caller's order (duplicates rejected: folding a series twice would
    double-count it); a ``set`` has no order to keep — what iterating
    one yields depends on the interpreter's hash seed — and is folded
    sorted, as ``None`` is.  A bare string is a single-series request.
    Anything else — a number, ``bytes``, a collection holding something
    that is not a ``str`` — raises :class:`~repro.errors.QueryError`
    here, before any series is looked up.
    """
    if names is None:
        return sorted(provider.series_names())
    if isinstance(names, str):
        return [names]
    if isinstance(names, (bytes, bytearray)) or not isinstance(names, Iterable):
        raise QueryError(
            "names must be a series name, a collection of series names or "
            f"None, got {names!r:.80} ({type(names).__name__})"
        )
    ordered = list(names)
    for name in ordered:
        if not isinstance(name, str):
            raise QueryError(
                f"names must hold series names (str), got {name!r:.80} "
                f"({type(name).__name__})"
            )
    if not ordered:
        raise QueryError("empty series list")
    if len(set(ordered)) != len(ordered):
        raise QueryError(f"duplicate series in query: {ordered}")
    if isinstance(names, (set, frozenset)):
        ordered.sort()
    return ordered


def merge_aggregates(
    partials: Sequence[AggregateResult],
    lo: float,
    hi: float,
) -> AggregateResult:
    """Left-fold per-series aggregate partials (in the given order).

    ``total`` is accumulated with plain float addition in sequence
    order — the canonical order makes this reproducible; counts,
    extrema and the pruning counters merge associatively.
    """
    count = 0
    minimum = math.inf
    maximum = -math.inf
    total = 0.0
    scanned = 0
    pruned = 0
    blocks_stat_answered = 0
    blocks_skipped = 0
    # A partial is a tuple in field order: unpacked once, not read
    # field by field.
    for _, _, n, low, high, part_total, part_scanned, part_pruned, stat, skipped in partials:
        count += n
        if n:
            if low < minimum:
                minimum = low
            if high > maximum:
                maximum = high
        total += part_total
        scanned += part_scanned
        pruned += part_pruned
        blocks_stat_answered += stat
        blocks_skipped += skipped
    if count == 0:
        minimum = math.nan
        maximum = math.nan
    return AggregateResult(
        lo, hi, count, minimum, maximum, total,
        scanned, pruned, blocks_stat_answered, blocks_skipped,
    )


def merge_range_stats(
    partials: Sequence[QueryStats],
    lo: float,
    hi: float,
    collect: bool = False,
) -> QueryStats:
    """Merge per-series range-query partials (in the given order).

    Cost counters sum; collected rows are concatenated in fold order
    and stably sorted on ``t_g``, so ties between series resolve by
    canonical order — a k-way merge whose output is independent of how
    series were grouped into shards.  Each partial's rows are sorted
    already (the executors return them so, in fresh arrays); a single
    one is handed back as it is.
    ``collect`` says rows were asked for, which zero partials cannot:
    the answer over no series is then empty arrays, not ``None``.
    """
    result = 0
    disk_read = 0
    files = 0
    mem_scanned = 0
    tables_pruned = 0
    consulted = 0
    blocks_skipped = 0
    collected_tg: list[np.ndarray] = []
    collected_ids: list[np.ndarray] = []
    if len(partials) == 1 and not collect:
        # Folding one metrics-only partial from zero rebuilds it field
        # for field; hand it back as it is (frozen).  Not across a zero
        # bound: 0.0 == -0.0, but the answer reports the spelling it
        # was asked with.
        part = partials[0]
        if part.rows is None and part.lo == lo != 0.0 and part.hi == hi != 0.0:
            return part
    collecting = collect or any(part.rows is not None for part in partials)
    for part in partials:
        result += part.result_points
        disk_read += part.disk_points_read
        files += part.files_touched
        mem_scanned += part.memtable_points_scanned
        tables_pruned += part.tables_pruned
        consulted += part.tables_consulted
        blocks_skipped += part.blocks_skipped
        if collecting:
            if part.rows is None or part.row_ids is None:
                raise QueryError("cannot merge collected and metrics-only partials")
            collected_tg.append(part.rows)
            collected_ids.append(part.row_ids)
    rows = None
    row_ids = None
    if collecting:
        if len(collected_tg) == 1:
            # One partial is already in order (its executor sorted it
            # stably).
            rows = collected_tg[0]
            row_ids = collected_ids[0]
        elif collected_tg:
            tg_all = np.concatenate(collected_tg)
            ids_all = np.concatenate(collected_ids)
            order = np.argsort(tg_all, kind="stable")
            rows = tg_all[order]
            row_ids = ids_all[order]
        else:
            rows = np.empty(0, dtype=np.float64)
            row_ids = np.empty(0, dtype=np.int64)
    return QueryStats(
        lo=lo,
        hi=hi,
        result_points=result,
        disk_points_read=disk_read,
        files_touched=files,
        memtable_points_scanned=mem_scanned,
        tables_pruned=tables_pruned,
        tables_consulted=consulted,
        blocks_skipped=blocks_skipped,
        rows=rows,
        row_ids=row_ids,
    )


def aggregate_over_series(
    provider: SnapshotProvider,
    names: str | Sequence[str] | None = None,
    lo: float = -math.inf,
    hi: float = math.inf,
    telemetry: Telemetry | None = None,
) -> AggregateResult:
    """Serial multi-series aggregate: the unsharded reference answer.

    Folds :func:`execute_aggregate_query` partials in canonical order.
    The federation layer is pinned bitwise against this function; like
    it, the answer reports the bounds as
    :func:`~repro.lsm.intervals.check_window` spells them.
    """
    lo, hi = check_window(lo, hi)
    ordered = canonical_series_order(provider, names)
    partials = [
        execute_aggregate_query(provider.snapshot(name), lo, hi, telemetry=telemetry)
        for name in ordered
    ]
    return merge_aggregates(partials, lo, hi)


def scan_over_series(
    provider: SnapshotProvider,
    names: str | Sequence[str] | None = None,
    lo: float = -math.inf,
    hi: float = math.inf,
    collect: bool = False,
    telemetry: Telemetry | None = None,
) -> QueryStats:
    """Serial multi-series range scan: the unsharded reference answer
    (bounds spelled as :func:`aggregate_over_series` spells them)."""
    lo, hi = check_window(lo, hi)
    ordered = canonical_series_order(provider, names)
    partials = [
        execute_range_query(
            provider.snapshot(name), lo, hi, collect=collect, telemetry=telemetry
        )
        for name in ordered
    ]
    return merge_range_stats(partials, lo, hi, collect)
