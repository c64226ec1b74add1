"""Cross-shard query federation.

The read-path counterpart of the sharded write path: one
:class:`FederatedExecutor` per fleet turns multi-series and fleet-wide
range/aggregate queries into per-shard work, runs it in process, and
merges the per-series partials **bitwise-exactly** — the canonical-order
fold of :mod:`repro.query.merge` guarantees the federated answer equals
one unsharded database run over the same points, float ``sum``
included.

The module is one pipeline: canonical order → route → one snapshot per
series → per-shard cache → in-process partials → canonical fold.  Two
mechanisms carry the cost model:

* **Routing prunes shards.**  The router proves which shards hold no
  requested series; those do zero work (``federation.shards_pruned``).
  A single-series query degenerates to one call on its owning shard.
* **An epoch-keyed federation cache.**  Per-shard partials are cached
  under each involved engine's read version.  A flush on shard *k*
  changes only shard *k*'s versions, so only its entry goes stale —
  the other shards' partials are reused (``federation.cache_hits``),
  and the merge re-folds cached and fresh partials identically.

There is no worker pool here: a series costs ~30 µs to query and one
empty round trip through a warm process pool costs five times that
(docs/performance.md "Federated reads" has the measurement).  Process
parallelism lives in :mod:`repro.parallel.pool` for offline jobs only.

Per-shard latency lands in the obs registry as
``federation.shard_latency_ms{shard=…}`` histograms.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..lsm.intervals import check_window
from ..query.aggregation import AggregateResult, execute_aggregate_query
from ..query.executor import QueryStats, execute_range_query
from ..query.merge import canonical_series_order, merge_aggregates, merge_range_stats
from .router import shard_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import ShardedDatabase

__all__ = ["FederatedExecutor", "FederationCache"]


class FederationCache:
    """LRU cache of per-shard query partials, keyed by read version.

    One entry per ``(kind, shard, series tuple, window, collect)``
    holds the per-series partials computed against a specific shard
    read-version vector.  A lookup hits only when the vector is
    unchanged — any write, flush, merge, restore or re-split on that
    shard bumps a component, so stale partials can never be served.
    Entries for *other* shards key on *their* vectors and survive.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple[tuple, list]] = OrderedDict()

    def lookup(self, key: tuple, version: tuple) -> list | None:
        """The cached partials for ``key`` at ``version``, else ``None``."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != version:
            return None
        self._entries.move_to_end(key)
        return entry[1]

    def store(self, key: tuple, version: tuple, partials: list) -> None:
        """Record ``partials`` for ``key`` at ``version`` (LRU-evicting)."""
        self._entries[key] = (version, partials)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class FederatedExecutor:
    """Range/aggregate queries over a sharded fleet, folded in process.

    Results are independent of the shard layout — see
    :mod:`repro.query.merge`.
    """

    def __init__(self, fleet: "ShardedDatabase") -> None:
        self.fleet = fleet
        self.telemetry = fleet.telemetry
        self.cache = FederationCache()

    # -- public API ------------------------------------------------------------

    def query_aggregate(
        self,
        names: str | Sequence[str] | None = None,
        lo: float = -math.inf,
        hi: float = math.inf,
        use_cache: bool = True,
    ) -> AggregateResult:
        """COUNT/MIN/MAX/SUM/AVG over ``names`` (all series when None).

        Bitwise equal to
        :func:`repro.query.merge.aggregate_over_series` on one unsharded
        database holding the same points.
        """
        return self._execute("aggregate", names, lo, hi, False, use_cache)

    def query_range(
        self,
        names: str | Sequence[str] | None = None,
        lo: float = -math.inf,
        hi: float = math.inf,
        collect: bool = False,
        use_cache: bool = True,
    ) -> QueryStats:
        """Range scan over ``names`` (all series when None).

        With ``collect=True`` the merged rows come back k-way sorted on
        ``t_g`` with canonical-order tie-breaking — identical to
        :func:`repro.query.merge.scan_over_series` unsharded.
        """
        return self._execute("range", names, lo, hi, collect, use_cache)

    # -- execution -------------------------------------------------------------

    def _execute(
        self,
        kind: str,
        names: str | Sequence[str] | None,
        lo: float,
        hi: float,
        collect: bool,
        use_cache: bool,
    ):
        # Everything a caller can get wrong is rejected here, before
        # anything is counted, looked up or run — so a bad argument
        # fails the same way whether or not the window is cached.  A NaN
        # bound equals nothing, itself included: each such call would
        # take a fresh cache slot; the bounds come back as plain floats,
        # so 1, 1.0 and np.float32(1) share one.
        lo, hi = check_window(lo, hi)
        fleet = self.fleet
        ordered = canonical_series_order(fleet, names)
        parts = fleet.router.split(ordered)
        # The one read of each series' state: its snapshot carries the
        # read version it was taken under, which keys the cache here,
        # and is what _run_inline queries.  Unknown series raise here.
        snapshots = {
            index: [
                fleet.shards[index].series(name).engine.snapshot()
                for name in shard_series
            ]
            for index, shard_series in parts.items()
        }
        traced = self.telemetry.enabled
        if traced:
            self.telemetry.count("federation.queries")
            self.telemetry.count(
                "federation.shards_pruned", fleet.n_shards - len(parts)
            )
            self.telemetry.observe("federation.fanout", float(len(parts)))
            if len(parts) == 1:
                self.telemetry.count("federation.single_shard")
        by_series: dict[str, object] = {}
        for index in sorted(parts):
            shard_series = parts[index]
            version = tuple(snapshot.version for snapshot in snapshots[index])
            key = (kind, index, tuple(shard_series), lo, hi, collect)
            partials = self.cache.lookup(key, version) if use_cache else None
            if partials is not None:
                if traced:
                    self.telemetry.for_shard(shard_name(index)).count(
                        "federation.cache_hits"
                    )
            else:
                if use_cache and traced:
                    self.telemetry.for_shard(shard_name(index)).count(
                        "federation.cache_misses"
                    )
                partials = self._run_inline(
                    index, snapshots[index], kind, lo, hi, collect
                )
                if use_cache:
                    self.cache.store(key, version, partials)
            by_series.update(zip(shard_series, partials))
        # The fold runs in canonical order regardless of which shard —
        # or which cache generation — produced each partial.
        merged = [by_series[name] for name in ordered]
        if kind == "aggregate":
            return merge_aggregates(merged, lo, hi)
        return merge_range_stats(merged, lo, hi, collect)

    def _run_inline(
        self,
        index: int,
        snapshots: list,
        kind: str,
        lo: float,
        hi: float,
        collect: bool,
    ) -> list:
        """One shard's slice of a query: its per-series partials."""
        telemetry = self.fleet.shards[index].telemetry
        started = time.perf_counter()
        partials: list = []
        for snapshot in snapshots:
            if kind == "aggregate":
                partials.append(
                    execute_aggregate_query(snapshot, lo, hi, telemetry=telemetry)
                )
            else:
                partials.append(
                    execute_range_query(
                        snapshot, lo, hi, collect=collect, telemetry=telemetry
                    )
                )
        duration_ms = (time.perf_counter() - started) * 1_000.0
        if self.telemetry.enabled:
            self.telemetry.for_shard(shard_name(index)).observe(
                "federation.shard_latency_ms", duration_ms
            )
        return partials
