"""Cross-shard query federation.

The read-path counterpart of the sharded write path: one
:class:`FederatedExecutor` per fleet turns multi-series and fleet-wide
range/aggregate queries into per-shard work, runs it in process, and
merges the per-series partials **bitwise-exactly** — the canonical-order
fold of :mod:`repro.query.merge` guarantees the federated answer equals
one unsharded database run over the same points, float ``sum``
included.

The module is one pipeline: route plan → one snapshot per series →
per-shard cache → in-process partials → canonical fold.  Three
mechanisms carry the cost model:

* **A routing plan, not a routing step.**  Which shard owns a name,
  the canonical order of every name and the fleet-wide split are
  properties of the fleet's *shape*, which only a new series changes:
  the executor works them out through the router once per shape and a
  query looks its names up in the result — no sort, no CRC-32, no
  per-shard lookup on the way to a series' engine.
* **Routing prunes shards.**  The plan proves which shards hold no
  requested series; those do zero work (``federation.shards_pruned``).
  A single-series query degenerates to one call on its owning shard.
* **An epoch-keyed federation cache.**  Per-shard partials are cached
  under each involved engine's read version.  A flush on shard *k*
  changes only shard *k*'s versions, so only its entry goes stale —
  the other shards' partials are reused (``federation.cache_hits``),
  and the merge re-folds cached and fresh partials identically.  Once
  full, the cache admits a window on its second miss, so one-off
  windows do not evict the ones that are read again.

There is no worker pool here: a series costs ~30 µs to query and one
empty round trip through a warm process pool costs five times that
(docs/performance.md "Federated reads" has the measurement).  The
package starts no processes.

Per-shard latency lands in the obs registry as
``federation.shard_latency_ms{shard=…}`` histograms.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..errors import EngineError
from ..lsm.intervals import check_window
from ..query.aggregation import AggregateResult, execute_aggregate_query
from ..query.executor import QueryStats, execute_range_query
from ..query.merge import canonical_series_order, merge_aggregates, merge_range_stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lsm.database import SeriesState
    from .database import ShardedDatabase

__all__ = ["FederatedExecutor", "FederationCache"]


class FederationCache:
    """LRU cache of per-shard query partials, keyed by read version,
    that admits a new key on its second miss once it is full.

    One entry per ``(kind, shard, series tuple, window, collect)``
    holds the per-series partials computed against a specific shard
    read-version vector.  A lookup hits only when the vector is
    unchanged — any write, flush, merge, restore or re-split on that
    shard bumps a component, so stale partials can never be served.
    Entries for *other* shards key on *their* vectors and survive.

    While there is room every store is kept.  Once the cache is full, a
    key that is not cached is stored only if it already missed among
    the last ``4 * max_entries`` first sightings; otherwise only the
    key is remembered.  So a window asked for once cannot evict one that
    is asked for again.  A cached key is updated in place.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple[tuple, list]] = OrderedDict()
        # Keys seen once while the cache was full, oldest first.  Four
        # times the entries: a re-read window must still be here when it
        # comes back after a long run of one-off windows.
        self._seen: OrderedDict[tuple, None] = OrderedDict()

    def lookup(self, key: tuple, version: tuple) -> list | None:
        """The cached partials for ``key`` at ``version``, else ``None``."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != version:
            return None
        self._entries.move_to_end(key)
        return entry[1]

    def store(self, key: tuple, version: tuple, partials: list) -> None:
        """Record ``partials`` for ``key`` at ``version`` (LRU-evicting;
        when full, a key not cached needs a second miss to enter)."""
        entries = self._entries
        if key not in entries and len(entries) >= self.max_entries:
            seen = self._seen
            if key not in seen:
                # A first sighting: remember the key, keep the entries.
                seen[key] = None
                if len(seen) > 4 * self.max_entries:
                    seen.popitem(last=False)
                return
            del seen[key]
            entries.popitem(last=False)
        entries[key] = (version, partials)
        entries.move_to_end(key)

    def clear(self) -> None:
        """Drop every entry and every remembered key."""
        self._entries.clear()
        self._seen.clear()

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
        # The routing plan: what a query needs to know about the
        # fleet's shape, worked out when the shape changes instead of
        # per query.  Series are never removed or moved and keep one
        # SeriesState for life, so what the plan knows stays true and
        # the series count says whether it knows everything.  A route
        # is ``(fold order, parts)``, one part ``(shard index, names,
        # states)`` per involved shard.
        self._routed = -1
        self._homes: dict[str, tuple[int, SeriesState]] = {}
        self._names: list[str] = []
        self._fleet_wide: tuple | None = None

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

    # -- routing ---------------------------------------------------------------

    def _reroute(self) -> bool:
        """Bring the routing plan up to the fleet's shape; False when
        it already was."""
        fleet = self.fleet
        count = sum(map(len, fleet.shards))
        if count == self._routed:
            return False
        shard_of = fleet.router.shard_of
        homes: dict[str, tuple[int, SeriesState]] = {}
        names: list[str] = []
        for index, db in enumerate(fleet.shards):
            for name in db.series_names():
                names.append(name)
                # A series registered on a shard the router does not
                # send its name to cannot be reached by name: unknown.
                if shard_of(name) == index:
                    homes[name] = (index, db.series(name))
        names.sort()
        self._homes = homes
        self._names = names
        self._fleet_wide = None
        self._routed = count
        return True

    def _home(self, name: str) -> tuple[int, SeriesState]:
        # A name the plan knows is where it was; one it does not may
        # have been created since the plan was built.
        home = self._homes.get(name)
        if home is None and self._reroute():
            home = self._homes.get(name)
        if home is None:
            raise EngineError(f"unknown series {name!r}")
        return home

    def _split(self, ordered: Sequence[str]) -> tuple:
        """The route of ``ordered``: its series grouped by shard
        (ascending; per-shard order is ``ordered``'s)."""
        parts: dict[int, tuple[list, list]] = {}
        for name in ordered:
            index, state = self._home(name)
            names, states = parts.setdefault(index, ([], []))
            names.append(name)
            states.append(state)
        return ordered, [
            (index, tuple(names), states)
            for index, (names, states) in sorted(parts.items())
        ]

    def _route(self, names: str | Sequence[str] | None) -> tuple:
        if type(names) is str:
            index, state = self._home(names)
            return (names,), ((index, (names,), (state,)),)
        if names is not None:
            return self._split(canonical_series_order(self.fleet, names))
        # Every series: the one route a new series always changes.  It
        # is built on first use, and again each time that fails — a
        # fleet holding a misplaced series has no fleet-wide answer.
        self._reroute()
        route = self._fleet_wide
        if route is None:
            route = self._fleet_wide = self._split(self._names)
        return route

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
        # so 1, 1.0 and np.float32(1) share one.  Unknown series raise
        # in the routing.
        lo, hi = check_window(lo, hi)
        ordered, parts = self._route(names)
        traced = self.telemetry.enabled
        if traced:
            self.telemetry.count("federation.queries")
            self.telemetry.count(
                "federation.shards_pruned", self.fleet.n_shards - len(parts)
            )
            self.telemetry.observe("federation.fanout", float(len(parts)))
            if len(parts) == 1:
                self.telemetry.count("federation.single_shard")
        if len(parts) == 1:
            # One shard holds every series asked for, in fold order.
            merged = self._shard_partials(
                parts[0], kind, lo, hi, collect, use_cache, traced
            )
        else:
            by_series: dict[str, object] = {}
            for part in parts:
                partials = self._shard_partials(
                    part, kind, lo, hi, collect, use_cache, traced
                )
                by_series.update(zip(part[1], partials))
            # The fold runs in canonical order regardless of which shard
            # — or which cache generation — produced each partial.
            merged = [by_series[name] for name in ordered]
        if kind == "aggregate":
            return merge_aggregates(merged, lo, hi)
        return merge_range_stats(merged, lo, hi, collect)

    def _shard_partials(
        self,
        part: tuple,
        kind: str,
        lo: float,
        hi: float,
        collect: bool,
        use_cache: bool,
        traced: bool,
    ) -> list:
        """One shard's slice of a query: its per-series partials, from
        the cache when every series' read version is the cached one."""
        index, names, states = part
        # The one read of each series' state: its snapshot carries the
        # read version it was taken under, which keys the cache here.
        snapshots = [state.engine.snapshot() for state in states]
        # The shard's own bus is the fleet's, labelled with the shard.
        telemetry = self.fleet.shards[index].telemetry
        if use_cache:
            version = tuple([snapshot.version for snapshot in snapshots])
            key = (kind, index, names, lo, hi, collect)
            partials = self.cache.lookup(key, version)
            if partials is not None:
                if traced:
                    telemetry.count("federation.cache_hits")
                return partials
            if traced:
                telemetry.count("federation.cache_misses")
        started = time.perf_counter() if traced else 0.0
        if kind == "aggregate":
            partials = [
                execute_aggregate_query(snapshot, lo, hi, telemetry=telemetry)
                for snapshot in snapshots
            ]
        else:
            partials = [
                execute_range_query(
                    snapshot, lo, hi, collect=collect, telemetry=telemetry
                )
                for snapshot in snapshots
            ]
        if traced:
            telemetry.observe(
                "federation.shard_latency_ms",
                (time.perf_counter() - started) * 1_000.0,
            )
        if use_cache:
            self.cache.store(key, version, partials)
        return partials
