"""Cross-shard scatter-gather query federation.

The read-path counterpart of the sharded write path: one
:class:`FederatedExecutor` per fleet turns multi-series and fleet-wide
range/aggregate queries into per-shard work, runs it in parallel, and
merges the per-series partials **bitwise-exactly** — the canonical-order
fold of :mod:`repro.query.merge` guarantees the federated answer equals
one unsharded database run over the same points, float ``sum``
included.

Three mechanisms carry the cost model:

* **Routing prunes shards.**  The router proves which shards hold no
  requested series; those do zero work (``federation.shards_pruned``).
  A single-series query degenerates to one inline call on its owning
  shard — the fast path.
* **A warm forked scatter pool.**  Worker processes are forked from the
  parent, so they inherit the live shard state (tables, MemTables,
  snapshot caches) with no serialisation.  The pool is keyed by the
  fleet-wide read-version vector (:meth:`StorageKernel.read_version`):
  any write, flush, merge or re-split produces a new vector and the
  next scatter re-forks against fresh state.  Workers return per-series
  partials plus a telemetry payload; the parent absorbs it, so shard-
  labelled ``query.*`` counters match the serial path exactly.
* **An epoch-keyed federation cache.**  Per-shard partials are cached
  under each involved engine's read version.  A flush on shard *k*
  changes only shard *k*'s versions, so only its entry goes stale —
  the other shards' partials are reused (``federation.cache_hits``),
  and the merge re-folds cached and fresh partials identically.

Per-shard latency lands in the obs registry as
``federation.shard_latency_ms{shard=…}`` histograms.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

from ..lsm.intervals import check_window
from ..obs.telemetry import Telemetry
from ..parallel.pool import resolve_workers
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


# -- scatter workers -----------------------------------------------------------
#
# The pool is fork-based: workers inherit the fleet through this module
# global, set immediately before the pool's processes are forked.  Each
# task addresses a shard by index, runs the per-series executors against
# the inherited state, and ships back picklable partials plus a
# telemetry payload captured on a fresh in-worker bus (the parent's bus
# in the forked copy would be lost with the process).

_SCATTER_FLEET: "ShardedDatabase | None" = None


def _scatter_warmup() -> bool:
    """No-op task forcing the pool to fork its workers now.

    With a fork context the executor launches *all* workers at the
    first submit, so one warmup pins the fork point — and therefore the
    state snapshot every worker holds — to pool-build time, where the
    pool key was computed.
    """
    return _SCATTER_FLEET is not None


def _scatter_shard(
    index: int,
    names: list[str],
    kind: str,
    lo: float,
    hi: float,
    collect: bool,
    capture: bool,
) -> tuple[list, float, dict | None]:
    """Run one shard's slice of a federated query (in a worker).

    Returns ``(per-series partials in the given order, duration_ms,
    telemetry payload or None)``.  Counters are recorded on a fresh bus
    through the shard's labelled view, so after the parent absorbs the
    payload the registry keys (``query.count{shard=…}`` …) are the same
    as if the shard had been queried inline.
    """
    fleet = _SCATTER_FLEET
    if fleet is None:  # pragma: no cover - defensive
        raise RuntimeError("scatter worker forked without a fleet")
    db = fleet.shards[index]
    view = Telemetry(sinks=[]).for_shard(shard_name(index)) if capture else None
    started = time.perf_counter()
    partials: list = []
    for name in names:
        snapshot = db.snapshot(name)
        if kind == "aggregate":
            partials.append(
                execute_aggregate_query(snapshot, lo, hi, telemetry=view)
            )
        else:
            partials.append(
                execute_range_query(
                    snapshot, lo, hi, collect=collect, telemetry=view
                )
            )
    duration_ms = (time.perf_counter() - started) * 1_000.0
    payload = view.snapshot_payload() if view is not None else None
    return partials, duration_ms, payload


def _fork_context():
    """The fork multiprocessing context, or ``None`` when unsupported."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class FederatedExecutor:
    """Scatter-gather range/aggregate queries over a sharded fleet.

    ``workers`` is the default fan-out width for multi-shard queries
    (``None``/``0``/``1`` = serial inline, the reference path; per-call
    ``workers=`` overrides it).  Results are independent of the worker
    count and of the shard layout — see :mod:`repro.query.merge`.
    """

    def __init__(
        self,
        fleet: "ShardedDatabase",
        workers: int | None = None,
        cache_entries: int = 256,
    ) -> None:
        self.fleet = fleet
        self.telemetry = fleet.telemetry
        self.default_workers = workers
        self.cache = FederationCache(cache_entries)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple | None = None

    # -- public API ------------------------------------------------------------

    def query_aggregate(
        self,
        names: str | Sequence[str] | None = None,
        lo: float = -math.inf,
        hi: float = math.inf,
        workers: int | None = None,
        use_cache: bool = True,
    ) -> AggregateResult:
        """COUNT/MIN/MAX/SUM/AVG over ``names`` (all series when None).

        Bitwise equal to
        :func:`repro.query.merge.aggregate_over_series` on one unsharded
        database holding the same points.
        """
        return self._execute("aggregate", names, lo, hi, False, workers, use_cache)

    def query_range(
        self,
        names: str | Sequence[str] | None = None,
        lo: float = -math.inf,
        hi: float = math.inf,
        collect: bool = False,
        workers: int | None = None,
        use_cache: bool = True,
    ) -> QueryStats:
        """Range scan over ``names`` (all series when None).

        With ``collect=True`` the merged rows come back k-way sorted on
        ``t_g`` with canonical-order tie-breaking — identical to
        :func:`repro.query.merge.scan_over_series` unsharded.
        """
        return self._execute("range", names, lo, hi, collect, workers, use_cache)

    def close(self) -> None:
        """Shut the scatter pool down (workers exit; cache kept)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_key = None

    # -- versions --------------------------------------------------------------

    def _fleet_version(self) -> tuple:
        """Version vector over every series in the fleet (pool key)."""
        return tuple(
            (index, name, db.series(name).engine.read_version())
            for index, db in enumerate(self.fleet.shards)
            for name in db.series_names()
        )

    # -- execution -------------------------------------------------------------

    def _execute(
        self,
        kind: str,
        names: str | Sequence[str] | None,
        lo: float,
        hi: float,
        collect: bool,
        workers: int | None,
        use_cache: bool,
    ):
        # Everything a caller can get wrong is rejected here, before
        # anything is counted, looked up or run — so a bad argument
        # fails the same way whether or not the window is cached.  A NaN
        # bound equals nothing, itself included: each such call would
        # take a fresh cache slot; the bounds come back as plain floats,
        # so 1, 1.0 and np.float32(1) share one.
        lo, hi = check_window(lo, hi)
        width = resolve_workers(self.default_workers if workers is None else workers)
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
        # Resolve each shard against the cache; collect the stale ones.
        by_series: dict[str, object] = {}
        stale: list[tuple[int, list[str], tuple, tuple]] = []
        for index in sorted(parts):
            shard_series = parts[index]
            version = tuple(snapshot.version for snapshot in snapshots[index])
            key = (kind, index, tuple(shard_series), lo, hi, collect)
            cached = self.cache.lookup(key, version) if use_cache else None
            if cached is not None:
                if traced:
                    self.telemetry.for_shard(shard_name(index)).count(
                        "federation.cache_hits"
                    )
                by_series.update(zip(shard_series, cached))
            else:
                if use_cache and traced:
                    self.telemetry.for_shard(shard_name(index)).count(
                        "federation.cache_misses"
                    )
                stale.append((index, shard_series, key, version))
        if stale:
            if len(stale) > 1 and width > 1 and _fork_context() is not None:
                computed = self._scatter(stale, kind, lo, hi, collect, width)
            else:
                computed = [
                    self._run_inline(index, snapshots[index], kind, lo, hi, collect)
                    for index, _, _, _ in stale
                ]
            for (index, shard_series, key, version), partials in zip(
                stale, computed
            ):
                if use_cache:
                    self.cache.store(key, version, partials)
                by_series.update(zip(shard_series, partials))
        # The fold runs in canonical order regardless of which shard —
        # or which cache generation — produced each partial.
        merged = [by_series[name] for name in ordered]
        if kind == "aggregate":
            return merge_aggregates(merged, lo, hi)
        return merge_range_stats(merged, lo, hi)

    def _run_inline(
        self,
        index: int,
        snapshots: list,
        kind: str,
        lo: float,
        hi: float,
        collect: bool,
    ) -> list:
        """One shard's slice, in-process (the serial reference path)."""
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

    def _scatter(
        self,
        stale: list[tuple[int, list[str], tuple, tuple]],
        kind: str,
        lo: float,
        hi: float,
        collect: bool,
        width: int,
    ) -> list[list]:
        """Fan the stale shards out over the warm forked pool."""
        traced = self.telemetry.enabled
        pool = self._ensure_pool(width)
        futures = [
            pool.submit(_scatter_shard, index, names, kind, lo, hi, collect, traced)
            for index, names, _, _ in stale
        ]
        computed: list[list] = []
        for (index, _, _, _), future in zip(stale, futures):
            partials, duration_ms, payload = future.result()
            namespace = shard_name(index)
            if traced:
                if payload is not None:
                    self.telemetry.absorb(payload, worker=namespace)
                self.telemetry.for_shard(namespace).observe(
                    "federation.shard_latency_ms", duration_ms
                )
            computed.append(partials)
        return computed

    def _ensure_pool(self, width: int) -> ProcessPoolExecutor:
        """The warm scatter pool for the fleet's current read state.

        Keyed on the fleet-wide version vector: while nothing is
        written, scatters reuse the forked workers (whose inherited
        state stays valid — reads don't mutate engines, and worker-side
        snapshot caches warm up per worker).  Any state change re-forks.
        """
        global _SCATTER_FLEET
        width = min(width, self.fleet.n_shards)
        key = (self._fleet_version(), width)
        if self._pool is not None and self._pool_key == key:
            return self._pool
        self.close()
        _SCATTER_FLEET = self.fleet
        pool = ProcessPoolExecutor(max_workers=width, mp_context=_fork_context())
        # Fork now (see _scatter_warmup) so the workers' memory matches
        # the version vector just recorded.
        pool.submit(_scatter_warmup).result()
        self._pool = pool
        self._pool_key = key
        if self.telemetry.enabled:
            self.telemetry.count("federation.pool_builds")
        return pool
