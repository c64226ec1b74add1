"""Cross-shard query federation.

The read-path counterpart of the sharded write path: one
:class:`FederatedExecutor` per fleet turns multi-series and fleet-wide
range/aggregate queries into per-shard work, runs it in process, and
merges the per-series partials **bitwise-exactly** — the canonical-order
fold of :mod:`repro.query.merge` guarantees the federated answer equals
one unsharded database run over the same points, float ``sum``
included.

The module is one pipeline: route plan → one snapshot per series →
in-process partials → canonical fold.  Two mechanisms carry the cost
model:

* **A routing plan, not a routing step.**  Which shard owns a name,
  the canonical order of every name and the fleet-wide split are
  properties of the fleet's *shape*, which only a new series changes:
  the executor works them out through the router once per shape and a
  query looks its names up in the result — no sort, no CRC-32, no
  per-shard lookup on the way to a series' engine.
* **Routing prunes shards.**  The plan proves which shards hold no
  requested series; those do zero work (``federation.shards_pruned``).
  A single-series query degenerates to one call on its owning shard.

There is no result cache here.  Each series' engine keeps its last
snapshot, keyed on its ``read_version()``, and a partial is computed
from it afresh: a window costs its two edge tables, less than keying,
versioning and admitting per-shard partials cost every query.

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

__all__ = ["FederatedExecutor"]


class FederatedExecutor:
    """Range/aggregate queries over a sharded fleet, folded in process.

    Results are independent of the shard layout — see
    :mod:`repro.query.merge`.
    """

    def __init__(self, fleet: "ShardedDatabase") -> None:
        self.fleet = fleet
        self.telemetry = fleet.telemetry
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
    ) -> AggregateResult:
        """COUNT/MIN/MAX/SUM/AVG over ``names`` (all series when None).

        Bitwise equal to
        :func:`repro.query.merge.aggregate_over_series` on one unsharded
        database holding the same points.
        """
        return self._execute("aggregate", names, lo, hi, False)

    def query_range(
        self,
        names: str | Sequence[str] | None = None,
        lo: float = -math.inf,
        hi: float = math.inf,
        collect: bool = False,
    ) -> QueryStats:
        """Range scan over ``names`` (all series when None).

        With ``collect=True`` the merged rows come back k-way sorted on
        ``t_g`` with canonical-order tie-breaking — identical to
        :func:`repro.query.merge.scan_over_series` unsharded.
        """
        return self._execute("range", names, lo, hi, collect)

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
            (index, names, states) for index, (names, states) in sorted(parts.items())
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
    ):
        # Everything a caller can get wrong is rejected here, before
        # anything is counted or run: a NaN, inverted or non-real bound
        # in check_window (the bounds come back as plain floats), a bad
        # or unknown series in the routing.
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
            merged = self._shard_partials(parts[0], kind, lo, hi, collect, traced)
        else:
            by_series: dict[str, object] = {}
            for part in parts:
                partials = self._shard_partials(part, kind, lo, hi, collect, traced)
                by_series.update(zip(part[1], partials))
            # The fold runs in canonical order regardless of which shard
            # produced each partial.
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
        traced: bool,
    ) -> list:
        """One shard's slice of a query: its per-series partials."""
        index, _, states = part
        # The one read of each series' state: the engine's snapshot
        # slot answers it unless the series changed since.
        snapshots = [state.engine.snapshot() for state in states]
        # The shard's own bus is the fleet's, labelled with the shard.
        telemetry = self.fleet.shards[index].telemetry
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
        return partials
