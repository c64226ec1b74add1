"""The sharded serving tier: N databases, one front-end, one arbiter.

:class:`ShardedDatabase` scales the single
:class:`~repro.lsm.database.TimeSeriesDatabase` out to a fleet: a
:class:`~repro.serving.router.ShardRouter` assigns every series name to
one of N per-shard databases, each with its own WAL directory
(``<durability_dir>/shard-XX/``), checkpoint namespace, backpressure
controllers and telemetry shard label.  The front-end batches writes
(:meth:`ingest_batch` splits, routes, then group-commits per shard) and
drives the global :class:`~repro.core.allocation.MemoryArbiter`, which
re-solves the fleet's MemTable budgets from observed per-series delay
profiles and per-shard arrival counters, applying resizes at flush
boundaries only.

The structural invariant — relied on by the conformance tests — is
that shards are *independent*: an N-shard
run is bit-identical, shard by shard (WA, per-point write counters,
checkpoint bytes, ``verify()``), to N standalone single-shard runs over
the same routed partitions.  The serving tier adds routing, arbitration
and roll-up reporting on top; it never reaches into a shard's engines.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping

import numpy as np

from ..config import check_fault_plan, is_integer
from ..core.allocation import MemoryArbiter, RebalanceDecision, SeriesWorkload
from ..core.tuning import SEPARATION
from ..errors import EngineError, InjectedCrash, ModelError, RecoveryError
from ..lsm.backpressure import rollup_states
from ..lsm.checkpoint import write_atomically
from ..lsm.database import (
    TimeSeriesDatabase,
    check_manifest,
    decide_series,
    load_manifest,
    recorded_stability,
)
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .router import ShardRouter, shard_name

__all__ = ["ShardedDatabase", "FLEET_MANIFEST"]

#: Fleet manifest file name, at the root of the fleet durability dir.
FLEET_MANIFEST = "fleet.json"

_FLEET_FIELDS = {
    "router": dict,
    "shards": list,
    "stability": (dict, type(None)),
    "last_rebalance": (dict, type(None)),
}


def _check_arbiter(arbiter: MemoryArbiter | None, auto_tune: bool) -> None:
    if arbiter is not None and not auto_tune:
        raise EngineError(
            "the memory arbiter needs per-series delay profiles; "
            "construct the fleet with auto_tune=True"
        )


class ShardedDatabase:
    """N routed :class:`TimeSeriesDatabase` shards behind one front-end.

    Parameters
    ----------
    n_shards:
        Fleet width; series are hash-routed over it
        (:class:`~repro.serving.router.ShardRouter`).
    memory_budget_per_series / sstable_size / auto_tune / stability:
        Forwarded to every shard database (see
        :class:`~repro.lsm.database.TimeSeriesDatabase`).
    telemetry:
        Fleet-wide bus.  Each shard reports through a labelled view of
        it (:meth:`~repro.obs.Telemetry.for_shard`), so per-shard
        counters stay distinguishable after any merge.
    durability_dir:
        Fleet root; shard ``i`` keeps its WALs and checkpoints under
        ``<durability_dir>/shard-0i/`` with a matching checkpoint
        namespace, and :meth:`checkpoint_all` writes the fleet manifest
        (``fleet.json``) at the root.
    arbiter:
        Optional online :class:`~repro.core.allocation.MemoryArbiter`.
        When set (requires ``auto_tune``), :meth:`ingest_batch` counts
        points toward its decision interval and :meth:`maybe_rebalance`
        re-solves the fleet's budgets and resizes series at flush
        boundaries.
    shard_fault_plans:
        ``{shard_index: FaultPlan}`` arming fault injection on selected
        shards only — the fleet crash matrix kills one shard
        mid-group-commit and checks the rest are untouched.  Anything
        but a mapping is an :class:`EngineError`, a key that names no
        shard too, a value that is no plan a ``ConfigError`` — all
        before any shard or directory is made.
    """

    def __init__(
        self,
        n_shards: int = 4,
        memory_budget_per_series: int = 512,
        sstable_size: int = 512,
        auto_tune: bool = True,
        telemetry: Telemetry | None = None,
        durability_dir: str | None = None,
        stability: dict | None = None,
        arbiter: MemoryArbiter | None = None,
        shard_fault_plans: Mapping[int, object] | None = None,
    ) -> None:
        self.router = ShardRouter(n_shards)
        _check_arbiter(arbiter, auto_tune)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.durability_dir = durability_dir
        self.stability = dict(stability) if stability else {}
        self.arbiter = arbiter
        #: Last applied rebalance, as a JSON-serialisable record (also
        #: persisted in the fleet manifest); ``None`` before the first.
        self.last_rebalance: dict | None = None
        plans = {} if shard_fault_plans is None else shard_fault_plans
        if not isinstance(plans, Mapping):
            raise EngineError(
                "shard_fault_plans must map shard indexes to FaultPlans, "
                f"got {type(plans).__name__}"
            )
        for index, plan in plans.items():
            self._check_index(index)
            check_fault_plan(plan)
        if durability_dir:
            os.makedirs(durability_dir, exist_ok=True)
        self.shards: list[TimeSeriesDatabase] = []
        for index in range(self.n_shards):
            namespace = shard_name(index)
            self.shards.append(
                TimeSeriesDatabase(
                    memory_budget_per_series=memory_budget_per_series,
                    sstable_size=sstable_size,
                    auto_tune=auto_tune,
                    telemetry=self.telemetry.for_shard(namespace),
                    durability_dir=(
                        os.path.join(durability_dir, namespace)
                        if durability_dir
                        else None
                    ),
                    stability=self.stability or None,
                    namespace=namespace,
                    fault_plan=plans.get(index),
                )
            )

    @property
    def n_shards(self) -> int:
        """Fleet width."""
        return self.router.n_shards

    # -- routing ---------------------------------------------------------------

    def shard_of(self, name: str) -> int:
        """Shard index owning series ``name``."""
        return self.router.shard_of(name)

    def shard(self, index: int) -> TimeSeriesDatabase:
        """The shard database at ``index``."""
        self._check_index(index)
        return self.shards[index]

    def _check_index(self, index) -> None:
        if not (is_integer(index) and 0 <= index < self.n_shards):
            raise EngineError(f"shard index {index!r} outside [0, {self.n_shards})")

    def database_for(self, name: str) -> TimeSeriesDatabase:
        """The shard database owning series ``name``."""
        return self.shards[self.shard_of(name)]

    def series_names(self) -> list[str]:
        """Every registered series, shard by shard."""
        names: list[str] = []
        for db in self.shards:
            names.extend(db.series_names())
        return names

    def __len__(self) -> int:
        return sum(len(db) for db in self.shards)

    # -- writing ---------------------------------------------------------------

    def write(
        self, name: str, tg: np.ndarray, ta: np.ndarray | None = None
    ) -> int:
        """Route one series' arrival-ordered batch to its shard; returns
        the number of points written."""
        return self.database_for(name).write(name, tg, ta)

    def ingest_batch(self, batch: list[tuple], sync: bool = True) -> int:
        """Split, route and group-commit one multi-series batch.

        ``batch`` is a list of ``(name, tg)`` or ``(name, tg, ta)``
        entries; a malformed entry raises :class:`EngineError` before
        anything is written.  Entries are routed to their shards
        (per-shard order = batch order) and, with ``sync`` (the
        default), every touched shard gets one durability barrier after
        its slice — the fleet analogue of the group-commit ``sync()``.
        Returns the number of points ingested.  When an arbiter is
        installed, the batch counts toward its decision interval and a
        due decision is applied before returning.

        The batch is applied entry by entry, not all or nothing: when
        :meth:`TimeSeriesDatabase.write` rejects an entry, the entries
        before it are applied — and, with ``sync``, durable: the barrier
        still runs for every shard written to — the rejected one left no
        trace, and later ones were not attempted.
        """
        total = 0
        parts = self.router.split_batch(list(batch))
        for index in sorted(parts):
            db = self.shards[index]
            barrier = sync
            try:
                for entry in parts[index]:
                    total += db.write(*entry)
            except InjectedCrash:
                # A simulated process death: pending frames die with it.
                barrier = False
                raise
            finally:
                # Also when an entry is rejected: what the call did place
                # is durable before the error leaves.
                if barrier:
                    db.sync()
        if self.telemetry.enabled:
            self.telemetry.count("fleet.ingest.batches")
            self.telemetry.count("fleet.ingest.points", total)
        if self.arbiter is not None and self.arbiter.observe_points(total):
            self.maybe_rebalance(force=True)
        return total

    def flush_all(self) -> None:
        """Drain every shard's MemTables."""
        for db in self.shards:
            db.flush_all()

    def sync(self) -> None:
        """Durability barrier across the whole fleet."""
        for db in self.shards:
            db.sync()

    def retune(self, min_observations: int = 2048) -> dict[str, str]:
        """Re-decide every shard's policies (see
        :meth:`TimeSeriesDatabase.retune`): every shard's series are
        decided in one concurrent pass, then applied shard by shard."""
        candidates = [db._retune_candidates(min_observations) for db in self.shards]
        outcomes = iter(decide_series([s for states in candidates for s in states]))
        switched: dict[str, str] = {}
        for db, states in zip(self.shards, candidates):
            switched.update(db._apply_retune(states, outcomes))
        return switched

    # -- backpressure ----------------------------------------------------------

    def backpressure_state(self) -> str:
        """Fleet admission state: the worst shard's worst series.

        Also published as the ``fleet.backpressure.state`` gauge (state
        index) when telemetry is on.
        """
        states = [self.shard_backpressure_state(i) for i in range(self.n_shards)]
        rolled = rollup_states(states)
        if self.telemetry.enabled:
            from ..lsm.backpressure import BACKPRESSURE_STATES

            self.telemetry.gauge(
                "fleet.backpressure.state",
                float(BACKPRESSURE_STATES.index(rolled)),
            )
        return rolled

    def shard_backpressure_state(self, index: int) -> str:
        """One shard's admission state (worst of its series)."""
        db = self.shard(index)
        return rollup_states(
            [db.backpressure_state(name) for name in db.series_names()]
        )

    # -- arbitration -----------------------------------------------------------

    def maybe_rebalance(self, force: bool = False) -> RebalanceDecision | None:
        """Run one arbiter decision and apply it at flush boundaries.

        Gathers a :class:`~repro.core.allocation.SeriesWorkload` per
        *profiled* series (enough observed points for a delay profile),
        weighted by its observed arrival count; series still warming up
        keep their current budget, and the arbiter divides what the
        profiled series collectively hold.  Budget changes are applied
        with :meth:`TimeSeriesDatabase.resize_series` — each resize
        drains the engine first, so WA accounting stays exact.  Returns
        the decision, or ``None`` when no arbiter is installed, nothing
        is profiled yet, or (without ``force``) no decision is due.
        """
        arbiter = self.arbiter
        if arbiter is None:
            return None
        if not force and not arbiter.observe_points(0):
            return None
        workloads: list[SeriesWorkload] = []
        owners: dict[str, TimeSeriesDatabase] = {}
        current: dict[str, int] = {}
        profiled_budget = 0
        for db in self.shards:
            for name in db.series_names():
                state = db.series(name)
                analyzer = state.engine.analyzer
                if (
                    analyzer is None
                    or analyzer.observed_points < arbiter.min_observations
                ):
                    continue
                try:
                    profile = analyzer.profile()
                except ModelError:
                    continue
                workloads.append(
                    SeriesWorkload(
                        name=name,
                        delay=profile.distribution,
                        dt=profile.dt,
                        rate=float(analyzer.observed_points),
                    )
                )
                owners[name] = db
                current[name] = state.config.memory_budget
                profiled_budget += state.config.memory_budget
        if not workloads:
            return None
        # Unprofiled series keep what they hold; the arbiter re-divides
        # the larger of the profiled series' current share and the
        # configured total minus the unprofiled share.
        unprofiled = sum(
            db.series(name).config.memory_budget
            for db in self.shards
            for name in db.series_names()
            if name not in current
        )
        budget = max(arbiter.total_budget - unprofiled, profiled_budget)
        floor = arbiter.candidate_budgets[0] * len(workloads)
        if budget < floor:
            return None
        decision = arbiter.decide(workloads, current, budget=budget)
        for allocation in decision.allocations:
            if allocation.name not in decision.changed:
                continue
            owners[allocation.name].resize_series(
                allocation.name,
                allocation.budget,
                seq_capacity=(
                    allocation.seq_capacity
                    if allocation.policy == SEPARATION
                    else None
                ),
            )
        self.last_rebalance = {
            "tick": decision.tick,
            "objective": decision.objective,
            "total_budget": decision.total_budget,
            "changed": list(decision.changed),
            "budgets": {a.name: a.budget for a in decision.allocations},
            "shard_points": (
                self.telemetry.registry.shard_values("db.write.points")
                if self.telemetry.enabled
                else {}
            ),
        }
        if self.telemetry.enabled:
            self.telemetry.emit(
                {"type": "fleet.rebalance", **self.last_rebalance}
            )
            self.telemetry.count("arbiter.decisions")
            self.telemetry.count("arbiter.resizes", len(decision.changed))
            self.telemetry.gauge("arbiter.objective", decision.objective)
        return decision

    # -- durability ------------------------------------------------------------

    def checkpoint_all(self) -> str:
        """Checkpoint every shard, then write the fleet manifest.

        Returns the fleet manifest path.  Requires ``durability_dir``.
        """
        if not self.durability_dir:
            raise EngineError("checkpoint_all requires a durability_dir")
        for db in self.shards:
            db.checkpoint_all()
        manifest = {
            "format": 1,
            "router": self.router.as_dict(),
            "stability": self.stability,
            "shards": [
                {"namespace": shard_name(index), "dir": shard_name(index)}
                for index in range(self.n_shards)
            ],
            "last_rebalance": self.last_rebalance,
        }
        path = os.path.join(self.durability_dir, FLEET_MANIFEST)
        write_atomically(
            path, json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
        )
        if self.telemetry.enabled:
            self.telemetry.count("fleet.checkpoints")
        return path

    @classmethod
    def recover(
        cls,
        durability_dir: str,
        telemetry: Telemetry | None = None,
        arbiter: MemoryArbiter | None = None,
    ) -> "ShardedDatabase":
        """Revive a fleet from ``durability_dir``.

        Reads the fleet manifest, then recovers every shard
        independently (checkpoint restore + WAL tail replay, each engine
        verified).  One shard's torn WAL or corrupt checkpoint never
        touches another shard's recovery — shards fail independently by
        construction.
        """
        manifest_path = os.path.join(durability_dir, FLEET_MANIFEST)
        if not os.path.exists(manifest_path):
            raise RecoveryError(f"no fleet manifest at {manifest_path}")
        manifest = load_manifest(manifest_path)
        check_manifest(manifest_path, manifest, _FLEET_FIELDS)
        check_manifest(manifest_path, manifest["router"], {"n_shards": int})
        mode = manifest["router"].get("mode", "hash")
        if mode != "hash":
            # Range routing was once an option: routing its names by
            # hash would strand its series on the wrong shards.
            raise RecoveryError(f"manifest {manifest_path}: router mode {mode!r} is not hash")
        for entry in manifest["shards"]:
            check_manifest(manifest_path, entry, {"namespace": str}, members=("dir",))
        try:
            router = ShardRouter.from_dict(manifest["router"])
        except EngineError as exc:
            raise RecoveryError(f"manifest {manifest_path}: router: {exc}") from None
        if len(manifest["shards"]) != router.n_shards:
            raise RecoveryError(f"manifest {manifest_path}: shards do not match router")
        fleet = cls.__new__(cls)
        fleet.router = router
        fleet.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        fleet.durability_dir = durability_dir
        fleet.stability = recorded_stability(manifest_path, manifest.get("stability"))
        fleet.arbiter = arbiter
        fleet.last_rebalance = manifest.get("last_rebalance")
        fleet.shards = []
        for entry in manifest["shards"]:
            namespace = entry["namespace"]
            fleet.shards.append(
                TimeSeriesDatabase.recover(
                    os.path.join(durability_dir, entry["dir"]),
                    telemetry=fleet.telemetry.for_shard(namespace),
                    namespace=namespace,
                )
            )
        _check_arbiter(arbiter, all(db.auto_tune for db in fleet.shards))
        if fleet.telemetry.enabled:
            fleet.telemetry.count("fleet.recoveries")
        return fleet

    # -- reading ---------------------------------------------------------------

    def snapshot(self, name: str):
        """Read view of one series (routed to its shard)."""
        return self.database_for(name).snapshot(name)

    @property
    def federation(self):
        """The fleet's :class:`~repro.serving.federation.FederatedExecutor`.

        Built lazily (and after :meth:`recover`, which bypasses
        ``__init__``); holds the routing plan every
        :meth:`query_range`/:meth:`query_aggregate` call reads.
        """
        executor = self.__dict__.get("_federation")
        if executor is None:
            from .federation import FederatedExecutor

            executor = FederatedExecutor(self)
            self._federation = executor
        return executor

    def query_range(
        self,
        names=None,
        lo: float = -math.inf,
        hi: float = math.inf,
        collect: bool = False,
    ):
        """Federated range scan over ``names`` (all series when None).

        A single-series request touches its owning shard only; the rest
        visit each involved shard in turn, in process.  Bitwise equal to
        the same scan on one unsharded database.
        """
        return self.federation.query_range(names, lo, hi, collect=collect)

    def query_aggregate(
        self,
        names=None,
        lo: float = -math.inf,
        hi: float = math.inf,
    ):
        """Federated aggregate over ``names`` (all series when None).

        Fleet-wide COUNT/MIN/MAX/SUM/AVG, bitwise equal — float ``sum``
        included — to one unsharded database over the same points.
        """
        return self.federation.query_aggregate(names, lo, hi)
