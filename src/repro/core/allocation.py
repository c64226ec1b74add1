"""Fleet memory allocation: divide one budget across many series.

Section VI deploys one database instance per vendor with thousands of
series sharing the machine's buffer memory.  The paper tunes the
*split* of a fixed per-workload budget (``n_seq`` vs ``n_nonseq``); the
natural next question — how much total buffer each *series* deserves —
follows from the same models: WA decreases with the budget, so give
marginal memory to the series where it saves the most disk writes.

:func:`allocate_budgets` solves the discrete problem

    minimise   sum_i  rate_i * WA_i(n_i)
    subject to sum_i n_i <= total_budget,   n_i in a candidate grid

with a greedy marginal-gain ascent (optimal when the per-series curves
are concave in the "gain per point" sense, which the WA curves are to a
good approximation).  Each series' ``WA_i(n)`` is
``min(r_c(n), min_seq r_s(n, n_seq))``, one independent tune per
``(series, n)`` cell, the cells run concurrently, so a fleet-scale
allocation runs in seconds.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass

from ..config import DEFAULT_MODEL_CONFIG, ModelConfig, is_integer
from ..distributions import DelayDistribution
from ..errors import ModelError
from .tuning import map_concurrently, tune_separation_policy

__all__ = [
    "SeriesWorkload",
    "SeriesAllocation",
    "allocate_budgets",
    "fleet_objective",
    "RebalanceDecision",
    "MemoryArbiter",
]


@dataclass(frozen=True)
class SeriesWorkload:
    """One series' workload description for the allocator."""

    name: str
    delay: DelayDistribution
    dt: float
    #: Relative arrival rate (points per unit time); the objective
    #: weights each series' WA by its write volume share.
    rate: float = 1.0


@dataclass(frozen=True)
class SeriesAllocation:
    """Allocator output for one series."""

    name: str
    budget: int
    policy: str
    seq_capacity: int | None
    predicted_wa: float


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _wa_at_budget(
    workload: SeriesWorkload,
    budget: int,
    sstable_size: int | None,
    config: ModelConfig,
) -> tuple[float, str, int | None]:
    decision = tune_separation_policy(
        workload.delay,
        workload.dt,
        budget,
        config=config,
        sstable_size=sstable_size,
        coarse_points=12,
        refine_rounds=2,
    )
    return decision.predicted_wa, decision.policy, decision.seq_capacity


def allocate_budgets(
    workloads: list[SeriesWorkload],
    total_budget: int,
    candidate_budgets: tuple[int, ...] = (32, 64, 128, 256, 512, 1024),
    sstable_size: int | None = None,
    config: ModelConfig = DEFAULT_MODEL_CONFIG,
) -> list[SeriesAllocation]:
    """Allocate ``total_budget`` buffer points across ``workloads``.

    Every series receives at least the smallest candidate budget (the
    total must cover that); leftovers are assigned greedily to the
    series with the largest weighted WA reduction per extra point.
    Returns one :class:`SeriesAllocation` per series, in input order.

    Series names must be unique, ``total_budget`` finite and every
    ``rate`` finite and ``>= 0``; anything else is a :class:`ModelError`
    before any series is tuned.  The table of ``WA_i(n)`` over every
    series and candidate budget is tuned concurrently
    (:func:`~repro.core.tuning.map_concurrently`).
    """
    if not workloads:
        raise ModelError("allocate_budgets needs at least one workload")
    repeated = [
        name
        for name, count in Counter(w.name for w in workloads).items()
        if count > 1
    ]
    if repeated:
        raise ModelError(f"workload names must be unique; repeated: {repeated}")
    if not _finite(total_budget):
        raise ModelError(f"total_budget must be a finite number, got {total_budget!r}")
    for workload in workloads:
        if not _finite(workload.rate) or workload.rate < 0:
            raise ModelError(
                f"workload {workload.name!r}: rate must be finite and >= 0, "
                f"got {workload.rate!r}"
            )
    candidates = tuple(sorted(set(candidate_budgets)))
    if len(candidates) < 2:
        raise ModelError("need at least two candidate budgets")
    floor = candidates[0]
    if total_budget < floor * len(workloads):
        raise ModelError(
            f"total_budget {total_budget} cannot give every series the "
            f"minimum candidate budget {floor}"
        )
    # WA_i(n) on the whole candidate grid: one independent tune per cell.
    cells = [(workload, budget) for workload in workloads for budget in candidates]
    answers = map_concurrently(
        lambda cell: _wa_at_budget(*cell, sstable_size, config), cells
    )
    table = {
        (workload.name, budget): answer
        for (workload, budget), answer in zip(cells, answers)
    }

    # Greedy marginal-gain: all series start at the floor; repeatedly
    # upgrade the series with the best (weighted WA drop) / (extra points).
    level = {workload.name: 0 for workload in workloads}
    spent = floor * len(workloads)
    by_name = {workload.name: workload for workload in workloads}

    def _gain(name: str, lvl: int) -> float:
        here = table[(name, candidates[lvl])][0]
        there = table[(name, candidates[lvl + 1])][0]
        extra = candidates[lvl + 1] - candidates[lvl]
        return by_name[name].rate * max(here - there, 0.0) / extra

    while True:
        best_name = None
        best_gain = 0.0
        # Strict `>` makes ties deterministic: among equal marginal
        # gains the series that appears first in the input wins, so the
        # allocation is a pure function of the workload list (the online
        # arbiter's convergence test depends on this).
        for name, lvl in level.items():
            if lvl + 1 >= len(candidates):
                continue
            extra = candidates[lvl + 1] - candidates[lvl]
            if spent + extra > total_budget:
                continue
            gain = _gain(name, lvl)
            if gain > best_gain:
                best_gain = gain
                best_name = name
        if best_name is None:
            break
        spent += candidates[level[best_name] + 1] - candidates[level[best_name]]
        level[best_name] += 1

    allocations = []
    for workload in workloads:
        budget = candidates[level[workload.name]]
        wa, policy, seq_capacity = table[(workload.name, budget)]
        allocations.append(
            SeriesAllocation(
                name=workload.name,
                budget=budget,
                policy=policy,
                seq_capacity=seq_capacity,
                predicted_wa=wa,
            )
        )
    return allocations


def fleet_objective(
    allocations: list[SeriesAllocation],
    workloads: list[SeriesWorkload],
) -> float:
    """Weighted fleet WA of an allocation (the quantity minimised)."""
    rates = {workload.name: workload.rate for workload in workloads}
    total_rate = sum(rates.values())
    if total_rate <= 0:
        raise ModelError("total arrival rate must be positive")
    return float(
        sum(rates[a.name] * a.predicted_wa for a in allocations) / total_rate
    )


# -- online arbitration ---------------------------------------------------------


@dataclass(frozen=True)
class RebalanceDecision:
    """One arbiter tick: the re-solved allocation and what it changes."""

    #: Monotone decision counter (1 = first decision).
    tick: int
    #: Full re-solved allocation, one entry per profiled series.
    allocations: tuple[SeriesAllocation, ...]
    #: Names whose budget differs from the budget they currently run.
    changed: tuple[str, ...]
    #: Predicted weighted fleet WA of ``allocations``.
    objective: float
    #: Budget the solver divided (points).
    total_budget: int


class MemoryArbiter:
    """Online controller over :func:`allocate_budgets`.

    *Breaking Down Memory Walls* (PAPERS.md) observes that a static
    memory split across LSM components loses to a controller that keeps
    reallocating as the workload drifts.  This class is that controller
    for the fleet's MemTable budgets: the serving tier feeds it observed
    per-series workloads (delay profiles from each shard's
    :class:`~repro.core.analyzer.DelayAnalyzer`, rates from the shard
    telemetry counters) and it re-solves the same discrete problem the
    one-shot solver does.  Because :func:`allocate_budgets` is a pure,
    deterministic function of the workloads, the arbiter **converges**:
    once the observed profiles are stationary, consecutive decisions are
    identical and ``changed`` goes empty, so resizes stop.

    The arbiter only *decides*; the caller applies resizes at flush
    boundaries (:meth:`~repro.lsm.database.TimeSeriesDatabase.
    resize_series`) so WA accounting stays exact.

    Parameters
    ----------
    total_budget:
        Fleet-wide MemTable budget (points) to divide.
    decision_interval:
        Ingested points between decisions; :meth:`observe_points`
        reports when one is due.
    min_observations:
        Series with fewer observed points than this should not be
        handed to :meth:`decide` — their empirical profiles are noise.
        Callers keep such series at their current budget; the arbiter
        reserves nothing for them beyond what they already hold.
    """

    def __init__(
        self,
        total_budget: int,
        candidate_budgets: tuple[int, ...] = (32, 64, 128, 256, 512, 1024),
        sstable_size: int | None = None,
        config: ModelConfig = DEFAULT_MODEL_CONFIG,
        decision_interval: int = 8192,
        min_observations: int = 512,
    ) -> None:
        # Every argument is checked here, not at the first decision:
        # a fleet consults the arbiter after a batch has landed.
        for name, value, least in (
            ("total_budget", total_budget, 2),
            ("decision_interval", decision_interval, 1),
            ("min_observations", min_observations, 0),
            ("sstable_size", 1 if sstable_size is None else sstable_size, 1),
        ):
            if not is_integer(value) or value < least:
                raise ModelError(f"{name} must be an integer >= {least}, got {value!r}")
        candidates = tuple(sorted(set(candidate_budgets)))
        if len(candidates) < 2 or not all(is_integer(c) and c >= 2 for c in candidates):
            raise ModelError(
                "candidate_budgets must hold at least two distinct integers >= 2, "
                f"got {candidate_budgets!r}"
            )
        self.total_budget = total_budget
        self.candidate_budgets = candidates
        self.sstable_size = sstable_size
        self.config = config
        self.decision_interval = decision_interval
        self.min_observations = min_observations
        self.tick = 0
        self.last_decision: RebalanceDecision | None = None
        self._points_since_decision = 0

    def observe_points(self, count: int) -> bool:
        """Record ``count`` ingested points; True when a decision is due."""
        if count < 0:
            raise ModelError(f"observed point count cannot be negative: {count}")
        self._points_since_decision += count
        return self._points_since_decision >= self.decision_interval

    def decide(
        self,
        workloads: list[SeriesWorkload],
        current_budgets: dict[str, int] | None = None,
        budget: int | None = None,
    ) -> RebalanceDecision:
        """Re-solve the allocation for ``workloads``.

        ``current_budgets`` (series → running budget) determines which
        series land in ``changed``; omitted, every series counts as
        changed.  ``budget`` overrides the fleet total for this tick —
        the serving tier passes the share belonging to the profiled
        series when unprofiled series still hold reserved memory.
        """
        self._points_since_decision = 0
        self.tick += 1
        allocations = tuple(
            allocate_budgets(
                workloads,
                budget if budget is not None else self.total_budget,
                candidate_budgets=self.candidate_budgets,
                sstable_size=self.sstable_size,
                config=self.config,
            )
        )
        current = current_budgets or {}
        changed = tuple(
            allocation.name
            for allocation in allocations
            if current.get(allocation.name) != allocation.budget
        )
        decision = RebalanceDecision(
            tick=self.tick,
            allocations=allocations,
            changed=changed,
            objective=fleet_objective(list(allocations), workloads),
            total_budget=(
                budget if budget is not None else self.total_budget
            ),
        )
        self.last_decision = decision
        return decision
