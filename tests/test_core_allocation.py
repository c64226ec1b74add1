"""Tests for the fleet memory allocator and the online arbiter."""

import os

import pytest

from repro import LogNormalDelay, UniformDelay, tune_separation_policy
from repro.core import allocation
from repro.core.tuning import map_concurrently
from repro.core.allocation import (
    MemoryArbiter,
    RebalanceDecision,
    SeriesAllocation,
    SeriesWorkload,
    allocate_budgets,
    fleet_objective,
)
from repro.errors import ModelError


def _mild(name, rate=1.0):
    return SeriesWorkload(
        name=name, delay=UniformDelay(0.0, 20.0), dt=50.0, rate=rate
    )


def _severe(name, rate=1.0):
    return SeriesWorkload(
        name=name, delay=LogNormalDelay(5.0, 2.0), dt=50.0, rate=rate
    )


class TestAllocateBudgets:
    def test_budget_constraint_respected(self):
        workloads = [_severe("a"), _mild("b"), _severe("c")]
        allocations = allocate_budgets(
            workloads, total_budget=700, candidate_budgets=(32, 64, 128, 256)
        )
        assert sum(a.budget for a in allocations) <= 700
        assert {a.name for a in allocations} == {"a", "b", "c"}

    def test_disordered_series_get_more_memory(self):
        workloads = [_severe("noisy"), _mild("clean")]
        allocations = {
            a.name: a
            for a in allocate_budgets(
                workloads,
                total_budget=640,
                candidate_budgets=(32, 64, 128, 256, 512),
            )
        }
        # WA of the ordered series is 1 at any budget: marginal memory
        # is worthless there and must flow to the disordered series.
        assert allocations["noisy"].budget > allocations["clean"].budget
        assert allocations["clean"].predicted_wa == pytest.approx(1.0)

    def test_rate_weighting_prioritises_hot_series(self):
        hot = _severe("hot", rate=10.0)
        cold = _severe("cold", rate=0.1)
        allocations = {
            a.name: a
            for a in allocate_budgets(
                [hot, cold],
                total_budget=320,
                candidate_budgets=(32, 64, 128, 256),
            )
        }
        assert allocations["hot"].budget >= allocations["cold"].budget

    def test_beats_uniform_split(self):
        workloads = [_severe("a", rate=4.0), _mild("b"), _mild("c"), _mild("d")]
        tuned = allocate_budgets(
            workloads,
            total_budget=512,
            candidate_budgets=(32, 64, 128, 256, 320),
        )
        # Uniform 128-per-series baseline computed directly.
        uniform_objective = 0.0
        total_rate = sum(w.rate for w in workloads)
        for workload in workloads:
            decision = tune_separation_policy(workload.delay, workload.dt, 128)
            uniform_objective += workload.rate * decision.predicted_wa
        uniform_objective /= total_rate
        assert fleet_objective(tuned, workloads) <= uniform_objective + 1e-9

    def test_policies_reported(self):
        allocations = allocate_budgets(
            [_severe("a"), _mild("b")],
            total_budget=256,
            candidate_budgets=(32, 64, 128),
        )
        for allocation in allocations:
            assert isinstance(allocation, SeriesAllocation)
            assert allocation.policy in ("conventional", "separation")
            if allocation.policy == "separation":
                assert allocation.seq_capacity is not None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            allocate_budgets([], total_budget=100)
        with pytest.raises(ModelError):
            allocate_budgets([_mild("a")], total_budget=10,
                             candidate_budgets=(32, 64))
        with pytest.raises(ModelError):
            allocate_budgets([_mild("a")], total_budget=100,
                             candidate_budgets=(32,))


class TestAllocateBudgetsEdgeCases:
    def test_zero_budget_rejected(self):
        with pytest.raises(ModelError):
            allocate_budgets([_mild("a")], total_budget=0)

    def test_budget_exactly_at_floor(self):
        # Just enough for the minimum candidate each: nobody upgrades.
        workloads = [_severe("a"), _severe("b")]
        allocations = allocate_budgets(
            workloads, total_budget=64, candidate_budgets=(32, 64, 128)
        )
        assert [a.budget for a in allocations] == [32, 32]

    def test_tiny_budget_one_short_of_upgrade(self):
        # 95 covers the 2x32 floor but not a 32 -> 64 upgrade (needs 96).
        workloads = [_severe("a"), _severe("b")]
        allocations = allocate_budgets(
            workloads, total_budget=95, candidate_budgets=(32, 64, 128)
        )
        assert [a.budget for a in allocations] == [32, 32]

    def test_single_series_takes_the_largest_affordable_budget(self):
        [allocation] = allocate_budgets(
            [_severe("only")],
            total_budget=300,
            candidate_budgets=(32, 64, 128, 256, 512),
        )
        # Disordered WA strictly improves with memory, so the one series
        # climbs to the largest candidate the budget covers.
        assert allocation.budget == 256

    def test_tied_gains_break_toward_input_order(self):
        # Identical workloads under a budget that can upgrade only one:
        # the strict `>` comparison keeps first-seen, so the winner is
        # whichever appears first in the input list.
        first_winner = allocate_budgets(
            [_severe("x"), _severe("y")],
            total_budget=96,
            candidate_budgets=(32, 64),
        )
        assert [a.budget for a in first_winner] == [64, 32]
        swapped = allocate_budgets(
            [_severe("y"), _severe("x")],
            total_budget=96,
            candidate_budgets=(32, 64),
        )
        assert [a.budget for a in swapped] == [64, 32]
        assert swapped[0].name == "y"

    def test_allocation_is_deterministic(self):
        workloads = [_severe("a", rate=2.0), _mild("b"), _severe("c")]
        first = allocate_budgets(workloads, total_budget=700)
        second = allocate_budgets(workloads, total_budget=700)
        assert first == second


class TestAllocateBudgetsRejectsBeforeTuning:
    """A question the table cannot answer is a ``ModelError`` before any
    series is tuned.  Before, the table was keyed by name, so two
    workloads named ``"a"`` both got the last one's WA, and NaN compared
    its way through: a NaN total bought every series the largest
    budget, a NaN rate pinned its series to the floor."""

    @pytest.fixture
    def tunes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            allocation, "tune_separation_policy", lambda *a, **k: calls.append(a)
        )
        return calls

    @pytest.mark.parametrize(
        "workloads, total_budget, message",
        [
            (
                [SeriesWorkload("a", LogNormalDelay(5.0, 2.0), 50.0),
                 SeriesWorkload("a", LogNormalDelay(5.0, 0.5), 50.0)],
                1024, "names must be unique",
            ),
            ([_severe("a"), _mild("b")], float("nan"), "total_budget"),
            ([_severe("a"), _mild("b")], float("inf"), "total_budget"),
            ([_severe("a"), _mild("b", rate=float("nan"))], 1024, "'b': rate"),
            ([_severe("a", rate=float("inf")), _mild("b")], 1024, "'a': rate"),
            ([_severe("a"), _mild("b", rate=-1.0)], 1024, "'b': rate"),
        ],
        ids=["duplicate-name", "nan-total", "inf-total", "nan-rate", "inf-rate",
             "negative-rate"],
    )
    def test_rejected(self, tunes, workloads, total_budget, message):
        with pytest.raises(ModelError, match=message):
            allocate_budgets(workloads, total_budget)
        assert tunes == []

    def test_a_zero_rate_is_a_series_that_does_not_write(self):
        allocations = allocate_budgets(
            [_severe("idle", rate=0.0), _severe("busy")], 96, (32, 64)
        )
        assert [a.budget for a in allocations] == [32, 64]


def test_the_table_is_the_serial_loop(monkeypatch):
    """Tuned concurrently, every ``(series, budget)`` cell equals a plain
    loop of ``tune_separation_policy`` calls, bit for bit."""
    seen = []

    def spy(fn, items):
        results = map_concurrently(fn, items)
        seen.append((items, results))
        return results

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(allocation, "map_concurrently", spy)
    workloads = [_severe("a", rate=2.0), _mild("b"),
                 SeriesWorkload("c", LogNormalDelay(4.0, 1.5), 50.0)]
    allocate_budgets(workloads, 700, (32, 64, 128, 256), sstable_size=64)
    [(cells, table)] = seen
    serial = []
    for workload in workloads:
        for budget in (32, 64, 128, 256):
            decision = tune_separation_policy(
                workload.delay, workload.dt, budget, sstable_size=64,
                coarse_points=12, refine_rounds=2,
            )
            serial.append(
                (decision.predicted_wa, decision.policy, decision.seq_capacity)
            )
    assert [(w.name, b) for w, b in cells] == [
        (w.name, b) for w in workloads for b in (32, 64, 128, 256)
    ]
    assert [(wa.hex(), p, n) for wa, p, n in table] == [
        (wa.hex(), p, n) for wa, p, n in serial
    ]


class TestMemoryArbiter:
    def test_observe_points_gates_on_the_interval(self):
        arbiter = MemoryArbiter(total_budget=256, decision_interval=100)
        assert not arbiter.observe_points(60)
        assert arbiter.observe_points(40)

    def test_decide_resets_the_interval_and_ticks(self):
        arbiter = MemoryArbiter(
            total_budget=256,
            candidate_budgets=(32, 64, 128),
            decision_interval=10,
        )
        arbiter.observe_points(10)
        decision = arbiter.decide([_severe("a"), _mild("b")])
        assert isinstance(decision, RebalanceDecision)
        assert decision.tick == 1
        assert not arbiter.observe_points(0)
        assert "a" in [allocation.name for allocation in decision.allocations]
        assert "missing" not in [allocation.name for allocation in decision.allocations]

    def test_changed_lists_only_moved_budgets(self):
        arbiter = MemoryArbiter(
            total_budget=256, candidate_budgets=(32, 64, 128)
        )
        workloads = [_severe("a"), _mild("b")]
        first = arbiter.decide(workloads)
        settled = {a.name: a.budget for a in first.allocations}
        second = arbiter.decide(workloads, current_budgets=settled)
        assert second.changed == ()
        third = arbiter.decide(
            workloads, current_budgets={name: 32 for name in settled}
        )
        assert set(third.changed) == {
            name for name, budget in settled.items() if budget != 32
        }

    def test_converges_to_the_one_shot_solution_when_stationary(self):
        # Property: on a stationary workload the online arbiter reaches
        # the one-shot allocation in one decision and never moves again.
        workloads = [
            _severe("noisy-0", rate=4.0),
            _severe("noisy-1"),
            _mild("clean-0"),
            _mild("clean-1", rate=2.0),
        ]
        candidates = (32, 64, 128, 256)
        one_shot = {
            a.name: a.budget
            for a in allocate_budgets(
                workloads, total_budget=512, candidate_budgets=candidates
            )
        }
        arbiter = MemoryArbiter(
            total_budget=512,
            candidate_budgets=candidates,
            decision_interval=1,
        )
        current: dict[str, int] = {name: 32 for name in one_shot}
        for tick in range(4):
            decision = arbiter.decide(workloads, current_budgets=current)
            for allocation in decision.allocations:
                current[allocation.name] = allocation.budget
            assert current == one_shot
            if tick > 0:
                assert decision.changed == ()
            assert decision.objective == pytest.approx(
                fleet_objective(list(decision.allocations), workloads)
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            MemoryArbiter(total_budget=1)
        with pytest.raises(ModelError):
            MemoryArbiter(total_budget=256, decision_interval=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("candidate_budgets", ()),
            ("candidate_budgets", (64,)),
            ("candidate_budgets", (64, 64)),
            ("candidate_budgets", (0, 1.5)),
            ("candidate_budgets", (1, 64)),
            ("total_budget", float("nan")),
            ("total_budget", 4096.0),
            ("decision_interval", 1.5),
            ("decision_interval", True),
            ("min_observations", -5),
            ("sstable_size", 0),
        ],
    )
    def test_rejects_an_argument_that_would_fail_a_later_decision(self, name, value):
        """Every argument is checked at construction: a fleet consults
        its arbiter only after a batch has landed and synced."""
        kwargs = {"total_budget": 4096, name: value}
        with pytest.raises(ModelError, match=name):
            MemoryArbiter(**kwargs)
