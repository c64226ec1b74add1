"""Fault-injection tests: plans, the injector, engine fault boundaries."""

import numpy as np
import pytest

from repro import (
    ConventionalEngine,
    ExponentialDelay,
    LsmConfig,
    RingBufferSink,
    SeparationEngine,
    Telemetry,
)
from repro.cli import main
from repro.errors import ConfigError, FaultError, InjectedCrash
from repro.faults import DELAY_SITES, FAULT_SITES, FaultInjector, FaultPlan
from repro.faults.crashtest import (
    CRASH_TEST_ENGINES,
    CrashTestReport,
    run_crash_case,
    run_crash_test,
)
from repro.workloads import generate_synthetic


def _dataset(n=3000, seed=0):
    return generate_synthetic(
        n, dt=1.0, delay=ExponentialDelay(mean=40.0), seed=seed
    )


def _memory_telemetry():
    sink = RingBufferSink()
    return Telemetry(sinks=[sink]), sink


class TestFaultPlan:
    def test_defaults_arm_nothing(self):
        injector = FaultInjector(FaultPlan())
        for site in FAULT_SITES * 3:
            injector.fire(site)
        assert injector.injected == []
        assert [injector.plan.delay_for(site)[0] for site in DELAY_SITES] == [0.0, 0.0]
        assert not injector.plan.corrupt_checkpoint

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_at_flush": 0},
            {"crash_at_merge": -1},
            {"torn_wal_append_at": 0},
            {"fsync_delay_ms": -0.1},
            {"merge_delay_every": 0},
            {"fsync_delay_every": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(FaultError):
            FaultPlan(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("crash_at_flush", 1.5),
            ("crash_at_merge", True),
            ("torn_wal_append_at", 2.0),
            ("fsync_delay_every", 2.5),
            ("merge_delay_every", True),
            ("fsync_delay_ms", float("nan")),
            ("merge_delay_ms", float("inf")),
            ("corrupt_checkpoint", "no"),
            ("corrupt_checkpoint", 1),
            ("corrupt_checkpoint", None),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", True),
            ("seed", "7"),
        ],
    )
    def test_a_value_of_the_wrong_kind_is_rejected_by_name(self, field, value):
        """A trigger or count that is no integer, or a delay that is not
        finite, would arm nothing (or stall forever); a switch that is no
        bool would arm what it seems to refuse (``"no"`` is truthy), and
        a seed that is no non-negative integer fails only when an engine
        seeds its RNG: each is refused, naming the field, before any
        engine is armed with it."""
        with pytest.raises(FaultError, match=f"^{field} must be"):
            FaultPlan(**{field: value})

    def test_a_switch_and_a_seed_of_their_kind_are_accepted(self):
        for plan in (
            FaultPlan(corrupt_checkpoint=np.bool_(True), seed=np.int64(3)),
            FaultPlan(corrupt_checkpoint=False, seed=0),
        ):
            assert FaultInjector(plan).plan is plan

    def test_config_rejects_non_plan(self):
        with pytest.raises(ConfigError):
            LsmConfig(8, 8, fault_plan="crash please")

    def test_config_accepts_plan(self):
        config = LsmConfig(8, 8, fault_plan=FaultPlan(crash_at_flush=1))
        engine = ConventionalEngine(config)
        assert engine.faults is not None
        assert engine.faults.plan.crash_at_flush == 1


class TestFaultInjector:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultError):
            FaultInjector(FaultPlan()).fire("fsync")

    def test_crash_fires_at_exact_occurrence(self):
        injector = FaultInjector(FaultPlan(crash_at_merge=3))
        injector.fire("merge")
        injector.fire("merge")
        with pytest.raises(InjectedCrash):
            injector.fire("merge")
        # One-shot: the same occurrence does not re-fire.
        injector.fire("merge")
        assert injector.counts["merge"] == 4
        assert injector.injected == [("merge", "crash")]

    def test_torn_prefix_is_strict_prefix(self):
        injector = FaultInjector(FaultPlan(seed=3))
        for size in (2, 10, 1000):
            cut = injector.torn_prefix_bytes(size)
            assert 1 <= cut < size

    def test_corrupt_file_respects_spare_prefix(self, tmp_path):
        path = tmp_path / "blob.bin"
        original = bytes(range(64))
        path.write_bytes(original)
        FaultInjector(FaultPlan(seed=1)).corrupt_file(str(path), spare_prefix=8)
        mutated = path.read_bytes()
        assert mutated != original
        assert mutated[:8] == original[:8]
        assert sum(a != b for a, b in zip(mutated, original)) == 1


class TestEngineFaultBoundary:
    def test_disabled_injection_is_one_branch(self):
        engine = ConventionalEngine(LsmConfig(64, 32))
        assert engine.faults is None
        engine.ingest(_dataset(500).tg)
        engine.flush_all()
        engine.verify()

    def test_crash_at_flush_leaves_pre_fault_state(self):
        plan = FaultPlan(crash_at_flush=1)
        engine = SeparationEngine(
            LsmConfig(64, 32, seq_capacity=48, fault_plan=plan)
        )
        dataset = _dataset(2000, seed=1)
        before_disk = 0
        with pytest.raises(InjectedCrash):
            for lo in range(0, 2000, 100):
                before_disk = engine.snapshot().disk_points
                engine.ingest(dataset.tg[lo : lo + 100])
        # The boundary fired before any state mutated: nothing new
        # reached disk.  (The in-memory state is torn — the simulated
        # process died mid-ingest — which is exactly what recovery from
        # the WAL repairs; see test_recovery.py.)
        assert engine.snapshot().disk_points == before_disk

    def test_crash_counted_on_telemetry(self):
        plan = FaultPlan(crash_at_flush=1)
        telemetry, sink = _memory_telemetry()
        engine = ConventionalEngine(
            LsmConfig(64, 32, fault_plan=plan), telemetry=telemetry
        )
        with pytest.raises(InjectedCrash):
            engine.ingest(_dataset(500, seed=4).tg)
        assert telemetry.registry.counter("fault.injected").value == 1
        events = [e for e in sink.events if e.get("type") == "fault"]
        assert events and events[0]["kind"] == "crash"


class TestCrashCases:
    """One representative cell per fault kind (the full matrix runs in CI)."""

    @pytest.mark.parametrize("fault", [
        "crash_flush", "crash_merge", "torn_wal", "corrupt_checkpoint",
    ])
    def test_conventional_survives(self, fault, tmp_path):
        result = run_crash_case("pi_c", fault, 0, str(tmp_path))
        assert result.ok, result.describe()

    def test_adaptive_survives_torn_wal(self, tmp_path):
        result = run_crash_case("adaptive", "torn_wal", 0, str(tmp_path))
        assert result.ok, result.describe()

    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(FaultError):
            run_crash_case("rocksdb", "torn_wal", 0, str(tmp_path))

    def test_engine_list_is_complete(self):
        assert set(CRASH_TEST_ENGINES) == {
            "pi_c", "pi_s", "adaptive", "iotdb", "multilevel", "tiered",
        }

    def test_recovery_counters_reconcile(self, tmp_path):
        telemetry, sink = _memory_telemetry()
        result = run_crash_case(
            "pi_s", "torn_wal", 1, str(tmp_path), telemetry=telemetry
        )
        assert result.ok, result.describe()
        registry = telemetry.registry
        assert (
            registry.counter("recovery.replayed_points").value
            == result.replayed_points
        )
        assert registry.counter("recovery.runs").value == 1
        recoveries = [e for e in sink.events if e.get("type") == "recovery"]
        assert recoveries[-1]["durable_points"] == result.durable_points


class TestCrashMatrixSelection:
    """A selector that parses to nothing must not mean everything, and a
    matrix that tested nothing must not pass."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seeds", "0"],
            ["--engines", ""],
            ["--engines", " , "],
            ["--faults", ","],
            ["--fleet", "--seeds", "0"],
            ["--fleet", "--faults", ","],
        ],
        ids=" ".join,
    )
    def test_an_empty_matrix_is_an_error(self, argv, capsys):
        assert main(["crash-test", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: empty crash matrix")
        assert captured.out == ""

    def test_adaptive_corrupt_checkpoint_is_a_cell(self, capsys):
        """The adaptive engine checkpoints like every other engine, so
        this selection is no longer empty."""
        assert main(["crash-test", "--engines", "adaptive", "--faults", "corrupt_checkpoint"]) == 0
        assert capsys.readouterr().out.endswith("3 cases, 3 ok, 0 failed\n")

    def test_an_empty_report_is_not_ok(self):
        report = CrashTestReport()
        assert not report.ok and report.summary() == "0 cases, 0 ok, 0 failed"
        with pytest.raises(FaultError, match="empty crash matrix"):
            run_crash_test(engines=[], seeds=1)
        with pytest.raises(FaultError, match="empty crash matrix"):
            run_crash_test(faults=[], seeds=1)

    @pytest.mark.parametrize("flag", [["--engines", "pi_c"], ["--points", "1500"]])
    def test_an_engine_selector_beside_fleet_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["crash-test", "--fleet", "--seeds", "1", *flag])
        assert excinfo.value.code == 2
        assert f"{flag[0]} does not apply to the fleet matrix" in capsys.readouterr().err

    def test_fleet_kinds_are_validated_by_the_one_runner(self):
        with pytest.raises(FaultError, match="unknown fleet fault kind 'crash_flush'"):
            run_crash_test(fleet_shards=2, faults=["crash_flush"])
        with pytest.raises(FaultError, match="unknown fault kind 'nope'"):
            run_crash_test(faults=["nope"])
