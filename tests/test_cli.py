"""CLI smoke tests: report subcommand, --trace, exit codes."""

import json

import pytest

from repro import (
    JsonlFileSink,
    LogNormalDelay,
    LsmConfig,
    SeparationEngine,
    Telemetry,
    execute_range_query,
    global_telemetry,
    reset_global_telemetry,
)
from repro.cli import main
from repro.lsm.policies import ENGINES
from repro.workloads import generate_synthetic


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    yield
    reset_global_telemetry()


@pytest.fixture()
def trace_path(tmp_path):
    """A real JSONL trace captured from a separation engine run."""
    path = tmp_path / "trace.jsonl"
    dataset = generate_synthetic(
        10_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=2
    )
    engine = SeparationEngine(
        LsmConfig(128, 128, seq_capacity=64),
        telemetry=Telemetry(sinks=[JsonlFileSink(str(path))]),
    )
    engine.ingest(dataset.tg)
    engine.flush_all()
    execute_range_query(
        engine.snapshot(), 0.0, 1e9, telemetry=engine.telemetry
    )
    engine.telemetry.close()
    return path


class TestTelemetryReport:
    def test_renders_summary(self, capsys, trace_path):
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "flush" in out
        assert "merge" in out
        assert "queries" in out

    def test_missing_file_fails(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_trace_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        assert main(["report", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_argument_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2


class TestEnginesSubcommand:
    def test_lists_every_registered_engine(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        for row in ENGINES:
            # One line per row of the engine table: its recorded name
            # (with the selector when rows share it) and its label.
            assert any(
                line.startswith(row.engine)
                and all(str(value) in line for value in row.selector.values())
                and row.policy_name in line
                for line in lines
            ), row
        assert "IoTDBStyleEngine(policy=separation)" in out
        assert f"[{len(ENGINES)} engine configurations registered]" in out
        # Policy-triple columns are present and populated.
        for column in ("placement", "flush", "compaction"):
            assert column in out
        assert "single" in out and "split" in out
        assert "separation" in out and "tiered" in out
        assert "engine configurations registered" in out

    def test_rejects_extra_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["engines", "--bogus"])
        assert excinfo.value.code == 2


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table02", "--bogus"])
        assert excinfo.value.code == 2

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_experiment_returns_1(self, capsys):
        assert main(["fig99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_scale_value_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table02", "--scale", "not-a-number"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["all", "crash-test"])
    def test_workers_is_a_deleted_flag_and_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["table02", "all"])
    def test_non_finite_scale_exits_2(self, command, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--scale", scale])
        assert excinfo.value.code == 2
        assert f"argument --scale: invalid float value: '{scale}'" in capsys.readouterr().err


class TestTraceOption:
    def test_experiment_run_writes_trace(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["table02", "--scale", "0.05", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"telemetry trace written to {path}" in out
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        spans = [e for e in events if e.get("type") == "span"]
        experiment_spans = [e for e in spans if e["name"] == "experiment"]
        assert len(experiment_spans) == 1
        assert experiment_spans[0]["experiment_id"] == "table02"
        assert experiment_spans[0]["duration_ms"] > 0
        # And the captured trace feeds back into the report subcommand.
        assert main(["report", str(path)]) == 0
        assert "experiment" in capsys.readouterr().out

    def test_a_traced_run_leaves_the_global_bus_disabled(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["concepts", "--trace", str(path)]) == 0
        traced = path.read_text()
        assert traced.count("\n") == 1
        assert not global_telemetry().enabled
        # A later untraced run in the same process appends nothing.
        assert main(["concepts"]) == 0
        assert path.read_text() == traced
