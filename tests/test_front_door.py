"""The front door: every command of the tree runs here, at its smallest
size.  Most are replayed against ``tests/data/front_door_golden.json``
(see :mod:`tests.front_door_support`); ``all``, which runs the whole
registry, is checked for order and streaming instead."""

import re

import pytest

from repro import reset_global_telemetry
from repro.cli import _build_parser, main
from repro.experiments import experiment_ids, registry
from tests.front_door_support import CASES, RECORDED_AS, load_golden, run_case

COMMANDS = sorted(_build_parser()[1].choices)


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    yield
    reset_global_telemetry()


def outcome(step: dict) -> tuple:
    return step["exit"], step["stdout"], step["stderr"]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_command_prints_what_was_recorded(case_id):
    golden = load_golden()
    steps = run_case(case_id)
    if case_id in golden:
        assert [outcome(s) for s in steps] == [outcome(s) for s in golden[case_id]]
        return
    # A ``report`` case: the texts recorded under the old names, each one
    # contiguous block of today's output, in order.
    (step,) = steps
    recorded = [golden[old][0] for old in RECORDED_AS[case_id]]
    blocks = [old["stdout"].rstrip("\n") for old in recorded]
    assert (step["exit"], step["stderr"]) == (0, "")
    assert all((old["exit"], old["stderr"]) == (0, "") for old in recorded)
    starts = [step["stdout"].index(block) for block in blocks]
    assert starts == sorted(starts)
    if len(blocks) == 1:
        assert step["stdout"].rstrip("\n") == blocks[0]


def test_every_command_of_the_tree_runs_in_this_file():
    replayed = {argv[0] for _, steps in CASES.values() for argv in steps}
    assert replayed - set(COMMANDS) <= set(experiment_ids())  # ids, not commands
    assert set(COMMANDS) - replayed == {"all"}  # run below


@pytest.mark.parametrize("argv", [[], *([command] for command in COMMANDS), ["fig07"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro-experiments")


@pytest.mark.parametrize(
    "old", ["telemetry-report", "stability-report", "shard-report", "run-all"]
)
def test_a_deleted_name_is_rejected_like_any_unknown_name(old, capsys):
    assert main([old]) == main(["no-such-command"]) == 1
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("error: unknown experiment")
    assert first.replace(old, "no-such-command") == second


def test_all_runs_every_experiment_in_registry_order(capsys):
    assert main(["all", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    done = re.findall(r"^\[(\w+) completed in [\d.]+s\]$", out, re.MULTILINE)
    assert done == experiment_ids()
    titles = re.findall(r"^== (\w+): ", out, re.MULTILINE)
    assert titles == experiment_ids()


def test_all_prints_each_result_before_the_next_experiment_starts(
    monkeypatch, capsys
):
    ids = ["table02", "fig05"]
    monkeypatch.setattr("repro.cli.experiment_ids", lambda: ids)
    printed_before = []
    run = registry.run_experiment

    def recording_run(experiment_id, **kwargs):
        printed_before.append(capsys.readouterr().out)
        return run(experiment_id, **kwargs)

    monkeypatch.setattr(registry, "run_experiment", recording_run)
    assert main(["all", "--scale", "0.05"]) == 0
    first, second = printed_before
    assert first == ""
    assert second.startswith(f"== {ids[0]}: ")
    assert f"[{ids[0]} completed in " in second

