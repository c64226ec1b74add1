"""The front door, pinned: what every command prints, at its smallest size.

``tests/data/front_door_golden.json`` holds stdout, stderr and the exit
code of a fixed list of command lines, each run in-process through
``repro.cli.main`` in its own scratch directory, with wall-clock figures
and the scratch path masked.  ``tests/test_front_door.py`` replays it.

The file was recorded on the tree *before* the commands were gathered
into one tree, under the names they had then: ``telemetry-report`` and
``stability-report`` on a trace, ``shard-report --dir`` on a fleet,
``python -m repro.tools`` for ``decide`` / ``analyze`` / ``generate``.
:data:`RECORDED_AS` maps today's ``report`` cases onto those entries.
Recorded on purpose only (it rewrites every entry under today's names,
after which :data:`RECORDED_AS` has nothing left to map)::

    PYTHONPATH=src:. python tests/front_door_support.py --record

``--record CASE [CASE ...]`` adds or replaces just those entries.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "data" / "front_door_golden.json"


# -- state a command line needs before it runs -----------------------------------


def engine_trace(tmp: Path) -> None:
    """``trace.jsonl``: the traced separation run of ``tests/test_cli.py``,
    its clock readings replaced by figures that depend on ``seq`` alone."""
    from repro import (
        JsonlFileSink,
        LogNormalDelay,
        LsmConfig,
        SeparationEngine,
        Telemetry,
        execute_range_query,
    )
    from repro.workloads import generate_synthetic

    raw = tmp / "raw.jsonl"
    dataset = generate_synthetic(10_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=2)
    engine = SeparationEngine(
        LsmConfig(128, 128, seq_capacity=64),
        telemetry=Telemetry(sinks=[JsonlFileSink(str(raw))]),
    )
    engine.ingest(dataset.tg)
    engine.flush_all()
    execute_range_query(engine.snapshot(), 0.0, 1e9, telemetry=engine.telemetry)
    engine.telemetry.close()
    events = [json.loads(line) for line in raw.read_text().splitlines()]
    for event in events:
        event["ts_ms"] = float(event["seq"])
        if "duration_ms" in event:
            event["duration_ms"] = 0.25 * (event["seq"] % 8 + 1)
    raw.unlink()
    write_trace(tmp, events)


def stability_trace(tmp: Path) -> None:
    """``trace.jsonl``: the hand-written events of ``tests/test_stability.py``."""
    from tests.test_stability import _trace_events

    write_trace(tmp, _trace_events())


def write_trace(tmp: Path, events: list[dict]) -> None:
    (tmp / "trace.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))


def arbiter_fleet(tmp: Path) -> None:
    """``fleet/``: a checkpointed two-shard fleet whose memory arbiter has
    rebalanced (the skewed fleet of ``tests/test_serving.py``)."""
    from repro import ExponentialDelay, MemoryArbiter, UniformDelay
    from repro.serving import ShardedDatabase
    from repro.workloads import generate_synthetic

    arbiter = MemoryArbiter(
        total_budget=4 * 64,
        candidate_budgets=(32, 64, 128),
        decision_interval=4000,
        min_observations=512,
    )
    fleet = ShardedDatabase(
        n_shards=2,
        memory_budget_per_series=64,
        sstable_size=32,
        auto_tune=True,
        durability_dir=str(tmp / "fleet"),
        arbiter=arbiter,
    )
    laws = {
        "noisy-0": ExponentialDelay(mean=40.0),
        "noisy-1": ExponentialDelay(mean=40.0),
        "clean-0": UniformDelay(0.0, 0.5),
        "clean-1": UniformDelay(0.0, 0.5),
    }
    datasets = {
        name: generate_synthetic(2000, dt=1.0, delay=law, seed=3 + index, name=name)
        for index, (name, law) in enumerate(laws.items())
    }
    for pos in range(0, 2000, 500):
        region = slice(pos, pos + 500)
        fleet.ingest_batch(
            [(name, ds.tg[region], ds.ta[region]) for name, ds in datasets.items()]
        )
    assert fleet.last_rebalance is not None
    fleet.checkpoint_all()


# -- the list ----------------------------------------------------------------------

#: ``id -> (prepare, [argv, ...])``; ``{tmp}`` in an argument is the
#: case's scratch directory.  The steps of one case share it.
CASES = {
    "list": (None, [["list"]]),
    "fig11": (None, [["fig11", "--scale", "0.05"]]),
    # The experiments that build the multilevel, tiered and IoTDB-style
    # engines (and the composed triples beside them).
    **{
        name: (None, [[name, "--scale", "0.05"]])
        for name in (
            "table03", "fig12", "fig14", "fig20",
            "ablation_tiering", "ablation_composed", "ablation_multilevel",
        )
    },
    "engines": (None, [["engines"]]),
    "report-engine-trace": (engine_trace, [["report", "{tmp}/trace.jsonl"]]),
    "report-stability-trace": (stability_trace, [["report", "{tmp}/trace.jsonl"]]),
    "checkpoint-recover": (
        None,
        [
            ["checkpoint", "--dir", "{tmp}/state", "--series", "2", "--points", "2000"],
            ["recover", "--dir", "{tmp}/state"],
        ],
    ),
    "report-fleet": (arbiter_fleet, [["report", "{tmp}/fleet"]]),
    "crash-test-engines": (
        None,
        [["crash-test", "--engines", "pi_c,tiered", "--seeds", "1", "--points", "1500"]],
    ),
    "crash-test-fleet": (
        None, [["crash-test", "--fleet", "--shards", "2", "--seeds", "1"]]
    ),
    # The three crash matrices CI runs, at CI's size.
    "crash-test-ci-engines": (
        None, [["crash-test", "--engines", "all", "--seeds", "3"]]
    ),
    "crash-test-ci-overload": (
        None,
        [["crash-test", "--engines", "all", "--seeds", "2",
          "--faults", "fsync_delay,slow_merge"]],
    ),
    "crash-test-ci-fleet": (
        None, [["crash-test", "--fleet", "--shards", "4", "--seeds", "2"]]
    ),
    "decide-json": (
        None, [["decide", "--mu", "5", "--sigma", "2", "--dt", "50", "--json"]]
    ),
    "generate-analyze": (
        None,
        [
            ["generate", "{tmp}/stream.csv", "--points", "20000", "--seed", "3"],
            ["analyze", "{tmp}/stream.csv", "--budget", "128"],
        ],
    ),
}

#: Today's ``report`` cases -> the golden entries recorded under the old
#: names: the report prints each recorded text as one contiguous block,
#: in this order (a single entry is the whole output).
RECORDED_AS = {
    "report-engine-trace": ("telemetry-report-engine", "stability-report-engine"),
    "report-stability-trace": (
        "telemetry-report-stability", "stability-report-stability"
    ),
    "report-fleet": ("shard-report",),
}


# -- running and masking -----------------------------------------------------------

_MASKS = (
    (re.compile(r"\d+\.\d+s\b"), "<S>s"),  # "[fig11 completed in 0.3s]"
    (re.compile(r" *\d+\.\d+ ms"), " <MS> ms"),  # "row-scan aggregation:  1.93 ms"
    (re.compile(r"speedup: \S+x"), "speedup: <X>x"),
    # The two latency cells that end a federation-report row.
    (
        re.compile(r"^(\s*shard-\d\d(?:\s+\d+){5})\s+\S+\s+\S+$", re.MULTILINE),
        r"\1  <MS>  <MS>",
    ),
)


def mask(text: str, tmp: Path) -> str:
    text = text.replace(str(tmp), "<TMP>")
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def run_step(argv: list[str], tmp: Path) -> dict:
    """One command line through ``main``: masked stdout, stderr, exit code."""
    from repro import reset_global_telemetry
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
        except SystemExit as exit_:
            code = exit_.code
        finally:
            reset_global_telemetry()
    return {
        "argv": argv,
        "exit": code,
        "stdout": mask(out.getvalue(), tmp),
        "stderr": mask(err.getvalue(), tmp),
    }


def run_case(case_id: str) -> list[dict]:
    prepare, steps = CASES[case_id]
    with tempfile.TemporaryDirectory(prefix="front-door-") as scratch:
        tmp = Path(scratch)
        if prepare is not None:
            prepare(tmp)
        return [run_step(argv, tmp) for argv in steps]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or set(sys.argv[2:]) - set(CASES):
        sys.exit(__doc__)
    golden = load_golden() if sys.argv[2:] else {}
    golden.update({case_id: run_case(case_id) for case_id in sys.argv[2:] or CASES})
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"[front-door golden written to {GOLDEN_PATH}]")
