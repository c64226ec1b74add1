"""Self-check of the system benchmark (run explicitly, not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/system/test_selfcheck.py

Runs ``run.py --smoke`` (about 1/20 of every size, traced) twice with
one seed and once with another, and checks the instrument rather than
the program: every workload and metric is reported with a unit, names
and counts respect the driver's limits, ``BENCHMARK.json`` says what
``catalog.py`` says, exact metrics repeat bit-for-bit, and a different
seed really is a different input that still verifies.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", str(seed)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    with open(os.path.join(HERE, "results", "latest.json"), encoding="utf-8") as handle:
        return json.load(handle)["results"]


@pytest.fixture(scope="module")
def runs():
    return {"first": smoke(11), "again": smoke(11), "other": smoke(12)}


def test_catalog_respects_the_driver_limits():
    assert 2 <= len(catalog.WORKLOADS) <= 8
    assert 1 <= len(catalog.driver_end_to_end()) <= 16
    assert 1 <= len(catalog.driver_per_layer()) <= 128
    names = [m.name for m in (*catalog.END_TO_END, *catalog.PER_LAYER)] + list(catalog.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in (*catalog.END_TO_END, *catalog.PER_LAYER):
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert metric.bound is None or 0 < metric.bound <= 0.25
    for why in catalog.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    gated = catalog.driver_end_to_end()
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in gated)
    assert max(m.bound for m in gated) == next(m.bound for m in gated if m.name == "setup_s")


def test_benchmark_json_is_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared == catalog.benchmark_json(
        declared["command"], declared["paths"], declared["run_seconds"]
    )
    assert declared["paths"] == ["benchmarks/system"]
    assert declared["command"][-1] == "benchmarks/system/run.py"
    assert 1 <= declared["run_seconds"] <= 60


def test_every_workload_reports_every_metric(runs):
    for label, results in runs.items():
        assert set(results) == set(catalog.WORKLOADS), label
        for workload, entry in results.items():
            for metric in catalog.END_TO_END:
                if workload in metric.applies_to:
                    row = entry["end_to_end"][metric.name]
                    assert row["unit"] == metric.unit
                    assert isinstance(row["median"], (int, float))
            traced = entry["traced"]["metrics"]
            for metric in catalog.PER_LAYER:
                if workload in metric.applies_to:
                    assert metric.name in traced, (label, workload, metric.name)
            assert traced["obs.layer_coverage_frac"] >= 0.90
            assert entry["end_to_end"]["failed_ops_frac"]["median"] == 0
            for run in entry["runs"] + [entry["traced"]]:
                assert run["correct"], (label, workload, run["problems"])
                assert run["info"]["queries_verified"] > 0


def test_durable_only_layers_are_silent_elsewhere(runs):
    for workload, entry in runs["first"].items():
        if workload in catalog.DURABLE:
            continue
        for name, value in entry["traced"]["metrics"].items():
            if name.startswith(catalog.DURABLE_ONLY_PREFIXES):
                assert value == 0, (workload, name, value)


def test_exact_metrics_repeat_and_follow_the_seed(runs):
    exact = [m for m in catalog.END_TO_END if m.exact and m.name != "failed_ops_frac"]
    changed = 0
    for workload in catalog.WORKLOADS:
        for metric in exact:
            if workload not in metric.applies_to:
                continue
            first, again, other = (
                runs[label][workload]["end_to_end"][metric.name]["median"]
                for label in ("first", "again", "other")
            )
            assert first == again, (workload, metric.name)
            changed += first != other
        # Write and read amplification depend on the generated delays.
        for name in ("write_amplification", "read_amplification"):
            assert (runs["first"][workload]["end_to_end"][name]["median"]
                    != runs["other"][workload]["end_to_end"][name]["median"]), (workload, name)
    assert changed >= 2 * len(catalog.WORKLOADS)
