#!/usr/bin/env python3
"""System benchmark: four fleet workloads, one command.

Two ways to run it (README.md has the details):

* **one run** — ``run.py --workload W --seed N --seconds S --trace 0|1``
  runs one workload once in this process and prints, as its last line,
  one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
  the end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.  This is what ``BENCHMARK.json`` names.
* **the full set** — without ``--workload`` every workload runs
  ``--repeats`` times, each run in a fresh subprocess of the form above,
  and timing metrics are reported as the median across repeats with
  their min-max spread; ``--trace`` adds one traced run per workload,
  ``--check-repeat`` runs the set twice and gates the difference,
  ``--smoke`` shrinks every size twenty-fold.

Exit status is non-zero on a wrong answer, a failed operation, a count
that did not repeat exactly, or a bound exceeded under ``--check-repeat``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
DEFAULT_SEED = 20220509
DEFAULT_SECONDS = 20.0
SMOKE_SECONDS = 1.0

# The program under test is the checkout's src/repro; where it is absent
# the benchmark has nothing to measure and must fail without a result.
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.stderr.write(f"run.py: no program under test at {SRC}/repro\n")
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy  # noqa: E402
from repro.obs.telemetry import Telemetry  # noqa: E402

import catalog  # noqa: E402
import workloads  # noqa: E402
from trace import Tracer  # noqa: E402  (benchmarks/system/trace.py, first on sys.path)

EXACT = {m.name for m in catalog.END_TO_END if m.exact}
UNITS = {m.name: m.unit for m in (*catalog.END_TO_END, *catalog.PER_LAYER)}


# -- provenance ----------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _filesystem(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (``unknown`` off Linux)."""
    best, kind = "", "unknown"
    for line in (_read("/proc/mounts") or "").splitlines():
        fields = line.split()
        if len(fields) >= 3 and path.startswith(fields[1]) and len(fields[1]) >= len(best):
            best, kind = fields[1], fields[2]
    return kind


def provenance(seed: int, seconds: float, repeats: int) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in (_read("/proc/cpuinfo") or "").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    load = _read("/proc/loadavg")
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "scaling_governor": _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        or "unreadable",
        "work_dir_filesystem": _filesystem(HERE),
        "tmpfs": _filesystem(HERE) == "tmpfs",
        "fsync": "counted, not executed",
        "loadavg_1m": float(load.split()[0]) if load else None,
        "tick_ms": workloads.TICK_MS,
    }


def print_provenance(info: dict) -> None:
    print("provenance: " + json.dumps(info, sort_keys=True))
    if info["loadavg_1m"] is not None and info["loadavg_1m"] > 0.5:
        print(f"WARNING: load average {info['loadavg_1m']} > 0.5 — timings will be noisy")


# -- one run -------------------------------------------------------------------


def describe(name: str, value: float, samples: dict, wall: dict | None = None) -> str:
    """``name  value unit`` plus, where they exist, the wall-clock value
    behind a speed-corrected one and the sample count behind a percentile."""
    text = f"  {name:<48} {value:>16.6g} {UNITS.get(name, '')}"
    if wall and name in wall:
        text += f"  [wall {wall[name]:.6g}]"
    count = samples.get(name)
    if count is not None:
        q = 99.0 if "_p99_" in name else 50.0
        text += f"  (n={count}"
        if not workloads.supported(count, q):
            text += f", fewer than 10 samples beyond p{q:g}: indicative only"
        text += ")"
    return text


def run_one(args) -> int:
    """One workload, once, in this process (the driver's contract)."""
    started = time.perf_counter()
    work_dir = os.path.join(HERE, ".work", f"{os.getpid()}-{args.workload}")
    os.makedirs(work_dir, exist_ok=True)
    fsync = workloads.CountedFsync()
    os.fsync = fsync  # device elided: barriers are counted (see CountedFsync)
    heap_kept = workloads.keep_freed_memory()
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        sizes=workloads.sizes_for(args.seconds),
        work_dir=work_dir,
        fsync=fsync,
    )
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        run.tracer = tracer
        run.telemetry = Telemetry(sinks=[])
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        workloads.finish(run)
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        pi_s = run.info["pi_s_series"]
        per_series = run.info["ingest_points"] // workloads.N_SERIES
        run.metrics.update(
            tracer.layer_metrics(
                run.busy_s,
                pi_c_points=per_series * (workloads.N_SERIES - pi_s),
                pi_s_points=per_series * pi_s,
                recover_s=sum(run.info.get("recoveries_s", ())),
            )
        )
        os.makedirs(RESULTS, exist_ok=True)
        run.info["spans"] = tracer.write(
            os.path.join(RESULTS, f"trace-{args.workload}.jsonl")
        )
        coverage = run.metrics["obs.layer_coverage_frac"]
        if coverage < 0.90:
            run.problems.append(f"layer_coverage_frac {coverage:.3f} < 0.90")
    run.info["heap_kept"] = heap_kept
    run.info["busy_s"] = run.busy_s
    run.info["wall_s"] = time.perf_counter() - started

    wanted = catalog.driver_per_layer() if args.trace else catalog.driver_end_to_end()
    applicable = [m for m in (*catalog.END_TO_END, *catalog.PER_LAYER)
                  if args.workload in m.applies_to]
    print(f"{args.workload}  seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for metric in applicable:
        if metric.name in run.metrics:
            print(describe(metric.name, run.metrics[metric.name], run.samples, run.wall))
    if run.info.get("overloaded"):
        print("  OVERLOADED: more than 1% of ticks were issued late")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    correct = run.failed == 0 and not run.problems
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": run.metrics,
        "wall": run.wall,
        "samples": run.samples,
        "info": run.info,
    }
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    m.name: {"value": run.metrics.get(m.name, 0.0), "unit": m.unit}
                    for m in wanted
                },
            }
        )
    )
    return 0 if correct else 1


# -- the full set --------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh subprocess; returns its ``detail`` record."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("detail: "):
            return json.loads(line[len("detail: "):])
    sys.stderr.write(done.stdout + done.stderr)
    raise SystemExit(f"{workload}: run printed no result (exit {done.returncode})")


def run_sets(args, count: int) -> list[dict]:
    """``count`` full sets: every workload ``repeats`` times per set
    (+ one traced run with --trace).

    The sets are interleaved run by run, so a drift in the machine's
    speed over the minutes this takes lands on all of them alike.
    """
    sets: list[dict] = [{} for _ in range(count)]
    for workload in catalog.WORKLOADS:
        runs: list[list[dict]] = [[] for _ in range(count)]
        for repeat in range(args.repeats):
            for index in range(count):
                detail = spawn(workload, args.seed, args.seconds, 0)
                runs[index].append(detail)
                print(f"[set {index + 1}] {workload} repeat {repeat + 1}/{args.repeats}: "
                      f"{detail['info']['wall_s']:.1f} s, "
                      f"{'ok' if detail['correct'] else 'INCORRECT'}", flush=True)
        for index in range(count):
            entry = {"runs": runs[index], "end_to_end": summarise(workload, runs[index])}
            if args.trace:
                traced = spawn(workload, args.seed, args.seconds, 1)
                print(f"[set {index + 1}] {workload} traced: {traced['info']['wall_s']:.1f} s, "
                      f"{'ok' if traced['correct'] else 'INCORRECT'}", flush=True)
                entry["traced"] = traced
                untraced_busy = statistics.median(r["info"]["busy_s"] for r in runs[index])
                entry["traced_busy_ratio"] = traced["info"]["busy_s"] / untraced_busy
            sets[index][workload] = entry
    return sets


def summarise(workload: str, runs: list[dict]) -> dict:
    """Median / min / max per end-to-end metric over the repeats."""
    out = {}
    for metric in catalog.END_TO_END:
        if workload not in metric.applies_to:
            continue
        values = [run["metrics"][metric.name] for run in runs]
        out[metric.name] = {
            "unit": metric.unit,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "samples": runs[0]["samples"].get(metric.name),
            "identical": len(set(values)) == 1,
        }
    return out


def violations_of(results: dict) -> list[str]:
    """Wrong answers and exact metrics that differed between repeats."""
    found = []
    for workload, entry in results.items():
        for run in entry["runs"] + ([entry["traced"]] if "traced" in entry else []):
            if not run["correct"]:
                found.append(f"{workload}: incorrect run: {run['problems']}")
        for name, row in entry["end_to_end"].items():
            if name in EXACT and not row["identical"]:
                found.append(f"{workload}: {name} differs between repeats "
                             f"({row['min']!r} .. {row['max']!r})")
    return found


def print_set(results: dict, traced: bool) -> None:
    gated = {m.name for m in catalog.driver_end_to_end()}
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    for workload, entry in results.items():
        print(f"\n== {workload} — end to end (median of {len(entry['runs'])}, min .. max)")
        for name, row in entry["end_to_end"].items():
            bound = bounds[name]
            gate = "not gated" if bound is None else (
                f"bound {bound:.0%}" + ("" if name in gated else ", --check-repeat only")
            )
            count = f" n={row['samples']}" if row["samples"] else ""
            print(f"  {name:<24} {row['median']:>14.6g} {row['unit']:<12} "
                  f"[{row['min']:.6g} .. {row['max']:.6g}]{count}  ({gate})")
        if traced:
            record = entry["traced"]
            print(f"-- {workload} — per layer (one traced run; busy time "
                  f"{entry['traced_busy_ratio']:.3f} x the untraced median)")
            for metric in catalog.PER_LAYER:
                if workload in metric.applies_to and metric.name in record["metrics"]:
                    print(describe(metric.name, record["metrics"][metric.name],
                                   record["samples"]))


def compare_sets(first: dict, second: dict) -> tuple[list[dict], list[str]]:
    """Per (workload, metric): relative difference of medians vs bound."""
    rows, violations = [], []
    for workload in catalog.WORKLOADS:
        for metric in catalog.END_TO_END:
            if workload not in metric.applies_to:
                continue
            a = first[workload]["end_to_end"][metric.name]["median"]
            b = second[workload]["end_to_end"][metric.name]["median"]
            difference = abs(b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
            row = {"workload": workload, "metric": metric.name, "first": a, "second": b,
                   "relative_difference": difference, "bound": metric.bound,
                   "exact": metric.exact}
            if metric.exact:
                row["ok"] = a == b
            else:
                row["ok"] = metric.bound is None or difference <= metric.bound
            rows.append(row)
            if not row["ok"]:
                violations.append(
                    f"{workload}: {metric.name} {a!r} -> {b!r} "
                    + ("(must repeat exactly)" if metric.exact
                       else f"differs {difference:.1%} > bound {metric.bound:.0%}")
                )
    return rows, violations


def write_json(name: str, payload: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


def run_full(args) -> int:
    info = provenance(args.seed, args.seconds, args.repeats)
    print_provenance(info)
    sets = run_sets(args, 2 if args.check_repeat else 1)
    first = sets[0]
    print_set(first, args.trace)
    violations = violations_of(first)
    payload = {"provenance": info, "results": first}
    if args.check_repeat:
        second = sets[1]
        violations += violations_of(second)
        rows, differing = compare_sets(first, second)
        violations += differing
        print("\n== repeatability: set 1 vs set 2 (same code, same seed)")
        for row in rows:
            bound = "exact" if row["exact"] else (
                "-" if row["bound"] is None else f"{row['bound']:.0%}")
            print(f"  {row['workload']:<22} {row['metric']:<24} "
                  f"{row['relative_difference']:>8.2%} of {bound:<6} "
                  f"{'ok' if row['ok'] else 'VIOLATION'}")
        path = write_json("repeatability.json",
                          {"provenance": info, "rows": rows, "violations": violations})
        print(f"wrote {os.path.relpath(path, ROOT)}")
    path = write_json("latest.json", payload)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    for violation in violations:
        print(f"VIOLATION: {violation}")
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="run this workload once in-process and print the result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the measured phases (default 20; work is fixed per value)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also (full set) or instead (one run) take the per-layer trace")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per workload in the full set (default 3; 1 with --smoke)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the full set twice and gate the difference")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of every size, one repeat, traced")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload:
        return run_one(args)
    if args.smoke:
        args.trace = 1
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
