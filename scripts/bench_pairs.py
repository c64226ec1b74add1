#!/usr/bin/env python3
"""Alternating parent/change pairs of the system benchmark, tabulated.

    python scripts/bench_pairs.py --parent <clone> --workload W \\
        --seeds 81-90 [--seconds 20] [--out bench_pairs.jsonl] \\
        [--trace METRIC [METRIC ...]]

For every seed it runs the ``BENCHMARK.json`` command (``--workload W
--seed S --seconds N --trace 0``) once in the parent clone and once in
this checkout, alternating which side goes first, takes the JSON on the
last stdout line, and appends every run to the ``--out`` JSONL.  Then,
per end-to-end metric of ``BENCHMARK.json``: the parent median [q1, q3],
the change median, change / parent, pairs won / lost / tied, and a
verdict by the rules of the choosing-metrics guide (section 8):

``gain``        ten pairs or more, the change wins >= 9/10 of them
                (ties for neither) and the medians differ by more than
                the parent's inter-quartile distance
``regressed``   the change's median is worse by more than the metric's
                ``bound``
``unresolved``  a side's inter-quartile distance, relative to its
                median, exceeds the bound — unless every run of the
                change is better than every run of the parent
``EXACT-DIFF``  ``write_amplification`` or ``read_amplification``
                differs for some seed (they are counts: same work, or
                the two sides are not doing the same thing), or the two
                sides tuned a seed's fleet to different policies
                (``info.policies`` of the run's ``detail:`` line)

With ``--trace`` the pair runs traced (``--trace 1``, whose last line
carries the per-layer metrics instead) and the table is of the
``per_layer`` metrics named after the flag, each with the ``better``
direction ``BENCHMARK.json`` gives it.  Per-layer metrics have no bound:
they say where a change shows, they are ``reported`` and never judged.

The bounds are read from ``BENCHMARK.json``; nothing under
``benchmarks/system/`` is edited.  Exit status 1 when a run printed no
result, was incorrect, failed an operation, or an exact metric differs.
``--parent .`` is an A/A run (CI keeps the script alive with one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXACT = ("write_amplification", "read_amplification")


def parse_seeds(text: str) -> list[int]:
    """``"81-90"``, ``"1,2,7"`` or ``"5"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command: list[str], cwd: Path, workload: str, seed: int,
             seconds: float, trace: bool = False) -> dict:
    """One benchmark run in ``cwd``; its last-line JSON, or a failed stub."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        # The tuned policies ride on the "detail:" line above the result.
        for line in lines[:-1]:
            if line.startswith("detail: "):
                result["policies"] = json.loads(line[8:])["info"].get("policies")
        return result
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {done.returncode}, no JSON on the last line"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: dict, parent: list[float], change: list[float],
          width: int = 22) -> tuple[str, str]:
    """``(table row, verdict)`` for one metric over paired runs; a
    metric without a ``bound`` (per-layer) is ``reported``, not judged."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    won = sum(sign * c > sign * p for p, c in zip(parent, change))
    lost = sum(sign * c < sign * p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    bound = metric.get("bound")
    spread = 0.0
    if p_med and c_med:
        spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    clear = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound is None:
        verdict = "reported"
    elif metric["name"] in EXACT and parent != change:
        verdict = "EXACT-DIFF"
    elif spread > bound and not clear:
        verdict = "unresolved"
    elif (len(parent) >= 10 and won >= 0.9 * len(parent)
          and sign * (c_med - p_med) > p_q3 - p_q1):
        verdict = "gain"
    elif sign * (p_med - c_med) > bound * abs(p_med):
        verdict = "regressed"
    else:
        verdict = "within bound"
    ratio = c_med / p_med if p_med else float("nan")
    was = f"{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]"
    limits = f"spread {spread:.1%}" if bound is None else f"bound {bound:.0%} spread {spread:.1%}"
    row = (f"{metric['name']:<{width}}{was:>36}{c_med:>14.6g}  x{ratio:<7.4f}"
           f"{won:>3}/{lost}/{len(parent) - won - lost}  {limits}")
    return row, verdict


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit ('.' for an A/A run)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--out", type=Path, default=Path("bench_pairs.jsonl"))
    parser.add_argument("--trace", nargs="+", metavar="METRIC", default=[],
                        choices=[m["name"] for m in contract["per_layer"]],
                        help="run the pair traced and tabulate these per_layer metrics")
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    if traced:
        table = [m for m in contract["per_layer"] if m["name"] in args.trace]
    else:
        table = contract["end_to_end"]

    sides = {"parent": args.parent.resolve(), "change": REPO_ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with args.out.open("a", encoding="utf-8") as log:
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(contract["command"], sides[side],
                                  args.workload, seed, args.seconds, traced)
                runs[side].append(result)
                log.write(json.dumps({"side": side, "dir": str(sides[side]),
                                      "workload": args.workload, "seed": seed,
                                      "seconds": args.seconds, "trace": int(traced),
                                      **result}) + "\n")
                log.flush()
                print(f"seed {seed} {side:<6} " + " ".join(
                    f"{name}={entry['value']:.6g}"
                    for name, entry in result["metrics"].items()
                    if not traced or name in args.trace), flush=True)

    bad = [r for side in runs.values() for r in side
           if not r["correct"] or r["failed"] or not r["metrics"]]
    print(f"\n{args.workload}: {len(args.seeds)} pairs, --seconds {args.seconds:g}"
          f"{', traced' if traced else ''}; "
          f"failed operations parent {sum(r['failed'] for r in runs['parent'])} / "
          f"change {sum(r['failed'] for r in runs['change'])}; "
          f"{len(bad)} unusable runs")
    if bad:
        return 1
    retuned = [seed for seed, p, c in zip(args.seeds, runs["parent"], runs["change"])
               if p.get("policies") != c.get("policies")]
    print("tuned policies (info.policies): " + (
        f"DIFFER for seeds {retuned}  EXACT-DIFF" if retuned else "identical per seed"))
    width = max(22, *(len(m["name"]) + 2 for m in table))
    print(f"{'metric':<{width}}{'parent median [q1, q3]':>36}{'change':>14}  "
          f"ratio   won/lost/tied")
    exact_diff = bool(retuned)
    for metric in table:
        values = {side: [r["metrics"][metric["name"]]["value"] for r in results]
                  for side, results in runs.items()}
        row, verdict = judge(metric, values["parent"], values["change"], width)
        exact_diff |= verdict == "EXACT-DIFF"
        print(f"{row}  {verdict}")
    return 1 if exact_diff else 0


if __name__ == "__main__":
    sys.exit(main())
