"""Figure 20: query latency on dataset H (recent + historical).

Section VI: recent-data results resemble the synthetic case; on
historical queries the pi_c/pi_s gap narrows at a 10 s window and pi_s
wins at 20 s.  Windows follow the paper (5, 10, 20 seconds at the 1 s
generation interval).
"""

from __future__ import annotations

from ..config import DEFAULT_MEMORY_BUDGET
from ..core import tune_separation_policy
from ..query import run_query_workload
from ..workloads import generate_vehicle_h
from .report import ExperimentResult
from .runner import dataset_delay_model, iotdb_pair

EXPERIMENT_ID = "fig20"
TITLE = "Query latency on dataset H: recent and historical workloads"
PAPER_REF = (
    "Figure 20 — (a) recent-data and (b) historical query latency on H; "
    "the gap narrows at 10 s and pi_s wins at 20 s historical windows."
)

_WINDOWS_MS = (5_000.0, 10_000.0, 20_000.0)
_BASE_POINTS = 80_000


def run(scale: float = 1.0, seed: int = 6) -> ExperimentResult:
    """Regenerate Figure 20 on the simulated H."""
    n_points = max(int(_BASE_POINTS * scale), 20_000)
    dataset = generate_vehicle_h(n_points=n_points, seed=seed)
    dist, dt = dataset_delay_model(dataset)
    decision = tune_separation_policy(
        dist, dt, DEFAULT_MEMORY_BUDGET, sstable_size=DEFAULT_MEMORY_BUDGET
    )
    n_seq = (
        decision.seq_capacity
        if decision.seq_capacity is not None
        else DEFAULT_MEMORY_BUDGET // 2
    )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    for mode, caption in (
        ("recent", "(a) recent-data query latency (ms)"),
        ("historical", "(b) historical query latency (ms)"),
    ):
        rows = []
        for window in _WINDOWS_MS:
            latencies = {}
            for policy, engine in iotdb_pair(n_seq).items():
                outcome = run_query_workload(
                    engine, dataset, window=window, mode=mode, seed=seed
                )
                latencies[policy] = outcome.mean_latency_ms
            rows.append(
                [
                    window / 1000.0,
                    latencies["pi_c"],
                    latencies["pi_s"],
                    latencies["pi_s"] / latencies["pi_c"]
                    if latencies["pi_c"]
                    else float("nan"),
                ]
            )
        result.add_table(
            caption, ["window(s)", "pi_c", "pi_s", "pi_s/pi_c"], rows
        )
    historical = result.tables[-1]
    ratios = historical.column("pi_s/pi_c")
    result.notes.append(
        "historical pi_s/pi_c ratio by window (5s, 10s, 20s): "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " — the paper reports the gap narrowing at 10 s and reversing "
        "at 20 s."
    )
    return result
