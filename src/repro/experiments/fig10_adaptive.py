"""Figure 10: WA of pi_c, pi_s(n/2) and pi_adaptive under delay drift.

Setup from Section V-B: one synthetic stream whose lognormal sigma steps
through 2, 1.75, 1.5, 1.25, 1 (mu=5, dt=50), 5M points per segment in
the paper (scaled down here); WA recorded per 512 user points and
smoothed with a sliding window.  The auto-tuner starts under pi_c,
collects delays, and re-runs Algorithm 1 when the distribution changes.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_MEMORY_BUDGET, DEFAULT_SSTABLE_SIZE
from ..stats import sliding_mean
from ..workloads import figure10_segments, generate_dynamic
from .asciiplot import line_plot
from .report import ExperimentResult
from .runner import measure_wa, measure_wa_adaptive

EXPERIMENT_ID = "fig10"
TITLE = "WA over time under dynamic delays: pi_c vs pi_s(n/2) vs pi_adaptive"
PAPER_REF = (
    "Figure 10 — lognormal delays, mu=5, dt=50, sigma stepping "
    "2 -> 1.75 -> 1.5 -> 1.25 -> 1; WA per 512 written points, "
    "sliding-window smoothed."
)

_DT = 50.0
_BASE_SEGMENT = 60_000
_WINDOW_POINTS = 512
_SMOOTH = 32


def _timeline(engine_stats, total_points: int) -> np.ndarray:
    edges, wa = engine_stats.wa_timeline(_WINDOW_POINTS)
    smooth = sliding_mean(np.nan_to_num(wa, nan=1.0), _SMOOTH)
    return smooth


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 10 at ``scale`` times the default segment size."""
    per_segment = max(int(_BASE_SEGMENT * scale), 20_000)
    dataset = generate_dynamic(
        figure10_segments(per_segment), dt=_DT, seed=seed, name="figure10"
    )
    budget, sstable = DEFAULT_MEMORY_BUDGET, DEFAULT_SSTABLE_SIZE

    conventional = measure_wa(dataset, "conventional", budget, sstable)
    half_split = measure_wa(
        dataset, "separation", budget, sstable, seq_capacity=budget // 2
    )
    adaptive = measure_wa_adaptive(dataset, budget, sstable)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    engines = {
        "pi_c": conventional,
        "pi_s(n/2)": half_split,
        "pi_adaptive": adaptive,
    }
    result.add_table(
        "Overall WA per strategy",
        ["strategy", "WA"],
        [[name, engine.write_amplification] for name, engine in engines.items()],
    )

    # Per-segment WA: attribute disk writes to the segment of the user
    # points they follow.
    boundaries = dataset.metadata["boundaries"]
    segment_rows = []
    sigma_labels = ["2.0", "1.75", "1.5", "1.25", "1.0"]
    for idx, (start, stop) in enumerate(
        zip([0] + boundaries[:-1], boundaries)
    ):
        row = [f"segment {idx + 1} (sigma={sigma_labels[idx]})"]
        for engine in engines.values():
            arrivals = np.asarray(
                [e.arrival_index for e in engine.stats.events]
            )
            writes = np.asarray(
                [e.disk_writes for e in engine.stats.events], dtype=float
            )
            mask = (arrivals > start) & (arrivals <= stop)
            row.append(float(writes[mask].sum()) / (stop - start))
        segment_rows.append(row)
    result.add_table(
        "WA per sigma segment",
        ["segment", "pi_c", "pi_s(n/2)", "pi_adaptive"],
        segment_rows,
    )
    result.add_table(
        "pi_adaptive policy switches",
        ["arrival index", "policy adopted"],
        [[index, policy] for index, policy in adaptive.switches]
        or [["-", "no switch (stayed pi_c)"]],
    )

    # Smoothed timeline chart.
    series = {}
    length = None
    for name, engine in engines.items():
        timeline = _timeline(engine.stats, len(dataset))
        series[name[3] + " " + name] = timeline.tolist()
        length = len(timeline)
    xs = (np.arange(length) + 1) * _WINDOW_POINTS
    result.charts.append(
        line_plot(
            xs.tolist(),
            series,
            x_label="user points written",
            y_label=f"WA (sliding mean over {_SMOOTH} windows)",
        )
    )
    wa_values = {n: e.write_amplification for n, e in engines.items()}
    result.notes.append(
        "pi_adaptive should track min(pi_c, pi_s(n/2)) up to adaptation "
        f"lag; observed: {', '.join(f'{k}={v:.3f}' for k, v in wa_values.items())}."
    )
    return result
