"""Figure 12: read amplification of the recent-data query workload.

Section V-D1's two findings this experiment must reproduce:

1. for a fixed window, pi_s has *less* read amplification than pi_c
   (its SSTables contain fewer points, so fewer useless points are
   read);
2. longer query windows have lower read amplification (the result set
   grows faster than the number of files touched).
"""

from __future__ import annotations

import numpy as np

from ..workloads import TABLE_II
from ._query_grid import QUERY_WINDOWS_MS, query_grid
from .report import ExperimentResult

EXPERIMENT_ID = "fig12"
TITLE = "Read amplification, recent-data query workload (pi_c vs pi_s)"
PAPER_REF = (
    "Figure 12 — M1-M12, windows 500/1000/5000 ms, queries issued while "
    "writing; pi_s uses the system-recommended n_seq."
)


def run(
    scale: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Figure 12."""
    names = tuple(TABLE_II)
    cells = query_grid("recent", scale, seed)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    index = {
        (cell.dataset, cell.window, cell.policy): cell.result for cell in cells
    }
    rows = []
    pi_s_wins = 0
    window_means: dict[float, list[float]] = {w: [] for w in QUERY_WINDOWS_MS}
    for name in names:
        for window in QUERY_WINDOWS_MS:
            ra_c = index[(name, window, "pi_c")].mean_read_amplification
            ra_s = index[(name, window, "pi_s")].mean_read_amplification
            rows.append([name, window, ra_c, ra_s])
            if not (np.isnan(ra_c) or np.isnan(ra_s)):
                window_means[window].append((ra_c + ra_s) / 2.0)
                if ra_s <= ra_c:
                    pi_s_wins += 1
    result.add_table(
        "Mean read amplification per dataset/window",
        ["dataset", "window(ms)", "pi_c", "pi_s"],
        rows,
    )
    result.add_table(
        "Read amplification vs window (mean over datasets and policies)",
        ["window(ms)", "mean RA"],
        [
            [window, float(np.mean(values)) if values else float("nan")]
            for window, values in window_means.items()
        ],
    )
    result.notes.append(
        f"pi_s has lower (or equal) read amplification in {pi_s_wins}/"
        f"{len(rows)} cells (paper: pi_s lower everywhere); longer windows "
        "show lower RA."
    )
    return result
