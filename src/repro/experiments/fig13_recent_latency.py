"""Figure 13: query latency of the recent-data workload.

Section V-D1's two findings: (1) larger windows mean more data and
higher latency; (2) pi_s is *slower* despite its lower read
amplification, because its smaller SSTables mean more files — and on an
HDD, more seeks.  The modelled latency (seek-dominated
:class:`~repro.config.DiskModel`) reproduces the trade-off; absolute
values are model units, not the paper's nanoseconds.
"""

from __future__ import annotations

from ..workloads import TABLE_II
from ._query_grid import QUERY_WINDOWS_MS, query_grid
from .report import ExperimentResult

EXPERIMENT_ID = "fig13"
TITLE = "Query latency, recent-data workload (pi_c vs pi_s)"
PAPER_REF = (
    "Figure 13 — M1-M12, windows 500/1000/5000 ms; the paper finds "
    "pi_s slower on recent queries (more files -> more seeks)."
)


def run(
    scale: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Figure 13 (reuses Figure 12's runs)."""
    names = tuple(TABLE_II)
    cells = query_grid("recent", scale, seed)
    index = {
        (cell.dataset, cell.window, cell.policy): cell.result for cell in cells
    }
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    rows = []
    window_growth = {name: [] for name in names}
    pi_s_slower = 0
    for name in names:
        for window in QUERY_WINDOWS_MS:
            lat_c = index[(name, window, "pi_c")].mean_latency_ms
            lat_s = index[(name, window, "pi_s")].mean_latency_ms
            files_c = index[(name, window, "pi_c")].mean_files_touched
            files_s = index[(name, window, "pi_s")].mean_files_touched
            rows.append([name, window, lat_c, lat_s, files_c, files_s])
            window_growth[name].append((lat_c + lat_s) / 2.0)
            if lat_s >= lat_c:
                pi_s_slower += 1
    result.add_table(
        "Mean modelled latency (ms) and files touched",
        [
            "dataset",
            "window(ms)",
            "pi_c latency",
            "pi_s latency",
            "pi_c files",
            "pi_s files",
        ],
        rows,
    )
    growing = sum(
        1
        for values in window_growth.values()
        if all(b >= a for a, b in zip(values, values[1:]))
    )
    result.notes.append(
        f"latency grows with the window for {growing}/{len(names)} datasets; "
        f"pi_s is slower or equal in {pi_s_slower}/{len(rows)} cells "
        "(paper: pi_s slower on recent queries)."
    )
    return result
