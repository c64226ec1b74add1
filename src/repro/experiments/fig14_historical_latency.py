"""Figure 14: query latency of the historical workload (plus Figure 15).

Section V-D2: on historical (random-window) queries pi_s does relatively
better than on recent ones — under pi_c "more SSTables share the same
queried period, and they are still in level 1, not compacted yet"
(Figure 15 illustrates the overlap) — sometimes even beating pi_c (M6,
M11, M12); for low-sigma datasets (M1, M2, M4, M5) the overlap under
pi_c is mild and small-SSTable overhead keeps pi_s behind.

The Figure 15 visualisation (SSTable generation-time ranges against a
query window) is rendered from the final snapshots of one
high-disorder dataset.
"""

from __future__ import annotations

from ..workloads import TABLE_II
from ._query_grid import QUERY_WINDOWS_MS, query_grid, recommended_seq_capacity
from .asciiplot import sstable_ranges
from .report import ExperimentResult
from .runner import iotdb_pair

EXPERIMENT_ID = "fig14"
TITLE = "Query latency, historical workload (pi_c vs pi_s) + Fig.15 view"
PAPER_REF = (
    "Figure 14 — M1-M12, random historical windows; Figure 15 — SSTable "
    "ranges overlapping a query window under both policies."
)

_FIG15_DATASET = "M12"
_FIG15_POINTS = 20_000


def _figure15_chart(seed: int) -> str:
    """Render Figure 15: on-disk ranges + a query window, both policies."""
    spec = TABLE_II[_FIG15_DATASET]
    dataset = spec.build(n_points=_FIG15_POINTS, seed=seed)
    window = 5_000.0
    lo = dataset.tg.max() * 0.5
    parts = []
    pair = iotdb_pair(recommended_seq_capacity(_FIG15_DATASET))
    for policy, engine in pair.items():
        engine.ingest(dataset.tg)
        snapshot = engine.snapshot()
        ranges = [(t.min_tg, t.max_tg) for t in snapshot.tables]
        overlapping = sum(
            1 for a, b in ranges if a <= lo + window and b >= lo
        )
        parts.append(
            f"[{policy}] {overlapping} of {len(ranges)} SSTables overlap the "
            f"query window:\n"
            + sstable_ranges(ranges, query=(lo, lo + window))
        )
    return "\n\n".join(parts)


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Regenerate Figure 14 (and render Figure 15's overlap picture)."""
    names = datasets if datasets is not None else tuple(TABLE_II)
    cells = query_grid("historical", scale, seed, names)
    index = {
        (cell.dataset, cell.window, cell.policy): cell.result for cell in cells
    }
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    rows = []
    pi_s_wins = []
    for name in names:
        for window in QUERY_WINDOWS_MS:
            lat_c = index[(name, window, "pi_c")].mean_latency_ms
            lat_s = index[(name, window, "pi_s")].mean_latency_ms
            rows.append([name, window, lat_c, lat_s])
            if lat_s < lat_c:
                pi_s_wins.append((name, window))
    result.add_table(
        "Mean modelled latency (ms), historical windows",
        ["dataset", "window(ms)", "pi_c", "pi_s"],
        rows,
    )
    result.charts.append(_figure15_chart(seed))
    winners = sorted({name for name, _ in pi_s_wins})
    result.notes.append(
        "datasets where pi_s beats pi_c on at least one historical window: "
        f"{winners or 'none'} (paper: M6, M11, M12)."
    )
    return result
