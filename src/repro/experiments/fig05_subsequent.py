"""Figure 5: subsequent-data-point counts vs buffer size.

Setup from Section III: generation interval ``dt = 50``; lognormal delays
with ``(mu=4, sigma=1.5)`` and ``(mu=4, sigma=1.75)``; through each
compaction the number of subsequent data points is recorded; scatters are
experiment averages, curves are ``zeta(n)``.

An instrumented conventional engine counts, at the start of every merge,
the exact number of on-disk subsequent data points (Definition 4: points
with ``t_g`` above the MemTable minimum) — the quantity Eq. 2 models,
free of the SSTable-granularity rounding the paper excludes from this
particular figure.
"""

from __future__ import annotations

import numpy as np

from ..core import ZetaModel
from ..distributions import LogNormalDelay
from ..config import LsmConfig
from ..lsm.base import LsmEngine
from ..lsm.policies import LeveledSingleRun, MergeFlush, SinglePlacement
from ..workloads import generate_synthetic
from .asciiplot import line_plot
from .report import ExperimentResult

EXPERIMENT_ID = "fig05"
TITLE = "Subsequent data points vs buffer capacity (experiment vs zeta(n))"
PAPER_REF = (
    "Figure 5 — dt=50, lognormal delays (mu=4, sigma=1.5) and (mu=4, "
    "sigma=1.75); scatters: mean subsequent points per compaction; "
    "curves: model zeta(n)."
)

_DT = 50.0
_SIGMAS = (1.5, 1.75)
_BUFFER_SIZES = (32, 64, 96, 128, 192, 256, 384, 512)
_BASE_POINTS = 120_000


class _CountingLeveled(LeveledSingleRun):
    """Leveled compaction that records per-merge subsequent counts."""

    def __init__(self) -> None:
        super().__init__()
        self.subsequent_counts: list[int] = []

    def land(self, op, memtable, unit_points):
        buffered = memtable.peek_tg()
        if buffered.size and not self.run.empty:
            self.subsequent_counts.append(
                self.run.count_points_above(float(buffered.min()))
            )
        yield from super().land(op, memtable, unit_points)


def _measured_subsequent(buffer_size: int, sigma: float, n_points: int, seed: int) -> float:
    """Mean subsequent-point count over all compactions."""
    dataset = generate_synthetic(
        n_points, dt=_DT, delay=LogNormalDelay(4.0, sigma), seed=seed
    )
    # ``pi_c`` with the counting compaction policy above.
    compaction = _CountingLeveled()
    engine = LsmEngine(
        LsmConfig(memory_budget=buffer_size, sstable_size=buffer_size),
        placement=SinglePlacement(),
        flush=MergeFlush(),
        compaction=compaction,
    )
    engine.ingest(dataset.tg)
    engine.flush_all()
    if not compaction.subsequent_counts:
        return 0.0
    return float(np.mean(compaction.subsequent_counts))


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 5 at ``scale`` times the default dataset size."""
    n_points = max(int(_BASE_POINTS * scale), 5_000)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    series = {}
    for sigma in _SIGMAS:
        model = ZetaModel(LogNormalDelay(4.0, sigma), _DT)
        rows = []
        measured_list = []
        model_list = []
        for buffer_size in _BUFFER_SIZES:
            measured = _measured_subsequent(buffer_size, sigma, n_points, seed)
            predicted = model.zeta(buffer_size)
            rows.append([buffer_size, measured, predicted, measured - predicted])
            measured_list.append(measured)
            model_list.append(predicted)
        result.add_table(
            f"lognormal(mu=4, sigma={sigma}) — subsequent points per merge",
            ["buffer(points)", "experiment", "zeta(n)", "error"],
            rows,
        )
        series[f"m sigma={sigma} (exp)"] = measured_list
        series[f"z sigma={sigma} (model)"] = model_list
    result.charts.append(
        line_plot(
            list(_BUFFER_SIZES),
            series,
            x_label="buffer size (points)",
            y_label="subsequent data points",
        )
    )
    result.notes.append(
        "Both curves grow with the buffer size and the larger sigma lies "
        "above the smaller one, as in the paper's Figure 5."
    )
    return result
