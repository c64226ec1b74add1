"""Ablation A4: drift-detector sensitivity vs adaptation quality.

The adaptive tuner's knobs — the KS significance level and the practical
statistic floor — trade retune churn against adaptation lag.  This
ablation reruns Figure 10's drifting workload across detector settings
and reports resulting WA, retune count and policy switches.
"""

from __future__ import annotations

from ..config import DEFAULT_MEMORY_BUDGET, DEFAULT_SSTABLE_SIZE, LsmConfig
from ..core import DelayAnalyzer, KsDriftDetector
from ..lsm import AdaptiveEngine
from ..workloads import figure10_segments, generate_dynamic
from .report import ExperimentResult

EXPERIMENT_ID = "ablation_drift"
TITLE = "A4: KS drift-detector settings vs adaptive WA"
PAPER_REF = (
    "Design ablation of the change detector behind Figure 10's "
    "pi_adaptive (not a paper figure)."
)

_DT = 50.0
_BASE_SEGMENT = 40_000
_SETTINGS = (
    ("insensitive (floor=0.5)", 0.001, 0.5),
    ("default (alpha=1e-3, floor=0.08)", 0.001, 0.08),
    ("sensitive (alpha=0.05, floor=0.02)", 0.05, 0.02),
)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Run the drift-sensitivity sweep on the Figure 10 workload."""
    per_segment = max(int(_BASE_SEGMENT * scale), 15_000)
    dataset = generate_dynamic(
        figure10_segments(per_segment), dt=_DT, seed=seed, name="ablation_drift"
    )
    rows = []
    for label, alpha, floor in _SETTINGS:
        analyzer = DelayAnalyzer(
            DEFAULT_MEMORY_BUDGET,
            drift_detector=KsDriftDetector(alpha=alpha, statistic_floor=floor),
        )
        engine = AdaptiveEngine(
            LsmConfig(
                memory_budget=DEFAULT_MEMORY_BUDGET,
                sstable_size=DEFAULT_SSTABLE_SIZE,
            ),
            analyzer=analyzer,
        )
        engine.ingest(dataset.tg, dataset.ta)
        engine.flush_all()
        rows.append(
            [
                label,
                engine.write_amplification,
                len(engine.decisions),
                len(engine.switches),
            ]
        )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    result.add_table(
        "Adaptive WA vs detector sensitivity",
        ["setting", "WA", "retunes", "switches"],
        rows,
    )
    result.notes.append(
        "an insensitive detector never leaves the initial profile; an "
        "over-sensitive one retunes often for little extra WA benefit — "
        "the default sits between."
    )
    return result
