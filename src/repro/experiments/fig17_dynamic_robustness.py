"""Figure 17: robustness when delays follow no single distribution.

Section V-E: a synthetic stream composed of five different delay
distributions changing over time; "the estimation could successfully
detect the change of the delay and dynamically adopt the best policy to
minimize the WA".  Unlike Figure 10 (same family, drifting sigma), the
segments here switch *families*.
"""

from __future__ import annotations

from ..config import DEFAULT_MEMORY_BUDGET, DEFAULT_SSTABLE_SIZE
from ..distributions import (
    ExponentialDelay,
    GammaDelay,
    HalfNormalDelay,
    LogNormalDelay,
    UniformDelay,
)
from ..workloads import DelaySegment, generate_dynamic
from .report import ExperimentResult
from .runner import measure_wa, measure_wa_adaptive

EXPERIMENT_ID = "fig17"
TITLE = "Dynamic policy selection without a fixed delay distribution"
PAPER_REF = (
    "Figure 17 — five different delay distributions over time; "
    "WA of pi_c, pi_s(n/2) and the dynamically tuned policy."
)

_DT = 50.0
_BASE_SEGMENT = 50_000


def _segments(per_segment: int) -> list[DelaySegment]:
    """Five structurally different delay laws (mixed families)."""
    return [
        DelaySegment(per_segment, LogNormalDelay(mu=5.0, sigma=2.0)),
        DelaySegment(per_segment, ExponentialDelay(mean=400.0)),
        DelaySegment(per_segment, UniformDelay(low=0.0, high=120.0)),
        DelaySegment(per_segment, GammaDelay(shape=0.5, scale=2000.0)),
        DelaySegment(per_segment, HalfNormalDelay(sigma=40.0)),
    ]


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 17."""
    per_segment = max(int(_BASE_SEGMENT * scale), 15_000)
    segments = _segments(per_segment)
    dataset = generate_dynamic(segments, dt=_DT, seed=seed, name="figure17")
    budget, sstable = DEFAULT_MEMORY_BUDGET, DEFAULT_SSTABLE_SIZE

    conventional = measure_wa(dataset, "conventional", budget, sstable)
    half_split = measure_wa(
        dataset, "separation", budget, sstable, seq_capacity=budget // 2
    )
    adaptive = measure_wa_adaptive(dataset, budget, sstable)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    result.add_table(
        "(a) Delay profile segments",
        ["segment", "delay distribution", "points"],
        [
            [idx + 1, segment.delay.name, segment.n_points]
            for idx, segment in enumerate(segments)
        ],
    )
    result.add_table(
        "(b) WA per strategy",
        ["strategy", "WA"],
        [
            ["pi_c", conventional.write_amplification],
            ["pi_s(n/2)", half_split.write_amplification],
            ["pi_adaptive", adaptive.write_amplification],
        ],
    )
    result.add_table(
        "pi_adaptive switches",
        ["arrival index", "policy adopted"],
        [[index, policy] for index, policy in adaptive.switches]
        or [["-", "no switch (stayed pi_c)"]],
    )
    best_static = min(
        conventional.write_amplification, half_split.write_amplification
    )
    result.notes.append(
        f"pi_adaptive WA {adaptive.write_amplification:.3f} vs best static "
        f"{best_static:.3f}; the tuner re-fit the delay profile "
        f"{len(adaptive.decisions)} times."
    )
    return result
