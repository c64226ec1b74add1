"""Ablation A8: novel policy compositions from the storage kernel.

The policy decomposition makes combinations no monolithic engine
implements into one-liners: ``compose_engine("split",
compaction="tiered")`` grafts the paper's seq/nonseq separation onto
size-tiered compaction, ``compose_engine("split",
compaction="multilevel")`` onto a leveled cascade.  This ablation runs
those hybrids next to their single-``C0`` baselines on the Figure 7
workload and reports write amplification, so the "separation or not"
question is answered per *compaction* policy rather than only for the
paper's single-run leveling.
"""

from __future__ import annotations

from ..config import DEFAULT_MEMORY_BUDGET, LsmConfig
from ..distributions import LogNormalDelay
from ..lsm.policies import compose_engine
from ..workloads import generate_synthetic
from .report import ExperimentResult

EXPERIMENT_ID = "ablation_composed"
TITLE = "A8: separation or not, per compaction policy (composed engines)"
PAPER_REF = (
    "Extension of the paper's question beyond single-run leveling; built "
    "on the Section IV policies via compose_engine, not a paper figure."
)

_DT = 50.0
_BASE_POINTS = 100_000
_MU, _SIGMA = 5.0, 2.0

#: (label, placement, compaction, compaction kwargs) — each compaction
#: policy once with the conventional single buffer and once with the
#: paper's seq/nonseq split.
_VARIANTS = (
    ("tiered / single C0", "single", "tiered", {"tier_fanout": 4}),
    ("tiered / separation", "split", "tiered", {"tier_fanout": 4}),
    ("multilevel / single C0", "single", "multilevel", {"size_ratio": 4}),
    ("multilevel / separation", "split", "multilevel", {"size_ratio": 4}),
    ("leveled / single C0 (pi_c)", "single", "leveled", {}),
    ("leveled / separation (pi_s)", "split", "leveled", {}),
)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Run every variant on the Figure 7 workload at ``scale``."""
    n_points = max(int(_BASE_POINTS * scale), 20_000)
    budget = DEFAULT_MEMORY_BUDGET
    dataset = generate_synthetic(
        n_points, dt=_DT, delay=LogNormalDelay(_MU, _SIGMA), seed=seed
    )
    config = LsmConfig(memory_budget=budget, sstable_size=budget)
    rows = []
    for label, placement, compaction, kwargs in _VARIANTS:
        engine = compose_engine(
            placement,
            compaction=compaction,
            config=config,
            compaction_kwargs=kwargs,
        )
        engine.ingest(dataset.tg)
        engine.flush_all()
        triple = engine.describe_policies()
        merges = sum(1 for e in engine.stats.events if e.kind == "merge")
        rows.append(
            [
                label,
                f"{triple['placement']}+{triple['flush']}+{triple['compaction']}",
                engine.write_amplification,
                int(engine.stats.disk_writes),
                merges,
            ]
        )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    result.add_table(
        f"WA by composition (n={n_points}, lognormal mu={_MU}, sigma={_SIGMA})",
        ["variant", "policies", "WA", "disk writes", "merges"],
        rows,
    )
    result.notes.append(
        "Every row is one compose_engine() call against the same kernel; "
        "the split-placement rows reuse the monoliths' placement/flush "
        "policies unchanged, so the WA deltas isolate the buffering "
        "decision the paper studies."
    )
    return result
