"""Ablation A5: where pi_c / pi_s sit on the leveling-vs-tiering curve.

Section VII-A cites tiering as the survey's canonical WA reducer.  This
ablation runs the tiered engine next to pi_c and the tuned pi_s on a
disordered workload and reports both write amplification and the read
cost driver (overlapping runs a query must consult).  The point: pi_s
recovers much of tiering's write saving for time-series workloads while
keeping the (almost) single-sorted-run read behaviour of leveling.
"""

from __future__ import annotations

from ..config import DEFAULT_MEMORY_BUDGET, LsmConfig
from ..core import tune_separation_policy
from ..distributions import LogNormalDelay
from ..lsm import ConventionalEngine, SeparationEngine, TieredEngine
from ..query import run_query_workload
from ..workloads import generate_synthetic
from .report import ExperimentResult

EXPERIMENT_ID = "ablation_tiering"
TITLE = "A5: pi_c / pi_s / tiered compaction — write vs read trade-off"
PAPER_REF = (
    "Section VII-A context (Luo & Carey's survey): tiering cuts WA at "
    "read cost; not a paper figure."
)

_DT = 50.0
_BASE_POINTS = 100_000
_MU, _SIGMA = 5.0, 2.0


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Run the three engines on the Figure 7 workload.

    Read cost is measured the way Section V-D measures it — historical
    window queries issued *while writing* — since post-ingest layouts
    hide tiering's transient run overlap.
    """
    n_points = max(int(_BASE_POINTS * scale), 20_000)
    budget = DEFAULT_MEMORY_BUDGET
    delay = LogNormalDelay(_MU, _SIGMA)
    dataset = generate_synthetic(n_points, dt=_DT, delay=delay, seed=seed)
    decision = tune_separation_policy(delay, _DT, budget, sstable_size=budget)
    n_seq = decision.seq_capacity or budget // 2
    window = 200 * _DT

    config = LsmConfig(memory_budget=budget, sstable_size=budget)
    tiered = TieredEngine(config, tier_fanout=4)
    engines = (
        ("pi_c (leveling)", ConventionalEngine(config)),
        (
            f"pi_s(n_seq={n_seq})",
            SeparationEngine(config.with_seq_capacity(n_seq)),
        ),
        ("tiered (T=4)", tiered),
    )
    rows = []
    for label, engine in engines:
        queries = run_query_workload(
            engine, dataset, window=window, mode="historical", seed=seed
        )
        engine.flush_all()
        rows.append(
            [
                label,
                engine.write_amplification,
                queries.mean_files_touched,
                queries.mean_latency_ms,
            ]
        )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    result.add_table(
        f"WA and mid-ingest historical query cost (window={window:g} ms)",
        ["engine", "WA", "mean files/query", "mean latency (ms)"],
        rows,
    )
    result.notes.append(
        f"tiered ends with {tiered.compaction.run_count} overlapping runs; "
        "pi_s approaches tiering's WA while keeping near-leveling read "
        "cost — the design point the paper's separation policy occupies."
    )
    return result
