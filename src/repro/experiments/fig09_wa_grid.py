"""Figure 9: WA (experiment + model) on the Table II grid M1--M12.

For each synthetic dataset the paper plots WA under pi_s across ``n_seq``
settings (scatters: experiment; curve: ``r_s``) together with the pi_c
reference (line: ``r_c``).  Section V-B's qualitative findings that this
experiment must reproduce:

* larger ``dt`` (M1--M6 vs M7--M12) reduces disorder and hence WA;
* larger ``mu`` (M1 vs M4, ...) and larger ``sigma`` (M1..M3) raise WA;
* the WA-vs-``n_seq`` curve is U-shaped, most visibly for severe
  disorder (M12);
* model error is bounded (~1 WA unit, from SSTable-granularity
  rounding), and relatively smaller when disorder is severe (dt=10).
"""

from __future__ import annotations

from ..config import DEFAULT_MEMORY_BUDGET, DEFAULT_SSTABLE_SIZE
from ..workloads import TABLE_II
from .report import ExperimentResult
from .runner import sweep_wa_vs_nseq

EXPERIMENT_ID = "fig09"
TITLE = "WA under pi_s/pi_c on datasets M1-M12 (experiment vs model)"
PAPER_REF = (
    "Figure 9 — twelve synthetic datasets (Table II), n=512, SSTable=512; "
    "WA measured across n_seq plus r_s/r_c model curves."
)

_N_SEQ = (50, 150, 256, 350, 450)
_BASE_POINTS = 100_000


def run(
    scale: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Figure 9."""
    n_points = max(int(_BASE_POINTS * scale), 10_000)
    names = list(TABLE_II)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REF
    )
    summary_rows = []
    for name in names:
        spec = TABLE_II[name]
        dataset = spec.build(n_points=n_points, seed=seed)
        sweep = sweep_wa_vs_nseq(
            dataset,
            spec.delay_distribution(),
            spec.dt,
            DEFAULT_MEMORY_BUDGET,
            DEFAULT_SSTABLE_SIZE,
            list(_N_SEQ),
        )
        rows = [
            [n_seq, measured, modelled]
            for n_seq, measured, modelled in zip(
                sweep.n_seq, sweep.measured, sweep.modelled
            )
        ]
        rows.append(
            ["pi_c", sweep.measured_conventional, sweep.modelled_conventional]
        )
        result.add_table(
            f"{name} (dt={spec.dt:g}, mu={spec.mu:g}, sigma={spec.sigma:g})",
            ["n_seq", "experiment WA", "model WA"],
            rows,
        )
        best_nseq, best_wa = sweep.best_measured()
        summary_rows.append(
            [
                name,
                spec.dt,
                spec.mu,
                spec.sigma,
                sweep.measured_conventional,
                best_wa,
                best_nseq,
                "pi_s" if best_wa < sweep.measured_conventional else "pi_c",
                "pi_s"
                if sweep.best_modelled()[1] < sweep.modelled_conventional
                else "pi_c",
            ]
        )
    result.add_table(
        "Per-dataset summary (winner by measured WA vs winner by model)",
        [
            "dataset",
            "dt",
            "mu",
            "sigma",
            "pi_c WA",
            "best pi_s WA",
            "best n_seq",
            "measured winner",
            "model winner",
        ],
        summary_rows,
    )
    agree = sum(1 for row in summary_rows if row[-1] == row[-2])
    result.notes.append(
        f"model and experiment agree on the winning policy for "
        f"{agree}/{len(summary_rows)} datasets."
    )
    return result
