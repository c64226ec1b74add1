"""Experiment registry: id -> module, for the CLI and the benchmarks."""

from __future__ import annotations

import importlib
from types import ModuleType

from ..errors import ExperimentError
from ..obs.telemetry import global_telemetry
from .report import ExperimentResult

__all__ = ["EXPERIMENTS", "experiment_ids", "get_experiment", "run_experiment"]

#: id -> module name within ``repro.experiments``.
EXPERIMENTS: dict[str, str] = {
    "fig05": "fig05_subsequent",
    "fig07": "fig07_wa_curve",
    "fig08": "fig08_s9_delays",
    "fig09": "fig09_wa_grid",
    "fig10": "fig10_adaptive",
    "fig11": "fig11_s9_wa",
    "fig12": "fig12_read_amplification",
    "fig13": "fig13_recent_latency",
    "fig14": "fig14_historical_latency",
    "fig16": "fig16_dataset_h",
    "fig17": "fig17_dynamic_robustness",
    "fig18": "fig18_s9_intervals",
    "fig19": "fig19_h_delays",
    "fig20": "fig20_h_queries",
    "table02": "table02_datasets",
    "table03": "table03_throughput",
    "ablation_sstable": "ablation_sstable_size",
    "ablation_zeta": "ablation_zeta_accuracy",
    "ablation_multilevel": "ablation_multilevel",
    "ablation_drift": "ablation_drift",
    "ablation_tiering": "ablation_tiering",
    "ablation_crossover": "ablation_crossover",
    "ablation_composed": "ablation_composed",
    "fleet": "fleet_casestudy",
    "concepts": "concepts",
    "validation": "validation",
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, figures first."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ModuleType:
    """Import and return the experiment module for ``experiment_id``."""
    if experiment_id not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {experiment_ids()}"
        )
    return importlib.import_module(
        f".{EXPERIMENTS[experiment_id]}", package=__package__
    )


def run_experiment(
    experiment_id: str, scale: float = 1.0, seed: int | None = None
) -> ExperimentResult:
    """Run one experiment and return its result.

    Wall-time is reported on the process-global telemetry bus as an
    ``experiment`` span (a no-op unless telemetry was configured, e.g.
    via the CLI's ``--trace``).
    """
    module = get_experiment(experiment_id)
    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    telemetry = global_telemetry()
    with telemetry.span(
        "experiment", experiment_id=experiment_id, scale=scale
    ) as span:
        result = module.run(**kwargs)
        span.set(tables=len(result.tables))
    return result
