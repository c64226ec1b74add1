"""Shared drivers: run a dataset through an engine, measure WA, sweep knobs.

These helpers are the glue between :mod:`repro.workloads` and
:mod:`repro.lsm` that every per-figure experiment module reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_MEMORY_BUDGET, DEFAULT_MODEL_CONFIG, LsmConfig, ModelConfig
from ..core import InOrderCurve, ZetaModel, predict_wa_conventional, separation_breakdown
from ..distributions import DelayDistribution, EmpiricalDelay
from ..errors import ExperimentError
from ..lsm import (
    AdaptiveEngine,
    ConventionalEngine,
    IoTDBStyleEngine,
    SeparationEngine,
)
from ..obs.telemetry import global_telemetry
from ..workloads import TimeSeriesDataset

__all__ = [
    "measure_wa",
    "measure_wa_adaptive",
    "iotdb_pair",
    "WaSweep",
    "sweep_wa_vs_nseq",
    "dataset_delay_model",
]


def measure_wa(
    dataset: TimeSeriesDataset,
    policy: str,
    memory_budget: int,
    sstable_size: int,
    seq_capacity: int | None = None,
):
    """Run ``dataset`` through an engine and return it (WA on ``.stats``).

    ``policy`` is ``"conventional"`` or ``"separation"``; for separation,
    ``seq_capacity`` defaults to the IoTDB 1:1 split.
    """
    config = LsmConfig(
        memory_budget=memory_budget,
        sstable_size=sstable_size,
        seq_capacity=seq_capacity,
    )
    telemetry = global_telemetry()
    if policy == "conventional":
        engine = ConventionalEngine(config, telemetry=telemetry)
    elif policy == "separation":
        engine = SeparationEngine(config, telemetry=telemetry)
    else:
        raise ExperimentError(
            f"policy must be 'conventional' or 'separation', got {policy!r}"
        )
    with telemetry.span(
        "measure_wa", dataset=dataset.name, policy=policy
    ) as span:
        engine.ingest(dataset.tg)
        engine.flush_all()
        span.set(points=engine.ingested_points, wa=engine.write_amplification)
    return engine


def iotdb_pair(seq_capacity: int) -> dict[str, IoTDBStyleEngine]:
    """Fresh IoTDB-style engines ``{"pi_c": ..., "pi_s": ...}`` at the
    default budget, ``pi_s`` split at ``seq_capacity`` — the two subjects
    of the throughput and query experiments (Table III, Figures 12-15, 20)."""
    budget = DEFAULT_MEMORY_BUDGET
    return {
        "pi_c": IoTDBStyleEngine(LsmConfig(memory_budget=budget), policy="conventional"),
        "pi_s": IoTDBStyleEngine(
            LsmConfig(memory_budget=budget, seq_capacity=seq_capacity),
            policy="separation",
        ),
    }


def measure_wa_adaptive(
    dataset: TimeSeriesDataset,
    memory_budget: int,
    sstable_size: int,
    check_interval: int = 8192,
    analyzer=None,
) -> AdaptiveEngine:
    """Run ``dataset`` through the adaptive engine (needs arrival times)."""
    telemetry = global_telemetry()
    engine = AdaptiveEngine(
        LsmConfig(memory_budget=memory_budget, sstable_size=sstable_size),
        analyzer=analyzer,
        check_interval=check_interval,
        telemetry=telemetry,
    )
    with telemetry.span(
        "measure_wa_adaptive", dataset=dataset.name
    ) as span:
        engine.ingest(dataset.tg, dataset.ta)
        engine.flush_all()
        span.set(
            points=engine.ingested_points,
            wa=engine.write_amplification,
            switches=len(engine.switches),
        )
    return engine


def dataset_delay_model(dataset: TimeSeriesDataset) -> tuple[DelayDistribution, float]:
    """An empirical delay law and a ``dt`` estimate for a real dataset.

    This is what the analyzer does offline: profile the observed delays
    (``EmpiricalDelay``) and take the mean generation interval.
    """
    delays = dataset.delays
    intervals = dataset.generation_intervals()
    if intervals.size == 0:
        raise ExperimentError(f"{dataset.name}: need >= 2 points to estimate dt")
    dt = float(intervals.mean())
    if dt <= 0:
        raise ExperimentError(f"{dataset.name}: non-positive mean interval")
    return EmpiricalDelay(delays), dt


@dataclass(frozen=True)
class WaSweep:
    """Measured and modelled WA across an ``n_seq`` sweep."""

    n_seq: np.ndarray
    measured: np.ndarray
    modelled: np.ndarray
    measured_conventional: float
    modelled_conventional: float

    def best_measured(self) -> tuple[int, float]:
        """(n_seq, WA) with the lowest measured separation WA."""
        idx = int(np.argmin(self.measured))
        return int(self.n_seq[idx]), float(self.measured[idx])

    def best_modelled(self) -> tuple[int, float]:
        """(n_seq, WA) with the lowest modelled separation WA."""
        idx = int(np.argmin(self.modelled))
        return int(self.n_seq[idx]), float(self.modelled[idx])


def sweep_wa_vs_nseq(
    dataset: TimeSeriesDataset,
    dist: DelayDistribution,
    dt: float,
    memory_budget: int,
    sstable_size: int,
    n_seq_values: list[int],
    model_config: ModelConfig = DEFAULT_MODEL_CONFIG,
) -> WaSweep:
    """Measure and model WA at each ``n_seq`` plus the pi_c reference."""
    zeta_model = ZetaModel(dist, dt, model_config)
    curve = InOrderCurve(dist, dt)
    measured = []
    modelled = []
    for n_seq in n_seq_values:
        engine = measure_wa(
            dataset, "separation", memory_budget, sstable_size, seq_capacity=n_seq
        )
        measured.append(engine.write_amplification)
        modelled.append(
            separation_breakdown(
                dist,
                dt,
                memory_budget,
                n_seq,
                config=model_config,
                zeta_model=zeta_model,
                in_order_curve=curve,
            ).wa
        )
    conventional = measure_wa(dataset, "conventional", memory_budget, sstable_size)
    r_c = predict_wa_conventional(
        dist,
        dt,
        memory_budget,
        config=model_config,
        zeta_model=zeta_model,
        sstable_size=sstable_size,
    )
    return WaSweep(
        n_seq=np.asarray(n_seq_values, dtype=int),
        measured=np.asarray(measured, dtype=float),
        modelled=np.asarray(modelled, dtype=float),
        measured_conventional=float(conventional.write_amplification),
        modelled_conventional=float(r_c),
    )
