"""Multi-series fleet workloads: the Section VI deployment shape.

A vehicle reports thousands of series over one network link, so delay
conditions correlate across series while disorder intensity varies per
series (sampling cadence, sensor burstiness).  The paper reports that
"more than one-third of the time-series contain out-of-order data
points" — i.e. disorder is widespread but not universal.

:func:`generate_fleet` produces a dict of named series with
heterogeneous delay regimes: a configurable fraction are clean (ordered)
and the rest draw lognormal delays of varying severity, so roughly the
published fraction shows disorder.
"""

from __future__ import annotations

import numpy as np

from ..distributions import LogNormalDelay, UniformDelay
from ..errors import WorkloadError
from .dataset import TimeSeriesDataset
from .synthetic import generate_synthetic

__all__ = ["generate_fleet"]


def generate_fleet(
    n_series: int = 40,
    points_per_series: int = 20_000,
    disordered_fraction: float = 0.4,
    seed: int = 0,
    hot_fraction: float = 0.0,
    hot_rate_multiplier: int = 1,
) -> dict[str, TimeSeriesDataset]:
    """Generate a heterogeneous multi-series workload, one point a
    second of generation time in every series.

    ``disordered_fraction`` of the series get lognormal delays severe
    enough to create out-of-order points (severity varies per series);
    the rest get sub-interval uniform jitter (always in order).

    ``hot_fraction``/``hot_rate_multiplier`` add arrival-rate skew for
    the memory-arbiter experiments: the first ``round(n_series *
    hot_fraction)`` series — a slice of the disordered cohort, the
    series whose WA is buffer-size sensitive — produce
    ``hot_rate_multiplier``× the points of the rest, so a budget that
    follows the workload beats any static equal split.  The defaults
    (no hot cohort) reproduce the historical fleets byte-for-byte.
    """
    if n_series < 1:
        raise WorkloadError(f"n_series must be >= 1, got {n_series}")
    if not 0.0 <= disordered_fraction <= 1.0:
        raise WorkloadError(
            f"disordered_fraction must be in [0, 1], got {disordered_fraction}"
        )
    if not 0.0 <= hot_fraction <= 1.0:
        raise WorkloadError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    if hot_rate_multiplier < 1:
        raise WorkloadError(
            f"hot_rate_multiplier must be >= 1, got {hot_rate_multiplier}"
        )
    dt = 1000.0
    rng = np.random.default_rng(seed)
    fleet: dict[str, TimeSeriesDataset] = {}
    n_disordered = int(round(n_series * disordered_fraction))
    n_hot = int(round(n_series * hot_fraction))
    for index in range(n_series):
        name = f"series-{index:04d}"
        if index < n_disordered:
            # Severity ramps across the disordered cohort: sigma in
            # [1.2, 2.2], mu near log(dt) so delays straddle the interval.
            sigma = 1.2 + rng.random()
            mu = float(np.log(dt)) - 1.0 + 2.0 * rng.random()
            delay = LogNormalDelay(mu=mu, sigma=sigma)
        else:
            delay = UniformDelay(low=0.0, high=0.5 * dt)
        points = points_per_series * (
            hot_rate_multiplier if index < n_hot else 1
        )
        fleet[name] = generate_synthetic(
            points,
            dt=dt,
            delay=delay,
            seed=int(rng.integers(0, 2**31)),
            name=name,
        )
    return fleet
