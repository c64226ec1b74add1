"""Delay laws that only the tests build."""

import numpy as np

from repro.distributions import DiscreteDelay
from repro.distributions.base import check_finite
from repro.errors import DistributionError


def periodic_batch_delay(
    period: float,
    batch_weight: float,
    ticks: int = 4,
    tick_decay: float = 0.5,
) -> DiscreteDelay:
    """Atoms at 0 and at re-send ticks ``period, 2*period, ...``: the
    fidelity gate's periodic-batch row.

    Mass ``1 - batch_weight`` ships immediately; the rest waits for the
    next tick, with geometrically decaying probability of needing
    further ticks (``tick_decay`` per extra period).
    """
    check_finite(period=period)
    if period <= 0:
        raise DistributionError(f"period must be positive, got {period}")
    if not 0 <= batch_weight < 1:
        raise DistributionError(
            f"batch_weight must be in [0, 1), got {batch_weight}"
        )
    if ticks < 1:
        raise DistributionError(f"ticks must be >= 1, got {ticks}")
    if not 0 < tick_decay < 1:
        raise DistributionError(
            f"tick_decay must be in (0, 1), got {tick_decay}"
        )
    values = [0.0] + [period * k for k in range(1, ticks + 1)]
    tick_weights = np.asarray(
        [tick_decay**k for k in range(ticks)], dtype=float
    )
    tick_weights = batch_weight * tick_weights / tick_weights.sum()
    weights = [1.0 - batch_weight, *tick_weights.tolist()]
    return DiscreteDelay(values, weights)
