"""Simulated dataset H: the vehicle-industry IIoT workload of Section VI.

The paper's real dataset H comes from industrial vehicles streaming to a
data center through an unreliable network; its published signatures,
which this generator reproduces:

* generation interval of **one second**;
* "normally the device would send the data points immediately"; on
  network failure "the device is able to buffer the data points locally
  ... a system triggers re-sending for about every 5x10^4 ms" — hence a
  delay histogram with most mass below ~5x10^4 ms plus a systematic mode
  near the re-send period (Figure 19b);
* **autocorrelated** delays (failures come in bursts — Figure 16a);
* a very low out-of-order rate (~0.0375%) whose out-of-order points have
  small (~2.5 s) delays: the re-sent batches preserve generation order,
  so only ordinary jitter reorders points.

Model: a two-state (online/outage) Markov transmission channel.  Online
points ship with sub-second jitter (plus rare multi-second spikes — the
source of the few out-of-order points).  During an outage everything is
queued — including points generated after recovery but before the next
re-send tick — and the whole batch is delivered at the tick in generation
order with microsecond spacing.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WorkloadError
from .dataset import TimeSeriesDataset
from .synthetic import arrival_order

__all__ = ["generate_vehicle_h", "H_POINTS", "H_DT_MS", "H_RESEND_PERIOD_MS"]

#: The real dataset's size ("contains 1 million data points").
H_POINTS = 1_000_000

#: "The generation time interval is one second."
H_DT_MS = 1000.0

#: "a system triggers re-sending for about every 5x10^4 ms"
H_RESEND_PERIOD_MS = 50_000.0

#: Per-point probability of a multi-second delay spike while online.
H_SPIKE_PROB = 0.00045


def generate_vehicle_h(
    n_points: int = 200_000,
    seed: int = 6,
    outage_start_prob: float = 0.002,
    outage_mean_points: float = 25.0,
) -> TimeSeriesDataset:
    """Generate the simulated vehicle dataset H.

    ``outage_start_prob`` is the per-point probability of a network
    outage beginning; ``outage_mean_points`` the mean outage length in
    points (geometric); :data:`H_SPIKE_PROB` is the per-point
    probability of an isolated multi-second delay spike while online
    (the out-of-order source).  Defaults are calibrated to the published
    statistics.
    """
    if n_points < 2:
        raise WorkloadError(f"n_points must be >= 2, got {n_points}")
    if not 0 <= outage_start_prob < 1:
        raise WorkloadError(
            f"outage_start_prob must be in [0, 1), got {outage_start_prob}"
        )
    if outage_mean_points < 1:
        raise WorkloadError(
            f"outage_mean_points must be >= 1, got {outage_mean_points}"
        )
    dt, resend_period = H_DT_MS, H_RESEND_PERIOD_MS
    rng = np.random.default_rng(seed)
    tg = dt * np.arange(n_points, dtype=np.float64)
    ta = np.empty(n_points, dtype=np.float64)

    # Online jitter: a few hundred milliseconds, always positive.
    jitter = np.abs(rng.normal(250.0, 120.0, n_points))
    # Rare multi-second spikes (the out-of-order source).
    spikes = rng.random(n_points) < H_SPIKE_PROB
    jitter[spikes] += 1500.0 + rng.exponential(1200.0, int(spikes.sum()))

    outage_end_prob = 1.0 / outage_mean_points
    index = 0
    while index < n_points:
        if rng.random() < outage_start_prob:
            # Outage: everything up to the post-recovery re-send tick is
            # queued and delivered as one in-order batch.
            length = 1 + int(rng.geometric(outage_end_prob))
            recovery = tg[index] + length * dt
            tick = math.ceil(recovery / resend_period) * resend_period
            stop = min(index + int((tick - tg[index]) // dt) + 1, n_points)
            count = stop - index
            # Microsecond spacing keeps the batch's arrival order stable.
            ta[index:stop] = tick + 1e-3 * np.arange(count)
            index = stop
        else:
            ta[index] = tg[index] + jitter[index]
            index += 1

    # Arrival times must be globally non-decreasing after sorting; the
    # lexsort below also fixes the rare case where a batch lands before
    # a previous online point's delayed arrival.
    order = arrival_order(tg, ta)
    return TimeSeriesDataset(
        name="H(simulated)",
        tg=tg[order],
        ta=ta[order],
        dt=dt,
        metadata={
            "seed": seed,
            "resend_period_ms": resend_period,
            "outage_start_prob": outage_start_prob,
            "outage_mean_points": outage_mean_points,
            "spike_prob": H_SPIKE_PROB,
            "substitution": (
                "synthetic stand-in for the industrial-partner vehicle "
                "dataset H; see module docstring"
            ),
        },
    )
