"""Multi-series ingest rounds and fleets, shared by the fleet tests."""

import numpy as np

from repro import LogNormalDelay, UniformDelay
from repro.workloads import generate_synthetic

#: ``(sigma, mu - log dt)`` of the system benchmark's eight disordered
#: series (``benchmarks/system/workloads.py::DISORDERED_CELLS``) and what
#: Algorithm 1 decides for each at a 512-point budget; the other eight
#: series of its fleet have sub-interval uniform jitter and stay pi_c.
BENCHMARK_CELLS = (
    (2.2, -0.5, "s"), (2.2, 0.5, "s"), (1.2, 0.0, "c"), (1.95, 0.0, "s"),
    (1.95, 1.0, "s"), (1.45, -0.5, "c"), (1.7, -1.0, "c"), (1.7, 1.0, "s"),
)


def benchmark_fleet(points_per_series, seed, dt=1000.0):
    """The system benchmark's sixteen series: ``(datasets, policies)``,
    where ``policies[name]`` is ``"s"`` or ``"c"`` as in
    :data:`BENCHMARK_CELLS`."""
    rng = np.random.default_rng(seed)
    data, policies = {}, {}
    for index in range(16):
        name = f"series-{index:04d}"
        if index < len(BENCHMARK_CELLS):
            sigma, offset, policy = BENCHMARK_CELLS[index]
            delay = LogNormalDelay(mu=np.log(dt) + offset, sigma=sigma)
        else:
            delay, policy = UniformDelay(low=0.0, high=0.5 * dt), "c"
        data[name] = generate_synthetic(
            points_per_series, dt=dt, delay=delay,
            seed=int(rng.integers(0, 2**31)), name=name,
        )
        policies[name] = policy
    return data, policies


def lockstep_rounds(datasets, chunk, with_ta=False):
    """One batch per round, every series advancing ``chunk`` points in
    lock-step until it runs out; entries are ``(name, tg)``, or
    ``(name, tg, ta)`` with ``with_ta``."""
    longest = max(len(ds.tg) for ds in datasets.values())
    return [
        [
            (name, ds.tg[pos : pos + chunk], ds.ta[pos : pos + chunk])
            if with_ta
            else (name, ds.tg[pos : pos + chunk])
            for name, ds in datasets.items()
            if pos < len(ds.tg)
        ]
        for pos in range(0, longest, chunk)
    ]
