"""Shared driver for the query experiments (Figures 12, 13, 14).

All three figures come from the same runs: M1--M12 ingested into the
IoTDB-style engine under pi_c and pi_s (pi_s with the system-recommended
``n_seq``), with queries issued while writing.  The grid is computed once
per (scale, seed, mode) and memoised so the read-amplification and
latency figures reuse it within a session.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..config import DEFAULT_MEMORY_BUDGET
from ..core import tune_separation_policy
from ..query import QueryWorkloadResult, run_query_workload
from ..workloads import TABLE_II
from .runner import iotdb_pair

__all__ = ["QUERY_WINDOWS_MS", "GridCell", "query_grid", "recommended_seq_capacity"]

#: "We use different 'window' lengths for the query (500ms, 1000ms and
#: 5000ms)." (Section V-D1.)
QUERY_WINDOWS_MS = (500.0, 1000.0, 5000.0)

_BASE_POINTS = 40_000


@dataclass(frozen=True)
class GridCell:
    """One (dataset, window, policy) measurement."""

    dataset: str
    window: float
    policy: str
    result: QueryWorkloadResult


@functools.lru_cache(maxsize=32)
def recommended_seq_capacity(dataset_name: str) -> int:
    """The analyzer-recommended ``n_seq`` for a Table II dataset.

    "Under pi_s, we used the values recommended by the system to set the
    capacity of C_seq and C_nonseq." (Section V-D1.)  Falls back to the
    1:1 split when the tuner recommends pi_c outright.
    """
    spec = TABLE_II[dataset_name]
    decision = tune_separation_policy(
        spec.delay_distribution(),
        spec.dt,
        DEFAULT_MEMORY_BUDGET,
        sstable_size=DEFAULT_MEMORY_BUDGET,
    )
    if decision.seq_capacity is not None:
        return decision.seq_capacity
    return DEFAULT_MEMORY_BUDGET // 2


@functools.lru_cache(maxsize=8)
def query_grid(
    mode: str,
    scale: float,
    seed: int,
) -> tuple[GridCell, ...]:
    """Run the full query grid for ``mode`` ('recent' or 'historical')."""
    n_points = max(int(_BASE_POINTS * scale), 5_000)
    cells: list[GridCell] = []
    for name in TABLE_II:
        spec = TABLE_II[name]
        dataset = spec.build(n_points=n_points, seed=seed)
        n_seq = recommended_seq_capacity(name)
        for window in QUERY_WINDOWS_MS:
            for policy, engine in iotdb_pair(n_seq).items():
                outcome = run_query_workload(
                    engine, dataset, window=window, mode=mode, seed=seed
                )
                cells.append(
                    GridCell(
                        dataset=name,
                        window=window,
                        policy=policy,
                        result=outcome,
                    )
                )
    return tuple(cells)
