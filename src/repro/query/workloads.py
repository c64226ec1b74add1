"""The paper's two query workloads, run concurrently with ingestion.

Section V-D defines:

* **Recent-data queries** — real-time monitoring: "the client recorded
  the maximum generation time currently written to the database ... for
  every 100 ms [of written data], a query was generated", asking for
  ``time > max_time - window``.
* **Historical queries** — "the lower bound of the constraints on time
  was generated randomly", the upper bound is ``lower + window``, capped
  at the maximum generation time written.

:func:`run_query_workload` drives an engine through a dataset, pausing
every :data:`QUERY_EVERY` ingested points to issue one query against the
current snapshot, and aggregates read amplification and modelled latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QueryError
from ..workloads.dataset import TimeSeriesDataset
from .executor import execute_range_query
from .latency import query_latency_ms

__all__ = [
    "QueryWorkloadResult",
    "recent_window_query",
    "historical_window_query",
    "run_query_workload",
]

#: Ingested points between two queries.
QUERY_EVERY = 2048


@dataclass(frozen=True)
class QueryWorkloadResult:
    """Aggregated metrics of one query workload run."""

    policy: str
    workload: str
    window: float
    queries: int
    #: Mean read amplification over queries with non-empty results.
    mean_read_amplification: float
    #: Mean modelled latency (ms) over all queries.
    mean_latency_ms: float
    #: Mean SSTable files touched per query.
    mean_files_touched: float
    #: Mean result size per query.
    mean_result_points: float


def recent_window_query(max_tg: float, window: float) -> tuple[float, float]:
    """``time > max_time - window`` as a closed range."""
    return max_tg - window, max_tg


def historical_window_query(
    max_tg: float, window: float, rng: np.random.Generator
) -> tuple[float, float]:
    """A random window with its upper bound capped at ``max_tg``."""
    upper_start = max(max_tg - window, 0.0)
    lo = float(rng.uniform(0.0, upper_start)) if upper_start > 0 else 0.0
    return lo, lo + window


def run_query_workload(
    engine,
    dataset: TimeSeriesDataset,
    window: float,
    mode: str = "recent",
    seed: int = 0,
) -> QueryWorkloadResult:
    """Ingest ``dataset`` into ``engine``, querying as data streams in.

    ``mode`` is ``"recent"`` or ``"historical"``; a query follows every
    :data:`QUERY_EVERY` ingested points (the paper's "every 100 ms" of
    written data), once two windows' worth of points and one cadence
    have gone in, so recent windows are fully populated.
    """
    if mode not in ("recent", "historical"):
        raise QueryError(f"mode must be 'recent' or 'historical', got {mode!r}")
    if window <= 0:
        raise QueryError(f"window must be positive, got {window}")
    rng = np.random.default_rng(seed)
    nominal_dt = dataset.dt if dataset.dt else 1.0
    warmup_points = int(2 * window / nominal_dt) + QUERY_EVERY
    read_amps: list[float] = []
    latencies: list[float] = []
    files: list[float] = []
    results: list[float] = []
    ingested = 0
    max_tg_written = -np.inf
    for chunk in dataset.chunks(QUERY_EVERY):
        engine.ingest(chunk.tg)
        ingested += len(chunk)
        max_tg_written = max(max_tg_written, float(chunk.tg.max()))
        if ingested < warmup_points:
            continue
        if mode == "recent":
            lo, hi = recent_window_query(max_tg_written, window)
        else:
            lo, hi = historical_window_query(max_tg_written, window, rng)
        stats = execute_range_query(engine.snapshot(), lo, hi)
        latencies.append(query_latency_ms(stats))
        files.append(stats.files_touched)
        results.append(stats.result_points)
        if stats.result_points > 0:
            read_amps.append(stats.read_amplification)
    queries = len(latencies)
    return QueryWorkloadResult(
        policy=getattr(engine, "policy_name", type(engine).__name__),
        workload=mode,
        window=window,
        queries=queries,
        mean_read_amplification=(
            float(np.mean(read_amps)) if read_amps else float("nan")
        ),
        mean_latency_ms=float(np.mean(latencies)) if latencies else float("nan"),
        mean_files_touched=float(np.mean(files)) if files else float("nan"),
        mean_result_points=float(np.mean(results)) if results else float("nan"),
    )
