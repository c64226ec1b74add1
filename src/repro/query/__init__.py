"""Query engine: range scans, read amplification, modelled latency.

Implements Section V-D's measurement stack: generation-time range queries
against engine snapshots, the read-amplification metric of Figure 12 and
the seek-aware latency model behind Figures 13, 14 and 20.
"""

from .aggregation import AggregateResult, execute_aggregate_query
from .executor import QueryStats, execute_range_query
from .latency import MEMTABLE_SCAN_MS_PER_POINT, query_latency_ms
from .merge import (
    aggregate_over_series,
    canonical_series_order,
    merge_aggregates,
    merge_range_stats,
    scan_over_series,
)
from .workloads import (
    QueryWorkloadResult,
    historical_window_query,
    recent_window_query,
    run_query_workload,
)

__all__ = [
    "QueryStats",
    "AggregateResult",
    "execute_aggregate_query",
    "execute_range_query",
    "canonical_series_order",
    "merge_aggregates",
    "merge_range_stats",
    "aggregate_over_series",
    "scan_over_series",
    "query_latency_ms",
    "MEMTABLE_SCAN_MS_PER_POINT",
    "QueryWorkloadResult",
    "recent_window_query",
    "historical_window_query",
    "run_query_workload",
]
