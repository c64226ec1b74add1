"""Simulated query latency.

The paper ran on an HDD, where "the overhead of disk seeks" dominates
small reads (Section V-D1's explanation of why pi_s loses on recent-data
queries despite lower read amplification).  We model latency as

    latency = overhead + files_touched * seek + points_read * scan
              + memtable_points * in_memory_scan

using :data:`~repro.config.DEFAULT_DISK_MODEL`.  Absolute values
are not meant to match the paper's nanosecond measurements; the relative
ordering of policies is the reproduced quantity.
"""

from __future__ import annotations

from ..config import DEFAULT_DISK_MODEL
from .executor import QueryStats

__all__ = ["query_latency_ms", "MEMTABLE_SCAN_MS_PER_POINT"]

#: CPU cost of scanning one in-memory point (no I/O involved).
MEMTABLE_SCAN_MS_PER_POINT = 0.00005


def query_latency_ms(stats: QueryStats) -> float:
    """Modelled latency of one executed query, in milliseconds."""
    disk = DEFAULT_DISK_MODEL
    return (
        disk.query_overhead_ms
        + disk.read_cost_ms(stats.files_touched, stats.disk_points_read)
        + stats.memtable_points_scanned * MEMTABLE_SCAN_MS_PER_POINT
    )
