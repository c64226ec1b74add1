"""The dataset container shared by every workload generator.

A dataset is a time-series in *arrival order*: aligned generation-time
and arrival-time arrays (Definition 1's ``t_g``/``t_a``; values carry no
information for WA and are omitted).  Engines ingest ``tg`` in this
order; the analyzer additionally consumes ``ta``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkloadError

__all__ = ["TimeSeriesDataset"]


@dataclass(frozen=True)
class TimeSeriesDataset:
    """An arrival-ordered stream of ``(t_g, t_a)`` pairs."""

    name: str
    #: Generation timestamps, in arrival order.
    tg: np.ndarray
    #: Arrival timestamps, non-decreasing.
    ta: np.ndarray
    #: Nominal generation interval (``None`` for irregular series).
    dt: float | None = None
    #: Free-form provenance (distribution parameters, seed...).
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tg.shape != self.ta.shape:
            raise WorkloadError(
                f"{self.name}: tg and ta must align "
                f"({self.tg.shape} vs {self.ta.shape})"
            )
        if self.tg.ndim != 1:
            raise WorkloadError(f"{self.name}: expected 1-d arrays")
        if self.ta.size > 1 and np.any(np.diff(self.ta) < 0):
            raise WorkloadError(f"{self.name}: arrival times must be sorted")

    def __len__(self) -> int:
        return int(self.tg.size)

    @property
    def delays(self) -> np.ndarray:
        """Per-point delay ``t_a - t_g`` (Definition 2)."""
        return self.ta - self.tg

    def out_of_order_mask(self) -> np.ndarray:
        """Points whose generation time precedes an earlier arrival's.

        This is the standard streaming approximation of Definition 3:
        point ``i`` is out-of-order iff ``tg[i] < max(tg[:i])``.  (The
        exact definition compares against the newest *on-disk* point,
        which additionally depends on MemTable state; the prefix-maximum
        is the budget-free limit.)
        """
        if self.tg.size == 0:
            return np.zeros(0, dtype=bool)
        prefix_max = np.maximum.accumulate(self.tg)
        mask = np.zeros(self.tg.size, dtype=bool)
        mask[1:] = self.tg[1:] < prefix_max[:-1]
        return mask

    def out_of_order_fraction(self) -> float:
        """Fraction of out-of-order points (prefix-maximum definition)."""
        if self.tg.size == 0:
            return 0.0
        return float(self.out_of_order_mask().mean())

    def generation_intervals(self) -> np.ndarray:
        """Gaps between consecutive generation times (sorted by ``t_g``)."""
        if self.tg.size < 2:
            return np.empty(0, dtype=float)
        return np.diff(np.sort(self.tg))

    def chunks(self, size: int) -> Iterator["TimeSeriesDataset"]:
        """Yield arrival-ordered sub-datasets of at most ``size`` points."""
        if size < 1:
            raise WorkloadError(f"chunk size must be >= 1, got {size}")
        for start in range(0, len(self), size):
            stop = start + size
            yield TimeSeriesDataset(
                name=f"{self.name}[{start}:{stop}]",
                tg=self.tg[start:stop],
                ta=self.ta[start:stop],
                dt=self.dt,
                metadata=self.metadata,
            )

    def head(self, count: int) -> "TimeSeriesDataset":
        """The first ``count`` arrivals as a dataset."""
        return TimeSeriesDataset(
            name=self.name,
            tg=self.tg[:count],
            ta=self.ta[:count],
            dt=self.dt,
            metadata=self.metadata,
        )

    def describe(self) -> str:
        """One-line summary used by reports."""
        delays = self.delays
        return (
            f"{self.name}: {len(self)} points, dt={self.dt}, "
            f"mean delay={delays.mean():.1f}, "
            f"out-of-order={100.0 * self.out_of_order_fraction():.2f}%"
        )
