"""Structure-of-arrays point batches flowing through the LSM engines.

A time-series data point is the paper's triple ``(t_g, t_a, v)``
(Definition 1).  The storage engines only ever order by generation time
``t_g`` and account writes per point, so inside the LSM a point is
represented by its generation time plus a stable integer id (its arrival
index).  Values are irrelevant to write amplification and are not
materialised; queries report counts, which is what read amplification and
the latency model need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EngineError

__all__ = ["PointBatch", "sort_by_generation"]


@dataclass(frozen=True)
class PointBatch:
    """A batch of points: aligned generation-time and id arrays."""

    tg: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        if self.tg.shape != self.ids.shape:
            raise EngineError(
                f"tg and ids must align: {self.tg.shape} vs {self.ids.shape}"
            )

    def __len__(self) -> int:
        return int(self.tg.size)

    @property
    def empty(self) -> bool:
        """True when the batch holds no points."""
        return self.tg.size == 0

    def sorted_by_generation(self) -> "PointBatch":
        """Return a copy ordered by generation time."""
        order = np.argsort(self.tg, kind="stable")
        return PointBatch(tg=self.tg[order], ids=self.ids[order])

    @staticmethod
    def concat(batches: list["PointBatch"]) -> "PointBatch":
        """Concatenate batches in order (no sorting)."""
        if not batches:
            return PointBatch(
                tg=np.empty(0, dtype=np.float64), ids=np.empty(0, dtype=np.int64)
            )
        return PointBatch(
            tg=np.concatenate([b.tg for b in batches]),
            ids=np.concatenate([b.ids for b in batches]),
        )


def sort_by_generation(tg: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort aligned ``(tg, ids)`` arrays by generation time (stable)."""
    # The method, not ``np.argsort``: the wrapper's dispatch costs more
    # than the sort of a landing-sized array.
    order = tg.argsort(kind="stable")
    return tg[order], ids[order]
