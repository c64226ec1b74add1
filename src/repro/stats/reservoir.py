"""The sliding window of recent delays the analyzer profiles.

The analyzer watches every ingested point but must keep memory bounded:
it keeps only the most recent history, which is both what Algorithm 1
runs on and what drift detection compares against.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError

__all__ = ["SlidingWindowSample"]


class SlidingWindowSample:
    """The most recent ``capacity`` observations of a stream.

    A fixed ring buffer: a batch of any length costs at most two slice
    copies, because only its last ``capacity`` values can survive.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring = np.empty(capacity, dtype=float)
        #: Slot the next observation lands in; once the window is full
        #: this is also the oldest retained observation.
        self._head = 0
        self._size = 0
        self._seen = 0

    @property
    def seen(self) -> int:
        """Total number of observations offered."""
        return self._seen

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        """True once the window holds ``capacity`` observations."""
        return self._size == self.capacity

    def offer_many(self, values: np.ndarray) -> None:
        """Observe a batch of values."""
        values = np.asarray(values, dtype=float).ravel()
        self._seen += values.size
        survivors = values[-self.capacity :]
        first = min(survivors.size, self.capacity - self._head)
        self._ring[self._head : self._head + first] = survivors[:first]
        self._ring[: survivors.size - first] = survivors[first:]
        self._head = (self._head + survivors.size) % self.capacity
        self._size = min(self._size + survivors.size, self.capacity)

    def sample(self) -> np.ndarray:
        """Copy of the window, oldest first."""
        if self._size < self.capacity:
            # Not yet wrapped: slots fill from 0 in arrival order.
            return self._ring[: self._size].copy()
        return np.concatenate((self._ring[self._head :], self._ring[: self._head]))
