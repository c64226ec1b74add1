"""Reservoir sampling for streaming delay collection.

The analyzer watches every ingested point but must keep memory bounded;
Vitter's Algorithm R gives a uniform sample of everything seen so far with
O(1) work per observation.  A windowed variant keeps only recent history,
which is what drift detection compares against.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError

__all__ = ["ReservoirSampler", "SlidingWindowSample"]


class ReservoirSampler:
    """Uniform random sample of a stream (Vitter's Algorithm R)."""

    def __init__(self, capacity: int, rng: np.random.Generator | None = None) -> None:
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._buffer: list[float] = []
        self._seen = 0

    @property
    def seen(self) -> int:
        """Total number of observations offered to the sampler."""
        return self._seen

    def __len__(self) -> int:
        return len(self._buffer)

    def offer(self, value: float) -> None:
        """Observe one value."""
        self._seen += 1
        if len(self._buffer) < self.capacity:
            self._buffer.append(float(value))
            return
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.capacity:
            self._buffer[slot] = float(value)

    def offer_many(self, values: np.ndarray) -> None:
        """Observe a batch of values."""
        for value in np.asarray(values, dtype=float).ravel():
            self.offer(float(value))

    def sample(self) -> np.ndarray:
        """Copy of the current reservoir contents."""
        return np.asarray(self._buffer, dtype=float)

    def reset(self) -> None:
        """Forget everything."""
        self._buffer.clear()
        self._seen = 0


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

    def offer(self, value: float) -> None:
        """Observe one value (oldest drops out when full)."""
        self._ring[self._head] = value
        self._head = (self._head + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1
        self._seen += 1

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

    def reset(self) -> None:
        """Forget everything."""
        self._head = 0
        self._size = 0
        self._seen = 0
