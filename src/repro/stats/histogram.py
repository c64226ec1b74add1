"""Histogram summaries used by the delay analyzer and the figure renderers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError

__all__ = ["Histogram", "build_histogram"]


@dataclass(frozen=True)
class Histogram:
    """A fixed-bin histogram with density and count views."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.counts) + 1:
            raise ReproError(
                f"histogram edges/counts mismatch: {len(self.edges)} edges, "
                f"{len(self.counts)} counts"
            )

    @property
    def total(self) -> int:
        """Total number of observations."""
        return int(self.counts.sum())

    @property
    def widths(self) -> np.ndarray:
        """Bin widths."""
        return np.diff(self.edges)

    def density(self) -> np.ndarray:
        """Per-bin probability density (integrates to 1)."""
        total = self.total
        if total == 0:
            return np.zeros_like(self.counts, dtype=float)
        widths = np.where(self.widths > 0, self.widths, 1.0)
        return self.counts / (total * widths)


def build_histogram(
    samples: np.ndarray,
    bins: int = 50,
    range_: tuple[float, float] | None = None,
) -> Histogram:
    """Build a :class:`Histogram` over the finite entries of ``samples``."""
    data = np.asarray(samples, dtype=float).ravel()
    data = data[np.isfinite(data)]
    if data.size == 0:
        raise ReproError("cannot build a histogram from an empty sample")
    if bins < 1:
        raise ReproError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(data, bins=bins, range=range_)
    return Histogram(edges=edges, counts=counts)
