"""Composite delay distributions: mixtures and shifted laws.

Both are rows of the fidelity gate (``tests/test_fidelity_gate.py``):
a :class:`MixtureDelay` of a lognormal fast path and a rare uniform
outage mode gives a bimodal law, and a :class:`ShiftedDelay` of an
exponential gives a constant delay plus jitter.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import DistributionError
from .base import DelayDistribution, check_finite

__all__ = ["MixtureDelay", "ShiftedDelay"]


class MixtureDelay(DelayDistribution):
    """A finite mixture of delay distributions with given weights."""

    def __init__(
        self,
        components: Sequence[DelayDistribution],
        weights: Sequence[float],
    ) -> None:
        if len(components) == 0:
            raise DistributionError("MixtureDelay needs at least one component")
        if len(components) != len(weights):
            raise DistributionError(
                f"{len(components)} components but {len(weights)} weights"
            )
        check_finite(weights=weights)
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or w.sum() <= 0:
            raise DistributionError(f"weights must be non-negative and sum > 0: {weights}")
        self.components = list(components)
        self.weights = w / w.sum()
        inner = ", ".join(c.name for c in self.components)
        self.name = f"mixture[{inner}]"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        for weight, comp in zip(self.weights, self.components):
            out = out + weight * np.asarray(comp.pdf(arr), dtype=float)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        for weight, comp in zip(self.weights, self.components):
            out = out + weight * np.asarray(comp.cdf(arr), dtype=float)
        return float(out) if np.isscalar(x) else out

    def sample(self, size, rng):
        choices = rng.choice(len(self.components), size=size, p=self.weights)
        out = np.empty(size, dtype=float)
        for index, comp in enumerate(self.components):
            mask = choices == index
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(count, rng)
        return out

    def mean(self):
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )

    def support_upper(self):
        return max(c.support_upper() for c in self.components)

    def __repr__(self):
        return (
            f"MixtureDelay(components={self.components!r}, "
            f"weights={self.weights.tolist()!r})"
        )


class ShiftedDelay(DelayDistribution):
    """``base + offset``: a distribution translated right by ``offset``."""

    def __init__(self, base: DelayDistribution, offset: float) -> None:
        check_finite(offset=offset)
        if offset < 0:
            raise DistributionError(f"offset must be non-negative, got {offset}")
        self.base = base
        self.offset = float(offset)
        self.name = f"{base.name}+{offset:g}"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self.base.pdf(arr - self.offset), dtype=float)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self.base.cdf(arr - self.offset), dtype=float)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        out = np.asarray(self.base.quantile(q), dtype=float) + self.offset
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return self.base.sample(size, rng) + self.offset

    def mean(self):
        return self.base.mean() + self.offset

    def variance(self):
        return self.base.variance()

    def support_upper(self):
        return self.base.support_upper() + self.offset

    def __repr__(self):
        return f"ShiftedDelay(base={self.base!r}, offset={self.offset!r})"
