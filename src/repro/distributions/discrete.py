"""Discrete delay distributions: a finite set of atoms.

The fidelity gate's periodic-batch row (``tests/test_fidelity_gate.py``)
is a :class:`DiscreteDelay`: most points ship at once and the rest wait
for one of a few re-send ticks.  A one-atom :class:`DiscreteDelay` is
the constant delay the model-identity tests use.  The WA models
consume atoms like any other law, because their quadrature works on
quantiles, never on densities.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import DistributionError
from .base import DelayDistribution, check_finite

__all__ = ["DiscreteDelay"]


class DiscreteDelay(DelayDistribution):
    """A finite distribution over fixed delay values with given weights."""

    def __init__(
        self, values: Sequence[float], weights: Sequence[float]
    ) -> None:
        vals = np.asarray(values, dtype=float).ravel()
        wts = np.asarray(weights, dtype=float).ravel()
        if vals.size == 0:
            raise DistributionError("DiscreteDelay needs at least one value")
        check_finite(values=vals, weights=wts)
        if vals.size != wts.size:
            raise DistributionError(
                f"{vals.size} values but {wts.size} weights"
            )
        if np.any(vals < 0):
            raise DistributionError("delay values must be non-negative")
        if np.any(wts < 0) or wts.sum() <= 0:
            raise DistributionError(
                "weights must be non-negative with positive sum"
            )
        order = np.argsort(vals, kind="stable")
        self._values = vals[order]
        self._weights = wts[order] / wts.sum()
        self._cum = np.cumsum(self._weights)
        self.name = f"discrete({vals.size} atoms)"

    def pdf(self, x):
        # Atomic distribution: densities are not meaningful; report 0.
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._values, arr, side="right")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        idx = np.searchsorted(self._cum, qs, side="left")
        out = self._values[np.minimum(idx, self._values.size - 1)]
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return rng.choice(self._values, size=size, p=self._weights)

    def mean(self):
        return float(np.dot(self._values, self._weights))

    def variance(self):
        mean = self.mean()
        return float(np.dot((self._values - mean) ** 2, self._weights))

    def support_upper(self):
        return float(self._values[-1])

    def __repr__(self):
        return (
            f"DiscreteDelay(values={self._values.tolist()!r}, "
            f"weights={self._weights.tolist()!r})"
        )

