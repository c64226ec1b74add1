"""Delay laws that only the tests build: the fidelity gate's
non-lognormal rows and the constant law of the model-identity tests.

* :class:`DiscreteDelay` — a finite set of atoms.  The periodic-batch
  row (:func:`periodic_batch_delay`) is one: most points ship at once
  and the rest wait for one of a few re-send ticks.  A one-atom
  :class:`DiscreteDelay` is the constant delay.  The WA models consume
  atoms like any other law, because their quadrature works on
  quantiles, never on densities.
* :class:`MixtureDelay` — a lognormal fast path with a rare uniform
  outage mode gives the bimodal row.
* :class:`ShiftedDelay` — an exponential shifted right gives the
  constant-plus-jitter row.
* :class:`ParetoDelay` — the heavy-tail row.
"""

import math
from collections.abc import Sequence

import numpy as np

from repro.distributions.base import DelayDistribution, check_finite
from repro.errors import DistributionError


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


class ParetoDelay(DelayDistribution):
    """Lomax (Pareto-II) delays starting at 0: a genuinely heavy tail.

    ``P(delay > x) = (1 + x/scale)^(-alpha)``.
    """

    def __init__(self, alpha: float, scale: float) -> None:
        check_finite(alpha=alpha, scale=scale)
        if alpha <= 0 or scale <= 0:
            raise DistributionError(
                f"alpha and scale must be positive, got {alpha}, {scale}"
            )
        self.alpha = float(alpha)
        self.scale = float(scale)
        self.name = f"pareto(alpha={alpha:g}, scale={scale:g})"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        z = 1.0 + np.maximum(arr, 0.0) / self.scale
        out = np.where(arr >= 0, self.alpha / self.scale * z ** (-self.alpha - 1.0), 0.0)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        z = 1.0 + np.maximum(arr, 0.0) / self.scale
        out = np.where(arr >= 0, 1.0 - z ** (-self.alpha), 0.0)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        with np.errstate(divide="ignore"):
            out = self.scale * ((1.0 - qs) ** (-1.0 / self.alpha) - 1.0)
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return self.scale * ((1.0 - rng.random(size)) ** (-1.0 / self.alpha) - 1.0)

    def mean(self):
        if self.alpha <= 1.0:
            return math.inf
        return self.scale / (self.alpha - 1.0)

    def variance(self):
        if self.alpha <= 2.0:
            return math.inf
        return (
            self.scale**2 * self.alpha / ((self.alpha - 1.0) ** 2 * (self.alpha - 2.0))
        )

    def __repr__(self):
        return f"ParetoDelay(alpha={self.alpha!r}, scale={self.scale!r})"


def periodic_batch_delay(
    period: float,
    batch_weight: float,
    ticks: int = 4,
    tick_decay: float = 0.5,
) -> DiscreteDelay:
    """Atoms at 0 and at re-send ticks ``period, 2*period, ...``: the
    fidelity gate's periodic-batch row.

    Mass ``1 - batch_weight`` ships immediately; the rest waits for the
    next tick, with geometrically decaying probability of needing
    further ticks (``tick_decay`` per extra period).
    """
    check_finite(period=period)
    if period <= 0:
        raise DistributionError(f"period must be positive, got {period}")
    if not 0 <= batch_weight < 1:
        raise DistributionError(
            f"batch_weight must be in [0, 1), got {batch_weight}"
        )
    if ticks < 1:
        raise DistributionError(f"ticks must be >= 1, got {ticks}")
    if not 0 < tick_decay < 1:
        raise DistributionError(
            f"tick_decay must be in (0, 1), got {tick_decay}"
        )
    values = [0.0] + [period * k for k in range(1, ticks + 1)]
    tick_weights = np.asarray(
        [tick_decay**k for k in range(ticks)], dtype=float
    )
    tick_weights = batch_weight * tick_weights / tick_weights.sum()
    weights = [1.0 - batch_weight, *tick_weights.tolist()]
    return DiscreteDelay(values, weights)
