"""Closed-form parametric delay distributions.

The paper's synthetic datasets use lognormal delays ("we add a random
variable, which obeys the lognormal distribution, to simulate real-world
delays", Section III).  The others each have a caller: exponential,
uniform, gamma and half-normal segments make Figure 17's dynamic
workload, and the exponential law is also a row of the fidelity gate
(``tests/test_fidelity_gate.py``), which checks the models on shapes the
lognormal grid does not cover.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from ..errors import DistributionError
from .base import DelayDistribution, check_finite

__all__ = [
    "LogNormalDelay",
    "ExponentialDelay",
    "UniformDelay",
    "HalfNormalDelay",
    "GammaDelay",
]

_SQRT2 = math.sqrt(2.0)


def _ndtr(z: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + special.erf(np.asarray(z, dtype=float) / _SQRT2))


class LogNormalDelay(DelayDistribution):
    """Lognormal delays: ``log(delay) ~ Normal(mu, sigma**2)``.

    This is the family used for datasets M1--M12 (Table II) and for
    Figures 5 and 7.  ``mu`` and ``sigma`` follow the paper's notation,
    e.g. ``LogNormalDelay(mu=5, sigma=2)`` for Figure 7.
    """

    def __init__(self, mu: float, sigma: float) -> None:
        check_finite(mu=mu, sigma=sigma)
        if sigma <= 0:
            raise DistributionError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.name = f"lognormal(mu={mu:g}, sigma={sigma:g})"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        positive = arr > 0
        xs = arr[positive]
        z = (np.log(xs) - self.mu) / self.sigma
        out[positive] = np.exp(-0.5 * z * z) / (
            xs * self.sigma * math.sqrt(2.0 * math.pi)
        )
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        positive = arr > 0
        z = (np.log(arr[positive]) - self.mu) / self.sigma
        out[positive] = _ndtr(z)
        return float(out) if np.isscalar(x) else out

    def log_cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.full_like(arr, -np.inf)
        positive = arr > 0
        z = (np.log(arr[positive]) - self.mu) / self.sigma
        out[positive] = special.log_ndtr(z)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        out = np.exp(self.mu + self.sigma * special.ndtri(np.clip(qs, 1e-300, 1.0)))
        out = np.where(qs == 0.0, 0.0, out)
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return rng.lognormal(self.mu, self.sigma, size)

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def variance(self):
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def __repr__(self):
        return f"LogNormalDelay(mu={self.mu!r}, sigma={self.sigma!r})"


class ExponentialDelay(DelayDistribution):
    """Exponential delays with the given ``mean`` (light tail, memoryless)."""

    def __init__(self, mean: float) -> None:
        check_finite(mean=mean)
        if mean <= 0:
            raise DistributionError(f"mean must be positive, got {mean}")
        self._mean = float(mean)
        self.name = f"exponential(mean={mean:g})"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr >= 0, np.exp(-arr / self._mean) / self._mean, 0.0)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr >= 0, -np.expm1(-arr / self._mean), 0.0)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        with np.errstate(divide="ignore"):
            out = -self._mean * np.log1p(-qs)
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return rng.exponential(self._mean, size)

    def mean(self):
        return self._mean

    def variance(self):
        return self._mean**2

    def __repr__(self):
        return f"ExponentialDelay(mean={self._mean!r})"


class UniformDelay(DelayDistribution):
    """Uniform delays on ``[low, high]`` (bounded support)."""

    def __init__(self, low: float, high: float) -> None:
        check_finite(low=low, high=high)
        if low < 0 or high <= low:
            raise DistributionError(
                f"require 0 <= low < high, got low={low}, high={high}"
            )
        self.low = float(low)
        self.high = float(high)
        self.name = f"uniform({low:g}, {high:g})"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        inside = (arr >= self.low) & (arr <= self.high)
        out = np.where(inside, 1.0 / (self.high - self.low), 0.0)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.clip((arr - self.low) / (self.high - self.low), 0.0, 1.0)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        out = self.low + qs * (self.high - self.low)
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return rng.uniform(self.low, self.high, size)

    def mean(self):
        return 0.5 * (self.low + self.high)

    def variance(self):
        return (self.high - self.low) ** 2 / 12.0

    def support_upper(self):
        return self.high

    def __repr__(self):
        return f"UniformDelay(low={self.low!r}, high={self.high!r})"


class HalfNormalDelay(DelayDistribution):
    """|Normal(0, sigma^2)| delays: mass concentrated near zero."""

    def __init__(self, sigma: float) -> None:
        check_finite(sigma=sigma)
        if sigma <= 0:
            raise DistributionError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)
        self.name = f"halfnormal(sigma={sigma:g})"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        z = arr / self.sigma
        out = np.where(
            arr >= 0,
            math.sqrt(2.0 / math.pi) / self.sigma * np.exp(-0.5 * z * z),
            0.0,
        )
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr >= 0, special.erf(arr / (self.sigma * _SQRT2)), 0.0)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        out = self.sigma * _SQRT2 * special.erfinv(qs)
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return np.abs(rng.normal(0.0, self.sigma, size))

    def mean(self):
        return self.sigma * math.sqrt(2.0 / math.pi)

    def variance(self):
        return self.sigma**2 * (1.0 - 2.0 / math.pi)

    def __repr__(self):
        return f"HalfNormalDelay(sigma={self.sigma!r})"


class GammaDelay(DelayDistribution):
    """Gamma delays with the given ``shape`` and ``scale``."""

    def __init__(self, shape: float, scale: float) -> None:
        check_finite(shape=shape, scale=scale)
        if shape <= 0 or scale <= 0:
            raise DistributionError(
                f"shape and scale must be positive, got {shape}, {scale}"
            )
        self.shape = float(shape)
        self.scale = float(scale)
        self.name = f"gamma(shape={shape:g}, scale={scale:g})"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        positive = arr > 0
        xs = arr[positive] / self.scale
        log_pdf = (
            (self.shape - 1.0) * np.log(xs)
            - xs
            - special.gammaln(self.shape)
            - math.log(self.scale)
        )
        out[positive] = np.exp(log_pdf)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 0, special.gammainc(self.shape, np.maximum(arr, 0.0) / self.scale), 0.0)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        out = special.gammaincinv(self.shape, qs) * self.scale
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return rng.gamma(self.shape, self.scale, size)

    def mean(self):
        return self.shape * self.scale

    def variance(self):
        return self.shape * self.scale**2

    def __repr__(self):
        return f"GammaDelay(shape={self.shape!r}, scale={self.scale!r})"
