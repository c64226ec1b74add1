"""Abstract interface for delay distributions.

The paper assumes transmission delays are i.i.d. samples from a
distribution with PDF ``f`` and CDF ``F`` (Section II).  Every model in
:mod:`repro.core` consumes this interface, and every workload generator in
:mod:`repro.workloads` samples from it, so synthetic experiments and model
predictions share one source of truth for the delay law.

Delays are non-negative real numbers; the time unit is whatever the
workload uses (the paper uses milliseconds).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from ..errors import DistributionError

__all__ = ["DelayDistribution", "check_finite"]


def check_finite(**params) -> None:
    """Raise :class:`DistributionError` naming the first parameter (a
    number or a sequence of numbers) that holds a NaN or an infinity."""
    for name, value in params.items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise DistributionError(f"{name} must be finite, got {value!r}")


class DelayDistribution(abc.ABC):
    """A probability distribution over non-negative delays.

    Subclasses must implement :meth:`pdf`, :meth:`cdf` and
    :meth:`sample`; sensible generic implementations of everything else
    (log-CDF, quantile, mean, variance) are provided and may be
    overridden with closed forms where available.
    """

    #: Human-readable name used in reports and ``repr``.
    name: str = "delay"

    # -- primitives ---------------------------------------------------------

    @abc.abstractmethod
    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Probability density at ``x`` (0 for ``x < 0``)."""

    @abc.abstractmethod
    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """``P(delay <= x)`` (0 for ``x < 0``)."""

    @abc.abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. delays using ``rng``."""

    # -- derived quantities --------------------------------------------------

    def log_cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """``log F(x)``, with ``-inf`` where ``F(x) == 0``.

        Used by the subsequent-points model, which multiplies hundreds of
        CDF values; working in log space avoids underflow.
        """
        cdf = np.asarray(self.cdf(x), dtype=float)
        with np.errstate(divide="ignore"):
            out = np.log(cdf)
        if np.isscalar(x):
            return float(out)
        return out

    def quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        """Inverse CDF by bisection; subclasses override with closed forms."""
        scalar = np.isscalar(q)
        qs = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        out = np.empty_like(qs)
        hi0 = self._quantile_upper_bound()
        for idx, level in enumerate(qs):
            out[idx] = self._bisect_quantile(level, hi0)
        if scalar:
            return float(out[0])
        return out

    def mean(self) -> float:
        """Expected delay, integrated numerically from the survival function."""
        # E[X] = integral of (1 - F(x)) dx for non-negative X.
        hi = self._quantile_upper_bound()
        grid = np.linspace(0.0, hi, 4097)
        survival = 1.0 - np.asarray(self.cdf(grid), dtype=float)
        return float(np.trapezoid(survival, grid))

    def variance(self) -> float:
        """Delay variance, integrated numerically."""
        hi = self._quantile_upper_bound()
        grid = np.linspace(0.0, hi, 4097)
        density = np.asarray(self.pdf(grid), dtype=float)
        mean = float(np.trapezoid(grid * density, grid))
        second = float(np.trapezoid(grid * grid * density, grid))
        return max(second - mean * mean, 0.0)

    def support_upper(self) -> float:
        """Upper end of the support; ``inf`` for unbounded distributions."""
        return math.inf

    # -- helpers ---------------------------------------------------------------

    def _quantile_upper_bound(self) -> float:
        """A delay value with negligible mass above it."""
        upper = self.support_upper()
        if math.isfinite(upper):
            return upper
        hi = 1.0
        for _ in range(200):
            if float(self.cdf(hi)) > 1.0 - 1e-9:
                return hi
            hi *= 2.0
        raise DistributionError(
            f"{self!r}: could not bracket the upper tail; CDF does not reach 1"
        )

    def _bisect_quantile(self, level: float, hi0: float) -> float:
        if level <= 0.0:
            return 0.0
        lo, hi = 0.0, hi0
        # Expand in case hi0 undershoots this particular level.
        while float(self.cdf(hi)) < level and hi < 1e300:
            hi *= 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if float(self.cdf(mid)) < level:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
