"""Sample autocorrelation, matching MATLAB's ``autocorr`` semantics.

Figure 16(a) of the paper plots the autocorrelation of dataset H's delays
with ±confidence bands to show that real delays violate the independence
assumption.  We reproduce the same statistic: the biased sample ACF

    rho(k) = sum_{t=1}^{N-k} (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2

together with the usual large-sample independence band ``±z / sqrt(N)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError

__all__ = ["AcfResult", "autocorrelation"]

#: Two-sided 95% normal quantile, the default band MATLAB draws.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class AcfResult:
    """Autocorrelation function with independence confidence bands."""

    lags: np.ndarray
    acf: np.ndarray
    #: Symmetric confidence band half-width (same for every lag).
    band: float

    def significant_lags(self) -> np.ndarray:
        """Lags (excluding 0) whose |ACF| exceeds the independence band."""
        mask = (self.lags > 0) & (np.abs(self.acf) > self.band)
        return self.lags[mask]

    def is_independent(self) -> bool:
        """True when no positive lag escapes the independence band."""
        return self.significant_lags().size == 0


def autocorrelation(series: np.ndarray, max_lag: int = 20) -> AcfResult:
    """Compute the sample ACF of ``series`` for lags ``0..max_lag``.

    Uses the biased normalisation (divide by ``N`` at every lag), which is
    what MATLAB's ``autocorr`` computes and guarantees ``|rho| <= 1``.
    """
    data = np.asarray(series, dtype=float).ravel()
    data = data[np.isfinite(data)]
    n = data.size
    if n < 2:
        raise ReproError(f"autocorrelation needs at least 2 samples, got {n}")
    if max_lag < 0:
        raise ReproError(f"max_lag must be non-negative, got {max_lag}")
    max_lag = min(max_lag, n - 1)
    centered = data - data.mean()
    denominator = float(np.dot(centered, centered))
    lags = np.arange(max_lag + 1)
    if denominator == 0.0:
        # Constant series: define ACF as 1 at lag 0, 0 elsewhere.
        acf = np.zeros(max_lag + 1)
        acf[0] = 1.0
    else:
        acf = np.empty(max_lag + 1)
        for k in lags:
            acf[k] = float(np.dot(centered[: n - k], centered[k:])) / denominator
    band = _Z95 / np.sqrt(n)
    return AcfResult(lags=lags, acf=acf, band=float(band))
