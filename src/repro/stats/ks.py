"""Two-sample Kolmogorov–Smirnov test.

The adaptive tuner (Figure 10 / 17) must detect that "the distribution of
delays changes".  We use the classic two-sample KS statistic between a
reference delay sample and the most recent window, with the asymptotic
Kolmogorov distribution for the p-value.  Implemented from scratch so the
drift detector has no hidden dependencies and is easy to audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError

__all__ = ["KsResult", "ks_two_sample", "kolmogorov_sf"]


@dataclass(frozen=True)
class KsResult:
    """Outcome of a two-sample KS test."""

    statistic: float
    pvalue: float
    n1: int
    n2: int


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution.

    ``P(K > t) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 t^2)``, summed to
    ``k = 100`` or the first term below ``1e-16``.
    """
    if t <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * t * t)
        if term < 1e-16:
            break
        total += (-1.0) ** (k - 1) * term
    return float(min(max(2.0 * total, 0.0), 1.0))


def ks_two_sample(sample1: np.ndarray, sample2: np.ndarray) -> KsResult:
    """Two-sample KS statistic and asymptotic p-value.

    The statistic is the sup-distance between the two empirical CDFs,
    computed exactly by merging the sorted samples.
    """
    a = np.sort(np.asarray(sample1, dtype=float).ravel())
    b = np.sort(np.asarray(sample2, dtype=float).ravel())
    a = a[np.isfinite(a)]
    b = b[np.isfinite(b)]
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ReproError(
            f"ks_two_sample needs non-empty samples, got sizes {n1} and {n2}"
        )
    merged = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, merged, side="right") / n1
    cdf2 = np.searchsorted(b, merged, side="right") / n2
    statistic = float(np.max(np.abs(cdf1 - cdf2)))
    effective = math.sqrt(n1 * n2 / (n1 + n2))
    # Small-sample continuity correction (same as scipy's asymptotic mode).
    arg = (effective + 0.12 + 0.11 / effective) * statistic
    pvalue = kolmogorov_sf(arg)
    return KsResult(statistic=statistic, pvalue=pvalue, n1=n1, n2=n2)
