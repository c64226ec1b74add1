"""Empirical delay distribution built from observed samples.

The delay analyzer (Section I.D / VI) collects per-point delays online and
"generates the statistical profile of the delays, e.g., the probability
distribution function (PDF) and cumulative distribution function (CDF)".
This class is that profile: an ECDF-backed distribution whose CDF, PDF
(histogram density) and quantiles come straight from the data, so the WA
models can run on real workloads without assuming a parametric family.
"""

from __future__ import annotations

import numpy as np

from ..errors import DistributionError
from .base import DelayDistribution

__all__ = ["EmpiricalDelay"]


class EmpiricalDelay(DelayDistribution):
    """Distribution defined by a sample of observed delays.

    The CDF is the right-continuous empirical CDF; the PDF is a histogram
    density (``bins`` Freedman–Diaconis-ish by default); sampling is a
    bootstrap resample.  Negative observations are clipped to zero with a
    warning-free policy — clock skew can make raw delays slightly
    negative, and the models only consume non-negative delays.
    """

    def __init__(self, samples: np.ndarray, bins: int | None = None) -> None:
        data = np.asarray(samples, dtype=float).ravel()
        data = data[np.isfinite(data)]
        if data.size < 2:
            raise DistributionError(
                f"EmpiricalDelay needs at least 2 finite samples, got {data.size}"
            )
        data = np.clip(data, 0.0, None)
        self._sorted = np.sort(data)
        self._n = data.size
        if bins is None:
            bins = max(8, min(256, int(round(np.sqrt(self._n)))))
        lo = float(self._sorted[0])
        hi = float(self._sorted[-1])
        span = hi - lo
        # Bins narrower than a few float ULPs at the data's scale make
        # np.histogram's linspace edges collide; treat such data as
        # constant (a hypothesis stateful run found this crashing).
        ulp = float(np.spacing(max(abs(lo), abs(hi), 1e-300)))
        if span <= 0.0 or span / bins <= 4.0 * ulp:
            # (Nearly) constant delays: the span is zero or so small that
            # equal bins would have zero float width; use one padded bin.
            center = float(self._sorted[0])
            pad = max(abs(center), 1.0) * 1e-9
            counts, edges = np.histogram(
                self._sorted, bins=1, range=(center - pad, center + pad)
            )
        else:
            counts, edges = np.histogram(self._sorted, bins=bins)
        widths = np.diff(edges)
        with np.errstate(invalid="ignore", divide="ignore"):
            density = counts / (self._n * np.where(widths > 0, widths, 1.0))
        self._hist_density = density
        self._hist_edges = edges
        #: ``log(k / n)`` for ``k = 0 .. n``, built on the first
        #: :meth:`log_cdf` call.
        self._log_levels: np.ndarray | None = None
        self.name = f"empirical(n={self._n})"

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._hist_edges, arr, side="right") - 1
        idx = np.clip(idx, 0, len(self._hist_density) - 1)
        out = self._hist_density[idx]
        inside = (arr >= self._hist_edges[0]) & (arr <= self._hist_edges[-1])
        out = np.where(inside, out, 0.0)
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.searchsorted(self._sorted, arr, side="right") / self._n
        return float(out) if np.isscalar(x) else out

    def log_cdf(self, x):
        """``log F(x)`` read from a table of ``log(k / n)``: the same bits
        as ``log(cdf(x))``, without a division and a ``log`` per point."""
        if self._log_levels is None:
            with np.errstate(divide="ignore"):
                self._log_levels = np.log(np.arange(self._n + 1) / self._n)
        arr = np.asarray(x, dtype=float)
        out = self._log_levels[np.searchsorted(self._sorted, arr, side="right")]
        return float(out) if np.isscalar(x) else out

    def quantile(self, q):
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1]: {q}")
        out = np.quantile(self._sorted, qs)
        return float(out) if np.isscalar(q) else out

    def sample(self, size, rng):
        return rng.choice(self._sorted, size=size, replace=True)

    def mean(self):
        return float(self._sorted.mean())

    def variance(self):
        return float(self._sorted.var())

    def support_upper(self):
        return float(self._sorted[-1])

    def __repr__(self):
        return f"EmpiricalDelay(n={self._n})"
