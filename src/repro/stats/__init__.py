"""Statistics toolkit: ECDFs, histograms, ACF, KS tests, a sliding window.

These are the measurement primitives behind the delay analyzer
(:mod:`repro.core.analyzer`) and the experiment reports — everything the
paper attributes to "statistical profile" generation (Section I.D) plus
the robustness diagnostics of Section V-E (autocorrelation, Figure 16a).
"""

from .autocorrelation import AcfResult, autocorrelation
from .ecdf import Ecdf
from .histogram import Histogram, build_histogram
from .ks import KsResult, kolmogorov_sf, ks_two_sample
from .reservoir import SlidingWindowSample
from .smoothing import ExponentialAverage, sliding_mean, sliding_sum
from .summary import SeriesSummary, summarize

__all__ = [
    "AcfResult",
    "autocorrelation",
    "Ecdf",
    "Histogram",
    "build_histogram",
    "KsResult",
    "kolmogorov_sf",
    "ks_two_sample",
    "SlidingWindowSample",
    "ExponentialAverage",
    "sliding_mean",
    "sliding_sum",
    "SeriesSummary",
    "summarize",
]
