"""Statistics toolkit: histograms, ACF, KS tests, a sliding window.

These are the measurement primitives behind the delay analyzer
(:mod:`repro.core.analyzer`) and the experiment reports — everything the
paper attributes to "statistical profile" generation (Section I.D) plus
the robustness diagnostics of Section V-E (autocorrelation, Figure 16a).
"""

from .autocorrelation import AcfResult, autocorrelation
from .histogram import Histogram, build_histogram
from .ks import KsResult, kolmogorov_sf, ks_two_sample
from .reservoir import SlidingWindowSample
from .smoothing import sliding_mean
from .summary import SeriesSummary, summarize

__all__ = [
    "AcfResult",
    "autocorrelation",
    "Histogram",
    "build_histogram",
    "KsResult",
    "kolmogorov_sf",
    "ks_two_sample",
    "SlidingWindowSample",
    "sliding_mean",
    "SeriesSummary",
    "summarize",
]
