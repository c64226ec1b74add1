"""Sliding-window smoothing for time-ordered measurements.

Figure 10 plots write amplification over time "smoothed with a sliding
window"; :func:`sliding_mean` is that smoothing.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError

__all__ = ["sliding_mean"]


def sliding_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Centered-start moving average; the first ``window-1`` entries use
    the partial prefix so the output has the same length as the input."""
    data = np.asarray(values, dtype=float).ravel()
    if window < 1:
        raise ReproError(f"window must be >= 1, got {window}")
    if data.size == 0:
        return data.copy()
    window = min(window, data.size)
    csum = np.concatenate(([0.0], np.cumsum(data)))
    out = np.empty_like(data)
    # Warm-up region: mean over the available prefix.
    head = min(window - 1, data.size)
    if head:
        out[:head] = csum[1 : head + 1] / np.arange(1, head + 1)
    out[window - 1 :] = (csum[window:] - csum[:-window]) / window
    return out
