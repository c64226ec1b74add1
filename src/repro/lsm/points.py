"""Points as the LSM engines see them.

A time-series data point is the paper's triple ``(t_g, t_a, v)``
(Definition 1).  The storage engines only ever order by generation time
``t_g`` and account writes per point, so inside the LSM a point is
represented by its generation time plus a stable integer id (its arrival
index), carried as two aligned arrays.  Values are irrelevant to write
amplification and are not materialised; queries report counts, which is
what read amplification and the latency model need.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sort_by_generation"]


def sort_by_generation(tg: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort aligned ``(tg, ids)`` arrays by generation time (stable)."""
    # The method, not ``np.argsort``: the wrapper's dispatch costs more
    # than the sort of a landing-sized array.
    order = tg.argsort(kind="stable")
    return tg[order], ids[order]
