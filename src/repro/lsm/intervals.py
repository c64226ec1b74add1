"""Shared interval / zone-map math for sorted and loose table sets.

Every structure that prunes by generation-time range answers the same
questions about ``[lo, hi]``:

* *window check* — are the bounds real numbers with ``lo <= hi``?
  (:func:`check_window`, the one entry every read path takes)
* *scalar overlap* — does one ``[min, max]`` interval intersect the
  query window?  (``SSTable.overlaps``)
* *zone-map overlap* — which of a set of possibly mutually overlapping
  intervals intersect it?  (:func:`zone_map_hits`, the pruning index's
  loose groups)

All ranges are closed, ``lo <= t <= hi``.  A **sorted,
non-overlapping** interval sequence answers the third question with
one contiguous ``[start, stop)`` span: the first entry whose max
reaches ``lo`` up to the first whose min exceeds ``hi``.  Its holders
keep their bounds in plain lists and search them with ``bisect``
(``Run.overlap_slice``, the pruning index's sorted groups, which search
those very lists through the run's view); a columnar table's blocks
need no search at all — they sit on a fixed grid, so their span is
arithmetic on row positions (``pruning.edge_slice``).
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from ..errors import QueryError

__all__ = [
    "check_window",
    "interval_overlaps",
    "zone_map_hits",
]


def check_window(lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)`` as Python floats; raises :class:`QueryError` unless
    they are real scalars with ``lo <= hi``.

    A NaN bound fails every comparison, so ``hi < lo`` lets it through
    and the searches below then answer for some window nobody asked
    for; ``+-inf`` bounds are legal (open-ended windows).  Anything that
    is not a real number (``None``, a string — which *does* compare —,
    an array) would otherwise surface as a raw ``TypeError`` from
    wherever it is first compared or hashed.  Every entry point takes
    its bounds from here: one spelling per window (``1``, ``1.0`` and
    ``np.float32(1)`` are the same cache key and the same reported
    bounds; ``True`` and ``np.bool_`` are no bounds at all), and list
    searches compare plain floats — a numpy scalar
    key makes each ``bisect`` step several times dearer.
    """
    if type(lo) is not float or type(hi) is not float:
        for bound in (lo, hi):
            # ``bool`` is an ``int`` to Python, never a bound here — as
            # it is never an integer setting (``repro.config.is_integer``).
            if not isinstance(bound, Real) or isinstance(bound, bool):
                raise QueryError(
                    f"query bounds must be real numbers, got {bound!r} "
                    f"({type(bound).__name__})"
                )
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:
            raise QueryError("query bound beyond the float range") from None
    if not lo <= hi:
        if lo != lo or hi != hi:
            raise QueryError(f"NaN query bound: [{lo}, {hi}]")
        raise QueryError(f"inverted query range: [{lo}, {hi}]")
    return lo, hi


def interval_overlaps(min_tg: float, max_tg: float, lo: float, hi: float) -> bool:
    """True when ``[min_tg, max_tg]`` intersects ``[lo, hi]``."""
    return min_tg <= hi and max_tg >= lo


def zone_map_hits(
    mins: np.ndarray, maxs: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Indices of (possibly mutually overlapping) intervals that
    intersect ``[lo, hi]`` — :func:`interval_overlaps` vectorised over
    a whole zone map at once."""
    return np.flatnonzero((mins <= hi) & (maxs >= lo))
