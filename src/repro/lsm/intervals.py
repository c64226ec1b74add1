"""Shared interval / zone-map math for sorted and loose table sets.

Every structure that prunes by generation-time range answers the same
two questions about ``[lo, hi]``:

* *scalar overlap* — does one ``[min, max]`` interval intersect the
  query window?  (``SSTable.overlaps``, loose zone-map filters)
* *span overlap* — which entries of a **sorted, non-overlapping**
  sequence of intervals intersect the window?  Because the sequence is
  ordered, the answer is one contiguous ``[start, stop)`` span found by
  two binary searches (``Run.overlap_slice``, the pruning index's
  sorted groups, per-block zone maps).

Before this module each call site re-derived the searchsorted
incantation independently; now :class:`~repro.lsm.sstable.SSTable`,
:class:`~repro.lsm.pruning.TableIndex` and
:class:`~repro.lsm.blocks.BlockStats` all share one implementation, so
the subtle ``side=`` conventions live in one place.
(:class:`~repro.lsm.level.Run` keeps its bounds in plain lists, which it
splices on every landing, and applies the same ``overlap_span``
convention with ``bisect``; the index's sorted groups search those very
lists through the run's view, and an :class:`~repro.lsm.sstable.SSTable`
searches its own column only on the edge of a window that cuts it.)

Conventions (all ranges are closed, ``lo <= t <= hi``):

* ``overlap_span(mins, maxs, lo, hi)`` returns the raw
  ``(start, stop)`` pair; an empty overlap yields ``start >= stop``
  with ``start`` at the insertion position, which keeps ordering
  correct for callers that splice at the result.
* ``covered_span`` returns the sub-span of entries *fully inside* the
  window (``lo <= min and max <= hi``) — contiguous for the same
  ordering reason: ``{min >= lo}`` is a suffix and ``{max <= hi}`` a
  prefix of the sequence.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from ..errors import QueryError

__all__ = [
    "check_window",
    "interval_overlaps",
    "overlap_span",
    "covered_span",
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


def overlap_span(
    mins: np.ndarray, maxs: np.ndarray, lo: float, hi: float
) -> tuple[int, int]:
    """Contiguous ``[start, stop)`` of sorted intervals intersecting
    ``[lo, hi]``.

    ``mins``/``maxs`` describe an ordered, non-overlapping interval
    sequence (boundary ties allowed).  ``start`` is the first entry
    whose max reaches ``lo``; ``stop`` the first whose min exceeds
    ``hi``.  Empty overlaps return ``start >= stop`` (``start`` is the
    insertion position).
    """
    start = int(maxs.searchsorted(lo, side="left"))
    stop = int(mins.searchsorted(hi, side="right"))
    return start, stop


def covered_span(
    mins: np.ndarray, maxs: np.ndarray, lo: float, hi: float
) -> tuple[int, int]:
    """Contiguous ``[start, stop)`` of sorted intervals fully inside
    ``[lo, hi]`` (``lo <= min`` and ``max <= hi``).

    Entries with ``min >= lo`` form a suffix and entries with
    ``max <= hi`` a prefix of the ordered sequence, so their
    intersection is one span.  Returns ``start >= stop`` when nothing
    is fully covered.
    """
    start = int(mins.searchsorted(lo, side="left"))
    stop = int(maxs.searchsorted(hi, side="right"))
    return start, stop


def zone_map_hits(
    mins: np.ndarray, maxs: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Indices of (possibly mutually overlapping) intervals that
    intersect ``[lo, hi]`` — :func:`interval_overlaps` vectorised over
    a whole zone map at once."""
    return np.flatnonzero((mins <= hi) & (maxs >= lo))
