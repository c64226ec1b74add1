"""Arrival-ratio model: Equation 1 of the paper.

Section II quantifies disorder intensity through the expected split of an
arrival window into in-order and out-of-order points.  The ``i``-th
arrival after a flush is in-order with probability ``F(iota_i)``, where
``iota_i = t_a(i) - LAST(R).t_g`` is the minimum delay that would make it
out-of-order.  With points generated (and, in steady state, arriving) at
one per ``dt``, we use the paper's approximation ``iota_i ~= i * dt``.

:class:`InOrderCurve` holds the expected number of in-order points among
``alpha`` arrivals, ``X(alpha) = sum_{i=1..alpha} F(i * dt)``, and
inverts it: :meth:`~InOrderCurve.g` is the paper's ``g``, the expected
number of out-of-order arrivals accompanying ``n_seq`` in-order
arrivals, i.e. ``g(n_seq) = alpha - n_seq`` where ``alpha`` solves
``X(alpha) = n_seq`` (Eq. 1 inverted, since a phase is driven by
``C_seq`` filling with exactly ``n_seq`` in-order points).
"""

from __future__ import annotations

import math

import numpy as np

from ..distributions import DelayDistribution
from ..errors import ModelError

__all__ = ["InOrderCurve"]

#: Hard cap on the number of arrivals explored while inverting Eq. 1;
#: prevents runaway loops for distributions whose CDF never leaves 0.
_MAX_ARRIVALS = 200_000_000
#: Entries an inversion starts the table with; it doubles from there.
#: A 512-point budget is usually inverted inside the first few thousand
#: arrivals, and every entry is a CDF evaluation.
_FIRST = 4096
#: Entries that are one running sum (see :meth:`InOrderCurve._grow`):
#: the size the table's first step had when it was taken in one.
_HEAD = 131_072


class InOrderCurve:
    """Cumulative expected in-order count ``X(alpha) = sum F(i*dt)``.

    Lazily extends an internal prefix-sum table so repeated queries (the
    tuner sweeps many ``n_seq`` values) share the CDF evaluations.
    """

    def __init__(self, dist: DelayDistribution, dt: float) -> None:
        if not 0 < dt < math.inf:
            raise ModelError(
                f"generation interval dt must be positive and finite, got {dt}"
            )
        self.dist = dist
        self.dt = float(dt)
        self._cumulative = np.empty(0, dtype=np.float64)
        # Inversion memo: the tuner and the WA formulas ask for the same
        # n_seq values repeatedly (e.g. g(n_seq) inside every candidate's
        # objective), and each miss costs a searchsorted over the table.
        self._alpha_cache: dict[float, float] = {}

    def _grow(self, size: int) -> None:
        """Extend the table to ``size`` entries.

        The first ``_HEAD`` entries are one running sum, however many
        steps computed it: a step there continues from the last entry
        (a seeded ``np.cumsum``).  Past ``_HEAD`` a step sums its own
        probabilities and adds the last entry, so there the step
        boundaries are part of the bits, and :meth:`arrivals_batch`
        keeps them on the doubling schedule they have always been on.
        """
        current = self._cumulative.size
        if current < _HEAD < size:
            self._grow(_HEAD)
            current = _HEAD
        i = np.arange(current + 1, size + 1, dtype=np.float64)
        probs = np.asarray(self.dist.cdf(i * self.dt), dtype=np.float64)
        if current == 0:
            grown = np.cumsum(probs)
        elif current < _HEAD:
            grown = np.cumsum(np.concatenate((self._cumulative[-1:], probs)))[1:]
        else:
            grown = self._cumulative[-1] + np.cumsum(probs)
        self._cumulative = np.concatenate((self._cumulative, grown))

    def arrivals_for_in_order(self, n_seq: float) -> float:
        """Smallest (fractional) ``alpha`` with ``X(alpha) >= n_seq``.

        Inverts Eq. 1.  Fractional ``alpha`` interpolates linearly between
        consecutive arrivals so that downstream formulas vary smoothly
        with ``n_seq``.
        """
        cached = self._alpha_cache.get(float(n_seq))
        if cached is not None:
            return cached
        return float(self.arrivals_batch((n_seq,))[0])

    def arrivals_batch(self, n_seqs) -> np.ndarray:
        """:meth:`arrivals_for_in_order` for many ``n_seq``, one table
        search for all that are not memoised — the one inversion; the
        scalar method is a batch of one (the tuner asks a whole sweep
        round at once).
        """
        targets = [float(n_seq) for n_seq in n_seqs]
        for target in targets:
            if not target >= 0:
                raise ModelError(f"n_seq must be non-negative, got {target}")
        fresh = sorted(
            {t for t in targets if t > 0 and t not in self._alpha_cache}
        )
        if fresh:
            size = self._cumulative.size
            while size == 0 or self._cumulative[-1] < fresh[-1]:
                if size >= _MAX_ARRIVALS:
                    raise ModelError(
                        f"could not accumulate {fresh[-1]:g} expected in-order "
                        f"points within {_MAX_ARRIVALS} arrivals; the delay CDF "
                        f"({self.dist.name}) stays ~0 on this time scale"
                    )
                size = min(max(size * 2, _FIRST), _MAX_ARRIVALS)
                self._grow(size)
            wanted = np.asarray(fresh)
            idx = np.searchsorted(self._cumulative, wanted, side="left")
            upper = self._cumulative[idx]
            lower = np.where(idx > 0, self._cumulative[idx - 1], 0.0)
            step = upper - lower
            with np.errstate(divide="ignore", invalid="ignore"):
                fraction = np.where(step > 0, (wanted - lower) / step, 1.0)
            self._alpha_cache.update(zip(fresh, (idx + fraction).tolist()))
        return np.asarray(
            [self._alpha_cache[t] if t > 0 else 0.0 for t in targets],
            dtype=np.float64,
        )

    def g(self, n_seq: float) -> float:
        """Eq. 1's ``g``: expected out-of-order arrivals per ``n_seq``
        in-order arrivals (``alpha - n_seq``)."""
        alpha = self.arrivals_for_in_order(n_seq)
        return max(alpha - float(n_seq), 0.0)
