"""Subsequent-data-points model: Equation 2 of the paper.

``zeta(n)`` is the expected number of on-disk points that are *subsequent*
to an in-memory buffer of ``n`` points — i.e. generated later than at
least one buffered point — and therefore the expected rewrite volume of
the next compaction (Section III):

    zeta(n) = sum_{i>=0} { 1 - E_x[ prod_{j=1..n} F((i+j)*dt + x) ] }

where ``x ~ f`` is the delay of the ``i``-th on-disk point (counting back
from the disk frontier in arrival order) and arrival gaps are approximated
by the generation interval ``dt``.

Numerical strategy
------------------
* The expectation over ``x`` uses equal-mass quantile-midpoint nodes, so
  any :class:`~repro.distributions.DelayDistribution` (including
  empirical and degenerate ones) integrates correctly.
* ``log F`` values are prefix-summed over ``m = i + j`` so the inner
  product for every ``i`` is one subtraction of prefix rows.
* Terms ``i <= dense_terms`` are summed exactly; the remaining tail is
  integrated on a geometric ``i``-grid using an integrated-log-CDF table
  ``H(t) = int log F(u) du`` (the inner sum over ``j`` becomes
  ``(H(b) - H(a)) / dt`` by the midpoint rule, accurate where the
  summand varies slowly — exactly the tail).
* The sum is truncated at ``I_bound``, the smallest ``i`` where the
  rigorous per-term bound ``n * (1 - F(i*dt))`` falls below the
  tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import DEFAULT_MODEL_CONFIG, ModelConfig
from ..distributions import DelayDistribution
from ..errors import ModelError

__all__ = ["ZetaModel", "zeta"]


class ZetaModel:
    """Evaluator for ``zeta(n)`` under a fixed delay law and interval.

    Instances cache the quadrature nodes, the integrated-log-CDF table
    and previously computed ``zeta`` values, so sweeping many buffer
    sizes (Algorithm 1 does) amortises the setup cost.
    """

    def __init__(
        self,
        dist: DelayDistribution,
        dt: float,
        config: ModelConfig = DEFAULT_MODEL_CONFIG,
    ) -> None:
        if dt <= 0:
            raise ModelError(f"generation interval dt must be positive, got {dt}")
        self.dist = dist
        self.dt = float(dt)
        self.config = config
        levels = (np.arange(config.quadrature_nodes) + 0.5) / config.quadrature_nodes
        levels = np.clip(levels, config.tail_mass, 1.0 - config.tail_mass)
        self._x_nodes = np.asarray(dist.quantile(levels), dtype=np.float64)
        self._cache: dict[int, float] = {}
        self._radius_cache: dict[int, int] = {}
        self._h_grid: np.ndarray | None = None
        self._h_values: np.ndarray | None = None
        self._m_sat: int | None = None

    # -- public API ---------------------------------------------------------------

    def zeta(self, n: float) -> float:
        """Expected subsequent points for a buffer of ``n`` points.

        Fractional ``n`` (phase arrival counts are expectations) is
        rounded to the nearest integer; ``zeta`` varies smoothly on the
        scales where that matters.
        """
        return float(self.zeta_batch((n,))[0])

    def __call__(self, n: float) -> float:
        return self.zeta(n)

    def zeta_batch(self, ns) -> np.ndarray:
        """Evaluate ``zeta`` for many buffer sizes in one shared pass —
        the one evaluator; :meth:`zeta` is a batch of one.

        Uncached sizes that share an ``i_dense`` are streamed together:
        the log-CDF blocks — the dominant cost — are computed once up to
        the largest cap instead of once per size.  The prefix row at any
        ``m`` does not depend on how far the stream runs past it, and
        the tail integrals run in first-seen order so the
        integrated-log-CDF table grows the same way — every returned
        value is bit-identical to what a sequence of :meth:`zeta` calls
        yields (``tests/test_core_zeta.py`` pins the bits), and every
        value is cached for later calls.
        """
        keys: list[int] = []
        for n in ns:
            if not math.isfinite(n):
                raise ModelError(f"n must be finite, got {n}")
            keys.append(int(round(n)) if n >= 1 else 0)
        order: list[int] = []
        seen: set[int] = set()
        for key in keys:
            if key < 1 or key in self._cache or key in seen:
                continue
            seen.add(key)
            order.append(key)
        plans = {
            key: (
                self._term_bound_radius(key),
                min(self.config.dense_terms, self._term_bound_radius(key)),
            )
            for key in order
        }
        groups: dict[int, list[int]] = {}
        for key in order:
            groups.setdefault(plans[key][1], []).append(key)
        dense: dict[int, float] = {}
        for i_dense, group in groups.items():
            dense.update(self._dense_sum_batch(group, i_dense))
        for key in order:
            i_bound, i_dense = plans[key]
            total = dense[key]
            if i_bound > i_dense:
                total += self._tail_integral(key, i_dense, i_bound)
            self._cache[key] = float(total)
        return np.asarray(
            [self._cache[key] if key >= 1 else 0.0 for key in keys],
            dtype=np.float64,
        )

    # -- internals -------------------------------------------------------------------

    def _log_cdf(self, values: np.ndarray) -> np.ndarray:
        out = np.asarray(self.dist.log_cdf(values), dtype=np.float64)
        return np.maximum(out, self.config.log_cdf_floor)

    def _term_bound_radius(self, n: int) -> int:
        """``I_bound``: first ``i`` where ``n * (1 - F(i*dt)) < tol``."""
        cached = self._radius_cache.get(n)
        if cached is not None:
            return cached
        level = 1.0 - min(self.config.term_tolerance / n, 0.5)
        level = min(level, 1.0 - 1e-12)
        horizon = float(self.dist.quantile(level))
        radius = max(int(math.ceil(horizon / self.dt)) + 1, 1)
        self._radius_cache[n] = radius
        return radius

    def _saturation_index(self) -> int:
        """Smallest ``m`` beyond which ``log F(m*dt + x) ~ 0`` for every node.

        Beyond ``Q(1 - 1e-12)`` the survival is below 1e-12, so each
        further factor contributes at most ``-1e-12`` to the log-prefix —
        negligible even summed over millions of terms.  Capping the
        prefix accumulation there makes ``zeta(n)`` cost independent of
        ``n`` for workloads whose disorder horizon is short (where
        phase lengths, hence ``n``, can be astronomically large).
        """
        if self._m_sat is None:
            horizon = float(self.dist.quantile(1.0 - 1e-12))
            self._m_sat = max(int(math.ceil(horizon / self.dt)) + 2, 2)
        return self._m_sat

    def _dense_sum_batch(
        self, group: list[int], i_dense: int
    ) -> dict[int, float]:
        """Dense sums for many ``n`` sharing ``i_dense``, one log-CDF stream.

        Exact sum of terms ``i = 0 .. i_dense`` via streamed prefix
        sums.  The stream runs once to the largest per-``n`` cap; each
        ``n`` harvests its own prefix rows ``C[m]``, ``m`` in
        ``[n, n + i_dense]``, from the shared cumulative blocks.  The
        block partition is fixed (start 1, width 8192), so the prefix
        row at any ``m`` is bit-identical however far the stream
        continues past it — a size evaluated alone and in a group gets
        the same bits — and rows past the saturation cap are filled
        with the prefix at the cap.
        """
        nodes = self._x_nodes
        k = nodes.size
        sat_cap = self._saturation_index() + i_dense
        caps = {n: min(n + i_dense, sat_cap) for n in group}
        cap_max = max(caps.values())
        lo_rows = np.zeros((i_dense + 1, k))
        hi_rows = {n: np.zeros((i_dense + 1, k)) for n in group}
        hi_filled = {n: np.zeros(i_dense + 1, dtype=bool) for n in group}
        sat_row = np.zeros(k)
        running = np.zeros(k)
        block = 8192
        for start in range(1, cap_max + 1, block):
            stop = min(start + block, cap_max + 1)
            ms = np.arange(start, stop, dtype=np.float64)
            log_f = self._log_cdf(ms[:, None] * self.dt + nodes[None, :])
            cumulative = running[None, :] + np.cumsum(log_f, axis=0)
            if start <= i_dense:
                upto = min(i_dense + 1, stop)
                lo_rows[start:upto] = cumulative[: upto - start]
            for n in group:
                first = max(n, start)
                last = min(n + i_dense, caps[n], stop - 1)
                if first <= last:
                    hi_rows[n][first - n : last - n + 1] = cumulative[
                        first - start : last - start + 1
                    ]
                    hi_filled[n][first - n : last - n + 1] = True
            if start <= sat_cap < stop:
                sat_row = cumulative[sat_cap - start]
            running = cumulative[-1]
        results: dict[int, float] = {}
        for n in group:
            rows = hi_rows[n]
            if caps[n] < n + i_dense:
                rows[~hi_filled[n]] = sat_row
            terms = 1.0 - np.exp(rows - lo_rows).mean(axis=1)
            results[n] = float(np.clip(terms, 0.0, None).sum())
        return results

    def _tail_integral(self, n: int, i_dense: int, i_bound: int) -> float:
        """Geometric-grid trapezoid over ``i in (i_dense, i_bound]``."""
        self._ensure_h_table((i_bound + n + 1.0) * self.dt + self._x_nodes[-1])
        lo = i_dense + 0.5
        hi = max(float(i_bound) + 0.5, lo * 1.001)
        grid = np.geomspace(lo, hi, self.config.tail_grid_points)
        a = (grid[:, None] + 0.0) * self.dt + self._x_nodes[None, :]
        b = (grid[:, None] + n) * self.dt + self._x_nodes[None, :]
        diffs = (self._h_interp(b) - self._h_interp(a)) / self.dt
        terms = 1.0 - np.exp(diffs).mean(axis=1)
        terms = np.clip(terms, 0.0, None)
        return float(np.trapezoid(terms, grid))

    def _ensure_h_table(self, u_max: float) -> None:
        if self._h_grid is not None and self._h_grid[-1] >= u_max:
            return
        u_min = min(0.5 * self.dt, max(self._x_nodes[0], 1e-9))
        u_min = max(u_min, 1e-9)
        u_max = max(u_max, u_min * 10.0)
        grid = np.geomspace(u_min, u_max, self.config.h_grid_points)
        log_f = self._log_cdf(grid)
        widths = np.diff(grid)
        increments = 0.5 * (log_f[:-1] + log_f[1:]) * widths
        values = np.concatenate(([0.0], np.cumsum(increments)))
        self._h_grid = grid
        self._h_values = values

    def _h_interp(self, u: np.ndarray) -> np.ndarray:
        # Below the grid, H extrapolates with the (clipped) floor slope;
        # above it, log F ~ 0 so H is flat — np.interp's clamping is right.
        flat = np.interp(u, self._h_grid, self._h_values)
        below = u < self._h_grid[0]
        if np.any(below):
            flat = np.where(
                below,
                self._h_values[0]
                + (u - self._h_grid[0]) * self.config.log_cdf_floor,
                flat,
            )
        return flat


def zeta(
    dist: DelayDistribution,
    dt: float,
    n: float,
    config: ModelConfig = DEFAULT_MODEL_CONFIG,
) -> float:
    """One-shot ``zeta(n)``; build a :class:`ZetaModel` for repeated use."""
    return ZetaModel(dist, dt, config).zeta(n)
