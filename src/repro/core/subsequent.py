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
  product for every ``i`` is one subtraction of prefix rows.  The
  prefix rows are a *stream* the model keeps (see :class:`ZetaModel`):
  an evaluation computes only the rows no earlier one left behind.
* Terms ``i <= dense_terms`` are summed exactly; the remaining tail is
  integrated on a geometric ``i``-grid using an integrated-log-CDF table
  ``H(t) = int log F(u) du`` (the inner sum over ``j`` becomes
  ``(H(b) - H(a)) / dt`` by the midpoint rule, accurate where the
  summand varies slowly — exactly the tail).  A model builds the table
  once, on its first tail integral, up to the saturation horizon
  ``Q(1 - 1e-12)`` the dense stream caps its rows at: that covers every
  ``H(a)`` a tail reads, and past it ``H`` is flat, so every ``H(b)``
  beyond is ``H[-1]`` — what ``np.interp`` returns there.  No size
  resizes the table, so ``zeta(n)`` does not depend on which sizes were
  asked before it, or in what order.
* The sum is truncated at ``I_bound``, the smallest ``i`` where the
  rigorous per-term bound ``n * (1 - F(i*dt))`` falls below the
  tolerance.
* A model computes only the terms that depend on ``n``.  Past the
  law's support the bits stop moving: a dense term whose prefix row is
  the saturation-cap row bit for bit, and a tail grid row whose every
  ``b`` lies where ``H`` is flat (``np.interp`` returns ``H[-1]``
  exactly there), have the same value for every ``n``.  Each such term
  is computed once, from the cap row or from ``H[-1]``, and reused, so
  a sweep of many sizes pays for the rows that move and the result is
  bit-identical to computing every term.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import DEFAULT_MODEL_CONFIG, ModelConfig
from ..distributions import DelayDistribution
from ..errors import ModelError

__all__ = ["ZetaModel", "zeta"]

#: Rows per block of the log-CDF stream.  Block ``b`` is rows
#: ``b * _BLOCK_ROWS + 1 .. (b + 1) * _BLOCK_ROWS`` and its cumulative
#: sum restarts at its first row, so where the blocks fall is part of
#: every ``zeta`` bit: the partition never moves.
_BLOCK_ROWS = 8192
#: Rows per ``log F`` evaluation: a block is filled in steps whose
#: temporaries stay in cache (1.5-2.5x faster than one 8192-row call), each
#: continuing the block's cumulative sum where the last one stopped.
_STEP_ROWS = 512
#: Blocks whose cumulative rows a model keeps (least recently used
#: dropped first): 32 768 rows, 25 MB at the default 96 nodes.
_HELD_BLOCKS = 4


class _Block:
    """Cumulative rows of one stream block, filled front to back."""

    __slots__ = ("rows", "filled", "tip")

    def __init__(self, nodes: int) -> None:
        # Untouched pages cost nothing: a short block is as cheap as a
        # short array, and growing it later moves no row.
        self.rows = np.empty((_BLOCK_ROWS, nodes))
        self.restart()

    def restart(self) -> None:
        """Forget the rows (the array stays, for the next block)."""
        self.filled = 0
        #: The *in-block* cumulative sum at row ``filled - 1`` (``rows``
        #: has the total of the earlier blocks added).  Before the first
        #: row it is -0.0, the one value ``x + tip == x`` holds for to
        #: the bit, signed zeros included.
        self.tip = np.full(self.rows.shape[1], -0.0)


class _Reused:
    """Terms no buffer size enters, each computed the first time a size
    reads it: ``compute(at)`` returns the terms at the indices ``at``.
    It must not hold the model: a cycle would keep the model's blocks
    alive until the cyclic collector runs."""

    __slots__ = ("compute", "values", "known")

    def __init__(self, size: int, compute) -> None:
        self.compute = compute
        self.values = np.empty(size)
        self.known = np.zeros(size, dtype=bool)

    def take(self, at: np.ndarray) -> np.ndarray:
        missing = at[~self.known[at]]
        if missing.size:
            self.values[missing] = self.compute(missing)
            self.known[missing] = True
        return self.values[at]


class ZetaModel:
    """Evaluator for ``zeta(n)`` under a fixed delay law and interval.

    Instances cache the quadrature nodes, the integrated-log-CDF table
    and previously computed ``zeta`` values, so sweeping many buffer
    sizes (Algorithm 1 does) amortises the setup cost.

    They also keep the stream every dense sum reads — the cumulative
    rows ``C[m] = sum_{m' <= m} log F(m'*dt + x_k)`` — so that a later
    evaluation pays only for rows no earlier one computed:

    * the boundary row of every block the stream has passed (one row
      per ``_BLOCK_ROWS``), from which any block can be rebuilt without
      its predecessors;
    * the cumulative rows of the ``_HELD_BLOCKS`` most recently used
      blocks — never more, whatever the law: ``LogNormalDelay(5, 2)`` at
      ``dt = 50`` saturates after 3.8 M rows, 2.9 GB if kept whole;
    * the first ``i_dense + 1 <= dense_terms + 1`` rows, which every
      term subtracts.

    A partly filled block grows by continuing its in-block cumulative
    sum from its last row, so the additions associate exactly as in one
    uninterrupted pass.  :attr:`rows_computed` and
    :attr:`tail_tables_built` count the work actually done.

    Terms that no longer depend on the size — past the support, see the
    module docstring — are kept too: per ``i_dense``, the terms of the
    saturation-cap row, once a size has read that row; per shared tail
    half, the terms of the grid rows where ``H(b)`` is flat.  Keeping
    them computes no stream row and no H table: a model builds one.
    """

    def __init__(
        self,
        dist: DelayDistribution,
        dt: float,
        config: ModelConfig = DEFAULT_MODEL_CONFIG,
    ) -> None:
        if not 0 < dt < math.inf:
            raise ModelError(
                f"generation interval dt must be positive and finite, got {dt}"
            )
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
        #: ``_boundaries[b]`` is the cumulative row just before block
        #: ``b``; its length is one more than the blocks passed.
        self._boundaries = [np.zeros(self._x_nodes.size)]
        #: Held blocks by index, least recently used first.
        self._held: dict[int, _Block] = {}
        #: Cumulative rows ``0 .. i_dense`` (row 0 is all zeros).
        self._head = np.zeros((1, self._x_nodes.size))
        #: ``i_dense -> (bits of C[sat_cap], its terms)``: a dense term
        #: whose row is the cap row bit for bit, whatever the size.
        self._saturated: dict[int, tuple[np.ndarray, _Reused]] = {}
        #: First H-grid point from which every ``H`` value is the last
        #: one: ``np.interp`` returns exactly ``H[-1]`` at and past it.
        self._h_flat_from = math.inf
        #: ``(i_dense, i_bound) -> (grid, H(a), terms)``: the half of a
        #: tail integral no buffer size enters; ``terms`` are the grid
        #: rows' terms where ``H(b)`` is flat.
        self._tail_tables: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray, _Reused]
        ] = {}
        #: Log-CDF rows (one ``log F`` per quadrature node) computed so far.
        self.rows_computed = 0
        #: Shared tail halves (``grid``, ``H(a)``) built so far.
        self.tail_tables_built = 0

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

        Uncached sizes harvest their dense sums from the kept stream in
        ascending order, so each missing row is computed once however
        many sizes read it.  The prefix row at any ``m`` does not depend
        on how far the stream runs past it or in how many steps it got
        there, and every tail integral reads the one integrated-log-CDF
        table — every returned value is bit-identical to what
        :meth:`zeta` calls yield in any order (``tests/test_core_zeta.py``
        pins the bits), and every value is cached for later calls.
        """
        keys: list[int] = []
        for n in ns:
            if not math.isfinite(n):
                raise ModelError(f"n must be finite, got {n}")
            keys.append(int(round(n)) if n >= 1 else 0)
        order = list(
            dict.fromkeys(k for k in keys if k >= 1 and k not in self._cache)
        )
        self._bound_radii(order)
        plans = {
            key: (
                self._radius_cache[key],
                min(self.config.dense_terms, self._radius_cache[key]),
            )
            for key in order
        }
        groups: dict[int, list[int]] = {}
        for key in order:
            groups.setdefault(plans[key][1], []).append(key)
        dense: dict[int, float] = {}
        for i_dense, group in groups.items():
            dense.update(self._dense_sums(group, i_dense))
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

    def _bound_radii(self, sizes: list[int]) -> None:
        """``I_bound`` of every size: first ``i`` where
        ``n * (1 - F(i*dt)) < tol`` — one quantile call for all of them."""
        fresh = [n for n in sizes if n not in self._radius_cache]
        if not fresh:
            return
        levels = [
            min(1.0 - min(self.config.term_tolerance / n, 0.5), 1.0 - 1e-12)
            for n in fresh
        ]
        horizons = np.asarray(self.dist.quantile(np.asarray(levels)), dtype=float)
        for n, horizon in zip(fresh, horizons.tolist()):
            self._radius_cache[n] = max(int(math.ceil(horizon / self.dt)) + 1, 1)

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

    def _block(self, index: int, upto: int) -> np.ndarray:
        """Rows of block ``index``, at least its first ``upto`` filled.

        The array is the model's own: read it before the next call,
        which may hand it to another block.
        """
        for passed in range(len(self._boundaries) - 1, index):
            self._block(passed, _BLOCK_ROWS)
        block = self._held.pop(index, None)
        if block is None:
            if len(self._held) >= _HELD_BLOCKS:
                # The least recently used block gives up its array.
                block = self._held.pop(next(iter(self._held)))
                block.restart()
            else:
                block = _Block(self._x_nodes.size)
        self._held[index] = block
        first = index * _BLOCK_ROWS + 1
        while block.filled < upto:
            lo = block.filled
            hi = min(lo + _STEP_ROWS, upto)
            ms = np.arange(first + lo, first + hi, dtype=np.float64)
            log_f = self._log_cdf(ms[:, None] * self.dt + self._x_nodes[None, :])
            # Seeded with the in-block sum so far: row r is
            # (tip + l_lo) + ... + l_r, the order one pass adds in.
            within = np.cumsum(np.concatenate((block.tip[None, :], log_f)), axis=0)[1:]
            np.add(self._boundaries[index][None, :], within, out=block.rows[lo:hi])
            block.tip = within[-1].copy()
            block.filled = hi
            self.rows_computed += hi - lo
        if upto == _BLOCK_ROWS and len(self._boundaries) == index + 1:
            self._boundaries.append(block.rows[-1].copy())
        return block.rows

    def _stream(self, first: int, last: int):
        """Cumulative rows ``first..last`` as ``(row, slice)`` per block.

        Each slice is a view (see :meth:`_block`): consume it before
        taking the next.  Nothing when ``last < first``.
        """
        if last < first:
            return
        for index in range((first - 1) // _BLOCK_ROWS, (last - 1) // _BLOCK_ROWS + 1):
            start = index * _BLOCK_ROWS + 1
            lo = max(first, start) - start
            hi = min(last, start + _BLOCK_ROWS - 1) - start + 1
            yield start + lo, self._block(index, hi)[lo:hi]

    def _head_rows(self, i_dense: int) -> np.ndarray:
        """Cumulative rows ``0 .. i_dense`` (what every term subtracts)."""
        have = self._head.shape[0]
        if have <= i_dense:
            head = np.empty((i_dense + 1, self._x_nodes.size))
            head[:have] = self._head
            for row, rows in self._stream(have, i_dense):
                head[row : row + rows.shape[0]] = rows
            self._head = head
        return self._head[: i_dense + 1]

    def _dense_sums(self, group: list[int], i_dense: int) -> dict[int, float]:
        """Dense sums for many ``n`` sharing ``i_dense``, off the kept stream.

        Exact sum of terms ``i = 0 .. i_dense``: term ``i`` of size
        ``n`` is ``1 - mean_k exp(C[n + i] - C[i])``.  Each ``n`` reads
        its rows ``C[n .. n + i_dense]`` as slices of the held blocks,
        smallest ``n`` first so a block is visited once.  The block
        partition is fixed, so the prefix row at any ``m`` is the same
        bits whoever computed it, and rows past the saturation cap read
        the prefix at the cap.  A row that is the cap row bit for bit
        takes term ``i`` from :meth:`_saturated_terms`, computed once
        for every size; the cap row is known once a size has read it.
        """
        lo_rows = self._head_rows(i_dense)
        sat_cap = self._saturation_index() + i_dense
        results: dict[int, float] = {}
        for n in sorted(group):
            terms = np.empty(i_dense + 1)
            last = min(n + i_dense, sat_cap)
            for row, rows in self._stream(n, last):
                at = row - n
                if row + rows.shape[0] - 1 == sat_cap:
                    self._saturated_terms(i_dense, rows[-1])
                terms[at : at + rows.shape[0]] = self._row_terms(
                    rows, lo_rows, at, self._saturated.get(i_dense)
                )
            if last < n + i_dense:
                at = max(last + 1 - n, 0)
                ((_, sat_row),) = self._stream(sat_cap, sat_cap)
                saturated = self._saturated_terms(i_dense, sat_row[0])
                terms[at:] = saturated.take(np.arange(at, i_dense + 1))
            results[n] = float(np.clip(terms, 0.0, None).sum())
        return results

    def _saturated_terms(self, i_dense: int, sat_row: np.ndarray) -> _Reused:
        """Terms ``1 - mean_k exp(C[sat_cap] - C[i])``, ``i = 0 .. i_dense``."""
        saturated = self._saturated.get(i_dense)
        if saturated is None:
            hi_row = sat_row[None, :].copy()
            lo_rows = self._head_rows(i_dense)
            saturated = self._saturated[i_dense] = (
                hi_row.view(np.int64),
                _Reused(i_dense + 1, lambda at: ZetaModel._terms(hi_row, lo_rows[at])),
            )
        return saturated[1]

    def _row_terms(self, rows, lo_rows, at, saturated) -> np.ndarray:
        """Terms of the rows ``rows`` = ``C[n + at ..]``."""
        lo_rows = lo_rows[at : at + rows.shape[0]]
        if saturated is not None:
            bits, reused = saturated
            flat = (rows.view(np.int64) == bits).all(axis=1)
            if flat.any():
                out = np.empty(rows.shape[0])
                out[flat] = reused.take(at + np.flatnonzero(flat))
                moving = ~flat
                out[moving] = self._terms(rows[moving], lo_rows[moving])
                return out
        return self._terms(rows, lo_rows)

    @staticmethod
    def _terms(hi_rows: np.ndarray, lo_rows: np.ndarray) -> np.ndarray:
        products = hi_rows - lo_rows
        np.exp(products, out=products)
        return 1.0 - products.mean(axis=1)

    def _tail_integral(self, n: int, i_dense: int, i_bound: int) -> float:
        """Geometric-grid trapezoid over ``i in (i_dense, i_bound]``.

        The grid and ``H(a)`` do not depend on ``n``: sizes with the
        same ``(i_dense, i_bound)`` share them.  Nor does the term of a
        grid row whose every ``b`` is at or past where ``H`` turns flat
        — ``H(b)`` is ``H[-1]`` there — so only the rows before it
        interpolate, and the rest share their terms too.
        """
        self._ensure_h_table()
        shared = self._tail_tables.get((i_dense, i_bound))
        if shared is None:
            lo = i_dense + 0.5
            hi = max(float(i_bound) + 0.5, lo * 1.001)
            grid = np.geomspace(lo, hi, self.config.tail_grid_points)
            a = grid[:, None] * self.dt + self._x_nodes[None, :]
            h_a = self._h_interp(a)
            h_last, dt = self._h_values[-1], self.dt
            flat = _Reused(
                grid.size, lambda at: 1.0 - np.exp((h_last - h_a[at]) / dt).mean(axis=1)
            )
            shared = self._tail_tables[i_dense, i_bound] = grid, h_a, flat
            self.tail_tables_built += 1
        grid, h_a, flat = shared
        # Row r's smallest b, the same bits as b[r].min() below.
        b_lo = (grid + n) * self.dt + self._x_nodes.min()
        moving = int(np.searchsorted(b_lo, self._h_flat_from))
        terms = np.empty(grid.size)
        if moving:
            b = (grid[:moving, None] + n) * self.dt + self._x_nodes[None, :]
            diffs = (self._h_interp(b) - h_a[:moving]) / self.dt
            terms[:moving] = 1.0 - np.exp(diffs).mean(axis=1)
        terms[moving:] = flat.take(np.arange(moving, grid.size))
        terms = np.clip(terms, 0.0, None)
        return float(np.trapezoid(terms, grid))

    def _ensure_h_table(self) -> None:
        """Build ``H`` once, up to the saturation horizon (module docstring)."""
        if self._h_grid is not None:
            return
        u_min = min(0.5 * self.dt, max(self._x_nodes[0], 1e-9))
        u_min = max(u_min, 1e-9)
        u_max = self._saturation_index() * self.dt + self._x_nodes[-1]
        u_max = max(u_max, u_min * 10.0)
        grid = np.geomspace(u_min, u_max, self.config.h_grid_points)
        log_f = self._log_cdf(grid)
        widths = np.diff(grid)
        increments = 0.5 * (log_f[:-1] + log_f[1:]) * widths
        values = np.concatenate(([0.0], np.cumsum(increments)))
        self._h_grid = grid
        self._h_values = values
        sloped = np.flatnonzero(values != values[-1])
        self._h_flat_from = grid[sloped[-1] + 1 if sloped.size else 0]

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
