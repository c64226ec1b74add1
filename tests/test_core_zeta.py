"""Tests for the subsequent-points model zeta(n) (Eq. 2)."""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    ExponentialDelay,
    LogNormalDelay,
    ModelConfig,
    UniformDelay,
    ZetaModel,
    zeta,
)
from repro.core.subsequent import _BLOCK_ROWS, _HELD_BLOCKS
from repro.distributions import EmpiricalDelay
from repro.errors import ModelError
from tests.delay_support import DiscreteDelay


def _rows_held(model: ZetaModel) -> int:
    """Cumulative stream rows the model holds in memory; at most
    ``_HELD_BLOCKS * _BLOCK_ROWS``."""
    return sum(block.filled for block in model._held.values())


def _brute_force_zeta(dist, dt, n, points=120_000, seed=0):
    """Direct measurement of the quantity Eq. 2 models.

    Simulate the arrival process, and average — over many disk/buffer
    splits — the number of 'disk' points whose generation time exceeds
    the minimum generation time of the next ``n`` arrivals.
    """
    rng = np.random.default_rng(seed)
    tg = dt * np.arange(points, dtype=np.float64)
    ta = tg + dist.sample(points, rng)
    order = np.lexsort((tg, ta))
    tg_sorted = tg[order]
    counts = []
    positions = np.linspace(points // 2, points - n - 1, 60).astype(int)
    for k in positions:
        disk = tg_sorted[:k]
        buffer_min = tg_sorted[k : k + n].min()
        counts.append(np.count_nonzero(disk > buffer_min))
    return float(np.mean(counts))


class TestZetaBasics:
    def test_zero_buffer(self):
        model = ZetaModel(ExponentialDelay(10.0), 50.0)
        assert model.zeta(0) == 0.0
        assert model.zeta(0.4) == 0.0

    def test_monotone_in_n(self):
        model = ZetaModel(LogNormalDelay(4.0, 1.5), 50.0)
        values = [model.zeta(n) for n in (8, 32, 128, 512)]
        assert values == sorted(values)

    def test_ordered_workload_zero(self):
        # Delays bounded below dt: nothing is ever subsequent.
        assert zeta(UniformDelay(0.0, 30.0), 50.0, 256) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_constant_delay_zero(self):
        assert zeta(DiscreteDelay([500.0], [1.0]), 50.0, 128) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_caching(self):
        model = ZetaModel(LogNormalDelay(4.0, 1.5), 50.0)
        first = model.zeta(100)
        assert model.zeta(100.2) == first  # rounds to the same key

    def test_callable_alias(self):
        model = ZetaModel(ExponentialDelay(100.0), 10.0)
        assert model(64) == model.zeta(64)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            ZetaModel(ExponentialDelay(1.0), -1.0)
        with pytest.raises(ModelError):
            ZetaModel(ExponentialDelay(1.0), 1.0).zeta(float("inf"))

    def test_grows_with_disorder(self):
        dt = 50.0
        mild = zeta(LogNormalDelay(4.0, 1.5), dt, 256)
        severe = zeta(LogNormalDelay(5.0, 2.0), dt, 256)
        assert severe > mild > 0


class TestZetaAgainstSimulation:
    @pytest.mark.parametrize(
        "dist,rel_tol",
        [
            (ExponentialDelay(150.0), 0.25),
            (LogNormalDelay(4.0, 1.5), 0.30),
            (UniformDelay(0.0, 400.0), 0.25),
        ],
        ids=["exponential", "lognormal", "uniform"],
    )
    def test_matches_brute_force(self, dist, rel_tol):
        dt = 50.0
        n = 128
        simulated = _brute_force_zeta(dist, dt, n)
        modelled = zeta(dist, dt, n)
        # Eq. 2 carries the paper's i.i.d./constant-gap approximations;
        # agreement is within tens of percent, biased low (Section III).
        assert modelled == pytest.approx(simulated, rel=rel_tol)

    def test_model_is_lower_bound_ish(self):
        # The known bias direction: model <= simulation (plus noise).
        dist = LogNormalDelay(4.0, 1.75)
        simulated = _brute_force_zeta(dist, 50.0, 128)
        modelled = zeta(dist, 50.0, 128)
        assert modelled <= simulated * 1.1


class TestZetaNumerics:
    def test_insensitive_to_quadrature_resolution(self):
        dist = LogNormalDelay(5.0, 2.0)
        coarse = zeta(dist, 50.0, 256, ModelConfig(quadrature_nodes=48))
        fine = zeta(dist, 50.0, 256, ModelConfig(quadrature_nodes=384))
        assert coarse == pytest.approx(fine, rel=0.01)

    def test_insensitive_to_dense_region_width(self):
        dist = LogNormalDelay(5.0, 2.0)
        narrow = zeta(dist, 50.0, 256, ModelConfig(dense_terms=256))
        wide = zeta(dist, 50.0, 256, ModelConfig(dense_terms=4096))
        assert narrow == pytest.approx(wide, rel=0.02)

    def test_huge_buffers_with_short_disorder_horizon_are_cheap(self):
        """Regression: zeta(n) cost must not scale with n.

        Mild-disorder workloads produce astronomical phase lengths
        (N_arrive ~ n^2/g); the log-CDF saturates after the disorder
        horizon, so the prefix accumulation must cap there instead of
        walking all n terms (this once hung a hypothesis run for an
        hour).
        """
        import time

        start = time.perf_counter()
        value = zeta(ExponentialDelay(5.0), 100.0, 500_000_000)
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(0.0, abs=1e-6)
        assert elapsed < 2.0

    def test_saturation_cap_does_not_change_heavy_tails(self):
        # The cap must be invisible when the disorder horizon exceeds n.
        dist = LogNormalDelay(5.0, 2.0)
        assert zeta(dist, 50.0, 512) == pytest.approx(1585.0, rel=0.01)

    def test_defaults_stay_within_a_fifth_of_a_percent_of_the_tight_reference(self):
        """Ablation A2's cell, gated: ``zeta(512)`` for LN(5, 2) at
        ``dt = 10`` under the default settings against 512 nodes, 8192
        dense terms and a 1e-6 tolerance (``ablation_zeta`` reads a
        0.17% drift).  Pinned bits say the value did not move; this says
        where it may move to."""
        law, dt = LogNormalDelay(5.0, 2.0), 10.0
        tight = ModelConfig(quadrature_nodes=512, dense_terms=8192, term_tolerance=1e-6)
        reference = ZetaModel(law, dt, tight).zeta(512)
        assert ZetaModel(law, dt).zeta(512) == pytest.approx(reference, rel=0.002)

    def test_tail_truncation_controlled_by_tolerance(self):
        dist = LogNormalDelay(5.0, 2.0)
        loose = zeta(dist, 10.0, 256, ModelConfig(term_tolerance=1e-3))
        tight = zeta(dist, 10.0, 256, ModelConfig(term_tolerance=1e-5))
        assert tight >= loose
        assert tight == pytest.approx(loose, rel=0.05)


#: ``float.hex()`` of the scalar ``zeta(n)`` for ``n`` in ``_PINNED_NS``.
#: Exact bits, not a tolerance: ``zeta_batch`` promises results bit-identical
#: to a sequence of ``zeta`` calls, and Algorithm 1's argmin moves if
#: the sums drift.
_PINNED_NS = (1, 64, 512, 4096, 333_333)
_PINNED_ZETA = {
    ("lognormal(5,2)", 1.0): (
        "0x1.c3412b558403fp+9",
        "0x1.9339aa0889a60p+14",
        "0x1.61948dc6c5028p+16",
        "0x1.041a314985165p+18",
        "0x1.a1fb28e435ffcp+20",
    ),
    ("lognormal(5,2)", 50.0): (
        "0x1.1d0ae81e7df0ep+4",
        "0x1.e6d1b4fbb9bddp+8",
        "0x1.8c3e5dce895e0p+10",
        "0x1.dc89b5fccadcdp+11",
        "0x1.cbe815f08b892p+12",
    ),
    ("lognormal(4,1.5)", 1.0): (
        "0x1.da68f6c1d8d15p+6",
        "0x1.156abd6ab40e2p+11",
        "0x1.6f1fb68e8a28ap+12",
        "0x1.825db87f7958cp+13",
        "0x1.45cd664e7082bp+14",
    ),
    ("lognormal(4,1.5)", 50.0): (
        "0x1.138233bc61fa4p+1",
        "0x1.8fbde55df8938p+4",
        "0x1.1c2af19a07bfdp+5",
        "0x1.2a442f4dc046ep+5",
        "0x1.2b0f8ea8637c0p+5",
    ),
    ("exponential(200)", 1.0): (
        "0x1.8ef7a6bb4007ap+6",
        "0x1.68ad3339f307cp+9",
        "0x1.e05f24776cff9p+9",
        "0x1.e85e4cc5f9d29p+9",
        "0x1.e85e6c5fa78cdp+9",
    ),
    ("exponential(200)", 50.0): (
        "0x1.c2a33b2d412dep+0",
        "0x1.3ee299617043fp+2",
        "0x1.3ee2b2b811ef8p+2",
        "0x1.3ee2b6145d0fcp+2",
        "0x1.3ee2b67846674p+2",
    ),
}
_PINNED_LAWS = {
    "lognormal(5,2)": LogNormalDelay(5.0, 2.0),
    "lognormal(4,1.5)": LogNormalDelay(4.0, 1.5),
    "exponential(200)": ExponentialDelay(200.0),
}


@pytest.mark.parametrize("law,dt", sorted(_PINNED_ZETA))
class TestZetaPinnedBits:
    def test_scalar_sequence(self, law, dt):
        model = ZetaModel(_PINNED_LAWS[law], dt)
        got = tuple(model.zeta(n).hex() for n in _PINNED_NS)
        assert got == _PINNED_ZETA[law, dt]

    def test_batch(self, law, dt):
        model = ZetaModel(_PINNED_LAWS[law], dt)
        got = tuple(float(v).hex() for v in model.zeta_batch(_PINNED_NS))
        assert got == _PINNED_ZETA[law, dt]
        # ...and the batch left every value cached for scalar callers.
        assert tuple(model.zeta(n).hex() for n in _PINNED_NS) == got


class _StreamingReference:
    """Eq. 2 the way ``ZetaModel`` evaluated it before it kept its stream.

    Every size streams ``log F`` from row 1 in 8192-row blocks and every
    tail integral builds its own grid and ``H(a)``: the same arithmetic
    in the same order, none of the reuse.  Sizes are evaluated one at a
    time, in call order; the H table is built once, up to the
    saturation horizon.
    """

    def __init__(self, dist, dt, config=ModelConfig()):
        self.dist, self.dt, self.config = dist, float(dt), config
        levels = (np.arange(config.quadrature_nodes) + 0.5) / config.quadrature_nodes
        levels = np.clip(levels, config.tail_mass, 1.0 - config.tail_mass)
        self.nodes = np.asarray(dist.quantile(levels), dtype=np.float64)
        horizon = float(dist.quantile(1.0 - 1e-12))
        self.m_sat = max(int(np.ceil(horizon / self.dt)) + 2, 2)
        self.h_grid = self.h_values = None

    def _log_cdf(self, values):
        out = np.asarray(self.dist.log_cdf(values), dtype=np.float64)
        return np.maximum(out, self.config.log_cdf_floor)

    def zeta(self, n):
        level = min(1.0 - min(self.config.term_tolerance / n, 0.5), 1.0 - 1e-12)
        horizon = float(self.dist.quantile(level))
        i_bound = max(int(np.ceil(horizon / self.dt)) + 1, 1)
        i_dense = min(self.config.dense_terms, i_bound)
        total = self._dense(n, i_dense)
        if i_bound > i_dense:
            total += self._tail(n, i_dense, i_bound)
        return float(total)

    def _dense(self, n, i_dense):
        k = self.nodes.size
        sat_cap = self.m_sat + i_dense
        cap = min(n + i_dense, sat_cap)
        lo_rows = np.zeros((i_dense + 1, k))
        hi_rows = np.zeros((i_dense + 1, k))
        filled = np.zeros(i_dense + 1, dtype=bool)
        sat_row = running = np.zeros(k)
        for start in range(1, cap + 1, 8192):
            stop = min(start + 8192, cap + 1)
            ms = np.arange(start, stop, dtype=np.float64)
            log_f = self._log_cdf(ms[:, None] * self.dt + self.nodes[None, :])
            cumulative = running[None, :] + np.cumsum(log_f, axis=0)
            if start <= i_dense:
                upto = min(i_dense + 1, stop)
                lo_rows[start:upto] = cumulative[: upto - start]
            first, last = max(n, start), min(cap, stop - 1)
            if first <= last:
                hi_rows[first - n : last - n + 1] = cumulative[
                    first - start : last - start + 1
                ]
                filled[first - n : last - n + 1] = True
            if start <= sat_cap < stop:
                sat_row = cumulative[sat_cap - start]
            running = cumulative[-1]
        if cap < n + i_dense:
            hi_rows[~filled] = sat_row
        terms = 1.0 - np.exp(hi_rows - lo_rows).mean(axis=1)
        return float(np.clip(terms, 0.0, None).sum())

    def _tail(self, n, i_dense, i_bound):
        if self.h_grid is None:
            u_max = self.m_sat * self.dt + self.nodes[-1]
            u_min = max(min(0.5 * self.dt, max(self.nodes[0], 1e-9)), 1e-9)
            grid = np.geomspace(u_min, max(u_max, u_min * 10.0), self.config.h_grid_points)
            log_f = self._log_cdf(grid)
            increments = 0.5 * (log_f[:-1] + log_f[1:]) * np.diff(grid)
            self.h_grid = grid
            self.h_values = np.concatenate(([0.0], np.cumsum(increments)))
        lo = i_dense + 0.5
        hi = max(float(i_bound) + 0.5, lo * 1.001)
        grid = np.geomspace(lo, hi, self.config.tail_grid_points)
        a = (grid[:, None] + 0.0) * self.dt + self.nodes[None, :]
        b = (grid[:, None] + n) * self.dt + self.nodes[None, :]
        diffs = (self._h(b) - self._h(a)) / self.dt
        terms = np.clip(1.0 - np.exp(diffs).mean(axis=1), 0.0, None)
        return float(np.trapezoid(terms, grid))

    def _h(self, u):
        flat = np.interp(u, self.h_grid, self.h_values)
        below = u < self.h_grid[0]
        return np.where(
            below,
            self.h_values[0] + (u - self.h_grid[0]) * self.config.log_cdf_floor,
            flat,
        )


def _window_law(sigma=2.2, offset=0.5, seed=1):
    """A 4096-delay empirical profile like the ones a fleet retunes on."""
    rng = np.random.default_rng(seed)
    return EmpiricalDelay(rng.lognormal(np.log(1000.0) + offset, sigma, 4096))


def _hexes(values):
    return [float(v).hex() for v in values]


#: Sizes on both sides of the first two block edges (8192, 16384), the
#: shape of a sweep round: many sizes, a narrow band of rows.
_SWEEP_SIZES = (512, 700, 3000, 7100, 7600, 8192, 8193, 9000, 12_000, 15_500, 16_384, 17_000)


class TestKeptStream:
    """The stream ``ZetaModel`` keeps must be invisible in the values and
    visible in the counts."""

    @pytest.mark.parametrize(
        "law,dt,config",
        [
            # 18 040 dense terms for every size: the rows every term
            # subtracts span three blocks, one size's own rows four, the
            # sweep five — one more than a model holds.
            (
                _window_law(sigma=1.2, offset=0.0),
                5.0,
                ModelConfig(dense_terms=25_000, quadrature_nodes=16),
            ),
            # 2206 to 5670 dense terms: every size is its own group.
            (
                LogNormalDelay(4.0, 1.5),
                50.0,
                ModelConfig(dense_terms=10_000, quadrature_nodes=16),
            ),
        ],
        ids=["empirical", "lognormal"],
    )
    def test_dense_sums_do_not_depend_on_evaluation_order(self, law, dt, config):
        """One at a time, grouped, ascending, descending, shuffled: the
        same bits.  ``dense_terms`` is raised past both laws' truncation
        radius, so no tail integral takes part: this is the stream alone."""
        sizes = list(_SWEEP_SIZES)
        shuffled = list(np.random.default_rng(5).permutation(sizes))
        expected = dict(zip(sizes, _hexes(ZetaModel(law, dt, config).zeta_batch(sizes))))
        one_by_one = ZetaModel(law, dt, config)
        assert {n: one_by_one.zeta(n).hex() for n in sizes} == expected
        for order in (sizes[::-1], shuffled):
            model = ZetaModel(law, dt, config)
            assert dict(zip(order, _hexes(model.zeta_batch(order)))) == expected
            model = ZetaModel(law, dt, config)
            assert {n: model.zeta(n).hex() for n in order} == expected
        halves = ZetaModel(law, dt, config)
        got = _hexes(halves.zeta_batch(shuffled[6:])) + _hexes(halves.zeta_batch(shuffled[:6]))
        assert dict(zip(shuffled[6:] + shuffled[:6], got)) == expected

    @pytest.mark.parametrize(
        "law,dt",
        [(_window_law(), 50.0), (LogNormalDelay(5.0, 2.0), 50.0)],
        ids=["empirical", "lognormal"],
    )
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_any_order_matches_the_streaming_reference(self, law, dt, order):
        """Heavy tails, tail integrals included: whatever the order and
        the grouping, the bits are those of streaming every size from
        row 1, one at a time in the same first-seen order."""
        sizes = {
            "ascending": list(_SWEEP_SIZES),
            "descending": list(_SWEEP_SIZES[::-1]),
            "shuffled": list(np.random.default_rng(9).permutation(_SWEEP_SIZES)),
        }[order]
        reference = _StreamingReference(law, dt)
        expected = [reference.zeta(int(n)).hex() for n in sizes]
        model = ZetaModel(law, dt)
        got = [model.zeta(sizes[0]).hex()]
        got += _hexes(model.zeta_batch(sizes[1:8]))
        got += [model.zeta(n).hex() for n in sizes[8:]]
        assert got == expected

    @pytest.mark.parametrize(
        "law,dt,sizes",
        [
            # Largest delay 90.2 k = 4510 intervals: every tail grid row
            # of the larger sizes has its b past it, of the smaller few.
            (_window_law(sigma=1.2, offset=0.0), 20.0, (200, 700, 1500, 2600, 3100)),
            # Every size past the saturation cap (4512 + 1024 rows): no
            # dense row of its own, and no tail grid row short of it.
            (_window_law(sigma=1.2, offset=0.0), 20.0, (6000, 9000, 17_000, 40_000)),
            # Unbounded support: no row is flat before the cap.
            (ExponentialDelay(200.0), 1.0, (100, 2000, 4000, 6000, 9000, 20_000)),
        ],
        ids=["support-ends-in-tail", "all-past-saturation", "parametric"],
    )
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_terms_past_the_support_match_the_streaming_reference(
        self, law, dt, sizes, order
    ):
        sizes = {
            "ascending": list(sizes),
            "descending": list(sizes[::-1]),
            "shuffled": [int(n) for n in np.random.default_rng(3).permutation(sizes)],
        }[order]
        reference = _StreamingReference(law, dt)
        expected = [reference.zeta(n).hex() for n in sizes]
        model = ZetaModel(law, dt)
        got = [model.zeta(sizes[0]).hex()] + _hexes(model.zeta_batch(sizes[1:]))
        assert got == expected

    def test_a_saturated_size_interpolates_no_h_point_and_exponentiates_no_dense_row(
        self, monkeypatch
    ):
        """Past the cap row and past where H turns flat, every term a
        size reads is one an earlier size computed: no ``H(b)`` point is
        interpolated, no dense row exponentiated, no stream row or tail
        half built — and the bits are the reference's."""
        law, dt = _window_law(sigma=1.2, offset=0.0), 20.0
        sizes = [40_000, 17_000, 9000, 6000]
        reference = _StreamingReference(law, dt)
        expected = [reference.zeta(n).hex() for n in sizes]
        model = ZetaModel(law, dt)
        got = [model.zeta(sizes[0]).hex()]
        interpolated, exponentiated = [], []
        h_interp, terms = ZetaModel._h_interp, ZetaModel._terms

        def counted_h_interp(self, u):
            interpolated.append(u.size)
            return h_interp(self, u)

        def counted_terms(hi_rows, lo_rows):
            exponentiated.append(np.broadcast_shapes(hi_rows.shape, lo_rows.shape)[0])
            return terms(hi_rows, lo_rows)

        monkeypatch.setattr(ZetaModel, "_h_interp", counted_h_interp)
        monkeypatch.setattr(ZetaModel, "_terms", staticmethod(counted_terms))
        rows, tables = model.rows_computed, model.tail_tables_built
        got += _hexes(model.zeta_batch(sizes[1:]))
        assert got == expected
        assert sum(interpolated) == 0
        assert sum(exponentiated) == 0
        assert (model.rows_computed, model.tail_tables_built) == (rows, tables)

    def test_a_model_is_freed_without_the_cycle_collector(self):
        """Nothing a model keeps refers back to it, so its blocks (up to
        25 MB) go when the tune that built it ends, not whenever the
        cyclic collector next runs."""
        model = ZetaModel(_window_law(sigma=1.2, offset=0.0), 20.0)
        model.zeta_batch([40_000, 3100, 700])
        assert model._saturated and model._tail_tables
        gc.disable()
        try:
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_a_sweep_computes_each_row_once_and_a_round_inside_held_rows_none(self):
        """The r_c -> coarse -> refine hand-over of one tune, in rows:
        the count is the highest row any size has read so far."""
        model = ZetaModel(_window_law(), 200.0)
        dense = model.config.dense_terms  # the tail is heavy: every size uses them all
        model.zeta(512)  # r_c
        assert model.rows_computed == 512 + dense
        model.zeta_batch([600.0, 2500.4, 5200.0, 9100.7, 11_800.0, 12_100.0])
        assert model.rows_computed == _rows_held(model) == 12_100 + dense
        model.zeta_batch([7000.0, 8190.0, 11_000.0])  # a refine round, below
        assert model.rows_computed == 12_100 + dense
        model.zeta(12_105.0)  # five rows past the last one held
        assert model.rows_computed == 12_105 + dense

    def test_rows_held_are_bounded_on_a_multi_million_row_saturation_index(self):
        law, dt = LogNormalDelay(5.0, 2.0), 50.0
        assert law.quantile(1.0 - 1e-12) / dt > 3e6
        bound = _HELD_BLOCKS * _BLOCK_ROWS
        model = ZetaModel(law, dt)
        for sizes in ([90_000], [512, 30_000, 61_000], [75_000.0, 1000.0]):
            values = model.zeta_batch(sizes)
            assert np.all(values > 0)
            assert _rows_held(model) <= bound
        # Eleven blocks went by; a block that dropped out is rebuilt from
        # its boundary row alone, not from row 1.
        assert model.rows_computed > 2 * bound
        before = model.rows_computed
        model.zeta(20_000)
        assert model.rows_computed - before <= 2 * _BLOCK_ROWS
        assert _rows_held(model) <= bound

    def test_size_order_moves_no_bit_and_a_model_builds_one_h_table(self, monkeypatch):
        """An empirical law's truncation radius is its largest delay for
        every size here, so all sizes share one ``(i_dense, i_bound)``.
        The H table reaches the saturation horizon when it is built, so
        no size resizes it: ascending, descending or shuffled, in one
        batch or one at a time, every size has the same bits, each model
        builds one H table and one shared tail half serves every size."""
        law, dt = _window_law(), 50.0
        sizes = [10_000, 20_000, 30_000, 40_000]
        built = []
        ensure = ZetaModel._ensure_h_table

        def counted_ensure(self):
            if self._h_grid is None:
                built.append(id(self))
            ensure(self)

        monkeypatch.setattr(ZetaModel, "_ensure_h_table", counted_ensure)
        expected = dict(zip(sizes, _hexes(ZetaModel(law, dt).zeta_batch(sizes))))
        shuffled = [int(n) for n in np.random.default_rng(4).permutation(sizes)]
        for order in (sizes, sizes[::-1], shuffled):
            built.clear()
            batch, one_by_one = ZetaModel(law, dt), ZetaModel(law, dt)
            assert dict(zip(order, _hexes(batch.zeta_batch(order)))) == expected
            assert {n: one_by_one.zeta(n).hex() for n in order} == expected
            assert built == [id(batch), id(one_by_one)]
            assert batch.tail_tables_built == one_by_one.tail_tables_built == 1
