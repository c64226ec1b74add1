"""Tests for the subsequent-points model zeta(n) (Eq. 2)."""

import numpy as np
import pytest

from repro import (
    ConstantDelay,
    ExponentialDelay,
    LogNormalDelay,
    ModelConfig,
    UniformDelay,
    ZetaModel,
    zeta,
)
from repro.errors import ModelError


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
        assert zeta(ConstantDelay(500.0), 50.0, 128) == pytest.approx(
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

    def test_tail_truncation_controlled_by_tolerance(self):
        dist = LogNormalDelay(5.0, 2.0)
        loose = zeta(dist, 10.0, 256, ModelConfig(term_tolerance=1e-3))
        tight = zeta(dist, 10.0, 256, ModelConfig(term_tolerance=1e-5))
        assert tight >= loose
        assert tight == pytest.approx(loose, rel=0.05)


#: ``float.hex()`` of the scalar ``zeta(n)`` for ``n`` in ``_PINNED_NS``,
#: recorded before the scalar and batch evaluators were merged.  Exact
#: bits, not a tolerance: ``zeta_batch`` promises results bit-identical
#: to a sequence of ``zeta`` calls, and Algorithm 1's argmin moves if
#: the sums drift.
_PINNED_NS = (1, 64, 512, 4096, 333_333)
_PINNED_ZETA = {
    ("lognormal(5,2)", 1.0): (
        "0x1.c3412afef7842p+9",
        "0x1.9339d927f9915p+14",
        "0x1.61947a8efb0afp+16",
        "0x1.041a19482c5d6p+18",
        "0x1.a1fb27ecb39d9p+20",
    ),
    ("lognormal(5,2)", 50.0): (
        "0x1.1d0aeceb49afdp+4",
        "0x1.e6d1aae69816ep+8",
        "0x1.8c3e5044019ecp+10",
        "0x1.dc89a1166b1d1p+11",
        "0x1.cbe80805482bcp+12",
    ),
    ("lognormal(4,1.5)", 1.0): (
        "0x1.da68d14c5aa5cp+6",
        "0x1.156ab6699484ap+11",
        "0x1.6f1faa7095235p+12",
        "0x1.825dac90662a0p+13",
        "0x1.45cd60a675530p+14",
    ),
    ("lognormal(4,1.5)", 50.0): (
        "0x1.138233bc61fa4p+1",
        "0x1.8fbde552c9de5p+4",
        "0x1.1c2af150d9aa1p+5",
        "0x1.2a442ede2d076p+5",
        "0x1.2b0fcb98e4637p+5",
    ),
    ("exponential(200)", 1.0): (
        "0x1.8ef7a70991d80p+6",
        "0x1.68ad323cad767p+9",
        "0x1.e05f224c54a47p+9",
        "0x1.e85e4ed6a6666p+9",
        "0x1.e85e8eff95e73p+9",
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
