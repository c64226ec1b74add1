"""Tests for the WA models r_c (Eq. 3) and r_s (Eqs. 4/5)."""

import math

import pytest

from repro import (
    LogNormalDelay,
    UniformDelay,
    ZetaModel,
    predict_wa_conventional,
    separation_breakdown,
)
from repro.core import InOrderCurve
from repro.core.wa_conventional import GRANULARITY_KAPPA
from repro.errors import ModelError
from tests.delay_support import DiscreteDelay


class TestConventionalModel:
    def test_at_least_one(self):
        assert predict_wa_conventional(LogNormalDelay(4.0, 1.5), 50.0, 512) >= 1.0

    def test_ordered_workload_is_one(self):
        assert predict_wa_conventional(
            UniformDelay(0.0, 30.0), 50.0, 512
        ) == pytest.approx(1.0)

    def test_equals_zeta_over_n_plus_one(self):
        dist = LogNormalDelay(5.0, 2.0)
        model = ZetaModel(dist, 50.0)
        expected = model.zeta(512) / 512 + 1.0
        assert predict_wa_conventional(
            dist, 50.0, 512, zeta_model=model
        ) == pytest.approx(expected)

    def test_granularity_correction_adds_padding(self):
        dist = LogNormalDelay(5.0, 2.0)
        base = predict_wa_conventional(dist, 50.0, 512)
        corrected = predict_wa_conventional(dist, 50.0, 512, sstable_size=512)
        assert corrected == pytest.approx(base + GRANULARITY_KAPPA)

    def test_no_correction_without_rewrites(self):
        # Ordered workload: zeta ~ 0, correction must not apply.
        dist = DiscreteDelay([1.0], [1.0])
        corrected = predict_wa_conventional(dist, 50.0, 512, sstable_size=512)
        assert corrected == pytest.approx(1.0)

    def test_rejects_bad_budget(self):
        with pytest.raises(ModelError):
            predict_wa_conventional(LogNormalDelay(4, 1.5), 50.0, 0)


class TestSeparationModel:
    def test_breakdown_identities(self):
        dist = LogNormalDelay(5.0, 2.0)
        breakdown = separation_breakdown(dist, 50.0, 512, 256)
        assert breakdown.n_seq == 256
        assert breakdown.n_nonseq == 256
        assert breakdown.g > 0
        # Eq. 4.
        expected_arrive = 256 * 256 / breakdown.g + 256
        assert breakdown.n_arrive == pytest.approx(expected_arrive)
        # N_cur = N_arrive - n_nonseq - n'_seq.
        assert breakdown.n_cur == pytest.approx(
            breakdown.n_arrive - breakdown.n_nonseq - breakdown.n_seq_last
        )
        # r_s = (N_cur + N_bef + N_arrive) / N_arrive, the consistent form.
        assert breakdown.wa == pytest.approx(
            (breakdown.n_cur + breakdown.n_bef + breakdown.n_arrive)
            / breakdown.n_arrive
        )
        # Printed Eq. 5 final line.
        assert breakdown.wa_eq5 == pytest.approx(
            breakdown.n_bef / breakdown.n_arrive
            + 1.0
            + (breakdown.n_nonseq + breakdown.n_seq_last) / breakdown.n_arrive
        )

    def test_last_flush_size_bounds(self):
        dist = LogNormalDelay(5.0, 2.0)
        for n_seq in (32, 128, 256, 400):
            breakdown = separation_breakdown(dist, 50.0, 512, n_seq)
            assert 0.0 < breakdown.n_seq_last <= n_seq + 1e-9

    def test_ordered_workload_tends_to_one(self):
        # No out-of-order data: phases never end, WA -> 1.
        breakdown = separation_breakdown(UniformDelay(0.0, 30.0), 50.0, 512, 256)
        assert breakdown.wa == 1.0
        assert math.isinf(breakdown.n_arrive)

    def test_wa_at_least_one(self):
        dist = LogNormalDelay(4.0, 1.75)
        for n_seq in (10, 100, 500):
            assert separation_breakdown(dist, 50.0, 512, n_seq).wa >= 1.0

    def test_u_shape_in_n_seq(self):
        dist = LogNormalDelay(5.0, 2.0)
        model = ZetaModel(dist, 50.0)
        curve = InOrderCurve(dist, 50.0)
        values = [
            separation_breakdown(
                dist, 50.0, 512, n_seq, zeta_model=model, in_order_curve=curve
            ).wa
            for n_seq in (16, 256, 500)
        ]
        assert values[1] < values[0]
        assert values[1] < values[2]

    @pytest.mark.parametrize("n_seq", [0, 512, 600])
    def test_rejects_out_of_range_n_seq(self, n_seq):
        with pytest.raises(ModelError):
            separation_breakdown(LogNormalDelay(4, 1.5), 50.0, 512, n_seq)

    def test_shared_models_give_identical_results(self):
        dist = LogNormalDelay(5.0, 2.0)
        shared_zeta = ZetaModel(dist, 50.0)
        shared_curve = InOrderCurve(dist, 50.0)
        with_shared = separation_breakdown(
            dist, 50.0, 512, 200,
            zeta_model=shared_zeta, in_order_curve=shared_curve,
        ).wa
        without = separation_breakdown(dist, 50.0, 512, 200).wa
        assert with_shared == pytest.approx(without)
