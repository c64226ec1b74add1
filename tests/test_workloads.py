"""Tests for workload generation: datasets, catalog, real-world stand-ins."""

import numpy as np
import pytest

from repro import LogNormalDelay, WorkloadError
from repro.workloads import (
    TABLE_II,
    TimeSeriesDataset,
    figure10_segments,
    generate_dynamic,
    generate_s9,
    generate_synthetic,
    generate_vehicle_h,
)
from repro.workloads.dynamic import DelaySegment
from repro.stats import autocorrelation


class TestTimeSeriesDataset:
    def test_delays(self):
        dataset = TimeSeriesDataset(
            name="t",
            tg=np.array([0.0, 10.0, 5.0]),
            ta=np.array([1.0, 12.0, 20.0]),
        )
        assert list(dataset.delays) == [1.0, 2.0, 15.0]

    def test_late_events_differ_from_out_of_order(self):
        # One straggler: a single late event (a point generated before
        # its predecessor in arrival order, Section II's stream-processing
        # notion), but two points are out-of-order relative to the
        # running maximum.
        dataset = TimeSeriesDataset(
            name="t",
            tg=np.array([0.0, 30.0, 10.0, 20.0, 40.0]),
            ta=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        )
        assert np.mean(dataset.tg[1:] < dataset.tg[:-1]) == pytest.approx(1 / 4)
        assert dataset.out_of_order_fraction() == pytest.approx(2 / 5)

    def test_out_of_order_mask(self):
        dataset = TimeSeriesDataset(
            name="t",
            tg=np.array([0.0, 10.0, 5.0, 20.0]),
            ta=np.array([0.0, 1.0, 2.0, 3.0]),
        )
        assert list(dataset.out_of_order_mask()) == [False, False, True, False]
        assert dataset.out_of_order_fraction() == pytest.approx(0.25)

    def test_chunks_cover_everything(self):
        dataset = generate_synthetic(
            100, dt=1, delay=LogNormalDelay(0.0, 0.5), seed=0
        )
        chunks = list(dataset.chunks(33))
        assert [len(c) for c in chunks] == [33, 33, 33, 1]
        rebuilt = np.concatenate([c.tg for c in chunks])
        assert np.array_equal(rebuilt, dataset.tg)

    def test_head(self):
        dataset = generate_synthetic(
            50, dt=1, delay=LogNormalDelay(0.0, 0.5), seed=0
        )
        assert len(dataset.head(10)) == 10

    def test_rejects_unsorted_arrivals(self):
        with pytest.raises(WorkloadError):
            TimeSeriesDataset(
                name="bad",
                tg=np.array([0.0, 1.0]),
                ta=np.array([5.0, 2.0]),
            )

    def test_rejects_misaligned(self):
        with pytest.raises(WorkloadError):
            TimeSeriesDataset(
                name="bad", tg=np.array([0.0]), ta=np.array([0.0, 1.0])
            )

    def test_describe(self):
        dataset = generate_synthetic(
            100, dt=1, delay=LogNormalDelay(0.0, 0.5), seed=0
        )
        assert "out-of-order" in dataset.describe()


class TestSynthetic:
    def test_arrival_sorted(self):
        dataset = generate_synthetic(
            5_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=0
        )
        assert np.all(np.diff(dataset.ta) >= 0)

    def test_generation_times_are_arithmetic(self):
        dataset = generate_synthetic(
            1_000, dt=50, delay=LogNormalDelay(4.0, 1.0), seed=0
        )
        assert np.array_equal(
            np.sort(dataset.tg), 50.0 * np.arange(1_000, dtype=float)
        )

    def test_deterministic_per_seed(self):
        a = generate_synthetic(500, dt=10, delay=LogNormalDelay(4, 1), seed=5)
        b = generate_synthetic(500, dt=10, delay=LogNormalDelay(4, 1), seed=5)
        assert np.array_equal(a.tg, b.tg)
        c = generate_synthetic(500, dt=10, delay=LogNormalDelay(4, 1), seed=6)
        assert not np.array_equal(a.tg, c.tg)

    def test_start_time_offset(self):
        dataset = generate_synthetic(
            10, dt=1, delay=LogNormalDelay(0, 0.1), seed=0, start_time=100.0
        )
        assert dataset.tg.min() >= 100.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            generate_synthetic(0, dt=1, delay=LogNormalDelay(0, 1))
        with pytest.raises(WorkloadError):
            generate_synthetic(10, dt=0, delay=LogNormalDelay(0, 1))


class TestCatalog:
    def test_twelve_datasets(self):
        assert list(TABLE_II) == [f"M{i}" for i in range(1, 13)]

    def test_grid_structure(self):
        assert TABLE_II["M1"].dt == 50 and TABLE_II["M7"].dt == 10
        assert TABLE_II["M1"].mu == 4 and TABLE_II["M4"].mu == 5
        assert [TABLE_II[f"M{i}"].sigma for i in (1, 2, 3)] == [1.5, 1.75, 2.0]

    def test_build_dataset(self):
        dataset = TABLE_II["M5"].build(n_points=1_000, seed=1)
        assert len(dataset) == 1_000
        assert dataset.dt == 50
        assert dataset.metadata["mu"] == 5.0

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            TABLE_II["M13"]

    def test_disorder_gradients(self):
        # The property Section V-B reads off Table II.
        fractions = {
            name: TABLE_II[name].build(20_000, seed=0).out_of_order_fraction()
            for name in ("M1", "M3", "M4", "M7")
        }
        assert fractions["M3"] > fractions["M1"]
        assert fractions["M4"] > fractions["M1"]
        assert fractions["M7"] > fractions["M1"]


class TestDynamic:
    def test_figure10_segments(self):
        segments = figure10_segments(1_000)
        assert len(segments) == 5
        assert all(s.n_points == 1_000 for s in segments)

    def test_generation_continuous_across_segments(self):
        dataset = generate_dynamic(figure10_segments(500), dt=50, seed=0)
        assert len(dataset) == 2_500
        assert np.array_equal(
            np.sort(dataset.tg), 50.0 * np.arange(2_500, dtype=float)
        )
        assert dataset.metadata["boundaries"][-1] == 2_500

    def test_rejects_empty_segments(self):
        with pytest.raises(WorkloadError):
            generate_dynamic([], dt=50)
        with pytest.raises(WorkloadError):
            DelaySegment(0, LogNormalDelay(1, 1))


class TestS9:
    def test_published_statistics(self):
        dataset = generate_s9()
        assert len(dataset) == 30_000
        ooo = 100.0 * dataset.out_of_order_fraction()
        assert ooo == pytest.approx(7.05, abs=1.5)
        intervals = dataset.generation_intervals()
        assert intervals.std() / intervals.mean() > 0.3  # irregular cadence

    def test_skewed_delays(self):
        dataset = generate_s9()
        delays = dataset.delays
        assert delays.mean() > 3 * np.median(delays)

    def test_deterministic(self):
        assert np.array_equal(generate_s9(seed=1).tg, generate_s9(seed=1).tg)

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            generate_s9(n_points=1)
        with pytest.raises(WorkloadError):
            generate_s9(heavy_weight=1.5)


class TestVehicleH:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_vehicle_h(n_points=80_000, seed=6)

    def test_published_statistics(self, dataset):
        ooo = dataset.out_of_order_mask()
        percent = 100.0 * float(ooo.mean())
        assert percent < 0.3  # paper: 0.0375%
        mean_ooo_delay_s = float(dataset.delays[ooo].mean()) / 1000.0
        assert 1.0 < mean_ooo_delay_s < 6.0  # paper: ~2.49 s

    def test_systematic_resend_mode(self, dataset):
        delays = dataset.delays
        heavy = delays[delays > 10_000.0]
        assert heavy.size > 0
        # Batch deliveries cluster at multiples of the re-send period.
        assert float(np.mean(delays < 50_000.0)) > 0.85

    def test_autocorrelated_delays(self, dataset):
        acf = autocorrelation(dataset.delays, max_lag=5)
        assert not acf.is_independent()
        assert acf.acf[1] > 0.3

    def test_batches_preserve_order(self, dataset):
        # Arrival ties (batches) are emitted in generation order.
        assert np.all(np.diff(dataset.ta) >= 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            generate_vehicle_h(n_points=1)
        with pytest.raises(WorkloadError):
            generate_vehicle_h(outage_start_prob=1.5)
        with pytest.raises(WorkloadError):
            generate_vehicle_h(outage_mean_points=0.5)
