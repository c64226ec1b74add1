"""Round-trip tests for dataset persistence."""

import numpy as np
import pytest

from repro import LogNormalDelay, WorkloadError
from repro.workloads import generate_synthetic, load_csv, save_csv


@pytest.fixture()
def dataset():
    return generate_synthetic(
        500, dt=50, delay=LogNormalDelay(4.0, 1.5), seed=2
    )


class TestCsvRoundTrip:
    def test_lossless(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.tg, dataset.tg)
        assert np.array_equal(loaded.ta, dataset.ta)

    def test_name_defaults_to_stem(self, dataset, tmp_path):
        path = tmp_path / "mystream.csv"
        save_csv(dataset, path)
        assert load_csv(path).name == "mystream"

    def test_unsorted_input_resorted(self, tmp_path):
        path = tmp_path / "manual.csv"
        path.write_text(
            "generation_time,arrival_time\n5.0,30.0\n1.0,10.0\n2.0,20.0\n"
        )
        loaded = load_csv(path)
        assert list(loaded.ta) == [10.0, 20.0, 30.0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(WorkloadError):
            load_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("generation_time,arrival_time\n1.0\n")
        with pytest.raises(WorkloadError):
            load_csv(path)

