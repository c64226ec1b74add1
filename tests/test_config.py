"""Tests for repro.config."""

import numpy as np
import pytest

from repro import ConfigError, DiskModel, LsmConfig, ModelConfig


class TestLsmConfig:
    def test_defaults_match_paper(self):
        config = LsmConfig()
        assert config.memory_budget == 512
        assert config.sstable_size == 512
        assert config.seq_capacity is None

    def test_default_split_is_iotdb_half(self):
        config = LsmConfig(memory_budget=512)
        assert config.effective_seq_capacity == 256
        assert config.nonseq_capacity == 256

    def test_explicit_seq_capacity(self):
        config = LsmConfig(memory_budget=512, seq_capacity=100)
        assert config.effective_seq_capacity == 100
        assert config.nonseq_capacity == 412

    def test_with_seq_capacity_returns_new_config(self):
        config = LsmConfig(memory_budget=512)
        other = config.with_seq_capacity(10)
        assert other.seq_capacity == 10
        assert config.seq_capacity is None

    def test_odd_budget_split(self):
        config = LsmConfig(memory_budget=9)
        assert config.effective_seq_capacity == 4
        assert config.nonseq_capacity == 5

    @pytest.mark.parametrize("budget", [0, 1, -5])
    def test_rejects_tiny_budget(self, budget):
        with pytest.raises(ConfigError):
            LsmConfig(memory_budget=budget)

    def test_rejects_zero_sstable_size(self):
        with pytest.raises(ConfigError):
            LsmConfig(sstable_size=0)

    @pytest.mark.parametrize("seq", [0, 512, 600, -1])
    def test_rejects_out_of_range_seq_capacity(self, seq):
        with pytest.raises(ConfigError):
            LsmConfig(memory_budget=512, seq_capacity=seq)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory_budget", 6.5), ("memory_budget", None), ("sstable_size", 2.5),
            ("sstable_size", True), ("seq_capacity", 3.5), ("seq_capacity", False),
            ("wal_group_records", 2.5),
            ("compaction_work_unit", 128.0), ("compaction_burst", True),
            ("backpressure_throttle", 2048.0), ("backpressure_shed", np.float64(8192)),
        ],
    )
    def test_rejects_sizes_that_are_not_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            LsmConfig(**{field: value})

    def test_numpy_integers_are_sizes(self):
        config = LsmConfig(np.int64(512), np.int32(64), np.uint16(100)).with_stability(
            wal_group_records=np.int64(8), backpressure_shed=np.int64(8192)
        )
        assert (config.nonseq_capacity, config.wal_group_records) == (412, 8)

    def test_frozen(self):
        config = LsmConfig()
        with pytest.raises(AttributeError):
            config.memory_budget = 10


class TestDiskModel:
    def test_read_cost_combines_seeks_and_scan(self):
        disk = DiskModel(seek_ms=10.0, read_point_ms=0.001)
        assert disk.read_cost_ms(files=2, points=1000) == pytest.approx(21.0)

    def test_write_cost(self):
        disk = DiskModel(write_point_ms=0.002)
        assert disk.write_cost_ms(500) == pytest.approx(1.0)

    def test_zero_cost_edges(self):
        disk = DiskModel()
        assert disk.read_cost_ms(0, 0) == 0.0
        assert disk.write_cost_ms(0) == 0.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigError):
            DiskModel(seek_ms=-1.0)


class TestModelConfig:
    def test_defaults_valid(self):
        ModelConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quadrature_nodes": 4},
            {"tail_mass": 0.0},
            {"tail_mass": 0.7},
            {"term_tolerance": 0.0},
            {"dense_terms": 0},
            {"tail_grid_points": 4},
            {"h_grid_points": 10},
            {"log_cdf_floor": 1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)
