"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import LogNormalDelay, LsmConfig
from repro.workloads import generate_synthetic

# The search profile of the differential suites, run by hand:
# ``pytest tests/test_read_lattice.py --hypothesis-profile deep``.
settings.register_profile("deep", max_examples=500, stateful_step_count=40, deadline=None)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def small_disordered_dataset():
    """20k points, heavy disorder (the Figure 7 workload, scaled down)."""
    return generate_synthetic(
        20_000, dt=50, delay=LogNormalDelay(5.0, 2.0), seed=7
    )


@pytest.fixture(scope="session")
def small_mild_dataset():
    """20k points, mild disorder (the M1 workload, scaled down)."""
    return generate_synthetic(
        20_000, dt=50, delay=LogNormalDelay(4.0, 1.5), seed=7
    )


@pytest.fixture()
def small_config() -> LsmConfig:
    return LsmConfig(memory_budget=64, sstable_size=64)
