"""Property-based tests: LSM engine invariants under arbitrary inputs.

Whatever the arrival sequence, every engine must preserve data exactly
once, keep its runs sorted and non-overlapping, and report WA >= 1 with
every point written at least once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ConventionalEngine,
    IoTDBStyleEngine,
    LsmConfig,
    MultiLevelEngine,
    SeparationEngine,
)

# Arrival streams: unique generation times in arbitrary arrival order.
# (Definition 1: t_g "is unique and identifies a specific data point".)
arrival_streams = st.lists(
    st.floats(
        min_value=-1e6,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=300,
    unique=True,
)

small_configs = st.builds(
    LsmConfig,
    memory_budget=st.integers(min_value=2, max_value=32),
    sstable_size=st.integers(min_value=1, max_value=32),
)


def _check_common_invariants(engine, tg_list):
    snapshot = engine.snapshot()
    # No loss, no duplication.
    assert snapshot.total_points == len(tg_list)
    ids = np.concatenate(
        [t.ids for t in snapshot.tables]
        + [np.empty(0, dtype=np.int64)]
    )
    assert np.unique(ids).size == ids.size
    # WA well-formed: every point written at least once, ratio >= 1.
    assert engine.write_amplification >= 1.0 - 1e-12
    counts = engine.stats.write_counts
    assert np.all(counts[: len(tg_list)] >= 1)
    # Tables internally sorted.
    for table in snapshot.tables:
        assert np.all(np.diff(table.tg) >= 0)


@settings(max_examples=60, deadline=None)
@given(tg=arrival_streams, config=small_configs)
def test_conventional_engine_invariants(tg, config):
    engine = ConventionalEngine(config)
    engine.ingest(np.asarray(tg, dtype=np.float64))
    engine.flush_all()
    engine.verify()
    _check_common_invariants(engine, tg)
    # The run is one globally sorted sequence.
    all_tg = np.concatenate(
        [t.tg for t in engine.compaction.run.tables] + [np.empty(0)]
    )
    assert np.all(np.diff(all_tg) > 0)


@settings(max_examples=60, deadline=None)
@given(
    tg=arrival_streams,
    budget=st.integers(min_value=3, max_value=32),
    seq_fraction=st.floats(min_value=0.1, max_value=0.9),
)
def test_separation_engine_invariants(tg, budget, seq_fraction):
    seq_capacity = min(max(int(budget * seq_fraction), 1), budget - 1)
    config = LsmConfig(
        memory_budget=budget, sstable_size=budget, seq_capacity=seq_capacity
    )
    engine = SeparationEngine(config)
    engine.ingest(np.asarray(tg, dtype=np.float64))
    engine.flush_all()
    engine.verify()
    _check_common_invariants(engine, tg)


@settings(max_examples=30, deadline=None)
@given(tg=arrival_streams, config=small_configs)
def test_multilevel_engine_invariants(tg, config):
    engine = MultiLevelEngine(config, size_ratio=2, max_levels=4)
    engine.ingest(np.asarray(tg, dtype=np.float64))
    engine.flush_all()
    engine.verify()
    _check_common_invariants(engine, tg)


@settings(max_examples=30, deadline=None)
@given(
    tg=arrival_streams,
    policy=st.sampled_from(["conventional", "separation"]),
    limit=st.integers(min_value=1, max_value=8),
)
def test_iotdb_engine_invariants(tg, policy, limit):
    engine = IoTDBStyleEngine(
        LsmConfig(memory_budget=8, sstable_size=8),
        policy=policy,
        l1_file_limit=limit,
    )
    engine.ingest(np.asarray(tg, dtype=np.float64))
    engine.flush_all()
    engine.verify()
    _check_common_invariants(engine, tg)


@settings(max_examples=40, deadline=None)
@given(
    tg=arrival_streams,
    chunk=st.integers(min_value=1, max_value=50),
)
def test_chunked_ingest_equivalent_to_bulk(tg, chunk):
    """Slicing the arrival stream differently must not change anything."""
    data = np.asarray(tg, dtype=np.float64)
    config = LsmConfig(memory_budget=8, sstable_size=8)
    bulk = ConventionalEngine(config)
    bulk.ingest(data)
    bulk.flush_all()
    chunked = ConventionalEngine(config)
    for start in range(0, data.size, chunk):
        chunked.ingest(data[start : start + chunk])
    chunked.flush_all()
    assert bulk.stats.disk_writes == chunked.stats.disk_writes
    assert bulk.snapshot().disk_points == chunked.snapshot().disk_points


@settings(max_examples=40, deadline=None)
@given(tg=arrival_streams)
def test_sorted_input_is_write_optimal(tg):
    """Any engine fed pre-sorted data writes each point exactly once."""
    data = np.sort(np.asarray(tg, dtype=np.float64))
    for engine in (
        ConventionalEngine(LsmConfig(memory_budget=4, sstable_size=4)),
        SeparationEngine(LsmConfig(memory_budget=4, sstable_size=4)),
    ):
        engine.ingest(data)
        engine.flush_all()
        assert engine.write_amplification == pytest.approx(1.0)
