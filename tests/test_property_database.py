"""Stateful property test: the multi-series database under random usage.

Hypothesis drives random interleavings of series creation, writes (in
arbitrary disorder), retunes and flushes; after every step the database
must preserve exact point accounting, WA well-formedness and report
consistency.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import TimeSeriesDatabase


class DatabaseMachine(RuleBasedStateMachine):
    """Random usage of TimeSeriesDatabase with model-based checks."""

    @initialize()
    def setup(self):
        self.db = TimeSeriesDatabase(
            memory_budget_per_series=16, sstable_size=8, auto_tune=True
        )
        # Shadow model: per-series points written, and a monotone clock
        # per series so generation times stay unique.
        self.written: dict[str, int] = {}
        self.clock: dict[str, float] = {}

    @rule(
        series=st.integers(min_value=0, max_value=4),
        count=st.integers(min_value=1, max_value=40),
        shuffle=st.booleans(),
        stale=st.booleans(),
    )
    def write_batch(self, series, count, shuffle, stale):
        name = f"s{series}"
        base = self.clock.get(name, 0.0)
        tg = base + 1.0 + np.arange(count, dtype=np.float64)
        if stale and count >= 2:
            # Pull some points back before the frontier -> out-of-order.
            tg[: count // 2] -= min(base, 0.6 * count)
        if shuffle:
            rng = np.random.default_rng(int(base) + count)
            tg = rng.permutation(tg)
        # Keep generation times unique within the series history by
        # nudging duplicates (floats: add tiny offsets).
        tg = tg + np.linspace(0.0, 1e-6, count)
        ta = np.sort(tg + 1.0)  # arrival order: any sorted stamp works
        self.db.write(name, tg, ta)
        self.written[name] = self.written.get(name, 0) + count
        self.clock[name] = max(self.clock.get(name, 0.0), float(tg.max()))

    @rule()
    def flush_everything(self):
        self.db.flush_all()
        # Once everything is on disk, each point was written >= once.
        report = self.db.report()
        if report.total_points:
            assert report.write_amplification >= 1.0 - 1e-12

    @rule()
    def retune(self):
        self.db.retune(min_observations=32)

    @invariant()
    def accounting_is_exact(self):
        report = self.db.report()
        assert report.total_points == sum(self.written.values())
        # Between flushes some points may still be buffered, so the
        # only running bound is that nothing was written twice for free.
        assert report.total_disk_writes >= 0
        assert 0 <= report.separated_series <= report.series_count

    @invariant()
    def snapshots_cover_everything(self):
        for name, expected in self.written.items():
            snapshot = self.db.snapshot(name)
            assert snapshot.total_points == expected
            ids = (
                np.concatenate([t.ids for t in snapshot.tables])
                if snapshot.tables
                else np.empty(0, dtype=np.int64)
            )
            assert np.unique(ids).size == ids.size

    @invariant()
    def runs_stay_ordered(self):
        for name in self.written:
            engine = self.db.series(name).engine
            engine.verify()


TestDatabaseStateMachine = DatabaseMachine.TestCase
TestDatabaseStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
