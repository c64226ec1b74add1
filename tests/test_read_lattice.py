"""Differential read lattice: every way to configure and drive the read
path against :class:`tests.reference_store.ReferenceStore`.

Each feature's own test file pins that feature in one configuration;
this file draws the configuration.  Two levels:

* **The fleet** (:class:`ReadLattice`, hypothesis stateful): {1, 3, 4}
  hash-routed shards x a per-series split (``pi_c``, or
  ``pi_s`` at a drawn ``seq_capacity``) x scheduler on / off x WAL group
  commit on / off, driven by ingest (disordered, duplicate generation
  times, single-point and empty batches, several series in one call) /
  ``flush_all`` / ``convert_cold`` / ``retune`` / ``resplit`` /
  ``resize_series`` (a drawn budget) / a series created after queries
  have run / checkpoint + ``recover``.  After
  every step a single series, an explicit list (caller order), a set and
  the whole fleet are queried — ``query_aggregate``, ``query_range``
  metrics-only and ``collect=True``, first and again —
  over windows that touch a table edge, fall between tables, hit only
  MemTables, are empty, and are ``(-inf, inf)``.  Counts, extrema, rows
  and ids must be the reference's; every field must be bitwise what
  ``aggregate_over_series`` / ``scan_over_series`` answer on an
  unsharded twin fed the same stream.  The write half rides the same
  steps: a third store, ``plain`` — unsharded, no scheduler, no group
  commit, no durability directory — is fed the same stream and the same
  ``split`` / ``resize_series`` / ``retune`` / ``convert_cold`` steps,
  and after every step
  each series' ``WriteStats`` (user points, disk writes, the per-point
  write-count array) must be equal across fleet, twin and plain,
  ``verify()`` must pass on all three and the visible points must be
  the reference's.
* **The engine** (:func:`test_every_engine_answers_the_reference`): the
  fleet builds the two leveled rows only, so the named rows of the engine
  table (and two composed triples) are drawn one level down — the same
  reference checks both executors on each ``PRUNING_ENGINE_FACTORIES``
  engine's snapshot, indexed and hand-built, row / columnar / half
  converted.  Its write half, :func:`test_a_row_writes_what_its_triple_writes`:
  each row that names a triple against ``compose_engine`` of that triple
  and the row's parameters — ``WriteStats``, event log and checkpoint
  arrays equal after the same stream.  Both enumerate the table, so a
  new row is covered without an edit here.

Tier-1 runs a small derandomised profile (about 20 s); ``pytest
tests/test_read_lattice.py --hypothesis-profile deep`` (registered in
``tests/conftest.py``) is the search run by hand.  Counter-examples it
shrinks are committed below as plain tests.
"""

import dataclasses
import functools
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.lsm.base import Snapshot
from repro.lsm.database import TimeSeriesDatabase
from repro.lsm.policies.compose import ENGINES, PLACEMENTS, compose_engine
from repro.query.aggregation import execute_aggregate_query
from repro.query.executor import QueryStats, execute_range_query
from repro.query.merge import aggregate_over_series, scan_over_series
from repro.serving import ShardedDatabase, ShardRouter
from tests.conformance_support import (
    CONFIG,
    PRUNING_ENGINE_FACTORIES,
    checkpoint_profile,
)
from tests.reference_store import ReferenceStore, canonical_rows

NAMES = tuple(f"s{i}" for i in range(6))
BUDGET, TABLE = 16, 8
DEEP = settings.get_current_profile_name() == "deep"


def same_answer(got, want) -> None:
    """Every field the same bits: floats by ``hex`` (NaN and signed
    zeros included), arrays by dtype and content."""
    assert type(got) is type(want)
    # ``AggregateResult`` is a NamedTuple, ``QueryStats`` a dataclass.
    if isinstance(want, tuple):
        names = want._fields
    else:
        names = [field.name for field in dataclasses.fields(want)]
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        elif isinstance(b, float):
            assert type(a) is float and a.hex() == b.hex(), (name, a, b)
        else:
            assert type(a) is type(b) and a == b, (name, a, b)


def answers_the_reference(reference, names, lo, hi, aggregate, stats, collected) -> None:
    count, minimum, maximum, total = reference.aggregate(names, lo, hi)
    assert aggregate.count == stats.result_points == collected.result_points == count
    if count:
        assert (aggregate.minimum, aggregate.maximum) == (minimum, maximum)
    else:
        assert math.isnan(aggregate.minimum) and math.isnan(aggregate.maximum)
    assert math.isclose(aggregate.total, total, rel_tol=1e-12, abs_tol=1e-9)
    assert stats.rows is None and stats.row_ids is None
    assert np.all(np.diff(collected.rows) >= 0)
    want_tg, want_ids = reference.rows(names, lo, hi)
    got_tg, got_ids = canonical_rows(collected.rows, collected.row_ids)
    assert np.array_equal(got_tg, want_tg) and np.array_equal(got_ids, want_ids)


def windows_of(snapshot) -> list[tuple[float, float]]:
    """Windows cut to ``snapshot``'s own layout (see the module doc)."""
    tables = sorted(snapshot.tables, key=lambda t: (t.min_tg, t.max_tg))
    tops = [t.max_tg for t in tables] + [float(m.tg.max()) for m in snapshot.memtables]
    top = max(tops, default=0.0)
    windows = [(-math.inf, math.inf), (top + 1.0, top + 2.0)]
    if tables:
        k = len(tables) // 2
        mid = tables[k]
        disk_top = max(t.max_tg for t in tables)
        windows += [
            (mid.min_tg, mid.max_tg),                        # one table, edge to edge
            (tables[0].min_tg, disk_top),                    # every table covered
            (tables[0].min_tg + 0.25, disk_top - 0.25),      # ... less the two it cuts
            (float(np.nextafter(disk_top, math.inf)), math.inf),  # only MemTables
        ]
        if mid.tg.size >= 3:
            windows.append((float(mid.tg[1]), float(mid.tg[-2])))  # inside one table
        if k:
            left = tables[k - 1]
            windows.append((left.max_tg, max(left.max_tg, mid.min_tg)))  # touches two
            gap = (
                float(np.nextafter(left.max_tg, math.inf)),
                float(np.nextafter(mid.min_tg, -math.inf)),
            )
            if gap[0] <= gap[1]:
                windows.append(gap)                          # between two tables
    for view in snapshot.memtables[:1]:
        windows.append((float(view.tg.min()), float(view.tg.max())))
    return [(lo, hi) for lo, hi in windows if lo <= hi]


def close_wals(databases) -> None:
    for db in databases:
        for name in db.series_names():
            wal = db.series(name).engine.wal
            if wal is not None:
                wal.close()


class ReadLattice(RuleBasedStateMachine):
    @initialize(
        shards=st.sampled_from((1, 3, 4)),
        scheduler=st.booleans(),
        group_commit=st.booleans(),
    )
    def build(self, shards, scheduler, group_commit):
        self.root = tempfile.mkdtemp(prefix="read-lattice-")
        stability = {}
        if scheduler:
            stability.update(
                compaction_scheduler=True, compaction_work_unit=4,
                compaction_tokens_per_point=1.0, compaction_burst=16,
            )
        if group_commit:
            stability["wal_group_records"] = 4
        shared = dict(
            memory_budget_per_series=BUDGET, sstable_size=TABLE, auto_tune=True,
            stability=stability,
        )
        self.fleet = ShardedDatabase(
            shards, durability_dir=os.path.join(self.root, "fleet"), **shared
        )
        self.twin = TimeSeriesDatabase(
            durability_dir=os.path.join(self.root, "twin"), **shared
        )
        # The plainest configuration of the same stream: the write side
        # of every knob above must count what this counts.
        self.plain = TimeSeriesDatabase(
            memory_budget_per_series=BUDGET, sstable_size=TABLE, auto_tune=True
        )
        self.reference = ReferenceStore()
        self.frontier: dict[str, float] = {}
        self.clock = 0.0
        self.steps = 0
        self.recovered = False

    def teardown(self):
        if hasattr(self, "root"):
            close_wals([self.twin, *self.fleet.shards])
            shutil.rmtree(self.root, ignore_errors=True)

    def engines(self, name):
        return (
            self.fleet.database_for(name).series(name).engine,
            self.twin.series(name).engine,
            self.plain.series(name).engine,
        )

    @staticmethod
    def settled(engine) -> bool:
        """No landing is queued: the engine is where stop-the-world is."""
        return engine.scheduler is None or not len(engine.scheduler)

    # -- steps -----------------------------------------------------------------

    @rule(
        series=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
        offsets=st.lists(st.integers(-24, 24), max_size=24),
        sync=st.booleans(),
    )
    def ingest(self, series, offsets, sync):
        """One ``ingest_batch`` call: half-unit steps around each series'
        frontier, so generation times repeat, run backwards and — an
        empty list — may be none at all."""
        batch = []
        for index in series:
            name = NAMES[index]
            base = self.frontier.get(name, 100.0 * (index + 1))
            tg = base + 0.5 * np.asarray(offsets, dtype=np.float64)
            self.clock = max(self.clock, float(tg.max(initial=0.0))) + 1.0
            ta = self.clock + np.arange(tg.size, dtype=np.float64)
            self.clock += tg.size
            batch.append((name, tg, ta))
            self.frontier[name] = max(base, float(tg.max(initial=base)))
        self.fleet.ingest_batch(batch, sync=sync)
        for name, tg, ta in batch:
            self.twin.write(name, tg, ta)
            self.plain.write(name, tg, ta)
            self.reference.write(name, tg)

    @rule(
        index=st.integers(0, 5),
        count=st.integers(20, 60),
        late=st.integers(0, 12),
        sync=st.booleans(),
    )
    def burst(self, index, count, late, sync):
        """A longer mostly-in-order batch, every fourth point ``late``
        steps behind (0: none): what grows a run to many tables."""
        offsets = np.arange(1, count + 1)
        offsets[::4] -= late
        self.ingest([index], offsets.tolist(), sync)

    @rule()
    def flush_all(self):
        self.fleet.flush_all()
        self.twin.flush_all()
        self.plain.flush_all()

    @rule(
        index=st.integers(0, 5),
        seq_capacity=st.none() | st.integers(1, BUDGET - 1),
    )
    def split(self, index, seq_capacity):
        """A new series is created under the drawn split (after whatever
        queries have run: the routing plan must see it); an existing one
        is re-split to it in place."""
        name = NAMES[index]
        if name in self.reference.series_names():
            for engine in self.engines(name):
                engine.resplit(self.within(engine.config.memory_budget, seq_capacity))
        else:
            self.fleet.database_for(name).create_series(name, seq_capacity=seq_capacity)
            self.twin.create_series(name, seq_capacity=seq_capacity)
            self.plain.create_series(name, seq_capacity=seq_capacity)
            self.reference.write(name, [])

    @staticmethod
    def within(budget, seq_capacity):
        """``seq_capacity`` as a legal split of ``budget`` (a resize may
        have shrunk it below a split drawn against ``BUDGET``)."""
        return None if seq_capacity is None else min(seq_capacity, budget - 1)

    @rule(
        index=st.integers(0, 5),
        budget=st.sampled_from((4, 8, BUDGET, 24)),
        seq_capacity=st.none() | st.integers(1, BUDGET - 1),
    )
    def resize_series(self, index, budget, seq_capacity):
        """The arbiter's step: the same series re-budgeted to the same
        drawn budget (and split, or its current share when none is
        drawn) on all three stores."""
        name = NAMES[index]
        if name not in self.reference.series_names():
            return
        seq_capacity = self.within(budget, seq_capacity)
        stores = (self.fleet.database_for(name), self.twin, self.plain)
        resized = {db.resize_series(name, budget, seq_capacity) for db in stores}
        assert len(resized) == 1, resized
        event(f"resized: {resized.pop()}, recovered: {self.recovered}")
        configs = {
            (engine.config.memory_budget, engine.config.seq_capacity)
            for engine in self.engines(name)
        }
        assert len(configs) == 1 and budget in configs.pop()

    @rule()
    def retune(self):
        decided = self.fleet.retune(min_observations=32)
        assert decided == self.twin.retune(min_observations=32)
        # A recovered analyzer is the checkpointed one plus the logged
        # tail: it decides as the store that never crashed does.
        assert decided == self.plain.retune(min_observations=32)

    @rule(
        index=st.integers(0, 5),
        block_size=st.sampled_from((1, 3, 64)),
        half=st.booleans(),
    )
    def convert_cold(self, index, block_size, half):
        name = NAMES[index]
        if name not in self.reference.series_names():
            return
        cutoff = self.frontier.get(name, 0.0) - 6.0 if half else None
        fleet, twin, _ = (
            engine.convert_cold(max_tg=cutoff, block_size=block_size)
            for engine in self.engines(name)
        )
        # (Not the plain store's count: a queued landing's tables are not
        # there to convert yet, and a conversion writes nothing.)
        assert fleet == twin

    @rule()
    def checkpoint_and_recover(self):
        self.fleet.sync()
        self.twin.sync()
        self.fleet.checkpoint_all()
        self.twin.checkpoint_all()
        close_wals([self.twin, *self.fleet.shards])
        self.fleet = ShardedDatabase.recover(self.fleet.durability_dir)
        self.twin = TimeSeriesDatabase.recover(self.twin.durability_dir)
        self.recovered = True

    # -- the checks ------------------------------------------------------------

    @invariant()
    def every_write_is_counted_as_the_plainest_store_counts_it(self):
        """Shards, scheduler, group commit, a WAL and a recovery
        change where and when a point lands, never how often it is
        written: per series, the fleet, its twin and the plain database
        hold the same ``WriteStats`` — user points, disk writes and the
        whole per-point write-count array — every engine verifies, and
        what is visible (tables + MemTables) is what was written.

        The scheduler moves landings in time: while one is queued its
        engine is the plain one of a moment ago, so the disk-side counts
        are compared whenever the queue is empty (``flush_all`` and a
        checkpoint empty it; half the configurations have no queue)."""
        for name in self.reference.series_names():
            fleet_engine, twin_engine, plain_engine = self.engines(name)
            want = plain_engine.stats
            for engine in (fleet_engine, twin_engine):
                got = engine.stats
                assert got.user_points == want.user_points, name
                event(f"write counts compared: {self.settled(engine)}")
                if self.settled(engine):
                    assert got.disk_writes == want.disk_writes, name
                    assert np.array_equal(got.write_counts, want.write_counts), name
            written, _ = self.reference.rows([name], -math.inf, math.inf)
            assert want.user_points == written.size
            for engine in (fleet_engine, twin_engine, plain_engine):
                engine.verify()
                snapshot = engine.snapshot()
                parts = [t.tg for t in snapshot.tables] + [m.tg for m in snapshot.memtables]
                visible = np.sort(np.concatenate([np.empty(0), *parts]))
                assert np.array_equal(visible, written), name

    @invariant()
    def every_read_is_the_reference_and_the_twin(self):
        self.steps += 1
        names = sorted(self.reference.series_names())
        assert sorted(self.fleet.series_names()) == sorted(self.twin.series_names()) == names
        if not names:
            forms, windows = [None], [(-math.inf, math.inf), (0.0, 1.0)]
        else:
            turn = self.steps % len(names)
            focus = names[turn]
            listed = (names[turn:] + names[:turn])[::-1][:3]  # caller order, not sorted
            forms = [focus, listed, set(listed), None]
            snapshot = self.twin.snapshot(focus)
            windows = windows_of(snapshot)
            # What the checks met (--hypothesis-show-statistics).
            event(f"tables: {min(len(snapshot.tables), 16) // 4 * 4}+")
            event(f"columnar: {sum(t.is_columnar for t in snapshot.tables) > 0}")
            event(f"memtables: {len(snapshot.memtables)}")
        for lo, hi in windows:
            for form in forms:
                # What the twin is asked: a set has no order of its own.
                asked = sorted(form) if isinstance(form, set) else form
                want = (
                    aggregate_over_series(self.twin, asked, lo, hi),
                    scan_over_series(self.twin, asked, lo, hi),
                    scan_over_series(self.twin, asked, lo, hi, collect=True),
                )
                for _ in ("first", "again"):
                    got = (
                        self.fleet.query_aggregate(form, lo, hi),
                        self.fleet.query_range(form, lo, hi),
                        self.fleet.query_range(form, lo, hi, collect=True),
                    )
                    for mine, twins in zip(got, want):
                        same_answer(mine, twins)
                listed_names = [asked] if isinstance(asked, str) else asked
                answers_the_reference(self.reference, listed_names, lo, hi, *want)


TestReadLattice = ReadLattice.TestCase
TestReadLattice.settings = (
    settings()
    if DEEP
    else settings(derandomize=True, max_examples=50, stateful_step_count=20, deadline=None)
)


# -- one level down: every engine's snapshot ------------------------------------

LAYOUTS = ("row", "columnar", "half")


def _stream(seed):
    """1500 generation times, disordered and duplicate-heavy."""
    rng = np.random.default_rng(seed)
    return np.floor(np.arange(1500) / 3.0) * 2.5 + rng.integers(-40, 1, size=1500) * 2.5


@functools.lru_cache(maxsize=None)
def _engine_state(engine_key, layout, flushed, seed):
    """``(snapshot, reference)`` of ``engine_key`` after a disordered,
    duplicate-heavy stream, its tables in ``layout``."""
    tg = _stream(seed)
    engine = PRUNING_ENGINE_FACTORIES[engine_key](None)
    reference = ReferenceStore()
    for pos in range(0, tg.size, 211):
        chunk = tg[pos : pos + 211]
        engine.ingest(chunk, np.arange(pos, pos + chunk.size, dtype=np.float64) * 3.0 + 200.0)
        reference.write("s", chunk)
    if flushed:
        engine.flush_all()
    if layout == "columnar":
        engine.convert_cold(block_size=4)
    elif layout == "half":
        engine.convert_cold(max_tg=float(np.median(tg)), block_size=4)
    return engine.snapshot(), reference


@settings(
    settings() if DEEP else settings(derandomize=True, max_examples=150), deadline=None
)
@given(
    engine_key=st.sampled_from(sorted(PRUNING_ENGINE_FACTORIES)),
    layout=st.sampled_from(LAYOUTS),
    flushed=st.booleans(),
    seed=st.integers(0, 2),
    data=st.data(),
)
def test_every_engine_answers_the_reference(engine_key, layout, flushed, seed, data):
    snapshot, reference = _engine_state(engine_key, layout, flushed, seed)
    assert snapshot.index is not None and snapshot.tables
    hand_built = Snapshot(tables=snapshot.tables, memtables=snapshot.memtables)
    lo, hi = data.draw(st.sampled_from(windows_of(snapshot)))
    answers = []
    for target in (snapshot, hand_built):
        answer = (
            execute_aggregate_query(target, lo, hi),
            execute_range_query(target, lo, hi),
            execute_range_query(target, lo, hi, collect=True),
        )
        answers_the_reference(reference, ["s"], lo, hi, *answer)
        answers.append(answer)
    for indexed, walked in zip(*answers):
        same_answer(_less_access_path(indexed), _less_access_path(walked))


#: The rows whose triple can be built by name (the adaptive row and the
#: open row describe, in those columns, more than one).
TRIPLE_ROWS = {row.key: row for row in ENGINES if row.placement in PLACEMENTS}


@pytest.mark.parametrize("key", sorted(TRIPLE_ROWS))
def test_a_row_writes_what_its_triple_writes(key):
    """A named engine is its row: ``compose_engine`` of the row's triple
    and parameters counts every write the same, logs the same events and
    checkpoints the same arrays (the meta differs: it names who wrote it)."""
    row = TRIPLE_ROWS[key]
    named = row.build(CONFIG)
    composed = compose_engine(
        row.placement, row.compaction, config=named.config, compaction_kwargs=row.small,
    )
    tg = _stream(seed=1)
    for engine in (named, composed):
        for pos in range(0, tg.size, 211):
            engine.ingest(tg[pos : pos + 211])
    assert named.describe_policies() == composed.describe_policies()
    got, want = composed.stats, named.stats
    assert (got.user_points, got.disk_writes) == (want.user_points, want.disk_writes)
    assert want.disk_writes > want.user_points == tg.size
    assert np.array_equal(got.write_counts, want.write_counts)
    assert got.events == want.events
    assert checkpoint_profile(composed)["arrays"] == checkpoint_profile(named)["arrays"]
    composed.verify()


def _less_access_path(answer):
    """``tables_consulted`` is what the access path costs, not an answer."""
    if isinstance(answer, QueryStats):
        return dataclasses.replace(answer, tables_consulted=0)
    return answer


# -- edge-case reads through every front door ------------------------------------


def _edge_case_stores():
    """A four-shard fleet, a one-shard fleet and an unsharded database
    fed the same series: ``empty`` (no points), ``one`` (one point),
    ``buffered`` (a few points, all in the MemTable) and ``mixed``
    (disordered, duplicate-heavy, flushed tables half converted to
    columnar on a grid of 3, and a buffered tail above every table).
    Returns the stores and every point written, by series."""
    rng = np.random.default_rng(5)
    mixed = np.round(np.arange(200.0) + rng.exponential(3.0, 200))
    points = {
        "empty": np.empty(0),
        "one": np.array([7.5]),
        "buffered": np.array([100.0, 101.0, 101.0, 103.0, 99.0]),
        "mixed": np.concatenate([mixed, [400.0, 401.0, 401.0]]),
    }
    sizes = dict(memory_budget_per_series=BUDGET, sstable_size=TABLE)
    stores = (
        ShardedDatabase(n_shards=4, **sizes),
        ShardedDatabase(n_shards=1, **sizes),
        TimeSeriesDatabase(**sizes),
    )
    for store in stores:
        for name, tg in points.items():
            store.write(name, tg[:200])
        db = store if isinstance(store, TimeSeriesDatabase) else store.database_for("mixed")
        db.series("mixed").engine.convert_cold(max_tg=100.0, block_size=3)
        store.write("mixed", points["mixed"][200:])
    return stores, points


def test_edge_case_reads_agree_through_every_front_door():
    """An empty and a one-point series, a window of one timestamp (a
    table edge shared by duplicates, the one point, a buffered point),
    windows over buffered points only and ``+-inf`` bounds: the fleet,
    a one-shard fleet and the serial folds over either facade answer
    every field with the same bits, and count what was written."""
    (fleet, one_shard, db), points = _edge_case_stores()
    snapshot = db.snapshot("mixed")
    assert snapshot.tables and snapshot.memtables
    assert any(t.is_columnar for t in snapshot.tables)
    assert not db.snapshot("buffered").tables and not db.snapshot("empty").memtables
    shared = next(a.max_tg for a, b in zip(snapshot.tables, snapshot.tables[1:]) if a.max_tg == b.min_tg)
    top = max(t.max_tg for t in snapshot.tables)
    inf = math.inf
    windows = [
        (shared, shared), (7.5, 7.5), (101.0, 101.0), (401.0, 401.0),
        (float(np.nextafter(top, inf)), 401.0), (99.0, 103.0),
        (-inf, inf), (-inf, shared), (shared, inf), (-inf, -inf), (inf, inf),
        (-inf, 7.5), (450.0, inf),
    ]
    every = sorted(points)
    for lo, hi in windows:
        for names in (None, *every, ["mixed", "one", "empty"], set(every)):
            want = (
                aggregate_over_series(db, names, lo, hi),
                scan_over_series(db, names, lo, hi),
                scan_over_series(db, names, lo, hi, collect=True),
            )
            for door in (fleet, one_shard):
                for got in (
                    (
                        door.query_aggregate(names, lo, hi),
                        door.query_range(names, lo, hi),
                        door.query_range(names, lo, hi, collect=True),
                    ),
                    (
                        aggregate_over_series(door, names, lo, hi),
                        scan_over_series(door, names, lo, hi),
                        scan_over_series(door, names, lo, hi, collect=True),
                    ),
                ):
                    for mine, theirs in zip(got, want):
                        same_answer(mine, theirs)
            folded = every if names is None else [names] if isinstance(names, str) else names
            written = np.concatenate([points[name] for name in folded])
            inside = np.sort(written[(written >= lo) & (written <= hi)])
            assert want[0].count == want[1].result_points == inside.size
            assert np.array_equal(want[2].rows, inside)


# -- counter-examples the lattice shrank, kept as plain tests ---------------------


def test_a_one_shard_fleet_recovers(tmp_path):
    """``build(shards=1)`` then ``checkpoint_and_recover()``: a one-shard
    fleet's router round-trips through its manifest (a one-shard range
    router once could not be revived), and so does every other width."""
    fleet = ShardedDatabase(1, durability_dir=str(tmp_path))
    router = fleet.router
    assert ShardRouter.from_dict(router.as_dict()).as_dict() == router.as_dict()
    fleet.write("a", np.arange(5.0))
    fleet.checkpoint_all()
    revived = ShardedDatabase.recover(str(tmp_path))
    assert revived.router.as_dict() == router.as_dict()
    same_answer(revived.query_aggregate(), fleet.query_aggregate())
    for other in (ShardRouter(3), ShardRouter(4)):
        assert ShardRouter.from_dict(other.as_dict()).as_dict() == other.as_dict()


def test_a_recovered_database_retunes_as_the_one_that_never_crashed(tmp_path):
    """``burst`` / ``checkpoint_and_recover`` / ``split`` / ``retune``, as
    the write half shrank it: while the analyzer was not durable the
    recovered window was empty, so the retune the plain store answers
    was skipped — and from there the two ran under different splits and
    counted different writes.  The checkpoint now carries the window."""
    sizes = dict(memory_budget_per_series=BUDGET, sstable_size=TABLE, auto_tune=True)
    durable = TimeSeriesDatabase(durability_dir=str(tmp_path), **sizes)
    plain = TimeSeriesDatabase(**sizes)
    tg = 300.0 + 0.5 * np.arange(1, 33)
    for db in (durable, plain):
        db.create_series("s", seq_capacity=1)
        db.write("s", tg, tg + 1.0)
    durable.checkpoint_all()
    close_wals([durable])
    recovered = TimeSeriesDatabase.recover(str(tmp_path))
    try:
        assert plain.retune(min_observations=32) == {"s": "pi_c"}
        assert recovered.retune(min_observations=32) == {"s": "pi_c"}
    finally:
        close_wals([recovered])
