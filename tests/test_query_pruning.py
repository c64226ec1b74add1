"""Conformance and caching tests for the read-path acceleration.

The pruning index is a pure access-path optimisation: for every engine
(including composed triples no monolith implements), every query window
and every ingest stage, the pruned path must visit exactly the tables a
full metadata scan would visit and return bit-identical results.  The
structure-epoch snapshot cache must serve identical snapshots while the
engine is quiescent and invalidate on any mutation or restore.

The same holds one level up: a sorted run answers for the tables a
window fully covers from slices of its own per-table columns (one
covered span of a :meth:`~repro.lsm.pruning.TableIndex.read_plan` entry
over the :class:`~repro.lsm.level.RunView` the run hands out) instead of
visiting them.  The property suite pins that path, field for field and bit for
bit, to the per-table walk an index-less snapshot does; the work-bound
test pins what it is for — a wide aggregate reads two tables, and a read
after k landings re-sums only what they wrote — and the lifetime tests
pin the copy-on-write contract: a held snapshot answers what it
answered when taken, and a run nobody reads never copies its lists.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conformance_support import (
    CHUNK,
    PRUNING_ENGINE_FACTORIES,
    WORKLOADS,
)
from repro.config import LsmConfig
from repro.errors import QueryError
from repro.lsm.base import LsmEngine, Snapshot
from repro.lsm import ConventionalEngine
from repro.lsm.memtable import EMPTY_IDS, EMPTY_TG, MemTable
from repro.lsm.pruning import TableIndex
from repro.query.aggregation import execute_aggregate_query
from repro.query.executor import execute_range_query
from repro.workloads import TABLE_II

N_POINTS = 4000


def _build_engine(engine_key, workload, stop=None):
    engine = PRUNING_ENGINE_FACTORIES[engine_key](None)
    dataset = TABLE_II[workload].build(n_points=N_POINTS, seed=11)
    stop = len(dataset) if stop is None else stop
    for pos in range(0, stop, CHUNK):
        engine.ingest(dataset.tg[pos : pos + CHUNK], dataset.ta[pos : pos + CHUNK])
    return engine, dataset


def _windows(snapshot, rng, count=24):
    """Random query windows spanning narrow, wide, empty and degenerate."""
    tgs = [t for table in snapshot.tables for t in (table.min_tg, table.max_tg)]
    lo_all = min(tgs) if tgs else 0.0
    hi_all = max(tgs) if tgs else 1.0
    span = max(hi_all - lo_all, 1.0)
    windows = []
    for _ in range(count):
        lo = rng.uniform(lo_all - 0.1 * span, hi_all + 0.1 * span)
        width = span * rng.choice([0.0, 0.001, 0.01, 0.1, 1.5])
        windows.append((lo, lo + width))
    windows.append((lo_all, hi_all))          # everything
    windows.append((hi_all + span, hi_all + 2 * span))  # nothing
    return windows


def _assert_queries_match(snapshot):
    assert snapshot.index is not None
    reference = Snapshot(tables=snapshot.tables, memtables=snapshot.memtables)
    rng = np.random.default_rng(7)
    for lo, hi in _windows(snapshot, rng):
        pruned = execute_range_query(snapshot, lo, hi, collect=True)
        full = execute_range_query(reference, lo, hi, collect=True)
        assert pruned.result_points == full.result_points
        assert pruned.disk_points_read == full.disk_points_read
        assert pruned.files_touched == full.files_touched
        assert pruned.memtable_points_scanned == full.memtable_points_scanned
        assert pruned.tables_pruned == full.tables_pruned
        assert np.array_equal(pruned.rows, full.rows)
        assert np.array_equal(pruned.row_ids, full.row_ids)
        # The indexed path consults only what it touches; the fallback
        # walks every table's metadata.
        assert pruned.tables_consulted == pruned.files_touched
        assert full.tables_consulted == len(snapshot.tables)
        agg_pruned = execute_aggregate_query(snapshot, lo, hi)
        agg_full = execute_aggregate_query(reference, lo, hi)
        assert agg_pruned == agg_full


@pytest.mark.parametrize("engine_key", sorted(PRUNING_ENGINE_FACTORIES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_pruned_queries_match_full_scan(engine_key, workload):
    """Pruned results are bit-identical to full scans at every stage."""
    engine, _ = _build_engine(engine_key, workload)
    _assert_queries_match(engine.snapshot())   # memtables still populated
    engine.flush_all()
    _assert_queries_match(engine.snapshot())   # disk-only


@pytest.mark.parametrize("engine_key", sorted(PRUNING_ENGINE_FACTORIES))
def test_pruned_queries_match_mid_ingest(engine_key):
    """Snapshots taken mid-workload (fresh loose files) also agree."""
    engine, _ = _build_engine(engine_key, "M8", stop=N_POINTS // 3)
    _assert_queries_match(engine.snapshot())


def test_table_index_rejects_inverted_range_and_unknown_kind():
    index = TableIndex([])
    with pytest.raises(QueryError):
        index.overlapping(2.0, 1.0)
    with pytest.raises(QueryError):
        TableIndex([("diagonal", [object()])])


def test_snapshot_cached_until_mutation():
    engine, dataset = _build_engine("conventional", "M1")
    engine.flush_all()
    first = engine.snapshot()
    assert engine.snapshot() is first          # quiescent: cache hit
    engine.ingest(dataset.tg[-1:] + 1e9)       # memtable-only change
    second = engine.snapshot()
    assert second is not first
    assert second.index is first.index         # disk unchanged: index reused
    epoch = engine.read_version()[0]
    engine.flush_all()                         # structural change
    assert engine.read_version()[0] > epoch
    third = engine.snapshot()
    assert third is not second
    assert third.index is not second.index


def test_restore_bumps_epoch_and_queries_match(tmp_path):
    engine, _ = _build_engine("conventional", "M1")
    engine.flush_all()
    path = str(tmp_path / "ckpt.npz")
    engine.save_checkpoint(path)
    restored = LsmEngine.restore(path)
    # _restore_state marks a structure change, so nothing stale (from a
    # subclass populating caches pre-restore) can survive it.
    assert restored.read_version()[0] > ConventionalEngine().read_version()[0]
    stats = execute_range_query(
        restored.snapshot(), -np.inf, np.inf, collect=True
    )
    reference = execute_range_query(
        engine.snapshot(), -np.inf, np.inf, collect=True
    )
    assert np.array_equal(stats.rows, reference.rows)
    assert stats.files_touched == reference.files_touched


def test_memtable_views_are_read_only_and_shared_when_empty():
    table = MemTable(capacity=8)
    assert table.peek_tg() is EMPTY_TG
    assert table.peek_ids() is EMPTY_IDS
    table.extend(np.asarray([3.0, 1.0]), np.asarray([0, 1], dtype=np.int64))
    tg = table.peek_tg()
    assert table.peek_tg() is tg               # cached per version
    with pytest.raises(ValueError):
        tg[0] = 99.0
    stale = tg.copy()
    table.extend(np.asarray([2.0]), np.asarray([2], dtype=np.int64))
    assert np.array_equal(tg, stale)           # old view untouched
    table.clear()
    assert table.peek_tg() is EMPTY_TG


# -- run summaries vs the per-table walk ---------------------------------------

LAYOUTS = ("row", "columnar", "half")
STAGES = ("mid_ingest", "pre_flush", "post_flush")
BLOCK = 8


def _duplicate_heavy_stream(n_points=3000, seed=5):
    """Every timestamp five times over, arriving out of order.  Five
    does not divide the 32-point tables, so runs of equal timestamps
    straddle table boundaries (``max_tg`` of one table == ``min_tg`` of
    the next) — the ties the span searches must get right.  The
    timestamps are thirds, so table sums are inexact and any change in
    the order ``total`` is added up in shows in its last bits."""
    rng = np.random.default_rng(seed)
    tg = np.repeat(np.arange(n_points // 5, dtype=np.float64) * (10.0 / 3.0), 5)
    ta = tg + rng.exponential(50.0, size=tg.size)
    order = np.argsort(ta, kind="stable")
    return tg[order], ta[order]


@functools.lru_cache(maxsize=None)
def _summary_state(engine_key, layout, stage):
    """Snapshot of ``engine_key`` at ``stage`` with its tables in ``layout``."""
    engine = PRUNING_ENGINE_FACTORIES[engine_key](None)
    tg, ta = _duplicate_heavy_stream()
    stop = tg.size // 3 if stage == "mid_ingest" else tg.size
    for pos in range(0, stop, CHUNK):
        engine.ingest(tg[pos : min(pos + CHUNK, stop)], ta[pos : min(pos + CHUNK, stop)])
    if stage == "post_flush":
        engine.flush_all()
    if layout == "columnar":
        engine.convert_cold(block_size=BLOCK)
    elif layout == "half":
        cutoff = float(np.median([t.max_tg for t in engine.snapshot().tables]))
        engine.convert_cold(max_tg=cutoff, block_size=BLOCK)
    snapshot = engine.snapshot()
    assert snapshot.index is not None and snapshot.tables
    # Covered tables go out as spans of several: the path under test.
    assert any(
        last - first > 1
        for _, _, first, last, _ in snapshot.read_plan(-math.inf, math.inf)
    )
    columnar = sum(t.is_columnar for t in snapshot.tables)
    assert {
        "row": columnar == 0,
        "columnar": columnar == len(snapshot.tables),
        "half": 0 < columnar < len(snapshot.tables),
    }[layout]
    return snapshot


def _edges(snapshot):
    edges = {t for table in snapshot.tables for t in (table.min_tg, table.max_tg)}
    for view in snapshot.memtables:
        edges.update((float(view.tg.min()), float(view.tg.max())))
    return sorted(edges)


@st.composite
def _windows_on(draw, snapshot):
    """Windows whose ends sit on, just inside and just outside table
    edges; plus single-table, empty, everything and open-ended ones, and
    the cases a one-search-per-edge plan can get wrong: a window that
    only touches its end tables (``lo == max_tg`` of one, ``hi ==
    min_tg`` of a later one — with duplicates, often the next), a window
    strictly inside one table, one in the gap between two, and one that
    only MemTables hold."""
    edges = _edges(snapshot)
    shape = draw(
        st.sampled_from(
            ("edges", "table", "empty", "everything", "open",
             "touch", "inside", "between", "memtable")
        )
    )
    if shape == "table":
        table = draw(st.sampled_from(snapshot.tables))
        return table.min_tg, table.max_tg
    if shape == "touch":
        ends = sorted(
            draw(st.lists(st.sampled_from(snapshot.tables), min_size=2, max_size=2)),
            key=lambda t: (t.max_tg, t.min_tg),
        )
        return ends[0].max_tg, max(ends[0].max_tg, ends[1].min_tg)
    if shape == "inside":
        table = draw(st.sampled_from(snapshot.tables))
        inner = np.unique(table.tg)
        if inner.size < 3:
            return table.min_tg, table.max_tg
        a, b = sorted(draw(st.lists(st.integers(1, inner.size - 2), min_size=2, max_size=2)))
        return float(inner[a]), float(inner[b])
    if shape == "between":
        k = draw(st.integers(0, len(edges) - 2))
        lo = float(np.nextafter(edges[k], math.inf))
        hi = float(np.nextafter(edges[k + 1], -math.inf))
        return (lo, hi) if lo <= hi else (edges[k], edges[k])
    if shape == "memtable":
        top = max(table.max_tg for table in snapshot.tables)
        newest = max((float(view.tg.max()) for view in snapshot.memtables), default=top)
        if newest > top:  # buffered points no table reaches
            return float(np.nextafter(top, math.inf)), newest
        if not snapshot.memtables:
            return top, math.inf
        view = draw(st.sampled_from(snapshot.memtables))
        value = float(view.tg[draw(st.integers(0, view.tg.size - 1))])
        return value, value
    if shape == "empty":
        return draw(
            st.sampled_from(
                [(edges[-1] + 1.0, edges[-1] + 2.0), (edges[0] - 2.0, edges[0] - 1.0),
                 (edges[0] + 1.0, edges[0] + 2.0), (math.inf, math.inf), (-math.inf, -math.inf)]
            )
        )
    if shape == "everything":
        return edges[0], edges[-1]
    nudge = st.sampled_from((0.0, -math.inf, math.inf))
    ends = [
        float(np.nextafter(draw(st.sampled_from(edges)), draw(nudge))) for _ in range(2)
    ]
    if shape == "open":
        ends[draw(st.integers(0, 1))] = draw(st.sampled_from((-math.inf, math.inf)))
    return min(ends), max(ends)


def _assert_same_fields(got, want):
    """Every field — of the ``AggregateResult`` NamedTuple or the
    ``QueryStats`` dataclass — equal under ``==`` (and of the same
    type), floats bit for bit; extrema of an empty aggregate are NaN on
    both sides; row arrays equal element for element."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        names = want._fields
    else:
        names = [field.name for field in dataclasses.fields(want)]
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b) and a.dtype == b.dtype, name
        elif name in ("minimum", "maximum") and want.count == 0:
            assert math.isnan(a) and math.isnan(b), name
        elif name == "tables_consulted":
            continue  # defined by the access path; checked by the caller
        elif isinstance(b, float):
            assert type(a) is float and a.hex() == b.hex(), (name, a, b)
        else:
            assert type(a) is type(b) and a == b, (name, a, b)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("engine_key", sorted(PRUNING_ENGINE_FACTORIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_summaries_match_per_table_walk(engine_key, layout, data):
    snapshot = _summary_state(engine_key, layout, data.draw(st.sampled_from(STAGES)))
    walk = Snapshot(tables=snapshot.tables, memtables=snapshot.memtables)
    lo, hi = data.draw(_windows_on(snapshot))
    _assert_same_fields(
        execute_aggregate_query(snapshot, lo, hi), execute_aggregate_query(walk, lo, hi)
    )
    for collect in (False, True):
        got = execute_range_query(snapshot, lo, hi, collect=collect)
        want = execute_range_query(walk, lo, hi, collect=collect)
        _assert_same_fields(got, want)
        assert got.tables_consulted == got.files_touched
        assert want.tables_consulted == len(snapshot.tables)
    # The plan is the overlap list, one entry per run with its covered
    # span marked; the walk's is the same list, one table at a time.
    for plan, whole_runs in ((snapshot.read_plan(lo, hi), True), (walk.read_plan(lo, hi), False)):
        flat = []
        for view, start, first, last, stop in plan:
            entry = view.tables[start:stop]
            assert entry and (whole_runs or len(entry) == 1)
            assert start <= first <= start + 1 and stop - 1 <= last <= stop
            assert all(
                (lo <= t.min_tg and t.max_tg <= hi) == (first <= k < last)
                for k, t in enumerate(entry, start)
            )
            assert view.lens[start:stop] == [len(t) for t in entry]
            flat.extend(entry)
        assert flat == snapshot.overlapping_tables(lo, hi) == walk.overlapping_tables(lo, hi)


def test_duplicate_timestamps_straddle_table_boundaries():
    """The fixture does what its docstring says (else the ``edges``
    windows above never meet a boundary tie)."""
    tables = _summary_state("conventional", "row", "post_flush").tables
    ties = sum(a.max_tg == b.min_tg for a, b in zip(tables, tables[1:]))
    assert ties > len(tables) // 4


class _SpyColumn(np.ndarray):
    """A ``tg`` column that logs each read of its data — whole-array or
    slice sums, binary searches, element reads — as ``(kind, owner's
    table_id, elements)``.  ``.size``/``len`` are metadata, not reads."""

    reads: list = []
    owner = None

    def __array_finalize__(self, obj):
        self.owner = getattr(obj, "owner", None)

    def sum(self, *args, **kwargs):
        self.reads.append(("sum", self.owner, self.size))
        return self.view(np.ndarray).sum(*args, **kwargs)

    def searchsorted(self, *args, **kwargs):
        self.reads.append(("search", self.owner, self.size))
        return self.view(np.ndarray).searchsorted(*args, **kwargs)

    def __getitem__(self, item):
        out = super().__getitem__(item)
        if not isinstance(out, np.ndarray):
            self.reads.append(("item", self.owner, 1))
        return out


def _spy_on(tables):
    for table in tables:
        if not isinstance(table.tg, _SpyColumn):
            column = table.tg.view(_SpyColumn)
            column.owner = table.table_id
            table.tg = column


def test_wide_aggregate_reads_two_tables_and_a_flush_resums_only_new_ones():
    size, n_tables = 32, 400
    engine = ConventionalEngine(LsmConfig(memory_budget=2 * size, sstable_size=size))
    engine.ingest(np.arange(n_tables * size, dtype=np.float64))
    engine.flush_all()
    engine.convert_cold(max_tg=n_tables * size / 2.0, block_size=BLOCK)  # half columnar
    tables = engine.compaction.visible_tables()
    assert len(tables) == n_tables
    _spy_on(tables)
    reads = _SpyColumn.reads
    lo, hi = 0.25 * n_tables * size + 3.5, 0.75 * n_tables * size + 3.5  # mid-table ends
    walk = Snapshot(tables=tables, memtables=[])

    del reads[:]
    want = execute_aggregate_query(walk, lo, hi)
    assert want.tables_pruned == n_tables // 2 - 1 and want.tables_scanned == 2
    # The walk visits every table in between: here, a sum per row table.
    assert len({owner for _, owner, _ in reads}) > n_tables // 4

    # Taking the run's view sums, once, the row tables nothing has
    # summed yet; columnar ones recorded theirs when they were built.
    del reads[:]
    snapshot = engine.snapshot()
    assert snapshot.tables == tables and not snapshot.memtables
    assert all(kind == "sum" and n == size for kind, _, n in reads)
    assert 0 < len(reads) < n_tables // 2
    # One sorted run: one entry, a covered span with one cut table on
    # either side.
    plan = snapshot.read_plan(lo, hi)
    assert [(first - start, last - first, stop - last) for _, start, first, last, stop in plan] == [
        (1, n_tables // 2 - 1, 1)
    ]
    del reads[:]
    assert execute_aggregate_query(snapshot, lo, hi) == want
    touched = {owner for _, owner, _ in reads}
    assert len(touched) == 2, touched  # the two straddling the window's ends
    assert all(n < size for kind, _, n in reads if kind == "sum")  # slices only
    assert sum(kind == "search" for kind, _, _ in reads) == 2  # one per edge, in the table it cuts
    del reads[:]
    stats = execute_range_query(snapshot, lo, hi)
    assert stats.files_touched == n_tables // 2 + 1
    assert {owner for _, owner, _ in reads} == touched
    del reads[:]
    assert execute_aggregate_query(snapshot, -math.inf, math.inf).count == n_tables * size
    assert not reads  # every table covered: nothing is read at all

    # Four landings later the index is new, the lists behind it are the
    # run's own again, and the first read sums what the landings wrote
    # — nothing else: old tables keep their sums, and no read after the
    # first sums anything whole.
    old = {table.table_id for table in tables}
    engine.ingest(np.arange(n_tables * size, (n_tables + 8) * size, dtype=np.float64))
    engine.flush_all()
    _spy_on(engine.compaction.visible_tables())
    del reads[:]
    after = engine.snapshot()
    assert after.index is not snapshot.index
    new = {table.table_id for table in after.tables} - old
    assert len(new) == 8 and len(after.tables) == n_tables + 8
    assert sorted(reads) == sorted(("sum", owner, size) for owner in new)
    del reads[:]
    assert execute_aggregate_query(after, lo, hi) == want
    assert [(first - start, stop - last) for _, start, first, last, stop in after.read_plan(lo, hi)] == [(1, 1)]
    assert {owner for _, owner, _ in reads} == touched
    assert execute_aggregate_query(after, -math.inf, math.inf).count == (n_tables + 8) * size
    assert all(n < size for kind, _, n in reads if kind == "sum")


def test_held_snapshot_answers_what_it_answered_when_taken():
    """Copy on write: appends, overlap merges in the middle of the run
    and a re-split all happen to the run's *own* lists; the ones a held
    snapshot searches are left as they were, so it goes on answering —
    every field of every query — exactly what it answered when taken.
    ``convert_cold`` lays out the table handles both share in place, so
    across it the values hold (count, extrema, total, rows), not the
    block accounting."""
    size = 16
    tg, _ = _duplicate_heavy_stream(n_points=2400, seed=9)
    engine = ConventionalEngine(LsmConfig(memory_budget=2 * size, sstable_size=size))
    engine.ingest(tg[:1610])
    engine.convert_cold(max_tg=float(np.median(tg[:1610])), block_size=BLOCK)
    held = engine.snapshot()
    assert held.memtables and any(t.is_columnar for t in held.tables)
    edges = _edges(held)
    windows = [
        (-math.inf, math.inf),
        (edges[3], edges[-4]),
        (held.tables[5].max_tg, held.tables[9].min_tg),
        (edges[len(edges) // 2] + 0.5, edges[len(edges) // 2] + 400.0),
        (float(held.memtables[0].tg.min()), math.inf),
    ]

    def answers(snapshot):
        return [
            (
                execute_aggregate_query(snapshot, lo, hi),
                execute_range_query(snapshot, lo, hi),
                execute_range_query(snapshot, lo, hi, collect=True),
            )
            for lo, hi in windows
        ]

    def assert_held_unchanged():
        for got, want in zip(answers(held), taken):
            for g, w in zip(got, want):
                _assert_same_fields(g, w)
                assert getattr(g, "tables_consulted", 0) == getattr(w, "tables_consulted", 0)

    taken = answers(held)
    count = taken[0][0].count
    lists = held.index._groups[0].view
    shape = [len(column) for column in (lists.tables, lists.mins, lists.maxs, lists.lens,
                                        lists.blocks, lists.sums)]
    assert shape == [len(held.tables)] * 6

    merges = sum(e.kind == "merge" for e in engine.stats.events)
    engine.ingest(tg[1610:])  # late points: overlap merges deep in the run, and appends
    assert sum(e.kind == "merge" for e in engine.stats.events) > merges + 10
    assert execute_aggregate_query(engine.snapshot(), -math.inf, math.inf).count > count
    assert_held_unchanged()
    assert engine.resplit(size)  # pi_c -> pi_s: drains, re-binds, bumps the epoch
    engine.ingest(tg[:200] + tg.max() + 1.0)
    engine.flush_all()
    assert engine.snapshot().index._groups[0].view is not lists
    assert_held_unchanged()
    assert [len(column) for column in (lists.tables, lists.mins, lists.maxs, lists.lens,
                                       lists.blocks, lists.sums)] == shape

    assert engine.convert_cold(block_size=BLOCK) > 0
    for got, want in zip(answers(held), taken):
        agg, _, rows = got
        assert (agg.count, agg.minimum, agg.maximum, agg.total) == (
            want[0].count, want[0].minimum, want[0].maximum, want[0].total
        )
        assert np.array_equal(rows.rows, want[2].rows)
        assert np.array_equal(rows.row_ids, want[2].row_ids)
