"""Cost budgets that do not depend on the machine's speed.

Each test states a budget as a count, an equality, or a ratio of two
timings taken in the same test: the two sides alternate, best of k
rounds each, so a slow spell hits both alike.  Absolute speed is the
system benchmark's to judge (``benchmarks/system/``, paired against a
parent with ``scripts/bench_pairs.py``).  Every ratio is recorded with
``record_property``, so a ``--junitxml`` run reports its margin.
"""

import math
import statistics
import time

import numpy as np
import pytest

from repro import ConventionalEngine, InOrderCurve, LogNormalDelay, LsmConfig, ModelConfig
from repro import SeparationEngine, UniformDelay, execute_aggregate_query, execute_range_query
from repro import RingBufferSink, Telemetry, tune_separation_policy
from repro.core import analyzer as analyzer_module
from repro.core.allocation import MemoryArbiter
from repro.core.subsequent import _BLOCK_ROWS, ZetaModel
from repro.lsm.base import Snapshot
from repro.lsm.database import TimeSeriesDatabase
from repro.lsm.pruning import TableIndex
from repro.lsm.sstable import SSTable, build_sstables
from repro.lsm.wa_tracker import WriteStats
from repro.query import aggregate_over_series, scan_over_series
from repro.query.merge import merge_aggregates
from repro.serving import ShardedDatabase
from repro.workloads import generate_fleet, generate_synthetic
from tests.fleet_support import BENCHMARK_CELLS, benchmark_fleet, lockstep_rounds

_DELAY = LogNormalDelay(5.0, 2.0)
_DT = 50.0


def _alternating_best(rounds, *fns, setup=None):
    """Best seconds of each of ``fns`` over ``rounds`` rounds that call
    them in turn (after ``setup``, untimed, when given)."""
    best = [math.inf] * len(fns)
    for _ in range(rounds):
        if setup is not None:
            setup()
        for i, fn in enumerate(fns):
            began = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - began)
    return best


@pytest.fixture(scope="module")
def stream():
    return generate_synthetic(100_000, dt=_DT, delay=_DELAY, seed=1)


def test_separation_costs_at_most_twice_conventional(stream, record_property):
    """Separation exists to rewrite less, so on the same stream it must
    not cost much more to run: at most 1.75x (sixty back-to-back runs
    read 1.12-1.54x, median 1.24x; it lands twice as often, in
    half-size tables).  The write counts are the golden ones for this
    stream: a speed-up that moved them would be a behaviour change."""
    engines = {}

    def ingest(engine_class, config):
        engine = engines[engine_class] = engine_class(config)
        engine.ingest(stream.tg)
        engine.flush_all()

    pi_c_s, pi_s_s = _alternating_best(
        5,
        lambda: ingest(ConventionalEngine, LsmConfig(512, 512)),
        lambda: ingest(SeparationEngine, LsmConfig(512, 512, seq_capacity=256)),
    )
    record_property("pi_s_over_pi_c", pi_s_s / pi_c_s)
    assert engines[ConventionalEngine].stats.disk_writes == 486_048  # WA 4.86048
    assert engines[SeparationEngine].stats.disk_writes == 290_907  # WA 2.90907
    assert pi_s_s <= 1.75 * pi_c_s


def test_at_fleet_batches_separation_costs_at_most_1_6x_conventional(stream, record_property):
    """Table III at the batch size a fleet call hands each series (128
    points): pi_s per point over pi_c per point, the median of
    alternating rounds.  The engines are the first budget's; here each
    ingests the stream in 128-point calls, so per-call bookkeeping
    counts as it does on the durable path.  Twenty back-to-back runs
    read 1.06-1.40x (median 1.35x; ten runs read 1.29-1.49x, median
    1.41x, before MemTables became slabs); single rounds range from 0.8
    to 1.7x, hence the median."""
    engines = {
        "pi_c": (ConventionalEngine, LsmConfig(512, 512)),
        "pi_s": (SeparationEngine, LsmConfig(512, 512, seq_capacity=256)),
    }

    def ingest(engine_class, config):
        engine = engine_class(config)
        began = time.perf_counter()
        for start in range(0, len(stream), 128):
            engine.ingest(stream.tg[start : start + 128])
        engine.flush_all()
        return time.perf_counter() - began

    def round_ratio(order):
        spent = {name: ingest(*engines[name]) for name in order}
        return spent["pi_s"] / spent["pi_c"]

    ratio = statistics.median(
        round_ratio(("pi_c", "pi_s") if k % 2 == 0 else ("pi_s", "pi_c"))
        for k in range(7)
    )
    record_property("pi_s_over_pi_c_at_128", ratio)
    assert ratio <= 1.6


def test_a_seq_append_costs_at_most_eight_times_its_sort(record_property):
    """One 256-point ``C_seq`` append landing (sort, SSTable, run splice,
    write counters, event) against the stable argsort + gather of a
    batch like it, which a landing must do anyway: the rest is its
    fixed cost.  Twenty back-to-back runs read 6.0-6.7x (median 6.3x;
    7.3-8.9x, median 8.2x, before the landing path was trimmed).  Each
    ``C_seq`` batch is in-order points as they arrive — sorted but for
    a few late ones."""
    rng = np.random.default_rng(3)
    rounds, per_round, size = 21, 150, 256
    batches = []
    for k in range(2 * rounds * per_round):
        tg = k * 1000.0 + np.sort(rng.uniform(0.0, 999.0, size))
        late = rng.choice(size - 8, 4, replace=False)
        tg[late], tg[late + 8] = tg[late + 8], tg[late].copy()
        batches.append((tg, np.arange(k * size, (k + 1) * size, dtype=np.int64)))
    # Each side reads its own batches, none touched before it is timed.
    landed, sorted_only = iter(batches[::2]), iter(batches[1::2])
    engine = SeparationEngine(LsmConfig(512, 512, seq_capacity=size))
    clock = time.perf_counter

    def land():
        seq, spent = engine.placement.seq, 0.0
        for _ in range(per_round):
            tg, ids = next(landed)
            seq.extend(tg, ids)
            began = clock()
            engine.land("flush", seq)
            spent += clock() - began
        return spent

    def sort():
        spent = 0.0
        for _ in range(per_round):
            tg, ids = next(sorted_only)
            began = clock()
            order = tg.argsort(kind="stable")
            tg[order], ids[order]
            spent += clock() - began
        return spent

    # A sort round is a sixth of a landing round, so a best-of would
    # favour it; the median of the rounds' own ratios holds both sides
    # to the same moment of the machine.
    ratio = statistics.median(land() / sort() for _ in range(rounds))
    record_property("append_over_sort", ratio)
    events = engine.stats.events
    assert len(events) == rounds * per_round
    assert {(e.kind, e.new_points, e.tables_written) for e in events} == {("flush", size, 1)}
    assert ratio <= 8.0


def test_an_empty_landing_builds_no_table():
    """The one-table shortcut of ``build_sstables`` keeps the loop's
    answer for no points: no table, not an empty one."""
    assert build_sstables(np.empty(0), np.empty(0, dtype=np.int64), 512) == []


def test_write_counters_cost_at_most_four_bytes_per_point(stream):
    """The per-point WA counters are two bytes each while no counter can
    overflow them; with the capacity at most doubled ahead of the ids,
    100k points cost at most four bytes a point (eight-byte counters
    read about 10.5)."""
    engine = ConventionalEngine(LsmConfig(512, 512))
    engine.ingest(stream.tg)
    engine.flush_all()
    stats = engine.stats
    assert stats.user_points == len(stream)
    assert stats._counts.nbytes <= 4 * stats.user_points
    assert stats.write_counts.dtype == np.int64


def test_narrow_counters_record_as_fast_as_wide_ones(record_property):
    """``record_written`` on the two-byte counters against a twin forced
    to ``int64``, over the same landing-sized id arrays: at most 1.3x.
    An untyped increment (numpy's casting path) reads about 6x.

    The twins take turns every 20 landings, in ABBA order (whichever
    goes first in a block finds the ids colder), and the ratio is the
    median of 15 rounds' totals: load that comes and goes lands on both
    alike.  Two narrow twins measured so read 0.99-1.01 (narrow against
    wide 0.94-0.98), beside a concurrent test run as well as idle."""
    rng = np.random.default_rng(5)
    landings = [np.sort(rng.choice(100_000, 400, replace=False)) for _ in range(1000)]
    blocks = [landings[start : start + 20] for start in range(0, len(landings), 20)]
    narrow, wide = WriteStats(100_000), WriteStats(100_000)
    wide._widen()
    ratios = []
    for _ in range(15):
        took = {narrow: 0.0, wide: 0.0}
        for index, block in enumerate(blocks):
            for stats in (narrow, wide) if index % 2 == 0 else (wide, narrow):
                began = time.perf_counter()
                for ids in block:
                    stats.record_written(ids)
                took[stats] += time.perf_counter() - began
        ratios.append(took[narrow] / took[wide])
    ratio = float(np.median(ratios))
    record_property("narrow_over_wide", ratio)
    assert narrow._counts.dtype == np.uint16 and wide._counts.dtype == np.int64
    assert np.array_equal(narrow.write_counts, wide.write_counts)
    assert ratio <= 1.3


def test_the_scheduler_cuts_the_worst_append_stall_fivefold(stream):
    """The same 512-point appends through a stop-the-world engine and a
    scheduler-paced one: the worst landing work inside any one append
    (``disk_writes`` per append against the scheduler's
    ``max_batch_work_points``) is at least 5x lower paced, and pacing
    does not change what lands."""
    batches = [stream.tg[start : start + 512] for start in range(0, len(stream), 512)]
    baseline = ConventionalEngine(LsmConfig(512, 512))
    baseline_stall = seen = 0
    for batch in batches:
        baseline.ingest(batch)
        events = baseline.stats.events
        baseline_stall = max(baseline_stall, sum(e.disk_writes for e in events[seen:]))
        seen = len(events)
    paced = ConventionalEngine(
        LsmConfig(512, 512).with_stability(
            compaction_scheduler=True, compaction_work_unit=128,
            compaction_tokens_per_point=2.0, compaction_burst=1024,
            # Keep admission healthy: this budget isolates pacing, so the
            # backlog is allowed to grow and drains in the final flush.
            backpressure_throttle=10**9, backpressure_shed=10**9,
        )
    )
    for batch in batches:
        paced.ingest(batch)
    paced_stall = paced.scheduler.max_batch_work_points
    baseline.flush_all()
    paced.flush_all()
    assert paced_stall > 0
    assert baseline_stall >= 5 * paced_stall
    assert baseline.ingested_points == paced.ingested_points == len(stream)
    assert baseline.write_amplification == paced.write_amplification
    assert np.array_equal(baseline.stats.write_counts, paced.stats.write_counts)
    baseline.verify()
    paced.verify()


def test_narrow_windows_prune_an_indexed_snapshot(stream):
    engine = ConventionalEngine(LsmConfig(512, 512))
    engine.ingest(stream.tg)
    engine.flush_all()
    snapshot = engine.snapshot()
    assert snapshot.index is not None
    assert len(snapshot.tables) >= 150
    windows = np.random.default_rng(1).uniform(0.1, 0.9, 256) * float(stream.tg.max())
    stats = [execute_range_query(snapshot, lo, lo + 500.0) for lo in windows]
    assert sum(s.tables_pruned for s in stats) > 0
    assert sum(s.result_points for s in stats) > 0


@pytest.fixture(scope="module")
def cold_pair():
    """A row engine and a cold-converted twin over the same 2M-point
    stream.  Large SSTables (32768 points) make the row path's per-table
    ``np.sum`` the dominant aggregation cost — the work the cold tier's
    block statistics eliminate."""
    cold_stream = generate_synthetic(2_000_000, dt=_DT, delay=_DELAY, seed=1)
    row_engine = ConventionalEngine(LsmConfig(32768, 32768))
    cold_engine = ConventionalEngine(
        LsmConfig(32768, 32768), telemetry=Telemetry(sinks=[RingBufferSink()])
    )
    for engine in (row_engine, cold_engine):
        engine.ingest(cold_stream.tg)
        engine.flush_all()
    assert cold_engine.convert_cold(block_size=256) == len(cold_engine.snapshot().tables)
    return cold_stream, row_engine.snapshot(), cold_engine


def test_a_cold_first_aggregate_is_fivefold_cheaper(cold_pair, record_property):
    """Wide aggregates (80% of the span) over a row run and its cold twin.

    In steady state both layouts answer covered tables from the run's
    per-table columns.  What the cold tier saves is the first read of
    freshly written tables: taking the run's view, then one aggregate,
    pays one ``np.sum`` per row table and none per cold one.  That first
    read must be at least 5x cheaper cold, every answer bitwise equal,
    and the block-statistics path must actually answer.
    """
    cold_stream, row_snap, cold_engine = cold_pair
    lo_all, hi_all = float(cold_stream.tg.min()), float(cold_stream.tg.max())
    span = hi_all - lo_all
    rng = np.random.default_rng(0)
    windows = [(lo, lo + 0.8 * span) for lo in rng.uniform(lo_all, hi_all - 0.8 * span, 32)]
    first = {}

    def first_touch(columnar):
        """Time the first read — index, then one aggregate — of tables
        nothing has read yet; copying and converting them is not timed."""
        tables = [SSTable(t.tg, t.ids) for t in row_snap.tables]
        if columnar:
            for table in tables:
                table.convert_to_columnar(256)
        began = time.perf_counter()
        fresh = Snapshot(
            tables=tables, memtables=row_snap.memtables, index=TableIndex([("sorted", tables)])
        )
        first[columnar] = execute_aggregate_query(fresh, *windows[0])
        return time.perf_counter() - began

    row_first_s = cold_first_s = math.inf
    for _ in range(3):
        row_first_s = min(row_first_s, first_touch(False))
        cold_first_s = min(cold_first_s, first_touch(True))
    record_property("row_over_cold_first_touch", row_first_s / cold_first_s)
    assert row_first_s >= 5 * cold_first_s
    cold_snap, telemetry = cold_engine.snapshot(), cold_engine.telemetry
    row = [execute_aggregate_query(row_snap, lo, hi) for lo, hi in windows]
    cold = [execute_aggregate_query(cold_snap, lo, hi, telemetry=telemetry) for lo, hi in windows]
    assert (first[False].count, first[False].total) == (first[True].count, first[True].total)
    assert first[False].total == row[0].total
    for r, c in zip(row, cold):
        assert (r.count, r.total, r.minimum, r.maximum) == (c.count, c.total, c.minimum, c.maximum)
        assert c.blocks_stat_answered > 0
    assert telemetry.registry.counter("query.blocks_stat_answered").value > 0


def test_cold_scans_read_tenfold_fewer_points(cold_pair):
    """Narrow range queries over the cold tier: results equal the row
    twin's, but per-block zone maps bound each read to the overlapping
    block span, so disk points read drop at least tenfold."""
    cold_stream, row_snap, cold_engine = cold_pair
    cold_snap = cold_engine.snapshot()
    windows = np.random.default_rng(2).uniform(0.1, 0.9, 64) * float(cold_stream.tg.max())
    cold = [execute_range_query(cold_snap, lo, lo + 5000.0) for lo in windows]
    row = [execute_range_query(row_snap, lo, lo + 5000.0) for lo in windows]
    assert sum(s.result_points for s in cold) == sum(s.result_points for s in row) > 0
    assert sum(s.blocks_skipped for s in cold) > 0
    assert sum(s.disk_points_read for s in cold) * 10 <= sum(s.disk_points_read for s in row)


def test_the_arbiter_beats_an_equal_split():
    """The same skewed fleet (hot disordered cohort at 4x the arrival
    rate) through a static equal split and through the arbiter: following
    the workload with the memory gives strictly lower total WA."""
    fleet_data = generate_fleet(
        8, 4000, disordered_fraction=0.5, hot_fraction=0.25, hot_rate_multiplier=4, seed=11
    )

    def run_fleet(arbiter):
        fleet = ShardedDatabase(4, memory_budget_per_series=64, sstable_size=32, arbiter=arbiter)
        for batch in lockstep_rounds(fleet_data, 1000, with_ta=True):
            fleet.ingest_batch(batch)
        fleet.flush_all()
        stats = [fleet.database_for(n).series(n).engine.stats for n in fleet.series_names()]
        return fleet, sum(s.disk_writes for s in stats) / sum(s.user_points for s in stats)

    _, static_wa = run_fleet(None)
    arbiter = MemoryArbiter(
        64 * len(fleet_data), (32, 64, 128, 256), decision_interval=4000, min_observations=512
    )
    arbitrated, arbitrated_wa = run_fleet(arbiter)
    assert arbitrated.last_rebalance is not None
    assert arbitrated_wa < static_wa


def test_a_fleet_retune_keeps_its_regime_and_row_budget(monkeypatch):
    """``fleet.retune()`` over the system benchmark's sixteen series:
    five series separate, three disordered ones and the eight in-order
    ones do not, and one tune computes each log-CDF row at most once — no
    more rows than the highest one a candidate reads, plus a block — and
    builds one H table if it integrates a tail, none if not (the in-order
    series, whose largest delay is under ``dt``, never do).  Decided
    concurrently, Algorithm 1 still runs once per series, and the rows
    add up to what serial tunes of the same windows compute."""
    budget = 512
    data, expected = benchmark_fleet(16_384, seed=51)
    fleet = ShardedDatabase(n_shards=4, memory_budget_per_series=budget, sstable_size=512)
    for batch in lockstep_rounds(data, 2048, with_ta=True):
        fleet.ingest_batch(batch, sync=False)
    tunes, h_tables, tails = [], [], set()
    ensure_h_table, tail_integral = ZetaModel._ensure_h_table, ZetaModel._tail_integral

    def counted(*args, **kwargs):
        tunes.append(args)
        return tune_separation_policy(*args, **kwargs)

    def counted_ensure_h_table(self):
        if self._h_grid is None:
            h_tables.append(id(self.dist))
        ensure_h_table(self)

    def counted_tail_integral(self, *args):
        tails.add(id(self.dist))
        return tail_integral(self, *args)

    monkeypatch.setattr(analyzer_module, "tune_separation_policy", counted)
    monkeypatch.setattr(ZetaModel, "_ensure_h_table", counted_ensure_h_table)
    monkeypatch.setattr(ZetaModel, "_tail_integral", counted_tail_integral)
    fleet.retune()
    monkeypatch.undo()

    assert len(tunes) == len(expected)
    dists = [id(args[0]) for args in tunes]  # each tune's window, held by `tunes`
    assert tails and sorted(h_tables) == sorted(tails) and tails <= set(dists)
    in_order = [id(dist) for dist, dt, *_ in tunes if dist.support_upper() < dt]
    assert len(in_order) == len(expected) - len(BENCHMARK_CELLS)
    assert tails.isdisjoint(in_order)
    rows, serial_rows = 0, 0
    for name, policy in expected.items():
        state = fleet.database_for(name).series(name)
        decision = state.engine.analyzer.last_decision
        assert state.policy_label.startswith("pi_s" if policy == "s" else "pi_c"), name
        profile = state.engine.analyzer.profile()
        curve = InOrderCurve(profile.distribution, profile.dt)
        phases = [  # Eq. 4: the buffer sizes zeta was asked for
            k * (budget - k) / g + (budget - k)
            for k in decision.sweep_n_seq.tolist()
            if (g := curve.g(k)) >= 1e-9
        ]
        highest = round(max(phases, default=budget)) + ModelConfig().dense_terms
        assert 0 < decision.rows_computed <= highest + _BLOCK_ROWS, name
        rows += decision.rows_computed
        serial_rows += tune_separation_policy(
            profile.distribution, profile.dt, budget, sstable_size=512
        ).rows_computed
    assert rows == serial_rows


@pytest.fixture(scope="module")
def federated_fleet():
    """A 4-shard fleet and its unsharded twin, loaded and flushed.
    Small SSTables (256 points) over 8x100k points: hundreds of tables
    per series, answered from each run's per-table columns."""
    fleet = ShardedDatabase(n_shards=4, memory_budget_per_series=2048, sstable_size=256)
    reference = TimeSeriesDatabase(memory_budget_per_series=2048, sstable_size=256)
    datasets = [generate_synthetic(100_000, dt=_DT, delay=_DELAY, seed=40 + i) for i in range(8)]
    for db in (fleet, reference):
        for index, data in enumerate(datasets):
            db.write(f"sensor-{index:02d}", data.tg)
        db.flush_all()
    return fleet, reference


def _federated_within_half_again(federated, reference, record_property):
    """Routing, per-shard grouping and the canonical fold may cost at
    most half again what the one-database fold costs; returns the
    federated answer."""
    federated()
    reference_s, federated_s = _alternating_best(15, reference, federated)
    record_property("federated_over_reference", federated_s / reference_s)
    assert federated_s <= 1.5 * reference_s
    return federated()


def test_federated_aggregate_is_the_fold_at_half_again_its_cost(federated_fleet, record_property):
    """Fleet-wide, in process: the answer — float ``total``
    included — equals the serial one-database fold bit for bit."""
    fleet, reference = federated_fleet
    result = _federated_within_half_again(
        lambda: fleet.query_aggregate(),
        lambda: aggregate_over_series(reference),
        record_property,
    )
    assert result == aggregate_over_series(reference)


def test_federated_scan_is_the_fold_at_half_again_its_cost(federated_fleet, record_property):
    """The heavy half of federation: per-series row collection and the
    stable k-way merge in ``t_g`` order over 800k rows, identical to the
    serial one-database scan."""
    fleet, reference = federated_fleet
    stats = _federated_within_half_again(
        lambda: fleet.query_range(collect=True),
        lambda: scan_over_series(reference, collect=True),
        record_property,
    )
    expected = scan_over_series(reference, collect=True)
    assert stats.result_points == expected.result_points
    assert np.array_equal(stats.rows, expected.rows)
    assert np.array_equal(stats.row_ids, expected.row_ids)


_AGG_POINTS = 104_000


def _fleet_agg_fleet(tail_points=0):
    """The ``q_fleet_agg`` fleet: 16 series of ~800 tables each, every
    other series columnar, and 64 windows of a tenth of the span.
    ``tail_points`` more arrivals per series are generated and held
    back, returned as ``{name: tg}`` for a test to land later."""
    fleet = ShardedDatabase(n_shards=4, memory_budget_per_series=512, sstable_size=128)
    tails = {}
    for index in range(16):
        name = f"sensor-{index:02d}"
        delay = UniformDelay(0.0, 20 * _DT)
        data = generate_synthetic(_AGG_POINTS + tail_points, dt=_DT, delay=delay, seed=70 + index)
        fleet.write(name, data.tg[:_AGG_POINTS])
        tails[name] = data.tg[_AGG_POINTS:]
        if index % 2:
            fleet.database_for(name).series(name).engine.convert_cold(block_size=32)
    span = _AGG_POINTS * _DT
    rng = np.random.default_rng(3)
    windows = [(lo, lo + 0.1 * span) for lo in rng.uniform(0.0, 0.9 * span, 64)]
    return fleet, sorted(tails), windows, tails


def _walk_answers(fleet, names, windows):
    """Every window answered by the index-less per-table walk, folded
    in canonical order — the reference the fleet must equal bit for bit."""
    walks = [Snapshot(tables=s.tables, memtables=s.memtables) for s in map(fleet.snapshot, names)]
    return [
        merge_aggregates([execute_aggregate_query(snap, lo, hi) for snap in walks], lo, hi)
        for lo, hi in windows
    ]


def _fleet_aggregates(fleet, windows):
    return [fleet.query_aggregate(None, lo, hi) for lo, hi in windows]


def test_fleet_aggregates_are_threefold_cheaper_than_the_table_walk(record_property):
    """Fleet-wide 10%-span aggregates, the ``q_fleet_agg`` class of the
    system benchmark's ``read_storm``.  A window covers ~80 tables per
    series; the indexed path answers for them from slices of each run's
    per-table columns, the ``index=None`` walk tests every table's range.
    Through the ``FederatedExecutor`` the fleet answers every
    window bit for bit like the walk, at least 3x faster."""
    fleet, names, windows, _ = _fleet_agg_fleet()
    assert all(len(fleet.snapshot(name).tables) >= 800 for name in names)
    results = _fleet_aggregates(fleet, windows)
    assert results == _walk_answers(fleet, names, windows)  # float totals included
    assert all(r.tables_pruned >= 16 * 70 for r in results)
    walk_s, fast_s = _alternating_best(
        5, lambda: _walk_answers(fleet, names, windows), lambda: _fleet_aggregates(fleet, windows)
    )
    record_property("walk_over_indexed", walk_s / fast_s)
    assert walk_s >= 3 * fast_s


def test_a_series_aggregate_costs_little_beyond_its_two_edges(record_property):
    """One series' share of a ``q_fleet_agg`` window (a tenth of the
    span, ~80 tables) against the work its answer cannot do without: a
    binary search and an ``np.add.reduce`` slice in each of its two
    boundary tables.  Everything else — the plan entry, the covered span
    from the run's columns, the grid arithmetic of a columnar edge, the
    result tuple — is fixed cost per series.  The median of 21 paired
    rounds must stay within 4x: twenty runs read 3.1-3.6x, median 3.3x
    (with a plan of stretches and a zone-map search per columnar edge,
    twenty runs read 3.6-4.1x, median 3.75x)."""
    fleet, names, windows, _ = _fleet_agg_fleet()
    snapshots = [fleet.snapshot(name) for name in names]
    edges = []
    for lo, hi in windows:
        for snapshot in snapshots:
            tables = snapshot.overlapping_tables(lo, hi)
            edges.append((tables[0].tg, tables[-1].tg, lo, hi))
    clock = time.perf_counter

    def aggregates():
        began = clock()
        for lo, hi in windows:
            for snapshot in snapshots:
                execute_aggregate_query(snapshot, lo, hi)
        return clock() - began

    def edges_only():
        began = clock()
        for first, last, lo, hi in edges:
            np.add.reduce(first[first.searchsorted(lo, side="left") :])
            np.add.reduce(last[: last.searchsorted(hi, side="right")])
        return clock() - began

    ratio = statistics.median(aggregates() / edges_only() for _ in range(21))
    record_property("aggregate_over_edges", ratio)
    assert ratio <= 4.0


def test_a_landing_at_most_doubles_the_next_fleet_aggregates(record_property):
    """Before every round each series lands one MemTable (512 points: a
    flush, often an overlap merge near the tail), as on ``mixed_live``.
    What the next read pays for that must be what the landing changed —
    a snapshot, the run's lists handed over as they are, sums of the new
    tables — not a rebuilt index: a live round costs at most twice the
    same round run again right after, nothing landed in between.  The
    answers, after as many landings again, equal the table walk's."""
    rounds, landing = 6, 512
    fleet, names, windows, tails = _fleet_agg_fleet(tail_points=2 * rounds * landing)
    windows = windows[:16]
    landed = iter(range(0, 2 * rounds * landing, landing))

    def land():
        pos = next(landed)
        for name in names:
            fleet.write(name, tails[name][pos : pos + landing])

    def aggregates():
        return _fleet_aggregates(fleet, windows)

    aggregates()
    live_s, static_s = _alternating_best(rounds, aggregates, aggregates, setup=land)
    record_property("live_over_quiescent", live_s / static_s)
    assert live_s <= 2 * static_s
    for _ in range(rounds):
        land()
    results = aggregates()
    assert results == _walk_answers(fleet, names, windows)
    assert all(r.tables_pruned >= 16 * 70 for r in results)
