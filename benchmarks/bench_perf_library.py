"""Performance benchmarks for the library's hot paths.

Unlike the figure benchmarks (which run an experiment once and assert
its findings), these measure steady-state performance with repeated
rounds: engine ingestion throughput, model evaluation latency, tuner
latency and query execution.  They guard against performance
regressions in the simulator and the vectorised model numerics.
"""

import time

import numpy as np
import pytest

from repro import (
    ConventionalEngine,
    DelayAnalyzer,
    LogNormalDelay,
    LsmConfig,
    SeparationEngine,
    ZetaModel,
    execute_aggregate_query,
    execute_range_query,
    tune_separation_policy,
)
from repro.workloads import generate_synthetic

_DELAY = LogNormalDelay(5.0, 2.0)
_DT = 50.0
#: Points per simulated append for the bursty-ingest stability benchmarks.
_BURST = 512


@pytest.fixture(scope="module")
def stream():
    return generate_synthetic(100_000, dt=_DT, delay=_DELAY, seed=1)


@pytest.fixture(scope="module")
def cold_pair():
    """A row engine and a cold-converted twin over the same 2M-point stream.

    Large SSTables (32768 points) make the row path's per-table
    ``np.sum`` the dominant aggregation cost — the work the cold tier's
    block statistics eliminate.
    """
    cold_stream = generate_synthetic(2_000_000, dt=_DT, delay=_DELAY, seed=1)
    row_engine = ConventionalEngine(LsmConfig(32768, 32768))
    row_engine.ingest(cold_stream.tg)
    row_engine.flush_all()
    cold_engine = ConventionalEngine(LsmConfig(32768, 32768).with_telemetry())
    cold_engine.ingest(cold_stream.tg)
    cold_engine.flush_all()
    converted = cold_engine.convert_cold(block_size=256)
    assert converted == len(cold_engine.snapshot().tables)
    return cold_stream, row_engine, cold_engine


def _best_seconds(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_perf_conventional_ingest(benchmark, stream):
    def ingest():
        engine = ConventionalEngine(LsmConfig(512, 512))
        engine.ingest(stream.tg)
        engine.flush_all()
        return engine

    engine = benchmark(ingest)
    # Sanity: throughput above 100k points/s of simulated ingestion.
    assert engine.ingested_points == len(stream)


def test_perf_separation_ingest(benchmark, stream):
    def ingest():
        engine = SeparationEngine(LsmConfig(512, 512, seq_capacity=256))
        engine.ingest(stream.tg)
        engine.flush_all()
        return engine

    engine = benchmark(ingest)
    assert engine.ingested_points == len(stream)


def test_perf_separation_vs_conventional(benchmark, stream):
    """The ingest-path budget: ``pi_s`` within reach of ``pi_c``.

    Separation exists to rewrite less, so on the same stream it must
    not cost much more to run.  The target is 1.5x (the committed
    baseline shows it); the assertion is a loose 2.0x floor under that
    so scheduler jitter on a shared runner cannot trip it.  The write
    counts are the golden ones for this stream — a speed-up that moved
    them would be a behaviour change.
    """

    def conventional():
        engine = ConventionalEngine(LsmConfig(512, 512))
        engine.ingest(stream.tg)
        engine.flush_all()
        return engine

    def separation():
        engine = SeparationEngine(LsmConfig(512, 512, seq_capacity=256))
        engine.ingest(stream.tg)
        engine.flush_all()
        return engine

    # Alternate the two so a slow spell hits both sides alike.
    pi_c_s = pi_s_s = float("inf")
    for _ in range(5):
        pi_c_s = min(pi_c_s, _best_seconds(conventional, rounds=1))
        pi_s_s = min(pi_s_s, _best_seconds(separation, rounds=1))
    pi_c, pi_s = benchmark(lambda: (conventional(), separation()))
    benchmark.extra_info["pi_c_ms"] = pi_c_s * 1e3
    benchmark.extra_info["pi_s_ms"] = pi_s_s * 1e3
    benchmark.extra_info["pi_s_over_pi_c"] = pi_s_s / pi_c_s
    assert pi_c.stats.disk_writes == 486_048  # WA 4.86048
    assert pi_s.stats.disk_writes == 290_907  # WA 2.90907
    assert pi_s_s <= 2.0 * pi_c_s


def test_perf_analyzer_observe(benchmark, stream):
    """The delay analyzer watches every point at negligible cost.

    One ``observe`` call per 4096-point batch, as the database issues
    them.  20 M points/s is an order of magnitude below what the
    vectorised window does and an order above what any per-point
    interpreter loop can reach, so the floor only trips on the latter.
    """
    batch = 4096
    calls = len(stream) // batch
    analyzer = DelayAnalyzer(memory_budget=512, sstable_size=512)

    def observe():
        for lo in range(0, calls * batch, batch):
            analyzer.observe(stream.tg[lo : lo + batch], stream.ta[lo : lo + batch])

    seconds = _best_seconds(observe, rounds=5)
    benchmark(observe)
    points_per_s = calls * batch / seconds
    benchmark.extra_info["points_per_s"] = points_per_s
    assert analyzer.window.full
    assert points_per_s >= 20e6


def test_perf_zeta_evaluation(benchmark):
    def evaluate():
        return ZetaModel(_DELAY, _DT).zeta(512)

    value = benchmark(evaluate)
    assert value > 0


def test_perf_tuner(benchmark):
    def tune():
        return tune_separation_policy(_DELAY, _DT, 512, sstable_size=512)

    decision = benchmark(tune)
    assert decision.policy in ("conventional", "separation")


def test_perf_range_query(benchmark, stream):
    engine = ConventionalEngine(LsmConfig(512, 512))
    engine.ingest(stream.tg)
    engine.flush_all()
    snapshot = engine.snapshot()
    hi = float(stream.tg.max())
    rng = np.random.default_rng(0)
    windows = rng.uniform(0.3, 0.7, 64) * hi

    def query():
        total = 0
        for lo in windows:
            total += execute_range_query(snapshot, lo, lo + 5000.0).result_points
        return total

    total = benchmark(query)
    assert total > 0


def test_perf_range_query_pruned(benchmark, stream):
    """Narrow windows over a ~200-table snapshot: the pruning-index case.

    Each window overlaps a handful of tables, so nearly all per-query
    work is finding them — the cost the index collapses to O(log T).
    """
    engine = ConventionalEngine(LsmConfig(512, 512))
    engine.ingest(stream.tg)
    engine.flush_all()
    snapshot = engine.snapshot()
    assert snapshot.index is not None
    assert len(snapshot.tables) >= 150
    hi = float(stream.tg.max())
    rng = np.random.default_rng(1)
    windows = rng.uniform(0.1, 0.9, 256) * hi

    def query():
        pruned = 0
        for lo in windows:
            pruned += execute_range_query(snapshot, lo, lo + 500.0).tables_pruned
        return pruned

    pruned = benchmark(query)
    assert pruned > 0


def test_perf_ingest_latency_percentiles(benchmark, stream):
    """Tail latency of bursty ingest under the incremental scheduler.

    Ingests the stream in ``_BURST``-point appends through a
    scheduler-paced engine, records per-append wall time, and reports
    p50/p99/p99.9 (microseconds) via ``extra_info`` so the trajectory
    file carries the tail shape, not just the total.
    """
    tg = stream.tg
    config = LsmConfig(512, 512).with_stability(
        compaction_scheduler=True,
        compaction_work_unit=128,
        compaction_tokens_per_point=4.0,
        compaction_burst=2048,
    )
    starts = range(0, tg.size, _BURST)

    def ingest_bursts():
        engine = ConventionalEngine(config)
        latencies = np.empty(len(starts))
        for i, start in enumerate(starts):
            began = time.perf_counter()
            engine.ingest(tg[start : start + _BURST])
            latencies[i] = time.perf_counter() - began
        engine.flush_all()
        return engine, latencies

    engine, latencies = benchmark(ingest_bursts)
    p50, p99, p999 = np.percentile(latencies * 1e6, [50.0, 99.0, 99.9])
    benchmark.extra_info["p50_us"] = round(float(p50), 3)
    benchmark.extra_info["p99_us"] = round(float(p99), 3)
    benchmark.extra_info["p999_us"] = round(float(p999), 3)
    assert engine.ingested_points == tg.size
    assert 0.0 < p50 <= p99 <= p999


def test_perf_bursty_ingest_stall(benchmark, stream):
    """The headline stability claim: the scheduler bounds append stalls.

    Runs the same bursty workload through a stop-the-world baseline and
    a scheduler-paced engine, comparing the worst landing work executed
    inside any single append (a deterministic wall-clock proxy:
    ``disk_writes`` per burst for the baseline versus the scheduler's
    ``max_batch_work_points``).  The paced engine must cut the worst
    stall by at least 5x while reaching the identical final state.
    """
    tg = stream.tg
    paced_config = LsmConfig(512, 512).with_stability(
        compaction_scheduler=True,
        compaction_work_unit=128,
        compaction_tokens_per_point=2.0,
        compaction_burst=1024,
        # Keep admission healthy: this benchmark isolates pacing, so the
        # backlog is allowed to grow and drains in the final flush.
        backpressure_throttle=10**9,
        backpressure_shed=10**9,
    )
    starts = range(0, tg.size, _BURST)

    def run_pair():
        baseline = ConventionalEngine(LsmConfig(512, 512))
        baseline_stall = 0
        seen = 0
        for start in starts:
            baseline.ingest(tg[start : start + _BURST])
            events = baseline.stats.events
            burst_work = sum(e.disk_writes for e in events[seen:])
            seen = len(events)
            baseline_stall = max(baseline_stall, burst_work)

        paced = ConventionalEngine(paced_config)
        for start in starts:
            paced.ingest(tg[start : start + _BURST])
        paced_stall = paced.scheduler.max_batch_work_points

        baseline.flush_all()
        paced.flush_all()
        return baseline, paced, baseline_stall, paced_stall

    baseline, paced, baseline_stall, paced_stall = benchmark(run_pair)
    benchmark.extra_info["baseline_stall_points"] = baseline_stall
    benchmark.extra_info["paced_stall_points"] = paced_stall
    assert paced_stall > 0
    assert baseline_stall >= 5 * paced_stall, (
        f"scheduler stall {paced_stall} not 5x below baseline "
        f"{baseline_stall}"
    )
    # Pacing must not change what lands: identical accounting and state.
    assert baseline.ingested_points == paced.ingested_points == tg.size
    assert baseline.write_amplification == paced.write_amplification
    assert np.array_equal(
        baseline.stats.write_counts, paced.stats.write_counts
    )
    baseline.verify()
    paced.verify()


def test_perf_agg_cold(benchmark, cold_pair):
    """Wide aggregates over a row run and its cold twin.

    Wide windows (80% of the stream span) cover most tables.  A row
    table's whole-column sum is taken on first use and kept with the
    table (the cold tier records it at build time), and a sorted run
    answers for its covered tables from its per-table columns — so in
    steady state, the timed pair, both layouts cost the same few binary
    searches per query.  What the cold tier still saves is that first
    sum: the first read of freshly written row tables — taking the run's
    view, then the aggregate — pays one ``np.sum`` per table, of cold
    tables none.  That first touch must be at least 5x cheaper cold, the
    aggregates must be bitwise identical, and the statistics fast path
    must actually be exercised (``query.blocks_stat_answered`` advances).
    """
    from repro.lsm.base import Snapshot
    from repro.lsm.pruning import TableIndex
    from repro.lsm.sstable import SSTable

    cold_stream, row_engine, cold_engine = cold_pair
    row_snap = row_engine.snapshot()
    cold_snap = cold_engine.snapshot()
    lo_all, hi_all = float(cold_stream.tg.min()), float(cold_stream.tg.max())
    span = hi_all - lo_all
    rng = np.random.default_rng(0)
    windows = [
        (lo, lo + 0.8 * span)
        for lo in rng.uniform(lo_all, hi_all - 0.8 * span, 32)
    ]

    def agg_pair():
        began = time.perf_counter()
        row_results = [
            execute_aggregate_query(row_snap, lo, hi) for lo, hi in windows
        ]
        row_s = time.perf_counter() - began
        began = time.perf_counter()
        cold_results = [
            execute_aggregate_query(
                cold_snap, lo, hi, telemetry=cold_engine.telemetry
            )
            for lo, hi in windows
        ]
        cold_s = time.perf_counter() - began
        return row_results, cold_results, row_s, cold_s

    def first_touch(snapshot, columnar):
        """Seconds of the first read — index, then one aggregate — of
        tables nothing has read yet."""
        tables = [SSTable(t.tg, t.ids) for t in snapshot.tables]
        if columnar:
            for table in tables:
                table.convert_to_columnar(256)
        lo, hi = windows[0]
        began = time.perf_counter()
        fresh = Snapshot(
            tables=tables,
            memtables=snapshot.memtables,
            index=TableIndex([("sorted", tables)]),
        )
        result = execute_aggregate_query(fresh, lo, hi)
        return time.perf_counter() - began, result

    row_first_s, row_first = min(
        (first_touch(row_snap, False) for _ in range(3)), key=lambda pair: pair[0]
    )
    cold_first_s, cold_first = min(
        (first_touch(row_snap, True) for _ in range(3)), key=lambda pair: pair[0]
    )
    row_results, cold_results, row_s, cold_s = benchmark(agg_pair)
    benchmark.extra_info["row_ms"] = round(row_s * 1e3, 3)
    benchmark.extra_info["cold_ms"] = round(cold_s * 1e3, 3)
    benchmark.extra_info["row_first_touch_ms"] = round(row_first_s * 1e3, 3)
    benchmark.extra_info["cold_first_touch_ms"] = round(cold_first_s * 1e3, 3)
    benchmark.extra_info["first_touch_speedup"] = round(row_first_s / cold_first_s, 2)
    assert row_first_s >= 5 * cold_first_s, (
        f"first cold aggregate {cold_first_s * 1e3:.2f}ms not 5x below "
        f"first row aggregate {row_first_s * 1e3:.2f}ms"
    )
    assert (row_first.count, row_first.total) == (cold_first.count, cold_first.total)
    assert row_first.total == row_results[0].total
    for r, c in zip(row_results, cold_results):
        assert r.count == c.count
        assert r.total == c.total
        assert r.minimum == c.minimum
        assert r.maximum == c.maximum
        assert c.blocks_stat_answered > 0
    registry = cold_engine.telemetry.registry
    assert registry.counter("query.blocks_stat_answered").value > 0


def test_perf_cold_scan(benchmark, cold_pair):
    """Narrow range queries over the cold tier: block-granular reads.

    Results are identical to the row twin, but the columnar tables'
    per-block zone maps bound the read to the overlapping block span —
    disk points read (and hence read amplification) must drop.
    """
    cold_stream, row_engine, cold_engine = cold_pair
    row_snap = row_engine.snapshot()
    cold_snap = cold_engine.snapshot()
    hi_all = float(cold_stream.tg.max())
    rng = np.random.default_rng(2)
    windows = rng.uniform(0.1, 0.9, 64) * hi_all

    def scan():
        disk_read = 0
        skipped = 0
        results = 0
        for lo in windows:
            stats = execute_range_query(cold_snap, lo, lo + 5000.0)
            disk_read += stats.disk_points_read
            skipped += stats.blocks_skipped
            results += stats.result_points
        return disk_read, skipped, results

    cold_disk, cold_skipped, cold_results = benchmark(scan)
    row_disk = 0
    row_results = 0
    for lo in windows:
        stats = execute_range_query(row_snap, lo, lo + 5000.0)
        row_disk += stats.disk_points_read
        row_results += stats.result_points
    benchmark.extra_info["row_disk_points"] = row_disk
    benchmark.extra_info["cold_disk_points"] = cold_disk
    benchmark.extra_info["blocks_skipped"] = cold_skipped
    assert cold_results == row_results > 0
    assert cold_skipped > 0
    # Whole-file reads versus block spans: at least 10x fewer points.
    assert cold_disk * 10 <= row_disk


def test_perf_snapshot_cached(benchmark, stream):
    """Repeated snapshots of a quiescent engine hit the epoch cache."""
    engine = ConventionalEngine(LsmConfig(512, 512))
    engine.ingest(stream.tg)
    engine.flush_all()

    def snapshots():
        last = None
        for _ in range(512):
            last = engine.snapshot()
        return last

    snapshot = benchmark(snapshots)
    assert snapshot is engine.snapshot()


def _fleet_rounds(fleet_data, chunk=1000):
    """Lock-step ingest rounds over a heterogeneous fleet workload."""
    longest = max(len(ds) for ds in fleet_data.values())
    rounds = []
    for pos in range(0, longest, chunk):
        batch = [
            (name, ds.tg[pos : pos + chunk], ds.ta[pos : pos + chunk])
            for name, ds in fleet_data.items()
            if pos < len(ds)
        ]
        rounds.append(batch)
    return rounds


def test_perf_sharded_ingest(benchmark):
    """The sharded front-end: route, split and group-commit a fleet batch.

    Measures the serving tier's batched ingest path (routing + per-shard
    write loop) against the raw single-database path, so routing overhead
    regressions surface here.
    """
    from repro.serving import ShardedDatabase
    from repro.workloads import generate_fleet

    fleet_data = generate_fleet(
        n_series=8, points_per_series=12_500, disordered_fraction=0.5, seed=7
    )
    rounds = _fleet_rounds(fleet_data, chunk=2500)

    def ingest():
        fleet = ShardedDatabase(
            n_shards=4, memory_budget_per_series=512, sstable_size=512
        )
        total = 0
        for batch in rounds:
            total += fleet.ingest_batch(batch)
        fleet.flush_all()
        return fleet, total

    fleet, total = benchmark(ingest)
    assert total == sum(len(ds) for ds in fleet_data.values())
    assert len(fleet) == len(fleet_data)


#: ``(sigma, mu - log dt)`` of the system benchmark's eight disordered
#: series (``benchmarks/system/workloads.py::DISORDERED_CELLS``) and what
#: Algorithm 1 decides for each at a 512-point budget; the other eight
#: series of its fleet have sub-interval uniform jitter and stay pi_c.
_FLEET_CELLS = (
    (2.2, -0.5, "s"), (2.2, 0.5, "s"), (1.2, 0.0, "c"), (1.95, 0.0, "s"),
    (1.95, 1.0, "s"), (1.45, -0.5, "c"), (1.7, -1.0, "c"), (1.7, 1.0, "s"),
)


def test_perf_fleet_retune(benchmark):
    """``fleet.retune()`` over the system benchmark's sixteen series —
    what ``core.tuning.retune_s`` times inside every ``setup_s``.

    Asserted in counts, not seconds: the regime (five series separate,
    three disordered ones and the eight in-order ones do not) and the
    tuner's budget — one tune computes each log-CDF row at most once, so
    no more rows than the highest one a candidate reads, plus a block.
    """
    from repro import InOrderCurve, ModelConfig, UniformDelay
    from repro.core.subsequent import _BLOCK_ROWS
    from repro.serving import ShardedDatabase

    dt, budget, points = 1000.0, 512, 16_384
    rng = np.random.default_rng(51)
    data, expected = {}, {}
    for index in range(16):
        name = f"series-{index:04d}"
        if index < len(_FLEET_CELLS):
            sigma, offset, policy = _FLEET_CELLS[index]
            delay = LogNormalDelay(mu=np.log(dt) + offset, sigma=sigma)
        else:
            delay, policy = UniformDelay(low=0.0, high=0.5 * dt), "c"
        data[name] = generate_synthetic(
            points, dt=dt, delay=delay, seed=int(rng.integers(0, 2**31)), name=name
        )
        expected[name] = policy
    fleet = ShardedDatabase(
        n_shards=4, memory_budget_per_series=budget, sstable_size=512
    )
    for batch in _fleet_rounds(data, chunk=2048):
        fleet.ingest_batch(batch, sync=False)

    benchmark(fleet.retune)

    for name, policy in expected.items():
        state = fleet.database_for(name).series(name)
        decision = state.decision
        assert state.policy_label.startswith("pi_s" if policy == "s" else "pi_c"), name
        profile = state.analyzer.profile()
        curve = InOrderCurve(profile.distribution, profile.dt)
        phases = [  # Eq. 4: the buffer sizes zeta was asked for
            k * (budget - k) / g + (budget - k)
            for k in decision.sweep_n_seq.tolist()
            if (g := curve.g(k)) >= 1e-9
        ]
        highest = round(max(phases, default=budget)) + ModelConfig().dense_terms
        assert 0 < decision.rows_computed <= highest + _BLOCK_ROWS, name


def test_perf_arbiter_rebalance(benchmark):
    """Online arbitration: decision latency, and it must beat equal split.

    Runs the same skewed fleet (hot disordered cohort at 4x the arrival
    rate) through a static equal-split fleet and an arbitrated one, then
    benchmarks the arbiter's re-solve.  The asserted outcome is the
    subsystem's reason to exist: following the workload with the memory
    yields strictly lower total write amplification than the static
    split of the same budget.
    """
    from repro.core.allocation import MemoryArbiter, SeriesWorkload
    from repro.serving import ShardedDatabase
    from repro.workloads import generate_fleet

    fleet_data = generate_fleet(
        n_series=8,
        points_per_series=4000,
        disordered_fraction=0.5,
        hot_fraction=0.25,
        hot_rate_multiplier=4,
        seed=11,
    )
    rounds = _fleet_rounds(fleet_data, chunk=1000)
    candidates = (32, 64, 128, 256)
    total_budget = 64 * len(fleet_data)

    def run_fleet(arbiter):
        fleet = ShardedDatabase(
            n_shards=4,
            memory_budget_per_series=64,
            sstable_size=32,
            auto_tune=True,
            arbiter=arbiter,
        )
        for batch in rounds:
            fleet.ingest_batch(batch)
        fleet.flush_all()
        writes = points = 0
        for name in fleet.series_names():
            stats = fleet.database_for(name).series(name).engine.stats
            writes += stats.disk_writes
            points += stats.user_points
        return fleet, writes / points

    _, static_wa = run_fleet(None)
    arbitrated, arbitrated_wa = run_fleet(
        MemoryArbiter(
            total_budget=total_budget,
            candidate_budgets=candidates,
            decision_interval=4000,
            min_observations=512,
        )
    )
    benchmark.extra_info["static_wa"] = static_wa
    benchmark.extra_info["arbitrated_wa"] = arbitrated_wa
    assert arbitrated.last_rebalance is not None
    assert arbitrated_wa < static_wa

    # The online hot path: re-solve the fleet's budgets from the live
    # delay profiles (what every due decision costs at ingest time).
    workloads = []
    current = {}
    for name in arbitrated.series_names():
        state = arbitrated.database_for(name).series(name)
        profile = state.analyzer.profile()
        workloads.append(
            SeriesWorkload(
                name=name,
                delay=profile.distribution,
                dt=profile.dt,
                rate=float(state.analyzer.observed_points),
            )
        )
        current[name] = state.config.memory_budget
    solver = MemoryArbiter(
        total_budget=total_budget, candidate_budgets=candidates
    )

    def decide():
        return solver.decide(workloads, current_budgets=current)

    decision = benchmark(decide)
    assert decision.allocations


@pytest.fixture(scope="module")
def federated_fleet():
    """A 4-shard fleet and its unsharded twin, loaded and flushed.

    Small SSTables (256 points) over 8x100k points: hundreds of tables
    per series, answered from each run's per-table columns.
    """
    from repro.lsm.database import TimeSeriesDatabase
    from repro.serving import ShardedDatabase

    fleet = ShardedDatabase(
        n_shards=4, memory_budget_per_series=2048, sstable_size=256
    )
    reference = TimeSeriesDatabase(
        memory_budget_per_series=2048, sstable_size=256
    )
    for index in range(8):
        data = generate_synthetic(
            100_000, dt=_DT, delay=_DELAY, seed=40 + index
        )
        name = f"sensor-{index:02d}"
        fleet.write(name, data.tg)
        reference.write(name, data.tg)
    fleet.flush_all()
    reference.flush_all()
    return fleet, reference


def _federated_vs_reference(benchmark, federated, reference):
    """Time the in-process federated call beside the unsharded fold it
    must equal, alternating so a slow spell hits both alike, and gate
    the ratio: routing, per-shard caching keys and the canonical fold
    may cost at most half again what one database costs."""
    federated()
    federated_s = reference_s = float("inf")
    for _ in range(15):
        reference_s = min(reference_s, _best_seconds(reference, rounds=1))
        federated_s = min(federated_s, _best_seconds(federated, rounds=1))
    result = benchmark(federated)
    benchmark.extra_info["federated_ms"] = round(federated_s * 1e3, 3)
    benchmark.extra_info["reference_ms"] = round(reference_s * 1e3, 3)
    benchmark.extra_info["federated_over_reference"] = round(
        federated_s / reference_s, 3
    )
    assert federated_s <= 1.5 * reference_s, (
        f"federated {federated_s * 1e3:.3f}ms is more than 1.5x the "
        f"unsharded fold {reference_s * 1e3:.3f}ms"
    )
    return result


def test_perf_federated_agg(benchmark, federated_fleet):
    """Fleet-wide federated aggregate, in process, cache off.

    The exactness contract is asserted unconditionally: the federated
    answer — float ``total`` included — equals the serial single-
    database fold bit for bit, and costs at most 1.5x that fold.
    """
    from repro.query import aggregate_over_series

    fleet, reference = federated_fleet
    result = _federated_vs_reference(
        benchmark,
        lambda: fleet.query_aggregate(use_cache=False),
        lambda: aggregate_over_series(reference),
    )
    assert result == aggregate_over_series(reference)  # bitwise, float sum included


def test_perf_federated_collect(benchmark, federated_fleet):
    """Fleet-wide collected range scan, in process, cache off.

    The heavy half of federation: per-series row collection and the
    stable k-way merge in ``t_g`` order over 800k rows.  The merged
    rows must be identical to the serial single-database scan, at no
    more than 1.5x its cost.
    """
    from repro.query import scan_over_series

    fleet, reference = federated_fleet
    stats = _federated_vs_reference(
        benchmark,
        lambda: fleet.query_range(collect=True, use_cache=False),
        lambda: scan_over_series(reference, collect=True),
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
    from repro.distributions import UniformDelay
    from repro.serving import ShardedDatabase

    fleet = ShardedDatabase(
        n_shards=4, memory_budget_per_series=512, sstable_size=128
    )
    names = [f"sensor-{index:02d}" for index in range(16)]
    tails = {}
    for index, name in enumerate(names):
        data = generate_synthetic(
            _AGG_POINTS + tail_points,
            dt=_DT,
            delay=UniformDelay(0.0, 20 * _DT),
            seed=70 + index,
        )
        fleet.write(name, data.tg[:_AGG_POINTS])
        tails[name] = data.tg[_AGG_POINTS:]
        if index % 2:
            fleet.database_for(name).series(name).engine.convert_cold(block_size=32)
    span = _AGG_POINTS * _DT
    rng = np.random.default_rng(3)
    windows = [(lo, lo + 0.1 * span) for lo in rng.uniform(0.0, 0.9 * span, 64)]
    return fleet, sorted(names), windows, tails


def _walk_answers(fleet, names, windows):
    """Every window answered by the index-less per-table walk, folded
    in canonical order — the reference the fleet must equal bit for bit."""
    from repro.lsm.base import Snapshot
    from repro.query.merge import merge_aggregates

    walks = [
        Snapshot(tables=snap.tables, memtables=snap.memtables)
        for snap in (fleet.snapshot(name) for name in names)
    ]
    return [
        merge_aggregates(
            [execute_aggregate_query(snap, lo, hi) for snap in walks], lo, hi
        )
        for lo, hi in windows
    ]


def test_perf_fleet_agg_wide(benchmark):
    """Fleet-wide 10%-span aggregates: run columns vs the table walk.

    16 series of ~800 tables each, every other series columnar — the
    ``q_fleet_agg`` class of the system benchmark's ``read_storm``.  A
    window covers ~80 tables per series; the indexed path answers for
    them from slices of each run's per-table columns (one binary search
    per edge, two boundary tables read), the ``index=None`` walk tests
    every table's range and visits each covered one.  Through the
    ``FederatedExecutor`` (cache off) the fleet must answer every window
    bit for bit like the walk folded in canonical order, at least 3x
    faster.
    """
    fleet, names, windows, _ = _fleet_agg_fleet()
    assert all(len(fleet.snapshot(name).tables) >= 800 for name in names)

    def summaries():
        return [
            fleet.query_aggregate(None, lo, hi, use_cache=False)
            for lo, hi in windows
        ]

    def walk():
        return _walk_answers(fleet, names, windows)

    expected = walk()
    summaries()
    # Alternate the two so a slow spell hits both sides alike.
    walk_s = fast_s = float("inf")
    for _ in range(5):
        walk_s = min(walk_s, _best_seconds(walk, rounds=1))
        fast_s = min(fast_s, _best_seconds(summaries, rounds=1))
    results = benchmark(summaries)
    assert results == expected  # every field, float total included
    assert all(r.tables_pruned >= 16 * 70 for r in results)
    benchmark.extra_info["walk_ms"] = round(walk_s * 1e3, 3)
    benchmark.extra_info["summaries_ms"] = round(fast_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(walk_s / fast_s, 2)
    assert walk_s >= 3 * fast_s, (
        f"fleet aggregates {fast_s * 1e3:.2f}ms not 3x below the "
        f"index-less walk {walk_s * 1e3:.2f}ms"
    )


def test_perf_fleet_agg_live(benchmark):
    """The same aggregates on a fleet that is written between reads.

    Before every round of 16 fleet-wide aggregates each series lands one
    MemTable (512 points: a flush, often an overlap merge near the
    tail), as on the system benchmark's ``mixed_live``.  A landing
    invalidates every read cache of its series; what the next read pays
    for that must be what the landing changed — a snapshot, the run's
    lists handed over as they are, sums of the four new tables — not a
    rebuilt index, so a live round may cost at most twice a round on the
    quiescent fleet (the round run again right after, nothing landed in
    between).  Answers equal the index-less walk bit for bit.
    """
    rounds, landing = 6, 512
    fleet, names, windows, tails = _fleet_agg_fleet(tail_points=2 * rounds * landing)
    windows = windows[:16]
    landed = iter(range(0, 2 * rounds * landing, landing))

    def land():
        pos = next(landed)
        for name in names:
            fleet.write(name, tails[name][pos : pos + landing])

    def aggregates():
        return [
            fleet.query_aggregate(None, lo, hi, use_cache=False)
            for lo, hi in windows
        ]

    aggregates()
    live_s = static_s = float("inf")
    for _ in range(rounds):
        land()
        live_s = min(live_s, _best_seconds(aggregates, rounds=1))
        static_s = min(static_s, _best_seconds(aggregates, rounds=1))
    results = benchmark.pedantic(aggregates, setup=land, rounds=rounds, iterations=1)
    assert results == _walk_answers(fleet, names, windows)
    assert all(r.tables_pruned >= 16 * 70 for r in results)
    benchmark.extra_info["live_ms"] = round(live_s * 1e3, 3)
    benchmark.extra_info["static_ms"] = round(static_s * 1e3, 3)
    benchmark.extra_info["live_over_static"] = round(live_s / static_s, 2)
    assert live_s <= 2 * static_s, (
        f"aggregates after a landing {live_s * 1e3:.2f}ms more than 2x "
        f"the quiescent fleet's {static_s * 1e3:.2f}ms"
    )
