"""Tests for cross-shard query federation.

The load-bearing property is *exactness*: a federated range/aggregate
query over a sharded fleet must return the same bits — float ``sum``
included — as the same query over one unsharded
:class:`~repro.lsm.database.TimeSeriesDatabase` holding the same
points.  The matrix below pins it across three engine policy triples,
both router modes, row and columnar tiers, and three ingest stages.
On top of exactness: the single-series fast path (zero reads on other
shards), the epoch-keyed federation cache (per-shard invalidation),
per-shard telemetry attribution, and multi-series reads written as the
paper's SQL statements.
"""

import math
import pickle

import numpy as np
import pytest

from repro.distributions import ExponentialDelay, UniformDelay
from repro.errors import EngineError, QueryError
from repro.lsm.database import TimeSeriesDatabase
from repro.obs.telemetry import Telemetry
from repro.query.aggregation import AggregateResult, execute_aggregate_query
from repro.query.executor import execute_range_query
from repro.query.merge import (
    aggregate_over_series,
    canonical_series_order,
    merge_aggregates,
    merge_range_stats,
    scan_over_series,
)
from repro.serving import FederationCache, ShardRouter, ShardedDatabase, shard_name
from repro.workloads import generate_synthetic
from tests.fleet_support import lockstep_rounds

_DB_KWARGS = dict(memory_budget_per_series=64, sstable_size=32)


def _datasets(names, n_points=900, disordered=True, base_seed=23):
    delay = (
        ExponentialDelay(mean=40.0) if disordered else UniformDelay(0.0, 0.5)
    )
    return {
        name: generate_synthetic(
            n_points, dt=1.0, delay=delay, seed=base_seed + index, name=name
        )
        for index, name in enumerate(names)
    }


def _build_pair(mode, router, names, datasets, telemetry=None):
    """A fleet and an unsharded reference fed identical sub-streams."""
    auto_tune = mode == "tuned"
    fleet = ShardedDatabase(
        router=router, auto_tune=auto_tune, telemetry=telemetry, **_DB_KWARGS
    )
    reference = TimeSeriesDatabase(auto_tune=auto_tune, **_DB_KWARGS)
    if mode == "pi_s":
        for name in names:
            fleet.database_for(name).create_series(name, seq_capacity=16)
            reference.create_series(name, seq_capacity=16)
    return fleet, reference


def _feed(fleet, reference, rounds, mode):
    """Yield (stage, ...) checkpoints while both sides ingest lock-step."""
    retune_at = len(rounds) // 2
    for rnd, batch in enumerate(rounds):
        fleet.ingest_batch(batch, sync=False)
        for entry in batch:
            reference.write(entry[0], entry[1], *entry[2:])
        if mode == "tuned" and rnd + 1 == retune_at:
            fleet.retune(min_observations=256)
            reference.retune(min_observations=256)
        if rnd + 1 == retune_at:
            yield "mid-ingest"
    yield "pre-flush"
    fleet.flush_all()
    reference.flush_all()
    yield "post-flush"


def _windows(datasets):
    tg_all = np.concatenate([ds.tg for ds in datasets.values()])
    lo, hi = float(tg_all.min()), float(tg_all.max())
    span = hi - lo
    return [
        (-math.inf, math.inf),
        (lo + 0.2 * span, lo + 0.7 * span),
        (lo + 0.55 * span, hi + 1.0),
    ]


def _assert_range_equal(fed, ref):
    assert fed.result_points == ref.result_points
    assert fed.disk_points_read == ref.disk_points_read
    assert fed.files_touched == ref.files_touched
    assert fed.memtable_points_scanned == ref.memtable_points_scanned
    assert fed.tables_pruned == ref.tables_pruned
    assert fed.tables_consulted == ref.tables_consulted
    assert fed.blocks_skipped == ref.blocks_skipped
    if ref.rows is None:
        assert fed.rows is None
    else:
        assert np.array_equal(fed.rows, ref.rows)
        assert np.array_equal(fed.row_ids, ref.row_ids)


class TestFederatedEquality:
    """Federated == unsharded, bitwise, across the whole matrix."""

    MODES = ("pi_c", "pi_s", "tuned")

    def _router(self, routing, n_shards=3):
        if routing == "hash":
            return ShardRouter(n_shards)
        return ShardRouter(
            n_shards, mode="range", boundaries=["series-02", "series-04"]
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("routing", ("hash", "range"))
    @pytest.mark.parametrize("tier", ("row", "columnar"))
    def test_matches_unsharded_database(self, mode, routing, tier):
        names = [f"series-{i:02d}" for i in range(6)]
        datasets = _datasets(names)
        rounds = lockstep_rounds(datasets, 300, with_ta=(mode == "tuned"))
        router = self._router(routing)
        fleet, reference = _build_pair(mode, router, names, datasets)
        windows = _windows(datasets)
        subset = [names[4], names[0], names[3]]  # explicit caller order
        stages = []
        for stage in _feed(fleet, reference, rounds, mode):
            stages.append(stage)
            if tier == "columnar" and stage == "post-flush":
                for db in [reference, *fleet.shards]:
                    for name in db.series_names():
                        db.series(name).engine.convert_cold()
            for lo, hi in windows:
                fed_agg = fleet.query_aggregate(lo=lo, hi=hi)
                ref_agg = aggregate_over_series(reference, lo=lo, hi=hi)
                assert fed_agg == ref_agg, (stage, lo, hi)
                assert isinstance(fed_agg, AggregateResult)
                fed_sub = fleet.query_aggregate(subset, lo=lo, hi=hi)
                ref_sub = aggregate_over_series(reference, subset, lo=lo, hi=hi)
                assert fed_sub == ref_sub, (stage, lo, hi)
                _assert_range_equal(
                    fleet.query_range(lo=lo, hi=hi, collect=True),
                    scan_over_series(reference, lo=lo, hi=hi, collect=True),
                )
            if tier == "columnar" and stage == "post-flush":
                # The cold tier actually answered from block statistics.
                full = fleet.query_aggregate()
                assert full.blocks_stat_answered > 0
        assert stages == ["mid-ingest", "pre-flush", "post-flush"]

    def test_unknown_series_raises(self):
        fleet = ShardedDatabase(n_shards=2, **_DB_KWARGS)
        with pytest.raises(EngineError):
            fleet.query_aggregate(["ghost"])

    def test_duplicate_series_rejected(self):
        fleet = ShardedDatabase(n_shards=2, **_DB_KWARGS)
        fleet.write("a", np.array([1.0, 2.0]))
        with pytest.raises(QueryError):
            fleet.query_range(["a", "a"])


class TestSingleSeriesFastPath:
    def test_only_owner_shard_reads(self):
        telemetry = Telemetry(sinks=[])
        fleet = ShardedDatabase(n_shards=4, telemetry=telemetry, **_DB_KWARGS)
        names = [f"s{i:02d}" for i in range(8)]
        datasets = _datasets(names, n_points=300)
        for name in names:
            fleet.write(name, datasets[name].tg)
        target = names[0]
        owner = shard_name(fleet.shard_of(target))
        stats = fleet.query_range(target, collect=True)
        direct = execute_range_query(
            fleet.snapshot(target), -math.inf, math.inf, collect=True
        )
        _assert_range_equal(stats, direct)
        reads = telemetry.registry.shard_values("query.count")
        assert reads.get(owner) == 1
        assert all(
            count == 0 for shard, count in reads.items() if shard != owner
        )
        registry = telemetry.registry
        assert registry.counter("federation.single_shard").value == 1
        assert registry.counter("federation.shards_pruned").value == 3

    def test_aggregate_fast_path_prunes_other_shards(self):
        telemetry = Telemetry(sinks=[])
        fleet = ShardedDatabase(n_shards=4, telemetry=telemetry, **_DB_KWARGS)
        names = [f"s{i:02d}" for i in range(8)]
        datasets = _datasets(names, n_points=300)
        for name in names:
            fleet.write(name, datasets[name].tg)
        target = names[3]
        owner = shard_name(fleet.shard_of(target))
        result = fleet.query_aggregate(target)
        direct = execute_aggregate_query(
            fleet.snapshot(target), -math.inf, math.inf
        )
        assert result == direct
        aggregates = telemetry.registry.shard_values("query.aggregate_count")
        assert aggregates.get(owner) == 1
        assert all(
            count == 0 for shard, count in aggregates.items() if shard != owner
        )


class TestFederationCache:
    def _loaded_fleet(self, n_shards=4):
        telemetry = Telemetry(sinks=[])
        fleet = ShardedDatabase(
            n_shards=n_shards, telemetry=telemetry, **_DB_KWARGS
        )
        # Pick series names until every shard owns at least two, so no
        # cache row is vacuous.
        names = []
        owned = {index: 0 for index in range(n_shards)}
        for i in range(200):
            candidate = f"s{i:03d}"
            index = fleet.shard_of(candidate)
            if owned[index] < 2:
                owned[index] += 1
                names.append(candidate)
            if all(count == 2 for count in owned.values()):
                break
        assert all(count == 2 for count in owned.values())
        datasets = _datasets(names, n_points=300)
        for name in names:
            fleet.write(name, datasets[name].tg)
        return fleet, telemetry, names, datasets

    def test_flush_invalidates_only_that_shard(self):
        fleet, telemetry, names, _ = self._loaded_fleet()
        registry = telemetry.registry
        first = fleet.query_aggregate()
        second = fleet.query_aggregate()
        assert second == first
        hits = registry.shard_values("federation.cache_hits")
        assert hits == {shard_name(i): 1 for i in range(fleet.n_shards)}
        victim = 1
        fleet.shards[victim].flush_all()
        third = fleet.query_aggregate()
        # A flush changes scan metadata (tables pruned/scanned) but can
        # never change the answer itself.
        assert (third.count, third.minimum, third.maximum, third.total) == (
            first.count, first.minimum, first.maximum, first.total
        )
        hits = registry.shard_values("federation.cache_hits")
        for index in range(fleet.n_shards):
            expected = 1 if index == victim else 2
            assert hits[shard_name(index)] == expected, shard_name(index)
        misses = registry.shard_values("federation.cache_misses")
        assert misses[shard_name(victim)] == 2

    def test_write_invalidates_owner_entry(self):
        fleet, telemetry, names, datasets = self._loaded_fleet()
        fleet.query_aggregate()
        target = names[0]
        owner = fleet.shard_of(target)
        fleet.write(target, datasets[target].tg[:50] + 1000.0)
        fleet.query_aggregate()
        hits = telemetry.registry.shard_values("federation.cache_hits")
        assert hits.get(shard_name(owner), 0) == 0
        assert all(
            hits[shard_name(i)] == 1
            for i in range(fleet.n_shards)
            if i != owner
        )

    def test_use_cache_false_bypasses(self):
        fleet, telemetry, _, _ = self._loaded_fleet(n_shards=2)
        baseline = fleet.query_aggregate(use_cache=False)
        again = fleet.query_aggregate(use_cache=False)
        assert again == baseline
        assert telemetry.registry.shard_values("federation.cache_hits") == {}

    def test_nan_bounds_rejected_before_the_cache(self):
        # NaN != NaN: every NaN-bounded key used to be a fresh cache
        # slot (evicting a live entry), holding a silently wrong answer.
        fleet, _, names, _ = self._loaded_fleet(n_shards=2)
        nan = math.nan
        good = fleet.query_aggregate(None, 0.0, 100.0)
        fleet.query_range(names[0], 0.0, 100.0)
        cached = len(fleet.federation.cache)
        assert cached > 0
        for lo, hi in ((0.0, nan), (nan, 0.0), (nan, nan)):
            with pytest.raises(QueryError, match="NaN"):
                fleet.query_aggregate(None, lo, hi)
            with pytest.raises(QueryError, match="NaN"):
                fleet.query_aggregate(names[:3], lo, hi, use_cache=False)
            for collect in (False, True):
                with pytest.raises(QueryError, match="NaN"):
                    fleet.query_range(names[0], lo, hi, collect=collect)
        assert len(fleet.federation.cache) == cached
        assert fleet.query_aggregate(None, 0.0, 100.0) == good
        # Open-ended windows are still fine, and cached like any other.
        assert fleet.query_aggregate(None, -math.inf, math.inf).count == 300 * len(names)
        assert len(fleet.federation.cache) > cached

    def test_non_real_bounds_are_query_errors(self):
        # They used to escape as raw TypeErrors from the first comparison
        # ('<=' not supported) or from hashing the cache key (an array).
        fleet, _, names, _ = self._loaded_fleet(n_shards=2)
        snapshot = fleet.snapshot(names[0])
        for bad in (None, "1", [1.0], np.asarray([1.0, 2.0]), np.asarray(1.0), 1j):
            for lo, hi in ((bad, 5.0), (1.0, bad), (bad, bad)):
                with pytest.raises(QueryError, match="real"):
                    fleet.query_aggregate(None, lo, hi)
                with pytest.raises(QueryError, match="real"):
                    fleet.query_range(names[0], lo, hi, collect=True, use_cache=False)
                with pytest.raises(QueryError, match="real"):
                    execute_aggregate_query(snapshot, lo, hi)
                with pytest.raises(QueryError, match="real"):
                    execute_range_query(snapshot, lo, hi)
                with pytest.raises(QueryError, match="real"):
                    snapshot.index.overlapping(lo, hi)
        assert len(fleet.federation.cache) == 0

    def test_every_spelling_of_a_window_shares_one_cache_slot(self):
        fleet, telemetry, names, _ = self._loaded_fleet(n_shards=2)
        first = fleet.query_aggregate(None, 1, 50)
        slots = len(fleet.federation.cache)
        for lo, hi in ((1.0, 50.0), (np.float32(1), np.int64(50)), (np.int8(1), np.float64(50))):
            again = fleet.query_aggregate(None, lo, hi)
            assert again == first
            assert type(again.lo) is float and type(again.hi) is float
        # A truth value is no spelling of a number, Python's or NumPy's.
        for bound in (True, np.bool_(True)):
            with pytest.raises(QueryError, match="real numbers"):
                fleet.query_aggregate(None, bound, 50)
        assert len(fleet.federation.cache) == slots
        hits = telemetry.registry.shard_values("federation.cache_hits")
        assert hits == {shard_name(i): 3 for i in range(fleet.n_shards)}
        zero = fleet.query_range(names[0], 0.0, 10.0)
        assert fleet.query_range(names[0], -0.0, 10).result_points == zero.result_points
        assert len(fleet.federation.cache) == slots + 1
        assert type(fleet.query_range(names[0], 0, 10, collect=True).lo) is float
        # The executors normalise for their direct callers too: numpy
        # scalars (windows drawn from an array) search as plain floats.
        snapshot = fleet.snapshot(names[0])
        direct = execute_aggregate_query(snapshot, np.float64(1), np.int32(50))
        assert (type(direct.lo), type(direct.hi)) == (float, float)
        assert direct == execute_aggregate_query(snapshot, 1.0, 50.0)
        with pytest.raises(QueryError, match="float range"):
            execute_range_query(snapshot, 0, 10**400)

    def test_cache_is_bounded_lru(self):
        # While there is room every store is kept; once full, the least
        # recently used entry makes way for a key on its second miss.
        cache = FederationCache(max_entries=2)
        cache.store(("k", 0), (0,), [0])
        cache.store(("k", 1), (0,), [1])
        assert len(cache) == 2
        assert cache.lookup(("k", 0), (0,)) == [0]  # ("k", 1) is now the LRU
        cache.store(("k", 2), (0,), [2])
        assert len(cache) == 2 and cache.lookup(("k", 2), (0,)) is None
        cache.store(("k", 2), (0,), [2])
        assert len(cache) == 2
        assert cache.lookup(("k", 2), (0,)) == [2]
        assert cache.lookup(("k", 1), (0,)) is None
        assert cache.lookup(("k", 0), (0,)) == [0]
        assert cache.lookup(("k", 2), (1,)) is None  # stale version
        with pytest.raises(ValueError):
            FederationCache(max_entries=0)

    @staticmethod
    def _full_cache(max_entries=4):
        cache = FederationCache(max_entries=max_entries)
        for index in range(max_entries):
            cache.store(("full", index), (0,), [index])
        assert len(cache) == max_entries
        return cache

    def test_a_re_read_key_survives_one_off_keys(self):
        cache = self._full_cache()
        for index in range(4 * cache.max_entries + 4):
            cache.store(("once", index), (0,), [index])
            if index % 5 == 0:
                assert cache.lookup(("full", 0), (0,)) == [0]
        assert cache.lookup(("full", 0), (0,)) == [0]
        assert len(cache) == cache.max_entries
        assert all(cache.lookup(("once", index), (0,)) is None for index in range(20))

    def test_a_key_first_seen_when_full_enters_on_its_second_miss(self):
        cache = self._full_cache()
        key = ("panel", 7)
        cache.store(key, (0,), ["first"])
        assert cache.lookup(key, (0,)) is None
        for index in range(4 * cache.max_entries - 1):  # still remembered
            cache.store(("once", index), (0,), [index])
        cache.store(key, (0,), ["second"])
        assert cache.lookup(key, (0,)) == ["second"]
        assert cache.lookup(("full", 0), (0,)) is None  # the LRU made way
        assert len(cache) == cache.max_entries

    def test_a_stale_cached_key_is_replaced_when_full(self):
        cache = self._full_cache()
        cache.store(("full", 2), (1,), ["fresh"])
        assert cache.lookup(("full", 2), (1,)) == ["fresh"]
        assert cache.lookup(("full", 2), (0,)) is None
        assert len(cache) == cache.max_entries
        assert all(cache.lookup(("full", i), (0,)) == [i] for i in (0, 1, 3))

    def test_remembered_keys_are_bounded(self):
        cache = self._full_cache(max_entries=2)
        bound = 4 * cache.max_entries
        for index in range(5 * bound):
            cache.store(("once", index), (0,), [index])
            assert len(cache._seen) <= bound
        assert len(cache._seen) == bound
        # The oldest first sightings are forgotten: a second miss of one
        # is a first sighting again; a recent one's enters.
        cache.store(("once", 0), (0,), [0])
        assert cache.lookup(("once", 0), (0,)) is None
        cache.store(("once", 5 * bound - 1), (0,), ["again"])
        assert cache.lookup(("once", 5 * bound - 1), (0,)) == ["again"]
        cache.clear()
        assert len(cache) == 0 and len(cache._seen) == 0

    def test_use_cache_false_leaves_entries_and_remembered_keys_alone(self):
        fleet, _, names, _ = self._loaded_fleet(n_shards=2)
        fleet.federation.cache = cache = FederationCache(max_entries=2)
        for lo in (0.0, 10.0, 20.0):
            fleet.query_aggregate(None, lo, lo + 5.0)
        entries, seen = list(cache._entries), list(cache._seen)
        assert len(entries) == 2 and seen
        for lo in (30.0, 30.0, 40.0, 0.0):
            fleet.query_aggregate(None, lo, lo + 5.0, use_cache=False)
            fleet.query_range(names[0], lo, lo + 5.0, use_cache=False)
        assert (list(cache._entries), list(cache._seen)) == (entries, seen)

    def test_a_re_read_window_hits_among_one_off_windows(self):
        # The read_storm pattern in small: one panel asked for again and
        # again among many windows asked for once, through a cache a
        # fraction of their number.  An LRU keeps evicting the panel.
        fleet, telemetry, names, _ = self._loaded_fleet(n_shards=2)
        fleet.federation.cache = FederationCache(max_entries=4)
        registry = telemetry.registry
        panel = [names[0], names[1]]
        for k in range(60):
            fleet.query_aggregate(None, float(k), k + 0.5)
            if k % 6 == 5:
                fleet.query_aggregate(panel, 100.0, 200.0)
        hits = sum(registry.shard_values("federation.cache_hits").values())
        assert hits >= 8  # ten panel reads: all but the first two hit

    def test_retune_resplit_invalidates(self):
        # A retune re-splits the series' one engine: its fresh MemTables
        # start again at version zero, but ``rebind`` bumps the structure
        # epoch, which never goes back on that object — so the entry
        # cached before the retune cannot alias the state after it.
        telemetry = Telemetry(sinks=[])
        fleet = ShardedDatabase(
            n_shards=2, auto_tune=True, telemetry=telemetry, **_DB_KWARGS
        )
        names = [f"s{i:02d}" for i in range(4)]
        datasets = _datasets(names, n_points=600)
        for name in names:
            fleet.write(name, datasets[name].tg, datasets[name].ta)
        before = fleet.query_aggregate()
        switched = fleet.retune(min_observations=256)
        assert switched  # the disordered series must actually switch
        after = fleet.query_aggregate()
        assert (after.count, after.minimum, after.maximum, after.total) == (
            before.count, before.minimum, before.maximum, before.total
        )
        hits = telemetry.registry.shard_values("federation.cache_hits")
        assert hits == {}  # every shard retuned => no entry survived


class TestShardAttribution:
    def test_shard_counters_sum_to_the_unsharded_twin(self):
        fleet_bus = Telemetry(sinks=[])
        twin_bus = Telemetry(sinks=[])
        fleet = ShardedDatabase(n_shards=4, telemetry=fleet_bus, **_DB_KWARGS)
        twin = TimeSeriesDatabase(**_DB_KWARGS)
        names = [f"s{i:02d}" for i in range(8)]
        for name, dataset in _datasets(names, n_points=400).items():
            fleet.write(name, dataset.tg)
            twin.write(name, dataset.tg)
        for lo, hi in [(-math.inf, math.inf), (100.0, 500.0)]:
            assert fleet.query_aggregate(
                lo=lo, hi=hi, use_cache=False
            ) == aggregate_over_series(twin, lo=lo, hi=hi, telemetry=twin_bus)
            _assert_range_equal(
                fleet.query_range(lo=lo, hi=hi, collect=True, use_cache=False),
                scan_over_series(
                    twin, lo=lo, hi=hi, collect=True, telemetry=twin_bus
                ),
            )
        # Every read is recorded under its shard's label, once: the
        # labelled counters add up to what one database counts.
        for counter in ("query.count", "query.result_points"):
            by_shard = fleet_bus.registry.shard_values(counter)
            assert set(by_shard) == {shard_name(index) for index in range(4)}
            assert sum(by_shard.values()) == twin_bus.registry.counter(counter).value
        # One latency observation per involved shard per uncached query.
        for index in range(4):
            latency = fleet_bus.registry.histogram(
                f'federation.shard_latency_ms{{shard="{shard_name(index)}"}}'
            )
            assert latency.count == 4


class TestScatterPool:
    # Named for the pool it once also drove; kept so the test keeps its id.
    def test_recovered_fleet_federates(self, tmp_path):
        fleet = ShardedDatabase(
            n_shards=3, durability_dir=str(tmp_path), **_DB_KWARGS
        )
        names = [f"s{i:02d}" for i in range(6)]
        datasets = _datasets(names, n_points=300)
        for name in names:
            fleet.write(name, datasets[name].tg)
        expected = fleet.query_aggregate(use_cache=False)
        fleet.checkpoint_all()
        revived = ShardedDatabase.recover(str(tmp_path))
        assert revived.query_aggregate() == expected


class TestSqlFederation:
    # Named for the SQL front-end these reads once went through; kept so
    # the tests keep their ids.  Each window is the statement beside it.
    def test_sharded_and_unsharded_sql_agree(self):
        names = [f"series-{i:02d}" for i in range(6)]
        datasets = _datasets(names, n_points=600)
        fleet = ShardedDatabase(n_shards=3, auto_tune=False, **_DB_KWARGS)
        reference = TimeSeriesDatabase(auto_tune=False, **_DB_KWARGS)
        for name in names:
            fleet.write(name, datasets[name].tg)
            reference.write(name, datasets[name].tg)
        windows = [
            # SELECT COUNT(*) FROM *
            (None, -math.inf, math.inf),
            # SELECT SUM(time) FROM * WHERE time > 100
            (None, math.nextafter(100.0, math.inf), math.inf),
            # SELECT AVG(time) FROM series-00, series-03 WHERE time <= 400
            (["series-00", "series-03"], -math.inf, 400.0),
            # SELECT MIN(time) FROM series-05
            (["series-05"], -math.inf, math.inf),
            # SELECT MAX(time) FROM * WHERE time >= 50 AND time < 800
            (None, 50.0, math.nextafter(800.0, -math.inf)),
        ]
        for names, lo, hi in windows:
            fed = fleet.query_aggregate(names, lo, hi)
            assert fed == aggregate_over_series(reference, names, lo, hi), (lo, hi)
            assert fed.count > 0
        # SELECT * FROM *
        _assert_range_equal(
            fleet.query_range(None, collect=True),
            scan_over_series(reference, None, collect=True),
        )

    def test_sum_is_bitwise_float_sum(self):
        db = TimeSeriesDatabase(auto_tune=False, **_DB_KWARGS)
        rng = np.random.default_rng(3)
        values = {}
        for name in ("a", "b"):
            tg = np.sort(rng.uniform(0.0, 1.0, 500))
            db.write(name, tg)
            values[name] = tg
        expected = 0.0
        for name in sorted(values):
            expected += float(
                execute_aggregate_query(
                    db.snapshot(name), -math.inf, math.inf
                ).total
            )
        assert aggregate_over_series(db, None).total == expected


class TestMergeUnits:
    def test_merge_aggregates_empty(self):
        merged = merge_aggregates([], 0.0, 1.0)
        assert merged.count == 0
        assert math.isnan(merged.minimum) and math.isnan(merged.maximum)
        assert merged.total == 0.0

    def test_merge_skips_empty_partial_extrema(self):
        empty = AggregateResult(
            lo=0.0, hi=1.0, count=0, minimum=math.nan, maximum=math.nan,
            total=0.0, tables_scanned=0, tables_pruned=0,
        )
        full = AggregateResult(
            lo=0.0, hi=1.0, count=3, minimum=0.25, maximum=0.75,
            total=1.5, tables_scanned=1, tables_pruned=2,
        )
        merged = merge_aggregates([empty, full, empty], 0.0, 1.0)
        assert merged.count == 3
        assert merged.minimum == 0.25 and merged.maximum == 0.75
        assert merged.tables_pruned == 2

    def test_aggregate_result_is_an_immutable_value(self):
        assert AggregateResult._fields == (
            "lo", "hi", "count", "minimum", "maximum", "total",
            "tables_scanned", "tables_pruned", "blocks_stat_answered", "blocks_skipped",
        )
        assert AggregateResult._field_defaults == {
            "blocks_stat_answered": 0, "blocks_skipped": 0,
        }
        full = AggregateResult(0.0, 1.0, 3, 0.25, 0.75, 1.5, 1, 2)
        for field in AggregateResult._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(full, field, 5)
        assert full.mean == 0.5
        assert (full.blocks_stat_answered, full.blocks_skipped) == (0, 0)
        empty = AggregateResult(0.0, 1.0, 0, math.nan, math.nan, 0.0, 0, 0)
        assert math.isnan(empty.mean)
        same = AggregateResult(
            lo=0.0, hi=1.0, count=3, minimum=0.25, maximum=0.75,
            total=1.5, tables_scanned=1, tables_pruned=2,
        )
        assert same == full and hash(same) == hash(full) and len({same, full}) == 1
        assert full._replace(total=1.25) != full
        assert full._replace(total=1.25).total == 1.25 and full.total == 1.5
        for value in (full, empty):
            back = pickle.loads(pickle.dumps(value))
            assert type(back) is AggregateResult
            assert [repr(x) for x in back] == [repr(x) for x in value]
        assert back.count == 0 and math.isnan(back.minimum)

    def test_merge_range_rejects_mixed_collection(self):
        db = TimeSeriesDatabase(**_DB_KWARGS)
        db.write("a", np.arange(10.0))
        snapshot = db.snapshot("a")
        collected = execute_range_query(snapshot, 0.0, 9.0, collect=True)
        metrics = execute_range_query(snapshot, 0.0, 9.0, collect=False)
        with pytest.raises(QueryError):
            merge_range_stats([collected, metrics], 0.0, 9.0)

    def test_collect_over_zero_series_is_empty_arrays(self, tmp_path):
        # A fresh or freshly recovered empty fleet used to answer
        # rows=None here, and an empty window over a loaded one arrays.
        fleet = ShardedDatabase(n_shards=2, durability_dir=str(tmp_path))
        fleet.checkpoint_all()
        revived = ShardedDatabase.recover(str(tmp_path))
        reference = TimeSeriesDatabase()
        answers = [
            fleet.query_range(collect=True),
            revived.query_range(collect=True, use_cache=False),
            scan_over_series(reference, collect=True),
        ]
        for stats in answers:
            assert stats.result_points == 0 and len(stats.rows) == 0
            assert stats.rows.dtype == np.float64
            assert stats.row_ids.dtype == np.int64 and len(stats.row_ids) == 0
        for metrics_only in (fleet.query_range(), scan_over_series(reference)):
            assert metrics_only.rows is None and metrics_only.row_ids is None

    def test_canonical_order(self):
        db = TimeSeriesDatabase(**_DB_KWARGS)
        for name in ("c", "a", "b"):
            db.write(name, np.arange(4.0))
        assert canonical_series_order(db, None) == ["a", "b", "c"]
        assert canonical_series_order(db, "b") == ["b"]
        assert canonical_series_order(db, ["c", "a"]) == ["c", "a"]
        with pytest.raises(QueryError):
            canonical_series_order(db, [])


class _PinnedSet(frozenset):
    """A set that iterates in a pinned order — what some hash seed would
    have picked; the interpreter's own order is not a test input."""

    def __new__(cls, order):
        self = super().__new__(cls, order)
        self._order = tuple(order)
        return self

    def __iter__(self):
        return iter(self._order)


class TestNamesArgument:
    """What ``names`` may be, and what it costs to get it wrong."""

    #: Four iteration orders of one twelve-name set.
    ORDERS = (
        (7, 2, 11, 0, 5, 9, 3, 8, 1, 10, 6, 4),
        (4, 6, 10, 1, 8, 3, 9, 5, 0, 11, 2, 7),
        (11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
        (0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9),  # = sorted by name
    )

    def _pair(self, n_shards=3):
        """A fleet and its unsharded twin whose per-series sums are
        inexact and of different magnitudes: the order they are added
        up in shows in the last bits of ``total``."""
        fleet = ShardedDatabase(n_shards=n_shards, auto_tune=False, **_DB_KWARGS)
        twin = TimeSeriesDatabase(auto_tune=False, **_DB_KWARGS)
        rng = np.random.default_rng(12)
        for i in range(12):
            tg = rng.uniform(0.0, 10.0 ** (i % 5), size=90)
            for db in (fleet, twin):
                db.write(f"s{i}", tg)
        return fleet, twin

    def test_a_set_is_folded_in_sorted_order(self):
        fleet, twin = self._pair()
        want = fleet.query_aggregate(sorted(f"s{i}" for i in range(12)))
        assert want == fleet.query_aggregate()
        orders = [[f"s{i}" for i in order] for order in self.ORDERS]
        # The premise: a list keeps its order, and the order matters.
        totals = {fleet.query_aggregate(order).total.hex() for order in orders}
        assert len(totals) > 1 and want.total.hex() in totals
        for order in orders:
            for names in (_PinnedSet(order), set(order), frozenset(order)):
                for got in (
                    fleet.query_aggregate(names),
                    fleet.query_aggregate(names, use_cache=False),
                    aggregate_over_series(twin, names),
                ):
                    assert got == want and got.total.hex() == want.total.hex()
                rows = fleet.query_range(names, collect=True)
                _assert_range_equal(rows, scan_over_series(twin, sorted(order), collect=True))
            assert canonical_series_order(twin, _PinnedSet(order)) == sorted(order)
            assert canonical_series_order(twin, order) == order

    HOSTILE = (5, 5.0, b"s0", bytearray(b"s0"), [["s0"]], [b"s0"], ["s0", 5], [None], {"s0", 5},
               ("s0", ("s1",)), object())

    def test_hostile_names_are_query_errors_before_anything_is_counted(self):
        telemetry = Telemetry(sinks=[])
        fleet = ShardedDatabase(n_shards=2, telemetry=telemetry, **_DB_KWARGS)
        twin = TimeSeriesDatabase(**_DB_KWARGS)
        for name in ("s0", "s1", "s2"):
            fleet.write(name, np.arange(40.0))
            twin.write(name, np.arange(40.0))
        good = fleet.query_aggregate(["s0", "s1"])
        counters = dict(telemetry.registry.as_dict()["counters"])
        cached = len(fleet.federation.cache)
        for bad in self.HOSTILE:
            calls = (
                lambda: fleet.query_aggregate(bad),
                lambda: fleet.query_aggregate(bad, 0.0, 5.0, use_cache=False),
                lambda: fleet.query_range(bad, collect=True),
                lambda: fleet.federation.query_range(bad),
                lambda: fleet.federation.query_aggregate(bad),
                lambda: aggregate_over_series(twin, bad),
                lambda: scan_over_series(twin, bad, collect=True),
                lambda: aggregate_over_series(fleet, bad),
                lambda: canonical_series_order(twin, bad),
            )
            for call in calls:
                with pytest.raises(QueryError, match="names"):
                    call()
        assert telemetry.registry.as_dict()["counters"] == counters
        assert len(fleet.federation.cache) == cached
        assert fleet.query_aggregate(["s0", "s1"]) == good
        # Still legal: any iterable of names, in the order it yields them.
        assert fleet.query_aggregate(n for n in ("s0", "s1")) == good
        assert fleet.query_aggregate(("s0", "s1")) == good
        assert fleet.query_aggregate({"s0": 1, "s1": 2}) == good

    def test_unknown_series_stay_engine_errors(self):
        fleet = ShardedDatabase(n_shards=4, **_DB_KWARGS)
        for name in ("s0", "s1", "s2"):
            fleet.write(name, np.arange(40.0))
        for names in ("ghost", ["s0", "ghost"], {"ghost"}, ("ghost",)):
            with pytest.raises(EngineError, match="unknown series 'ghost'"):
                fleet.query_aggregate(names)
            with pytest.raises(EngineError, match="unknown series 'ghost'"):
                fleet.query_range(names, collect=True)
        # Registered on a shard the router does not send the name to:
        # no write and no read by that name can reach it.
        stray = next(
            index for index in range(4) if index != fleet.shard_of("stray")
        )
        before = fleet.query_aggregate()
        fleet.shards[stray].create_series("stray")
        for names in ("stray", ["s0", "stray"], None):
            with pytest.raises(EngineError, match="unknown series 'stray'"):
                fleet.query_aggregate(names)
        assert fleet.query_aggregate(["s0", "s1", "s2"]) == before
        assert fleet.query_aggregate(["s0", "s2"]).count == 80


class _Spy:
    """Counts calls of ``owner.attr`` (a plain function on a class)."""

    def __init__(self, monkeypatch, owner, attr):
        self.calls = 0
        original = owner.__dict__[attr]

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)


class TestRoutedOncePerFleetShape:
    def test_a_quiescent_fleet_is_routed_once(self, monkeypatch):
        fleet = ShardedDatabase(n_shards=4, auto_tune=False, **_DB_KWARGS)
        names = [f"s{i:02d}" for i in range(16)]
        for i, name in enumerate(names):
            fleet.write(name, np.arange(100.0) + i)
        spies = {
            (owner.__name__, attr): _Spy(monkeypatch, owner, attr)
            for owner, attr in (
                (ShardRouter, "shard_of"),
                (ShardRouter, "split"),
                (TimeSeriesDatabase, "series"),
                (TimeSeriesDatabase, "series_names"),
            )
        }
        first = fleet.query_aggregate(None, 10.0, 60.0)
        assert first.count == sum(len(range(max(i, 10), 61)) for i in range(16))
        # Routing it cost one shard_of and one series() per name.
        routed = {key: spy.calls for key, spy in spies.items()}
        assert routed == {
            ("ShardRouter", "shard_of"): 16,
            ("ShardRouter", "split"): 0,
            ("TimeSeriesDatabase", "series"): 16,
            ("TimeSeriesDatabase", "series_names"): 4,
        }
        for k in range(99):
            lo = 10.0 + k % 40
            assert fleet.query_aggregate(None, lo, lo + 50.0, use_cache=k % 2 == 0).count
            assert fleet.query_range(names[k % 16], lo, lo + 5.0).result_points
            assert fleet.query_aggregate([names[3], names[k % 3]], lo, lo + 5.0).count
        assert {key: spy.calls for key, spy in spies.items()} == routed
        # A new series changes the fleet's shape: the next query sees it.
        everything = fleet.query_aggregate().count
        assert fleet.write("zz-new", np.arange(7.0)) == 7
        assert fleet.query_aggregate().count == everything + 7
        assert fleet.query_range("zz-new").result_points == 7
        # One shard_of to place the write, one per name to route the new shape.
        shard_of = ("ShardRouter", "shard_of")
        assert spies[shard_of].calls == routed[shard_of] + 1 + 17
