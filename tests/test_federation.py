"""Tests for cross-shard query federation.

The load-bearing property is *exactness*: a federated range/aggregate
query over a sharded fleet must return the same bits — float ``sum``
included — as the same query over one unsharded
:class:`~repro.lsm.database.TimeSeriesDatabase` holding the same
points.  The matrix below pins it across three engine policy triples,
both router modes, row and columnar tiers, and three ingest stages.
On top of exactness: the single-series fast path (zero reads on other
shards), fresh answers after every kind of change (the fleet keeps no
result cache), per-shard telemetry attribution, and multi-series reads
written as the paper's SQL statements.
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
from repro.serving import ShardRouter, ShardedDatabase, shard_name
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


def _build_pair(mode, n_shards, names, datasets, telemetry=None):
    """A fleet and an unsharded reference fed identical sub-streams."""
    auto_tune = mode == "tuned"
    fleet = ShardedDatabase(
        n_shards, auto_tune=auto_tune, telemetry=telemetry, **_DB_KWARGS
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

    @pytest.mark.parametrize("mode", MODES)
    # Two fleet widths: the equality holds over more than one partition.
    @pytest.mark.parametrize("n_shards", (3, 2), ids=("hash", "hash-2"))
    @pytest.mark.parametrize("tier", ("row", "columnar"))
    def test_matches_unsharded_database(self, mode, n_shards, tier):
        names = [f"series-{i:02d}" for i in range(6)]
        datasets = _datasets(names)
        rounds = lockstep_rounds(datasets, 300, with_ta=(mode == "tuned"))
        fleet, reference = _build_pair(mode, n_shards, names, datasets)
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


class TestFreshAnswers:
    """A fleet keeps no answers: after any change to a series, the next
    query is bitwise what the serial folds answer on the same fleet."""

    def _loaded_fleet(self, n_shards=4, durability_dir=None):
        telemetry = Telemetry(sinks=[])
        fleet = ShardedDatabase(
            n_shards=n_shards,
            telemetry=telemetry,
            durability_dir=durability_dir,
            **_DB_KWARGS,
        )
        # Pick series names until every shard owns at least two, so no
        # shard's part of a fleet-wide answer is vacuous.
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

    WINDOWS = ((-math.inf, math.inf), (40.0, 160.0), (250.0, 1400.0))

    def _answers(self, fleet, names):
        """Every window asked fleet-wide and of a cross-shard subset,
        each answer checked against the serial folds on ``fleet``."""
        subset = [names[-1], names[0], names[2]]
        answers = []
        for lo, hi in self.WINDOWS:
            for form in (None, subset, names[1]):
                got = fleet.query_aggregate(form, lo, hi)
                assert got == aggregate_over_series(fleet, form, lo, hi)
                assert got.total.hex() == aggregate_over_series(fleet, form, lo, hi).total.hex()
                rows = fleet.query_range(form, lo, hi, collect=True)
                _assert_range_equal(rows, scan_over_series(fleet, form, lo, hi, collect=True))
                answers.append((got.count, got.minimum, got.maximum, got.total))
        return answers

    def test_a_flush_changes_no_answer(self):
        fleet, _, names, _ = self._loaded_fleet()
        first = self._answers(fleet, names)
        assert self._answers(fleet, names) == first
        fleet.shards[1].flush_all()
        # A flush changes scan metadata (tables pruned/scanned) but can
        # never change the answer itself.
        assert self._answers(fleet, names) == first

    def test_an_owner_write_shows_in_the_next_answer(self):
        fleet, _, names, datasets = self._loaded_fleet()
        before = fleet.query_aggregate()
        self._answers(fleet, names)
        target = names[0]
        fleet.write(target, datasets[target].tg[:50] + 1000.0)
        self._answers(fleet, names)
        after = fleet.query_aggregate()
        assert after.count == before.count + 50
        assert after.maximum == max(before.maximum, datasets[target].tg[:50].max() + 1000.0)

    def test_nan_bounds_are_rejected(self):
        # NaN != NaN: a NaN bound selects nothing and compares with
        # nothing, so it is refused before anything runs.
        fleet, _, names, _ = self._loaded_fleet(n_shards=2)
        nan = math.nan
        good = fleet.query_aggregate(None, 0.0, 100.0)
        fleet.query_range(names[0], 0.0, 100.0)
        for lo, hi in ((0.0, nan), (nan, 0.0), (nan, nan)):
            with pytest.raises(QueryError, match="NaN"):
                fleet.query_aggregate(None, lo, hi)
            with pytest.raises(QueryError, match="NaN"):
                fleet.query_aggregate(names[:3], lo, hi)
            for collect in (False, True):
                with pytest.raises(QueryError, match="NaN"):
                    fleet.query_range(names[0], lo, hi, collect=collect)
        assert fleet.query_aggregate(None, 0.0, 100.0) == good
        # Open-ended windows are still fine.
        assert fleet.query_aggregate(None, -math.inf, math.inf).count == 300 * len(names)

    def test_non_real_bounds_are_query_errors(self):
        # They used to escape as raw TypeErrors from the first comparison
        # ('<=' not supported) or from hashing an array.
        fleet, _, names, _ = self._loaded_fleet(n_shards=2)
        snapshot = fleet.snapshot(names[0])
        for bad in (None, "1", [1.0], np.asarray([1.0, 2.0]), np.asarray(1.0), 1j):
            for lo, hi in ((bad, 5.0), (1.0, bad), (bad, bad)):
                with pytest.raises(QueryError, match="real"):
                    fleet.query_aggregate(None, lo, hi)
                with pytest.raises(QueryError, match="real"):
                    fleet.query_range(names[0], lo, hi, collect=True)
                with pytest.raises(QueryError, match="real"):
                    execute_aggregate_query(snapshot, lo, hi)
                with pytest.raises(QueryError, match="real"):
                    execute_range_query(snapshot, lo, hi)
                with pytest.raises(QueryError, match="real"):
                    snapshot.index.overlapping(lo, hi)

    def test_every_spelling_of_a_window_gets_one_answer(self):
        fleet, telemetry, names, _ = self._loaded_fleet(n_shards=2)
        first = fleet.query_aggregate(None, 1, 50)
        for lo, hi in ((1.0, 50.0), (np.float32(1), np.int64(50)), (np.int8(1), np.float64(50))):
            again = fleet.query_aggregate(None, lo, hi)
            assert again == first
            assert type(again.lo) is float and type(again.hi) is float
        # A truth value is no spelling of a number, Python's or NumPy's.
        for bound in (True, np.bool_(True)):
            with pytest.raises(QueryError, match="real numbers"):
                fleet.query_aggregate(None, bound, 50)
        assert telemetry.registry.counter("federation.queries").value == 4
        zero = fleet.query_range(names[0], 0.0, 10.0)
        assert fleet.query_range(names[0], -0.0, 10).result_points == zero.result_points
        assert type(fleet.query_range(names[0], 0, 10, collect=True).lo) is float
        # The executors normalise for their direct callers too: numpy
        # scalars (windows drawn from an array) search as plain floats.
        snapshot = fleet.snapshot(names[0])
        direct = execute_aggregate_query(snapshot, np.float64(1), np.int32(50))
        assert (type(direct.lo), type(direct.hi)) == (float, float)
        assert direct == execute_aggregate_query(snapshot, 1.0, 50.0)
        with pytest.raises(QueryError, match="float range"):
            execute_range_query(snapshot, 0, 10**400)

    def test_a_retune_resplit_changes_no_answer(self):
        # A retune re-splits the series' one engine: its fresh MemTables
        # start again at version zero, but ``rebind`` bumps the structure
        # epoch, which never goes back on that object — so the snapshot
        # taken before the retune cannot answer for the state after it.
        fleet = ShardedDatabase(n_shards=2, auto_tune=True, **_DB_KWARGS)
        names = [f"s{i:02d}" for i in range(4)]
        datasets = _datasets(names, n_points=600)
        for name in names:
            fleet.write(name, datasets[name].tg, datasets[name].ta)
        before = self._answers(fleet, names)
        switched = fleet.retune(min_observations=256)
        assert switched  # the disordered series must actually switch
        assert self._answers(fleet, names) == before

    def test_convert_cold_changes_no_answer(self):
        fleet, _, names, _ = self._loaded_fleet()
        fleet.flush_all()
        first = self._answers(fleet, names)
        for name in names:
            fleet.database_for(name).series(name).engine.convert_cold(block_size=8)
        assert self._answers(fleet, names) == first
        assert fleet.query_aggregate(None, 40.0, 160.0).blocks_stat_answered > 0

    def test_a_recovered_fleet_answers_as_before(self, tmp_path):
        fleet, _, names, datasets = self._loaded_fleet(durability_dir=str(tmp_path))
        first = self._answers(fleet, names)
        fleet.checkpoint_all()
        revived = ShardedDatabase.recover(str(tmp_path))
        assert self._answers(revived, names) == first
        # ...and the recovered fleet's answers follow its next write.
        revived.write(names[1], datasets[names[1]].tg[:20] + 2000.0)
        assert revived.query_aggregate().count == fleet.query_aggregate().count + 20
        self._answers(revived, names)


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
                lo=lo, hi=hi
            ) == aggregate_over_series(twin, lo=lo, hi=hi, telemetry=twin_bus)
            _assert_range_equal(
                fleet.query_range(lo=lo, hi=hi, collect=True),
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
        # One latency observation per involved shard per query.
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
        expected = fleet.query_aggregate()
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
            revived.query_range(collect=True),
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
        for bad in self.HOSTILE:
            calls = (
                lambda: fleet.query_aggregate(bad),
                lambda: fleet.query_aggregate(bad, 0.0, 5.0),
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
            assert fleet.query_aggregate(None, lo, lo + 50.0).count
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
