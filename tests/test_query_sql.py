"""Tests for the SQL-dialect query front end."""

import math

import numpy as np
import pytest

from repro import ConventionalEngine, LsmConfig, QueryError
from repro.lsm.database import TimeSeriesDatabase
from repro.query.sql import execute_sql, parse_query
from repro.serving import ShardedDatabase


@pytest.fixture()
def snapshot():
    engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
    engine.ingest(np.arange(100, dtype=np.float64))
    engine.flush_all()
    return engine.snapshot()


class TestParsing:
    def test_paper_recent_query_form(self):
        parsed = parse_query("SELECT * FROM TS WHERE time > 900")
        assert parsed.select == "*"
        assert parsed.series == "TS"
        assert parsed.lo == pytest.approx(900.0)
        assert math.isinf(parsed.hi)

    def test_paper_historical_query_form(self):
        parsed = parse_query(
            "SELECT * FROM TS WHERE time > 100 AND time < 200"
        )
        assert parsed.lo == pytest.approx(100.0)
        assert parsed.hi == pytest.approx(200.0)

    def test_aggregates_and_case_insensitivity(self):
        assert parse_query("select count(*) from ts").select == "count"
        assert parse_query("SELECT MIN(time) FROM ts").select == "min"
        assert parse_query("Select Avg(Time) From ts;").select == "avg"

    def test_inclusive_operators(self):
        parsed = parse_query("SELECT * FROM ts WHERE time >= 5 AND time <= 9")
        assert parsed.lo == 5.0
        assert parsed.hi == 9.0

    @pytest.mark.parametrize(
        "bad",
        [
            "DROP TABLE ts",
            "SELECT value FROM ts",
            "SELECT * FROM ts WHERE speed > 3",
            "SELECT * FROM ts WHERE time > 1 AND time < 2 AND time > 0",
            "SELECT * FROM ts WHERE time > banana",
            "SELECT * FROM ts WHERE time > 10 AND time < 5",
        ],
    )
    def test_rejects_out_of_dialect(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestExecution:
    def test_select_star_counts(self, snapshot):
        stats = execute_sql(
            snapshot, "SELECT * FROM ts WHERE time >= 10 AND time <= 19"
        )
        assert stats.result_points == 10

    def test_strict_bounds_exclude_endpoints(self, snapshot):
        stats = execute_sql(
            snapshot, "SELECT * FROM ts WHERE time > 10 AND time < 19"
        )
        assert stats.result_points == 8

    def test_recent_form_clamps_to_max(self, snapshot):
        stats = execute_sql(snapshot, "SELECT * FROM ts WHERE time > 89")
        assert stats.result_points == 10  # 90..99

    def test_collect_rows(self, snapshot):
        stats = execute_sql(
            snapshot,
            "SELECT * FROM ts WHERE time >= 3 AND time <= 5",
            collect=True,
        )
        assert list(stats.rows) == [3.0, 4.0, 5.0]

    def test_aggregates(self, snapshot):
        where = "WHERE time >= 10 AND time <= 19"
        assert execute_sql(snapshot, f"SELECT COUNT(*) FROM ts {where}") == 10
        assert execute_sql(snapshot, f"SELECT MIN(time) FROM ts {where}") == 10.0
        assert execute_sql(snapshot, f"SELECT MAX(time) FROM ts {where}") == 19.0
        assert execute_sql(
            snapshot, f"SELECT AVG(time) FROM ts {where}"
        ) == pytest.approx(14.5)

    def test_unbounded_query_covers_everything(self, snapshot):
        assert execute_sql(snapshot, "SELECT COUNT(*) FROM ts") == 100

    @pytest.mark.parametrize("base", [1e8, 1.7e12])
    def test_strict_bounds_hold_at_real_time_scales(self, base):
        # A fixed 1e-9 nudge vanished in rounding from |t| ~ 1.7e7 on,
        # so ``>`` and ``<`` kept the endpoint at real timestamp scales.
        tg = np.array([base, base + 1000.0, base + 2000.0])
        engine = ConventionalEngine(LsmConfig(memory_budget=16, sstable_size=16))
        engine.ingest(tg)
        db = TimeSeriesDatabase(memory_budget_per_series=16, sstable_size=16)
        db.write("s", tg)
        fleet = ShardedDatabase(n_shards=2, memory_budget_per_series=16, sstable_size=16)
        fleet.write("s", tg)
        mid = f"{base + 1000.0!r}"
        assert parse_query(f"SELECT * FROM s WHERE time > {mid}").lo > base + 1000.0
        assert parse_query(f"SELECT * FROM s WHERE time < {mid}").hi < base + 1000.0
        for target in (engine.snapshot(), db, fleet):
            for op, count in ((">", 1), ("<", 1), (">=", 2), ("<=", 2)):
                where = f"WHERE time {op} {mid}"
                assert execute_sql(target, f"SELECT COUNT(*) FROM s {where}") == count, op
                stats = execute_sql(target, f"SELECT * FROM s {where}", collect=True)
                assert stats.result_points == count, op
            both = f"WHERE time > {base!r} AND time < {base + 2000.0!r}"
            assert execute_sql(target, f"SELECT MIN(time) FROM s {both}") == base + 1000.0
