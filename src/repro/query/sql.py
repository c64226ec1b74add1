"""A minimal SQL dialect for time-range queries.

The paper writes its query workloads as SQL::

    SELECT * FROM TS WHERE time > (max_time - window)
    SELECT * FROM TS WHERE time > rand_value AND time < rand_value + window

This module parses that dialect — ``SELECT`` of ``*`` or a single
aggregate, with conjunctive ``time`` bounds — and executes it against
an engine snapshot, a :class:`~repro.lsm.database.TimeSeriesDatabase`,
or a federated :class:`~repro.serving.ShardedDatabase`, so examples and
downstream users can drive the query layer with the paper's own
statements.

Grammar (case-insensitive keywords)::

    SELECT (* | COUNT(*) | MIN(time) | MAX(time) | AVG(time) | SUM(time))
    FROM (<identifier>[, <identifier>...] | *)
    [WHERE time <op> <number> [AND time <op> <number>]]

with ``<op>`` one of ``>``, ``>=``, ``<``, ``<=``.  ``FROM a, b``
queries several series and ``FROM *`` queries every registered series —
both need a database target (a bare snapshot has no series catalogue);
against a ``ShardedDatabase`` they run through the federation layer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from ..errors import QueryError
from ..lsm.base import Snapshot
from .aggregation import execute_aggregate_query
from .executor import execute_range_query

__all__ = ["ParsedQuery", "parse_query", "execute_sql"]

_IDENT = r"[a-z_][a-z0-9_.-]*"

_QUERY_RE = re.compile(
    rf"""
    ^\s*select\s+
    (?P<select>\*|count\(\*\)|min\(time\)|max\(time\)|avg\(time\)|sum\(time\))
    \s+from\s+(?P<series>\*|{_IDENT}(?:\s*,\s*{_IDENT})*)
    (?:\s+where\s+(?P<where>.+?))?\s*;?\s*$
    """,
    re.IGNORECASE | re.VERBOSE,
)

_CONDITION_RE = re.compile(
    r"^\s*time\s*(?P<op>>=|<=|>|<)\s*(?P<value>[-+0-9.eE]+)\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class ParsedQuery:
    """A validated time-range query."""

    #: ``"*"``, ``"count"``, ``"min"``, ``"max"``, ``"avg"`` or ``"sum"``.
    select: str
    #: First named series, or ``"*"`` for a fleet-wide query.
    series: str
    lo: float
    hi: float
    #: Every named series, in statement order (empty for ``FROM *``).
    names: tuple[str, ...] = field(default=())


def parse_query(sql: str) -> ParsedQuery:
    """Parse one statement of the supported dialect."""
    match = _QUERY_RE.match(sql)
    if match is None:
        raise QueryError(f"cannot parse query: {sql!r}")
    select = match.group("select").lower()
    for kind in ("count", "min", "max", "avg", "sum"):
        if select.startswith(kind):
            select = kind
            break
    lo, hi = -math.inf, math.inf
    where = match.group("where")
    if where is not None:
        conditions = re.split(r"\s+and\s+", where, flags=re.IGNORECASE)
        if len(conditions) > 2:
            raise QueryError(
                f"at most two time conditions are supported, got {len(conditions)}"
            )
        for condition in conditions:
            parsed = _CONDITION_RE.match(condition)
            if parsed is None:
                raise QueryError(f"cannot parse condition: {condition!r}")
            op = parsed.group("op")
            try:
                value = float(parsed.group("value"))
            except ValueError as exc:
                raise QueryError(
                    f"bad number in condition: {condition!r}"
                ) from exc
            # A strict bound is the closed bound at the next float
            # beyond the value: exact at every magnitude.
            if op == ">":
                lo = max(lo, math.nextafter(value, math.inf))
            elif op == ">=":
                lo = max(lo, value)
            elif op == "<":
                hi = min(hi, math.nextafter(value, -math.inf))
            else:
                hi = min(hi, value)
    if hi < lo:
        raise QueryError(f"contradictory time bounds in: {sql!r}")
    raw = match.group("series")
    if raw == "*":
        names: tuple[str, ...] = ()
        first = "*"
    else:
        names = tuple(part.strip() for part in raw.split(","))
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate series in FROM clause: {raw!r}")
        first = names[0]
    return ParsedQuery(select=select, series=first, lo=lo, hi=hi, names=names)


def _aggregate_scalar(result, select: str):
    """Pull the selected scalar out of an aggregate result."""
    if select == "count":
        return result.count
    if select == "min":
        return result.minimum
    if select == "max":
        return result.maximum
    if select == "sum":
        return result.total
    return result.mean


def execute_sql(target, sql: str, collect: bool = False):
    """Parse and run ``sql`` against ``target``.

    ``target`` is a bare engine :class:`~repro.lsm.base.Snapshot`
    (single-series statements only — there is no catalogue to resolve
    ``FROM a, b`` or ``FROM *`` against), a
    :class:`~repro.lsm.database.TimeSeriesDatabase` (multi-series
    statements fold serially in canonical order), or a
    :class:`~repro.serving.ShardedDatabase` (statements run through the
    federation layer).

    ``SELECT *`` returns :class:`~repro.query.QueryStats` (pass
    ``collect=True`` for the rows); aggregates return the scalar value.
    The answer is the same bits whichever target holds the points.
    """
    parsed = parse_query(sql)
    lo = parsed.lo
    hi = parsed.hi
    if isinstance(target, Snapshot):
        if parsed.series == "*" or len(parsed.names) != 1:
            raise QueryError(
                "multi-series SELECT needs a database target, not a snapshot"
            )
        if parsed.select == "*":
            return execute_range_query(target, lo, hi, collect=collect)
        return _aggregate_scalar(
            execute_aggregate_query(target, lo, hi), parsed.select
        )
    names = None if parsed.series == "*" else list(parsed.names)
    # Imported here: the serving tier sits above the query layer.
    from ..serving.database import ShardedDatabase

    if isinstance(target, ShardedDatabase):
        if parsed.select == "*":
            return target.query_range(names, lo, hi, collect=collect)
        return _aggregate_scalar(
            target.query_aggregate(names, lo, hi), parsed.select
        )
    from .merge import aggregate_over_series, scan_over_series

    if parsed.select == "*":
        return scan_over_series(target, names, lo, hi, collect=collect)
    return _aggregate_scalar(
        aggregate_over_series(target, names, lo, hi), parsed.select
    )
