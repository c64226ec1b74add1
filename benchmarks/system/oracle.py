"""Answer checking, independent of the program's read path.

Every check recomputes the expected answer by brute force over the
arrival-ordered arrays the benchmark generated — boolean masks over the
ingested prefix, ``math.fsum`` for sums — and never consults an engine
snapshot, index or cache.  A mismatch is returned as one line of text;
the caller counts it as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np
from repro.errors import InvariantViolation

#: One query in 40 is re-answered by brute force (deterministic stride).
SAMPLE_STRIDE = 40


def _selected(data, names, prefix: dict[str, int], lo: float, hi: float) -> np.ndarray:
    parts = []
    for name in names:
        tg = data[name].tg[: prefix[name]]
        parts.append(tg[(tg >= lo) & (tg <= hi)])
    return np.concatenate(parts)


def check_query(data, all_names, prefix: dict[str, int], query, result) -> str | None:
    """Compare one answer with brute force over the ingested prefix.

    ``prefix[name]`` is how many arrivals of ``name`` had been ingested
    when the query ran.  Returns ``None`` when the answer is right.
    """
    cls, names, lo, hi = query
    series = sorted(all_names) if names is None else [names]
    inside = _selected(data, series, prefix, lo, hi)
    if cls in ("q_recent", "q_hist_rows"):
        if result.result_points != inside.size:
            return f"{cls} [{lo}, {hi}]: {result.result_points} rows, expected {inside.size}"
        if cls == "q_hist_rows" and not np.array_equal(result.rows, np.sort(inside)):
            return f"{cls} [{lo}, {hi}]: collected rows differ from the sorted selection"
        return None
    if result.count != inside.size:
        return f"{cls} [{lo}, {hi}]: count {result.count}, expected {inside.size}"
    if inside.size == 0:
        return None
    if result.minimum != inside.min() or result.maximum != inside.max():
        return f"{cls} [{lo}, {hi}]: min/max {result.minimum}/{result.maximum} wrong"
    expected = math.fsum(inside.tolist())
    if not math.isclose(result.total, expected, rel_tol=1e-12, abs_tol=0.0):
        return f"{cls} [{lo}, {hi}]: sum {result.total!r}, expected {expected!r}"
    return None


def fleet_engines(fleet):
    """``(name, engine)`` for every series of a sharded fleet."""
    for db in fleet.shards:
        for name in db.series_names():
            yield name, db.series(name).engine


def check_fleet(fleet, expected_points: dict[str, int], reported_wa: float) -> list[str]:
    """Engine invariants, per-series point counts and the WA identity.

    Every engine must pass ``verify()`` and hold exactly the points the
    benchmark handed it; fleet WA recomputed from the per-event log
    (``stats.events``) must equal the ``reported_wa`` taken from the
    running counters.
    """
    problems: list[str] = []
    event_writes = 0
    user_points = 0
    for name, engine in fleet_engines(fleet):
        try:
            engine.verify()
        except InvariantViolation as exc:
            problems.append(f"{name}: verify() failed: {exc}")
        if engine.ingested_points != expected_points[name]:
            problems.append(
                f"{name}: holds {engine.ingested_points} points, "
                f"expected {expected_points[name]}"
            )
        event_writes += sum(e.new_points + e.rewritten_points for e in engine.stats.events)
        user_points += engine.stats.user_points
    if user_points == 0 or event_writes / user_points != reported_wa:
        problems.append(
            f"write amplification from stats.events "
            f"({event_writes}/{user_points}) != reported {reported_wa!r}"
        )
    return problems


def check_recovered(fleet, expected_points: dict[str, int]) -> list[str]:
    """A recovered fleet holds every acknowledged-and-synced point."""
    problems = [
        f"{name}: recovered {engine.ingested_points} points, "
        f"expected {expected_points[name]}"
        for name, engine in fleet_engines(fleet)
        if engine.ingested_points != expected_points.get(name)
    ]
    recovered = {name for name, _ in fleet_engines(fleet)}
    problems += [f"{name}: missing after recovery" for name in expected_points
                 if name not in recovered]
    total = sum(expected_points.values())
    count = fleet.query_aggregate(None).count
    if count != total:
        problems.append(f"recovered fleet-wide count {count}, expected {total}")
    return problems
