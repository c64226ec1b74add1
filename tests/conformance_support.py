"""Shared harness for the engine-conformance golden fixture.

The fixture (``tests/data/conformance_golden.json``) was recorded from
the pre-policy-kernel engine implementations.  It pins, per engine and
per workload, every observable the refactor must preserve bit-for-bit:

* write-amplification accounting (user points, disk writes, per-point
  write-count digest),
* the full compaction event log (digested),
* merged telemetry totals (counters and gauges) and the span/event
  stream (digested, timing fields stripped),
* the post-drain snapshot content (digested table-by-table).

``profile_engine`` drives an engine through a workload using only the
public API (constructor, ``ingest``, ``flush_all``, ``snapshot``), so
the same code produced the fixture and verifies the refactor.

``tests/data/conformance_scheduled_golden.json`` pins the *paced* path
the same way: every engine over the same workloads with the compaction
scheduler on (``SCHEDULED_CONFIG``), recording the event log *including*
its ``arrival_index`` stamps, the snapshot, the per-point write counters
and the scheduler's lifetime counters (the adaptive engine: its switch
log instead — a policy switch starts a fresh scheduler) — so a change to
the unit structure of a scheduled landing (which moves token-bucket
pacing, and with it the stamps) fails here.

Regenerate (only when behaviour is *meant* to change) with::

    PYTHONPATH=src:tests python tests/conformance_support.py [--scheduled]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from repro.config import LsmConfig
from repro.lsm.adaptive import AdaptiveEngine
from repro.lsm.conventional import ConventionalEngine
from repro.lsm.iotdb_style import IoTDBStyleEngine
from repro.lsm.multilevel import MultiLevelEngine
from repro.lsm.separation import SeparationEngine
from repro.lsm.tiered import TieredEngine
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.workloads import TABLE_II

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "data", "conformance_golden.json")
SCHEDULED_FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "conformance_scheduled_golden.json"
)

#: Small enough to run in seconds, large enough to trigger cascades,
#: tier merges and adaptive retunes for every engine configuration.
N_POINTS = 6000
CHUNK = 937
CONFIG = LsmConfig(memory_budget=64, sstable_size=32)

#: The paced twin of ``CONFIG``: a work unit smaller than one SSTable
#: pair and a bucket that runs dry, so merges really are chunked and
#: landings really are deferred across batches.
SCHEDULED_CONFIG = CONFIG.with_stability(
    compaction_scheduler=True,
    compaction_work_unit=32,
    compaction_tokens_per_point=1.0,
    compaction_burst=128,
)

#: Table II rows exercised: one mild-disorder row (dt=50) and one
#: heavy-disorder row (dt=10).
WORKLOADS = ("M1", "M8")

#: Engine key -> zero-state factory.  Constructor signatures are part of
#: the conformance surface and must not change across the refactor.
ENGINE_FACTORIES = {
    "conventional": lambda t, c=CONFIG: ConventionalEngine(c, telemetry=t),
    "separation": lambda t, c=CONFIG: SeparationEngine(c, telemetry=t),
    "iotdb_conventional": lambda t, c=CONFIG: IoTDBStyleEngine(
        c, policy="conventional", l1_file_limit=4, telemetry=t
    ),
    "iotdb_separation": lambda t, c=CONFIG: IoTDBStyleEngine(
        c, policy="separation", l1_file_limit=4, telemetry=t
    ),
    "multilevel": lambda t, c=CONFIG: MultiLevelEngine(
        c, size_ratio=4, max_levels=4, telemetry=t
    ),
    "tiered": lambda t, c=CONFIG: TieredEngine(
        c, tier_fanout=3, max_levels=4, telemetry=t
    ),
    "adaptive": lambda t, c=CONFIG: AdaptiveEngine(
        c, check_interval=512, telemetry=t
    ),
}

#: The set the scheduled fixture covers.
SCHEDULED_ENGINES = tuple(ENGINE_FACTORIES)

#: Read-path conformance set: every first-class engine above plus two
#: composed triples no monolithic engine implements (separation-style
#: split placement grafted onto tiered and multilevel structures).  The
#: pruned query path must be bit-identical to a full scan on all of
#: them (``tests/test_query_pruning.py``).
def _composed_factory(placement, compaction):
    from repro.lsm.policies.compose import compose_engine

    return lambda t: compose_engine(
        placement, compaction=compaction, config=CONFIG, telemetry=t
    )


PRUNING_ENGINE_FACTORIES = {
    **ENGINE_FACTORIES,
    "composed_split_tiered": _composed_factory("split", "tiered"),
    "composed_split_multilevel": _composed_factory("split", "multilevel"),
}

#: Stamp fields on telemetry events that carry wall-clock timing and are
#: legitimately non-deterministic.
_TIMING_FIELDS = ("seq", "ts_ms", "duration_ms")


def _digest(payload) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _event_stream_digest(events: list[dict]) -> str:
    stripped = []
    for event in events:
        item = {k: v for k, v in event.items() if k not in _TIMING_FIELDS}
        stripped.append(item)
    return _digest(stripped)


def snapshot_digest(snapshot) -> dict:
    hasher = hashlib.sha256()
    for table in snapshot.tables:
        hasher.update(np.ascontiguousarray(table.tg).tobytes())
        hasher.update(np.ascontiguousarray(table.ids).tobytes())
        hasher.update(b"|")
    for view in snapshot.memtables:
        hasher.update(view.name.encode())
        hasher.update(np.ascontiguousarray(view.tg).tobytes())
        hasher.update(b"|")
    return {
        "tables": len(snapshot.tables),
        "disk_points": int(snapshot.disk_points),
        "memory_points": int(snapshot.memory_points),
        "content_sha256": hasher.hexdigest(),
    }


def _drive(engine, workload: str) -> None:
    """Feed ``workload`` in ``CHUNK``-point batches, then drain."""
    dataset = TABLE_II[workload].build(n_points=N_POINTS, seed=3)
    adaptive = isinstance(engine, AdaptiveEngine)
    for pos in range(0, len(dataset), CHUNK):
        chunk_tg = dataset.tg[pos : pos + CHUNK]
        if adaptive:
            engine.ingest(chunk_tg, dataset.ta[pos : pos + CHUNK])
        else:
            engine.ingest(chunk_tg)
    engine.flush_all()


def accounting_profile(engine) -> dict:
    """WA accounting, event log, write counters and snapshot, digested."""
    stats = engine.stats
    return {
        "user_points": int(stats.user_points),
        "disk_writes": int(stats.disk_writes),
        "write_amplification": float(stats.write_amplification),
        "flush_events": sum(1 for e in stats.events if e.kind == "flush"),
        "merge_events": sum(1 for e in stats.events if e.kind == "merge"),
        "event_log_digest": _digest(
            [
                [
                    e.kind,
                    e.arrival_index,
                    e.new_points,
                    e.rewritten_points,
                    e.tables_rewritten,
                    e.tables_written,
                ]
                for e in stats.events
            ]
        ),
        "write_counts_digest": hashlib.sha256(
            np.ascontiguousarray(stats.write_counts).tobytes()
        ).hexdigest(),
        "snapshot": snapshot_digest(engine.snapshot()),
    }


def profile_engine(engine_key: str, workload: str) -> dict:
    """Run ``engine_key`` over ``workload`` and capture every observable."""
    sink = RingBufferSink(capacity=200_000)
    telemetry = Telemetry(sinks=[sink])
    engine = ENGINE_FACTORIES[engine_key](telemetry)
    _drive(engine, workload)
    registry = telemetry.registry.as_dict()
    profile = {
        **accounting_profile(engine),
        "telemetry_counters": {
            name: value for name, value in sorted(registry.get("counters", {}).items())
        },
        "telemetry_gauges": {
            name: value for name, value in sorted(registry.get("gauges", {}).items())
        },
        "telemetry_stream_digest": _event_stream_digest(list(sink.events)),
    }
    if isinstance(engine, IoTDBStyleEngine):
        profile["foreground_ms"] = round(engine.foreground_ms, 9)
        profile["background_ms"] = round(engine.background_ms, 9)
    if isinstance(engine, AdaptiveEngine):
        profile["switches"] = [[int(i), label] for i, label in engine.switch_log]
        profile["decisions"] = len(engine.decision_log)
        profile["current_policy"] = engine.current_policy
    return profile


def profile_scheduled(engine_key: str, workload: str) -> dict:
    """``engine_key`` over ``workload`` with the scheduler pacing its
    landings: what landed, *when* (event stamps), and the unit counts."""
    engine = ENGINE_FACTORIES[engine_key](None, SCHEDULED_CONFIG)
    _drive(engine, workload)
    profile = accounting_profile(engine)
    if isinstance(engine, AdaptiveEngine):
        # A switch starts a fresh scheduler, so lifetime counters would
        # describe only the last policy; where it switched is pinned.
        profile["switches"] = [[int(i), label] for i, label in engine.switch_log]
        return profile
    scheduler = engine.scheduler
    profile["scheduler"] = {
        "submitted": scheduler.submitted,
        "completed": scheduler.completed,
        "total_work_points": scheduler.total_work_points,
        "max_batch_work_points": scheduler.max_batch_work_points,
    }
    return profile


def _build(profile, engine_keys) -> dict:
    return {
        "n_points": N_POINTS,
        "chunk": CHUNK,
        "config": {
            "memory_budget": CONFIG.memory_budget,
            "sstable_size": CONFIG.sstable_size,
        },
        "profiles": {
            engine_key: {
                workload: profile(engine_key, workload) for workload in WORKLOADS
            }
            for engine_key in engine_keys
        },
    }


def build_fixture() -> dict:
    return _build(profile_engine, ENGINE_FACTORIES)


def build_scheduled_fixture() -> dict:
    return _build(profile_scheduled, SCHEDULED_ENGINES)


def load_fixture(path: str = FIXTURE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    scheduled = "--scheduled" in sys.argv[1:]
    path = SCHEDULED_FIXTURE_PATH if scheduled else FIXTURE_PATH
    fixture = build_scheduled_fixture() if scheduled else build_fixture()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
