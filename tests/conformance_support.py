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

``tests/data/database_retune_golden.json`` pins the layer above: three
series through ``TimeSeriesDatabase`` with the tuner and the arbiter's
``resize_series`` changing each series' split mid-stream, checkpoints
taken, the directory recovered (``profile_database``).  It was recorded
while a retune *replaced* the series' engine object; what it holds —
accounting, label sequence, manifest, checkpoint bytes, telemetry — is
what re-splitting one engine in place must reproduce.
``tests/data/legacy_checkpoints/database_retuned/`` is a durability
directory written by that same code, with the profile it recovers to.

``tests/data/tune_golden.json`` pins Algorithm 1 itself: every
``PolicyDecision`` field, floats by ``float.hex``, for the empirical
windows a fleet retune of the system benchmark's eight disordered series
sees (``tune_profile``).

``tests/data/engine_checkpoint_golden.json`` pins what an engine writes
down about *itself*: for every engine above, the two novel triples and
the two leveled engines re-split mid-stream (``RESPLIT_CHECKPOINTS``),
mid-way through the ``M8`` stream (MemTables still hold points), the
checkpoint's ``engine`` / ``policy`` / ``config`` / ``kwargs`` / ``state``
meta and a digest per array name (``checkpoint_profile``) — the names
and layout older directories were written under.

Regenerate (only when behaviour is *meant* to change) with::

    PYTHONPATH=src:. python tests/conformance_support.py [--scheduled|--database|--checkpoints|--tunes]

``--legacy-database`` rewrites the frozen
``tests/data/legacy_checkpoints/database_retuned/`` instead; it exists
so that directory is never rewritten by re-recording the database golden.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile

import numpy as np

from repro.config import LsmConfig
from repro.core.tuning import tune_separation_policy
from repro.distributions import EmpiricalDelay, LogNormalDelay
from repro.lsm import ConventionalEngine, SeparationEngine
from repro.lsm.checkpoint import read_checkpoint
from repro.lsm.database import TimeSeriesDatabase
from repro.lsm.policies.compose import ENGINES, compose_engine
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.workloads import TABLE_II, DelaySegment, generate_dynamic
from tests.fleet_support import BENCHMARK_CELLS

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "data", "conformance_golden.json")
SCHEDULED_FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "conformance_scheduled_golden.json"
)
DATABASE_FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "database_retune_golden.json"
)
CHECKPOINT_FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "engine_checkpoint_golden.json"
)
TUNE_FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "data", "tune_golden.json")
LEGACY_DATABASE_DIR = os.path.join(
    os.path.dirname(__file__), "data", "legacy_checkpoints", "database_retuned"
)

#: Small enough to run in seconds, large enough to trigger cascades,
#: tier merges and adaptive retunes for every engine configuration.
N_POINTS = 6000
CHUNK = 937
CONFIG = LsmConfig(memory_budget=64, sstable_size=32)

#: The paced twin of ``CONFIG``: a work unit smaller than one SSTable
#: pair and a bucket that runs dry, so merges really are chunked and
#: landings really are deferred across batches.
SCHEDULED_STABILITY = dict(
    compaction_scheduler=True,
    compaction_work_unit=32,
    compaction_tokens_per_point=1.0,
    compaction_burst=128,
)
SCHEDULED_CONFIG = CONFIG.with_stability(**SCHEDULED_STABILITY)

#: Table II rows exercised: one mild-disorder row (dt=50) and one
#: heavy-disorder row (dt=10).
WORKLOADS = ("M1", "M8")

#: Engine key -> zero-state factory: every named row of the engine table
#: (``repro.lsm.policies.compose.ENGINES``) in its small shape, so a new
#: row is covered without editing a test.  The fixtures are keyed by
#: these row keys.
ENGINE_FACTORIES = {
    row.key: (lambda t, c=CONFIG, row=row: row.build(c, telemetry=t))
    for row in ENGINES
    if row.key is not None
}

#: The set the scheduled fixture covers.
SCHEDULED_ENGINES = tuple(ENGINE_FACTORIES)

#: Read-path conformance set: every first-class engine above plus two
#: composed triples no monolithic engine implements (separation-style
#: split placement grafted onto tiered and multilevel structures).  The
#: pruned query path must be bit-identical to a full scan on all of
#: them (``tests/test_query_pruning.py``).
def _composed_factory(placement, compaction):
    return lambda t: compose_engine(
        placement, compaction=compaction, config=CONFIG, telemetry=t
    )


PRUNING_ENGINE_FACTORIES = {
    **ENGINE_FACTORIES,
    "composed_split_tiered": _composed_factory("split", "tiered"),
    "composed_split_multilevel": _composed_factory("split", "multilevel"),
}

#: Policy combinations no monolithic engine implements — the open end of
#: the composition space, held to the same roundtrip/crash bar as the
#: first-class engines (``compose_engine(config=..., **spec)``).
NOVEL_COMPOSITIONS = {
    "tiered+separation": dict(
        placement="split",
        compaction="tiered",
        compaction_kwargs={"tier_fanout": 3, "max_levels": 4},
    ),
    "multilevel+separation": dict(
        placement="split",
        compaction="multilevel",
        compaction_kwargs={"size_ratio": 4, "max_levels": 4},
    ),
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


def _feed(engine, workload: str, resplit: tuple | None = None) -> None:
    """Feed ``workload`` in ``CHUNK``-point batches; with ``resplit =
    (at, seq_capacity)``, re-split the engine at the first batch
    boundary at or past arrival ``at``."""
    dataset = TABLE_II[workload].build(n_points=N_POINTS, seed=3)
    for pos in range(0, len(dataset), CHUNK):
        if resplit is not None and pos >= resplit[0]:
            assert engine.resplit(resplit[1])
            resplit = None
        # Arrival times too: only an engine with an analyzer keeps them.
        engine.ingest(dataset.tg[pos : pos + CHUNK], dataset.ta[pos : pos + CHUNK])


def _drive(engine, workload: str) -> None:
    """Feed ``workload`` in ``CHUNK``-point batches, then drain."""
    _feed(engine, workload)
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


#: The one thing re-splitting in place is meant to move: a retune no
#: longer closes a WAL handle, so it no longer forces a partial group
#: out.  Group-commit events and counters stay out of the pinned part.
_GROUP_COMMIT_COUNTERS = ("wal.group_commits", "wal.group_records")
#: Events outside the pinned stream: group commits (above), and the
#: tuner's decision records, which were added beside the fixture's
#: events and are pinned field by field in tests/test_lsm_database.py.
_UNPINNED_EVENTS = ("wal.group_commit", "db.retune_decision")


def _telemetry_profile(telemetry, sink) -> dict:
    counters = telemetry.registry.as_dict().get("counters", {})
    return {
        "telemetry_counters": {
            name: value
            for name, value in sorted(counters.items())
            if name not in _GROUP_COMMIT_COUNTERS
        },
        "telemetry_stream_digest": _event_stream_digest(
            [e for e in sink.events if e.get("type") not in _UNPINNED_EVENTS]
        ),
    }


def profile_engine(engine_key: str, workload: str) -> dict:
    """Run ``engine_key`` over ``workload`` and capture every observable."""
    sink = RingBufferSink(capacity=200_000)
    telemetry = Telemetry(sinks=[sink])
    engine = ENGINE_FACTORIES[engine_key](telemetry)
    _drive(engine, workload)
    gauges = telemetry.registry.as_dict().get("gauges", {})
    profile = {
        **accounting_profile(engine),
        **_telemetry_profile(telemetry, sink),
        "telemetry_gauges": dict(sorted(gauges.items())),
    }
    if engine.compaction.name == "iotdb":
        profile["foreground_ms"] = round(engine.compaction.foreground_ms, 9)
        profile["background_ms"] = round(engine.compaction.background_ms, 9)
    if engine.row.key == "adaptive":
        profile["switches"] = [[int(i), label] for i, label in engine.switches]
        profile["decisions"] = len(engine.decisions)
        profile["current_policy"] = engine.current_policy
    return profile


def profile_scheduled(engine_key: str, workload: str) -> dict:
    """``engine_key`` over ``workload`` with the scheduler pacing its
    landings: what landed, *when* (event stamps), and the unit counts."""
    engine = ENGINE_FACTORIES[engine_key](None, SCHEDULED_CONFIG)
    _drive(engine, workload)
    profile = accounting_profile(engine)
    if engine.row.key == "adaptive":
        # A switch starts a fresh scheduler, so lifetime counters would
        # describe only the last policy; where it switched is pinned.
        profile["switches"] = [[int(i), label] for i, label in engine.switches]
        return profile
    scheduler = engine.scheduler
    profile["scheduler"] = {
        "submitted": scheduler.submitted,
        "completed": scheduler.completed,
        "total_work_points": scheduler.total_work_points,
        "max_batch_work_points": scheduler.max_batch_work_points,
    }
    return profile


# -- database retune/resize profile ---------------------------------------------

#: The three series: mild disorder (the tuner leaves it on ``pi_c``),
#: heavy disorder (``pi_s`` from the first retune), and a delay law that
#: widens half-way (``pi_c`` -> ``pi_s(n)`` -> ``pi_s(n')``).
DATABASE_STREAMS = {
    "M1": lambda: TABLE_II["M1"].build(n_points=N_POINTS, seed=3),
    "M8": lambda: TABLE_II["M8"].build(n_points=N_POINTS, seed=3),
    "sigma_step": lambda: generate_dynamic(
        [
            DelaySegment(N_POINTS // 2, LogNormalDelay(5.0, sigma))
            for sigma in (0.5, 2.0)
        ],
        dt=50.0,
        seed=5,
    ),
}

#: ``TimeSeriesDatabase(stability=...)`` per mode: ``CONFIG`` as is, and
#: ``SCHEDULED_CONFIG`` with an 8-record group-commit WAL.
DATABASE_STABILITY = {
    "sync": {},
    "scheduled": {**SCHEDULED_STABILITY, "wal_group_records": 8},
}

DATABASE_ROUND = 500

#: What happens after round ``r`` (``DATABASE_ROUND`` points written to
#: every series; twelve rounds).  Between them the four retunes and five
#: resizes cross every edge: pi_c -> pi_s (tuner and by hand), pi_s ->
#: pi_s', pi_s -> pi_c (the tuner undoing the hand-made split), and
#: budget changes under either policy.  The last retune, resize and
#: round come after the last checkpoint, so recovery replays a WAL tail.
DATABASE_SCRIPT = {
    1: [("retune",)],
    2: [("resize", "M1", 96, 24)],
    3: [("checkpoint",)],
    4: [("retune",), ("resize", "M8", 64, 20)],
    6: [("resize", "sigma_step", 48, None)],
    7: [("retune",)],
    8: [("resize", "M8", 96, None)],
    9: [("checkpoint",)],
    10: [("retune",), ("resize", "M1", 64, None)],
}

def _checkpoint_profile(path: str) -> dict:
    """A checkpoint file as its metadata (the write statistics live in
    the arrays and the accounting profile) and a digest of its arrays."""
    meta, arrays = read_checkpoint(path)
    del meta["stats"]
    hasher = hashlib.sha256()
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        hasher.update(f"{key}:{value.dtype}:{value.shape}|".encode())
        hasher.update(value.tobytes())
    return {"meta": meta, "arrays_sha256": hasher.hexdigest()}


def _durable_profile(directory: str) -> dict:
    """The manifest (its paths are already relative to ``directory``)
    and every checkpoint it names."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    return {
        "manifest": manifest,
        "checkpoints": {
            name: _checkpoint_profile(os.path.join(directory, entry["checkpoint"]))
            for name, entry in sorted(manifest["series"].items())
        },
    }


def _series_profiles(db) -> dict:
    return {
        name: accounting_profile(db.series(name).engine)
        for name in sorted(db.series_names())
    }


def _labels(db) -> dict:
    return {name: db.series(name).policy_label for name in sorted(db.series_names())}


def drive_database(db, rounds=range(12), script=DATABASE_SCRIPT) -> list:
    """Run ``script`` against ``db``; returns, per operation,
    ``[round, op, result, {series: policy_label}]``."""
    streams = {name: build() for name, build in DATABASE_STREAMS.items()}
    log = []
    for index in rounds:
        lo = index * DATABASE_ROUND
        for name, dataset in streams.items():
            db.write(
                name,
                dataset.tg[lo : lo + DATABASE_ROUND],
                dataset.ta[lo : lo + DATABASE_ROUND],
            )
        for op, *args in script.get(index, ()):
            if op == "retune":
                result = db.retune(min_observations=256)
            elif op == "resize":
                name, budget, seq_capacity = args
                result = db.resize_series(name, budget, seq_capacity=seq_capacity)
            else:
                result = os.path.basename(db.checkpoint_all())
            log.append([index, [op, *args], result, _labels(db)])
    return log


def recovered_profile(directory: str) -> dict:
    """What ``TimeSeriesDatabase.recover`` makes of ``directory``: per
    series the label, budget and accounting as recovered (checkpoint +
    WAL tail, points still buffered) and after a drain, plus the
    recovery counters."""
    sink = RingBufferSink(capacity=200_000)
    telemetry = Telemetry(sinks=[sink])
    db = TimeSeriesDatabase.recover(directory, telemetry=telemetry)
    profile = {
        "labels": _labels(db),
        "memory_budgets": {
            name: db.series(name).engine.config.memory_budget
            for name in sorted(db.series_names())
        },
        "recovered": _series_profiles(db),
    }
    db.flush_all()
    profile["drained"] = _series_profiles(db)
    profile.update(_telemetry_profile(telemetry, sink))
    return profile


def profile_database(mode: str, directory: str | None = None) -> dict:
    """The database-level profile for ``mode`` (a ``DATABASE_STABILITY``
    key), run in ``directory`` (a temporary one by default)."""
    if directory is None:
        with tempfile.TemporaryDirectory() as scratch:
            return profile_database(mode, scratch)
    sink = RingBufferSink(capacity=200_000)
    telemetry = Telemetry(sinks=[sink])
    db = TimeSeriesDatabase(
        CONFIG.memory_budget,
        CONFIG.sstable_size,
        telemetry=telemetry,
        durability_dir=directory,
        stability=DATABASE_STABILITY[mode],
    )
    profile = {"operations": drive_database(db), "mid_stream": _series_profiles(db)}
    # The barrier before reading the directory back: group commit may
    # still hold acknowledged frames in memory.
    db.sync()
    profile["durable"] = _durable_profile(directory)
    profile["recovery"] = recovered_profile(directory)
    db.flush_all()
    profile["drained"] = _series_profiles(db)
    profile.update(_telemetry_profile(telemetry, sink))
    return profile


def build_database_fixture() -> dict:
    return {
        "n_points": N_POINTS,
        "round": DATABASE_ROUND,
        "profiles": {mode: profile_database(mode) for mode in DATABASE_STABILITY},
    }


#: The legacy directory stops at the first checkpoint (M8 retuned to
#: pi_s, M1 split by hand, sigma_step left on pi_c) plus one more round,
#: so every WAL has a tail past its checkpoint.
LEGACY_DATABASE_SCRIPT = {index: DATABASE_SCRIPT[index] for index in (1, 2, 3)}


def write_legacy_database(directory: str = LEGACY_DATABASE_DIR) -> None:
    """Write the legacy durability directory and what it recovers to."""
    os.makedirs(directory, exist_ok=True)
    for stale in os.listdir(directory):
        os.remove(os.path.join(directory, stale))
    db = TimeSeriesDatabase(
        CONFIG.memory_budget, CONFIG.sstable_size, durability_dir=directory
    )
    drive_database(db, range(5), LEGACY_DATABASE_SCRIPT)
    db.sync()
    for name in db.series_names():
        db.series(name).engine.wal.close()
    with open(
        os.path.join(directory, "expected.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(recovered_profile(directory), handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- what an engine's checkpoint says about it ------------------------------------

_CHECKPOINT_META = ("engine", "config", "kwargs", "state")


#: Key -> (named constructor, the split it re-splits to half-way through
#: the stream): the split is live state, so the label a checkpoint
#: records follows it — a ``ConventionalEngine`` re-split to ``pi_s``
#: records ``SeparationEngine``, and the other way round.
RESPLIT_CHECKPOINTS = {
    "conventional->pi_s": (ConventionalEngine, 24),
    "separation->pi_c": (SeparationEngine, None),
}


def _checkpoint_engines() -> dict:
    """Key -> zero-state engine: every fixture engine, the novel triples."""
    engines = {key: factory(None) for key, factory in ENGINE_FACTORIES.items()}
    for name, spec in NOVEL_COMPOSITIONS.items():
        engines[name] = compose_engine(config=CONFIG, **spec)
    return engines


def checkpoint_profile(engine) -> dict:
    """The checkpoint ``engine`` writes now: the meta that names and
    rebuilds it, and a digest (dtype, shape, bytes) per array name."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "engine.ckpt")
        engine.save_checkpoint(path)
        meta, arrays = read_checkpoint(path)
    digests = {}
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        header = f"{value.dtype}:{value.shape}|".encode()
        digests[key] = hashlib.sha256(header + value.tobytes()).hexdigest()
    return {"meta": {key: meta[key] for key in _CHECKPOINT_META}, "arrays": digests}


def build_checkpoint_fixture() -> dict:
    profiles = {}
    for key, engine in _checkpoint_engines().items():
        _feed(engine, "M8")
        profiles[key] = checkpoint_profile(engine)
    for key, (cls, seq_capacity) in RESPLIT_CHECKPOINTS.items():
        engine = cls(CONFIG)
        _feed(engine, "M8", resplit=(N_POINTS // 2, seq_capacity))
        profiles[key] = checkpoint_profile(engine)
    return {"n_points": N_POINTS, "chunk": CHUNK, "workload": "M8", "profiles": profiles}


#: The interval and the sizes every fleet retune of the system
#: benchmark decides at.
TUNE_DT = 1000.0
TUNE_BUDGET = 512
TUNE_SSTABLE = 512
#: Seeds of the 4096-delay windows drawn per cell.
TUNE_WINDOW_SEEDS = (1, 2)


def tune_windows() -> dict:
    """``"seed/sigma/offset" -> EmpiricalDelay``: the delay profiles the
    analyzer of each disordered series hands Algorithm 1."""
    windows = {}
    for seed in TUNE_WINDOW_SEEDS:
        rng = np.random.default_rng(seed)
        for sigma, offset, _ in BENCHMARK_CELLS:
            delays = rng.lognormal(np.log(TUNE_DT) + offset, sigma, 4096)
            windows[f"{seed}/{sigma}/{offset}"] = EmpiricalDelay(delays)
    return windows


def tune_profile(decision) -> dict:
    """Every ``PolicyDecision`` field, floats as ``float.hex``."""
    return {
        "policy": decision.policy,
        "seq_capacity": decision.seq_capacity,
        "r_c": decision.r_c.hex(),
        "r_s_star": decision.r_s_star.hex(),
        "sweep_n_seq": [int(n) for n in decision.sweep_n_seq],
        "sweep_r_s": [float(r).hex() for r in decision.sweep_r_s],
        "rows_computed": decision.rows_computed,
    }


def build_tune_fixture() -> dict:
    return {
        key: tune_profile(
            tune_separation_policy(
                law, TUNE_DT, TUNE_BUDGET, sstable_size=TUNE_SSTABLE
            )
        )
        for key, law in tune_windows().items()
    }


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


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Re-record one golden fixture (the engine fixture by default)."
    )
    which = parser.add_mutually_exclusive_group()
    for flag, what in (
        ("--scheduled", SCHEDULED_FIXTURE_PATH),
        ("--database", DATABASE_FIXTURE_PATH),
        ("--checkpoints", CHECKPOINT_FIXTURE_PATH),
        ("--tunes", TUNE_FIXTURE_PATH),
    ):
        which.add_argument(
            flag, action="store_true", help=f"re-record {os.path.basename(what)}"
        )
    which.add_argument(
        "--legacy-database",
        action="store_true",
        help="OVERWRITE every file of the frozen legacy fixture "
        "legacy_checkpoints/database_retuned/ with what today's code writes",
    )
    args = parser.parse_args(argv)
    if args.legacy_database:
        write_legacy_database()
        print(f"wrote {LEGACY_DATABASE_DIR}")
        return
    if args.database:
        path, fixture = DATABASE_FIXTURE_PATH, build_database_fixture()
    elif args.scheduled:
        path, fixture = SCHEDULED_FIXTURE_PATH, build_scheduled_fixture()
    elif args.checkpoints:
        path, fixture = CHECKPOINT_FIXTURE_PATH, build_checkpoint_fixture()
    elif args.tunes:
        path, fixture = TUNE_FIXTURE_PATH, build_tune_fixture()
    else:
        path, fixture = FIXTURE_PATH, build_fixture()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
