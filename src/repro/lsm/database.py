"""Multi-series database: per-series engines under one memory budget.

The paper's deployment stores thousands of time-series per IoTDB
instance ("for each vehicle, more than two thousand time-series are
recorded ... more than one-third of the time-series contain out-of-order
data points", Section VI), and the analyzer decides the buffering policy
*per workload*.  :class:`TimeSeriesDatabase` provides that layer: named
series route to their own engine (under ``auto_tune``, one carrying its
own delay analyzer), a global memory budget is divided across active
series, and fleet-wide statistics aggregate per-series WA and policy
choices.

A series has one leveled engine from creation (or recovery) on: the
``ConventionalEngine`` or ``SeparationEngine`` row of its split.  Its
policy is that engine's live split: :meth:`TimeSeriesDatabase.retune`
and :meth:`~TimeSeriesDatabase.resize_series` re-split it in place
(:meth:`~repro.lsm.base.LsmEngine.resplit`), and the
manifest records the split as ``seq_capacity`` plus the engine name
derived from it.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..config import LsmConfig, is_integer
from ..core.analyzer import DelayAnalyzer
from ..core.tuning import map_concurrently
from ..errors import ConfigError, EngineError, RecoveryError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .base import LsmEngine, RetuneOutcome, Snapshot, decide, validate_points
from .checkpoint import namespaced_stem, read_checkpoint, write_atomically
from .policies.compose import ConventionalEngine, SeparationEngine, engine_constructor

__all__ = [
    "SeriesState", "FleetReport", "TimeSeriesDatabase", "decide_series",
    "manifest_filename", "load_manifest", "check_manifest", "check_series_name",
    "recorded_stability",
]


def check_series_name(name) -> None:
    """A series name is a ``str``: anything else is an :class:`EngineError`."""
    if not isinstance(name, str):
        raise EngineError(f"series names are strings, got {name!r:.80}")


def _check_budget(value, name: str) -> None:
    """A MemTable budget is an integer (``ConfigError``, as ``LsmConfig``
    words it) of at least 2 (``EngineError``)."""
    if not is_integer(value):
        raise ConfigError(f"memory_budget must be an integer, got {value!r:.80}")
    if value < 2:
        raise EngineError(f"{name} must be >= 2")


def manifest_filename(namespace: str = "") -> str:
    """Manifest file name for one database under ``namespace``.

    The empty namespace keeps the historical ``manifest.json`` so legacy
    durability directories stay recoverable; namespaced databases (the
    shards of a fleet) each write their own namespace-tagged manifest
    and can therefore share one directory without clobbering each other.
    """
    if not namespace:
        return "manifest.json"
    return f"{namespaced_stem('manifest', namespace)}.json"


def load_manifest(path: str):
    """The JSON value stored at ``path``.

    A manifest is read back from disk, so it is outside input: damage
    is a :class:`RecoveryError` naming the file, here and in
    :func:`check_manifest`, raised before any engine is built from it.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise RecoveryError(f"manifest {path} is not JSON: {exc}") from exc


def check_manifest(path: str, record, fields: dict, members: tuple = ()) -> None:
    """Check one object of the manifest at ``path`` before it is used.

    ``fields`` maps each key to the type(s) its value must have (a
    missing key reads ``None``; JSON ``true`` is no ``int``).
    ``members`` are keys naming a file or directory beside the
    manifest: only a bare name passes, so a manifest cannot point
    recovery outside its own directory.
    """
    if not isinstance(record, dict):
        raise RecoveryError(f"manifest {path}: {record!r:.80} is not an object")
    for key, kind in {**fields, **dict.fromkeys(members, str)}.items():
        value = record.get(key)
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise RecoveryError(f"manifest {path}: {key!r} is {value!r:.80}")
    for key in members:
        name = record[key]
        if name in ("", ".", "..") or name != os.path.basename(name):
            raise RecoveryError(f"manifest {path}: {key!r} names a path: {name!r:.80}")


#: Stability knobs a manifest may record that are options no more: the
#: WAL byte trigger is :data:`~repro.lsm.wal.GROUP_BYTES` and shedding
#: always stalls.  Recovery reads a manifest without them.
_RETIRED_STABILITY = ("wal_group_bytes", "backpressure_mode")


def recorded_stability(path: str, stability: dict | None) -> dict:
    """The stability overrides the manifest at ``path`` records, retired
    knobs dropped.  The rest are checked as a config checks them, before
    any engine is built: any other unknown knob, or a value of the wrong
    kind or out of range, is a :class:`RecoveryError` naming the file."""
    knobs = {k: v for k, v in (stability or {}).items() if k not in _RETIRED_STABILITY}
    try:
        LsmConfig().with_stability(**knobs)
    except ConfigError as exc:
        raise RecoveryError(f"manifest {path}: stability: {exc}") from None
    return knobs


_DATABASE_FIELDS = {
    "stability": (dict, type(None)),
    "memory_budget_per_series": int,
    "sstable_size": int,
    "auto_tune": bool,
    "series": dict,
}
_SERIES_FIELDS = {
    "engine": str,
    "memory_budget": int,
    "seq_capacity": (int, type(None)),
}


@dataclass
class SeriesState:
    """One registered series: its engine (its analyzer, decisions and
    split are the engine's)."""

    name: str
    engine: LsmEngine

    @property
    def config(self) -> LsmConfig:
        """The engine's live configuration (budget and split included)."""
        return self.engine.config

    @property
    def policy_label(self) -> str:
        """Human-readable current policy (``pi_c`` / ``pi_s(n_seq=...)``)."""
        return self.engine.current_policy


@dataclass(frozen=True)
class FleetReport:
    """Aggregate statistics across every registered series."""

    series_count: int
    total_points: int
    total_disk_writes: int
    #: Series currently running the separation policy.
    separated_series: int
    #: Series whose stream contains any out-of-order point
    #: (:func:`arrived_out_of_order`).
    disordered_series: int
    #: Per-series (name, policy, WA) rows, sorted by WA descending.
    rows: list[tuple[str, str, float]]

    @property
    def write_amplification(self) -> float:
        """Fleet-wide WA (total disk writes over total ingested)."""
        if self.total_points == 0:
            return float("nan")
        return self.total_disk_writes / self.total_points

    @property
    def disordered_fraction(self) -> float:
        """Fraction of series containing out-of-order points."""
        if self.series_count == 0:
            return 0.0
        return self.disordered_series / self.series_count


def arrived_out_of_order(snapshot: Snapshot) -> bool:
    """True when ``snapshot``'s points, placed by arrival id, descend
    somewhere: some point arrived after a later-generated one."""
    parts = [*snapshot.tables, *snapshot.memtables]
    if not parts:
        return False
    tg = np.concatenate([part.tg for part in parts])
    ids = np.concatenate([part.ids for part in parts])
    arrived = tg[np.argsort(ids)]
    return bool(np.any(arrived[1:] < arrived[:-1]))


def decide_series(states: list[SeriesState]) -> list[RetuneOutcome]:
    """The decide half of a retune: every series' outcome, concurrently.

    Each analyzer is used by one thread only, and nothing else changes:
    the caller applies the outcomes, in order.
    """
    return map_concurrently(decide, [state.engine.analyzer for state in states])


class TimeSeriesDatabase:
    """A collection of independently buffered time-series.

    Parameters
    ----------
    memory_budget_per_series:
        MemTable budget ``n`` given to each series.
    sstable_size:
        SSTable size shared by all series.
    auto_tune:
        When True every series' engine carries its own
        :class:`DelayAnalyzer`, fed the arrival times written with its
        points; call :meth:`retune` to (re-)decide each series' policy
        from its own delay profile.  When False all series use ``pi_c``.
    telemetry:
        Shared event bus for the whole database: per-series engines
        publish their flush/merge events to it and the router counts
        written batches/points per series.  Defaults to the no-op bus.
    durability_dir:
        When set, every series keeps a write-ahead log under this
        directory, :meth:`checkpoint_all` persists per-series engine
        checkpoints (analyzers included) plus a manifest, and
        :meth:`recover` revives the whole database from them; every
        re-split is in the series' WAL.
    stability:
        Optional :meth:`LsmConfig.with_stability` overrides applied to
        every series engine — the group-commit record trigger
        (``wal_group_records``), the incremental compaction scheduler
        (``compaction_scheduler`` and its pacing), and the backpressure
        thresholds.  The overrides are recorded in the manifest so
        :meth:`recover` rebuilds every series under the same stability
        configuration.
    namespace:
        Label prefixing every durable artefact (WALs, checkpoints, the
        manifest) this database writes, so multiple databases — the
        shards of a :class:`~repro.serving.ShardedDatabase` — can share
        one durability directory without collisions.  The empty default
        reproduces the historical single-database file names exactly.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` armed on every series
        engine this database creates (crash tests inject faults into one
        shard of a fleet this way).
    """

    def __init__(
        self,
        memory_budget_per_series: int = 512,
        sstable_size: int = 512,
        auto_tune: bool = True,
        telemetry: Telemetry | None = None,
        durability_dir: str | None = None,
        stability: dict | None = None,
        namespace: str = "",
        fault_plan: object | None = None,
    ) -> None:
        _check_budget(memory_budget_per_series, "memory_budget_per_series")
        self.stability = dict(stability) if stability else {}
        self.config = LsmConfig(
            memory_budget=memory_budget_per_series, sstable_size=sstable_size
        ).with_stability(**self.stability)
        self.auto_tune = auto_tune
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.durability_dir = durability_dir
        self.namespace = namespace
        self.fault_plan = fault_plan
        if durability_dir:
            os.makedirs(durability_dir, exist_ok=True)
        self._series: dict[str, SeriesState] = {}

    # -- series management ---------------------------------------------------------

    def create_series(
        self,
        name: str,
        memory_budget: int | None = None,
        seq_capacity: int | None = None,
    ) -> SeriesState:
        """Register a new series (pi_c engine until tuned).

        ``memory_budget`` overrides the database default for this series
        (e.g. from :func:`repro.core.allocate_budgets`); with
        ``seq_capacity`` set, the series starts directly under
        ``pi_s(seq_capacity)``.  A ``name`` that is no ``str`` is an
        :class:`EngineError` before anything is registered.
        """
        check_series_name(name)
        if name in self._series:
            raise EngineError(f"series {name!r} already exists")
        config = LsmConfig(
            memory_budget=(
                memory_budget
                if memory_budget is not None
                else self.config.memory_budget
            ),
            sstable_size=self.config.sstable_size,
            seq_capacity=seq_capacity,
            wal_path=self._wal_path(name),
            fault_plan=self.fault_plan,
        ).with_stability(**self.stability)
        state = SeriesState(
            name=name,
            engine=(ConventionalEngine if seq_capacity is None else SeparationEngine)(
                config, telemetry=self.telemetry, analyzer=self._analyzer(config)
            ),
        )
        self._series[name] = state
        if self.telemetry.enabled:
            self.telemetry.emit(
                {
                    "type": "db.series_created",
                    "series": name,
                    "policy": state.policy_label,
                    "memory_budget": config.memory_budget,
                }
            )
            self.telemetry.count("db.series")
        return state

    def _analyzer(self, config: LsmConfig) -> DelayAnalyzer | None:
        """A new series' analyzer (``None`` unless ``auto_tune``)."""
        if not self.auto_tune:
            return None
        return DelayAnalyzer(config.memory_budget, sstable_size=config.sstable_size)

    def series(self, name: str) -> SeriesState:
        """Look up a registered series; a ``name`` that is no ``str``
        (an unhashable one included) is an :class:`EngineError`."""
        try:
            return self._series[name]
        except (KeyError, TypeError):
            pass
        check_series_name(name)
        raise EngineError(f"unknown series {name!r}")

    def series_names(self) -> list[str]:
        """All registered series names."""
        return list(self._series)

    def __len__(self) -> int:
        return len(self._series)

    # -- writing ---------------------------------------------------------------------

    def write(
        self, name: str, tg: np.ndarray, ta: np.ndarray | None = None
    ) -> int:
        """Append arrival-ordered points to ``name`` (created on demand);
        returns how many.

        A batch is checked before anything changes (by the engine,
        :func:`~repro.lsm.base.validate_points`): non-finite ``tg``
        (:class:`EngineError`), a ``ta`` that is misaligned, non-finite
        or so far from ``tg`` that the delay overflows
        (:class:`ModelError`) or a closed engine raise with the engine
        and its analyzer exactly as they were, so the caller can fix or
        retry the batch verbatim.
        """
        tg = np.ascontiguousarray(tg, dtype=np.float64)
        try:
            state = self._series[name]
        except (KeyError, TypeError):
            # A TypeError is an unhashable name: create_series rejects it.
            state = None
        if state is None:
            # The engine checks the batch below, but that is too late to
            # stop a rejected first batch from registering an empty series.
            validate_points(tg, ta)
            state = self.create_series(name)
        # The engine validates, admits, logs (with a WAL) and observes
        # (with an analyzer) before it places a point; what follows runs
        # only for accepted batches.
        state.engine.ingest(tg, ta)
        if tg.size == 0:
            return 0
        if self.telemetry.enabled:
            self.telemetry.count("db.write.batches")
            self.telemetry.count("db.write.points", int(tg.size))
        return int(tg.size)

    def flush_all(self) -> None:
        """Drain every series' MemTables."""
        for state in self._series.values():
            state.engine.flush_all()

    def sync(self, name: str | None = None) -> None:
        """Durability barrier: commit + fsync pending group-commit frames.

        With ``wal_group_records > 1`` an acknowledged write may still
        sit in its engine's in-memory group; this forces every pending
        frame to disk for one series (or all of them).
        """
        states = [self.series(name)] if name is not None else self._series.values()
        for state in states:
            if state.engine.wal is not None:
                state.engine.wal.sync()

    def backpressure_state(self, name: str) -> str:
        """Current admission state of one series (``healthy`` when
        backpressure is not configured for it)."""
        admission = getattr(self.series(name).engine, "admission", None)
        return admission.state if admission is not None else "healthy"

    # -- tuning ------------------------------------------------------------------------

    def retune(self, min_observations: int = 2048) -> dict[str, str]:
        """Re-decide every auto-tuned series' policy from its profile.

        Series with fewer than ``min_observations`` observed points keep
        their current policy, and so does one whose window cannot be
        profiled (a :class:`ModelError` from the analyzer — e.g. every
        point generated at the same instant, so no interval can be
        estimated): it is skipped with a warning and a
        ``db.retune_skipped`` event, and the rest are still retuned.
        Every series that is decided leaves a ``db.retune_decision``
        event: what Algorithm 1 was given, what it answered and what
        that cost.  Returns ``{series: policy_label}`` for the series
        that switched.  A ``min_observations`` that is not an integer
        ``>= 0`` (``bool`` included) is an :class:`EngineError` before
        any series is decided.

        The series are decided concurrently (:func:`decide_series`),
        then applied one by one in series order through each engine's
        :meth:`~repro.lsm.base.LsmEngine.retune`, so every
        decision and event equals a serial retune's; ``duration_ms`` is
        each decision's own time.
        """
        candidates = self._retune_candidates(min_observations)
        return self._apply_retune(candidates, decide_series(candidates))

    def _retune_candidates(self, min_observations: int) -> list[SeriesState]:
        """The series :meth:`retune` decides, in series order."""
        if not is_integer(min_observations) or min_observations < 0:
            raise EngineError(
                f"min_observations must be an integer >= 0, got {min_observations!r}"
            )
        return [
            state
            for state in self._series.values()
            if state.engine.analyzer is not None
            and state.engine.analyzer.observed_points >= min_observations
        ]

    def _apply_retune(
        self,
        candidates: list[SeriesState],
        outcomes: Iterable[RetuneOutcome],
    ) -> dict[str, str]:
        """Apply the :func:`decide_series` outcomes of ``candidates`` in
        series order; draws one outcome per candidate from ``outcomes``."""
        switched: dict[str, str] = {}
        for state, outcome in zip(candidates, outcomes):
            if state.engine.retune(outcome, series=state.name):
                switched[state.name] = state.policy_label
        return switched

    def resize_series(
        self,
        name: str,
        memory_budget: int,
        seq_capacity: int | None = None,
    ) -> bool:
        """Re-budget one series' MemTables at a flush boundary.

        The series' engine is re-split in place
        (:meth:`~repro.lsm.base.LsmEngine.resplit`): drained
        (``flush_all`` — the flush boundary) and given fresh MemTables
        of the new sizes, so WA accounting and ``verify()`` stay exact
        across the resize.  ``seq_capacity`` switches the series to
        ``pi_s(seq_capacity)`` (or re-splits an already separated
        series); omitted it keeps the current policy, scaling an
        existing ``C_seq`` to preserve its budget share.  Returns False
        (and touches nothing) when the budget and split are already in
        place.
        """
        _check_budget(memory_budget, "memory_budget")
        state = self.series(name)
        current = state.config
        if seq_capacity is None and current.seq_capacity is not None:
            seq_capacity = max(
                1,
                min(
                    memory_budget - 1,
                    round(
                        memory_budget
                        * current.seq_capacity
                        / current.memory_budget
                    ),
                ),
            )
        if not state.engine.resplit(seq_capacity, memory_budget):
            return False
        if self.telemetry.enabled:
            self.telemetry.emit(
                {
                    "type": "db.series_resized",
                    "series": name,
                    "memory_budget": memory_budget,
                    "policy": state.policy_label,
                }
            )
            self.telemetry.count("db.resizes")
        return True

    # -- durability ---------------------------------------------------------------------

    def _wal_path(self, name: str) -> str | None:
        if not self.durability_dir:
            return None
        stem = namespaced_stem(name, self.namespace)
        return os.path.join(self.durability_dir, f"{stem}.wal")

    def _checkpoint_path(self, name: str) -> str:
        stem = namespaced_stem(name, self.namespace)
        return os.path.join(self.durability_dir, f"{stem}.ckpt")

    @property
    def _manifest_path(self) -> str:
        return os.path.join(
            self.durability_dir, manifest_filename(self.namespace)
        )

    def checkpoint_all(self) -> str:
        """Checkpoint every series engine and write the manifest.

        Returns the manifest path.  Requires ``durability_dir``.  A
        recovered database restores each checkpoint and replays only the
        WAL tail written after it.
        """
        if not self.durability_dir:
            raise EngineError("checkpoint_all requires a durability_dir")
        manifest: dict = {
            "format": 1,
            "memory_budget_per_series": self.config.memory_budget,
            "sstable_size": self.config.sstable_size,
            "auto_tune": self.auto_tune,
            "stability": self.stability,
            "namespace": self.namespace,
            "series": {},
        }
        for state in self._series.values():
            checkpoint = self._checkpoint_path(state.name)
            state.engine.save_checkpoint(checkpoint)
            manifest["series"][state.name] = {
                "engine": state.engine.checkpoint_label,
                "wal": os.path.basename(self._wal_path(state.name)),
                "checkpoint": os.path.basename(checkpoint),
                "memory_budget": state.config.memory_budget,
                "seq_capacity": state.config.seq_capacity,
            }
        write_atomically(
            self._manifest_path,
            json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8"),
        )
        if self.telemetry.enabled:
            self.telemetry.count("db.checkpoints")
        return self._manifest_path

    @classmethod
    def recover(
        cls,
        durability_dir: str,
        telemetry: Telemetry | None = None,
        namespace: str = "",
    ) -> "TimeSeriesDatabase":
        """Revive a database from ``durability_dir``.

        Each series is recovered independently: checkpoint restore (when
        the checkpoint validates; its analyzer included) plus truncating
        WAL tail replay, re-splits and observations included; a corrupt
        or missing checkpoint falls back to a full WAL replay.
        Every recovered engine is verified before the database is handed
        back.  ``namespace`` selects which database's manifest to read
        when several share the directory.

        The manifest is outside input: a value its constructors refuse,
        or a series whose WAL is missing while its checkpoint holds
        points or cannot be read, is a :class:`RecoveryError` naming the
        file, raised before any engine is built.
        """
        from .recovery import recover_engine

        manifest_path = os.path.join(
            durability_dir, manifest_filename(namespace)
        )
        if not os.path.exists(manifest_path):
            raise RecoveryError(f"no manifest at {manifest_path}")
        manifest = load_manifest(manifest_path)
        check_manifest(manifest_path, manifest, _DATABASE_FIELDS)
        for entry in manifest["series"].values():
            check_manifest(
                manifest_path, entry, _SERIES_FIELDS, members=("wal", "checkpoint")
            )
        stored_namespace = manifest.get("namespace", "")
        if stored_namespace != namespace:
            raise RecoveryError(
                f"manifest at {manifest_path} belongs to namespace "
                f"{stored_namespace!r}, not {namespace!r}"
            )
        # Every value the manifest hands a constructor, and the files it
        # names, are checked before any engine is built.
        stability = recorded_stability(manifest_path, manifest.get("stability"))
        plans = {}
        try:
            db = cls(
                memory_budget_per_series=manifest["memory_budget_per_series"],
                sstable_size=manifest["sstable_size"],
                auto_tune=manifest["auto_tune"],
                telemetry=telemetry,
                durability_dir=durability_dir,
                stability=stability,
                namespace=namespace,
            )
            for name, entry in manifest["series"].items():
                constructor = engine_constructor(entry["engine"])
                if constructor is None:
                    raise RecoveryError(f"series {name!r}: unknown engine {entry['engine']!r}")
                config = LsmConfig(
                    memory_budget=entry["memory_budget"],
                    sstable_size=manifest["sstable_size"],
                    seq_capacity=entry["seq_capacity"],
                    wal_path=os.path.join(durability_dir, entry["wal"]),
                ).with_stability(**stability)
                # A WAL is created by its first write and never deleted:
                # without it, the tail past a checkpoint holding points is
                # gone, and the manifest names the wrong file.
                checkpoint = os.path.join(durability_dir, entry["checkpoint"])
                lost = not os.path.exists(config.wal_path)
                if lost and read_checkpoint(checkpoint)[0].get("next_id"):
                    raise RecoveryError(
                        f"series {name!r} holds points, but its WAL {entry['wal']!r} is missing"
                    )
                plans[name] = constructor, config, checkpoint
        except (ConfigError, EngineError) as exc:  # a RecoveryError is an EngineError
            raise RecoveryError(f"manifest {manifest_path}: {exc}") from None
        for name, (constructor, config, checkpoint) in plans.items():
            report = recover_engine(
                constructor,
                wal_path=config.wal_path,
                checkpoint_path=checkpoint,
                config=config,
                engine_kwargs={"analyzer": db._analyzer(config)},
                telemetry=db.telemetry if db.telemetry.enabled else None,
            )
            engine = report.engine
            if engine.analyzer is None:
                # A checkpoint written before analyzers were durable.
                engine.analyzer = db._analyzer(engine.config)
            db._series[name] = SeriesState(name=name, engine=engine)
        if db.telemetry.enabled:
            db.telemetry.count("db.recoveries")
        return db

    # -- reading -----------------------------------------------------------------------

    def snapshot(self, name: str) -> Snapshot:
        """Read view of one series."""
        return self.series(name).engine.snapshot()

    def report(self) -> FleetReport:
        """Aggregate per-series statistics (the Section VI dashboard)."""
        rows = []
        total_points = 0
        total_writes = 0
        separated = 0
        disordered = 0
        for state in self._series.values():
            stats = state.engine.stats
            total_points += stats.user_points
            total_writes += stats.disk_writes
            if state.config.seq_capacity is not None:
                separated += 1
            if arrived_out_of_order(state.engine.snapshot()):
                disordered += 1
            rows.append(
                (
                    state.name,
                    state.policy_label,
                    stats.write_amplification,
                )
            )
        rows.sort(key=lambda row: -(row[2] if row[2] == row[2] else -1.0))
        return FleetReport(
            series_count=len(self._series),
            total_points=total_points,
            total_disk_writes=total_writes,
            separated_series=separated,
            disordered_series=disordered,
            rows=rows,
        )
