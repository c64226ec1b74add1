"""The engine's durable-ingest half, read snapshots, and the durability contract.

:class:`LsmEngine` is one half of the single engine implementation;
:class:`~repro.lsm.policies.kernel.StorageKernel` (policies, landing,
read path) is the other and its only subclass.  They stay two classes in
two modules because they are two layers — what happens to a batch before
it may touch a MemTable, and what happens after — not because anything
else implements either.

An engine consumes a stream of generation times *in arrival order* and
maintains simulated disk state (a :class:`~repro.lsm.level.Run` per level)
plus exact write accounting.  Ingestion is batch-oriented: callers hand
over numpy arrays and the engine slices them at flush/merge boundaries
internally, so driving millions of points stays cheap.  An engine starts
empty — arrival id 0, fresh :class:`WriteStats` — and its statistics,
cursors, WAL handle and fault injector are its own for life: a policy
change re-splits the engine in place, it never hands them to another.

A :class:`Snapshot` freezes the visible state (SSTables + MemTable
contents) for the query layer.

Durability (all opt-in, one branch on the hot path when off):

* With ``LsmConfig.wal_path`` set, every ingested batch is framed into a
  checksummed write-ahead log *before* MemTable placement
  (:mod:`repro.lsm.wal`).
* :meth:`LsmEngine.save_checkpoint` / :meth:`LsmEngine.restore`
  serialise/revive the full engine state (:mod:`repro.lsm.checkpoint`);
  :mod:`repro.lsm.recovery` combines both into crash recovery.
* With ``LsmConfig.fault_plan`` set, flush/merge boundaries fire a
  :class:`~repro.faults.FaultInjector`: injected crashes escape before
  any state mutates.
* :meth:`LsmEngine.verify` runs the crash-consistency invariants
  (:mod:`repro.lsm.invariants`) over the live state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..config import LsmConfig, is_integer
from ..core.analyzer import finite_delays
from ..errors import (
    CheckpointCorruptError,
    CheckpointError,
    ConfigError,
    EngineClosedError,
    EngineError,
    InjectedCrash,
    ModelError,
    RecoveryError,
)
from ..faults.injector import FaultInjector
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .memtable import EMPTY_IDS
from .pruning import PlanEntry, TableIndex
from .sstable import SSTable
from .wa_tracker import WriteStats
from .wal import WalRecord, WriteAheadLog

__all__ = ["LsmEngine", "Snapshot", "MemTableView"]


@dataclass(frozen=True)
class MemTableView:
    """Frozen view of one MemTable's buffered points."""

    name: str
    tg: np.ndarray
    #: Arrival-index ids aligned with ``tg``; empty when the engine did
    #: not expose them (queries then report id -1 for buffered rows).
    ids: np.ndarray = field(default_factory=lambda: EMPTY_IDS)

    @cached_property
    def bounds(self) -> tuple[float, float]:
        """``(min, max)`` of the buffered generation times, taken once
        per view (``(inf, -inf)`` when empty): a query whose window
        misses them skips the MemTable without building a mask."""
        if self.tg.size == 0:
            return math.inf, -math.inf
        return float(self.tg.min()), float(self.tg.max())

    def __len__(self) -> int:
        return int(self.tg.size)


@dataclass(frozen=True)
class Snapshot:
    """Frozen read view of an engine: on-disk tables plus MemTables.

    When the producing engine attached a :class:`~repro.lsm.pruning.TableIndex`
    (kernels do, cached per structure epoch), :meth:`overlapping_tables`
    and :meth:`read_plan` answer range lookups in O(log T) per sorted
    run instead of a linear scan; without one they fall back to the full
    metadata walk, so hand-built snapshots keep working.
    """

    tables: list[SSTable]
    memtables: list[MemTableView]
    #: Optional pruning index over :attr:`tables` (``None`` = linear scan).
    index: TableIndex | None = None
    #: The engine's ``read_version()`` this snapshot was taken (and is
    #: cached) under; ``None`` for hand-built snapshots.  Equal versions
    #: of one engine mean identical visible state: the engine's snapshot
    #: slot serves this snapshot again while the version holds.
    version: tuple[int, ...] | None = None

    def overlapping_tables(self, lo: float, hi: float) -> list[SSTable]:
        """Tables intersecting ``[lo, hi]``, in snapshot order."""
        if self.index is not None:
            return self.index.overlapping(lo, hi)
        return [t for t in self.tables if t.overlaps(lo, hi)]

    def read_plan(self, lo: float, hi: float) -> list[PlanEntry]:
        """:meth:`overlapping_tables` as the plan entries of
        :meth:`TableIndex.read_plan <repro.lsm.pruning.TableIndex.read_plan>`:
        one ``(view, start, first, last, stop)`` per sorted run, whose
        fully covered tables ``[first, last)`` are answered from the
        run's per-table columns, not visited.  Without an index every
        table is judged on its own, as it is now, and the hits are
        planned as one loose group built for the call — entries of one
        table: the per-table reference the covered spans are pinned
        to."""
        index = self.index
        if index is None:
            index = TableIndex([("loose", self.overlapping_tables(lo, hi))])
        return index.read_plan(lo, hi)

    @property
    def disk_points(self) -> int:
        """Total points persisted."""
        return sum(len(t) for t in self.tables)

    @property
    def memory_points(self) -> int:
        """Total points still buffered."""
        return sum(len(m) for m in self.memtables)

    @property
    def total_points(self) -> int:
        """Every point visible to queries."""
        return self.disk_points + self.memory_points

    @property
    def max_tg(self) -> float:
        """Latest generation time visible anywhere (``-inf`` when empty)."""
        candidates = [t.max_tg for t in self.tables]
        candidates.extend(float(m.tg.max()) for m in self.memtables if len(m))
        return max(candidates, default=float("-inf"))


def validate_points(
    tg: np.ndarray, ta: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(tg, ta)`` as engines ingest them: contiguous float64, ``tg``
    as :func:`validate_generation_times` wants it.  A ``ta`` that is
    misaligned, non-finite or so far from ``tg`` that the delay
    overflows is a :class:`ModelError`, checked first; a bad ``tg`` is
    an :class:`EngineError`.

    An array already in that form is returned as it is, not copied:
    MemTables copy what they buffer into their own slabs, so the caller
    may reuse its arrays as soon as an ingest returns."""
    tg, ta, _ = _checked_points(tg, ta)
    return tg, ta


def _checked_points(
    tg: np.ndarray, ta: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """:func:`validate_points`, also returning the delays ``ta - tg``
    its check computed (``None`` without ``ta``): a fresh array.

    With ``ta``, one :func:`finite_delays` pass covers ``ta``, the
    overflow and ``tg`` — a finite difference has finite operands — so
    ``tg``'s own finiteness is checked only without ``ta``, or to pick
    the error when the pair fails."""
    tg = np.ascontiguousarray(tg, dtype=np.float64)
    if ta is None:
        return validate_generation_times(tg), None, None
    ta = np.ascontiguousarray(ta, dtype=np.float64)
    if ta.size != tg.size:
        raise ModelError(f"tg and ta must align: {tg.size} vs {ta.size}")
    delays = finite_delays(tg, ta) if ta.shape == tg.shape else None
    if delays is None:
        if not np.isfinite(ta).all():
            raise ModelError("arrival times must be finite; got NaN/inf")
        if tg.ndim == 1 and np.isfinite(tg).all():
            raise ModelError(
                "ta must pair with tg point by point at a finite "
                f"delay: shapes {tg.shape} vs {ta.shape}, or "
                "ta - tg overflows"
            )
    if delays is None or tg.ndim != 1:
        # What is left to fail is tg: its shape, or a NaN/inf in it.
        validate_generation_times(tg)
    return tg, ta, delays


def validate_generation_times(tg: np.ndarray) -> np.ndarray:
    """``tg`` as the contiguous 1-d finite float64 batch engines ingest;
    raises :class:`EngineError` for anything else."""
    arr = np.ascontiguousarray(tg, dtype=np.float64)
    if arr.ndim != 1:
        raise EngineError(f"ingest expects a 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise EngineError(
            "generation times must be finite; got NaN/inf in the batch"
        )
    return arr


class LsmEngine:
    """The durable-ingest half of the one engine implementation.

    Owns what every engine does the same way: validation, admission and
    WAL framing before placement, id assignment and write accounting,
    fault boundaries, checkpoint metadata, by-name restore, ``verify``.
    :class:`~repro.lsm.policies.kernel.StorageKernel` is the other half
    — policies, landing, the tuner, read path — and the only subclass;
    the hooks called here (``_admit_batch``, ``_ingest_batch``,
    ``_ingest_pairs``, ``_flush_buffers``, ``_prepare_checkpoint``,
    ``_checkpoint_state``, ``_restore_state``, ``snapshot``) and the
    tuner state read here (``analyzer``, ``check_interval``) are its,
    not an extension point.
    """

    #: Short policy label used in reports (``pi_c``, ``pi_s``...).
    policy_name: str = "abstract"

    def __init__(
        self,
        config: LsmConfig,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.config = config
        self.stats = WriteStats()
        #: Event bus for this engine: the one it was handed, else the
        #: no-op bus.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            self.stats.bind_telemetry(self.telemetry)
        #: Fault injector for this engine's write path; ``None`` (the
        #: default without a ``fault_plan``) keeps injection absent.
        if faults is not None:
            self.faults = faults
        elif config.fault_plan is not None:
            self.faults = FaultInjector(config.fault_plan)
        else:
            self.faults = None
        #: Write-ahead log; ``None`` (the default) means no durability.
        self._wal: WriteAheadLog | None = (
            WriteAheadLog(
                config.wal_path,
                faults=self.faults,
                group_records=config.wal_group_records,
                telemetry=self.telemetry,
            )
            if config.wal_path
            else None
        )
        self._next_id = 0
        # Arrival index of the last point actually placed in a MemTable;
        # flush/merge events stamp this so WA timelines line up with the
        # arrival stream even when ingest() receives one huge batch.
        self._arrival_cursor = 0
        self._closed = False

    # -- ingestion ------------------------------------------------------------

    def ingest(self, tg: np.ndarray, ta: np.ndarray | None = None) -> None:
        """Feed generation times (and optionally their arrival times) in
        arrival order.

        Ids are assigned sequentially (the arrival index), continuing
        across calls, so per-point write counters line up with the
        workload's arrival order.  The batch is checked first
        (:func:`validate_points`), then admitted; with a WAL configured
        it is made durable *before* any MemTable placement, so a crash
        at any later boundary loses nothing that was acknowledged.  An
        engine with an :attr:`analyzer` logs and observes the
        ``(tg, ta)`` pairs (one with a :attr:`check_interval` requires
        them); any other ignores ``ta`` once it is checked.
        """
        self._ensure_open()
        arr, ta, delays = _checked_points(tg, ta)
        if self.analyzer is None:
            ta = None
        elif ta is None and self.check_interval is not None:
            raise EngineError(f"{self.policy_name}: a self-tuning engine ingests (tg, ta) pairs")
        if arr.size == 0:
            return
        self._admit_batch(arr.size)
        if self._wal is not None:
            self._wal.append(arr, start_id=self._next_id, ta=ta)
        self._place(arr, ta, delays)

    def _place(
        self, arr: np.ndarray, ta: np.ndarray | None, delays: np.ndarray | None = None
    ) -> None:
        """Place a validated batch, observing its pairs when the engine
        has an analyzer — shared by ingest and WAL replay.  ``delays``
        are the checked ``ta - arr`` when the caller computed them; a
        replayed record comes without, and its pairs are checked as
        they are observed."""
        if ta is None or self.analyzer is None:
            self._ingest_validated(arr)
        else:
            self._ingest_pairs(arr, ta, delays)

    def _ingest_validated(self, arr: np.ndarray) -> None:
        """Place a validated batch of generation times.

        Recovery feeds durable WAL records through here so the replayed
        points are *not* re-appended to the WAL they came from.
        """
        ids = np.arange(self._next_id, self._next_id + arr.size, dtype=np.int64)
        self._next_id += arr.size
        self.stats.record_ingest(arr.size)
        telemetry = self.telemetry
        if telemetry.enabled:
            with telemetry.span(
                "ingest", engine=self.policy_name, points=int(arr.size)
            ):
                self._ingest_batch(arr, ids)
            telemetry.count("ingest.points", int(arr.size))
            telemetry.count("ingest.batches")
        else:
            self._ingest_batch(arr, ids)

    def _replay(self, record: WalRecord) -> None:
        """Re-ingest one durable batch record (recovery's entry for them)."""
        if record.ta is None and self.check_interval is not None:
            raise RecoveryError(
                f"WAL record at id {record.start_id} lacks arrival times; "
                "a self-tuning engine's WAL must carry (tg, ta) pairs"
            )
        self._place(record.tg, record.ta)

    def flush_all(self) -> None:
        """Persist any buffered points (end-of-workload drain).

        Raises :class:`~repro.errors.EngineClosedError` on a closed
        engine — a closed engine's state must never mutate again.
        """
        self._ensure_open()
        self._flush_buffers()

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineClosedError(f"{self.policy_name}: engine is closed")

    def close(self) -> None:
        """Flush buffers and refuse further ingestion."""
        if not self._closed:
            self.flush_all()
            self._closed = True
            if self._wal is not None:
                self._wal.close()

    # -- fault boundaries -------------------------------------------------------

    def _fault_boundary(self, site: str) -> None:
        """Fire the injector at ``site`` before any state mutates.

        An injected crash escapes immediately (the simulated process
        dies), counted on the telemetry bus first.
        """
        faults = self.faults
        if faults is None:
            return
        telemetry = self.telemetry
        try:
            faults.fire(site)
        except InjectedCrash:
            if telemetry.enabled:
                telemetry.count("fault.injected")
                telemetry.emit(
                    {
                        "type": "fault",
                        "site": site,
                        "kind": "crash",
                        "engine": self.policy_name,
                    }
                )
            raise
        if site == "merge":
            # Overload injection: an armed slow-merge plan stalls here,
            # after the boundary survived.
            delayed_ms = faults.maybe_delay("merge")
            if delayed_ms > 0 and telemetry.enabled:
                telemetry.count("fault.merge_delays")
                telemetry.observe("fault.merge_delay_ms", delayed_ms)

    # -- checkpointing -----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        """Serialise the complete engine state to ``path``.

        The checkpoint carries the runs, MemTables, write statistics and
        cursors; restoring it and replaying the WAL tail past
        ``ingested_points`` reproduces the live state bit-for-bit
        (modulo cosmetic SSTable sequence numbers).
        """
        from .checkpoint import write_checkpoint

        self._prepare_checkpoint()
        stats_meta, arrays = self.stats.to_checkpoint()
        state_meta = self._checkpoint_state(arrays)
        meta = {
            "format": 1,
            "engine": self.checkpoint_label,
            "policy": self.policy_name,
            "config": {
                "memory_budget": self.config.memory_budget,
                "sstable_size": self.config.sstable_size,
                "seq_capacity": self.config.seq_capacity,
            },
            "kwargs": self._checkpoint_kwargs(),
            "next_id": self._next_id,
            "arrival_cursor": self._arrival_cursor,
            "stats": stats_meta,
            "state": state_meta,
        }
        write_checkpoint(path, meta, arrays, faults=self.faults)

    @classmethod
    def restore(
        cls,
        path: str,
        config: LsmConfig | None = None,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
    ) -> "LsmEngine":
        """Revive the engine serialised at ``path``.

        The recorded engine name picks the class that rebuilds it (a row
        of :data:`repro.lsm.policies.compose.ENGINES`).  Called on
        :class:`LsmEngine` any registered name will do; called on a
        concrete class, the name must be one that class's engines record
        (``checkpoint_labels``).  ``config`` overrides the restored
        static configuration (e.g. to re-attach a ``wal_path``); the
        core knobs (budgets, sstable size) always come from the
        checkpoint so the restored behaviour matches the saved engine.
        """
        from .checkpoint import read_checkpoint
        from .policies.compose import engine_class

        meta, arrays = read_checkpoint(path)
        name = meta.get("engine")
        target = engine_class(name)
        if target is None:
            raise CheckpointError(f"{path}: unknown engine class {name!r}")
        if cls is not LsmEngine and name not in cls.checkpoint_labels:
            raise CheckpointError(
                f"{path}: checkpoint was taken by {name!r}, not {cls.__name__}"
            )
        # Checkpoints written before the cold tier lost its config knobs
        # still record ``cold_*`` keys here; they are ignored, and every
        # table keeps the block format its arrays record.  So is the
        # hysteresis pi_adaptive recorded before it became a constant.
        # The header decides where WAL replay starts, so a header the
        # engine cannot have written is corrupt, and recovery replays.
        try:
            core, state, kwargs = meta["config"], meta["state"], meta.get("kwargs", {})
            if not isinstance(kwargs, dict):
                raise TypeError(f"kwargs is {kwargs!r}")
            kwargs.pop("min_seq_change", None)
            stats = WriteStats.from_checkpoint(meta["stats"], arrays)
            next_id, cursor = meta["next_id"], meta["arrival_cursor"]
            if not is_integer(next_id) or next_id != stats.user_points:
                raise ValueError(f"next_id {next_id!r} is not the {stats.user_points} points written")
            if not is_integer(cursor) or not 0 <= cursor <= next_id:
                raise ValueError(f"arrival_cursor {cursor!r} is not in [0, {next_id}]")
            config = replace(
                config or LsmConfig(),
                memory_budget=core["memory_budget"],
                sstable_size=core["sstable_size"],
                seq_capacity=core["seq_capacity"],
            )
            engine = target(config=config, telemetry=telemetry, faults=faults, **kwargs)
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointCorruptError(f"{path}: header: {exc!r}") from None
        engine.stats = stats
        if engine.telemetry.enabled:
            engine.stats.bind_telemetry(engine.telemetry)
        engine._next_id = int(next_id)
        engine._arrival_cursor = int(cursor)
        engine._restore_state(state, arrays)
        return engine

    #: The names ``checkpoint_label`` takes on this class's engines —
    #: what ``cls.restore`` accepts.
    checkpoint_labels: tuple[str, ...] = ()

    def _checkpoint_kwargs(self) -> dict:
        """Extra JSON-able constructor kwargs (size ratios, fanouts...)."""
        return {}

    # -- invariants --------------------------------------------------------------

    def verify(self) -> None:
        """Check every crash-consistency invariant; raise on violation.

        See :class:`repro.lsm.invariants.InvariantChecker` for the list:
        sorted non-overlapping runs, point-count conservation, and
        WA-accounting reconciliation.
        """
        from .invariants import InvariantChecker

        InvariantChecker(self).verify()

    # -- cursors and views -----------------------------------------------------

    @property
    def ingested_points(self) -> int:
        """Total points handed to :meth:`ingest` so far."""
        return self._next_id

    @property
    def processed_points(self) -> int:
        """Points actually placed in MemTables (event timestamps use this)."""
        return self._arrival_cursor

    @property
    def write_amplification(self) -> float:
        """Current measured WA."""
        return self.stats.write_amplification

    @property
    def wal(self) -> WriteAheadLog | None:
        """The engine's write-ahead log (``None`` when durability is off)."""
        return self._wal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(policy={self.policy_name}, "
            f"ingested={self.ingested_points}, wa={self.write_amplification:.3f})"
        )
