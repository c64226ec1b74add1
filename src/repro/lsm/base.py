"""The engine: one class, :class:`LsmEngine`, and its read snapshots.

An engine consumes a stream of generation times *in arrival order* and
maintains simulated disk state (a :class:`~repro.lsm.level.Run` per level)
plus exact write accounting.  Ingestion is batch-oriented: callers hand
over numpy arrays and the engine slices them at flush/merge boundaries
internally, so driving millions of points stays cheap.  An engine starts
empty — arrival id 0, fresh :class:`WriteStats` — and its statistics,
cursors, WAL handle and fault injector are its own for life: a policy
change re-splits the engine in place, it never hands them to another.

:class:`LsmEngine` is the only engine class.  It owns what every engine
does the same way — validation, admission and WAL framing before
placement, id assignment and write accounting, fault boundaries,
checkpoints, ``verify`` — and delegates three policy axes
(:mod:`repro.lsm.policies`):

* ``placement`` buffers batches into MemTables,
* ``flush`` decides when/how MemTables move to disk,
* ``compaction`` owns the disk structure and the one landing generator
  (:meth:`LsmEngine.land` drains it, or queues it on the scheduler).

The compaction policy — the disk structure — is bound for the engine's
life.  The MemTable layout (placement + flush, and the scheduler and
admission controller sized from the same config) is bound through
:meth:`LsmEngine.rebind`: once by the constructor, and again when the
engine re-splits its write memory while running (:meth:`LsmEngine.resplit`
— every retune and resize), on a drained engine.  A named engine is a
row of :data:`~repro.lsm.policies.compose.ENGINES` that a plain
constructor (``ConventionalEngine``, ``compose_engine``...) resolves to
policy objects; the engine keeps that row as :attr:`LsmEngine.row`, the
name its checkpoints record.  On the paper's leveled run the split is
live state, ``config.seq_capacity``: a re-split binds the natural flush
of the new placement and becomes the row of the new triple, so a
``pi_c`` engine re-split to ``pi_s`` records ``SeparationEngine``.

The engine is also where the one tuning loop of Sections I-D and V-B
lives.  An engine may carry a :class:`~repro.core.analyzer.DelayAnalyzer`:
it then ingests *(generation, arrival)* pairs, logs them and feeds them
to the analyzer, and :meth:`LsmEngine.retune` is the one step from a
delay window to a split — Algorithm 1 (:func:`decide`),
:meth:`~LsmEngine.resplit`, one :class:`RetuneRecord`.  A database calls
it for each auto-tuned series; with a ``check_interval`` (the
``AdaptiveEngine`` row, ``pi_adaptive``) the engine calls it itself
whenever the delays drift.  Every re-split is a control frame in the
engine's WAL and the analyzer is part of its checkpoint (the ``tuner``
block), so recovery rebuilds both.

A :class:`Snapshot` freezes the visible state (SSTables + MemTable
contents) for the query layer.

Durability (all opt-in, one branch on the hot path when off):

* With ``LsmConfig.wal_path`` set, every ingested batch is framed into a
  checksummed write-ahead log *before* MemTable placement
  (:mod:`repro.lsm.wal`).
* :meth:`LsmEngine.save_checkpoint` / :meth:`LsmEngine.restore`
  serialise/revive the full engine state (:mod:`repro.lsm.checkpoint`),
  component-wise: the compaction and placement policies each pack their
  own arrays; :mod:`repro.lsm.recovery` combines both into crash recovery.
* With ``LsmConfig.fault_plan`` set — the one way to arm an engine —
  flush/merge boundaries fire a :class:`~repro.faults.FaultInjector`:
  injected crashes escape before any state mutates.
* :meth:`LsmEngine.verify` runs the crash-consistency invariants
  (:mod:`repro.lsm.invariants`) over the live state.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..config import LsmConfig, is_integer
from ..core.analyzer import DelayAnalyzer, finite_delays
from ..core.tuning import SEPARATION, PolicyDecision
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
from .backpressure import AdmissionController
from .memtable import EMPTY_IDS, MemTable
from .pruning import PlanEntry, TableIndex
from .scheduler import CompactionScheduler
from .sstable import SSTable
from .wa_tracker import WriteStats
from .wal import WalRecord, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .policies.compaction import CompactionPolicy
    from .policies.flush import FlushStrategy
    from .policies.placement import PlacementPolicy

__all__ = ["LsmEngine", "Snapshot", "MemTableView", "RetuneRecord", "decide"]

logger = logging.getLogger(__name__)


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
    (engines do, cached per structure epoch), :meth:`overlapping_tables`
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


#: The ways a MemTable lands on disk; every compaction policy's ``land``
#: takes each of them.
LANDING_OPS = ("compact", "flush", "merge")

#: A retune the ``check_interval`` trigger makes re-splits only when the
#: policy changes or ``n_seq`` moves by more than this share of the
#: budget; an explicit one re-splits whenever the split changes.
TRIGGER_HYSTERESIS = 0.05

#: What Algorithm 1 answered for one analyzer (or why it could not), and
#: how long that took in milliseconds.
RetuneOutcome = tuple[PolicyDecision | ModelError, float]


def decide(analyzer: DelayAnalyzer) -> RetuneOutcome:
    """The decide half of a retune: Algorithm 1 on ``analyzer``'s window,
    timed, with a window that cannot be profiled as the outcome."""
    started = time.perf_counter()
    try:
        outcome = analyzer.recommend()
    except ModelError as error:
        outcome = error
    return outcome, (time.perf_counter() - started) * 1e3


class RetuneRecord(NamedTuple):
    """One decision an engine applied (:meth:`LsmEngine.retune`)."""

    #: Arrival index it was applied at.
    arrival_index: int
    decision: PolicyDecision
    #: The policy label the engine re-split to; ``None`` if it kept its split.
    switched_to: str | None


def decision_to_json(decision: PolicyDecision) -> dict:
    """JSON-able form of one Algorithm 1 output: its evidence, not its
    bill (``rows_computed`` reads 0 once restored)."""
    sweeps = {key: getattr(decision, key).tolist() for key in ("sweep_n_seq", "sweep_r_s")}
    return dict(vars(decision), **sweeps, rows_computed=0)


def decision_from_json(fields: dict) -> PolicyDecision:
    """The decision :func:`decision_to_json` wrote."""
    n_seq, r_s = np.asarray(fields["sweep_n_seq"], np.int64), np.asarray(fields["sweep_r_s"])
    return PolicyDecision(**dict(fields, sweep_n_seq=n_seq, sweep_r_s=r_s))


class LsmEngine:
    """The one engine class: a placement, a flush strategy and a
    compaction policy driven by one ingest and durability core.

    Build one from policy objects, or a named engine through its
    constructor (:mod:`repro.lsm.policies.compose`), which resolves a
    row of :data:`~repro.lsm.policies.compose.ENGINES` to policy objects
    and records the row on the engine.
    """

    #: Short policy label used in reports and spans (``pi_c``, ``pi_s``...);
    #: a named constructor sets its row's.
    policy_name: str = "abstract"
    #: The row of :data:`~repro.lsm.policies.compose.ENGINES` the engine
    #: is — the name its checkpoints record — set by the constructor
    #: that built it and moved by a re-split; ``None`` for an engine
    #: built from policy objects by hand, which records its class name.
    row = None
    #: ``None`` only until the constructor's first :meth:`rebind`.
    placement: PlacementPolicy | None = None

    def __init__(
        self,
        config: LsmConfig | None = None,
        *,
        placement: PlacementPolicy,
        flush: FlushStrategy,
        compaction: CompactionPolicy,
        telemetry: Telemetry | None = None,
        analyzer: DelayAnalyzer | None = None,
        check_interval: int | None = None,
    ) -> None:
        config = config if config is not None else LsmConfig()
        if check_interval is not None:
            if not is_integer(check_interval) or check_interval < 1:
                raise EngineError(
                    f"check_interval must be an integer >= 1, got {check_interval!r}"
                )
            if analyzer is None:
                analyzer = DelayAnalyzer(config.memory_budget, sstable_size=config.sstable_size)
        #: The delay analyzer :meth:`ingest` feeds arrival times to
        #: (``None``: the engine ignores them).
        self.analyzer = analyzer
        #: Points between the analyzer's retune checks (``None``: retuned
        #: only on request, as a database series is).
        self.check_interval = check_interval
        #: Every decision :meth:`retune` applied, in order.
        self.decisions: list[RetuneRecord] = []
        #: The checked compaction parameters a named constructor built
        #: the engine with; its checkpoints record them to rebuild it.
        self.params: dict = {}
        self.config = config
        self.stats = WriteStats()
        #: Event bus for this engine: the one it was handed, else the
        #: no-op bus.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            self.stats.bind_telemetry(self.telemetry)
        #: Fault injector armed by ``config.fault_plan``; ``None`` keeps
        #: injection absent.
        self.faults = FaultInjector(config.fault_plan) if config.fault_plan is not None else None
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
        self.compaction = compaction
        #: Structure epoch: bumped whenever the disk structure changes
        #: (flush/merge landing, checkpoint restore) or the MemTable
        #: layout is re-bound.  The snapshot cache keys on it.
        self._structure_epoch = 0
        #: The last snapshot built; served again while its ``version``
        #: is still the read version, and its pruning index reused while
        #: its epoch (``version[0]``) is still the structure epoch.
        self._snapshot_cache: Snapshot | None = None
        #: Tables :meth:`convert_cold` turned columnar over this engine's life.
        self.cold_tables_converted = 0
        # Resident block-statistics bytes of the visible tables: a
        # running total kept where tables convert and leave (landings
        # write row tables, which pin none), because the admission
        # controller reads it on every batch.
        self._cold_bytes = 0
        # Policies see the engine (config, stats, telemetry, fault
        # boundary) through one back-reference each; compaction binds
        # first so placement/flush can read its state (the watermark).
        compaction.bind(self)
        self.rebind(config, placement, flush)

    def rebind(
        self, config: LsmConfig, placement: PlacementPolicy, flush: FlushStrategy
    ) -> None:
        """Bind a MemTable layout and everything sized from ``config``.

        Construction is the first bind.  Binding again re-divides write
        memory in place — the disk structure, write statistics, cursors,
        WAL and fault injector are the engine's own and stay — but only
        on a *drained* engine (``flush_all`` first): fresh MemTables
        replace the bound ones and a fresh scheduler replaces the queue,
        so a point still held by either would be lost.  Raises
        :class:`EngineError` in that case and changes nothing.
        """
        if self.placement is not None and (
            any(not memtable.empty for memtable in self.placement.memtables())
            or (self.scheduler is not None and len(self.scheduler))
        ):
            raise EngineError(
                f"{self.policy_name}: rebind needs a drained engine "
                "(flush_all first); MemTables or the landing queue "
                "still hold points"
            )
        self.config = config
        self.placement = placement
        self.flush = flush
        placement.bind(self)
        flush.bind(self)
        #: Incremental landing scheduler (``None`` = stop-the-world: a
        #: full MemTable lands synchronously inside the ingest call).
        self.scheduler: CompactionScheduler | None = (
            CompactionScheduler(self) if config.compaction_scheduler else None
        )
        #: Admission controller; active whenever the scheduler is on or
        #: backpressure thresholds are set explicitly.
        self.admission: AdmissionController | None = (
            AdmissionController(self)
            if (
                config.compaction_scheduler
                or config.backpressure_throttle is not None
                or config.backpressure_shed is not None
            )
            else None
        )
        # The visible MemTables changed identity: every read cache misses.
        self.mark_structure_change()

    def resplit(
        self, seq_capacity: int | None, memory_budget: int | None = None
    ) -> bool:
        """Re-divide write memory on the running engine, at a flush boundary.

        ``seq_capacity`` is the new ``n_seq`` (``None`` for one
        MemTable, ``pi_c``), ``memory_budget`` the new total (unchanged
        when omitted).  The new configuration is validated before
        anything moves (:class:`~repro.errors.ConfigError`), and
        ``False`` comes back with the engine untouched when it is the
        one already in force.  Only an engine whose split is live state
        (a row with a tuner: the leveled rows) re-splits; any other's
        split is what it is, and asking is a ``ConfigError`` too.
        Otherwise the re-split is logged (a control frame in the WAL, so
        recovery re-applies it at the same arrival), the buffers drain
        (``flush_all``) and the MemTable layout of the new split is
        bound; the disk structure, write statistics, cursors, WAL and
        fault injector are the engine's own and stay.
        """
        budget = memory_budget if memory_budget is not None else self.config.memory_budget
        config = replace(self.config, seq_capacity=seq_capacity, memory_budget=budget)
        if self.row is None or not self.row.tuner:
            raise ConfigError(f"{self.policy_name} cannot re-split its write memory")
        if config == self.config:
            return False
        self._ensure_open()
        if self._wal is not None:
            self._wal.append_split(self._next_id, seq_capacity, config.memory_budget)
        self.flush_all()
        self._bind_split(config)
        return True

    def _bind_split(self, config: LsmConfig) -> None:
        """Bind the layout of ``config``'s split on a drained engine: the
        natural flush of the new placement, and the row of the new triple."""
        from .policies.compose import FLUSHES, PLACEMENTS, split_row

        placement = "single" if config.seq_capacity is None else "split"
        row, policy_name, flush = split_row(self.row, placement)
        self.rebind(config, PLACEMENTS[placement](), FLUSHES[flush]())
        self.row, self.policy_name = row, policy_name
        if self.analyzer is not None:
            self.analyzer.memory_budget = config.memory_budget

    @property
    def current_policy(self) -> str:
        """Label of the split in force (``pi_c`` / ``pi_s(n_seq=...)``)."""
        placement = self.placement
        return "pi_c" if placement.name == "single" else f"pi_s(n_seq={placement.seq.capacity})"

    @property
    def checkpoint_label(self) -> str:
        """The name checkpoints and manifests record for this engine —
        its row's, which follows the split in force (either leveled
        named constructor's engine may come to record the other's), or
        the class of an engine built by hand."""
        return type(self).__name__ if self.row is None else self.row.engine

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
        # Work forced by admission (throttle/drain) counts toward THIS
        # batch's stall, so the accumulator resets before admission runs.
        if self.scheduler is not None:
            self.scheduler.begin_batch()
        if self.admission is not None:
            self.admission.admit(arr.size)
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
        they are observed.  With a ``check_interval`` (every point then
        comes with its arrival time, so the arrival index is the check
        cursor), the engine retunes at each boundary where the delays
        have drifted."""
        analyzer = self.analyzer
        if ta is None or analyzer is None:
            self._ingest_validated(arr)
            return

        def observe(start: int, stop: int) -> None:
            if delays is None:
                analyzer.observe(arr[start:stop], ta[start:stop])
            else:
                analyzer._stage(arr[start:stop], delays[start:stop])

        interval = self.check_interval
        if interval is None:
            observe(0, arr.size)
            self._ingest_validated(arr)
            return
        pos = 0
        while pos < arr.size:
            take = min(interval - self._next_id % interval, arr.size - pos)
            observe(pos, pos + take)
            self._ingest_validated(arr[pos : pos + take])
            pos += take
            if self._next_id % interval == 0 and self.analyzer.should_retune():
                self.retune(hysteresis=TRIGGER_HYSTERESIS)

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

    def _ingest_batch(self, tg: np.ndarray, ids: np.ndarray) -> None:
        self.compaction.before_ingest(tg.size)
        self.placement.ingest(tg, ids)
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.bucket.refill(tg.size)
            scheduler.run()

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
        self.flush.drain()
        if self.scheduler is not None:
            self.scheduler.drain()

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

    # -- the tuning loop -------------------------------------------------------

    def retune(
        self,
        outcome: RetuneOutcome | None = None,
        hysteresis: float = 0.0,
        series: str | None = None,
    ) -> bool:
        """Decide and apply one retune; True if the engine re-split.

        ``outcome`` is what :func:`decide` answered for :attr:`analyzer`
        (decided now when omitted).  A window that cannot be profiled
        keeps the split, with a warning and a ``retune_skipped`` event.
        Otherwise the engine re-splits to the decision unless it moves
        ``n_seq`` by no more than ``hysteresis`` times the budget (a
        policy change always re-splits), and appends a
        :class:`RetuneRecord` to :attr:`decisions`.  Events are
        ``db.*``, naming ``series``, for a series of a database and
        ``adaptive.*``, at the arrival index, for an engine on its own.
        """
        decision, duration_ms = decide(self.analyzer) if outcome is None else outcome
        alone = series is None
        where = {"arrival_index": self.ingested_points} if alone else {"series": series}
        telemetry = self.telemetry
        if isinstance(decision, ModelError):
            logger.warning(
                "retune skipped %s, which keeps %s: %s",
                f"at arrival {self.ingested_points}" if alone else f"series {series!r}",
                self.current_policy,
                decision,
            )
            kind = "adaptive.retune_skipped" if alone else "db.retune_skipped"
            reason = str(decision)
            telemetry.emit({"type": kind, **where, "policy": self.current_policy, "reason": reason})
            return False
        target = decision.seq_capacity if decision.policy == SEPARATION else None
        current = self.config.seq_capacity
        switching = (target is None) != (current is None) or (
            target is not None
            and abs(target - current) > hysteresis * self.config.memory_budget
        )
        if telemetry.enabled:
            event = {"type": "adaptive.decision", **where, "policy": decision.policy}
            event["seq_capacity"] = decision.seq_capacity
            if alone:
                event["switching"] = switching
                telemetry.count("adaptive.decisions")
            else:
                analyzer = self.analyzer
                event.update(
                    type="db.retune_decision",
                    observed_points=analyzer.observed_points,
                    sample_count=len(analyzer.window),
                    dt=analyzer.estimated_dt(),
                    memory_budget=analyzer.memory_budget,
                    sstable_size=analyzer.sstable_size,
                    r_c=decision.r_c,
                    r_s_star=decision.r_s_star,
                    candidates=int(decision.sweep_n_seq.size),
                    duration_ms=duration_ms,
                    rows_computed=decision.rows_computed,
                )
            telemetry.emit(event)
        switched = switching and self.resplit(target)
        policy = self.current_policy
        record = RetuneRecord(self.ingested_points, decision, policy if switched else None)
        self.decisions.append(record)
        if switched and telemetry.enabled:
            kind = "adaptive.switch" if alone else "db.series_retuned"
            telemetry.emit({"type": kind, **where, "policy": policy})
            telemetry.count("adaptive.switches" if alone else "db.retunes")
        return switched

    @property
    def switches(self) -> list[tuple[int, str]]:
        """``(arrival_index, policy label)`` of every re-split
        :meth:`retune` made, from :attr:`decisions`."""
        return [(index, to) for index, _, to in self.decisions if to is not None]

    # -- landing ---------------------------------------------------------------

    def land(self, op: str, memtable: MemTable) -> None:
        """Land one MemTable through ``op`` — now, or via the scheduler.

        Either way the work is the compaction policy's one ``land``
        generator.  Without a scheduler it is drained on the spot with
        an unbounded work unit (stop-the-world: the whole overlap is one
        chunk, the MemTable stays where it is).  With one, the MemTable
        is *detached* — the placement policy swaps in a fresh empty
        buffer so ingest continues immediately — and the generator is
        queued; the scheduler steps it in bounded work units paced by
        the token bucket.
        """
        if op not in LANDING_OPS:
            raise EngineError(
                f"unknown landing op {op!r}; expected one of {LANDING_OPS}"
            )
        scheduler = self.scheduler
        if scheduler is None:
            for _ in self.compaction.land(op, memtable, math.inf):
                pass
            return
        self.placement.replace_memtable(memtable)
        scheduler.submit(
            memtable, self.compaction.land(op, memtable, scheduler.unit_points)
        )

    def watermark(self) -> float:
        """Effective ``LAST(R).t_g``: disk watermark or any pending flush.

        A queued seq flush must raise the classification watermark
        exactly as its synchronous counterpart would have — otherwise
        the split placement would route subsequent in-order arrivals to
        ``C_nonseq`` and diverge from the stop-the-world engine.
        """
        mark = self.compaction.watermark()
        scheduler = self.scheduler
        if scheduler is not None:
            pending = scheduler.pending_watermark()
            if pending > mark:
                mark = pending
        return mark

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

    # -- cold tier -------------------------------------------------------------

    def retire_tables(self, tables: list[SSTable]) -> None:
        """``tables`` left the visible structure: release the block
        statistics bytes they were charged (compaction commits call this)."""
        self._set_cold_bytes(
            self._cold_bytes - sum(table.stats_nbytes for table in tables)
        )

    def _set_cold_bytes(self, total: int) -> None:
        if total != self._cold_bytes:
            self._cold_bytes = total
            if self.telemetry.enabled:
                self.telemetry.gauge("cold_tier.resident_bytes", float(total))

    def cold_tier_bytes(self) -> int:
        """Modelled resident bytes of columnar block statistics across
        all visible tables.

        This is the cold tier's modelled in-memory footprint: the point
        arrays model disk, and a real cold tier would pin its zone maps
        in RAM, so the backpressure debt model charges
        ``BLOCK_STAT_BYTES`` per block (a charge: no per-block object
        exists, a columnar table is its block grid).  O(1): the
        total is adjusted by every commit, conversion and restore (and
        the ``cold_tier.resident_bytes`` gauge published) as it changes,
        and always equals the sum of ``stats_nbytes`` over
        ``compaction.visible_tables()``.
        """
        return self._cold_bytes

    def convert_cold(self, max_tg: float | None = None, block_size: int = 64) -> int:
        """Convert the visible row tables whose newest point is at or
        below ``max_tg`` (``None``: every one) to the columnar format
        on a grid of ``block_size``-point blocks, in place; returns
        how many were converted.

        This is the only way a table turns columnar: every landing
        writes row tables.  The conversion is layout-only: contents,
        write amplification and the event log are untouched; only the
        block grid and its modelled statistics bytes are added.  Both
        arguments are checked before any table changes — ``max_tg`` is
        ``None`` or a real number that is not NaN, ``block_size`` an
        integer ``>= 1`` — else :class:`EngineError`.
        """
        if max_tg is None:
            max_tg = math.inf
        elif (
            not isinstance(max_tg, numbers.Real)
            or isinstance(max_tg, bool)
            or math.isnan(max_tg)
        ):
            raise EngineError(f"max_tg must be a real number or None, got {max_tg!r}")
        if not is_integer(block_size) or block_size < 1:
            raise EngineError(f"block_size must be an integer >= 1, got {block_size!r}")
        converted = stats_bytes = 0
        for table in self.compaction.visible_tables():
            if not table.is_columnar and table.max_tg <= max_tg:
                table.convert_to_columnar(block_size)
                converted += 1
                stats_bytes += table.stats_nbytes
        if converted:
            self.cold_tables_converted += converted
            if self.telemetry.enabled:
                self.telemetry.count("cold_tier.tables_converted", converted)
            self._set_cold_bytes(self._cold_bytes + stats_bytes)
            # The layout changed even though the logical structure did
            # not: runs re-read their block counts, and the epoch bump
            # makes the next read take the refreshed view.
            self.compaction.relayout()
            self.mark_structure_change()
        return converted

    # -- reading ---------------------------------------------------------------

    def mark_structure_change(self) -> None:
        """Invalidate read-path caches; called by landing-op commit points."""
        self._structure_epoch += 1

    def read_version(self) -> tuple[int, ...]:
        """The engine's read-state version vector.

        Combines the structure epoch, the scheduler's change sequence,
        and every MemTable's content version: any flush/merge/restore,
        buffered write, scheduler transition or re-split yields a
        distinct vector.  A re-split swaps in fresh MemTables and a
        fresh scheduler whose counters restart, but it also bumps the
        epoch, which only ever grows on this one object — so a vector
        from before can never recur.  Equal vectors therefore guarantee
        identical visible read state — the contract the snapshot slot,
        the one read cache, keys on.
        """
        scheduler = self.scheduler
        pending = scheduler.pending_memtables() if scheduler is not None else []
        return (
            self._structure_epoch,
            scheduler.change_seq if scheduler is not None else -1,
            *[memtable.version for memtable in pending],
            *[memtable.version for memtable in self.placement.memtables()],
        )

    def snapshot(self) -> Snapshot:
        """The frozen read view of the engine's visible state."""
        # Keyed on the read version vector: any flush/merge/restore or
        # buffered write produces a fresh key, so serving the cached
        # Snapshot is always safe.  The arrays inside it are frozen
        # (read-only) views, never copies.  With a scheduler,
        # detached-but-uncommitted MemTables are part of the visible
        # state (their points are nowhere else yet), and the queue's
        # change_seq keys the cache so submits/completions invalidate it.
        version = self.read_version()
        cached = self._snapshot_cache
        if cached is not None and cached.version == version:
            return cached
        # Only buffered points changed since the cached snapshot when its
        # epoch is still current: the disk structure, and so its pruning
        # index, are the same.
        if cached is not None and cached.version[0] == version[0]:
            index = cached.index
        else:
            index = TableIndex(self.compaction.pruning_groups())
        scheduler = self.scheduler
        pending = scheduler.pending_memtables() if scheduler is not None else []
        views = [
            MemTableView(
                name=memtable.name,
                tg=memtable.peek_tg(),
                ids=memtable.peek_ids(),
            )
            for memtable in (*pending, *self.placement.memtables())
            if not memtable.empty
        ]
        snapshot = Snapshot(
            tables=self.compaction.visible_tables(),
            memtables=views,
            index=index,
            version=version,
        )
        self._snapshot_cache = snapshot
        return snapshot

    def describe_policies(self) -> dict[str, str]:
        """The composition as labels (for ``repro engines`` and docs)."""
        return {
            "placement": self.placement.name,
            "flush": self.flush.name,
            "compaction": self.compaction.name,
        }

    # -- checkpointing -----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        """Serialise the complete engine state to ``path``.

        The checkpoint carries the runs, MemTables, write statistics and
        cursors, and what rebuilds the engine: its row's name and the
        constructor arguments that pick it (the triple, or the row's
        selector, and the compaction parameters).  Restoring it and
        replaying the WAL tail past ``ingested_points`` reproduces the
        live state bit-for-bit (modulo cosmetic SSTable sequence
        numbers).
        """
        from .checkpoint import write_checkpoint

        # A checkpoint is a sync point: queued landings run to
        # completion first, so the packed MemTables/runs describe a
        # quiescent state and restore needs no queue serialisation.
        if self.scheduler is not None:
            self.scheduler.drain()
        stats_meta, arrays = self.stats.to_checkpoint()
        state = self.compaction.pack(arrays)
        self.placement.pack(arrays)
        if self.analyzer is not None:
            state["tuner"] = {
                "seq_capacity": self.config.seq_capacity,
                "check_interval": self.check_interval,
                "analyzer": self.analyzer.to_checkpoint(arrays),
                "decisions": [
                    [index, switched_to, decision_to_json(decision)]
                    for index, decision, switched_to in self.decisions
                ],
            }
        row, params = self.row, dict(self.params)
        if row is not None:
            # What rebuilds the engine: a named row's selector and its
            # compaction parameters, or an open row's triple and its own.
            params = {**row.selector, **(params if row.key else {"compaction_kwargs": params})}
        meta = {
            "format": 1,
            "engine": self.checkpoint_label,
            "config": {
                "memory_budget": self.config.memory_budget,
                "sstable_size": self.config.sstable_size,
                "seq_capacity": self.config.seq_capacity,
            },
            "kwargs": params,
            "next_id": self._next_id,
            "arrival_cursor": self._arrival_cursor,
            "stats": stats_meta,
            "state": state,
        }
        write_checkpoint(path, meta, arrays, faults=self.faults)

    @classmethod
    def restore(
        cls,
        path: str,
        config: LsmConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> "LsmEngine":
        """Revive the engine serialised at ``path``.

        The recorded engine name picks the constructor that rebuilds it
        (a row of :data:`repro.lsm.policies.compose.ENGINES`); any
        recorded name will do (recovery checks it against the engine it
        expects).  ``config`` overrides the restored static
        configuration (e.g. to re-attach a ``wal_path``, or arm a
        ``fault_plan``); the core knobs (budgets, sstable size) always
        come from the checkpoint so the restored behaviour matches the
        saved engine.
        """
        from .checkpoint import read_checkpoint
        from .policies.compose import engine_constructor, recorded_constants_dropped

        meta, arrays = read_checkpoint(path)
        name = meta.get("engine")
        build = engine_constructor(name)
        if build is None:
            raise CheckpointError(f"{path}: unknown engine class {name!r}")
        # Checkpoints written before the cold tier lost its config knobs
        # still record ``cold_*`` keys here; they are ignored, and every
        # table keeps the block format its arrays record.  So is the
        # hysteresis pi_adaptive recorded before it became a constant,
        # and the ``policy`` label: the engine derives it.  A recorded
        # disk model or composed flush is dropped when it is the one
        # the engine has now, and corrupt otherwise.
        # A CRC-valid file is still outside input, judged here once:
        # whatever reading it raises — a header the engine cannot have
        # written (it decides where WAL replay starts), a parameter the
        # row's constructor refuses, a component's own check — is
        # corrupt, naming the file, and recovery replays.
        try:
            core, state, kwargs = meta["config"], meta["state"], meta.get("kwargs", {})
            if not isinstance(kwargs, dict):
                raise TypeError(f"kwargs is {kwargs!r}")
            kwargs.pop("min_seq_change", None)
            kwargs = recorded_constants_dropped(name, kwargs)
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
            engine = build(config=config, telemetry=telemetry, **kwargs)
            engine.stats = stats
            if engine.telemetry.enabled:
                engine.stats.bind_telemetry(engine.telemetry)
            engine._next_id, engine._arrival_cursor = int(next_id), int(cursor)
            engine._restore_state(state, arrays)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError,
                ConfigError, EngineError, ModelError) as exc:  # CheckpointCorruptError too
            raise CheckpointCorruptError(f"{path}: {exc!r}") from None
        return engine

    def _restore_state(self, state: dict, arrays: dict[str, np.ndarray]) -> None:
        inner = state.get("inner")
        if inner is not None:
            # Laid out so by pi_adaptive checkpoints taken before the
            # analyzer was engine state: the engine nested, the
            # decisions beside it, no window.
            self._bind_split(self.config.with_seq_capacity(inner["seq_capacity"]))
            self._restore_state(inner["state"], arrays)
            switches = dict(state["switch_log"])
            self.decisions = [
                RetuneRecord(index, decision_from_json(encoded), switches.get(index))
                for index, encoded in state["decision_log"]
            ]
            return
        tuner = state.get("tuner")
        if tuner is not None:
            self._restore_tuner(tuner, arrays)
        self.compaction.unpack(state, arrays)
        self.placement.unpack(arrays)
        # The whole structure was replaced: recount, this once, by a walk.
        self._set_cold_bytes(
            sum(table.stats_nbytes for table in self.compaction.visible_tables())
        )
        self.mark_structure_change()

    def _restore_tuner(self, tuner: dict, arrays) -> None:
        """Re-bind the recorded split and revive the analyzer, its check
        interval and its decisions — each checked, because what the
        engine does next is decided from them: a block that cannot be
        the engine's own is :class:`CheckpointCorruptError`, and
        recovery replays the WAL instead."""
        interval, seq_capacity = tuner["check_interval"], tuner["seq_capacity"]
        if interval is not None and not (is_integer(interval) and interval >= 1):
            raise CheckpointCorruptError(f"tuner check_interval is {interval!r}")
        if seq_capacity != self.config.seq_capacity:
            if self.row is None or not self.row.tuner:
                raise CheckpointCorruptError(f"{self.policy_name} has a fixed split")
            # A named constructor may have started under another split.
            self._bind_split(replace(self.config, seq_capacity=seq_capacity))
        analyzer = DelayAnalyzer.from_checkpoint(tuner["analyzer"], arrays)
        if analyzer.memory_budget != self.config.memory_budget:
            raise CheckpointCorruptError(
                f"analyzer budget {analyzer.memory_budget} is not the "
                f"engine's {self.config.memory_budget}"
            )
        decisions = [
            RetuneRecord(index, decision_from_json(encoded), switched_to)
            for index, switched_to, encoded in tuner["decisions"]
        ]
        for index, _, switched_to in decisions:
            if not is_integer(index) or not isinstance(switched_to, (str, type(None))):
                raise CheckpointCorruptError(f"tuner decision at {index!r} to {switched_to!r}")
        self.analyzer, self.check_interval, self.decisions = analyzer, interval, decisions
        analyzer.last_decision = decisions[-1].decision if decisions else None

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
            f"{self.checkpoint_label}(policy={self.policy_name}, "
            f"ingested={self.ingested_points}, wa={self.write_amplification:.3f})"
        )
