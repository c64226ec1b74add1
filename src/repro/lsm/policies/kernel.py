"""The storage kernel: one engine core driving three policies.

:class:`StorageKernel` is the single concrete ingest/durability core
behind every engine.  It inherits the cross-cutting machinery from
:class:`~repro.lsm.base.LsmEngine` — WAL framing before MemTable
placement, id assignment and write accounting, telemetry spans, fault
boundaries, checkpoint metadata — and delegates the three policy axes:

* ``placement`` buffers batches into MemTables,
* ``flush`` decides when/how MemTables move to disk,
* ``compaction`` owns the disk structure and the one landing generator
  (:meth:`StorageKernel.land` drains it, or queues it on the scheduler).

The compaction policy — the disk structure — is bound for the kernel's
life.  The MemTable layout (placement + flush, and the scheduler and
admission controller sized from the same config) is bound through
:meth:`StorageKernel.rebind`: once by the constructor, and again when
the engine re-splits its write memory while running
(:meth:`StorageKernel.resplit` — every retune and resize), on a drained
kernel.  The split is live state, ``config.seq_capacity`` on the
paper's leveled engine: a re-split binds the natural flush of the new
placement and becomes the row of :data:`~repro.lsm.policies.compose.ENGINES`
of the new triple, so a ``pi_c`` engine re-split to ``pi_s`` records
``SeparationEngine``.

The kernel is also where the one tuning loop of Sections I-D and V-B
lives.  An engine may carry a :class:`~repro.core.analyzer.DelayAnalyzer`:
it then ingests *(generation, arrival)* pairs, logs them and feeds them
to the analyzer, and :meth:`StorageKernel.retune` is the one step from a
delay window to a split — Algorithm 1 (:func:`decide`),
:meth:`~StorageKernel.resplit`, one :class:`RetuneRecord`.  A database
calls it for each auto-tuned series; with a ``check_interval`` (the
``AdaptiveEngine`` row, ``pi_adaptive``) the engine calls it itself
whenever the delays drift.  Every re-split is a control frame in the
engine's WAL and the analyzer is part of its checkpoint (the ``tuner``
block), so recovery rebuilds both.

Checkpoint state is assembled component-wise: the compaction policy and
the placement policy each pack their own arrays under their established
prefixes, so a composed engine's checkpoint is the union of its parts —
and byte-layout-compatible with the monolithic engines it replaced.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ...config import LsmConfig, is_integer
from ...core.analyzer import DelayAnalyzer
from ...core.tuning import SEPARATION, PolicyDecision
from ...errors import CheckpointCorruptError, ConfigError, EngineError, ModelError
from ...faults.injector import FaultInjector
from ...obs.telemetry import Telemetry
from ..backpressure import AdmissionController
from ..base import LsmEngine, MemTableView, Snapshot
from ..memtable import MemTable
from ..pruning import TableIndex
from ..scheduler import CompactionScheduler
from ..sstable import SSTable
from .compaction import LANDING_OPS, CompactionPolicy
from .flush import FlushStrategy
from .placement import PlacementPolicy

__all__ = ["StorageKernel", "RetuneRecord", "decide"]

logger = logging.getLogger(__name__)

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
    """One decision an engine applied (:meth:`StorageKernel.retune`)."""

    #: Arrival index it was applied at.
    arrival_index: int
    decision: PolicyDecision
    #: The policy label the engine re-split to; ``None`` if it kept its split.
    switched_to: str | None


class StorageKernel(LsmEngine):
    """Concrete LSM engine composed from three policies."""

    #: ``None`` only until the constructor's first :meth:`rebind`.
    placement: PlacementPolicy | None = None
    #: The row of :data:`~repro.lsm.policies.compose.ENGINES` the engine
    #: is — the name its checkpoints record — set by
    #: :class:`~repro.lsm.policies.compose.ComposedEngine` and moved by
    #: a re-split; ``None`` for a kernel assembled by hand, which
    #: records its class name.
    row = None

    def __init__(
        self,
        config: LsmConfig | None = None,
        *,
        placement: PlacementPolicy,
        flush: FlushStrategy,
        compaction: CompactionPolicy,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
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
        super().__init__(config, telemetry=telemetry, faults=faults)
        self.compaction = compaction
        #: Structure epoch: bumped whenever the disk structure changes
        #: (flush/merge landing, checkpoint restore) or the MemTable
        #: layout is re-bound.  The snapshot cache keys on it.
        self._structure_epoch = 0
        #: The last snapshot built; served again while its ``version``
        #: is still the read version, and its pruning index reused while
        #: its epoch (``version[0]``) is still the structure epoch.
        self._snapshot_cache: Snapshot | None = None
        #: Tables :meth:`convert_cold` turned columnar over this kernel's life.
        self.cold_tables_converted = 0
        # Resident block-statistics bytes of the visible tables: a
        # running total kept where tables convert and leave (landings
        # write row tables, which pin none), because the admission
        # controller reads it on every batch.
        self._cold_bytes = 0
        # Policies see the kernel (config, stats, telemetry, fault
        # boundary) through one back-reference each; compaction binds
        # first so placement/flush can read its state (the watermark).
        compaction.bind(self)
        self.rebind(self.config, placement, flush)

    def rebind(
        self, config: LsmConfig, placement: PlacementPolicy, flush: FlushStrategy
    ) -> None:
        """Bind a MemTable layout and everything sized from ``config``.

        Construction is the first bind.  Binding again re-divides write
        memory in place — the disk structure, write statistics, cursors,
        WAL and fault injector are the kernel's own and stay — but only
        on a *drained* kernel (``flush_all`` first): fresh MemTables
        replace the bound ones and a fresh scheduler replaces the queue,
        so a point still held by either would be lost.  Raises
        :class:`EngineError` in that case and changes nothing.
        """
        if self.placement is not None and (
            any(not memtable.empty for memtable in self.placement.memtables())
            or (self.scheduler is not None and len(self.scheduler))
        ):
            raise EngineError(
                f"{self.policy_name}: rebind needs a drained kernel "
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
        """Bind the layout of ``config``'s split on a drained kernel: the
        natural flush of the new placement, and the row of the new triple."""
        from .compose import FLUSHES, PLACEMENTS, split_row

        placement = "single" if config.seq_capacity is None else "split"
        row, policy_name, flush = split_row(self.row, placement)
        self.rebind(config, PLACEMENTS[placement](), FLUSHES[flush][0]())
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
        the class of a kernel assembled by hand."""
        return type(self).__name__ if self.row is None else self.row.engine

    # -- the tuning loop -------------------------------------------------------

    def _ingest_pairs(
        self, tg: np.ndarray, ta: np.ndarray, delays: np.ndarray | None = None
    ) -> None:
        """Observe and place validated pairs — shared by ingest and WAL
        replay.  The analyzer stages ``delays`` when ingest computed
        them, and checks a replayed record's pairs itself.  With a
        ``check_interval`` (every point then comes with its arrival
        time, so the arrival index is the check cursor), the engine
        retunes at each boundary where the delays have drifted."""
        analyzer = self.analyzer

        def observe(start: int, stop: int) -> None:
            if delays is None:
                analyzer.observe(tg[start:stop], ta[start:stop])
            else:
                analyzer._stage(tg[start:stop], delays[start:stop])

        interval = self.check_interval
        if interval is None:
            observe(0, tg.size)
            self._ingest_validated(tg)
            return
        pos = 0
        while pos < tg.size:
            take = min(interval - self._next_id % interval, tg.size - pos)
            observe(pos, pos + take)
            self._ingest_validated(tg[pos : pos + take])
            pos += take
            if self._next_id % interval == 0 and self.analyzer.should_retune():
                self.retune(hysteresis=TRIGGER_HYSTERESIS)

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

    # -- hot path --------------------------------------------------------------

    def _admit_batch(self, count: int) -> None:
        # Work forced by admission (throttle/drain) counts toward THIS
        # batch's stall, so the accumulator resets before admission runs.
        if self.scheduler is not None:
            self.scheduler.begin_batch()
        if self.admission is not None:
            self.admission.admit(count)

    def _ingest_batch(self, tg: np.ndarray, ids: np.ndarray) -> None:
        self.compaction.before_ingest(tg.size)
        self.placement.ingest(tg, ids)
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.bucket.refill(tg.size)
            scheduler.run()

    def _flush_buffers(self) -> None:
        self.flush.drain()
        if self.scheduler is not None:
            self.scheduler.drain()

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

    # -- durability hooks ------------------------------------------------------

    def _prepare_checkpoint(self) -> None:
        # A checkpoint is a sync point: queued landings run to
        # completion first, so the packed MemTables/runs describe a
        # quiescent state and restore needs no queue serialisation.
        if self.scheduler is not None:
            self.scheduler.drain()

    def _checkpoint_state(self, arrays: dict[str, np.ndarray]) -> dict:
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
        return state

    def _restore_state(self, state: dict, arrays: dict[str, np.ndarray]) -> None:
        inner = state.get("inner")
        if inner is not None:
            # Laid out so by pi_adaptive checkpoints taken before the
            # analyzer was engine state: the kernel nested, the
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
        try:
            interval, seq_capacity = tuner["check_interval"], tuner["seq_capacity"]
            if interval is not None and not (is_integer(interval) and interval >= 1):
                raise CheckpointCorruptError(f"tuner check_interval is {interval!r}")
            if seq_capacity != self.config.seq_capacity:
                if not self.row.tuner:
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
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointCorruptError(f"tuner block: {exc!r}") from None
        self.analyzer, self.check_interval, self.decisions = analyzer, interval, decisions
        analyzer.last_decision = decisions[-1].decision if decisions else None


def decision_to_json(decision: PolicyDecision) -> dict:
    """JSON-able form of one Algorithm 1 output: its evidence, not its
    bill (``rows_computed`` reads 0 once restored)."""
    sweeps = {key: getattr(decision, key).tolist() for key in ("sweep_n_seq", "sweep_r_s")}
    return dict(vars(decision), **sweeps, rows_computed=0)


def decision_from_json(fields: dict) -> PolicyDecision:
    """The decision :func:`decision_to_json` wrote."""
    n_seq, r_s = np.asarray(fields["sweep_n_seq"], np.int64), np.asarray(fields["sweep_r_s"])
    return PolicyDecision(**dict(fields, sweep_n_seq=n_seq, sweep_r_s=r_s))
