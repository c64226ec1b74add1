"""The storage kernel: one engine core driving three policies.

:class:`StorageKernel` is the single concrete ingest/durability core
behind every composed engine.  It inherits the cross-cutting machinery
from :class:`~repro.lsm.base.LsmEngine` — WAL framing before MemTable
placement, id assignment and write accounting, telemetry spans, fault
boundaries, checkpoint metadata — and delegates the three policy axes:

* ``placement`` buffers batches into MemTables,
* ``flush`` decides when/how MemTables move to disk,
* ``compaction`` owns the disk structure and the one landing generator
  (:meth:`StorageKernel.land` drains it, or queues it on the scheduler).

The compaction policy — the disk structure — is bound for the kernel's
life.  The MemTable layout (placement + flush, and the scheduler and
admission controller sized from the same config) is bound through
:meth:`StorageKernel.rebind`: once by the constructor, and again when an
engine re-splits its write memory while running
(:meth:`~repro.lsm.conventional.LeveledEngine.resplit` — every retune
and resize), on a drained kernel.
Every registered engine class is a :class:`StorageKernel`; there is no
other implementor of :class:`~repro.lsm.base.LsmEngine`.

Checkpoint state is assembled component-wise: the compaction policy and
the placement policy each pack their own arrays under their established
prefixes, so a composed engine's checkpoint is the union of its parts —
and byte-layout-compatible with the monolithic engines it replaced.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ...config import LsmConfig, is_integer
from ...errors import EngineError
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

__all__ = ["StorageKernel"]


class StorageKernel(LsmEngine):
    """Concrete LSM engine composed from three policies."""

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
        faults: FaultInjector | None = None,
    ) -> None:
        super().__init__(
            config if config is not None else LsmConfig(),
            telemetry=telemetry,
            faults=faults,
        )
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

    @property
    def structure_epoch(self) -> int:
        """Monotone counter of disk-structure changes (flush/merge/restore)."""
        return self._structure_epoch

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
        return state

    def _restore_state(self, state: dict, arrays: dict[str, np.ndarray]) -> None:
        self.compaction.unpack(state, arrays)
        self.placement.unpack(arrays)
        # The whole structure was replaced: recount, this once, by a walk.
        self._set_cold_bytes(
            sum(table.stats_nbytes for table in self.compaction.visible_tables())
        )
        self.mark_structure_change()
