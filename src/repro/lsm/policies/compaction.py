"""Compaction policies: the on-disk structure and how batches land in it.

Each policy owns the persistent state (runs, levels, files), exposes the
``LAST(R).t_g`` watermark that drives seq/nonseq classification, and
implements **one** landing path: the generator
:meth:`CompactionPolicy.land`.  ``land(op, memtable, unit_points)``
stages ``op`` (``compact`` — ``pi_c``'s overlap merge; ``flush`` —
``pi_s``'s rewrite-free ``C_seq`` append, tiered/IoTDB level-0 landings;
``merge`` — the separation protocol's phase-closing ``C_nonseq`` merge)
against the current disk state, yields the cost of each bounded work
unit, and commits.  Stop-the-world is that generator drained on the spot
with an unbounded unit; the scheduler steps the very same generator
under its token bucket — pacing changes *when* work happens, never
*what* lands.

Every landing — and every background reorganisation it triggers — is
staged-then-committed through :meth:`CompactionPolicy._commit`, the one
place the fault boundary fires, the structure epoch bumps, and the
kernel's :class:`WriteStats` and telemetry span are written: nothing
mutates before the boundary, so an injected crash leaves the engine
exactly as it was.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from ...config import DEFAULT_DISK_MODEL, is_finite_number, is_integer
from ...errors import CheckpointCorruptError, EngineError
from ..checkpoint import pack_tables, unpack_run, unpack_tables
from ..level import Run, RunView
from ..memtable import MemTable
from ..points import sort_by_generation
from ..sstable import SSTable, build_sstables
from ..wa_tracker import CompactionEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..base import LsmEngine

__all__ = [
    "merge_tables_with_batch",
    "CompactionPolicy",
    "LeveledSingleRun",
    "MultiLevelCascade",
    "SizeTiered",
    "IoTDBTwoSpace",
]

#: Fixed cost charged to the foreground for initiating one flush (fsync,
#: file creation) — identical for both IoTDB policies.
_FLUSH_SYNC_MS = 0.2

#: The most levels a multilevel or tiered structure may have (see
#: :func:`_check_max_levels`).
MAX_LEVELS = 64


# -- leveled-compaction merge primitives -----------------------------------------


def merge_tables_with_batch(
    tables: list[SSTable],
    batch_tg: np.ndarray,
    batch_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge on-disk tables with an in-memory batch into sorted arrays.

    All inputs are individually sorted by generation time; the output is
    their union, sorted.  A stable concatenate-then-sort is used: numpy's
    mergesort on mostly-sorted input is effectively a multiway merge and
    far faster than a Python heap.  With no tables the sorted batch is
    already the answer and is returned as is.
    """
    if not tables:
        return batch_tg, batch_ids
    parts_tg = [t.tg for t in tables]
    parts_ids = [t.ids for t in tables]
    parts_tg.append(batch_tg)
    parts_ids.append(batch_ids)
    tg = np.concatenate(parts_tg)
    ids = np.concatenate(parts_ids)
    return sort_by_generation(tg, ids)


def concat_sorted_tables(
    tables: list[SSTable],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate tables (possibly overlapping) into one sorted batch.

    This is the staging step shared by every whole-group reorganisation:
    a tiered level spilling its runs, a multilevel cascade moving a full
    level down, and the IoTDB L1 -> L2 background compaction.
    """
    tg = np.concatenate([t.tg for t in tables])
    ids = np.concatenate([t.ids for t in tables])
    return sort_by_generation(tg, ids)


def stage_overlap_merge(run: Run, tg: np.ndarray):
    """Stage a leveled merge of a sorted batch into ``run``.

    Returns ``(region, victims, rewritten)``: the contiguous slice of
    tables overlapping the batch's generation-time range, those tables,
    and their total point count.  Pure staging — nothing mutates, so a
    fault boundary may still abort the compaction afterwards.
    """
    lo, hi = float(tg[0]), float(tg[-1])
    region = run.overlap_slice(lo, hi)
    victims = run.tables[region]
    rewritten = run.points_in(region)
    return region, victims, rewritten


class CompactionPolicy(abc.ABC):
    """Owns the simulated disk state of one engine.

    A policy implements :meth:`land` (how a MemTable reaches disk),
    :meth:`groups` (what the structure is), :meth:`watermark` and
    :meth:`unpack`; every view of the structure — the snapshot's table
    list, the pruning index, the invariant checker, relayout, the
    checkpoint arrays — is derived here from :meth:`groups`.
    """

    #: Short label used by ``repro engines`` and composition tables.
    name: str = "abstract"

    def bind(self, kernel: "LsmEngine") -> None:
        """Attach to the owning kernel (called once, from the kernel)."""
        self.kernel = kernel

    # -- ingest hooks ----------------------------------------------------------

    def before_ingest(self, count: int) -> None:
        """Observe ``count`` points entering the engine (cost models)."""

    @abc.abstractmethod
    def watermark(self) -> float:
        """``LAST(R).t_g``: newest generation time persisted anywhere."""

    # -- landing ---------------------------------------------------------------

    @abc.abstractmethod
    def land(self, op: str, memtable: MemTable, unit_points: float) -> Iterator[int]:
        """Generator landing ``memtable`` via ``op`` (one of
        :data:`~repro.lsm.base.LANDING_OPS`) in work units of about ``unit_points``.

        Yields the cost (points processed) of each unit; the landing is
        committed — through :meth:`_commit`, MemTable cleared — by the
        time the last unit is yielded.  Nothing runs until the first
        ``next()``, so staging always sees the disk state at *execution*
        time.  This is the only landing path and therefore the one place
        to observe or instrument landings: the kernel drains it on the
        spot (``unit_points = inf``) or hands it to the scheduler.
        """

    def _commit(
        self,
        kind: str,
        written_ids: np.ndarray,
        apply: Callable[[], int],
        **fields,
    ) -> int:
        """Commit one staged disk write; return the tables it wrote.

        ``kind`` (``"flush"`` or ``"merge"``) names the fault site, the
        telemetry span and the logged event alike.  ``apply`` performs
        the staged mutation and returns how many tables it wrote; it
        runs only once the fault boundary has fired.  ``fields`` go on
        the span as given; the event log takes ``new_points`` /
        ``rewritten_points`` / ``tables_rewritten`` from them, zero
        where a caller does not report one.
        """
        kernel = self.kernel
        kernel._fault_boundary(kind)
        telemetry = kernel.telemetry
        if telemetry.enabled:
            with telemetry.span(kind, engine=kernel.policy_name) as span:
                written = apply()
                kernel.mark_structure_change()
                span.set(tables_written=written, **fields)
                kernel.stats.record_written(written_ids)
        else:
            written = apply()
            kernel.mark_structure_change()
            kernel.stats.record_written(written_ids)
        # Positional: keywords cost a NamedTuple more than its fields.
        kernel.stats.record_event(
            CompactionEvent(
                kind,
                kernel.processed_points,
                fields.get("new_points", 0),
                fields.get("rewritten_points", 0),
                fields.get("tables_rewritten", 0),
                written,
            )
        )
        return written

    # -- the structure, stated once ---------------------------------------------

    @abc.abstractmethod
    def groups(self) -> list[tuple[str, str, Run | list[SSTable]]]:
        """The on-disk structure as ``(name, kind, tables)`` groups, in
        snapshot order.

        ``kind`` is ``"sorted"`` (ordered and non-overlapping: a
        :class:`~repro.lsm.level.Run`, or a plain list kept that way) or
        ``"loose"`` (tables may overlap each other; each is still sorted
        inside).  ``name`` is the group's checkpoint array prefix and
        what an invariant violation reports.
        """

    def visible_tables(self) -> list[SSTable]:
        """Every persisted table, in snapshot order (a fresh list)."""
        tables: list[SSTable] = []
        for _, _, group in self.groups():
            tables.extend(group)
        return tables

    def pruning_groups(self) -> list[tuple[str, list[SSTable] | RunView]]:
        """``(kind, tables)`` per group for the time-range pruning index.

        A sorted group is binary-searchable, a loose one zone-map
        filtered.  A :class:`~repro.lsm.level.Run` gives its
        :meth:`~repro.lsm.level.Run.view`, which costs nothing to take;
        a list is copied, because the index outlives the next landing.
        The concatenation equals :meth:`visible_tables`, so pruned scans
        visit the same tables in the same order as full scans.
        """
        return [
            (kind, group.view() if isinstance(group, Run) else list(group))
            for _, kind, group in self.groups()
        ]

    def relayout(self) -> None:
        """Visible tables changed block format in place
        (``convert_cold``): every :class:`~repro.lsm.level.Run` re-reads
        its block counts."""
        for _, _, group in self.groups():
            if isinstance(group, Run):
                group.relayout()

    # -- durability ------------------------------------------------------------

    def pack(self, arrays: dict) -> dict:
        """Serialise every group into ``arrays`` under its name; return
        the JSON-able meta :meth:`unpack` needs beside them."""
        for name, _, group in self.groups():
            pack_tables(arrays, name, list(group))
        return {}

    @abc.abstractmethod
    def unpack(self, state: dict, arrays: dict) -> None:
        """Rebuild disk state packed by :meth:`pack`."""


def _check_max_levels(max_levels: int) -> None:
    """Level ``i`` holds ``n * T**(i+1)`` points with ``T >= 2``, so
    level 62 holds 2**63 points, more than an ``int64`` id can number:
    no stream fills a level past 62, and more than :data:`MAX_LEVELS`
    levels only allocate empty ones (a checkpoint's ``10**6`` would
    build a million runs before restore could judge it)."""
    if not 1 <= max_levels <= MAX_LEVELS:
        raise EngineError(f"max_levels must be in [1, {MAX_LEVELS}], got {max_levels}")


class LeveledSingleRun(CompactionPolicy):
    """One sorted, non-overlapping run — the paper's leveled L1.

    Supports all three landing styles: ``pi_c``'s overlap-merge of
    ``C0``, ``pi_s``'s pure append of ``C_seq`` and phase-closing merge
    of ``C_nonseq``.
    """

    name = "leveled"

    def __init__(self) -> None:
        self.run = Run()

    def watermark(self) -> float:
        return self.run.max_tg

    def land(self, op, memtable, unit_points):
        """``flush`` appends; ``compact`` / ``merge`` rewrite the tables
        the batch overlaps, ``unit_points`` of victims at a time.

        A landing with victims runs as: one staging unit (MemTable sort
        + overlap scan), one unit per chunk of victim tables merged with
        the batch slice in its key range (a single chunk whenever the
        overlap is smaller than the unit — always, when it is
        unbounded), and the commit — the rewritten segments spliced into
        the run behind the fault boundary.  A pure append, or a batch
        that overlaps nothing, is one unit.  A victimless ``compact`` is
        logged as a flush; ``merge`` always closes a phase, whatever it
        overlaps (all ``C_nonseq`` points sit below ``LAST(R).t_g``, so
        the freshly appended seq tables are never among its victims).
        The span carries ``incremental=True`` when the landing was paced
        (a bounded unit) and had victims to chunk.
        """
        tg, ids = memtable.sorted_view()
        new = int(tg.size)
        fields = {"new_points": new}
        if op != "compact":
            fields["memtable"] = memtable.name
        region, victims = None, []
        if op != "flush":
            region, victims, rewritten = stage_overlap_merge(self.run, tg)
            fields.update(rewritten_points=rewritten, tables_rewritten=len(victims))
        merged_tg, merged_ids = tg, ids
        if victims:
            if unit_points < math.inf:
                fields["incremental"] = True
            yield max(new, 1)
            if rewritten < unit_points:
                # The whole overlap fits one unit: a single chunk.
                merged_tg, merged_ids = merge_tables_with_batch(victims, tg, ids)
                yield rewritten + new
            else:
                segments = []
                first = pos = points = 0
                last = len(victims) - 1
                for index, victim in enumerate(victims):
                    points += len(victim)
                    if points < unit_points and index != last:
                        continue
                    # Batch points at or below the chunk's upper bound
                    # merge with it; the final chunk takes the whole tail.
                    cut = new if index == last else int(
                        np.searchsorted(tg, victim.max_tg, side="right")
                    )
                    segments.append(
                        merge_tables_with_batch(
                            victims[first : index + 1], tg[pos:cut], ids[pos:cut]
                        )
                    )
                    yield points + cut - pos
                    first, pos, points = index + 1, cut, 0
                merged_tg = np.concatenate([part[0] for part in segments])
                merged_ids = np.concatenate([part[1] for part in segments])

        def apply() -> int:
            tables = build_sstables(merged_tg, merged_ids, self.kernel.config.sstable_size)
            if region is None:
                self.run.append(tables)
            else:
                removed = self.run.replace(region, tables)
                if removed:
                    self.kernel.retire_tables(removed)
            memtable.clear()
            return len(tables)

        written = self._commit(
            "merge" if victims or op == "merge" else "flush",
            merged_ids,
            apply,
            **fields,
        )
        yield max(written, 1) if victims else max(new, 1)

    def groups(self):
        return [("run", "sorted", self.run)]

    def unpack(self, state: dict, arrays: dict) -> None:
        self.run = unpack_run(arrays, "run")


class MultiLevelCascade(CompactionPolicy):
    """Textbook leveled LSM: ``max_levels`` runs with size ratio ``T``."""

    name = "multilevel"

    def __init__(self, size_ratio: int = 10, max_levels: int = 6) -> None:
        if size_ratio < 2:
            raise EngineError(f"size_ratio must be >= 2, got {size_ratio}")
        _check_max_levels(max_levels)
        self.size_ratio = size_ratio
        self.max_levels = max_levels
        self.levels: list[Run] = [Run() for _ in range(max_levels)]

    def level_capacity(self, level: int) -> int:
        """Maximum points level ``level`` may hold before spilling."""
        return self.kernel.config.memory_budget * self.size_ratio ** (level + 1)

    def watermark(self) -> float:
        return max((run.max_tg for run in self.levels), default=-math.inf)

    def land(self, op, memtable, unit_points):
        """Every op is a compaction into level 0 plus the cascade it
        triggers, as one work unit."""
        tg, ids = memtable.sorted_view()
        new = int(tg.size)
        self._merge_into_level(0, tg, ids, new, memtable)
        # Spill each over-capacity level into the next.
        for level, run in enumerate(self.levels[:-1]):
            if run.tables and run.total_points > self.level_capacity(level):
                spill_tg, spill_ids = concat_sorted_tables(run.tables)
                self._merge_into_level(level + 1, spill_tg, spill_ids, 0, run)
        yield max(new, 1)

    def _merge_into_level(
        self,
        level: int,
        tg: np.ndarray,
        ids: np.ndarray,
        new_points: int,
        source: MemTable | Run,
    ) -> None:
        """Merge a sorted batch into ``level``; clear ``source`` on commit."""
        run = self.levels[level]
        region, victims, _ = stage_overlap_merge(run, tg)
        merged_tg, merged_ids = merge_tables_with_batch(victims, tg, ids)

        def apply() -> int:
            tables = build_sstables(merged_tg, merged_ids, self.kernel.config.sstable_size)
            self.kernel.retire_tables(run.replace(region, tables))
            # A spilled level's tables leave with it; a MemTable has none.
            self.kernel.retire_tables(source.clear() or [])
            return len(tables)

        self._commit(
            "merge" if victims or not new_points else "flush",
            merged_ids,
            apply,
            level=level,
            new_points=new_points,
            rewritten_points=merged_ids.size - new_points,
            tables_rewritten=len(victims),
        )

    def groups(self):
        return [
            (f"level{index}", "sorted", run)
            for index, run in enumerate(self.levels)
        ]

    def unpack(self, state: dict, arrays: dict) -> None:
        self.levels = [
            unpack_run(arrays, f"level{index}") for index in range(self.max_levels)
        ]


class SizeTiered(CompactionPolicy):
    """Tiering: up to ``tier_fanout`` overlapping runs per level."""

    name = "tiered"

    def __init__(self, tier_fanout: int = 4, max_levels: int = 8) -> None:
        if tier_fanout < 2:
            raise EngineError(f"tier_fanout must be >= 2, got {tier_fanout}")
        _check_max_levels(max_levels)
        self.tier_fanout = tier_fanout
        self.max_levels = max_levels
        #: ``levels[i]`` is a list of *runs*; each run is a list of
        #: internally sorted, non-overlapping SSTables, but runs overlap
        #: each other freely.
        self.levels: list[list[list[SSTable]]] = [[] for _ in range(max_levels)]

    def watermark(self) -> float:
        # Every run is sorted: its last table holds its newest point.
        return max(
            (run[-1].max_tg for level in self.levels for run in level if run),
            default=-math.inf,
        )

    def land(self, op, memtable, unit_points):
        """Every op sorts the MemTable into a new level-0 run (never a
        merge), then merges each full tier of runs into one run on the
        next level — all one work unit."""
        tg, ids = memtable.sorted_view()
        new = int(tg.size)

        def append_run() -> int:
            run = build_sstables(tg, ids, self.kernel.config.sstable_size)
            self.levels[0].append(run)
            memtable.clear()
            return len(run)

        self._commit("flush", ids, append_run, new_points=new)
        level = 0
        while (
            level < self.max_levels - 1
            and len(self.levels[level]) >= self.tier_fanout
        ):
            tables = [table for run in self.levels[level] for table in run]
            tier_tg, tier_ids = concat_sorted_tables(tables)

            def merge_tier() -> int:
                merged = build_sstables(tier_tg, tier_ids, self.kernel.config.sstable_size)
                self.kernel.retire_tables(tables)
                self.levels[level] = []
                self.levels[level + 1].append(merged)
                return len(merged)

            self._commit(
                "merge",
                tier_ids,
                merge_tier,
                level=level,
                rewritten_points=int(tier_ids.size),
                tables_rewritten=len(tables),
            )
            level += 1
        yield max(new, 1)

    @property
    def run_count(self) -> int:
        """Total number of (mutually overlapping) runs across all levels."""
        return sum(len(level) for level in self.levels)

    def groups(self):
        # Runs overlap each other freely, but each run is internally
        # sorted and non-overlapping — binary-searchable on its own.
        return [
            (f"level{li}.run{ri}", "sorted", run)
            for li, level in enumerate(self.levels)
            for ri, run in enumerate(level)
        ]

    def pack(self, arrays: dict) -> dict:
        super().pack(arrays)
        return {"runs_per_level": [len(level) for level in self.levels]}

    def unpack(self, state: dict, arrays: dict) -> None:
        counts = state["runs_per_level"]
        if len(counts) != self.max_levels or not all(is_integer(n) and n >= 0 for n in counts):
            raise CheckpointCorruptError(f"runs_per_level {counts!r}: not {self.max_levels} counts")
        self.levels = [
            [unpack_run(arrays, f"level{li}.run{ri}").tables for ri in range(count)]
            for li, count in enumerate(counts)
        ]


class IoTDBTwoSpace(CompactionPolicy):
    """IoTDB's deployment shape: loose L1 flush files, compacted L2 run.

    Flushes land as possibly overlapping level-1 files; a simulated
    background thread merges level 1 into the sorted level-2 run once
    ``l1_file_limit`` files accumulate.  Wall-clock cost is tracked
    separately for the foreground (inserts + flush writes) and the
    background (compaction writes) using :data:`DEFAULT_DISK_MODEL`.
    """

    name = "iotdb"

    def __init__(self, l1_file_limit: int = 10) -> None:
        if l1_file_limit < 1:
            raise EngineError(f"l1_file_limit must be >= 1, got {l1_file_limit}")
        self.l1_file_limit = l1_file_limit
        self.l1_files: list[SSTable] = []
        self.l2 = Run()
        #: Simulated time the writing client spends (inserts + flush writes).
        self.foreground_ms = 0.0
        #: Simulated time the background compaction thread spends.
        self.background_ms = 0.0

    def before_ingest(self, count: int) -> None:
        self.foreground_ms += count * DEFAULT_DISK_MODEL.insert_point_ms

    @property
    def throughput_points_per_ms(self) -> float:
        """User-visible write throughput (Table III's metric).

        "From the user's view, the throughput is calculated once the data
        are written to the database, while the compaction may not have
        happened yet" — so only foreground time counts.
        """
        if self.foreground_ms == 0.0:
            return float("nan")
        return self.kernel.ingested_points / self.foreground_ms

    def watermark(self) -> float:
        return max([self.l2.max_tg, *(table.max_tg for table in self.l1_files)])

    def land(self, op, memtable, unit_points):
        """Every op writes the MemTable as one level-1 file (no merge,
        may overlap); the background L1 -> L2 compaction it may trigger
        rides in the same work unit."""
        tg, ids = memtable.sorted_view()
        new = int(tg.size)

        def apply() -> int:
            table = SSTable(tg, ids)
            self.l1_files.append(table)
            memtable.clear()
            self.foreground_ms += _FLUSH_SYNC_MS + DEFAULT_DISK_MODEL.write_cost_ms(len(table))
            return 1

        self._commit("flush", ids, apply, memtable=memtable.name, new_points=new)
        if len(self.l1_files) >= self.l1_file_limit:
            self._compact_l1()
        yield max(new, 1)

    def _compact_l1(self) -> None:
        """Background thread: merge every L1 file into the L2 run."""
        files = self.l1_files
        tg, ids = concat_sorted_tables(files)
        region, victims, _ = stage_overlap_merge(self.l2, tg)
        merged_tg, merged_ids = merge_tables_with_batch(victims, tg, ids)
        consumed = len(files) + len(victims)

        def apply() -> int:
            tables = build_sstables(merged_tg, merged_ids, self.kernel.config.sstable_size)
            self.kernel.retire_tables(self.l2.replace(region, tables) + files)
            self.l1_files = []
            self.background_ms += DEFAULT_DISK_MODEL.write_cost_ms(
                merged_ids.size
            ) + DEFAULT_DISK_MODEL.read_cost_ms(consumed, merged_ids.size)
            return len(tables)

        self._commit(
            "merge",
            merged_ids,
            apply,
            level="L1->L2",
            rewritten_points=int(merged_ids.size),
            tables_rewritten=consumed,
        )

    def groups(self):
        # L1 flush files may overlap each other (zone-map filter); the
        # L2 run is sorted and non-overlapping (binary search).
        return [("l1", "loose", self.l1_files), ("l2", "sorted", self.l2)]

    def pack(self, arrays: dict) -> dict:
        super().pack(arrays)
        return {"foreground_ms": self.foreground_ms, "background_ms": self.background_ms}

    def unpack(self, state: dict, arrays: dict) -> None:
        self.l1_files = unpack_tables(arrays, "l1")
        self.l2 = unpack_run(arrays, "l2")
        clocks = state["foreground_ms"], state["background_ms"]
        if not all(is_finite_number(ms) and ms >= 0 for ms in clocks):
            raise CheckpointCorruptError(f"simulated clocks {clocks!r} are not times >= 0")
        self.foreground_ms, self.background_ms = map(float, clocks)
