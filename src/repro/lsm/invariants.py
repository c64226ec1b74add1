"""Crash-consistency invariants checked after every recovery.

Recovery is only trustworthy if the recovered state *provably* looks like
a state the engine could have reached without crashing.  The checker
verifies three families of invariants over a live engine:

1. **Structure** — every ``"sorted"`` group of the compaction policy's
   :meth:`~repro.lsm.policies.compaction.CompactionPolicy.groups` (a
   leveled run) is internally sorted and non-overlapping (boundary ties
   tolerated: duplicate generation times may chunk into adjacent tables
   sharing a boundary value);
   the tables of a ``"loose"`` group (e.g. IoTDB-style L1 files, which
   may overlap each other) are at least internally sorted.
2. **Conservation** — every ingested point is visible exactly once:
   ``stats.user_points == snapshot.disk_points + snapshot.memory_points``
   and no point id ever exceeded the id cursor.
3. **WA accounting** — the three independent write tallies reconcile:
   the ``disk_writes`` scalar, the per-point write counters, and the
   per-event log all report the same number of point writes, and disk
   writes can never undercut the points currently persisted.

Engines expose this as :meth:`~repro.lsm.base.LsmEngine.verify`; the
crash-test harness calls it after every injected crash + recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import LsmEngine
    from .sstable import SSTable

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Verifies one engine's structural and accounting invariants."""

    def __init__(self, engine: "LsmEngine") -> None:
        self.engine = engine

    def verify(self) -> None:
        """Run every check; raise :class:`InvariantViolation` on failure."""
        self.check_structure()
        self.check_conservation()
        self.check_wa_accounting()

    # -- individual checks -----------------------------------------------------

    def check_structure(self) -> None:
        """Sorted non-overlapping runs; internally sorted loose tables."""
        for name, kind, group in self.engine.compaction.groups():
            tables = list(group)
            for table in tables:
                self._check_table_sorted(name, table)
            if kind != "sorted":
                continue
            for left, right in zip(tables, tables[1:]):
                if left.max_tg > right.min_tg:
                    raise InvariantViolation(
                        f"{self._tag()}: group {name!r} overlaps: "
                        f"{left!r} vs {right!r}"
                    )

    def check_conservation(self) -> None:
        """Every ingested point is visible exactly once."""
        engine = self.engine
        snapshot = engine.snapshot()
        visible = snapshot.disk_points + snapshot.memory_points
        if engine.ingested_points != engine.stats.user_points:
            raise InvariantViolation(
                f"{self._tag()}: id cursor {engine.ingested_points} is not "
                f"the {engine.stats.user_points} points written"
            )
        if engine.stats.user_points != visible:
            raise InvariantViolation(
                f"{self._tag()}: point-count conservation broken: "
                f"{engine.stats.user_points} ingested but {visible} visible "
                f"({snapshot.disk_points} on disk + "
                f"{snapshot.memory_points} buffered)"
            )
        ids = [t.ids for t in snapshot.tables]
        ids.extend(m.ids for m in snapshot.memtables if m.ids.size)
        if ids:
            all_ids = np.concatenate(ids)
            top = int(all_ids.max()) if all_ids.size else -1
            if top >= engine.ingested_points:
                raise InvariantViolation(
                    f"{self._tag()}: visible id {top} >= id cursor "
                    f"{engine.ingested_points}"
                )
            low = int(all_ids.min()) if all_ids.size else 0
            if low < 0:
                raise InvariantViolation(
                    f"{self._tag()}: negative visible id {low}"
                )

    def check_wa_accounting(self) -> None:
        """The three write tallies tell one consistent story."""
        stats = self.engine.stats
        from_counters = int(stats.write_counts.sum())
        from_events = sum(e.disk_writes for e in stats.events)
        if not (stats.disk_writes == from_counters == from_events):
            raise InvariantViolation(
                f"{self._tag()}: write accounting diverges: "
                f"disk_writes={stats.disk_writes}, "
                f"per-point counters={from_counters}, "
                f"event log={from_events}"
            )
        snapshot = self.engine.snapshot()
        if stats.disk_writes < snapshot.disk_points:
            raise InvariantViolation(
                f"{self._tag()}: {snapshot.disk_points} points on disk but "
                f"only {stats.disk_writes} disk writes recorded"
            )

    # -- helpers ---------------------------------------------------------------

    def _check_table_sorted(self, group: str, table: "SSTable") -> None:
        tg = table.tg
        if tg.size > 1 and np.any(np.diff(tg) < 0):
            raise InvariantViolation(
                f"{self._tag()}: table {table!r} in group {group!r} "
                "is not sorted by generation time"
            )

    def _tag(self) -> str:
        return f"{self.engine.checkpoint_label}({self.engine.policy_name})"
