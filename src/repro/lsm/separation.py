"""The separation policy ``pi_s``: split in-order / out-of-order MemTables.

Apache IoTDB "uses in-order and out-of-order MemTables to separately
buffer the in-order and out-of-order data" (Section I).  A point is
in-order iff its generation time exceeds ``LAST(R).t_g``, the newest
generation time on disk (Definition 3).  ``C_seq`` flushes by appending —
its contents are all newer than anything on disk, so no rewrite happens —
and only a full ``C_nonseq`` triggers a leveled merge, which closes a
*phase* (Section IV).

As a composition: ``split`` placement (vectorised watermark
classification), ``separation`` flush (append ``C_seq``, phase-closing
``C_nonseq`` merge), ``leveled`` compaction.
"""

from __future__ import annotations

from ..config import LsmConfig
from .conventional import ConventionalEngine
from .level import Run
from .policies.compaction import LeveledSingleRun
from .policies.flush import SeparationFlush
from .policies.kernel import StorageKernel
from .policies.placement import SplitPlacement
from .wa_tracker import WriteStats

__all__ = ["SeparationEngine", "leveled_engine"]


class SeparationEngine(StorageKernel):
    """Leveled LSM engine under the separation policy ``pi_s(n_seq)``."""

    policy_name = "pi_s"

    def __init__(
        self,
        config: LsmConfig | None = None,
        stats: WriteStats | None = None,
        run: Run | None = None,
        start_id: int = 0,
        telemetry=None,
        faults=None,
    ) -> None:
        super().__init__(
            config,
            placement=SplitPlacement(),
            flush=SeparationFlush(),
            compaction=LeveledSingleRun(run),
            stats=stats,
            start_id=start_id,
            telemetry=telemetry,
            faults=faults,
        )

    @property
    def run(self) -> Run:
        """The single on-disk leveled run."""
        return self.compaction.run

    @property
    def seq_capacity(self) -> int:
        """``n_seq``, the in-order MemTable capacity."""
        return self.placement.seq.capacity

    @property
    def nonseq_capacity(self) -> int:
        """``n_nonseq``, the out-of-order MemTable capacity."""
        return self.placement.nonseq.capacity

    @property
    def last_disk_tg(self) -> float:
        """``LAST(R).t_g`` (``-inf`` until the first flush)."""
        return self.run.max_tg

    def _checkpoint_state(self, arrays) -> dict:
        state = super()._checkpoint_state(arrays)
        # The separation watermark LAST(R).t_g is implied by the restored
        # run's maximum, but stored for the recovery report / debugging.
        state["last_disk_tg"] = self.last_disk_tg
        return state


def leveled_engine(
    config: LsmConfig,
    old: "ConventionalEngine | SeparationEngine | None" = None,
    *,
    telemetry=None,
) -> "ConventionalEngine | SeparationEngine":
    """``pi_s(config.seq_capacity)``, or ``pi_c`` when the config has no split.

    With ``old`` — an engine being retuned or resized — the new engine
    is its successor: ``old`` is drained (``flush_all``, the flush
    boundary), its write statistics, on-disk run, arrival cursor and
    fault injector carry over, and the successor takes over the WAL file
    (the superseded handle is closed so only one writer holds it).
    """
    cls = SeparationEngine if config.seq_capacity is not None else ConventionalEngine
    if old is None:
        return cls(config, telemetry=telemetry)
    old.flush_all()
    engine = cls(
        config,
        stats=old.stats,
        run=old.run,
        start_id=old.ingested_points,
        telemetry=telemetry,
        faults=old.faults,
    )
    if old.wal is not None:
        old.wal.close()
    return engine
