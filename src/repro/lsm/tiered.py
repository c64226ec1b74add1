"""Tiered compaction: the classic low-WA / high-read-cost alternative.

Section VII-A cites Luo & Carey's survey, whose canonical WA-reduction
technique is *tiering*: each level holds up to ``T`` overlapping runs;
when full, they are merged into a single run one level down, so data is
rewritten once per level instead of once per overlapping flush.  The
paper's policies are both *leveling* variants; this engine provides the
tiering end of the spectrum so the ablation benchmarks can place pi_c /
pi_s on the read/write trade-off curve.

As a composition: ``single`` placement, ``append`` flush, ``tiered``
compaction.
"""

from __future__ import annotations

from ..config import LsmConfig
from .policies.compaction import SizeTiered
from .policies.flush import AppendFlush
from .policies.kernel import StorageKernel
from .policies.placement import SinglePlacement
from .sstable import SSTable

__all__ = ["TieredEngine"]


class TieredEngine(StorageKernel):
    """Tiered LSM: up to ``tier_fanout`` overlapping runs per level."""

    policy_name = "tiered_T"

    def __init__(
        self,
        config: LsmConfig | None = None,
        tier_fanout: int = 4,
        max_levels: int = 8,
        telemetry=None,
        faults=None,
    ) -> None:
        super().__init__(
            config,
            placement=SinglePlacement(),
            flush=AppendFlush(),
            compaction=SizeTiered(tier_fanout=tier_fanout, max_levels=max_levels),
            telemetry=telemetry,
            faults=faults,
        )

    @property
    def tier_fanout(self) -> int:
        """Maximum runs a level may hold before its tier merges."""
        return self.compaction.tier_fanout

    @property
    def max_levels(self) -> int:
        """Number of on-disk levels."""
        return self.compaction.max_levels

    @property
    def levels(self) -> list[list[list[SSTable]]]:
        """``levels[i]`` is a list of runs (lists of SSTables)."""
        return self.compaction.levels

    @property
    def run_count(self) -> int:
        """Total number of (mutually overlapping) runs across all levels.

        This is the read-cost driver: a point lookup or range scan must
        consult every run.
        """
        return self.compaction.run_count

    def _checkpoint_kwargs(self) -> dict:
        return {"tier_fanout": self.tier_fanout, "max_levels": self.max_levels}
