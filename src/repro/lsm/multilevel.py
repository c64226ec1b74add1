"""A generic multi-level leveled LSM-tree with size ratio ``T``.

Section VII-A contrasts the paper's workload-aware WA models with the
classical general bound ``O(T * L / B)`` for leveled LSM-trees (Luo &
Carey's survey).  This engine implements that textbook shape — level
``i`` holds up to ``n * T**i`` points and spills into level ``i+1`` when
full — so the ablation benchmarks can show why the general bound "is not
acute enough to detect the difference between pi_c and pi_s".

As a composition: ``single`` placement, ``merge`` flush, ``multilevel``
cascade compaction.
"""

from __future__ import annotations

from ..config import LsmConfig
from .level import Run
from .policies.compaction import MultiLevelCascade
from .policies.flush import MergeFlush
from .policies.kernel import StorageKernel
from .policies.placement import SinglePlacement

__all__ = ["MultiLevelEngine"]


class MultiLevelEngine(StorageKernel):
    """Leveled LSM with ``max_levels`` levels and capacity ratio ``T``."""

    policy_name = "leveled_T"

    def __init__(
        self,
        config: LsmConfig | None = None,
        size_ratio: int = 10,
        max_levels: int = 6,
        telemetry=None,
        faults=None,
    ) -> None:
        super().__init__(
            config,
            placement=SinglePlacement(),
            flush=MergeFlush(),
            compaction=MultiLevelCascade(
                size_ratio=size_ratio, max_levels=max_levels
            ),
            telemetry=telemetry,
            faults=faults,
        )

    @property
    def size_ratio(self) -> int:
        """Capacity ratio ``T`` between adjacent levels."""
        return self.compaction.size_ratio

    @property
    def max_levels(self) -> int:
        """Number of on-disk levels."""
        return self.compaction.max_levels

    @property
    def levels(self) -> list[Run]:
        """The on-disk runs, one per level."""
        return self.compaction.levels

    def level_capacity(self, level: int) -> int:
        """Maximum points level ``level`` may hold before spilling."""
        return self.compaction.level_capacity(level)

    def _checkpoint_kwargs(self) -> dict:
        return {"size_ratio": self.size_ratio, "max_levels": self.max_levels}
