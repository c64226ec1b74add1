"""IoTDB-style two-level engine with background compaction.

Section V-C describes the deployed implementation: "when a MemTable is
full, the data will be flushed to a file on the disk on level 1.  A
compaction thread consume[s] the SSTables on level 1, and organize[s]
them to new SSTables on level 2 in the background.  Therefore, on level
1, the SSTables may have overlapping data with each other.  But on level
2, there's no overlap at all.  So, the writing will not be blocked to
wait for compaction."

This engine reproduces that structure for the throughput (Table III) and
query (Figures 12--15, 20) experiments.  As a composition: the
``policy=`` selector picks ``single`` + ``append`` (conventional) or
``split`` + ``independent`` (separation) over the shared ``iotdb``
two-space compaction, which owns the L1/L2 layout and the
foreground/background :class:`~repro.config.DiskModel` cost accounting.
"""

from __future__ import annotations

from ..config import DEFAULT_DISK_MODEL, DiskModel, LsmConfig
from ..errors import EngineError
from .level import Run
from .policies.compaction import IoTDBTwoSpace
from .policies.flush import AppendFlush, IndependentFlush
from .policies.kernel import StorageKernel
from .policies.placement import SinglePlacement, SplitPlacement
from .sstable import SSTable

__all__ = ["IoTDBStyleEngine"]


class IoTDBStyleEngine(StorageKernel):
    """Two-level engine: overlapping L1 flush files, compacted L2 run."""

    def __init__(
        self,
        config: LsmConfig | None = None,
        policy: str = "conventional",
        l1_file_limit: int = 10,
        disk: DiskModel = DEFAULT_DISK_MODEL,
        telemetry=None,
        faults=None,
    ) -> None:
        if policy not in ("conventional", "separation"):
            raise EngineError(
                f"policy must be 'conventional' or 'separation', got {policy!r}"
            )
        self.policy = policy
        self.policy_name = "pi_c" if policy == "conventional" else "pi_s"
        if policy == "conventional":
            placement, flush = SinglePlacement(), AppendFlush()
        else:
            placement, flush = SplitPlacement(), IndependentFlush()
        super().__init__(
            config,
            placement=placement,
            flush=flush,
            compaction=IoTDBTwoSpace(l1_file_limit=l1_file_limit, disk=disk),
            telemetry=telemetry,
            faults=faults,
        )

    # -- structure views -------------------------------------------------------

    @property
    def l1_file_limit(self) -> int:
        """L1 file count that triggers the background compaction."""
        return self.compaction.l1_file_limit

    @property
    def disk(self) -> DiskModel:
        """The simulated disk cost model."""
        return self.compaction.disk

    @property
    def l1_files(self) -> list[SSTable]:
        """The loose (possibly overlapping) level-1 flush files."""
        return self.compaction.l1_files

    @property
    def l2(self) -> Run:
        """The compacted, non-overlapping level-2 run."""
        return self.compaction.l2

    @property
    def foreground_ms(self) -> float:
        """Simulated time the writing client spends (inserts + flushes)."""
        return self.compaction.foreground_ms

    @property
    def background_ms(self) -> float:
        """Simulated time the background compaction thread spends."""
        return self.compaction.background_ms

    # -- metrics ---------------------------------------------------------------

    @property
    def throughput_points_per_ms(self) -> float:
        """User-visible write throughput (Table III's metric).

        "From the user's view, the throughput is calculated once the data
        are written to the database, while the compaction may not have
        happened yet" — so only foreground time counts.
        """
        if self.foreground_ms == 0.0:
            return float("nan")
        return self.ingested_points / self.foreground_ms

    # -- durability hooks ------------------------------------------------------

    def _checkpoint_kwargs(self) -> dict:
        kwargs = {"policy": self.policy}
        kwargs.update(self.compaction.checkpoint_kwargs())
        return kwargs

    @classmethod
    def _decode_kwargs(cls, kwargs: dict) -> dict:
        decoded = dict(kwargs)
        if isinstance(decoded.get("disk"), dict):
            decoded["disk"] = DiskModel(**decoded["disk"])
        return decoded
