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
``C_nonseq`` merge), ``leveled`` compaction — the
:class:`~repro.lsm.conventional.LeveledEngine` with a ``seq_capacity``.
:class:`SeparationEngine` is the named constructor for it.
"""

from __future__ import annotations

from ..config import LsmConfig
from .conventional import LeveledEngine

__all__ = ["SeparationEngine"]


class SeparationEngine(LeveledEngine):
    """Leveled LSM engine under the separation policy ``pi_s(n_seq)``."""

    policy_name = "pi_s"

    @staticmethod
    def _initial_config(config: LsmConfig) -> LsmConfig:
        # Without an explicit n_seq: the IoTDB 1:1 split.
        return config.with_seq_capacity(config.effective_seq_capacity)

    @property
    def seq_capacity(self) -> int:
        """``n_seq``, the in-order MemTable capacity."""
        return self.placement.seq.capacity

    @property
    def nonseq_capacity(self) -> int:
        """``n_nonseq``, the out-of-order MemTable capacity."""
        return self.placement.nonseq.capacity
