"""The composable policy kernel.

An LSM engine in this codebase is a composition of three orthogonal
policies driven by the one engine class, :class:`~repro.lsm.base.LsmEngine`:

* a :class:`~repro.lsm.policies.placement.PlacementPolicy` decides which
  MemTable buffers each arriving point (a single ``C0``, or the paper's
  seq/nonseq split keyed on the ``LAST(R).t_g`` watermark);
* a :class:`~repro.lsm.policies.flush.FlushStrategy` decides *when* and
  in *what order* full MemTables move to disk (overlap-merge on full,
  append, or the separation protocol's phase-closing drain);
* a :class:`~repro.lsm.policies.compaction.CompactionPolicy` owns the
  on-disk structure and how a flushed batch lands in it (single leveled
  run, multilevel cascade, size-tiered runs, IoTDB's two-space layout).

The engine owns the cross-cutting machinery every composition shares:
WAL framing, the hot ingest loop's id assignment and accounting, fault
boundaries, telemetry spans, and component-wise checkpoint assembly.

:data:`~repro.lsm.policies.compose.ENGINES` is the table of named
engines — one row per name a checkpoint may record, each a triple of the
parts above, built by its plain constructor;
:func:`~repro.lsm.policies.compose.compose_engine` builds any other
combination by name.
"""

from .compaction import (
    CompactionPolicy,
    IoTDBTwoSpace,
    LeveledSingleRun,
    MultiLevelCascade,
    SizeTiered,
)
from .compose import (
    COMPACTIONS,
    ENGINES,
    FLUSHES,
    PLACEMENTS,
    compose_engine,
    engine_constructor,
    engine_compositions,
)
from .flush import AppendFlush, FlushStrategy, IndependentFlush, MergeFlush, SeparationFlush
from .placement import PlacementPolicy, SinglePlacement, SplitPlacement

__all__ = [
    "PlacementPolicy",
    "SinglePlacement",
    "SplitPlacement",
    "FlushStrategy",
    "MergeFlush",
    "AppendFlush",
    "SeparationFlush",
    "IndependentFlush",
    "CompactionPolicy",
    "LeveledSingleRun",
    "MultiLevelCascade",
    "SizeTiered",
    "IoTDBTwoSpace",
    "ENGINES",
    "engine_constructor",
    "compose_engine",
    "engine_compositions",
    "PLACEMENTS",
    "FLUSHES",
    "COMPACTIONS",
]
