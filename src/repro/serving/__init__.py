"""The sharded multi-tenant serving tier.

Scales the single-process :class:`~repro.lsm.database.TimeSeriesDatabase`
out to a fleet: deterministic series → shard routing
(:mod:`repro.serving.router`), a batched ingest front-end with
per-shard group commit, an online memory arbiter re-dividing the
fleet's MemTable budget from observed telemetry, fleet-level durability
(per-shard namespaces + one fleet manifest)
(:mod:`repro.serving.database`), and scatter-gather query federation
with exact partial-aggregate merging
(:mod:`repro.serving.federation`).  See ``docs/serving.md``.
"""

from .database import FLEET_MANIFEST, ShardedDatabase
from .federation import FederatedExecutor
from .router import ShardRouter, shard_name

__all__ = [
    "ShardedDatabase",
    "ShardRouter",
    "shard_name",
    "FLEET_MANIFEST",
    "FederatedExecutor",
]
