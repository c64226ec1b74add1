"""Deterministic series → shard routing for the serving tier.

A fleet deployment (Section VI: one database instance per vendor,
thousands of series each) needs a stable rule assigning every series
name to exactly one shard.  :class:`ShardRouter` hashes: CRC-32 of the
name modulo the shard count.  CRC-32 (not Python's salted ``hash``)
keeps the mapping identical across interpreter runs, which the fleet
recovery protocol relies on.

Routing is a pure function of ``(name, n_shards)``: the same router
always produces the same partition, so an N-shard run is replayable
shard-by-shard.
"""

from __future__ import annotations

from zlib import crc32

from ..config import is_integer
from ..errors import EngineError
from ..lsm.database import check_series_name

__all__ = ["ShardRouter", "shard_name"]


def shard_name(index: int) -> str:
    """Canonical shard label (``shard-00``...), used as the checkpoint
    namespace, the WAL subdirectory name and the telemetry shard label."""
    if index < 0:
        raise EngineError(f"shard index must be non-negative, got {index}")
    return f"shard-{index:02d}"


class ShardRouter:
    """Assign series names to one of ``n_shards`` shards (see module doc)."""

    def __init__(self, n_shards: int) -> None:
        if not is_integer(n_shards) or n_shards < 1:
            raise EngineError(f"n_shards must be an integer >= 1, got {n_shards!r}")
        self.n_shards = int(n_shards)

    def shard_of(self, name: str) -> int:
        """The shard index owning series ``name``."""
        check_series_name(name)
        return (crc32(name.encode("utf-8")) & 0xFFFFFFFF) % self.n_shards

    def split(self, names: list[str]) -> dict[int, list[str]]:
        """Partition ``names`` by shard, preserving input order per shard."""
        parts: dict[int, list[str]] = {}
        for name in names:
            parts.setdefault(self.shard_of(name), []).append(name)
        return parts

    def split_batch(self, batch: list[tuple]) -> dict[int, list[tuple]]:
        """Partition ``(name, tg[, ta])`` write tuples by shard.

        Per-shard order equals input order, so replaying one shard's
        slice through a standalone database reproduces exactly what the
        sharded run fed that shard — the conformance invariant.  Raises
        :class:`EngineError` for an entry of any other shape.
        """
        parts: dict[int, list[tuple]] = {}
        for entry in batch:
            fields = len(entry) if isinstance(entry, (tuple, list)) else None
            if fields not in (2, 3):
                raise EngineError(
                    "a batch entry is a (name, tg) or (name, tg, ta) tuple, got "
                    + (type(entry).__name__ if fields is None else f"{fields} fields")
                )
            parts.setdefault(self.shard_of(entry[0]), []).append(entry)
        return parts

    def as_dict(self) -> dict:
        """JSON-serialisable router config (stored in the fleet manifest)."""
        return {"mode": "hash", "n_shards": self.n_shards}

    @classmethod
    def from_dict(cls, data: dict) -> "ShardRouter":
        """Rebuild the router recorded by :meth:`as_dict`."""
        return cls(data["n_shards"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRouter({self.n_shards})"
