"""Deterministic series → shard routing for the serving tier.

A fleet deployment (Section VI: one database instance per vendor,
thousands of series each) needs a stable rule assigning every series
name to exactly one shard.  :class:`ShardRouter` supports the two
classic schemes:

* ``hash`` — CRC-32 of the name modulo the shard count.  CRC-32 (not
  Python's salted ``hash``) keeps the mapping identical across
  interpreter runs, which the fleet recovery protocol relies on.
* ``range`` — lexicographic ranges split by ``n_shards - 1`` boundary
  strings; shard ``i`` owns names in ``[boundaries[i-1], boundaries[i])``.
  Range routing keeps related series (e.g. one vehicle's metrics, named
  under a common prefix) on one shard.

Routing is a pure function of ``(name, router config)``: the same
router always produces the same partition, so an N-shard run is
replayable shard-by-shard.
"""

from __future__ import annotations

from bisect import bisect_right
from zlib import crc32

from ..config import is_integer
from ..errors import EngineError
from ..lsm.database import check_series_name

__all__ = ["ShardRouter", "shard_name"]

#: Routing schemes :class:`ShardRouter` understands.
ROUTER_MODES = ("hash", "range")


def shard_name(index: int) -> str:
    """Canonical shard label (``shard-00``...), used as the checkpoint
    namespace, the WAL subdirectory name and the telemetry shard label."""
    if index < 0:
        raise EngineError(f"shard index must be non-negative, got {index}")
    return f"shard-{index:02d}"


class ShardRouter:
    """Assign series names to one of ``n_shards`` shards (see module doc)."""

    def __init__(
        self,
        n_shards: int,
        mode: str = "hash",
        boundaries: tuple[str, ...] | None = None,
    ) -> None:
        if not is_integer(n_shards) or n_shards < 1:
            raise EngineError(f"n_shards must be an integer >= 1, got {n_shards!r}")
        if mode not in ROUTER_MODES:
            raise EngineError(
                f"unknown router mode {mode!r}; expected one of {ROUTER_MODES}"
            )
        if mode == "range":
            if boundaries is None or len(boundaries) != n_shards - 1:
                raise EngineError(
                    f"range routing over {n_shards} shards needs exactly "
                    f"{n_shards - 1} boundaries, got "
                    f"{0 if boundaries is None else len(boundaries)}"
                )
            ordered = tuple(boundaries)
            if list(ordered) != sorted(set(ordered)):
                raise EngineError(
                    "range boundaries must be strictly increasing"
                )
            self.boundaries: tuple[str, ...] = ordered
        else:
            if boundaries is not None:
                raise EngineError("hash routing takes no boundaries")
            self.boundaries = ()
        self.n_shards = int(n_shards)
        self.mode = mode

    def shard_of(self, name: str) -> int:
        """The shard index owning series ``name``."""
        check_series_name(name)
        if self.mode == "hash":
            return (crc32(name.encode("utf-8")) & 0xFFFFFFFF) % self.n_shards
        return bisect_right(self.boundaries, name)

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
        return {
            "mode": self.mode,
            "n_shards": self.n_shards,
            "boundaries": list(self.boundaries),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardRouter":
        """Rebuild the router recorded by :meth:`as_dict`."""
        mode = data.get("mode", "hash")
        return cls(
            int(data["n_shards"]),
            mode=mode,
            # A one-shard range router has no boundary, and still takes
            # the empty tuple; a hash router takes none at all.
            boundaries=tuple(data.get("boundaries") or ()) if mode == "range" else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRouter({self.n_shards}, mode={self.mode!r})"
