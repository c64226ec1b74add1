"""Content-hash result cache: skip experiments whose inputs are unchanged.

A cache key digests everything that determines an experiment's output:

* the experiment id,
* its configuration (``scale``, ``seed``, plus any extras),
* the dataset fingerprint (the Table II catalog parameters — every
  synthetic dataset is a pure function of its spec, ``scale`` and
  ``seed``),
* the code version (a SHA-256 over every source file of the installed
  ``repro`` package).

Any edit to the library, the catalog or the run parameters changes the
key, so stale hits are impossible; re-running an unchanged experiment is
a JSON read.  Entries store :meth:`ExperimentResult.to_dict`, whose
round-trip preserves ``render()`` byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from ..errors import CacheError
from ..experiments.report import ExperimentResult

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "code_fingerprint",
    "dataset_fingerprint",
    "experiment_key",
]

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_ENTRY_FORMAT = 1


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Computed once per process; any source edit (model, engine, workload,
    experiment) produces a new fingerprint and thus new cache keys.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def dataset_fingerprint() -> str:
    """SHA-256 over the synthetic dataset catalog parameters.

    Every dataset an experiment builds is a deterministic function of a
    Table II spec (or a generator in :mod:`repro.workloads`), the scale
    and the seed; the spec grid is digested here, the generators are
    covered by :func:`code_fingerprint`.
    """
    from ..workloads import TABLE_II

    material = {
        name: {"dt": spec.dt, "mu": spec.mu, "sigma": spec.sigma}
        for name, spec in TABLE_II.items()
    }
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()


def experiment_key(
    experiment_id: str,
    scale: float = 1.0,
    seed: int | None = None,
    extra: dict | None = None,
    code: str | None = None,
    datasets: str | None = None,
) -> str:
    """The content hash identifying one experiment invocation."""
    material = {
        "experiment": experiment_id,
        "config": {"scale": float(scale), "seed": seed, **(extra or {})},
        "datasets": datasets if datasets is not None else dataset_fingerprint(),
        "code": code if code is not None else code_fingerprint(),
    }
    return hashlib.sha256(
        json.dumps(material, sort_keys=True, default=str).encode()
    ).hexdigest()


class ResultCache:
    """Directory of cached :class:`ExperimentResult` entries, one JSON each.

    Load/store failures caused by a *corrupt* entry degrade to a miss
    (the entry is overwritten on the next store); an unusable cache
    directory raises :class:`~repro.errors.CacheError` up front.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_CACHE_DIR)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(f"cannot create cache dir {self.root}: {exc}") from exc
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheError(f"malformed cache key {key!r}")
        return self.root / f"{key}.json"

    def load(self, key: str) -> ExperimentResult | None:
        """The cached result under ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("format") != _ENTRY_FORMAT:
                raise ValueError(f"unknown entry format {entry.get('format')!r}")
            result = ExperimentResult.from_dict(entry["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt/alien entry: treat as a miss; the next store heals it.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, key: str, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``key``; returns the entry path."""
        path = self._path(key)
        entry = {
            "format": _ENTRY_FORMAT,
            "key": key,
            "experiment_id": result.experiment_id,
            "result": result.to_dict(),
        }
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        tmp.replace(path)
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({self.root}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
