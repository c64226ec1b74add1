"""Composing engines from named policies.

:func:`compose_engine` is the open end of the design space: any
placement x flush x compaction combination that type-checks runs as a
full engine — WAL, faults, telemetry, checkpoints included — without
writing a class.  ``compose_engine("split", compaction="tiered")`` is
the paper's separation idea grafted onto tiering, a combination no
monolithic engine implements.

:func:`engine_compositions` is the registry the CLI ``engines``
subcommand and the docs table render: every first-class engine described
as its policy triple.
"""

from __future__ import annotations

from ...config import DiskModel, LsmConfig
from ...errors import EngineError
from ...faults.injector import FaultInjector
from ...obs.telemetry import Telemetry
from .compaction import (
    IoTDBTwoSpace,
    LeveledSingleRun,
    MultiLevelCascade,
    SizeTiered,
)
from .flush import AppendFlush, IndependentFlush, MergeFlush, SeparationFlush
from .kernel import StorageKernel
from .placement import SinglePlacement, SplitPlacement

__all__ = [
    "PLACEMENTS",
    "FLUSHES",
    "COMPACTIONS",
    "ComposedEngine",
    "compose_engine",
    "engine_compositions",
    "describe_composition",
]

#: Placement policies by name.
PLACEMENTS = {
    "single": SinglePlacement,
    "split": SplitPlacement,
}

#: Flush strategies by name, with the placements each one drives.
FLUSHES = {
    "merge": (MergeFlush, "single"),
    "append": (AppendFlush, "single"),
    "separation": (SeparationFlush, "split"),
    "independent": (IndependentFlush, "split"),
}

#: Compaction policies by name.
COMPACTIONS = {
    "leveled": LeveledSingleRun,
    "multilevel": MultiLevelCascade,
    "tiered": SizeTiered,
    "iotdb": IoTDBTwoSpace,
}

#: Natural flush strategy for a (placement, compaction) pair: leveled
#: structures merge on full, append-friendly structures never do; split
#: placements follow the separation protocol except on IoTDB's two-space
#: layout, where both MemTables flush independently to L1.
_DEFAULT_FLUSH = {
    ("single", "leveled"): "merge",
    ("single", "multilevel"): "merge",
    ("single", "tiered"): "append",
    ("single", "iotdb"): "append",
    ("split", "leveled"): "separation",
    ("split", "multilevel"): "separation",
    ("split", "tiered"): "separation",
    ("split", "iotdb"): "independent",
}


def _resolve(placement: str, flush: str | None, compaction: str):
    if placement not in PLACEMENTS:
        raise EngineError(
            f"unknown placement {placement!r}; choose from {sorted(PLACEMENTS)}"
        )
    if compaction not in COMPACTIONS:
        raise EngineError(
            f"unknown compaction {compaction!r}; choose from {sorted(COMPACTIONS)}"
        )
    if flush is None:
        flush = _DEFAULT_FLUSH[(placement, compaction)]
    if flush not in FLUSHES:
        raise EngineError(
            f"unknown flush {flush!r}; choose from {sorted(FLUSHES)}"
        )
    flush_cls, needs_placement = FLUSHES[flush]
    if needs_placement != placement:
        raise EngineError(
            f"flush strategy {flush!r} drives a {needs_placement!r} "
            f"placement, not {placement!r}"
        )
    return flush, flush_cls


class ComposedEngine(StorageKernel):
    """An engine assembled from named policies at construction time.

    Checkpoints store the policy names and compaction kwargs, so a
    composed engine round-trips through ``LsmEngine.restore`` like any
    first-class engine.
    """

    policy_name = "composed"

    def __init__(
        self,
        config: LsmConfig | None = None,
        placement: str = "single",
        flush: str | None = None,
        compaction: str = "leveled",
        compaction_kwargs: dict | None = None,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        flush, flush_cls = _resolve(placement, flush, compaction)
        self._spec = {
            "placement": placement,
            "flush": flush,
            "compaction": compaction,
            "compaction_kwargs": dict(compaction_kwargs or {}),
        }
        self.policy_name = f"{placement}+{flush}+{compaction}"
        super().__init__(
            config,
            placement=PLACEMENTS[placement](),
            flush=flush_cls(),
            compaction=COMPACTIONS[compaction](**self._spec["compaction_kwargs"]),
            telemetry=telemetry,
            faults=faults,
        )

    def _checkpoint_kwargs(self) -> dict:
        kwargs = dict(self._spec)
        encoded = dict(kwargs["compaction_kwargs"])
        if isinstance(encoded.get("disk"), DiskModel):
            import dataclasses

            encoded["disk"] = dataclasses.asdict(encoded["disk"])
        kwargs["compaction_kwargs"] = encoded
        return kwargs

    @classmethod
    def _decode_kwargs(cls, kwargs: dict) -> dict:
        decoded = dict(kwargs)
        inner = dict(decoded.get("compaction_kwargs", {}))
        if isinstance(inner.get("disk"), dict):
            inner["disk"] = DiskModel(**inner["disk"])
        decoded["compaction_kwargs"] = inner
        return decoded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComposedEngine({self.policy_name}, "
            f"ingested={self.ingested_points}, wa={self.write_amplification:.3f})"
        )


def compose_engine(
    placement: str = "single",
    flush: str | None = None,
    compaction: str = "leveled",
    config: LsmConfig | None = None,
    compaction_kwargs: dict | None = None,
    **kernel_kwargs,
) -> ComposedEngine:
    """Build an engine from named policies.

    ``flush`` defaults to the natural strategy for the pair (see
    ``_DEFAULT_FLUSH``); ``compaction_kwargs`` parameterise the
    compaction policy (``size_ratio``, ``tier_fanout``,
    ``l1_file_limit``...).  Remaining ``kernel_kwargs`` (``telemetry``,
    ``faults``) pass to the kernel.
    """
    return ComposedEngine(
        config,
        placement=placement,
        flush=flush,
        compaction=compaction,
        compaction_kwargs=compaction_kwargs,
        **kernel_kwargs,
    )


def describe_composition(engine: StorageKernel) -> dict[str, str]:
    """Policy-triple labels for any engine instance."""
    return engine.describe_policies()


def engine_compositions() -> list[dict[str, str]]:
    """Every registered engine as its policy triple (for CLI/docs).

    One row per registered class (two for ``IoTDBStyleEngine``, whose
    ``policy=`` selector picks the memory layout), derived from live
    instances so the table cannot drift from the implementations.
    """
    from ..adaptive import AdaptiveEngine
    from ..base import _engine_registry
    from ..iotdb_style import IoTDBStyleEngine

    rows = []
    for name, cls in sorted(_engine_registry().items()):
        if cls is AdaptiveEngine:
            rows.append(
                {
                    "engine": name,
                    "policy_name": cls.policy_name,
                    "placement": "adaptive (re-split at runtime)",
                    "flush": "merge <-> separation",
                    "compaction": "leveled",
                }
            )
            continue
        if cls is ComposedEngine:
            rows.append(
                {
                    "engine": name,
                    "policy_name": "compose_engine(...)",
                    "placement": "|".join(sorted(PLACEMENTS)),
                    "flush": "|".join(sorted(FLUSHES)),
                    "compaction": "|".join(sorted(COMPACTIONS)),
                }
            )
            continue
        if cls is IoTDBStyleEngine:
            for policy in ("conventional", "separation"):
                engine = cls(policy=policy)
                row = {
                    "engine": f"{name}(policy={policy})",
                    "policy_name": engine.policy_name,
                }
                row.update(engine.describe_policies())
                rows.append(row)
            continue
        engine = cls()
        row = {"engine": name, "policy_name": engine.policy_name}
        row.update(describe_composition(engine))
        rows.append(row)
    return rows
