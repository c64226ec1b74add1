"""The engine table, and composing engines from named policies.

An engine is a row.  :data:`ENGINES` is the one place an engine name
meets a placement x flush x compaction triple: every name a checkpoint
or a manifest may record, the label it reports under, the policies it is
made of, and the small shape the crash matrix and the fixtures run it
in.  Checkpoint dispatch (:func:`engine_class`), the crash matrix, the
``engines`` command (:func:`engine_compositions`) and the test factories
all read it; adding an engine is adding a row.

:class:`MultiLevelEngine`, :class:`TieredEngine` and
:class:`IoTDBStyleEngine` are generated from their rows — a
:class:`ComposedEngine` each, with the row's compaction parameters as
constructor arguments and no façade: structure and clocks are read
through ``engine.compaction``.  The ``pi_c`` / ``pi_s`` / adaptive rows
are built by the leveled engine, whose split is live state
(:mod:`repro.lsm.conventional`).

* ``MultiLevelEngine(config, size_ratio=10, max_levels=6)`` — textbook
  leveling: level ``i`` holds up to ``n * T**(i+1)`` points and spills
  into level ``i+1`` when full.  Section VII-A contrasts the paper's
  workload-aware WA models with the general bound ``O(T * L / B)`` for
  this shape (Luo & Carey's survey), which "is not acute enough to
  detect the difference between pi_c and pi_s".
* ``TieredEngine(config, tier_fanout=4, max_levels=8)`` — the survey's
  canonical WA-reduction technique: each level holds up to ``T``
  overlapping runs; when full they merge into one run a level down, so
  data is rewritten once per level instead of once per overlapping
  flush — the low-WA / high-read-cost end of the spectrum
  (``engine.compaction.run_count`` is the read-cost driver: a lookup
  consults every run).
* ``IoTDBStyleEngine(config, policy="conventional", l1_file_limit=10,
  disk=DEFAULT_DISK_MODEL)`` — the deployed shape of Section V-C: "when
  a MemTable is full, the data will be flushed to a file on the disk on
  level 1.  A compaction thread consume[s] the SSTables on level 1, and
  organize[s] them to new SSTables on level 2 in the background.
  Therefore, on level 1, the SSTables may have overlapping data with
  each other.  But on level 2, there's no overlap at all.  So, the
  writing will not be blocked to wait for compaction."  ``policy=``
  picks one MemTable or the seq/nonseq pair over the shared two-space
  compaction, which owns the L1/L2 layout and the foreground/background
  :class:`~repro.config.DiskModel` clocks (Table III, Figures 12-15, 20).

:func:`compose_engine` is the open end of the design space: any
placement x flush x compaction combination that type-checks runs as a
full engine — WAL, faults, telemetry, checkpoints included — without a
row.  ``compose_engine("split", compaction="tiered")`` is the paper's
separation idea grafted onto tiering, a combination no named engine
implements.
"""

from __future__ import annotations

import dataclasses
import inspect
from importlib import import_module

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
    "ENGINES",
    "EngineRow",
    "engine_class",
    "ComposedEngine",
    "MultiLevelEngine",
    "TieredEngine",
    "IoTDBStyleEngine",
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


@dataclasses.dataclass(frozen=True)
class EngineRow:
    """One engine of :data:`ENGINES`."""

    #: Short unique key (fixtures, the read/write lattice); ``None`` for
    #: the open row, which is no one configuration.
    key: str | None
    #: The name checkpoints and manifests record — the class that
    #: builds and restores it (:func:`engine_class`).
    engine: str
    #: The label reports and telemetry spans carry.
    policy_name: str
    placement: str
    flush: str
    #: The compaction policy; the engine's constructor takes that
    #: policy's parameters, with its defaults (a default's type is the
    #: parameter's kind).
    compaction: str
    #: Constructor arguments that pick this row among rows sharing
    #: :attr:`engine` (recorded with the compaction parameters).
    selector: dict = dataclasses.field(default_factory=dict)
    #: Constructor arguments of the small shape — a few thousand points
    #: reach every level — the crash matrix and the fixtures run.
    small: dict = dataclasses.field(default_factory=dict)
    #: The key ``crash-test --engines`` runs it under (``None``: not in
    #: the crash matrix).
    crash_key: str | None = None
    #: Module under :mod:`repro.lsm` that defines the class.
    home: str = "policies.compose"

    def build(self, config: LsmConfig | None = None, **kernel_kwargs):
        """A fresh engine of this row in its small shape."""
        return engine_class(self.engine)(
            config, **self.selector, **self.small, **kernel_kwargs
        )


ENGINES = (
    EngineRow("conventional", "ConventionalEngine", "pi_c", "single", "merge", "leveled",
              crash_key="pi_c", home="conventional"),
    EngineRow("separation", "SeparationEngine", "pi_s", "split", "separation", "leveled",
              crash_key="pi_s", home="separation"),
    EngineRow("adaptive", "AdaptiveEngine", "pi_adaptive",
              "adaptive (re-split at runtime)", "merge <-> separation", "leveled",
              small={"check_interval": 512}, crash_key="adaptive", home="adaptive"),
    EngineRow("iotdb_conventional", "IoTDBStyleEngine", "pi_c", "single", "append", "iotdb",
              {"policy": "conventional"}, {"l1_file_limit": 4}, crash_key="iotdb"),
    EngineRow("iotdb_separation", "IoTDBStyleEngine", "pi_s", "split", "independent", "iotdb",
              {"policy": "separation"}, {"l1_file_limit": 4}),
    EngineRow("multilevel", "MultiLevelEngine", "leveled_T", "single", "merge", "multilevel",
              small={"size_ratio": 4, "max_levels": 4}, crash_key="multilevel"),
    EngineRow("tiered", "TieredEngine", "tiered_T", "single", "append", "tiered",
              small={"tier_fanout": 3, "max_levels": 4}, crash_key="tiered"),
    # The open row: any triple, by name (``compose_engine``).
    EngineRow(None, "ComposedEngine", "compose_engine(...)",
              *("|".join(sorted(names)) for names in (PLACEMENTS, FLUSHES, COMPACTIONS))),
)


def engine_class(name: str):
    """The class that builds and restores engines recorded as ``name``
    (``None`` when no row has that name)."""
    for row in ENGINES:
        if row.engine == name:
            return getattr(import_module(f"repro.lsm.{row.home}"), name)
    return None


def _parameters(compaction: str) -> dict:
    """The parameters ``compaction`` takes, with their defaults."""
    signature = inspect.signature(COMPACTIONS[compaction])
    return {name: param.default for name, param in signature.parameters.items()}


def _check_parameters(compaction: str, params: dict) -> dict:
    """``params`` once every name is one ``compaction`` takes and every
    value is of its kind (an ``int`` is not a ``bool``; a ``DiskModel``
    may come as the ``dict`` a checkpoint stores it as): parameters are
    outside input — a checkpoint's, a caller's — wherever a row is built."""
    takes = _parameters(compaction)
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise EngineError(
            f"compaction {compaction!r} has no parameter {', '.join(unknown)}; "
            f"it takes {sorted(takes)}"
        )
    checked = {}
    for name, value in params.items():
        kind = type(takes[name])
        if kind is DiskModel and isinstance(value, dict):
            value = DiskModel(**value)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise EngineError(f"{name} must be {kind.__name__}, got {value!r}")
        checked[name] = value
    return checked


def _resolve_flush(placement: str, flush: str | None, compaction: str) -> str:
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
    needs_placement = FLUSHES[flush][1]
    if needs_placement != placement:
        raise EngineError(
            f"flush strategy {flush!r} drives a {needs_placement!r} "
            f"placement, not {placement!r}"
        )
    return flush


class ComposedEngine(StorageKernel):
    """An engine assembled from named policies at construction time.

    Every instance knows its :class:`EngineRow` — a named subclass the
    row of :data:`ENGINES` it was built from, a bare ``ComposedEngine``
    a row of its own triple — and checkpoints store what rebuilds it
    (the triple, or the row's selector, and the compaction parameters),
    so it round-trips through ``LsmEngine.restore`` by name.
    """

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
        flush = _resolve_flush(placement, flush, compaction)
        label = f"{placement}+{flush}+{compaction}"
        row = EngineRow(None, "ComposedEngine", label, placement, flush, compaction)
        self._assemble(row, compaction_kwargs or {}, config, telemetry, faults)

    def _assemble(self, row: EngineRow, params: dict, config, telemetry, faults):
        self.row = row
        self.policy_name = row.policy_name
        self._params = _check_parameters(row.compaction, params)
        StorageKernel.__init__(
            self,
            config,
            placement=PLACEMENTS[row.placement](),
            flush=FLUSHES[row.flush][0](),
            compaction=COMPACTIONS[row.compaction](**self._params),
            telemetry=telemetry,
            faults=faults,
        )

    def _checkpoint_kwargs(self) -> dict:
        row = self.row
        params = {
            name: dataclasses.asdict(value) if isinstance(value, DiskModel) else value
            for name, value in self._params.items()
        }
        if row.key is not None:
            return {**row.selector, **params}
        return {
            "placement": row.placement,
            "flush": row.flush,
            "compaction": row.compaction,
            "compaction_kwargs": params,
        }


def _named_engine(name: str) -> type[ComposedEngine]:
    """The :class:`ComposedEngine` subclass recorded as ``name``.

    Its constructor is ``(config, <selector>, <compaction parameters>,
    telemetry, faults)``: the selector (``IoTDBStyleEngine``'s
    ``policy=``) picks among the rows of that name, the first row's by
    default; the parameters default as the compaction policy's do.
    """
    rows = [row for row in ENGINES if row.engine == name]
    first = rows[0]
    defaults = {
        "config": None, **first.selector, **_parameters(first.compaction),
        "telemetry": None, "faults": None,
    }
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    signature = inspect.Signature(
        [inspect.Parameter(arg, kind, default=value) for arg, value in defaults.items()]
    )

    def __init__(self, *args, **kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        given = bound.arguments
        chosen = {key: given.pop(key) for key in first.selector}
        row = next((row for row in rows if row.selector == chosen), None)
        if row is None:
            raise EngineError(
                f"{name}: no engine for {chosen}; choose from "
                f"{[row.selector for row in rows]}"
            )
        config, telemetry, faults = map(given.pop, ("config", "telemetry", "faults"))
        self._assemble(row, given, config, telemetry, faults)

    triples = " / ".join(f"{row.placement} + {row.flush} + {row.compaction}" for row in rows)
    return type(
        name,
        (ComposedEngine,),
        {
            "__init__": __init__,
            "__doc__": f"``{triples}``, generated from its rows of :data:`ENGINES`.",
            "__module__": __name__,
            "__signature__": signature,
            "checkpoint_labels": (name,),
        },
    )


MultiLevelEngine = _named_engine("MultiLevelEngine")
TieredEngine = _named_engine("TieredEngine")
IoTDBStyleEngine = _named_engine("IoTDBStyleEngine")

#: A bare ``ComposedEngine`` restores whatever this module builds.
ComposedEngine.checkpoint_labels = tuple(
    row.engine for row in ENGINES if row.home == EngineRow.home
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
    """Every row of :data:`ENGINES` as labels (for the CLI and the
    docs), sorted by display name — the recorded name, with the row's
    selector when rows share it."""
    rows = []
    for row in ENGINES:
        chosen = ", ".join(f"{key}={value}" for key, value in row.selector.items())
        rows.append(
            {
                "engine": f"{row.engine}({chosen})" if chosen else row.engine,
                "policy_name": row.policy_name,
                "placement": row.placement,
                "flush": row.flush,
                "compaction": row.compaction,
            }
        )
    return sorted(rows, key=lambda row: row["engine"])
