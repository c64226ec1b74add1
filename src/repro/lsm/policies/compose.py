"""The engine table, and composing engines from named policies.

An engine is a row.  :data:`ENGINES` is the one place an engine name
meets a placement x flush x compaction triple: every name a checkpoint
or a manifest may record, the label it reports under, the policies it is
made of, and the small shape the crash matrix and the fixtures run it
in.  Checkpoint dispatch (:func:`engine_class`), the crash matrix, the
``engines`` command (:func:`engine_compositions`) and the test factories
all read it; adding an engine is adding a row.

Every named engine is a :class:`ComposedEngine` generated from its rows
(:func:`_named_engine`), with the row's compaction parameters (and, for
the leveled rows, the tuner's) as constructor arguments and no façade:
structure and clocks are read through ``engine.compaction``.

* ``ConventionalEngine(config)`` — ``pi_c``: one MemTable, leveled
  merges.  "When writing, pi_c first buffers the data in C0.  When C0 is
  full, pi_c merges the data in C0 and those in SSTables, which have
  overlapping key ranges with C0, to form new SSTables so that the data
  are sorted on the disk." (Section I-A.)  The merge rewrites every
  SSTable the MemTable overlaps in full — the behaviour the analytical
  model under-approximates by counting subsequent points (Section III,
  error bound 1).
* ``SeparationEngine(config)`` — ``pi_s(n_seq)``: Apache IoTDB "uses
  in-order and out-of-order MemTables to separately buffer the in-order
  and out-of-order data" (Section I).  A point is in-order iff its
  generation time exceeds ``LAST(R).t_g`` (Definition 3); ``C_seq``
  flushes by appending, and only a full ``C_nonseq`` triggers a leveled
  merge, which closes a *phase* (Section IV).  Without an explicit
  ``seq_capacity``: the IoTDB 1:1 split.
* ``AdaptiveEngine(config, check_interval=8192)`` — ``pi_adaptive``,
  the auto-tuning program of Section V-B: "We used pi_c to initialize
  the system, which then continuously collected delays when writing.
  If it finds that the distribution of delays changes, it would trigger
  the Separation Policy Tuning Algorithm (Algorithm 1) to update the
  policy."  Its checkpoints record its own name under either split; its
  instance ``policy_name`` follows the split in force.

These three are one storage system, a leveled run whose
``C_seq`` / ``C_nonseq`` split is live state (``config.seq_capacity``):
each takes an ``analyzer=`` and may :meth:`~StorageKernel.resplit` or
:meth:`~StorageKernel.retune` while running, which makes a
``ConventionalEngine`` the ``SeparationEngine`` row and back.

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
    "split_row",
    "ComposedEngine",
    "ConventionalEngine",
    "SeparationEngine",
    "AdaptiveEngine",
    "MultiLevelEngine",
    "TieredEngine",
    "IoTDBStyleEngine",
    "compose_engine",
    "engine_compositions",
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

#: ``{compaction: {parameter: default}}``: what each compaction policy
#: takes, read off its signature once rather than per engine built.
_PARAMETERS = {
    name: {arg: param.default for arg, param in inspect.signature(cls).parameters.items()}
    for name, cls in COMPACTIONS.items()
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
    #: The tuner's constructor arguments (``analyzer``, ``check_interval``),
    #: keyword-only, with their defaults.  A row that has them is one
    #: whose split is live state: its engine starts under the row's own
    #: placement (``pi_c`` when the row names no one placement), taking
    #: only ``n_seq`` from the config, and may re-split while running.
    tuner: dict = dataclasses.field(default_factory=dict)

    def build(self, config: LsmConfig | None = None, **kernel_kwargs):
        """A fresh engine of this row in its small shape."""
        return engine_class(self.engine)(
            config, **self.selector, **self.small, **kernel_kwargs
        )


ENGINES = (
    EngineRow("conventional", "ConventionalEngine", "pi_c", "single", "merge", "leveled",
              crash_key="pi_c", tuner={"analyzer": None}),
    EngineRow("separation", "SeparationEngine", "pi_s", "split", "separation", "leveled",
              crash_key="pi_s", tuner={"analyzer": None}),
    EngineRow("adaptive", "AdaptiveEngine", "pi_adaptive",
              "adaptive (re-split at runtime)", "merge <-> separation", "leveled",
              small={"check_interval": 512}, crash_key="adaptive",
              tuner={"analyzer": None, "check_interval": 8192}),
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
    return next((globals()[row.engine] for row in ENGINES if row.engine == name), None)


def _check_parameters(compaction: str, params: dict) -> dict:
    """``params`` once every name is one ``compaction`` takes and every
    value is of its kind (an ``int`` is not a ``bool``; a ``DiskModel``
    may come as the ``dict`` a checkpoint stores it as): parameters are
    outside input — a checkpoint's, a caller's — wherever a row is built."""
    takes = _PARAMETERS[compaction]
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
    if compaction == "leveled" and flush in ("append", "independent"):
        # The leveled run is one sorted run: an appended table that
        # overlaps it (any out-of-order point) could never land.
        raise EngineError(
            f"({placement!r}, {flush!r}, {compaction!r}): an appending flush "
            "cannot land on the one leveled run; use a merging flush"
        )
    return flush


def split_row(row: EngineRow, placement: str) -> tuple[EngineRow, str, str]:
    """``(row, policy label, flush)`` of an engine of ``row`` — one whose
    split is live state — with its write memory bound as ``placement``.

    The flush is the natural one for the pair, and the label that of the
    row of the new triple.  That row is also the one the engine is now,
    so a ``pi_c`` engine re-split to ``pi_s`` records
    ``SeparationEngine``; only a row that names no one placement
    (``pi_adaptive``'s) is kept, under either split.
    """
    flush = _resolve_flush(placement, None, row.compaction)
    triple = (placement, flush, row.compaction)
    new = next(
        other for other in ENGINES
        if other.tuner and (other.placement, other.flush, other.compaction) == triple
    )
    return (row if row.placement not in PLACEMENTS else new), new.policy_name, flush


class ComposedEngine(StorageKernel):
    """An engine assembled from named policies at construction time —
    the one engine class; every named engine is a subclass generated
    from its rows.

    Every instance knows its :class:`EngineRow` — a named subclass the
    row of :data:`ENGINES` it was built from (or re-split to), a bare
    ``ComposedEngine`` a row of its own triple — and checkpoints store
    what rebuilds it (the triple, or the row's selector, and the
    compaction parameters), so it round-trips through
    ``LsmEngine.restore`` by name.
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

    def _assemble(self, row: EngineRow, params: dict, config, telemetry, faults, **tuner):
        config = config if config is not None else LsmConfig()
        placement, flush, policy_name = row.placement, row.flush, row.policy_name
        if row.tuner:
            # The split is live state: the engine starts under its row's.
            placement = "split" if placement == "split" else "single"
            seq_capacity = config.effective_seq_capacity if placement == "split" else None
            config = config.with_seq_capacity(seq_capacity)
            row, policy_name, flush = split_row(row, placement)
        self.row, self.policy_name = row, policy_name
        self._params = _check_parameters(row.compaction, params)
        StorageKernel.__init__(
            self,
            config,
            placement=PLACEMENTS[placement](),
            flush=FLUSHES[flush][0](),
            compaction=COMPACTIONS[row.compaction](**self._params),
            telemetry=telemetry,
            faults=faults,
            **tuner,
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
    telemetry, faults, *, <tuner>)``: the selector
    (``IoTDBStyleEngine``'s ``policy=``) picks among the rows of that
    name, the first row's by default; the parameters default as the
    compaction policy's do, the tuner's as the row says.  Its
    ``checkpoint_labels`` are the names its engines record, under either
    split when the split is live state (:func:`split_row`).
    """
    rows = [row for row in ENGINES if row.engine == name]
    first = rows[0]
    defaults = {
        "config": None, **first.selector, **_PARAMETERS[first.compaction],
        "telemetry": None, "faults": None,
    }
    parameter = inspect.Parameter
    signature = inspect.Signature(
        [parameter(arg, parameter.POSITIONAL_OR_KEYWORD, default=value)
         for arg, value in defaults.items()]
        + [parameter(arg, parameter.KEYWORD_ONLY, default=value)
           for arg, value in first.tuner.items()]
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
        tuner = {key: given.pop(key) for key in first.tuner}
        self._assemble(row, given, config, telemetry, faults, **tuner)

    triples = " / ".join(f"{row.placement} + {row.flush} + {row.compaction}" for row in rows)
    labels = [row.engine for row in rows] + [
        split_row(row, placement)[0].engine
        for row in rows if row.tuner
        for placement in PLACEMENTS
    ]
    return type(
        name,
        (ComposedEngine,),
        {
            "__init__": __init__,
            "__doc__": f"``{triples}``, generated from its rows of :data:`ENGINES`.",
            "__module__": __name__,
            "__signature__": signature,
            "policy_name": first.policy_name,
            "checkpoint_labels": tuple(dict.fromkeys(labels)),
        },
    )


ConventionalEngine = _named_engine("ConventionalEngine")
SeparationEngine = _named_engine("SeparationEngine")
AdaptiveEngine = _named_engine("AdaptiveEngine")
MultiLevelEngine = _named_engine("MultiLevelEngine")
TieredEngine = _named_engine("TieredEngine")
IoTDBStyleEngine = _named_engine("IoTDBStyleEngine")

#: A bare ``ComposedEngine`` restores whatever a row records.
ComposedEngine.checkpoint_labels = tuple(dict.fromkeys(row.engine for row in ENGINES))


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
