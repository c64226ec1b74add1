"""The engine table, and composing engines from named policies.

An engine is a row.  :data:`ENGINES` is the one place an engine name
meets a placement x flush x compaction triple: every name a checkpoint
or a manifest may record, the label it reports under, the policies it is
made of, and the small shape the crash matrix and the fixtures run it
in.  Checkpoint dispatch (:func:`engine_constructor`), the crash matrix,
the ``engines`` command (:func:`engine_compositions`) and the test
factories all read it; adding an engine is adding a row.

Every engine is a :class:`~repro.lsm.base.LsmEngine`.  A named engine
is a plain constructor that resolves its row to policy objects, with
the row's compaction parameters (and, for the leveled rows, the
tuner's) as arguments and no façade: structure and clocks are read
through ``engine.compaction``, and ``engine.row`` says which engine an
object is.

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
each takes an ``analyzer=`` and may :meth:`~repro.lsm.base.LsmEngine.resplit` or
:meth:`~repro.lsm.base.LsmEngine.retune` while running, which makes a
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
* ``IoTDBStyleEngine(config, policy="conventional", l1_file_limit=10)``
  — the deployed shape of Section V-C: "when
  a MemTable is full, the data will be flushed to a file on the disk on
  level 1.  A compaction thread consume[s] the SSTables on level 1, and
  organize[s] them to new SSTables on level 2 in the background.
  Therefore, on level 1, the SSTables may have overlapping data with
  each other.  But on level 2, there's no overlap at all.  So, the
  writing will not be blocked to wait for compaction."  ``policy=``
  picks one MemTable or the seq/nonseq pair over the shared two-space
  compaction, which owns the L1/L2 layout and the foreground/background
  clocks of :data:`~repro.config.DEFAULT_DISK_MODEL` (Table III,
  Figures 12-15, 20).

The flush is never chosen: the placement and the compaction fix it
(:data:`_DEFAULT_FLUSH`), as the paper's buffering policy and layout
fix how MemTables land — ``pi_s`` closes a phase (Section IV), IoTDB
flushes each MemTable on its own (Section V-C).

:func:`compose_engine` is the open end of the design space: any
placement x compaction pair runs as a full engine — WAL, faults,
telemetry, checkpoints included — without a row.
``compose_engine("split", compaction="tiered")`` is the paper's
separation idea grafted onto tiering, a combination no named engine
implements.
"""

from __future__ import annotations

import dataclasses
import inspect

from ...config import DEFAULT_DISK_MODEL, LsmConfig
from ...core.analyzer import DelayAnalyzer
from ...errors import EngineError
from ...obs.telemetry import Telemetry
from ..base import LsmEngine
from .compaction import (
    IoTDBTwoSpace,
    LeveledSingleRun,
    MultiLevelCascade,
    SizeTiered,
)
from .flush import AppendFlush, IndependentFlush, MergeFlush, SeparationFlush
from .placement import SinglePlacement, SplitPlacement

__all__ = [
    "PLACEMENTS",
    "FLUSHES",
    "COMPACTIONS",
    "ENGINES",
    "EngineRow",
    "engine_constructor",
    "recordable_labels",
    "split_row",
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

#: Flush strategies by name.
FLUSHES = {
    "merge": MergeFlush,
    "append": AppendFlush,
    "separation": SeparationFlush,
    "independent": IndependentFlush,
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

#: The flush strategy of a (placement, compaction) pair — every engine's,
#: rows and composed engines alike: leveled structures merge on full,
#: append-friendly structures never do; split placements follow the
#: separation protocol except on IoTDB's two-space layout, where both
#: MemTables flush independently to L1.
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
    #: The name checkpoints and manifests record — the constructor
    #: that builds and restores it (:func:`engine_constructor`).
    engine: str
    #: The label reports and telemetry spans carry.
    policy_name: str
    placement: str
    #: A label: the flush an engine of this row runs is its pair's
    #: (:data:`_DEFAULT_FLUSH`).
    flush: str
    #: The compaction policy; the engine's constructor takes that
    #: policy's parameters, with its defaults (a default's type is the
    #: parameter's kind, checked wherever a row is built).
    compaction: str
    #: Constructor arguments that pick this row among rows sharing
    #: :attr:`engine` (recorded with the compaction parameters): an
    #: open row's are its triple.
    selector: dict = dataclasses.field(default_factory=dict)
    #: Constructor arguments of the small shape — a few thousand points
    #: reach every level — the crash matrix and the fixtures run.
    small: dict = dataclasses.field(default_factory=dict)
    #: The key ``crash-test --engines`` runs it under (``None``: not in
    #: the crash matrix).
    crash_key: str | None = None
    #: Whether the engine has a tuner (keyword-only ``analyzer=``, and
    #: ``check_interval=`` on the adaptive row): its split is then live
    #: state — it starts under the row's own placement (``pi_c`` when
    #: the row names no one placement), taking only ``n_seq`` from the
    #: config, and may re-split while running.
    tuner: bool = False

    def build(self, config: LsmConfig | None = None, telemetry: Telemetry | None = None):
        """A fresh engine of this row in its small shape."""
        return engine_constructor(self.engine)(
            config, telemetry=telemetry, **self.selector, **self.small
        )


ENGINES = (
    EngineRow("conventional", "ConventionalEngine", "pi_c", "single", "merge", "leveled",
              crash_key="pi_c", tuner=True),
    EngineRow("separation", "SeparationEngine", "pi_s", "split", "separation", "leveled",
              crash_key="pi_s", tuner=True),
    EngineRow("adaptive", "AdaptiveEngine", "pi_adaptive",
              "adaptive (re-split at runtime)", "merge <-> separation", "leveled",
              small={"check_interval": 512}, crash_key="adaptive", tuner=True),
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


def _check_parameters(compaction: str, params: dict) -> dict:
    """``params`` once every name is one ``compaction`` takes and every
    value is of its kind (an ``int`` is not a ``bool``): parameters are
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
        if not isinstance(value, kind) or isinstance(value, bool):
            raise EngineError(f"{name} must be {kind.__name__}, got {value!r}")
        checked[name] = value
    return checked


def recorded_constants_dropped(name: str, kwargs: dict) -> dict:
    """A checkpoint's recorded constructor arguments without what older
    files recorded and no constructor takes any more: the disk model,
    and a composed engine's flush.  Each must be what the engine now
    has — :data:`~repro.config.DEFAULT_DISK_MODEL`, the pair's flush —
    or the file describes an engine this code cannot build
    (:class:`~repro.errors.EngineError`)."""
    kwargs = dict(kwargs)
    for params in (kwargs, kwargs.get("compaction_kwargs")):
        if isinstance(params, dict) and "disk" in params:
            disk = params.pop("disk")
            if disk != dataclasses.asdict(DEFAULT_DISK_MODEL):
                raise EngineError(f"recorded disk {disk!r} is not the disk model")
    if name == "ComposedEngine" and "flush" in kwargs:
        flush = kwargs.pop("flush")
        pair = (kwargs.get("placement", "single"), kwargs.get("compaction", "leveled"))
        if flush != _DEFAULT_FLUSH.get(pair):
            raise EngineError(f"recorded flush {flush!r} is not the flush of {pair!r}")
    return kwargs


def split_row(row: EngineRow, placement: str) -> tuple[EngineRow, str, str]:
    """``(row, policy label, flush)`` of an engine of ``row`` — one whose
    split is live state — with its write memory bound as ``placement``.

    The flush is the natural one for the pair, and the label that of the
    row of the new triple.  That row is also the one the engine is now,
    so a ``pi_c`` engine re-split to ``pi_s`` records
    ``SeparationEngine``; only a row that names no one placement
    (``pi_adaptive``'s) is kept, under either split.
    """
    flush = _DEFAULT_FLUSH[(placement, row.compaction)]
    triple = (placement, flush, row.compaction)
    new = next(
        other for other in ENGINES
        if other.tuner and (other.placement, other.flush, other.compaction) == triple
    )
    return (row if row.placement not in PLACEMENTS else new), new.policy_name, flush


def _build(
    row: EngineRow, params: dict, config: LsmConfig | None, telemetry: Telemetry | None, **tuner
) -> LsmEngine:
    """The engine of ``row``: its policies built, its compaction with
    ``params`` — checked, because they are outside input wherever a row
    is built, a caller's or a checkpoint's — and the row, its label and
    the checked parameters recorded on the engine."""
    config = config if config is not None else LsmConfig()
    placement, policy_name = row.placement, row.policy_name
    if row.tuner:
        # The split is live state: the engine starts under its row's.
        placement = "split" if placement == "split" else "single"
        seq_capacity = config.effective_seq_capacity if placement == "split" else None
        if config.seq_capacity != seq_capacity:
            config = config.with_seq_capacity(seq_capacity)
        row, policy_name, _ = split_row(row, placement)
    flush = _DEFAULT_FLUSH[(placement, row.compaction)]
    params = _check_parameters(row.compaction, params)
    engine = LsmEngine(
        config,
        placement=PLACEMENTS[placement](),
        flush=FLUSHES[flush](),
        compaction=COMPACTIONS[row.compaction](**params),
        telemetry=telemetry,
        **tuner,
    )
    engine.row, engine.policy_name, engine.params = row, policy_name, params
    return engine


_ROWS = {row.key: row for row in ENGINES}


def ConventionalEngine(
    config: LsmConfig | None = None,
    telemetry: Telemetry | None = None,
    *,
    analyzer: DelayAnalyzer | None = None,
) -> LsmEngine:
    """``single + merge + leveled``: the ``ConventionalEngine`` row of
    :data:`ENGINES` (``pi_c``)."""
    return _build(_ROWS["conventional"], {}, config, telemetry, analyzer=analyzer)


def SeparationEngine(
    config: LsmConfig | None = None,
    telemetry: Telemetry | None = None,
    *,
    analyzer: DelayAnalyzer | None = None,
) -> LsmEngine:
    """``split + separation + leveled``: the ``SeparationEngine`` row of
    :data:`ENGINES` (``pi_s``)."""
    return _build(_ROWS["separation"], {}, config, telemetry, analyzer=analyzer)


def AdaptiveEngine(
    config: LsmConfig | None = None,
    telemetry: Telemetry | None = None,
    *,
    analyzer: DelayAnalyzer | None = None,
    check_interval: int = 8192,
) -> LsmEngine:
    """The leveled run under ``pi_c`` that retunes itself every
    ``check_interval`` points: the ``AdaptiveEngine`` row of
    :data:`ENGINES` (``pi_adaptive``)."""
    return _build(
        _ROWS["adaptive"], {}, config, telemetry,
        analyzer=analyzer, check_interval=check_interval,
    )


def MultiLevelEngine(
    config: LsmConfig | None = None,
    size_ratio: int = 10,
    max_levels: int = 6,
    telemetry: Telemetry | None = None,
) -> LsmEngine:
    """``single + merge + multilevel``: the ``MultiLevelEngine`` row of
    :data:`ENGINES` (``leveled_T``)."""
    params = {"size_ratio": size_ratio, "max_levels": max_levels}
    return _build(_ROWS["multilevel"], params, config, telemetry)


def TieredEngine(
    config: LsmConfig | None = None,
    tier_fanout: int = 4,
    max_levels: int = 8,
    telemetry: Telemetry | None = None,
) -> LsmEngine:
    """``single + append + tiered``: the ``TieredEngine`` row of
    :data:`ENGINES` (``tiered_T``)."""
    params = {"tier_fanout": tier_fanout, "max_levels": max_levels}
    return _build(_ROWS["tiered"], params, config, telemetry)


def IoTDBStyleEngine(
    config: LsmConfig | None = None,
    policy: str = "conventional",
    l1_file_limit: int = 10,
    telemetry: Telemetry | None = None,
) -> LsmEngine:
    """``single + append + iotdb`` (``policy="conventional"``, ``pi_c``)
    or ``split + independent + iotdb`` (``policy="separation"``,
    ``pi_s``): the ``IoTDBStyleEngine`` rows of :data:`ENGINES`."""
    chosen = {"policy": policy}
    rows = [row for row in ENGINES if row.engine == "IoTDBStyleEngine"]
    row = next((row for row in rows if row.selector == chosen), None)
    if row is None:
        raise EngineError(
            f"IoTDBStyleEngine: no engine for {chosen}; choose from "
            f"{[row.selector for row in rows]}"
        )
    params = {"l1_file_limit": l1_file_limit}
    return _build(row, params, config, telemetry)


def compose_engine(
    placement: str = "single",
    compaction: str = "leveled",
    config: LsmConfig | None = None,
    compaction_kwargs: dict | None = None,
    telemetry: Telemetry | None = None,
) -> LsmEngine:
    """Build an engine from named policies: a row of its own pair and the
    pair's flush (:data:`_DEFAULT_FLUSH`), recorded as ``ComposedEngine``
    and labelled by the triple.  ``compaction_kwargs`` parameterise the
    compaction policy (``size_ratio``, ``tier_fanout``,
    ``l1_file_limit``...).
    """
    if placement not in PLACEMENTS:
        raise EngineError(
            f"unknown placement {placement!r}; choose from {sorted(PLACEMENTS)}"
        )
    if compaction not in COMPACTIONS:
        raise EngineError(
            f"unknown compaction {compaction!r}; choose from {sorted(COMPACTIONS)}"
        )
    flush = _DEFAULT_FLUSH[(placement, compaction)]
    label = f"{placement}+{flush}+{compaction}"
    selector = {"placement": placement, "compaction": compaction}
    row = EngineRow(None, "ComposedEngine", label, placement, flush, compaction, selector=selector)
    return _build(row, compaction_kwargs or {}, config, telemetry)


#: The constructor that builds and restores each name a row records.
_CONSTRUCTORS = {
    build.__name__: build
    for build in (
        ConventionalEngine, SeparationEngine, AdaptiveEngine,
        MultiLevelEngine, TieredEngine, IoTDBStyleEngine,
    )
}
_CONSTRUCTORS["ComposedEngine"] = compose_engine


def engine_constructor(name: str):
    """The constructor that builds and restores engines recorded as
    ``name`` (``None`` when no row has that name)."""
    return next((_CONSTRUCTORS[row.engine] for row in ENGINES if row.engine == name), None)


def recordable_labels(constructor) -> set[str]:
    """Every name an engine ``constructor`` builds may come to record —
    what recovery accepts from a checkpoint it expects such an engine
    in.  A named constructor's are its rows' names, under either split
    when the split is live state (:func:`split_row`); any other
    constructor (``compose_engine``, whose open row is no one
    configuration) may meet any row's."""
    rows = [row for row in ENGINES if row.engine == getattr(constructor, "__name__", None)]
    return {
        split_row(row, placement)[0].engine if row.tuner else row.engine
        for row in rows or ENGINES
        for placement in PLACEMENTS
    }


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
