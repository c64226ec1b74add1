"""The paper's leveled engine, and the conventional policy ``pi_c``.

"When writing, pi_c first buffers the data in C0.  When C0 is full, pi_c
merges the data in C0 and those in SSTables, which have overlapping key
ranges with C0, to form new SSTables so that the data are sorted on the
disk." (Section I-A.)

:class:`LeveledEngine` is the one storage system both of the paper's
policies run on: a single leveled run whose write memory is either one
MemTable (``pi_c``: ``single`` placement, ``merge`` flush) or the
``C_seq`` / ``C_nonseq`` split (``pi_s``: ``split`` placement,
``separation`` flush — see :mod:`repro.lsm.separation`).  Which one is
live state, ``config.seq_capacity``, and :meth:`LeveledEngine.resplit`
changes it on the running engine — what the tuner of Section V-B does
when "the distribution of delays changes".  :class:`ConventionalEngine`
is the named constructor for ``pi_c``.

A leveled engine may also carry a
:class:`~repro.core.analyzer.DelayAnalyzer` — the one tuning loop of
Sections I-D and V-B.  It then ingests *(generation, arrival)* pairs,
logs them and feeds them to the analyzer, and :meth:`LeveledEngine.retune`
is the one step from a delay window to a split: Algorithm 1
(:func:`decide`), :meth:`~LeveledEngine.resplit`, one
:class:`RetuneRecord`.  A database calls it for each auto-tuned series
(:meth:`repro.lsm.database.TimeSeriesDatabase.retune`); ``pi_adaptive``
(:class:`repro.lsm.adaptive.AdaptiveEngine`) is a leveled engine with a
``check_interval`` trigger that calls it whenever the delays drift.
Every re-split is a control frame in the engine's WAL and the analyzer
is part of its checkpoint, so recovery rebuilds both.

The merge operates at SSTable granularity — any SSTable that overlaps
the MemTable's generation-time range is rewritten in full — which is
exactly the behaviour the analytical model under-approximates by
counting individual subsequent points (Section III, error bound 1).
"""

from __future__ import annotations

import logging
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ..config import LsmConfig, is_integer
from ..core.analyzer import DelayAnalyzer
from ..core.tuning import SEPARATION, PolicyDecision
from ..errors import CheckpointCorruptError, ConfigError, ModelError
from .level import Run
from .policies.compaction import LeveledSingleRun
from .policies.flush import MergeFlush, SeparationFlush
from .policies.kernel import StorageKernel
from .policies.placement import SinglePlacement, SplitPlacement

__all__ = ["LeveledEngine", "ConventionalEngine", "RetuneRecord", "decide"]

logger = logging.getLogger(__name__)

#: A retune the ``check_interval`` trigger makes re-splits only when the
#: policy changes or ``n_seq`` moves by more than this share of the
#: budget; an explicit one re-splits whenever the split changes.
TRIGGER_HYSTERESIS = 0.05

#: What Algorithm 1 answered for one analyzer (or why it could not), and
#: how long that took in milliseconds.
RetuneOutcome = tuple[PolicyDecision | ModelError, float]


def decide(analyzer: DelayAnalyzer) -> RetuneOutcome:
    """The decide half of a retune: Algorithm 1 on ``analyzer``'s window,
    timed, with a window that cannot be profiled as the outcome."""
    started = time.perf_counter()
    try:
        outcome = analyzer.recommend()
    except ModelError as error:
        outcome = error
    return outcome, (time.perf_counter() - started) * 1e3


class RetuneRecord(NamedTuple):
    """One decision a leveled engine applied (:meth:`LeveledEngine.retune`)."""

    #: Arrival index it was applied at.
    arrival_index: int
    decision: PolicyDecision
    #: The policy label the engine re-split to; ``None`` if it kept its split.
    switched_to: str | None


def _layout(config: LsmConfig):
    """``(policy_name, placement, flush)`` for the split in ``config``."""
    if config.seq_capacity is None:
        return "pi_c", SinglePlacement(), MergeFlush()
    return "pi_s", SplitPlacement(), SeparationFlush()


class LeveledEngine(StorageKernel):
    """One leveled run under ``pi_c`` or ``pi_s(config.seq_capacity)``."""

    policy_name = "pi_c"
    # The split is live state, so either named constructor's engine may
    # come to record the other's name.
    checkpoint_labels = ("ConventionalEngine", "SeparationEngine")

    def __init__(
        self,
        config: LsmConfig | None = None,
        telemetry=None,
        faults=None,
        analyzer: DelayAnalyzer | None = None,
    ) -> None:
        self.analyzer = analyzer
        #: Every decision :meth:`retune` applied, in order.
        self.decisions: list[RetuneRecord] = []
        config = self._initial_config(config if config is not None else LsmConfig())
        name, placement, flush = _layout(config)
        super().__init__(
            config,
            placement=placement,
            flush=flush,
            compaction=LeveledSingleRun(),
            telemetry=telemetry,
            faults=faults,
        )
        # The instance label follows the split (telemetry spans carry it).
        self.policy_name = name

    @staticmethod
    def _initial_config(config: LsmConfig) -> LsmConfig:
        """The configuration a new engine starts under: as given here,
        with the split fixed by the two named constructors."""
        return config

    def resplit(
        self, seq_capacity: int | None, memory_budget: int | None = None
    ) -> bool:
        """Re-divide write memory on the running engine, at a flush boundary.

        ``seq_capacity`` is the new ``n_seq`` (``None`` for ``pi_c``),
        ``memory_budget`` the new total (unchanged when omitted).  The
        new configuration is validated before anything moves
        (:class:`~repro.errors.ConfigError`), and ``False`` comes back
        with the engine untouched when it is the one already in force.
        Otherwise the re-split is logged (a control frame in the WAL, so
        recovery re-applies it at the same arrival), the buffers drain
        (``flush_all``) and the MemTable layout is re-bound; the run,
        write statistics, cursors, WAL and fault injector are the
        engine's own and stay.
        """
        config = replace(
            self.config,
            seq_capacity=seq_capacity,
            memory_budget=(
                memory_budget
                if memory_budget is not None
                else self.config.memory_budget
            ),
        )
        if config == self.config:
            return False
        self._ensure_open()
        if self._wal is not None:
            self._wal.append_split(self._next_id, seq_capacity, config.memory_budget)
        self.flush_all()
        self._bind_split(config)
        return True

    def _bind_split(self, config: LsmConfig) -> None:
        name, placement, flush = _layout(config)
        self.rebind(config, placement, flush)
        self.policy_name = name
        if self.analyzer is not None:
            self.analyzer.memory_budget = config.memory_budget

    # -- the tuning loop -------------------------------------------------------

    def _ingest_pairs(
        self, tg: np.ndarray, ta: np.ndarray, delays: np.ndarray | None = None
    ) -> None:
        """Observe and place validated pairs — shared by ingest and WAL
        replay.  The analyzer stages ``delays`` when ingest computed
        them, and checks a replayed record's pairs itself.  With a
        ``check_interval`` (every point then comes with its arrival
        time, so the arrival index is the check cursor), the engine
        retunes at each boundary where the delays have drifted."""
        analyzer = self.analyzer

        def observe(start: int, stop: int) -> None:
            if delays is None:
                analyzer.observe(tg[start:stop], ta[start:stop])
            else:
                analyzer._stage(tg[start:stop], delays[start:stop])

        interval = self.check_interval
        if interval is None:
            observe(0, tg.size)
            self._ingest_validated(tg)
            return
        pos = 0
        while pos < tg.size:
            take = min(interval - self._next_id % interval, tg.size - pos)
            observe(pos, pos + take)
            self._ingest_validated(tg[pos : pos + take])
            pos += take
            if self._next_id % interval == 0 and self.analyzer.should_retune():
                self.retune(hysteresis=TRIGGER_HYSTERESIS)

    def retune(
        self,
        outcome: RetuneOutcome | None = None,
        hysteresis: float = 0.0,
        series: str | None = None,
    ) -> bool:
        """Decide and apply one retune; True if the engine re-split.

        ``outcome`` is what :func:`decide` answered for :attr:`analyzer`
        (decided now when omitted).  A window that cannot be profiled
        keeps the split, with a warning and a ``retune_skipped`` event.
        Otherwise the engine re-splits to the decision unless it moves
        ``n_seq`` by no more than ``hysteresis`` times the budget (a
        policy change always re-splits), and appends a
        :class:`RetuneRecord` to :attr:`decisions`.  Events are
        ``db.*``, naming ``series``, for a series of a database and
        ``adaptive.*``, at the arrival index, for an engine on its own.
        """
        decision, duration_ms = decide(self.analyzer) if outcome is None else outcome
        alone = series is None
        where = {"arrival_index": self.ingested_points} if alone else {"series": series}
        telemetry = self.telemetry
        if isinstance(decision, ModelError):
            logger.warning(
                "retune skipped %s, which keeps %s: %s",
                f"at arrival {self.ingested_points}" if alone else f"series {series!r}",
                self.current_policy,
                decision,
            )
            kind = "adaptive.retune_skipped" if alone else "db.retune_skipped"
            reason = str(decision)
            telemetry.emit({"type": kind, **where, "policy": self.current_policy, "reason": reason})
            return False
        target = decision.seq_capacity if decision.policy == SEPARATION else None
        current = self.config.seq_capacity
        switching = (target is None) != (current is None) or (
            target is not None
            and abs(target - current) > hysteresis * self.config.memory_budget
        )
        if telemetry.enabled:
            event = {"type": "adaptive.decision", **where, "policy": decision.policy}
            event["seq_capacity"] = decision.seq_capacity
            if alone:
                event["switching"] = switching
                telemetry.count("adaptive.decisions")
            else:
                analyzer = self.analyzer
                event.update(
                    type="db.retune_decision",
                    observed_points=analyzer.observed_points,
                    sample_count=len(analyzer.window),
                    dt=analyzer.estimated_dt(),
                    memory_budget=analyzer.memory_budget,
                    sstable_size=analyzer.sstable_size,
                    r_c=decision.r_c,
                    r_s_star=decision.r_s_star,
                    candidates=int(decision.sweep_n_seq.size),
                    duration_ms=duration_ms,
                    rows_computed=decision.rows_computed,
                )
            telemetry.emit(event)
        switched = switching and self.resplit(target)
        policy = self.current_policy
        record = RetuneRecord(self.ingested_points, decision, policy if switched else None)
        self.decisions.append(record)
        if switched and telemetry.enabled:
            kind = "adaptive.switch" if alone else "db.series_retuned"
            telemetry.emit({"type": kind, **where, "policy": policy})
            telemetry.count("adaptive.switches" if alone else "db.retunes")
        return switched

    @property
    def switches(self) -> list[tuple[int, str]]:
        """``(arrival_index, policy label)`` of every re-split
        :meth:`retune` made, from :attr:`decisions`."""
        return [(index, to) for index, _, to in self.decisions if to is not None]

    @property
    def run(self) -> Run:
        """The single on-disk leveled run."""
        return self.compaction.run

    @property
    def last_disk_tg(self) -> float:
        """``LAST(R).t_g`` (``-inf`` until the first flush)."""
        return self.run.max_tg

    @property
    def current_policy(self) -> str:
        """Label of the policy in force (``pi_c`` / ``pi_s(n_seq=...)``)."""
        n_seq = self.config.seq_capacity
        return "pi_c" if n_seq is None else f"pi_s(n_seq={n_seq})"

    @property
    def checkpoint_label(self) -> str:
        # Derived from the split: whichever of the two named
        # constructors builds it.
        return self.checkpoint_labels[self.config.seq_capacity is not None]

    # -- durability hooks ------------------------------------------------------

    def _checkpoint_state(self, arrays) -> dict:
        state = super()._checkpoint_state(arrays)
        if self.config.seq_capacity is not None:
            # The separation watermark LAST(R).t_g is implied by the
            # restored run's maximum, but stored for the recovery
            # report / debugging.
            state["last_disk_tg"] = self.last_disk_tg
        if self.analyzer is not None:
            state["tuner"] = {
                "seq_capacity": self.config.seq_capacity,
                "check_interval": self.check_interval,
                "analyzer": self.analyzer.to_checkpoint(arrays),
                "decisions": [
                    [index, switched_to, decision_to_json(decision)]
                    for index, decision, switched_to in self.decisions
                ],
            }
        return state

    def _restore_state(self, state: dict, arrays) -> None:
        tuner = state.get("tuner")
        if tuner is not None:
            self._restore_tuner(tuner, arrays)
        super()._restore_state(state, arrays)

    def _restore_tuner(self, tuner: dict, arrays) -> None:
        """Re-bind the recorded split and revive the analyzer, its check
        interval and its decisions — each checked, because what the
        engine does next is decided from them: a block that cannot be
        the engine's own is :class:`CheckpointCorruptError`, and
        recovery replays the WAL instead."""
        try:
            interval, seq_capacity = tuner["check_interval"], tuner["seq_capacity"]
            if interval is not None and not (is_integer(interval) and interval >= 1):
                raise CheckpointCorruptError(f"tuner check_interval is {interval!r}")
            if seq_capacity != self.config.seq_capacity:
                # A named constructor may have started under another split.
                self._bind_split(replace(self.config, seq_capacity=seq_capacity))
            analyzer = DelayAnalyzer.from_checkpoint(tuner["analyzer"], arrays)
            if analyzer.memory_budget != self.config.memory_budget:
                raise CheckpointCorruptError(
                    f"analyzer budget {analyzer.memory_budget} is not the "
                    f"engine's {self.config.memory_budget}"
                )
            decisions = [
                RetuneRecord(index, decision_from_json(encoded), switched_to)
                for index, switched_to, encoded in tuner["decisions"]
            ]
            for index, _, switched_to in decisions:
                if not is_integer(index) or not isinstance(switched_to, (str, type(None))):
                    raise CheckpointCorruptError(f"tuner decision at {index!r} to {switched_to!r}")
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointCorruptError(f"tuner block: {exc!r}") from None
        self.analyzer, self.check_interval, self.decisions = analyzer, interval, decisions
        analyzer.last_decision = decisions[-1].decision if decisions else None


class ConventionalEngine(LeveledEngine):
    """Leveled LSM engine under the conventional (no-separation) policy:
    starts with one MemTable, whatever ``seq_capacity`` the config has."""

    @staticmethod
    def _initial_config(config: LsmConfig) -> LsmConfig:
        return config.with_seq_capacity(None)


def decision_to_json(decision: PolicyDecision) -> dict:
    """JSON-able form of one Algorithm 1 output: its evidence, not its
    bill (``rows_computed`` reads 0 once restored)."""
    sweeps = {key: getattr(decision, key).tolist() for key in ("sweep_n_seq", "sweep_r_s")}
    return dict(vars(decision), **sweeps, rows_computed=0)


def decision_from_json(fields: dict) -> PolicyDecision:
    """The decision :func:`decision_to_json` wrote."""
    n_seq, r_s = np.asarray(fields["sweep_n_seq"], np.int64), np.asarray(fields["sweep_r_s"])
    return PolicyDecision(**dict(fields, sweep_n_seq=n_seq, sweep_r_s=r_s))
