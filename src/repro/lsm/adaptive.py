"""``pi_adaptive``: analyzer-driven policy switching at runtime.

Reproduces the auto-tuning program of Section V-B: "We used pi_c to
initialize the system, which then continuously collected delays when
writing.  If it finds that the distribution of delays changes, it would
trigger the Separation Policy Tuning Algorithm (Algorithm 1) to update
the policy."

The engine is a first-class :class:`~repro.lsm.base.LsmEngine` wrapping
a live :class:`ConventionalEngine` or :class:`SeparationEngine`; on a
switch the current buffers are flushed, the on-disk run and the write
statistics carry over, and ingestion continues under the new policy.
Because the analyzer needs delays, this engine ingests *(generation,
arrival)* pairs rather than bare generation times — its WAL records
carry both so recovery can replay through the analyzer.

Checkpoints serialise the wrapper (decision/switch logs, retune cursor)
plus the inner engine component-wise, so by-name restore through
``LsmEngine.restore`` revives the exact storage state.  The analyzer's
reservoir is deliberately *not* durable: a restored engine re-learns the
delay distribution, which only affects future retune timing, never the
recovered data or accounting.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from ..config import LsmConfig
from ..core.analyzer import DelayAnalyzer
from ..core.tuning import SEPARATION, PolicyDecision
from ..errors import EngineError, ModelError
from ..faults.injector import FaultInjector
from ..obs.telemetry import Telemetry
from .base import LsmEngine, Snapshot
from .conventional import ConventionalEngine
from .separation import SeparationEngine, leveled_engine
from .wa_tracker import WriteStats

__all__ = ["AdaptiveEngine"]

logger = logging.getLogger(__name__)


class AdaptiveEngine(LsmEngine):
    """LSM engine that re-tunes its buffering policy as delays drift."""

    policy_name = "pi_adaptive"

    def __init__(
        self,
        config: LsmConfig | None = None,
        analyzer: DelayAnalyzer | None = None,
        check_interval: int = 8192,
        min_seq_change: float = 0.05,
        stats: WriteStats | None = None,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if check_interval < 1:
            raise EngineError(f"check_interval must be >= 1, got {check_interval}")
        super().__init__(
            config if config is not None else LsmConfig(),
            stats,
            telemetry=telemetry,
            faults=faults,
        )
        self.analyzer = (
            analyzer
            if analyzer is not None
            else DelayAnalyzer(
                self.config.memory_budget,
                sstable_size=self.config.sstable_size,
            )
        )
        self.check_interval = check_interval
        self.min_seq_change = min_seq_change
        #: Inner engines get a durability-stripped config: the WAL and
        #: fault injector live on the wrapper (the kernel base) — WAL
        #: records must carry (tg, ta) pairs, and the shared injector's
        #: trigger counts must survive policy switches.
        self._inner_config = dataclasses.replace(
            self.config, wal_path=None, fault_plan=None
        )
        self._engine: ConventionalEngine | SeparationEngine = self._build_inner(None)
        self._since_check = 0
        #: ``(arrival_index, PolicyDecision)`` for every retune performed.
        self.decision_log: list[tuple[int, PolicyDecision]] = []
        #: ``(arrival_index, policy_label)`` for every actual switch.
        self.switch_log: list[tuple[int, str]] = []

    # -- ingestion -------------------------------------------------------------

    def ingest(self, tg: np.ndarray, ta: np.ndarray) -> None:
        """Feed aligned generation/arrival timestamp batches (arrival order)."""
        tg = self._validate_batch(tg)
        ta = np.ascontiguousarray(ta, dtype=np.float64)
        if tg.shape != ta.shape:
            raise EngineError(f"tg and ta must align: {tg.shape} vs {ta.shape}")
        if tg.size == 0:
            return
        if not np.isfinite(ta).all():
            raise ModelError("arrival times must be finite; got NaN/inf")
        # Everything that can reject the batch has run before it becomes
        # durable: a logged batch the analyzer or admission then refused
        # would fail again on every replay of the WAL.
        self._engine._admit_batch(tg.size)
        if self._wal is not None:
            self._wal.append(tg, start_id=self.ingested_points, ta=ta)
        self._ingest_pairs(tg, ta)

    def _ingest_pairs(self, tg: np.ndarray, ta: np.ndarray) -> None:
        """Feed validated, admitted pairs — shared by ingest and WAL replay."""
        pos = 0
        while pos < tg.size:
            take = min(self.check_interval - self._since_check, tg.size - pos)
            chunk_tg = tg[pos : pos + take]
            chunk_ta = ta[pos : pos + take]
            self.analyzer.observe(chunk_tg, chunk_ta)
            self._engine._ingest_validated(chunk_tg)
            self._since_check += take
            pos += take
            if self._since_check >= self.check_interval:
                self._since_check = 0
                self._maybe_retune()
        # Keep the wrapper's cursors in lockstep with the inner engine so
        # checkpoint metadata and WAL framing stay consistent.
        self._next_id = self._engine.ingested_points
        self._arrival_cursor = self._engine.processed_points

    def _ingest_batch(self, tg: np.ndarray, ids: np.ndarray) -> None:
        raise EngineError(
            "pi_adaptive ingests (tg, ta) pairs; call ingest(tg, ta)"
        )

    def _flush_buffers(self) -> None:
        self._engine.flush_all()

    def verify(self) -> None:
        """Run the crash-consistency invariants over the active engine."""
        self._engine.verify()

    # -- retuning ---------------------------------------------------------------

    def _maybe_retune(self) -> None:
        if not self.analyzer.should_retune():
            return
        decision = self.analyzer.recommend()
        self.decision_log.append((self.ingested_points, decision))
        switching = self._needs_switch(decision)
        if self.telemetry.enabled:
            self.telemetry.emit(
                {
                    "type": "adaptive.decision",
                    "arrival_index": self.ingested_points,
                    "policy": decision.policy,
                    "seq_capacity": decision.seq_capacity,
                    "switching": switching,
                }
            )
            self.telemetry.count("adaptive.decisions")
        if switching:
            self._switch(decision)

    def _needs_switch(self, decision: PolicyDecision) -> bool:
        current_is_separation = isinstance(self._engine, SeparationEngine)
        if (decision.policy == SEPARATION) != current_is_separation:
            return True
        if not current_is_separation:
            return False
        current = self._engine.seq_capacity
        target = decision.seq_capacity
        return abs(target - current) > self.min_seq_change * self.config.memory_budget

    def _switch(self, decision: PolicyDecision) -> None:
        old = self._engine
        self._engine = self._build_inner(
            decision.seq_capacity if decision.policy == SEPARATION else None, old
        )
        logger.info(
            "pi_adaptive switch at arrival %d: -> %s",
            old.ingested_points,
            self.current_policy,
        )
        self.switch_log.append((old.ingested_points, self.current_policy))
        if self.telemetry.enabled:
            self.telemetry.emit(
                {
                    "type": "adaptive.switch",
                    "arrival_index": old.ingested_points,
                    "policy": self.current_policy,
                }
            )
            self.telemetry.count("adaptive.switches")

    def _build_inner(
        self, seq_capacity: int | None, old=None
    ) -> ConventionalEngine | SeparationEngine:
        """``pi_s(seq_capacity)`` (``pi_c`` for ``None``) sharing the
        wrapper's stats, telemetry and injector — fresh, or draining
        and continuing from the inner engine ``old``."""
        return leveled_engine(
            self._inner_config.with_seq_capacity(seq_capacity),
            old,
            stats=self.stats,
            telemetry=self.telemetry,
            faults=self.faults,
        )

    # -- views ---------------------------------------------------------------------

    @property
    def current_policy(self) -> str:
        """Label of the policy currently in force."""
        if isinstance(self._engine, SeparationEngine):
            return f"pi_s(n_seq={self._engine.seq_capacity})"
        return "pi_c"

    @property
    def ingested_points(self) -> int:
        """Total points ingested across all policies."""
        return self._engine.ingested_points

    @property
    def processed_points(self) -> int:
        """Points actually placed in MemTables by the active engine."""
        return self._engine.processed_points

    def snapshot(self) -> Snapshot:
        """Read view of the active engine."""
        return self._engine.snapshot()

    # -- cold tier (delegated to the active engine) ----------------------------

    def convert_cold(
        self, max_tg: float | None = None, block_size: int | None = None
    ) -> int:
        """Convert the active engine's settled tables to columnar."""
        return self._engine.convert_cold(max_tg=max_tg, block_size=block_size)

    def cold_tier_bytes(self) -> int:
        """Resident block-statistics bytes of the active engine."""
        return self._engine.cold_tier_bytes()

    @property
    def cold_tables_converted(self) -> int:
        """Tables the active engine has converted to the cold format."""
        return self._engine.cold_tables_converted

    def _sorted_table_groups(self):
        return self._engine._sorted_table_groups()

    def _loose_tables(self):
        return self._engine._loose_tables()

    # -- durability hooks ------------------------------------------------------

    def _prepare_checkpoint(self) -> None:
        # The wrapper packs the inner kernel component-wise, so the
        # inner scheduler must quiesce before anything is serialised.
        self._engine._prepare_checkpoint()

    def _checkpoint_kwargs(self) -> dict:
        return {
            "check_interval": self.check_interval,
            "min_seq_change": self.min_seq_change,
        }

    def _checkpoint_state(self, arrays) -> dict:
        inner = self._engine
        separation = isinstance(inner, SeparationEngine)
        return {
            "inner": {
                "policy": "separation" if separation else "conventional",
                "seq_capacity": inner.seq_capacity if separation else None,
                "next_id": inner._next_id,
                "arrival_cursor": inner._arrival_cursor,
                "state": inner._checkpoint_state(arrays),
            },
            "since_check": self._since_check,
            "decision_log": [
                [index, _encode_decision(decision)]
                for index, decision in self.decision_log
            ],
            "switch_log": [[index, label] for index, label in self.switch_log],
        }

    def _restore_state(self, state: dict, arrays) -> None:
        inner_meta = state["inner"]
        inner = self._build_inner(inner_meta["seq_capacity"])
        inner._next_id = int(inner_meta["next_id"])
        inner._arrival_cursor = int(inner_meta["arrival_cursor"])
        inner._restore_state(inner_meta["state"], arrays)
        self._engine = inner
        self._since_check = int(state["since_check"])
        self.decision_log = [
            (int(index), _decode_decision(encoded))
            for index, encoded in state["decision_log"]
        ]
        self.switch_log = [
            (int(index), str(label)) for index, label in state["switch_log"]
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveEngine(current={self.current_policy}, "
            f"ingested={self.ingested_points}, switches={len(self.switch_log)})"
        )


def _encode_decision(decision: PolicyDecision) -> dict:
    """JSON-able form of one Algorithm 1 output (sweep arrays as lists)."""
    return {
        "policy": decision.policy,
        "seq_capacity": decision.seq_capacity,
        "r_c": decision.r_c,
        "r_s_star": decision.r_s_star,
        "sweep_n_seq": np.asarray(decision.sweep_n_seq).tolist(),
        "sweep_r_s": np.asarray(decision.sweep_r_s).tolist(),
    }


def _decode_decision(encoded: dict) -> PolicyDecision:
    return PolicyDecision(
        policy=encoded["policy"],
        seq_capacity=encoded["seq_capacity"],
        r_c=float(encoded["r_c"]),
        r_s_star=float(encoded["r_s_star"]),
        sweep_n_seq=np.asarray(encoded["sweep_n_seq"], dtype=np.int64),
        sweep_r_s=np.asarray(encoded["sweep_r_s"], dtype=np.float64),
    )
