"""``pi_adaptive``: analyzer-driven policy switching at runtime.

Reproduces the auto-tuning program of Section V-B: "We used pi_c to
initialize the system, which then continuously collected delays when
writing.  If it finds that the distribution of delays changes, it would
trigger the Separation Policy Tuning Algorithm (Algorithm 1) to update
the policy."

That is *one* storage system changing its ``C_seq``/``C_nonseq`` split,
and so is this engine: a :class:`~repro.lsm.conventional.LeveledEngine`
that carries its own analyzer and calls its own
:meth:`~repro.lsm.conventional.LeveledEngine.resplit` when Algorithm 1
says so.  Because the analyzer needs delays, this engine ingests
*(generation, arrival)* pairs rather than bare generation times — its
WAL records carry both so recovery can replay through the analyzer.

The instance's ``policy_name`` follows the policy in force (``pi_c`` /
``pi_s``), which is what its telemetry spans are labelled with; the
class attribute stays ``pi_adaptive``.

Checkpoints add the decision/switch logs and the retune cursor to the
kernel's component-wise state.  The analyzer's reservoir is deliberately
*not* durable: a restored engine re-learns the delay distribution, which
only affects future retune timing, never the recovered data or
accounting — and is why crash recovery replays the whole WAL instead of
starting from a checkpoint (:func:`repro.lsm.recovery.recover_engine`
with no ``checkpoint_path``).
"""

from __future__ import annotations

import logging

import numpy as np

from ..config import LsmConfig
from ..core.analyzer import DelayAnalyzer
from ..core.tuning import SEPARATION, PolicyDecision
from ..errors import EngineError, ModelError, RecoveryError
from ..faults.injector import FaultInjector
from ..obs.telemetry import Telemetry
from .conventional import LeveledEngine
from .wal import WalRecord

__all__ = ["AdaptiveEngine"]

logger = logging.getLogger(__name__)


class AdaptiveEngine(LeveledEngine):
    """LSM engine that re-tunes its buffering policy as delays drift."""

    policy_name = "pi_adaptive"
    checkpoint_labels = ("AdaptiveEngine",)
    checkpoint_label = "AdaptiveEngine"

    def __init__(
        self,
        config: LsmConfig | None = None,
        analyzer: DelayAnalyzer | None = None,
        check_interval: int = 8192,
        min_seq_change: float = 0.05,
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if check_interval < 1:
            raise EngineError(f"check_interval must be >= 1, got {check_interval}")
        # Section V-B initialises with pi_c, whatever split was handed in.
        super().__init__(
            (config if config is not None else LsmConfig()).with_seq_capacity(None),
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
        self._admit_batch(tg.size)
        if self._wal is not None:
            self._wal.append(tg, start_id=self._next_id, ta=ta)
        self._ingest_pairs(tg, ta)

    def _ingest_pairs(self, tg: np.ndarray, ta: np.ndarray) -> None:
        """Feed validated, admitted pairs — shared by ingest and WAL replay."""
        pos = 0
        while pos < tg.size:
            take = min(self.check_interval - self._since_check, tg.size - pos)
            chunk_tg = tg[pos : pos + take]
            self.analyzer.observe(chunk_tg, ta[pos : pos + take])
            self._ingest_validated(chunk_tg)
            self._since_check += take
            pos += take
            if self._since_check >= self.check_interval:
                self._since_check = 0
                self._maybe_retune()

    def _replay(self, record: WalRecord) -> None:
        if record.ta is None:
            raise RecoveryError(
                f"WAL record at id {record.start_id} lacks arrival times; "
                "an adaptive WAL must carry (tg, ta) pairs"
            )
        self._ingest_pairs(record.tg, record.ta)

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
        current = self.config.seq_capacity
        if (decision.policy == SEPARATION) != (current is not None):
            return True
        if current is None:
            return False
        target = decision.seq_capacity
        return abs(target - current) > self.min_seq_change * self.config.memory_budget

    def _switch(self, decision: PolicyDecision) -> None:
        self.resplit(
            decision.seq_capacity if decision.policy == SEPARATION else None
        )
        logger.info(
            "pi_adaptive switch at arrival %d: -> %s",
            self.ingested_points,
            self.current_policy,
        )
        self.switch_log.append((self.ingested_points, self.current_policy))
        if self.telemetry.enabled:
            self.telemetry.emit(
                {
                    "type": "adaptive.switch",
                    "arrival_index": self.ingested_points,
                    "policy": self.current_policy,
                }
            )
            self.telemetry.count("adaptive.switches")

    # -- durability hooks ------------------------------------------------------

    def _checkpoint_kwargs(self) -> dict:
        return {
            "check_interval": self.check_interval,
            "min_seq_change": self.min_seq_change,
        }

    def _checkpoint_state(self, arrays) -> dict:
        n_seq = self.config.seq_capacity
        return {
            # Nested because checkpoints taken while this engine wrapped
            # an inner engine are laid out so, and must keep restoring.
            "inner": {
                "policy": "conventional" if n_seq is None else "separation",
                "seq_capacity": n_seq,
                "next_id": self._next_id,
                "arrival_cursor": self._arrival_cursor,
                "state": super()._checkpoint_state(arrays),
            },
            "since_check": self._since_check,
            "decision_log": [
                [index, _encode_decision(decision)]
                for index, decision in self.decision_log
            ],
            "switch_log": [[index, label] for index, label in self.switch_log],
        }

    def _restore_state(self, state: dict, arrays) -> None:
        self.resplit(state["inner"]["seq_capacity"])
        super()._restore_state(state["inner"]["state"], arrays)
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
