"""``pi_adaptive``: analyzer-driven policy switching at runtime.

Reproduces the auto-tuning program of Section V-B: "We used pi_c to
initialize the system, which then continuously collected delays when
writing.  If it finds that the distribution of delays changes, it would
trigger the Separation Policy Tuning Algorithm (Algorithm 1) to update
the policy."

That is *one* storage system changing its ``C_seq``/``C_nonseq`` split:
a :class:`~repro.lsm.conventional.LeveledEngine` that starts under
``pi_c`` with a delay analyzer and a ``check_interval`` trigger — every
``check_interval`` points, if the delays have drifted, the engine's one
retune step (:meth:`~repro.lsm.conventional.LeveledEngine.retune`, with
:data:`~repro.lsm.conventional.TRIGGER_HYSTERESIS`).  Its loop, WAL
records, checkpoint and recovery are every leveled engine's;
:class:`AdaptiveEngine` is the named constructor, and the label its
checkpoints record.

The instance's ``policy_name`` follows the policy in force (``pi_c`` /
``pi_s``), which is what its telemetry spans are labelled with; the
class attribute stays ``pi_adaptive``.
"""

from __future__ import annotations

from ..config import LsmConfig, is_integer
from ..core.analyzer import DelayAnalyzer
from ..errors import EngineError
from ..faults.injector import FaultInjector
from ..obs.telemetry import Telemetry
from .conventional import LeveledEngine, RetuneRecord, decision_from_json

__all__ = ["AdaptiveEngine"]


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
        telemetry: Telemetry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if not is_integer(check_interval) or check_interval < 1:
            raise EngineError(f"check_interval must be an integer >= 1, got {check_interval!r}")
        super().__init__(config, telemetry=telemetry, faults=faults, analyzer=analyzer)
        if analyzer is None:
            budget, sstable_size = self.config.memory_budget, self.config.sstable_size
            self.analyzer = DelayAnalyzer(budget, sstable_size=sstable_size)
        self.check_interval = check_interval

    @staticmethod
    def _initial_config(config: LsmConfig) -> LsmConfig:
        # Section V-B initialises with pi_c, whatever split was handed in.
        return config.with_seq_capacity(None)

    def _restore_state(self, state: dict, arrays) -> None:
        inner = state.get("inner")
        if inner is None:
            return super()._restore_state(state, arrays)
        # Laid out so by checkpoints taken before the analyzer was engine
        # state: the kernel nested, the decisions beside it, no window.
        self._bind_split(self.config.with_seq_capacity(inner["seq_capacity"]))
        super()._restore_state(inner["state"], arrays)
        switches = dict(state["switch_log"])
        self.decisions = [
            RetuneRecord(index, decision_from_json(encoded), switches.get(index))
            for index, encoded in state["decision_log"]
        ]
