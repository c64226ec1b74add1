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

The merge operates at SSTable granularity — any SSTable that overlaps
the MemTable's generation-time range is rewritten in full — which is
exactly the behaviour the analytical model under-approximates by
counting individual subsequent points (Section III, error bound 1).
"""

from __future__ import annotations

from dataclasses import replace

from ..config import LsmConfig
from .level import Run
from .policies.compaction import LeveledSingleRun
from .policies.flush import MergeFlush, SeparationFlush
from .policies.kernel import StorageKernel
from .policies.placement import SinglePlacement, SplitPlacement

__all__ = ["LeveledEngine", "ConventionalEngine"]


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
    ) -> None:
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
        Otherwise the buffers drain (``flush_all``) and the MemTable
        layout is re-bound; the run, write statistics, cursors, WAL and
        fault injector are the engine's own and stay.
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
        self.flush_all()
        name, placement, flush = _layout(config)
        self.rebind(config, placement, flush)
        self.policy_name = name
        return True

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

    def _checkpoint_state(self, arrays) -> dict:
        state = super()._checkpoint_state(arrays)
        if self.config.seq_capacity is not None:
            # The separation watermark LAST(R).t_g is implied by the
            # restored run's maximum, but stored for the recovery
            # report / debugging.
            state["last_disk_tg"] = self.last_disk_tg
        return state


class ConventionalEngine(LeveledEngine):
    """Leveled LSM engine under the conventional (no-separation) policy:
    starts with one MemTable, whatever ``seq_capacity`` the config has."""

    @staticmethod
    def _initial_config(config: LsmConfig) -> LsmConfig:
        return config.with_seq_capacity(None)
