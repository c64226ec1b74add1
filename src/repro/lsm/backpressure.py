"""Admission control: graceful degradation under sustained overload.

When the incremental scheduler cannot keep up — the workload's write
amplification exceeds the token rate, or injected fsync/merge delays
stall landings — detached MemTables accumulate in the queue.  The
:class:`AdmissionController` watches that *landing debt* (points
buffered in live MemTables plus points queued for landing) and moves
through three states:

* ``healthy`` — debt below ``backpressure_throttle``: writes are
  admitted untouched.
* ``throttled`` — debt in ``[throttle, shed)``: each admitted batch
  also retires a proportional slice of the backlog synchronously, so
  the writer pays for its own debt and the queue stops growing.
* ``shedding`` — debt at or past ``backpressure_shed``: the writer is
  stalled while the whole backlog drains (counted in ``shed_batches``).

State is evaluated per batch at the admission hook (before WAL append),
and every transition and stall is published on the telemetry bus:
``backpressure.state`` / ``scheduler.queue_depth`` gauges, a
``backpressure.stall_ms`` histogram, and ``{"type": "backpressure"}`` /
``{"type": "stall"}`` events that ``repro report`` summarises.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .sstable import POINT_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import LsmEngine

__all__ = [
    "BACKPRESSURE_STATES",
    "HEALTHY",
    "THROTTLED",
    "SHEDDING",
    "AdmissionController",
    "rollup_states",
]

HEALTHY = "healthy"
THROTTLED = "throttled"
SHEDDING = "shedding"

#: Degradation ladder, in escalation order (gauge codes are indices).
BACKPRESSURE_STATES = (HEALTHY, THROTTLED, SHEDDING)

#: Work points a throttled writer retires per admitted point.  Above 1
#: so throttling pays debt *down* instead of merely matching intake.
_THROTTLE_WORK_FACTOR = 2


def rollup_states(states: list[str]) -> str:
    """Fleet-level admission state: the worst of its members' states.

    A fleet is only as healthy as its most loaded shard — one shedding
    shard means writes routed there are being stalled even
    while the rest of the fleet is idle.  Unknown state strings escalate
    to :data:`SHEDDING` (fail loud in the rollup gauge rather than
    report a sick fleet healthy); an empty fleet is healthy.
    """
    worst = 0
    for state in states:
        try:
            rank = BACKPRESSURE_STATES.index(state)
        except ValueError:
            rank = len(BACKPRESSURE_STATES) - 1
        if rank > worst:
            worst = rank
    return BACKPRESSURE_STATES[worst]


class AdmissionController:
    """Per-kernel backpressure state machine (see module docstring)."""

    def __init__(self, kernel: "LsmEngine") -> None:
        config = kernel.config
        self.kernel = kernel
        budget = config.memory_budget
        self.throttle_points = (
            config.backpressure_throttle
            if config.backpressure_throttle is not None
            else 4 * budget
        )
        self.shed_points = (
            config.backpressure_shed
            if config.backpressure_shed is not None
            else 16 * budget
        )
        self.state = HEALTHY
        #: ``(from_state, to_state, debt_points)`` per transition.
        self.transitions: list[tuple[str, str, int]] = []
        self.stall_count = 0
        self.total_stall_ms = 0.0
        self.max_stall_ms = 0.0
        #: Batches admitted while ``shedding`` (each stalled for a full
        #: drain).
        self.shed_batches = 0

    # -- state -----------------------------------------------------------------

    def debt_points(self) -> int:
        """Current landing debt: live MemTable points + queued points
        + the point-equivalent of resident cold-tier block statistics.

        Columnar tables are charged for the block statistics a real
        cold tier would pin in memory (``BLOCK_STAT_BYTES`` per block, a
        modelled charge), so that footprint competes with MemTables for
        the same budget; it is charged here at
        :data:`~repro.lsm.sstable.POINT_BYTES` per point-equivalent.  No term walks the tables: the kernel keeps
        the byte total as a running sum adjusted by each landing,
        conversion and restore, so admission costs the same however
        many tables the series holds.
        """
        kernel = self.kernel
        debt = sum(len(m) for m in kernel.placement.memtables())
        scheduler = kernel.scheduler
        if scheduler is not None:
            debt += scheduler.backlog_points
        debt += kernel.cold_tier_bytes() // POINT_BYTES
        return debt

    def _classify(self, debt: int) -> str:
        if debt >= self.shed_points:
            return SHEDDING
        if debt >= self.throttle_points:
            return THROTTLED
        return HEALTHY

    def _transition(self, state: str, debt: int) -> None:
        previous = self.state
        self.state = state
        self.transitions.append((previous, state, debt))
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.emit(
                {
                    "type": "backpressure",
                    "from_state": previous,
                    "to_state": state,
                    "debt_points": debt,
                }
            )
            telemetry.count("backpressure.transitions")
            telemetry.gauge(
                "backpressure.state", float(BACKPRESSURE_STATES.index(state))
            )

    # -- admission -------------------------------------------------------------

    def admit(self, count: int) -> None:
        """Admit one incoming batch of ``count`` points.

        Called before the batch reaches the WAL.  Stalls while throttled
        or shedding; on return the batch is admitted.
        """
        debt = self.debt_points()
        state = self._classify(debt)
        if state != self.state:
            self._transition(state, debt)
        if state == HEALTHY:
            return
        scheduler = self.kernel.scheduler
        if state == SHEDDING:
            self.shed_batches += 1
        start = time.perf_counter()
        if scheduler is None:
            # Backpressure without the scheduler: there is no backlog to
            # retire, so the stall degenerates to pure state reporting.
            worked = 0
        elif state == THROTTLED:
            worked = scheduler.run_work(_THROTTLE_WORK_FACTOR * count)
        else:
            worked = scheduler.drain()
        stall_ms = (time.perf_counter() - start) * 1_000.0
        self._record_stall(state, stall_ms, worked)

    def _record_stall(self, state: str, stall_ms: float, worked: int) -> None:
        self.stall_count += 1
        self.total_stall_ms += stall_ms
        if stall_ms > self.max_stall_ms:
            self.max_stall_ms = stall_ms
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.emit(
                {
                    "type": "stall",
                    "state": state,
                    "duration_ms": stall_ms,
                    "work_points": worked,
                }
            )
            telemetry.count("backpressure.stalls")
            telemetry.observe("backpressure.stall_ms", stall_ms)
            telemetry.gauge("backpressure.last_stall_ms", stall_ms)
