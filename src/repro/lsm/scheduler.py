"""Incremental compaction scheduling: landing work in bounded units.

The stop-the-world kernel lands a full MemTable inside the ingest call
that filled it, so one large overlap merge stalls every writer — the
write-stall pathology of leveled LSM-trees.  With
``LsmConfig.compaction_scheduler`` enabled the kernel instead *detaches*
a full MemTable (the placement policy swaps in a fresh empty one) and
queues a :class:`LandingTask` around the compaction policy's ``land``
generator — the same generator the stop-the-world path drains on the
spot, created here with a work unit of ``compaction_work_unit`` points.
The scheduler steps queued generators one work unit at a time, paced by
a :class:`TokenBucket` refilled per ingested point.

Determinism and equivalence
---------------------------
The token bucket is keyed on ingested points, never wall-clock, so a
scheduled run is exactly reproducible.  Tasks execute strictly FIFO and
each task stages lazily (its first work unit sorts and stages against
the disk state at *execution* time); since the scheduler is the only
mutator of the disk structure, every landing commits against exactly the
state the stop-the-world path would have seen.  The final disk state,
per-point write counters and WA therefore match the synchronous path —
only the *timing* of landings (event ``arrival_index`` stamps) shifts
later in the arrival stream.

Crash semantics carry over unchanged: a task's mutations happen at its
commit unit, behind the kernel's fault boundary; an injected crash
mid-schedule discards only staged (never committed) work, and WAL replay
on a fresh engine deterministically rebuilds the same queue.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..errors import EngineError
from .memtable import MemTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import LsmEngine

__all__ = ["TokenBucket", "LandingTask", "CompactionScheduler"]


class TokenBucket:
    """Deterministic rate limiter: tokens are work points.

    Refilled by ingest (``rate`` tokens per ingested point), spent by
    scheduler work units.  A unit may overdraw the bucket — its cost is
    only known after it ran — so ``tokens`` can go slightly negative and
    the debt carries into the next refill; the overshoot is bounded by
    one work unit.
    """

    __slots__ = ("rate", "capacity", "tokens")

    def __init__(self, rate: float, capacity: float) -> None:
        if rate <= 0:
            raise EngineError(f"token rate must be positive, got {rate}")
        if capacity <= 0:
            raise EngineError(f"token capacity must be positive, got {capacity}")
        self.rate = rate
        self.capacity = capacity
        # Start full so the first fill's landing is not artificially
        # deferred behind an empty bucket.
        self.tokens = float(capacity)

    def refill(self, points: int) -> None:
        """Grant ``rate * points`` tokens, clamped at ``capacity``."""
        self.tokens = min(self.capacity, self.tokens + self.rate * points)

    def spend(self, cost: float) -> None:
        """Charge one executed work unit (may overdraw)."""
        self.tokens -= cost


class LandingTask:
    """One detached MemTable and the landing generator that will commit it.

    ``steps`` is
    :meth:`~repro.lsm.policies.compaction.CompactionPolicy.land` already
    called — a generator runs lazily, so nothing is staged until the
    first :meth:`step`.
    """

    __slots__ = ("memtable", "points", "max_tg", "done", "_steps")

    def __init__(self, memtable: MemTable, steps: Iterator[int]) -> None:
        self.memtable = memtable
        self.points = len(memtable)
        #: Largest generation time buffered — this task's contribution
        #: to the kernel's effective watermark while it is pending.
        self.max_tg = memtable.max_tg
        self.done = False
        self._steps = steps

    def step(self) -> int:
        """Run one work unit; return its cost in points (0 when done)."""
        try:
            return next(self._steps)
        except StopIteration:
            self.done = True
            return 0


class CompactionScheduler:
    """FIFO queue of landing tasks, paced by a token bucket."""

    def __init__(self, kernel: "LsmEngine") -> None:
        config = kernel.config
        self.kernel = kernel
        self.unit_points = config.compaction_work_unit
        self.bucket = TokenBucket(
            config.compaction_tokens_per_point, config.compaction_burst
        )
        self._queue: deque[LandingTask] = deque()
        self._backlog_points = 0
        #: Monotone counter bumped on every submit/complete; the
        #: kernel's snapshot cache keys on it so queue membership
        #: changes invalidate cached snapshots.
        self.change_seq = 0
        #: Lifetime accounting (read by benchmarks and reports).
        self.submitted = 0
        self.completed = 0
        self.total_work_points = 0
        #: Work executed since :meth:`begin_batch` — the per-append
        #: landing work, whose maximum is the deterministic "stall"
        #: proxy the stability benchmarks assert on.
        self.batch_work_points = 0
        self.max_batch_work_points = 0

    # -- queue state -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_points(self) -> int:
        """Points buffered in queued (not yet committed) MemTables."""
        return self._backlog_points

    def pending_memtables(self) -> list[MemTable]:
        """Detached MemTables still awaiting their commit, oldest first.

        A mid-merge task keeps its points here until the commit unit
        clears the MemTable, so snapshots built from these plus the
        placement's live MemTables conserve every ingested point.
        """
        return [task.memtable for task in self._queue]

    def pending_watermark(self) -> float:
        """Largest generation time across queued MemTables.

        A queued seq flush must raise the effective watermark exactly as
        its synchronous counterpart would have, or the split placement
        would misclassify subsequent arrivals.
        """
        return max((task.max_tg for task in self._queue), default=-math.inf)

    # -- submitting ------------------------------------------------------------

    def submit(self, memtable: MemTable, steps: Iterator[int]) -> None:
        """Queue a detached MemTable and its landing generator."""
        task = LandingTask(memtable, steps)
        self._queue.append(task)
        self._backlog_points += task.points
        self.submitted += 1
        self.change_seq += 1
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.count("scheduler.submitted")
            self._publish_gauges(telemetry)

    # -- executing -------------------------------------------------------------

    def begin_batch(self) -> None:
        """Reset the per-append work accumulator (called by ingest)."""
        self.batch_work_points = 0

    def run(self) -> int:
        """Execute queued work while the token bucket allows; return cost."""
        done = 0
        while self._queue and self.bucket.tokens > 0:
            done += self._step_head(charge=True)
        return done

    def run_work(self, budget: int) -> int:
        """Execute up to ``budget`` work points ignoring the bucket.

        The admission controller's throttled state uses this to make an
        over-indebted writer pay down backlog synchronously.
        """
        done = 0
        while self._queue and done < budget:
            done += self._step_head(charge=False)
        return done

    def drain(self) -> int:
        """Run every queued task to completion (sync point); return cost."""
        done = 0
        while self._queue:
            done += self._step_head(charge=False)
        return done

    def _step_head(self, charge: bool) -> int:
        task = self._queue[0]
        cost = task.step()
        if task.done:
            self._queue.popleft()
            self._backlog_points -= task.points
            self.completed += 1
            self.change_seq += 1
            telemetry = self.kernel.telemetry
            if telemetry.enabled:
                telemetry.count("scheduler.completed")
                self._publish_gauges(telemetry)
            return cost
        if charge:
            self.bucket.spend(cost)
        self.total_work_points += cost
        self.batch_work_points += cost
        if self.batch_work_points > self.max_batch_work_points:
            self.max_batch_work_points = self.batch_work_points
        return cost

    def _publish_gauges(self, telemetry) -> None:
        telemetry.gauge("scheduler.queue_depth", float(len(self._queue)))
        telemetry.gauge("scheduler.backlog_points", float(self._backlog_points))
