"""The process task pool: deterministic fan-out with telemetry round-trip.

Every parallel driver in this package funnels through :func:`run_tasks`:
a list of :class:`Task` specs is executed either inline (``workers<=1``,
the serial reference path — byte-identical to the pre-parallel code) or
on a :class:`concurrent.futures.ProcessPoolExecutor`.  Determinism rules:

* tasks carry explicit inputs (including their seed) — nothing depends
  on process-global mutable state, so a task computes the same result in
  any worker, in any order;
* results are returned **in task order**, not completion order;
* per-worker telemetry is captured on a fresh in-memory bus per task and
  folded back into the parent bus in task order
  (:meth:`repro.obs.Telemetry.absorb`), so merged counters equal a
  serial run's totals.

Task functions must be picklable (module-level) and their arguments and
results must survive a pickle round-trip.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from numbers import Integral

from ..errors import ParallelError
from ..obs.telemetry import (
    configure_telemetry,
    global_telemetry,
    reset_global_telemetry,
)

__all__ = ["Task", "resolve_workers", "run_tasks", "task_seed"]


@dataclass(frozen=True)
class Task:
    """One unit of work for :func:`run_tasks`."""

    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: Label used to tag absorbed telemetry events (``worker=<label>``).
    label: str = ""
    #: Deterministic seed; passed to ``fn`` as ``seed=`` when not None
    #: (unless the caller already supplied one in ``kwargs``).
    seed: int | None = None

    def invoke(self):
        """Call ``fn`` with the seed folded into its kwargs."""
        kwargs = self.kwargs
        if self.seed is not None and "seed" not in kwargs:
            kwargs = {**kwargs, "seed": self.seed}
        return self.fn(*self.args, **kwargs)


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request to an explicit positive count.

    ``None`` and ``0`` mean serial (1); ``-1`` means one worker per CPU.
    Anything that is not an integer is a :class:`ParallelError`.
    """
    if workers is None:
        return 1
    if not isinstance(workers, Integral):
        raise ParallelError(f"workers must be an integer or None, got {workers!r}")
    if workers == 0:
        return 1
    if workers == -1:
        return max(os.cpu_count() or 1, 1)
    if workers < 0:
        raise ParallelError(f"workers must be >= -1, got {workers}")
    return int(workers)


def task_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-separated per-task seed.

    Derived via :class:`numpy.random.SeedSequence` spawning, so seeds
    for different indices are statistically independent and stable
    across runs, platforms and worker counts.
    """
    from numpy.random import SeedSequence

    if index < 0:
        raise ParallelError(f"task index must be non-negative, got {index}")
    sequence = SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, dtype="uint32")[0])


def _execute(task: Task, capture_telemetry: bool):
    """Worker-side wrapper: run one task on a fresh per-task bus.

    Returns ``(result, telemetry_payload_or_None)``.  The worker's
    process-global bus is configured per task (so code that reports via
    ``global_telemetry()`` keeps working) and reset afterwards, keeping
    payloads per-task rather than per-worker-lifetime.
    """
    if not capture_telemetry:
        return task.invoke(), None
    bus = configure_telemetry(sink="memory")
    try:
        result = task.invoke()
        return result, bus.snapshot_payload()
    finally:
        reset_global_telemetry()


def _mp_context():
    """Fork when available (fast, inherits sys.path); default otherwise."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_tasks(
    tasks: Iterable[Task],
    workers: int | None = None,
    telemetry=None,
) -> list:
    """Run ``tasks`` and return their results in task order.

    With ``workers`` <= 1 (or a single task) everything runs inline in
    this process on the current bus — the serial reference path.  With
    more, tasks fan out over a process pool; each worker captures its
    telemetry per task and the parent absorbs the payloads in task
    order, tagged with each task's label.

    ``telemetry`` is the bus worker payloads merge into; it defaults to
    the process-global bus.  A worker exception propagates to the caller
    after the pool shuts down (remaining futures are cancelled).
    """
    tasks = list(tasks)
    count = resolve_workers(workers)
    parent = telemetry if telemetry is not None else global_telemetry()
    if count <= 1 or len(tasks) <= 1:
        return [task.invoke() for task in tasks]
    capture = bool(parent.enabled)
    results: list = [None] * len(tasks)
    payloads: list = [None] * len(tasks)
    with ProcessPoolExecutor(
        max_workers=min(count, len(tasks)), mp_context=_mp_context()
    ) as pool:
        futures = {
            pool.submit(_execute, task, capture): index
            for index, task in enumerate(tasks)
        }
        try:
            for future in as_completed(futures):
                index = futures[future]
                results[index], payloads[index] = future.result()
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    if capture:
        for task, payload in zip(tasks, payloads):
            if payload is not None:
                parent.absorb(payload, worker=task.label or None)
    return results
