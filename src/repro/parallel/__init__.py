"""Parallel execution: task pool, result cache, experiment driver.

Three kinds of work, three answers:

* process pools (this package) serve coarse offline jobs a command can
  reach, seconds per task;
* threads serve Algorithm-1 fan-outs — a fleet retune's series, the
  arbiter's ``(series, budget)`` table — through
  :func:`repro.core.tuning.map_concurrently`, whose numpy kernels
  release the GIL;
* nothing runs in parallel on the request path: reads and writes are
  served in process, one call at a time.

This package is the one home of process parallelism:

* :func:`run_tasks` / :class:`Task` — a deterministic process pool with
  per-task seeding and telemetry round-trip (worker metrics/events are
  merged back into the parent bus, totals equal to a serial run);
* :class:`ResultCache` — a content-hash experiment cache (id + config +
  dataset fingerprint + code version) so unchanged experiments are
  skipped on re-runs;
* :func:`run_experiments` — the registry driver behind
  ``python -m repro run-all --workers N``;
* the crash-test matrix accepts ``workers=`` directly
  (:func:`repro.faults.crashtest.run_crash_test`,
  ``python -m repro crash-test --workers N``).

Every parallel path is guaranteed bit-identical to its serial
counterpart: tasks are pure functions of explicit inputs, results are
collected in task order, and worker counts only change wall-clock time.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_fingerprint,
    dataset_fingerprint,
    experiment_key,
)
from .experiments import ExperimentRun, run_experiments
from .pool import Task, resolve_workers, run_tasks, task_seed

__all__ = [
    "Task",
    "run_tasks",
    "resolve_workers",
    "task_seed",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "code_fingerprint",
    "dataset_fingerprint",
    "experiment_key",
    "ExperimentRun",
    "run_experiments",
]
