"""Deterministic fault injection and crash-consistency testing.

* :class:`FaultPlan` / :class:`FaultInjector` — seeded, trigger-counted
  fault delivery at the write path's fault sites (flush/merge boundary,
  WAL append, checkpoint write).
* :func:`run_crash_test` / :class:`CrashTestReport` — the ingest →
  crash → recover → verify harness behind ``python -m repro crash-test``;
  :func:`run_crash_case` runs every cell of it, an engine's or a
  fleet's, into one :class:`CrashCaseResult` through one durable-prefix
  proof.

The harness names are loaded lazily: the injector must stay importable
from :mod:`repro.lsm.base` (engines build their injector from
``LsmConfig.fault_plan``) without dragging the whole engine stack in.
"""

from .injector import DELAY_SITES, FAULT_SITES, FaultInjector, FaultPlan

__all__ = [
    "FAULT_SITES",
    "DELAY_SITES",
    "FaultPlan",
    "FaultInjector",
    "CRASH_TEST_ENGINES",
    "FAULT_KINDS",
    "OVERLOAD_FAULT_KINDS",
    "CrashCaseResult",
    "CrashTestReport",
    "run_crash_case",
    "run_crash_test",
]

_LAZY = (
    "CRASH_TEST_ENGINES",
    "FAULT_KINDS",
    "OVERLOAD_FAULT_KINDS",
    "CrashCaseResult",
    "CrashTestReport",
    "run_crash_case",
    "run_crash_test",
)


def __getattr__(name: str):
    if name in _LAZY:
        from . import crashtest

        return getattr(crashtest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
