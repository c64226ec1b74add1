"""Exception hierarchy for the ``repro`` package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one type to handle any library
failure while letting genuine bugs (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration object or parameter is invalid."""


class DistributionError(ReproError):
    """A delay distribution was constructed or used with invalid arguments."""


class EngineError(ReproError):
    """An LSM engine was driven into an invalid state or misused."""


class EngineClosedError(EngineError):
    """An operation was attempted on an engine after :meth:`close`."""


class ModelError(ReproError):
    """An analytical model was evaluated with invalid inputs."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class QueryError(ReproError):
    """A query was malformed (e.g. inverted time range)."""


class WalError(EngineError):
    """The write-ahead log was misused or its file is malformed."""


class CheckpointError(EngineError):
    """A checkpoint could not be written or read."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed its integrity check (torn/corrupt page)."""


class RecoveryError(EngineError):
    """Crash recovery could not reconstruct a consistent engine."""


class InvariantViolation(EngineError):
    """A crash-consistency invariant does not hold on the engine state."""


class FaultError(ReproError):
    """Base class for errors raised by the fault-injection subsystem."""


class InjectedFault(FaultError):
    """Base class for deliberately injected failures (never a real bug)."""


class InjectedCrash(InjectedFault):
    """A simulated process crash at an injected fault point.

    Escapes the engine on purpose: the "process" died at this boundary,
    and the harness recovers a fresh engine from the WAL + checkpoint.
    """


class TelemetryError(ReproError):
    """The telemetry subsystem was misused (bad metric, malformed trace)."""


class ExperimentError(ReproError):
    """An experiment harness failure (unknown experiment id, bad scale...)."""
