"""Deterministic fault injection for the durability subsystem.

A :class:`FaultPlan` is a frozen, seedable description of *which* faults
to inject and *when* (trigger-counted: "crash on the 3rd merge"), so a
crash-test run is exactly reproducible from its seed.  A
:class:`FaultInjector` executes one plan: engines, the WAL and the
checkpoint writer call :meth:`FaultInjector.fire` at their fault sites
and the injector either returns (no fault armed for this occurrence) or
raises :class:`~repro.errors.InjectedCrash`.

Sites instrumented across the write path:

* ``"flush"`` / ``"merge"`` — fired *before* any state is mutated, so a
  crash at the boundary leaves the engine in its pre-compaction state.
* ``"wal.append"`` — fired mid-record by the WAL so a crash here leaves
  a *torn tail* (a partially written record) for recovery to truncate.
* ``"checkpoint.write"`` — fired after a checkpoint lands on disk; the
  injector then corrupts bytes inside the file to simulate a torn page.

A plan arms an engine one way, as its ``LsmConfig.fault_plan`` (a
database passes its ``fault_plan=`` / ``shard_fault_plans=`` on to the
configs of the engines it builds).  Disabled injection is literally
absent: an engine without a plan holds ``faults = None`` and the hot
path pays one ``is None`` branch.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import is_finite_number, is_integer
from ..errors import FaultError, InjectedCrash

__all__ = ["FAULT_SITES", "DELAY_SITES", "FaultPlan", "FaultInjector"]

#: Every fault site an injector may be asked to fire at.
FAULT_SITES = ("flush", "merge", "wal.append", "checkpoint.write")

#: Sites where the injector can stall instead of fail: ``wal.fsync``
#: models a device write/fsync latency spike at a WAL group commit,
#: ``merge`` a slow compaction step.
DELAY_SITES = ("wal.fsync", "merge")


@dataclass(frozen=True)
class FaultPlan:
    """Frozen description of the faults one injector will deliver.

    Parameters
    ----------
    seed:
        Seed for the injector's private RNG (used only for byte-level
        corruption offsets, so runs are bit-reproducible).
    crash_at_flush / crash_at_merge:
        1-based occurrence of the site at which to raise
        :class:`InjectedCrash` (``None`` disables).  The crash fires at
        the *boundary*, before any engine state mutates.
    torn_wal_append_at:
        1-based WAL append at which to simulate a torn write: the WAL
        persists only a prefix of the record, then the process "dies".
    corrupt_checkpoint:
        When True, every checkpoint written while this plan is active is
        corrupted in place after the atomic rename (simulating a bad
        page), so recovery must detect the damage and fall back to a
        full WAL replay.
    fsync_delay_ms / fsync_delay_every:
        Overload injection: every ``fsync_delay_every``-th WAL group
        commit stalls for ``fsync_delay_ms`` (an fsync latency spike on
        the simulated device).  ``fsync_delay_ms = 0`` disables.
    merge_delay_ms / merge_delay_every:
        Overload injection: every ``merge_delay_every``-th merge
        boundary stalls for ``merge_delay_ms`` (a slow compaction).
        ``merge_delay_ms = 0`` disables.
    """

    seed: int = 0
    crash_at_flush: int | None = None
    crash_at_merge: int | None = None
    torn_wal_append_at: int | None = None
    corrupt_checkpoint: bool = False
    fsync_delay_ms: float = 0.0
    fsync_delay_every: int = 1
    merge_delay_ms: float = 0.0
    merge_delay_every: int = 1

    def __post_init__(self) -> None:
        # A plan is outside input, and a value of the wrong kind would
        # arm nothing (a trigger of 1.5 never equals a count) or the
        # wrong thing (the string "no" is truthy): each field is checked
        # for its kind as well as its range.
        if not is_integer(self.seed) or self.seed < 0:
            raise FaultError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.corrupt_checkpoint, (bool, np.bool_)):
            raise FaultError(
                f"corrupt_checkpoint must be a bool, got {self.corrupt_checkpoint!r}"
            )
        for name in (
            "crash_at_flush", "crash_at_merge", "torn_wal_append_at",
            "fsync_delay_every", "merge_delay_every",
        ):
            value = getattr(self, name)
            if value is None and not name.endswith("_every"):
                continue
            if not is_integer(value) or value < 1:
                raise FaultError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("fsync_delay_ms", "merge_delay_ms"):
            value = getattr(self, name)
            if not is_finite_number(value) or value < 0:
                raise FaultError(f"{name} must be a finite number >= 0, got {value!r}")

    def delay_for(self, site: str) -> tuple[float, int]:
        """``(delay_ms, every)`` armed for a :data:`DELAY_SITES` entry."""
        if site == "wal.fsync":
            return self.fsync_delay_ms, self.fsync_delay_every
        if site == "merge":
            return self.merge_delay_ms, self.merge_delay_every
        raise FaultError(
            f"unknown delay site {site!r}; expected one of {DELAY_SITES}"
        )


@dataclass
class FaultInjector:
    """Executes one :class:`FaultPlan`; counts every site occurrence.

    One injector instance is shared by everything belonging to one
    engine (the engine itself, its WAL and its checkpoints); a database
    retunes a series by re-splitting that engine in place, so trigger
    counts run on across a retune.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Occurrences seen per site (incremented on every ``fire``).
    counts: dict[str, int] = field(default_factory=dict)
    #: Faults actually delivered, as ``(site, kind)`` tuples.
    injected: list[tuple[str, str]] = field(default_factory=list)
    #: Clock used for every injected stall (delay spikes).  Tests inject a no-op recorder here so deterministic
    #: fault runs consume zero wall-clock time.
    sleep: Callable[[float], None] = field(default=time.sleep)
    #: Total seconds this injector has asked :attr:`sleep` to stall.
    slept_s: float = 0.0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.plan.seed)

    # -- firing ----------------------------------------------------------------

    def fire(self, site: str) -> None:
        """Record one occurrence of ``site``; raise if a fault is armed."""
        if site not in FAULT_SITES:
            raise FaultError(f"unknown fault site {site!r}; expected one of {FAULT_SITES}")
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if site == "flush" or site == "merge":
            armed = (
                self.plan.crash_at_flush
                if site == "flush"
                else self.plan.crash_at_merge
            )
            if armed is not None and count == armed:
                self.injected.append((site, "crash"))
                raise InjectedCrash(f"injected crash at {site} boundary #{count}")
        elif site == "wal.append":
            if (
                self.plan.torn_wal_append_at is not None
                and count == self.plan.torn_wal_append_at
            ):
                self.injected.append((site, "torn"))
                raise InjectedCrash(
                    f"injected crash mid-append (torn WAL record #{count})"
                )

    def do_sleep(self, seconds: float) -> None:
        """Stall through the injectable clock, accounting the time."""
        if seconds <= 0:
            return
        self.sleep(seconds)
        self.slept_s += seconds

    def maybe_delay(self, site: str) -> float:
        """Apply an armed overload delay for ``site``; return its ms.

        Counts every occurrence under ``delay:<site>`` (separate from
        :meth:`fire`'s crash counters) and stalls through the
        injectable clock on each ``every``-th one.
        """
        delay_ms, every = self.plan.delay_for(site)
        if delay_ms <= 0:
            return 0.0
        key = f"delay:{site}"
        count = self.counts.get(key, 0) + 1
        self.counts[key] = count
        if count % every != 0:
            return 0.0
        self.injected.append((site, "delay"))
        self.do_sleep(delay_ms / 1000.0)
        return delay_ms

    def after_checkpoint_write(self, path: str, spare_prefix: int = 0) -> None:
        """Hook fired once a checkpoint file has landed on disk.

        Counts the ``checkpoint.write`` occurrence and — when the plan
        arms it — corrupts the freshly written file in place, modelling
        a torn page that only the reader's checksum can catch.
        """
        self.fire("checkpoint.write")
        if self.plan.corrupt_checkpoint:
            self.corrupt_file(path, spare_prefix=spare_prefix)
            self.injected.append(("checkpoint.write", "corrupt"))

    def torn_prefix_bytes(self, record_bytes: int) -> int:
        """How many bytes of a torn record actually reached the disk.

        Strictly less than ``record_bytes`` so the tail is detectably
        incomplete; at least one byte so there *is* a torn tail.
        """
        if record_bytes <= 1:
            return record_bytes
        return int(self._rng.integers(1, record_bytes))

    def corrupt_file(self, path: str, spare_prefix: int = 0) -> None:
        """Flip one byte of ``path`` at a seeded offset (torn-page model).

        ``spare_prefix`` protects the leading bytes (e.g. a magic header)
        so corruption lands in the body and must be caught by the
        checksum, not by trivial header checks.
        """
        size = os.path.getsize(path)
        if size <= spare_prefix:
            return
        offset = int(self._rng.integers(spare_prefix, size))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
