"""Machine-speed meter: a fixed reference kernel, timed between the work.

The baseline VM's speed wanders on two time scales.  Within a second it
flips between a fast and a 1.5x slower state (one minute of back-to-back
kernel passes: per-second minimum steady at 0.9 ms, per-second median
anywhere from 1.0 to 1.6 ms); over minutes the mix of the two drifts, so
that whole 30-second runs of identical code differ by up to 1.9x (a
fixed bulk ingest: 1.7 s to 3.2 s) and no repetition inside one run
averages it out.  It does, however, slow *everything*: when one pass
of the kernel below is timed every 10 ms of work, work seconds per
kernel second repeat within 4-7% (inter-quartile, eight same-seed runs)
where the wall-clock seconds spread 13-26%.

The readings have to be that fine.  A first version bracketed each
one-second slice with two 16 ms readings; two instants say little about
which state the second between them was spent in, and the driver
measured 19-45% spread on the corrected throughputs.

So inside every timed slice the kernel runs about one pass per 10 ms of
work, between operations and outside their timing, and end-to-end
timings are reported **speed-corrected**:

    speed             = REFERENCE_MS / mean kernel ms in the slice
    corrected seconds = wall seconds x speed ** SENSITIVITY

i.e. in seconds of a machine on which the kernel takes exactly
``REFERENCE_MS`` — what the baseline VM does in its fast state.  The
kernel runs no code of the program under test: a change to the program
cannot hide or fake a regression through it.  Wall-clock values are kept
beside the corrected ones in each run's ``info.wall``.

``SENSITIVITY`` is the instrument's one calibration.  Whatever slows
this VM slows the program's work — a 250-500 MB heap of small objects
and arrays — more than it slows a kernel that lives in a megabyte: over
56 instrumented runs of the three closed-loop workloads in weather
between 0.45 and 0.9 of the reference speed, the same seed's phase took
1.2-1.4 times as much longer (in logarithms) as the kernel did,
whichever phase.  With the plain ratio (exponent 1) the corrected
throughputs of one seed still moved 4-6% (standard deviation) with the
weather; with 1.3 or 1.4, 2-4%.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_MS", "SENSITIVITY", "SpeedMeter", "correction", "kernel_seconds"]

#: Frozen: the kernel's time on the undisturbed baseline VM.
REFERENCE_MS = 1.0
#: Frozen: d log(work seconds) / d log(kernel seconds) on the baseline VM.
SENSITIVITY = 1.4

_SOURCE = np.random.default_rng(12345).random(1 << 17)  # 1 MiB
_TARGET = np.empty_like(_SOURCE)


def _reference_kernel() -> int:
    """About a millisecond of the interpreter-plus-small-array work the
    storage kernel is made of, and one pass over a megabyte."""
    acc = 0
    table = {}
    for start in range(0, 16 * 512, 512):
        chunk = _SOURCE[start:start + 512]
        ordered = np.sort(chunk)
        acc += int(np.searchsorted(ordered, chunk[:64]).sum())
        merged = np.concatenate((ordered[:256], chunk[:256]))
        acc += int(np.count_nonzero(merged > 0.5))
        table[start] = float(np.maximum.accumulate(chunk)[-1])
    for i in range(12000):
        acc += (i & 7) + len(table)
    np.copyto(_TARGET, _SOURCE)
    return acc


def kernel_seconds() -> float:
    """One timed pass of the reference kernel."""
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def correction(speed: float) -> float:
    """What wall seconds taken at ``speed`` are multiplied by."""
    return speed ** SENSITIVITY


class SpeedMeter:
    """Readings of the machine's speed, 1.0 = the reference machine.

    A timed loop calls :meth:`sample` when a slice starts, :meth:`tick`
    between operations and :meth:`credit` when the slice ends; it
    subtracts the growth of :attr:`spent` from its own busy time.
    """

    #: Work seconds per kernel pass: the kernel (1-2 ms) then takes
    #: about a tenth of the slice and sees every state the work saw.
    GAP_S = 0.010
    #: Most passes one tick runs (after an operation of 40 ms or more).
    MOST_PASSES = 4

    def __init__(self) -> None:
        #: One speed per credited slice, in order.
        self.readings: list[float] = []
        #: Seconds spent inside the kernel so far.
        self.spent = 0.0
        self.last = 1.0
        self._pending: list[float] = []
        self._next = 0.0

    def sample(self, passes: int = 1) -> None:
        """Time ``passes`` kernel passes now."""
        for _ in range(passes):
            took = kernel_seconds()
            self._pending.append(took)
            self.spent += took
        self._next = time.perf_counter() + self.GAP_S

    def tick(self) -> None:
        """One pass per ``GAP_S`` of work that went by since the last
        (none before the first ``GAP_S``), so that a 30 ms bulk call
        gets as many readings per second as fifteen 2 ms calls."""
        due = (time.perf_counter() - self._next) / self.GAP_S
        if due >= 0.0:
            self.sample(min(self.MOST_PASSES, 1 + int(due)))

    def credit(self) -> float:
        """Correction factor of the slice that ends here, from its
        speed: ``REFERENCE_MS`` over the mean pass since the previous
        credit."""
        speed = REFERENCE_MS / 1e3 / (sum(self._pending) / len(self._pending))
        self._pending.clear()
        self.note(speed)
        return correction(speed)

    def note(self, speed: float) -> None:
        """Record a reading taken elsewhere (the open loop's idle gaps)."""
        self.last = speed
        self.readings.append(speed)
