"""The delay analyzer: the module this paper shipped into Apache IoTDB.

"We implement a delay analyzer in Apache IoTDB, which will collect
time-series data delays and generate the statistical profile of the
delays ... Then, a statistical model is used to predict WA under pi_c and
the minimum WA under pi_s, as well as the (sub)optimal capacities of
C_seq and C_nonseq." (Section I-D.)

:class:`DelayAnalyzer` is that component: feed it generation/arrival
timestamp pairs as they stream in; it keeps a sliding window of recent
delays, estimates the generation interval, profiles the window as its
empirical distribution, runs Algorithm 1 on it on demand, and flags
distribution drift so its engine (any
:class:`~repro.lsm.policies.StorageKernel` built with ``analyzer=``,
which feeds it every ingested pair and checkpoints it —
:meth:`DelayAnalyzer.to_checkpoint`) knows when to re-tune.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from ..config import DEFAULT_MODEL_CONFIG, is_integer
from ..distributions import DelayDistribution, EmpiricalDelay
from ..errors import CheckpointCorruptError, ModelError
from ..stats import SlidingWindowSample, summarize
from .drift import KsDriftDetector
from .tuning import PolicyDecision, tune_separation_policy

__all__ = ["DelayProfile", "DelayAnalyzer", "finite_delays"]

logger = logging.getLogger(__name__)

#: Points :meth:`DelayAnalyzer.observe` stages before folding them into
#: the window in one pass.  Small batches (a fleet write is ~128 points)
#: then cost a validation and two slice copies; the window, which nothing
#: reads between retunes, is brought up to date on the first read.
_STAGE_POINTS = 1024

#: Settings the analyzer had before it profiled its window one way, at
#: the one value each restores from: a checkpoint that records one at
#: any other value chose a profile no analyzer makes any more.
_RETIRED_SETTINGS = {
    "dt": None,
    "use_empirical": True,
    "model_config": asdict(DEFAULT_MODEL_CONFIG),
    "variant": "consistent",
    "track_long_horizon": False,
}


def finite_delays(tg: np.ndarray, ta: np.ndarray) -> np.ndarray | None:
    """``ta - tg`` for same-shape float arrays, or ``None`` unless every
    difference is finite.

    One pass answers three questions: a finite difference has finite
    operands, so ``None`` means a NaN/inf timestamp on either side or
    two finite ones too far apart for a float.  The caller raises the
    typed error.  numpy may add its own ``RuntimeWarning`` for an
    overflow or ``inf - inf`` — never for a batch that is accepted — and
    where warnings are errors that is ``None`` as well; silencing it
    (``np.errstate``) would cost every accepted batch ~2 us.
    """
    try:
        delays = ta - tg
    except RuntimeWarning:
        return None
    return delays if np.isfinite(delays).all() else None


@dataclass(frozen=True)
class DelayProfile:
    """Statistical profile of the observed delays."""

    #: The distribution handed to the WA models.
    distribution: DelayDistribution
    #: ``"empirical"``: the profile is the window's own distribution.
    family: str
    #: Estimated generation interval ``dt``.
    dt: float
    #: Number of delay observations behind the profile.
    sample_count: int

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"delays ~ {self.distribution.name} (family={self.family}, "
            f"n={self.sample_count}), dt={self.dt:g}"
        )


class DelayAnalyzer:
    """Streaming delay collector + policy recommender.

    One sliding window of recent delays is the whole profile: its
    empirical distribution is what Algorithm 1 runs on (with the
    generation interval ``dt`` estimated from the observed generation
    times) and what drift is judged against.

    Parameters
    ----------
    memory_budget:
        The MemTable budget ``n`` the recommendation is for.
    window:
        Size of the recent-delay window used for profiling and drift
        detection.
    drift_detector:
        Judges drift against the window of the last decision (a default
        :class:`KsDriftDetector` when omitted).
    sstable_size:
        Passed to Algorithm 1 so ``r_c`` counts SSTable padding.

    The three sizes must be integers (NumPy's too, never a ``bool``),
    else :class:`ModelError` naming the argument.
    """

    def __init__(
        self,
        memory_budget: int,
        window: int = 4096,
        drift_detector: KsDriftDetector | None = None,
        sstable_size: int | None = None,
    ) -> None:
        for name, value, low in (
            ("memory_budget", memory_budget, 2),
            ("window", window, 1),
            ("sstable_size", 1 if sstable_size is None else sstable_size, 1),
        ):
            if not is_integer(value) or value < low:
                raise ModelError(f"{name} must be an integer >= {low}, got {value!r}")
        self.memory_budget = memory_budget
        self._window = SlidingWindowSample(window)
        self.drift = (
            drift_detector if drift_detector is not None else KsDriftDetector()
        )
        self.sstable_size = sstable_size
        # The generation-time span observed (its count is the window's).
        self._max_tg = -np.inf
        self._min_tg = np.inf
        # Validated observations not yet folded into the above: clipped
        # delays and generation times, in arrival order.  The buffers are
        # the analyzer's own, so a caller may reuse its arrays.
        self._stage_delays = np.empty(_STAGE_POINTS)
        self._stage_tg = np.empty(_STAGE_POINTS)
        self._staged = 0
        self.last_decision: PolicyDecision | None = None

    # -- observation ------------------------------------------------------------

    def observe(self, tg: np.ndarray, ta: np.ndarray) -> None:
        """Feed aligned generation/arrival timestamp batches.

        Raises :class:`ModelError`, recording nothing, when the arrays
        do not align, a timestamp is NaN/inf or a delay ``ta - tg``
        overflows — one non-finite delay in the window would poison
        every later profile.  An accepted batch is staged; every read
        (:attr:`window`, :attr:`observed_points`, :meth:`profile`, ...)
        folds the stage first, so readers always see every observation.
        """
        tg = np.asarray(tg, dtype=float).ravel()
        ta = np.asarray(ta, dtype=float).ravel()
        if tg.size != ta.size:
            raise ModelError(
                f"tg and ta must align: {tg.size} vs {ta.size}"
            )
        if tg.size == 0:
            return
        delays = finite_delays(tg, ta)
        if delays is None:
            raise ModelError(
                "tg, ta and the delays ta - tg must be finite; got "
                "NaN/inf (or an overflowing difference) in the batch"
            )
        self._stage(tg, delays)

    def _stage(self, tg: np.ndarray, delays: np.ndarray) -> None:
        """Stage checked observations: ``delays`` is ``ta - tg``, finite,
        a 1-d array the analyzer may clip in place.  :meth:`observe`
        ends here, and so does an engine's ingest, whose own pair check
        computed the delays."""
        if tg.size >= _STAGE_POINTS:
            # Too large to stage: recorded now, after what came before
            # it (``delays`` is a fresh array, clipped in place).
            self._fold()
            self._record(np.maximum(delays, 0.0, out=delays), tg)
            return
        if self._staged + tg.size > _STAGE_POINTS:
            self._fold()
        start = self._staged
        stop = start + tg.size
        np.maximum(delays, 0.0, out=self._stage_delays[start:stop])
        self._stage_tg[start:stop] = tg
        self._staged = stop

    def _record(self, delays: np.ndarray, tg: np.ndarray) -> None:
        """Fold clipped ``delays`` and their ``tg`` into the statistics."""
        self._window.offer_many(delays)
        self._max_tg = max(self._max_tg, float(tg.max()))
        self._min_tg = min(self._min_tg, float(tg.min()))

    def _fold(self) -> None:
        """Record whatever is staged (every read starts here)."""
        staged = self._staged
        if staged:
            self._staged = 0
            self._record(self._stage_delays[:staged], self._stage_tg[:staged])

    @property
    def window(self) -> SlidingWindowSample:
        """The recent-delay window, every observation folded in.

        Read it afresh after each :meth:`observe`: a reference kept
        across one misses what that call staged until the next read.
        """
        self._fold()
        return self._window

    @property
    def observed_points(self) -> int:
        """Total points observed so far."""
        return self.window.seen

    # -- profile ---------------------------------------------------------------

    def estimated_dt(self) -> float:
        """The mean generation interval of the observed points."""
        count = self.window.seen
        if count < 2 or not np.isfinite(self._max_tg):
            raise ModelError(
                "cannot estimate dt: need at least two observed points"
            )
        span = self._max_tg - self._min_tg
        if span <= 0:
            raise ModelError("cannot estimate dt: zero generation-time span")
        return span / (count - 1)

    def profile(self) -> DelayProfile:
        """Build the statistical profile of the current delay window."""
        return self._profile_of(self.window.sample())

    def _profile_of(self, delays: np.ndarray) -> DelayProfile:
        if delays.size < 2:
            raise ModelError("not enough delays observed to build a profile")
        return DelayProfile(
            distribution=EmpiricalDelay(delays),
            family="empirical",
            dt=self.estimated_dt(),
            sample_count=int(delays.size),
        )

    def delay_summary(self):
        """Descriptive statistics of the delay window (for reports)."""
        return summarize(self.window.sample())

    # -- recommendation ------------------------------------------------------------

    def recommend(self, exhaustive: bool = False) -> PolicyDecision:
        """Run Algorithm 1 on the current profile.

        Also installs the current delay window as the drift-detection
        reference, so subsequent :meth:`should_retune` calls compare
        against the data that justified this decision.
        """
        delays = self.window.sample()
        profile = self._profile_of(delays)
        decision = tune_separation_policy(
            profile.distribution,
            profile.dt,
            self.memory_budget,
            exhaustive=exhaustive,
            sstable_size=self.sstable_size,
        )
        logger.info(
            "analyzer decision after %d points: %s",
            self.observed_points,
            decision.describe(),
        )
        self.last_decision = decision
        if delays.size >= self.drift.min_samples:
            self.drift.set_reference(delays)
        return decision

    def should_retune(self) -> bool:
        """True when no decision exists yet or the delays have drifted."""
        if self.last_decision is None:
            return self.window.full
        return self.drift.drifted(self.window.sample())

    # -- durability ------------------------------------------------------------

    def to_checkpoint(self, arrays: dict) -> dict:
        """The analyzer as checkpoint meta: its settings, window ring,
        ``dt`` statistics and drift reference (the last two arrays into
        ``arrays``)."""
        window, drift = self.window, self.drift
        arrays["analyzer.window"] = window.sample()
        arrays["analyzer.tg_span"] = np.array([self._min_tg, self._max_tg])
        if drift.has_reference:
            arrays["analyzer.reference"] = drift._reference
        return {
            "memory_budget": self.memory_budget,
            "window": window.capacity,
            "drift": [drift.alpha, drift.min_samples, drift.statistic_floor],
            "sstable_size": self.sstable_size,
            "seen": window.seen,
        }

    @classmethod
    def from_checkpoint(cls, meta: dict, arrays: dict) -> "DelayAnalyzer":
        """The analyzer :meth:`to_checkpoint` wrote (its last decision is
        the engine's to restore).

        A block it cannot have written raises, and the engine's restore
        reports it as :class:`CheckpointCorruptError`: a setting missing
        or out of range, a window that is not the last ``min(seen,
        window)`` delays, a non-finite or negative delay, a ``dt`` span
        that is not two ordered finite times, or one of
        :data:`_RETIRED_SETTINGS` held at another value.
        """
        for key, value in _RETIRED_SETTINGS.items():
            if meta.get(key, value) != value:
                raise CheckpointCorruptError(
                    f"analyzer.{key} is {meta[key]!r}; only {value!r} restores"
                )
        analyzer = cls(
            meta["memory_budget"],
            meta["window"],
            KsDriftDetector(*meta["drift"]),
            meta["sstable_size"],
        )
        window, span = arrays["analyzer.window"], arrays["analyzer.tg_span"]
        seen = meta["seen"]
        if (
            not is_integer(seen)
            or window.shape != (min(seen, analyzer._window.capacity),)
            or not (np.isfinite(window).all() and window.min(initial=0.0) >= 0)
            or span.shape != (2,)
            or seen and not (np.isfinite(span).all() and span[0] <= span[1])
        ):
            raise CheckpointCorruptError(
                f"analyzer window of {window.size} delays, dt span {span.tolist()} "
                f"and seen {seen!r} do not agree"
            )
        analyzer._window.offer_many(window)
        analyzer._window._seen = seen  # what the ring dropped counts too
        analyzer._min_tg, analyzer._max_tg = span.tolist()
        if "analyzer.reference" in arrays:
            analyzer.drift.set_reference(arrays["analyzer.reference"])
        return analyzer
