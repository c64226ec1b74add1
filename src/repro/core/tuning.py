"""Separation Policy Tuning — Algorithm 1 of the paper.

Given the memory budget ``n``, the delay distribution (PDF/CDF) and the
generation interval ``dt``, compute ``r_c`` and sweep ``r_s(n_seq)`` over
``n_seq in [1, n-1]``; return the policy with the lower predicted WA and,
for separation, the (sub)optimal ``C_seq`` capacity ``n̂*_seq``.

The paper's Algorithm 1 evaluates every ``n_seq``; because ``r_s`` is
U-shaped in ``n_seq`` (Section V-B), the default here evaluates a coarse
grid and refines around the minimum, which is orders of magnitude faster
and lands on the same (sub)optimum.  ``exhaustive=True`` restores the
literal sweep.

Tunes of different series (or budgets) share nothing, and their numpy
kernels release the GIL: :func:`map_concurrently` runs a list of them
on every usable CPU, results in list order.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from ..config import DEFAULT_MODEL_CONFIG, ModelConfig, is_integer
from ..distributions import DelayDistribution
from ..errors import ModelError
from .arrival_ratio import InOrderCurve
from .subsequent import ZetaModel
from .wa_conventional import GRANULARITY_KAPPA, predict_wa_conventional
from .wa_separation import _G_FLOOR, separation_breakdown

__all__ = ["PolicyDecision", "tune_separation_policy", "map_concurrently"]

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: Policy labels used throughout the library.
CONVENTIONAL = "conventional"
SEPARATION = "separation"


@dataclass(frozen=True)
class PolicyDecision:
    """Output of Algorithm 1: the recommended policy and its evidence."""

    #: ``"conventional"`` (pi_c) or ``"separation"`` (pi_s).
    policy: str
    #: Recommended ``C_seq`` capacity (``n̂*_seq``); ``None`` under pi_c.
    seq_capacity: int | None
    #: Predicted WA under pi_c (Eq. 3).
    r_c: float
    #: Minimum predicted WA under pi_s across the sweep.
    r_s_star: float
    #: ``n_seq`` values evaluated during the sweep.
    sweep_n_seq: np.ndarray
    #: Predicted ``r_s`` per evaluated ``n_seq``.
    sweep_r_s: np.ndarray
    #: What the decision cost in work: log-CDF rows the sweep's
    #: :class:`ZetaModel` computed (0 on a decision restored from a
    #: checkpoint, which keeps the evidence and not the bill).
    rows_computed: int = 0

    @property
    def predicted_wa(self) -> float:
        """Predicted WA of the recommended policy."""
        return self.r_c if self.policy == CONVENTIONAL else self.r_s_star

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.policy == CONVENTIONAL:
            return (
                f"pi_c recommended: r_c={self.r_c:.3f} <= "
                f"r_s*={self.r_s_star:.3f}"
            )
        return (
            f"pi_s(n_seq={self.seq_capacity}) recommended: "
            f"r_s*={self.r_s_star:.3f} < r_c={self.r_c:.3f}"
        )


def _candidate_grid(n: int, coarse_points: int) -> np.ndarray:
    """Coarse ``n_seq`` candidates covering ``[1, n-1]``."""
    grid = np.unique(
        np.round(np.linspace(1, n - 1, min(coarse_points, n - 1))).astype(int)
    )
    return grid


def tune_separation_policy(
    dist: DelayDistribution,
    dt: float,
    memory_budget: int,
    config: ModelConfig = DEFAULT_MODEL_CONFIG,
    exhaustive: bool = False,
    coarse_points: int = 24,
    refine_rounds: int = 3,
    sstable_size: int | None = None,
) -> PolicyDecision:
    """Run Algorithm 1 and return a :class:`PolicyDecision`.

    ``coarse_points`` / ``refine_rounds`` control the grid-and-refine
    search used instead of the literal 1..n-1 sweep; ``exhaustive=True``
    evaluates every capacity (slow, exact Algorithm 1).  Pass
    ``sstable_size`` so ``r_c`` includes the SSTable-granularity padding
    the engine actually pays (recommended for decision making; see
    :mod:`repro.core.wa_conventional`).
    """
    n = memory_budget
    if (
        isinstance(n, bool)
        or not isinstance(n, numbers.Real)
        or not math.isfinite(n)
        or n != math.floor(n)
        or n < 2
    ):
        raise ModelError(f"memory_budget must be an integer >= 2, got {n!r}")
    n = int(n)
    for name, value, low in (
        ("coarse_points", coarse_points, 1),
        ("refine_rounds", refine_rounds, 0),
        ("sstable_size", 1 if sstable_size is None else sstable_size, 1),
    ):
        if not is_integer(value) or value < low:
            raise ModelError(f"{name} must be an integer >= {low}, got {value!r}")
    zeta_model = ZetaModel(dist, dt, config)
    curve = InOrderCurve(dist, dt)

    def r_s(n_seq: int) -> float:
        breakdown = separation_breakdown(
            dist,
            dt,
            n,
            n_seq,
            config=config,
            zeta_model=zeta_model,
            in_order_curve=curve,
        )
        wa = breakdown.wa
        # Symmetric SSTable-granularity padding: the phase-closing merge
        # also rewrites whole tables, amortised over the phase's
        # arrivals (mirrors predict_wa_conventional's correction).
        if (
            sstable_size is not None
            and math.isfinite(breakdown.n_arrive)
            and breakdown.n_bef + breakdown.n_cur > 1.0
        ):
            wa += GRANULARITY_KAPPA * sstable_size / breakdown.n_arrive
        return wa

    r_c = predict_wa_conventional(
        dist, dt, n, config=config, zeta_model=zeta_model, sstable_size=sstable_size
    )

    evaluated: dict[int, float] = {}

    def evaluate(candidates: np.ndarray) -> None:
        fresh = [
            key
            for n_seq in candidates
            if (key := int(n_seq)) not in evaluated
        ]
        # Invert Eq. 1 for the whole round in one search, then warm the
        # zeta cache for every fresh candidate off one shared log-CDF
        # stream; `g` comes from the shared curve, so each candidate's
        # phase size N_arrive (Eq. 4) is exactly what
        # separation_breakdown recomputes below — the per-candidate
        # r_s calls then hit both caches and the sweep's decisions are
        # bit-identical to the unbatched evaluation order.
        curve.arrivals_batch(fresh)
        n_arrives = []
        for key in fresh:
            g = curve.g(key)
            if g >= _G_FLOOR:
                n_arrives.append(key * (n - key) / g + (n - key))
        if n_arrives:
            zeta_model.zeta_batch(n_arrives)
        for key in fresh:
            evaluated[key] = r_s(key)

    if exhaustive:
        evaluate(np.arange(1, n))
    else:
        evaluate(_candidate_grid(n, coarse_points))
        for _ in range(refine_rounds):
            keys = np.asarray(sorted(evaluated))
            values = np.asarray([evaluated[k] for k in keys])
            best = int(np.argmin(values))
            lo = keys[max(best - 1, 0)]
            hi = keys[min(best + 1, keys.size - 1)]
            if hi - lo <= 2:
                break
            evaluate(np.unique(np.round(np.linspace(lo, hi, 7)).astype(int)))

    keys = np.asarray(sorted(evaluated))
    values = np.asarray([evaluated[k] for k in keys])
    best = int(np.argmin(values))
    r_s_star = float(values[best])
    best_n_seq = int(keys[best])

    separate = r_s_star < r_c
    return PolicyDecision(
        policy=SEPARATION if separate else CONVENTIONAL,
        seq_capacity=best_n_seq if separate else None,
        r_c=r_c,
        r_s_star=r_s_star,
        sweep_n_seq=keys,
        sweep_r_s=values,
        rows_computed=zeta_model.rows_computed,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_concurrently(
    fn: Callable[[_Item], _Result], items: Sequence[_Item]
) -> list[_Result]:
    """``[fn(item) for item in items]``, the calls spread over threads.

    The calling thread works through ``items`` beside ``usable CPUs - 1``
    helper threads (no more than ``len(items) - 1``), each taking the
    next unstarted item in list order; with one CPU the caller runs the
    same loop alone.  ``fn`` must not share mutable state between
    items.  Results come back in item order.  When calls raise, every
    item is still run, and then the exception of the earliest failing
    item is raised.  An interrupt in the calling thread stops the
    hand-out instead: it propagates once the helpers have finished the
    items in hand.
    """
    results: list = [None] * len(items)
    failures: dict[int, Exception] = {}
    order = iter(range(len(items)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                index = next(order, None)
            if index is None:
                return
            try:
                results[index] = fn(items[index])
            except Exception as error:  # raised once every item ran
                failures[index] = error

    helpers = [
        threading.Thread(target=work, daemon=True)
        for _ in range(min(_usable_cpus(), len(items)) - 1)
    ]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        with lock:  # empty unless the caller was interrupted
            for _ in order:
                pass
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results
