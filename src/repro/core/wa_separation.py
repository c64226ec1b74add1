"""Write-amplification model under the separation policy (Eqs. 4 and 5).

A *phase* spans one fill-merge cycle of ``C_nonseq`` (Section IV).  With
``g = g(n_seq)`` expected out-of-order arrivals per ``C_seq`` fill:

* ``C_seq`` fills ``(n - n_seq) / g`` times per phase, so the phase
  collects ``N_arrive = n_seq * (n - n_seq) / g + (n - n_seq)`` points
  (Eq. 4);
* the merge rewrites part of the phase's own in-order flushes
  (``N_cur``), plus ``zeta(N_arrive)`` pre-phase subsequent points
  (``N_bef``);
* everything arriving is written once more:
  ``r_s = (N_cur + N_bef + N_arrive) / N_arrive``.

A note on Eq. 5's two printed lines: with the paper's own
``N_cur = N_arrive - (n - n_seq) - n'_seq`` the quotient simplifies to
``zeta(N)/N + 2 - (n - n_seq + n'_seq)/N``, but the paper's final line
reads ``zeta(N)/N + 1 + (n - n_seq + n'_seq)/N`` — the two disagree (a
sign slip in the simplification).  The first ("full-phase-rewrite")
form assumes every non-final in-order flush of the phase is rewritten
by the merge.  Calibration against the simulator across the Table II
grid shows it tracks measured WA within ~0.1--0.2 while the printed form
under-estimates by ~0.7, so the model is the consistent form; the
breakdown also carries the printed line, which ``validation`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import DEFAULT_MODEL_CONFIG, ModelConfig
from ..distributions import DelayDistribution
from ..errors import ModelError
from .arrival_ratio import InOrderCurve
from .subsequent import ZetaModel

__all__ = ["SeparationWaBreakdown", "separation_breakdown"]

#: Below this expected out-of-order count per fill, ``C_nonseq`` would
#: essentially never fill: phases are unbounded and WA tends to 1.
_G_FLOOR = 1e-9


@dataclass(frozen=True)
class SeparationWaBreakdown:
    """All intermediate quantities of Eq. 5 for one ``n_seq`` setting."""

    n_seq: int
    n_nonseq: int
    #: Expected out-of-order arrivals per ``C_seq`` fill (Eq. 1).
    g: float
    #: Expected points arriving in one phase (Eq. 4).
    n_arrive: float
    #: Expected size of the phase's final (possibly partial) C_seq flush.
    n_seq_last: float
    #: Current-phase rewrite volume.
    n_cur: float
    #: Pre-phase rewrite volume ``zeta(N_arrive)``.
    n_bef: float
    #: WA per the paper's printed Eq. 5 final line.
    wa_eq5: float
    #: WA per the algebraically consistent full-phase-rewrite form: the
    #: model's ``r_s``.
    wa: float


def _last_flush_size(n_nonseq: int, g: float, n_seq: int) -> float:
    """``n'_seq = (1 + x - ceil(x)) * n_seq`` with ``x = n_nonseq / g``.

    When ``x`` is an exact integer the phase ends on a full flush and
    ``n'_seq = n_seq`` (the paper's Fig. 6 case); otherwise the final
    flush holds the fractional remainder of a fill.
    """
    x = n_nonseq / g
    ceiling = math.ceil(x - 1e-9)
    return (1.0 + x - ceiling) * n_seq


def separation_breakdown(
    dist: DelayDistribution,
    dt: float,
    memory_budget: int,
    n_seq: int,
    config: ModelConfig = DEFAULT_MODEL_CONFIG,
    zeta_model: ZetaModel | None = None,
    in_order_curve: InOrderCurve | None = None,
) -> SeparationWaBreakdown:
    """Evaluate Eq. 5 and return every intermediate term.

    Pass shared ``zeta_model`` / ``in_order_curve`` instances when
    sweeping ``n_seq`` so CDF evaluations are reused (Algorithm 1 does).
    """
    if memory_budget < 2:
        raise ModelError(f"memory_budget must be >= 2, got {memory_budget}")
    if not 1 <= n_seq <= memory_budget - 1:
        raise ModelError(
            f"n_seq must be in [1, {memory_budget - 1}], got {n_seq}"
        )
    curve = (
        in_order_curve if in_order_curve is not None else InOrderCurve(dist, dt)
    )
    model = zeta_model if zeta_model is not None else ZetaModel(dist, dt, config)
    n_nonseq = memory_budget - n_seq
    g = curve.g(n_seq)
    if g < _G_FLOOR:
        # C_nonseq essentially never fills: phases are unbounded, every
        # point is written exactly once, WA -> 1.
        return SeparationWaBreakdown(
            n_seq=n_seq,
            n_nonseq=n_nonseq,
            g=g,
            n_arrive=math.inf,
            n_seq_last=float(n_seq),
            n_cur=math.inf,
            n_bef=0.0,
            wa_eq5=1.0,
            wa=1.0,
        )
    n_arrive = n_seq * n_nonseq / g + n_nonseq
    n_seq_last = _last_flush_size(n_nonseq, g, n_seq)
    n_cur = max(n_arrive - n_nonseq - n_seq_last, 0.0)
    n_bef = model.zeta(n_arrive)
    return SeparationWaBreakdown(
        n_seq=n_seq,
        n_nonseq=n_nonseq,
        g=g,
        n_arrive=n_arrive,
        n_seq_last=n_seq_last,
        n_cur=n_cur,
        n_bef=n_bef,
        wa_eq5=n_bef / n_arrive + 1.0 + (n_nonseq + n_seq_last) / n_arrive,
        wa=(n_cur + n_bef + n_arrive) / n_arrive,
    )
