"""The paper's primary contribution: WA models, tuner, delay analyzer.

* Eq. 1 — :mod:`repro.core.arrival_ratio` (in/out-of-order arrival split)
* Eq. 2 — :mod:`repro.core.subsequent` (``zeta(n)`` rewrite-volume model)
* Eq. 3 — :mod:`repro.core.wa_conventional` (``r_c``)
* Eq. 4/5 — :mod:`repro.core.wa_separation` (``r_s(n_seq)``)
* Algorithm 1 — :mod:`repro.core.tuning`
* Delay analyzer + drift detection — :mod:`repro.core.analyzer`,
  :mod:`repro.core.drift`
"""

from .allocation import (
    MemoryArbiter,
    RebalanceDecision,
    SeriesAllocation,
    SeriesWorkload,
    allocate_budgets,
    fleet_objective,
)
from .analyzer import DelayAnalyzer, DelayProfile
from .arrival_ratio import InOrderCurve
from .drift import KsDriftDetector
from .subsequent import ZetaModel, zeta
from .tuning import CONVENTIONAL, SEPARATION, PolicyDecision, tune_separation_policy
from .wa_conventional import predict_wa_conventional
from .wa_separation import SeparationWaBreakdown, separation_breakdown

__all__ = [
    "InOrderCurve",
    "ZetaModel",
    "zeta",
    "predict_wa_conventional",
    "SeparationWaBreakdown",
    "separation_breakdown",
    "PolicyDecision",
    "tune_separation_policy",
    "CONVENTIONAL",
    "SEPARATION",
    "DelayAnalyzer",
    "DelayProfile",
    "KsDriftDetector",
    "SeriesWorkload",
    "SeriesAllocation",
    "allocate_budgets",
    "fleet_objective",
    "MemoryArbiter",
    "RebalanceDecision",
]
