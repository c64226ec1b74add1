"""Delay distributions: the probabilistic substrate of the WA models.

The paper models transmission delays as i.i.d. draws from a distribution
with PDF ``f`` and CDF ``F`` (Section II).  This package provides:

* :class:`DelayDistribution` — the abstract interface consumed by
  :mod:`repro.core` (models) and :mod:`repro.workloads` (generators);
* the parametric families: lognormal for M1–M12 and the families of
  Figure 17's dynamic workload;
* :class:`EmpiricalDelay` — the analyzer's data-driven profile.

The fidelity gate's other non-lognormal laws (atoms, mixtures, shifted
and Pareto laws) are built by the tests alone, in
``tests/delay_support.py``.

Every constructor rejects a NaN or infinite parameter with
:class:`~repro.errors.DistributionError`.
"""

from .base import DelayDistribution
from .empirical import EmpiricalDelay
from .parametric import (
    ExponentialDelay,
    GammaDelay,
    HalfNormalDelay,
    LogNormalDelay,
    UniformDelay,
)

__all__ = [
    "DelayDistribution",
    "LogNormalDelay",
    "ExponentialDelay",
    "UniformDelay",
    "HalfNormalDelay",
    "GammaDelay",
    "EmpiricalDelay",
]
