"""Delay distributions: the probabilistic substrate of the WA models.

The paper models transmission delays as i.i.d. draws from a distribution
with PDF ``f`` and CDF ``F`` (Section II).  This package provides:

* :class:`DelayDistribution` — the abstract interface consumed by
  :mod:`repro.core` (models) and :mod:`repro.workloads` (generators);
* the parametric families: lognormal for M1–M12, the families of
  Figure 17's dynamic workload, and a Pareto tail;
* :class:`EmpiricalDelay` — the analyzer's data-driven profile;
* :class:`MixtureDelay`, :class:`ShiftedDelay` and
  :class:`DiscreteDelay`, which with the exponential and Pareto laws
  are the fidelity gate's non-lognormal rows
  (``tests/test_fidelity_gate.py``).

Every constructor rejects a NaN or infinite parameter with
:class:`~repro.errors.DistributionError`.
"""

from .base import DelayDistribution
from .composite import MixtureDelay, ShiftedDelay
from .discrete import DiscreteDelay
from .empirical import EmpiricalDelay
from .parametric import (
    ExponentialDelay,
    GammaDelay,
    HalfNormalDelay,
    LogNormalDelay,
    ParetoDelay,
    UniformDelay,
)

__all__ = [
    "DelayDistribution",
    "LogNormalDelay",
    "ExponentialDelay",
    "UniformDelay",
    "HalfNormalDelay",
    "GammaDelay",
    "ParetoDelay",
    "EmpiricalDelay",
    "MixtureDelay",
    "DiscreteDelay",
    "ShiftedDelay",
]
