"""Delay distributions: the probabilistic substrate of the WA models.

The paper models transmission delays as i.i.d. draws from a distribution
with PDF ``f`` and CDF ``F`` (Section II).  This package provides:

* :class:`DelayDistribution` — the abstract interface consumed by
  :mod:`repro.core` (models) and :mod:`repro.workloads` (generators);
* the parametric families used in the evaluation (lognormal for
  M1–M12, plus several alternatives for robustness studies);
* :class:`EmpiricalDelay` — the analyzer's data-driven profile;
* composition helpers (:class:`MixtureDelay`, :class:`ShiftedDelay`)
  used to synthesise the real-world datasets' delay structure.
"""

from .base import DelayDistribution
from .composite import MixtureDelay, ScaledDelay, ShiftedDelay
from .discrete import DiscreteDelay, periodic_batch_delay
from .empirical import EmpiricalDelay
from .parametric import (
    ConstantDelay,
    ExponentialDelay,
    GammaDelay,
    HalfNormalDelay,
    LogNormalDelay,
    ParetoDelay,
    UniformDelay,
    WeibullDelay,
)

__all__ = [
    "DelayDistribution",
    "LogNormalDelay",
    "ExponentialDelay",
    "UniformDelay",
    "HalfNormalDelay",
    "GammaDelay",
    "WeibullDelay",
    "ParetoDelay",
    "ConstantDelay",
    "EmpiricalDelay",
    "MixtureDelay",
    "DiscreteDelay",
    "periodic_batch_delay",
    "ShiftedDelay",
    "ScaledDelay",
]
