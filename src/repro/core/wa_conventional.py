"""Write-amplification model under the conventional policy (Eq. 3).

When ``C0`` (capacity ``n``) fills, the merge rewrites the expected
``zeta(n)`` subsequent points besides writing the ``n`` buffered points,
so ``r_c = zeta(n) / n + 1``.  The estimate is a slight lower bound: the
real merge rewrites whole SSTables, and "the upper bound of the
difference is 1" (Section III).

Because that bias is one-sided, comparing raw ``r_c`` against the
separation model can flip marginal policy decisions.  Passing
``sstable_size`` adds the expected granularity padding — the subsequent
points occupy a contiguous span at the tail of the run, so each merge
rewrites roughly ``kappa * sstable_size`` extra boundary points —
keeping the corrected estimate inside the paper's error band but
centred.  The tuner uses the corrected form; Eq. 3 itself is the
uncorrected value.
"""

from __future__ import annotations

from ..config import DEFAULT_MODEL_CONFIG, ModelConfig, is_integer
from ..distributions import DelayDistribution
from ..errors import ModelError
from .subsequent import ZetaModel

__all__ = ["predict_wa_conventional", "GRANULARITY_KAPPA"]

#: Average boundary padding, in SSTables, rewritten per merge on top of
#: the subsequent points themselves (calibrated against the simulator
#: across the Table II grid; see the A1 ablation benchmark).
GRANULARITY_KAPPA = 0.75

#: Below this expected subsequent count, merges rarely touch any SSTable
#: and no padding applies.
_ZETA_FLOOR = 1.0


def predict_wa_conventional(
    dist: DelayDistribution,
    dt: float,
    memory_budget: int,
    config: ModelConfig = DEFAULT_MODEL_CONFIG,
    zeta_model: ZetaModel | None = None,
    sstable_size: int | None = None,
) -> float:
    """Estimate ``r_c`` for a MemTable of ``memory_budget`` points.

    Parameters mirror the paper's Algorithm 1 inputs: the delay
    distribution (PDF/CDF), the generation interval ``dt`` and the memory
    budget ``n``.  Pass a shared ``zeta_model`` to reuse its caches, and
    ``sstable_size`` to include the SSTable-granularity padding (see
    module docstring).
    """
    if memory_budget < 1:
        raise ModelError(f"memory_budget must be >= 1, got {memory_budget}")
    if sstable_size is not None and (not is_integer(sstable_size) or sstable_size < 1):
        raise ModelError(f"sstable_size must be an integer >= 1, got {sstable_size!r}")
    model = zeta_model if zeta_model is not None else ZetaModel(dist, dt, config)
    expected_subsequent = model.zeta(memory_budget)
    wa = expected_subsequent / memory_budget + 1.0
    if sstable_size is not None and expected_subsequent > _ZETA_FLOOR:
        wa += GRANULARITY_KAPPA * sstable_size / memory_budget
    return wa
