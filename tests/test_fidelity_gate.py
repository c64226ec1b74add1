"""Fidelity gate: the WA models and Algorithm 1 against the simulator.

The paper's claim is that Eq. 3 (``r_c``), Eq. 4-5 (``r_s(n_seq)``) and
the sweep over them (Algorithm 1) predict what a leveled LSM-tree
measures.  ``test_core_wa_models.py`` checks identities and shapes and
``test_core_zeta.py`` pins bits; this file compares a model with a
measurement, over the lognormal grid the paper's synthetic study (and
the Ring-k scripts SNIPPETS.md describes) sweeps: mu in {4, 4.5, 5} x
sigma in {1, 1.5, 2} at ``dt = 50``, ``n = 512``, 512-point SSTables.

Each cell simulates one seeded 100 000-point stream under pi_c and under
pi_s at five splits, and gates three things:

* ``|r_c model - r_c simulated|`` — the model is the tuner's ``r_c``,
  SSTable-granularity padding included (raw Eq. 3 is a lower bound that
  sits 0.3-0.9 below; see ``repro.core.wa_conventional``);
* ``max |r_s model - r_s simulated|`` over the five splits;
* the simulated WA of Algorithm 1's own choice (pi_c, or pi_s at its
  ``n_seq``) against the best simulated alternative.

The tolerances are what was observed, rounded up to the next 0.01 plus
0.01 — the runs are seeded, so a drift is a change in the models or the
engine, not noise.  The cells that need the loose ones (sigma = 2) are
written down in docs/models.md "Fidelity gate".
"""

import pytest

from repro import (
    InOrderCurve,
    LogNormalDelay,
    ZetaModel,
    predict_wa_conventional,
    predict_wa_separation,
    tune_separation_policy,
)
from repro.core import SEPARATION
from repro.experiments.runner import measure_wa
from repro.workloads import generate_synthetic

DT = 50.0
BUDGET = 512
SSTABLE = 512
POINTS = 100_000
SEED = 3
SPLITS = (64, 128, 256, 384, 448)
#: The chosen policy may cost this much more simulated WA than the best
#: simulated alternative (worst observed: 0.034 at mu = 5, sigma = 1.5,
#: where pi_s(334) is chosen and pi_s(64) measures 1.984 against 2.018).
EPSILON = 0.035

#: ``(mu, sigma) -> (r_c tolerance, r_s tolerance)``; observed errors in
#: the comments, model minus simulation (r_s: the worst split).
TOLERANCES = {
    (4.0, 1.0): (0.18, 0.02),  # +0.161, -0.008
    (4.0, 1.5): (0.14, 0.06),  # -0.123, -0.044
    (4.0, 2.0): (0.18, 0.08),  # +0.167, -0.065
    (4.5, 1.0): (0.08, 0.04),  # -0.068, -0.030
    (4.5, 1.5): (0.10, 0.09),  # -0.088, -0.073
    (4.5, 2.0): (0.29, 0.23),  # +0.273, -0.216 at n_seq = 448
    (5.0, 1.0): (0.17, 0.06),  # -0.155, -0.044
    (5.0, 1.5): (0.05, 0.10),  # +0.033, -0.081
    (5.0, 2.0): (0.45, 0.15),  # +0.431, +0.139
}


@pytest.mark.parametrize("mu,sigma", sorted(TOLERANCES))
def test_models_and_algorithm_1_track_the_simulator(mu, sigma):
    law = LogNormalDelay(mu, sigma)
    stream = generate_synthetic(POINTS, dt=DT, delay=law, seed=SEED)

    def simulated(policy, seq_capacity=None):
        return measure_wa(
            stream, policy, BUDGET, SSTABLE, seq_capacity=seq_capacity
        ).write_amplification

    r_c_tolerance, r_s_tolerance = TOLERANCES[mu, sigma]
    zeta_model, curve = ZetaModel(law, DT), InOrderCurve(law, DT)

    r_c_simulated = simulated("conventional")
    r_c_model = predict_wa_conventional(
        law, DT, BUDGET, zeta_model=zeta_model, sstable_size=SSTABLE
    )
    assert abs(r_c_model - r_c_simulated) <= r_c_tolerance

    r_s_simulated = {n_seq: simulated("separation", n_seq) for n_seq in SPLITS}
    for n_seq in SPLITS:
        r_s_model = predict_wa_separation(
            law, DT, BUDGET, n_seq, zeta_model=zeta_model, in_order_curve=curve
        )
        assert abs(r_s_model - r_s_simulated[n_seq]) <= r_s_tolerance, n_seq

    decision = tune_separation_policy(law, DT, BUDGET, sstable_size=SSTABLE)
    if decision.policy == SEPARATION:
        chosen = simulated("separation", decision.seq_capacity)
    else:
        chosen = r_c_simulated
    best = min(r_c_simulated, *r_s_simulated.values())
    assert chosen <= best + EPSILON
