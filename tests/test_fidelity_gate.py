"""Fidelity gate: the WA models and Algorithm 1 against the simulator.

The paper's claim is that Eq. 3 (``r_c``), Eq. 4-5 (``r_s(n_seq)``) and
the sweep over them (Algorithm 1) predict what a leveled LSM-tree
measures, for any i.i.d. delay law (Section II).
``test_core_wa_models.py`` checks identities and shapes and
``test_core_zeta.py`` pins bits; this file compares a model with a
measurement at ``dt = 50``, ``n = 512``, 512-point SSTables, over two
grids:

* the lognormal grid the paper's synthetic study (and the Ring-k
  scripts SNIPPETS.md describes) sweeps: mu in {4, 4.5, 5} x sigma in
  {1, 1.5, 2};
* five laws of other shapes that real streams show: an exponential, a
  Pareto tail, a bimodal outage mixture, a constant delay plus
  exponential jitter and a periodic re-send batch.

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
engine, not noise.  The cells that need the loose ones are written down
in docs/models.md "Fidelity gate".
"""

import pytest

from repro import (
    ExponentialDelay,
    InOrderCurve,
    LogNormalDelay,
    UniformDelay,
    ZetaModel,
    predict_wa_conventional,
    separation_breakdown,
    tune_separation_policy,
)
from repro.core import SEPARATION
from repro.experiments.runner import measure_wa
from repro.workloads import generate_synthetic
from tests.delay_support import DiscreteDelay, MixtureDelay, ParetoDelay, ShiftedDelay, periodic_batch_delay

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


#: ``name -> (law, r_c tolerance, r_s tolerance)``; observed errors as
#: above, then Algorithm 1's regret, which is inside ``EPSILON`` in every
#: cell.
OTHER_LAWS = {
    # -0.017, -0.019; regret 0
    "exponential": (ExponentialDelay(150.0), 0.03, 0.03),
    # -0.223, +0.029; regret 0
    "pareto": (ParetoDelay(2.5, 50.0), 0.24, 0.04),
    # -0.088, -0.140 at n_seq = 448; regret +0.022
    "outage-mixture": (
        MixtureDelay(
            [LogNormalDelay(4.0, 1.0), UniformDelay(5000.0, 5500.0)], [0.95, 0.05]
        ),
        0.10,
        0.16,
    ),
    # +0.149, -0.155 at n_seq = 64; regret 0
    "constant-plus-jitter": (ShiftedDelay(ExponentialDelay(100.0), 500.0), 0.16, 0.17),
    # -0.047, -0.249 at n_seq = 448; regret +0.028
    "periodic-batch": (periodic_batch_delay(2000.0, 0.2), 0.06, 0.26),
}


def _simulate(stream, policy, seq_capacity=None):
    return measure_wa(
        stream, policy, BUDGET, SSTABLE, seq_capacity=seq_capacity
    ).write_amplification


def _check_cell(law, r_c_tolerance, r_s_tolerance):
    """Gate ``r_c``, ``r_s`` at every split and Algorithm 1's regret on
    one seeded stream delayed by ``law``."""
    stream = generate_synthetic(POINTS, dt=DT, delay=law, seed=SEED)
    zeta_model, curve = ZetaModel(law, DT), InOrderCurve(law, DT)

    r_c_simulated = _simulate(stream, "conventional")
    r_c_model = predict_wa_conventional(
        law, DT, BUDGET, zeta_model=zeta_model, sstable_size=SSTABLE
    )
    assert abs(r_c_model - r_c_simulated) <= r_c_tolerance

    r_s_simulated = {
        n_seq: _simulate(stream, "separation", n_seq) for n_seq in SPLITS
    }
    for n_seq in SPLITS:
        r_s_model = separation_breakdown(
            law, DT, BUDGET, n_seq, zeta_model=zeta_model, in_order_curve=curve
        ).wa
        assert abs(r_s_model - r_s_simulated[n_seq]) <= r_s_tolerance, n_seq

    decision = tune_separation_policy(law, DT, BUDGET, sstable_size=SSTABLE)
    if decision.policy == SEPARATION:
        chosen = _simulate(stream, "separation", decision.seq_capacity)
    else:
        chosen = r_c_simulated
    best = min(r_c_simulated, *r_s_simulated.values())
    assert chosen <= best + EPSILON


@pytest.mark.parametrize("mu,sigma", sorted(TOLERANCES))
def test_models_and_algorithm_1_track_the_simulator(mu, sigma):
    _check_cell(LogNormalDelay(mu, sigma), *TOLERANCES[mu, sigma])


@pytest.mark.parametrize("name", list(OTHER_LAWS))
def test_non_lognormal_laws_track_the_simulator(name):
    _check_cell(*OTHER_LAWS[name])


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Eq. 1 takes the last flushed point's arrival as i*dt and ignores "
        "its delay, so a constant delay reads as disorder (ROADMAP: the model "
        "without fitted constants)"
    ),
)
def test_a_delay_that_keeps_order_costs_no_separation_wa():
    # A constant 500 ms delay keeps every point in order: pi_c and pi_s
    # both measure WA 1.000, and Algorithm 1 keeps pi_c (regret 0), yet
    # the r_s model gives 1.863, 1.951 and 1.965 at these splits.
    law = DiscreteDelay([500.0], [1.0])
    stream = generate_synthetic(POINTS, dt=DT, delay=law, seed=SEED)
    curve, zeta_model = InOrderCurve(law, DT), ZetaModel(law, DT)
    for n_seq in (64, 256, 448):
        r_s_model = separation_breakdown(
            law, DT, BUDGET, n_seq, zeta_model=zeta_model, in_order_curve=curve
        ).wa
        r_s_simulated = _simulate(stream, "separation", n_seq)
        assert abs(r_s_model - r_s_simulated) <= 0.02, n_seq
