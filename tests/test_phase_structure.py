"""Validate the phase-structure quantities of Eq. 4 against the engine.

Section IV's phase analysis predicts, per fill-merge cycle of
``C_nonseq``:

* ``N_arrive(n_seq)`` points arriving per phase (Eq. 4),
* ``(n - n_seq) / g(n_seq)`` fills of ``C_seq`` per phase.

The simulator's event log exposes the ground truth: merges delimit
phases, and the arrival indices between consecutive merges count the
actual per-phase arrivals.
"""

import numpy as np
import pytest

from repro import LogNormalDelay, LsmConfig, SeparationEngine
from repro.core import InOrderCurve, separation_breakdown
from repro.workloads import generate_synthetic


@pytest.fixture(scope="module")
def engine_and_spec():
    delay = LogNormalDelay(5.0, 2.0)
    dt = 50.0
    n_seq = 256
    dataset = generate_synthetic(300_000, dt=dt, delay=delay, seed=31)
    engine = SeparationEngine(
        LsmConfig(memory_budget=512, sstable_size=512, seq_capacity=n_seq)
    )
    engine.ingest(dataset.tg)
    engine.flush_all()
    return engine, delay, dt, n_seq


class TestPhaseStructure:
    def test_phase_length_matches_n_arrive(self, engine_and_spec):
        engine, delay, dt, n_seq = engine_and_spec
        merges = [e for e in engine.stats.events if e.kind == "merge"]
        assert len(merges) >= 10
        arrivals = np.asarray([event.arrival_index for event in merges])
        # Skip the warm-up phase; measure steady-state phase lengths.
        phase_lengths = np.diff(arrivals)[2:]
        measured = float(np.mean(phase_lengths))
        breakdown = separation_breakdown(delay, dt, 512, n_seq)
        assert measured == pytest.approx(breakdown.n_arrive, rel=0.25)

    def test_fills_per_phase_matches_model(self, engine_and_spec):
        engine, delay, dt, n_seq = engine_and_spec
        events = engine.stats.events
        # Count seq flushes between consecutive merges.
        fills_per_phase = []
        fills = 0
        for event in events:
            if event.kind == "flush":
                fills += 1
            else:
                fills_per_phase.append(fills)
                fills = 0
        steady = fills_per_phase[2:]
        assert steady
        measured = float(np.mean(steady))
        g = InOrderCurve(delay, dt).g(n_seq)
        expected = (512 - n_seq) / g
        assert measured == pytest.approx(expected, rel=0.3)

    def test_nonseq_merge_size_is_capacity(self, engine_and_spec):
        engine, _, _, n_seq = engine_and_spec
        merges = [e for e in engine.stats.events if e.kind == "merge"][:-1]  # last may be partial
        for event in merges:
            assert event.new_points == 512 - n_seq

    def test_out_of_order_ratio_matches_g(self, engine_and_spec):
        """Across the run, out-of-order arrivals per n_seq in-order
        arrivals track g(n_seq)."""
        engine, delay, dt, n_seq = engine_and_spec
        flushes = [e for e in engine.stats.events if e.kind == "flush"]
        merges = [e for e in engine.stats.events if e.kind == "merge"]
        in_order_total = sum(e.new_points for e in flushes)
        out_of_order_total = sum(e.new_points for e in merges)
        measured_ratio = out_of_order_total / (in_order_total / n_seq)
        g = InOrderCurve(delay, dt).g(n_seq)
        assert measured_ratio == pytest.approx(g, rel=0.25)
