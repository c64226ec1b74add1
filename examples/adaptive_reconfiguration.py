"""Adaptive reconfiguration under delay drift (the Figure 10 scenario).

Network conditions change: the delay distribution's spread shrinks over
the day (sigma stepping 2 -> 1).  A statically configured engine pays
for yesterday's conditions; ``pi_adaptive`` re-profiles the delays,
detects the drift with a KS test, re-runs Algorithm 1 and switches
policies live — keeping WA near the per-segment optimum.

Run with:  python examples/adaptive_reconfiguration.py
"""

import numpy as np

import repro
from repro.workloads import figure10_segments, generate_dynamic

MEMORY_BUDGET = 512
SSTABLE_SIZE = 512
POINTS_PER_SEGMENT = 80_000

# -- 1. A drifting workload: five sigma regimes -------------------------------
stream = generate_dynamic(
    figure10_segments(POINTS_PER_SEGMENT), dt=50.0, seed=1, name="drifting"
)
print(stream.describe())

# -- 2. Three strategies, same data --------------------------------------------
config = repro.LsmConfig(memory_budget=MEMORY_BUDGET, sstable_size=SSTABLE_SIZE)

static_conventional = repro.ConventionalEngine(config)
static_conventional.ingest(stream.tg)
static_conventional.flush_all()

static_half = repro.SeparationEngine(
    config.with_seq_capacity(MEMORY_BUDGET // 2)
)
static_half.ingest(stream.tg)
static_half.flush_all()

adaptive = repro.AdaptiveEngine(config, check_interval=8192)
adaptive.ingest(stream.tg, stream.ta)
adaptive.flush_all()

print(f"\nWA pi_c (static)      : {static_conventional.write_amplification:.3f}")
print(f"WA pi_s(n/2) (static) : {static_half.write_amplification:.3f}")
print(f"WA pi_adaptive        : {adaptive.write_amplification:.3f}")

print("\npolicy switches (arrival index -> policy):")
for index, policy in adaptive.switches:
    print(f"  {index:>8} -> {policy}")

# -- 3. WA over time ------------------------------------------------------------
from repro.experiments.asciiplot import line_plot
from repro.stats import sliding_mean

series = {}
for name, engine in (
    ("c pi_c", static_conventional),
    ("s pi_s(n/2)", static_half),
    ("a pi_adaptive", adaptive),
):
    _, wa = engine.stats.wa_timeline(window_points=512)
    series[name] = sliding_mean(np.nan_to_num(wa, nan=1.0), 64).tolist()

xs = (np.arange(len(series["c pi_c"])) + 1) * 512
print()
print(line_plot(xs.tolist(), series, x_label="points written", y_label="WA"))

best_static = min(
    static_conventional.write_amplification, static_half.write_amplification
)
assert adaptive.write_amplification <= best_static * 1.1
print("\nOK - pi_adaptive tracks (or beats) the best static policy.")
