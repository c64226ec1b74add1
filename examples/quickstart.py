"""Quickstart: should this workload separate its out-of-order data?

The paper's decision problem in ~40 lines: describe a write workload by
its delay distribution and generation interval, run Algorithm 1 to pick
``pi_c`` (one MemTable) or ``pi_s(n_seq)`` (separated MemTables), then
check the recommendation against the LSM simulator's measured write
amplification.

Run with:  python examples/quickstart.py
"""

import repro

# -- 1. Describe the workload ------------------------------------------------
# Points generated every 50 ms; transmission delays lognormal(mu=5,
# sigma=2) — the Figure 7 workload, where disorder is severe.
DT_MS = 50.0
MEMORY_BUDGET = 512  # points that fit in MemTables
SSTABLE_SIZE = 512

delay = repro.LogNormalDelay(mu=5.0, sigma=2.0)

# -- 2. Ask the model which policy minimises write amplification --------------
decision = repro.tune_separation_policy(
    delay, DT_MS, MEMORY_BUDGET, sstable_size=SSTABLE_SIZE
)
print("Algorithm 1 says:", decision.describe())

# -- 3. Validate on the simulator ---------------------------------------------
dataset = repro.generate_synthetic(200_000, dt=DT_MS, delay=delay, seed=0)
print(f"workload: {dataset.describe()}")

conventional = repro.ConventionalEngine(
    repro.LsmConfig(memory_budget=MEMORY_BUDGET, sstable_size=SSTABLE_SIZE)
)
conventional.ingest(dataset.tg)
conventional.flush_all()

separated = repro.SeparationEngine(
    repro.LsmConfig(
        memory_budget=MEMORY_BUDGET,
        sstable_size=SSTABLE_SIZE,
        seq_capacity=decision.seq_capacity or MEMORY_BUDGET // 2,
    )
)
separated.ingest(dataset.tg)
separated.flush_all()

print(f"measured WA under pi_c              : {conventional.write_amplification:.3f}")
print(
    f"measured WA under pi_s(n_seq={decision.seq_capacity}) : "
    f"{separated.write_amplification:.3f}"
)

winner = (
    "pi_s"
    if separated.write_amplification < conventional.write_amplification
    else "pi_c"
)
recommended = "pi_s" if decision.policy == "separation" else "pi_c"
print(f"measured winner: {winner}; recommended: {recommended}")
assert winner == recommended, "the model should pick the measured winner here"

# -- 4. Query it: the paper's SELECT COUNT(*) WHERE time > max_time - 5000 ----
import math

from repro.query import execute_aggregate_query

snapshot = separated.snapshot()
max_time = snapshot.max_tg
# Bounds are closed; a strict ``time > a`` is ``time >= nextafter(a)``.
recent = execute_aggregate_query(
    snapshot, math.nextafter(max_time - 5000, math.inf), math.inf
).count
print(f"points in the last 5000 ms: {recent}")
print("OK - the recommendation matches the simulator.")
