"""Capacity planning with the analytical models alone — no simulation.

Because Eqs. 1-5 are closed computations over the delay law, a whole
(budget x disorder) decision map costs seconds: for each memory budget
and delay scale, which policy wins, by how much, and what C_seq split
should be provisioned?  This is the kind of what-if sweep a deployment
engineer runs before sizing MemTables — impossible to do by brute-force
ingestion at every grid point.

Run with:  python examples/capacity_planning.py
"""

import repro

DT_MS = 50.0
BUDGETS = (128, 256, 512, 1024)
SIGMAS = (1.0, 1.25, 1.5, 1.75, 2.0)
MU = 5.0

print(f"Delay laws lognormal(mu={MU}, sigma) in milliseconds:")
for sigma in SIGMAS:
    law = repro.LogNormalDelay(MU, sigma)
    print(f"  sigma={sigma:<5g} mean {law.mean():9.0f}  sd {law.variance() ** 0.5:9.0f}")

print(
    f"\nDecision map for lognormal(mu={MU}, sigma) delays at dt={DT_MS:g} ms\n"
    "cell: winner (predicted WA, recommended n_seq if pi_s)\n"
)
header = f"{'budget':>8} |" + "".join(f"  sigma={s:<12}" for s in SIGMAS)
print(header)
print("-" * len(header))

for budget in BUDGETS:
    cells = []
    for sigma in SIGMAS:
        decision = repro.tune_separation_policy(
            repro.LogNormalDelay(MU, sigma),
            DT_MS,
            budget,
            sstable_size=budget,
        )
        if decision.policy == "separation":
            cell = f"pi_s({decision.predicted_wa:.2f},n={decision.seq_capacity})"
        else:
            cell = f"pi_c({decision.predicted_wa:.2f})"
        cells.append(f"  {cell:<18}")
    print(f"{budget:>8} |" + "".join(cells))

print(
    "\nReading the map:\n"
    "  * mild disorder (small sigma) -> pi_c: separation's phase overhead\n"
    "    outweighs its batching benefit;\n"
    "  * severe disorder -> pi_s with a tuned (not 1:1!) C_seq split;\n"
    "  * larger budgets damp WA under both policies but move the\n"
    "    crossover, which is why a fixed factory default mis-serves\n"
    "    some deployments — the paper's core practical point."
)
