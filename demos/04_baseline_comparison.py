"""Comparing the search against its baselines with the experiment harness.

The harness takes a CSV, preps it once, runs seeded trials, and aggregates
cost, fairness, and timing.  Greedy (seeding plus random fill) is the fast
reference that shares the service guarantee; vanilla k-means is the unfair
floor for cost.  The search should land near vanilla on cost while keeping
the bound ratio small.
"""

import tempfile
from pathlib import Path

import numpy as np

from fairkmeans import ExperimentConfig, run_experiment

rng = np.random.default_rng(21)
k = 6
comps = rng.uniform(-8, 8, size=(k, 2))
pts = comps[rng.integers(0, k, 1500)] + rng.normal(0, 0.7, (1500, 2))

results = {}
with tempfile.TemporaryDirectory(prefix="fair_kmeans_demo_") as tmp:
    csv = Path(tmp) / "mixture.csv"
    np.savetxt(csv, pts, delimiter=",")
    for algorithm in ("lspp", "greedy", "vanilla"):
        report = run_experiment(
            ExperimentConfig(
                input_path=csv,
                k=k,
                iterations=400,
                flloyd_iters=20,
                algorithm=algorithm,
                trials=5,
                seed=0,
            )
        )
        results[algorithm] = report.aggregates

print(f"{'algorithm':>10}  {'kmeans cost':>14}  {'bound ratio':>12}  {'time (s)':>9}")
for name, agg in results.items():
    print(
        f"{name:>10}  "
        f"{agg['kmeans_cost']['mean']:>8.1f} ({agg['kmeans_cost']['std']:.1f})  "
        f"{agg['bound_ratio']['mean']:>6.2f} ({agg['bound_ratio']['std']:.2f})  "
        f"{agg['wall_time_seconds']['mean']:>9.3f}"
    )

print("\nthe same comparison is one flag away on the command line:")
print(f"  fair-kmeans --input mixture.csv --k {k} --algorithm greedy --trials 5 --out greedy.json")
