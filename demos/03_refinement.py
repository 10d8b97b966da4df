"""Coverage-preserving Lloyd refinement.

Local search places centers on data points.  The refinement stage frees them:
every round reassigns points to their nearest center and slides each center
toward its cluster mean, stopping at the boundary of any anchor zone it is
responsible for.  Cost only ever goes down and every zone stays covered, so
the 2*gamma service bound survives refinement untouched.
"""

import numpy as np

from fairkmeans import (
    Dataset,
    FlConfig,
    LsConfig,
    bound_ratio,
    compute_radii,
    flloyd_run,
    run,
)

rng = np.random.default_rng(11)
k = 6
comps = rng.uniform(-8, 8, size=(k, 2))
pts = comps[rng.integers(0, k, 900)] + rng.normal(0, 0.8, (900, 2))
ds = Dataset(pts)
delta = compute_radii(ds, k)

sol, _ = run(ds, delta, LsConfig(k=k, iterations=400, seed=1))
refined, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=20))

print(f"cost before refinement: {trace[0]:.2f}")
for r, c in enumerate(trace[1:], start=1):
    print(f"  round {r:2d}: {c:.2f}")
drop = 100 * (trace[0] - trace[-1]) / trace[0]
print(f"total improvement: {drop:.1f}% over {trace.size - 1} rounds")

before, _ = bound_ratio(ds, delta, sol.center_pos)
after, _ = bound_ratio(ds, delta, refined.center_pos)
print(f"bound ratio {before:.2f} -> {after:.2f} (guarantee stays at 6)")
# the clamped moves at work: each zone still holds a center
per_zone = refined.covers.sum(axis=0)
print(f"zones covered after refinement: {bool(per_zone.all())} "
      f"({per_zone.size} zones, {per_zone.min()} to {per_zone.max()} centers each)")
