"""How per-point radius bounds behave.

Each point's radius is the distance to its ceil(n/k)-th nearest neighbour
(itself included), so dense regions get tight radii and stragglers get loose
ones.  The closed ball of that radius always holds at least n/k points, which
is what makes greedy seeding provably succeed.  For large datasets the same
rank statistic over a fixed random sample is a close, much cheaper stand-in.
"""

import numpy as np

from fairkmeans import Dataset, aspect_ratio, compute_radii

rng = np.random.default_rng(0)
k = 5

# three dense blobs plus a sparse background
blobs = np.concatenate(
    [rng.normal(c, 0.4, size=(150, 2)) for c in [(-5, 0), (0, 4), (5, 0)]]
)
background = rng.uniform(-9, 9, size=(50, 2))
ds = Dataset(np.vstack([blobs, background]))
print(f"dataset: n={ds.n}, d={ds.d}, k={k}, rank ceil(n/k)={-(-ds.n // k)}")

exact = compute_radii(ds, k)
blob_delta = exact.delta[:450]
bg_delta = exact.delta[450:]
print(f"median radius inside blobs:    {np.median(blob_delta):.3f}")
print(f"median radius in background:   {np.median(bg_delta):.3f}")
print("sparse points ask for roughly "
      f"{np.median(bg_delta) / np.median(blob_delta):.1f}x looser service")

# the sampled variant tracks the exact one closely
sampled = compute_radii(ds, k, mode="sampled", sample_size=200, seed=1)
rel = np.abs(sampled.delta - exact.delta) / exact.delta
print(f"sampled radii (200-point sample): median rel. deviation {np.median(rel):.1%}")

# the ball invariant that everything downstream relies on
from fairkmeans._dist import sq_dists

i = int(np.argmax(exact.delta))
ball = np.count_nonzero(np.sqrt(sq_dists(ds.points, ds.points[i])) <= exact.delta[i])
print(f"loosest point {i}: ball of radius {exact.delta[i]:.3f} holds {ball} points "
      f"(needs >= {-(-ds.n // k)})")

print(f"aspect ratio of the instance: {aspect_ratio(ds).value:.1f}")
