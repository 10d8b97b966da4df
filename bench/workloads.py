"""Benchmark workloads: their parameters, why each one exists, and the
generators that turn a seed into its inputs.

Every workload is a Gaussian mixture.  Its layout (blob centers and blob
sizes) is fixed by ``LAYOUT_SEED``; the workload seed draws the points of
each blob and their order, so the same seed always gives the same points,
and different seeds give instances whose costs and timings stay comparable.
The program under test only ever sees the generated points (or the CSV
written from them); the workload seed also becomes the solver seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

GAMMA = 3.0  # the library default; the promise is 2 * GAMMA = 6x
LAYOUT_SEED = 20240210


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``radii`` is ``"exact"``, ``"sampled"`` (with ``refs`` reference rows),
    or ``"auto"``, the harness default: exact up to
    ``EXACT_RADII_RECOMMENDED_MAX`` points, ``refs`` sampled rows above.
    A ``harness`` workload writes its points to a CSV and drives
    ``run_experiment`` on it, solving on a ``sample`` of the rows with
    ``trials`` seeded trials per call, and scoring on all rows.
    """

    name: str
    why: str
    n: int
    d: int
    k: int
    blobs: int
    radii: str
    steps: int
    rounds: int
    refs: int = 1000
    spread: float = 10.0
    dirichlet: float | None = None
    col_scales: tuple[float, ...] | None = None
    harness: bool = False
    sample: int = 0
    trials: int = 0

    def scaled(self, scale: float) -> "Workload":
        """The same workload with n, steps, rounds and the harness sample
        shrunk by ``scale``, to test the benchmark quickly.

        ``refs`` stays: once it reaches n, sampled radii are at least the
        exact ones, so a shrunk instance is still feasible.
        """
        if scale == 1.0:
            return self
        return dataclasses.replace(
            self,
            n=max(200, int(self.n * scale)),
            steps=max(20, int(self.steps * scale)),
            rounds=max(2, int(self.rounds * scale)),
            sample=max(200, int(self.sample * scale)) if self.harness else 0,
            trials=min(self.trials, 2),
        )

    def params(self) -> dict:
        """Parameters as recorded in the benchmark output."""
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("name", "why") and getattr(self, f.name) not in (None, 0, False)
        }
        out["gamma"] = GAMMA
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="blobs-80k",
            why="large n, small k: per-point passes of search and refinement dominate "
            "beside sampled radii; ~5% of steps accepted",
            n=80_000,
            d=2,
            k=10,
            blobs=10,
            spread=20.0,
            radii="sampled",
            steps=500,
            rounds=20,
        ),
        Workload(
            name="radii-exact-d16",
            why="exact radii at d=16 are ~85% of a solve; search-only changes "
            "should leave it unchanged",
            n=6_000,
            d=16,
            k=20,
            blobs=20,
            dirichlet=0.5,
            radii="exact",
            steps=300,
            rounds=10,
        ),
        Workload(
            name="many-centers",
            why="k=100: per-center Python loops dominate (about 50 anchors, k-scans "
            "in accepted swaps, per-center refine moves)",
            n=20_000,
            d=8,
            k=100,
            blobs=100,
            radii="sampled",
            steps=1000,
            rounds=10,
        ),
        Workload(
            name="csv-harness",
            why="run_experiment on a 100k-row CSV: the only path through ingestion, "
            "normalize, full-data radii and scoring, and baselines",
            n=100_000,
            d=6,
            k=10,
            blobs=40,
            spread=4.0,
            col_scales=(1.0, 1e3, 1e-2, 50.0, 0.2, 7.0),
            radii="auto",
            steps=500,
            rounds=20,
            harness=True,
            sample=5_000,
            trials=4,
        ),
    )
}


def make_points(w: Workload, seed: int) -> np.ndarray:
    """The workload's (n, d) points for ``seed``.

    Blob centers are uniform in ``[-spread, spread]^d`` with unit-variance
    noise around them.  Blob sizes are equal unless ``dirichlet`` is set;
    either way they are fixed, so that a seed never empties a small blob.
    """
    layout = np.random.default_rng(LAYOUT_SEED)
    centers = layout.uniform(-w.spread, w.spread, size=(w.blobs, w.d))
    if w.dirichlet is None:
        weights = np.full(w.blobs, 1.0 / w.blobs)
    else:
        weights = layout.dirichlet(np.full(w.blobs, w.dirichlet))
    sizes = np.floor(weights * w.n).astype(np.int64)
    sizes[np.argsort(sizes - weights * w.n)[: w.n - sizes.sum()]] += 1
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(w.blobs), sizes))
    points = centers[labels] + rng.normal(0.0, 1.0, size=(w.n, w.d))
    if w.col_scales is not None:
        points *= np.asarray(w.col_scales)
    return points
