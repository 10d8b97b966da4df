"""A solve's memory is linear in n: no (n, k) array.

At n = 100,000 and k = 100 one (n, k) float64 array takes 80 MB, against
6.4 MB of points at d = 8.  The search keeps per-point caches, the
nearest-two pass reads the nearest two off one row block at a time, and
refinement keeps each point's nearest slot and distance, so neither ``run``
nor ``flloyd_run`` comes near that: each peaks below 20 MB of new
allocations, as tracemalloc counts them (the points themselves excluded).
The case is run at d = 8, where the nearest-two pass takes the dot-product
filter, and at d = 2, where it takes the plain kernel.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fairkmeans import Dataset, FlConfig, LsConfig, RadiusBounds, flloyd_run, run

N, K = 100_000, 100
LIMIT_MB = 20


def peak_mb(call):
    """``(call(), peak MB allocated while it ran)``."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


@pytest.mark.parametrize("d", [8, 2])
def test_search_and_refinement_peak_below_an_n_by_k_array(d):
    rng = np.random.default_rng(d)
    ds = Dataset(rng.normal(size=(N, d)))
    # one zone around everything: the search and the rounds run unclamped
    delta = RadiusBounds(np.full(N, 1e3))
    (sol, _), searched = peak_mb(lambda: run(ds, delta, LsConfig(k=K, iterations=3, seed=1)))
    (_, trace), refined = peak_mb(lambda: flloyd_run(ds, sol, cfg=FlConfig(iterations=2)))
    assert trace[-1] < trace[0]
    assert searched < LIMIT_MB, f"run peaked at {searched:.1f} MB"
    assert refined < LIMIT_MB, f"flloyd_run peaked at {refined:.1f} MB"
