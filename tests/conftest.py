"""Shared fixtures and instance generators."""

from __future__ import annotations

import numpy as np
import pytest

from fairkmeans import Dataset, RadiusBounds, compute_radii


def gaussian_instance(seed, n=None, k=None, d=None, spread=8.0, sigma=1.0):
    """Random Gaussian-mixture dataset with exact radius bounds.

    Exact radii make every instance seeding-feasible: the picked anchors'
    delta-balls are pairwise disjoint and each holds at least ceil(n/k)
    points, so there can never be more than k of them.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 2001)) if n is None else n
    k = int(rng.integers(2, 21)) if k is None else k
    d = int(rng.integers(2, 7)) if d is None else d
    comps = rng.uniform(-spread, spread, size=(k, d))
    labels = rng.integers(0, k, size=n)
    pts = comps[labels] + rng.normal(0, sigma, size=(n, d))
    ds = Dataset(pts)
    return ds, compute_radii(ds, k), k


def tiny_instance(seed, n_lo=8, n_hi=12, k_hi=3, sigma=0.25, spread=6.0):
    """Small clustered instance for brute-force comparisons."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(2, k_hi + 1))
    comps = rng.uniform(-spread, spread, size=(k, 2))
    labels = rng.integers(0, k, size=n)
    pts = comps[labels] + rng.normal(0, sigma, size=(n, 2))
    ds = Dataset(pts)
    return ds, compute_radii(ds, k), k


def record_draws(monkeypatch, module):
    """Wrap ``module._d2_draw`` so that every draw it makes is kept as
    ``(index, weight of that index, total)``; returns the list."""
    draw = module._d2_draw
    draws = []

    def recording(cum, rng):
        idx = draw(cum, rng)
        if idx is not None:
            draws.append((idx, cum[idx] - (cum[idx - 1] if idx else 0.0), cum[-1]))
        return idx

    monkeypatch.setattr(module, "_d2_draw", recording)
    return draws


@pytest.fixture
def line4():
    """The 1-D fixture {0, 1, 10, 11} with generous radii."""
    ds = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
    return ds, RadiusBounds(np.full(4, 1e6))


@pytest.fixture
def small_mixture():
    ds, delta, k = gaussian_instance(42, n=300, k=4, d=2)
    return ds, delta, k
