"""Comparison algorithms and test oracles.

* greedy: the seeding anchors plus random fill, no search.
* vanilla k-means: standard D^2 seeding plus Lloyd iterations, ignoring the
  radius bounds entirely.
* brute force: exhaustive optimum over k-subsets for tiny instances, the
  ground truth the search is measured against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._dist import sq_dist_matrix, sq_dists
from .anchors import seed as seed_anchors
from .dataset import (
    Dataset,
    RadiusBounds,
    _check_integer,
    _rng,
    check_distance_overflow,
    check_radii,
)
from .local_search import _d2_draw, init_solution
from .metrics import cost as metrics_cost
from .metrics import fairness_ratios
from .refine import lloyd_rounds
from .solution import Solution

BRUTE_FORCE_SUBSET_LIMIT = 1_000_000
BRUTE_FORCE_POINT_LIMIT = 2_000


def greedy_baseline(
    ds: Dataset, delta: RadiusBounds, gamma: float, k: int, seed
) -> Solution:
    """Seeding anchors filled to k with uniform random points, no search.

    The local search's initialization (:func:`local_search.init_solution`),
    so it satisfies the same 2*gamma service bound; InfeasibleInstanceError
    when seeding needs more than k anchors.  It draws from
    ``np.random.default_rng(seed)`` itself, while :func:`local_search.run`
    spawns its generator from ``SeedSequence(seed)``, so the two pick
    different fill points for the same seed.
    """
    return init_solution(ds, seed_anchors(ds, delta, gamma), k, seed)


def kmeanspp_init(ds: Dataset, k: int, seed) -> np.ndarray:
    """Standard D^2 seeding: first center uniform, each next one drawn with
    probability proportional to squared distance to the chosen set, so
    never a chosen point, whose weight is 0 (``local_search._d2_draw``);
    once every point sits on a chosen one, a uniform unchosen point.  A draw
    whose total weight, the chosen set's cost, overflows is a ValueError
    (:func:`dataset.check_cost_scale`, in the shared D^2 draw); points whose
    squared distances underflow, so that every draw would be uniform, are
    rejected by the :class:`dataset.Dataset` constructor."""
    _check_integer("k", k, 1, ds.n)
    rng = _rng(seed)
    X = ds.points
    chosen = [int(rng.integers(ds.n))]
    d2 = sq_dists(X, X[chosen[0]])
    for _ in range(1, k):
        idx = _d2_draw(np.cumsum(d2), rng)
        if idx is None:  # zero total: uniform fresh point
            pool = np.setdiff1d(np.arange(ds.n), np.asarray(chosen))
            idx = int(rng.choice(pool))
        chosen.append(idx)
        np.minimum(d2, sq_dists(X, X[idx]), out=d2)
    return np.asarray(chosen, dtype=np.int64)


def vanilla_kmeans(ds: Dataset, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """D^2 seeding (:func:`kmeanspp_init`) plus plain Lloyd rounds, the
    refinement loop with no zone constraint
    (:func:`fairkmeans.refine.lloyd_rounds`), capped at 100 rounds or a
    relative improvement of at most 1e-6.  The non-fair reference point.

    Returns the final positions and the cost trace (entry cost plus one
    value per round).  An empty cluster keeps its center, and a center only
    moves when its recomputed cluster cost strictly improves, so the trace
    is non-increasing even in float arithmetic; a round in which no center
    moves ends it.
    """
    positions = ds.points[kmeanspp_init(ds, k, seed)]
    return positions, lloyd_rounds(ds.points, positions, None, 100, 1e-6)


def brute_force_opt(
    ds: Dataset, delta: RadiusBounds, beta: float, k: int
) -> tuple[float, np.ndarray] | None:
    """Exhaustive optimum over all k-subsets of points.

    A subset is feasible when every point is served within ``beta`` times its
    radius, judged by exactly the same ratio values the feasibility check
    uses.  Returns the best feasible (k-means cost, center ids), or None when
    no subset is feasible.  Guarded to tiny instances.  When no subset is
    feasible and some squared distance overflowed to inf, the ratios that
    ruled the subsets out are not the points' own, and the answer is
    :func:`dataset.check_distance_overflow`'s ValueError, not None.
    Points whose squared distances underflow, so that every subset would
    cost 0, are rejected by the :class:`dataset.Dataset` constructor.
    """
    _check_integer("k", k, 1, ds.n)
    check_radii(ds, delta)
    if ds.n > BRUTE_FORCE_POINT_LIMIT or math.comb(ds.n, k) > BRUTE_FORCE_SUBSET_LIMIT:
        raise ValueError("instance too large for exhaustive search")
    X = ds.points
    sqmat = sq_dist_matrix(X, X)
    ratios = fairness_ratios(np.sqrt(sqmat), delta.delta[:, None])
    best_cost = np.inf
    best: tuple[int, ...] | None = None
    for subset in itertools.combinations(range(ds.n), k):
        idx = list(subset)
        if not np.all(ratios[:, idx].min(axis=1) <= beta):
            continue
        c = float(sqmat[:, idx].min(axis=1).sum())
        if c < best_cost:
            best_cost = c
            best = subset
    if best is None:
        check_distance_overflow(sqmat)
        return None
    ids = np.asarray(best, dtype=np.int64)
    return metrics_cost(ds, ids, p=2), ids

