"""Comparison algorithms and test oracles.

* greedy: the seeding anchors plus random fill, no search.
* vanilla k-means: standard D^2 seeding plus Lloyd iterations, ignoring the
  radius bounds entirely.
* brute force: exhaustive optimum over k-subsets for tiny instances, the
  ground truth the search is measured against.
* candidate projection: snap continuous centers onto an allowed candidate
  set, one distinct candidate per center.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._dist import sq_dist_matrix, sq_dists
from .anchors import seed as seed_anchors
from .dataset import Dataset, RadiusBounds
from .errors import InfeasibleInstanceError
from .local_search import Solution, init_solution
from .metrics import cost as metrics_cost
from .metrics import fairness_ratios
from .refine import cluster_means

BRUTE_FORCE_SUBSET_LIMIT = 1_000_000
BRUTE_FORCE_POINT_LIMIT = 2_000


def greedy_baseline(
    ds: Dataset, delta: RadiusBounds, gamma: float, k: int, seed
) -> Solution:
    """Seeding anchors filled to k with uniform random points, no search.

    Identical to the local-search initialization, and therefore satisfies the
    same 2*gamma service bound.
    """
    anchor_set = seed_anchors(ds, delta, gamma)
    if len(anchor_set) > k:
        raise InfeasibleInstanceError(len(anchor_set), k)
    return init_solution(ds, anchor_set, k, seed)


def kmeanspp_init(ds: Dataset, k: int, seed) -> np.ndarray:
    """Standard D^2 seeding: first center uniform, each next one drawn with
    probability proportional to squared distance to the chosen set."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"k={k} must be in [1, {ds.n}]")
    rng = np.random.default_rng(seed)
    X = ds.points
    chosen = [int(rng.integers(ds.n))]
    d2 = sq_dists(X, X[chosen[0]])
    for _ in range(1, k):
        cum = np.cumsum(d2)
        total = cum[-1]
        if total > 0:
            u = rng.random() * total
            idx = min(int(np.searchsorted(cum, u, side="right")), ds.n - 1)
            if d2[idx] == 0:  # float edge; fall back to a uniform fresh point
                idx = -1
        else:
            idx = -1
        if idx < 0:
            pool = np.setdiff1d(np.arange(ds.n), np.asarray(chosen))
            idx = int(rng.choice(pool))
        chosen.append(int(idx))
        np.minimum(d2, sq_dists(X, X[idx]), out=d2)
    return np.asarray(chosen, dtype=np.int64)


def lloyd(
    ds: Dataset,
    centers: np.ndarray,
    iterations: int = 100,
    rel_tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iterations from the given center positions.

    Returns the final positions and the cost trace (entry cost plus one value
    per round).  An empty cluster keeps its center, and a center only moves
    when the recomputed cluster cost strictly improves, so the trace is
    non-increasing even in float arithmetic.  A positive ``rel_tol`` stops
    once a round's relative improvement drops below it.
    """
    X = ds.points
    positions = np.array(centers, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[0] == 0:
        raise ValueError("centers must be a nonempty (k, d) array")
    k = positions.shape[0]
    rows = np.arange(ds.n)
    M = sq_dist_matrix(X, positions)
    labels = np.argmin(M, axis=1)
    d1sq = M[rows, labels]
    total = math.fsum(d1sq)
    trace = [total]
    for _ in range(iterations):
        means, sizes = cluster_means(X, labels, k)
        new_positions = positions.copy()
        for j in range(k):
            if sizes[j] == 0 or np.array_equal(means[j], positions[j]):
                continue
            members = labels == j
            if math.fsum(sq_dists(X[members], means[j])) < math.fsum(d1sq[members]):
                new_positions[j] = means[j]
        positions = new_positions
        M = sq_dist_matrix(X, positions)
        labels = np.argmin(M, axis=1)
        d1sq = M[rows, labels]
        new_total = math.fsum(d1sq)
        trace.append(new_total)
        improvement = total - new_total
        total = new_total
        if rel_tol > 0 and improvement <= rel_tol * max(total, 1e-300):
            break
    return positions, np.asarray(trace)


def vanilla_kmeans(ds: Dataset, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """D^2 seeding plus Lloyd, capped at 100 rounds or relative improvement
    below 1e-6.  The non-fair reference point."""
    ids = kmeanspp_init(ds, k, seed)
    return lloyd(ds, ds.points[ids], iterations=100, rel_tol=1e-6)


def brute_force_opt(
    ds: Dataset, delta: RadiusBounds, beta: float, k: int
) -> tuple[float, np.ndarray] | None:
    """Exhaustive optimum over all k-subsets of points.

    A subset is feasible when every point is served within ``beta`` times its
    radius, judged by exactly the same ratio values the feasibility check
    uses.  Returns the best feasible (k-means cost, center ids), or None when
    no subset is feasible.  Guarded to tiny instances.
    """
    if not 1 <= k <= ds.n:
        raise ValueError(f"k={k} must be in [1, {ds.n}]")
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
        return None
    ids = np.asarray(best, dtype=np.int64)
    return metrics_cost(ds, ids, p=2), ids


def project_to_candidates(centers: np.ndarray, candidates: Dataset) -> np.ndarray:
    """Replace each center position by its nearest candidate point id.

    Ties go to the lowest id.  When two centers would collapse onto one
    candidate, later centers (in input order) take their next-nearest still
    unused candidate, so the number of distinct centers is preserved.
    """
    pos = np.asarray(centers, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[0] == 0:
        raise ValueError("centers must be a nonempty (k, d) array")
    if pos.shape[0] > candidates.n:
        raise ValueError("more centers than candidates; cannot keep them distinct")
    taken: set[int] = set()
    out = []
    for c in pos:
        order = np.argsort(sq_dists(candidates.points, c), kind="stable")
        pick = next(int(i) for i in order if int(i) not in taken)
        taken.add(pick)
        out.append(pick)
    return np.asarray(out, dtype=np.int64)
