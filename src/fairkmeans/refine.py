"""Fairness-preserving Lloyd refinement.

After local search the centers are dataset points.  This stage alternates
nearest-center assignment with moves of each center toward its cluster mean,
clamped so that no anchor zone is ever left without a center.  Centers become
continuous positions here; the radius guarantee of the search phase carries
through because zone coverage is preserved.

A center's move is a bisection along the segment from its current position to
the cluster mean: the largest step that keeps the center inside every zone it
is responsible for.  Which zones a center is responsible for is set by
``constraint_mode``:

* ``"pinned"`` (default): every zone pins exactly one of the centers
  currently inside it (its only coverer when there is one, else the nearest
  coverer at the start of the round).  Order-independent and provably keeps
  every zone covered.
* ``"sole_coverer"``: only zones with exactly one coverer constrain it.
  Weakest set, but two coverers of the same zone may both leave it in one
  round, so coverage is not guaranteed.
* ``"all_zones"``: a center is constrained by every zone it currently covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dist import dists, sq_dist_matrix, sq_dists
from .anchors import AnchorSet, build_coverage
from .dataset import Dataset

CONSTRAINT_MODES = ("pinned", "sole_coverer", "all_zones")


@dataclass
class FlConfig:
    iterations: int = 20
    bisection_steps: int = 40
    min_improvement: float = 0.0
    constraint_mode: str = "pinned"

    def validate(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.bisection_steps < 1:
            raise ValueError("bisection_steps must be at least 1")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"constraint_mode must be one of {CONSTRAINT_MODES}")


def assign(ds: Dataset, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every point, lowest index on ties."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise ValueError("centers must be a nonempty (k, d) array")
    return np.argmin(sq_dist_matrix(ds.points, centers), axis=1)


def cluster_means(X: np.ndarray, labels: np.ndarray, k: int):
    """Per-cluster means and sizes; the mean row of an empty cluster is 0."""
    sizes = np.bincount(labels, minlength=k)
    means = np.zeros((k, X.shape[1]))
    for dim in range(X.shape[1]):
        means[:, dim] = np.bincount(labels, weights=X[:, dim], minlength=k)
    nonempty = sizes > 0
    means[nonempty] /= sizes[nonempty, None]
    return means, sizes


def fair_move_center(
    center: np.ndarray,
    mean: np.ndarray,
    anchor_positions: np.ndarray,
    radii: np.ndarray,
    bisection_steps: int = 40,
) -> np.ndarray:
    """Farthest point toward ``mean`` on the segment from ``center`` that
    stays inside every constraint ball.

    The feasible steps form an interval [0, t*] because the segment's
    intersection with each closed ball is convex and t=0 is feasible by
    precondition.  When the mean itself is feasible it is returned exactly;
    otherwise t* is located by ``bisection_steps`` halvings, an error of at
    most ``|mean - center| * 2**-bisection_steps``.
    """
    center = np.asarray(center, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if anchor_positions.shape[0] == 0:
        return mean.copy()

    def feasible(t: float) -> bool:
        pos = (1.0 - t) * center + t * mean
        return bool(np.all(dists(anchor_positions, pos) <= radii))

    if feasible(1.0):
        return mean.copy()
    lo, hi = 0.0, 1.0
    for _ in range(bisection_steps):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return (1.0 - lo) * center + lo * mean


def _responsibilities(
    anchor_set: AnchorSet, positions: np.ndarray, mode: str
) -> list[np.ndarray]:
    """Zones each center must stay inside this round, from start-of-round
    positions so the result does not depend on move order."""
    k = positions.shape[0]
    m = len(anchor_set)
    if m == 0:
        return [np.empty(0, dtype=np.int64)] * k
    dmat = np.sqrt(sq_dist_matrix(positions, anchor_set.positions))
    covers = dmat <= anchor_set.zone_radius
    counts = covers.sum(axis=0)
    if mode == "all_zones":
        return [np.flatnonzero(covers[j]) for j in range(k)]
    if mode == "sole_coverer":
        sole = counts == 1
        return [np.flatnonzero(covers[j] & sole) for j in range(k)]
    # pinned: each covered zone binds its nearest coverer (ties: lowest slot)
    pin = np.full(m, -1, dtype=np.int64)
    covered = counts >= 1
    masked = np.where(covers, dmat, np.inf)
    pin[covered] = np.argmin(masked[:, covered], axis=0)
    return [np.flatnonzero(pin == j) for j in range(k)]


def flloyd_run(
    ds: Dataset,
    sol,
    anchor_set: AnchorSet | None = None,
    cfg: FlConfig | None = None,
):
    """Refine a solution for ``cfg.iterations`` rounds.

    Returns the refined solution (centers now continuous positions) and the
    cost trace, one entry on entry plus one per round.  The trace is
    non-increasing: a center move is kept only when its cluster's recomputed
    cost strictly improves, which pins down monotonicity in float arithmetic
    as well as in exact arithmetic.  With ``min_improvement > 0`` the loop
    stops early once a round improves by less than that.

    ``iterations = 0`` returns the input solution unchanged.
    """
    from .local_search import Solution, _build_state

    cfg = FlConfig() if cfg is None else cfg
    cfg.validate()
    anchor_set = sol.anchor_set if anchor_set is None else anchor_set
    X = ds.points
    n = X.shape[0]
    k = sol.center_pos.shape[0]
    rows = np.arange(n)

    positions = sol.center_pos.copy()
    M = sq_dist_matrix(X, positions)
    labels = np.argmin(M, axis=1)
    d1sq = M[rows, labels]
    total = math.fsum(d1sq)
    trace = [total]
    if cfg.iterations == 0:
        return sol, np.asarray(trace)

    for _ in range(cfg.iterations):
        means, sizes = cluster_means(X, labels, k)
        zones = _responsibilities(anchor_set, positions, cfg.constraint_mode)
        new_positions = positions.copy()
        for j in range(k):
            if sizes[j] == 0:
                continue
            candidate = fair_move_center(
                positions[j],
                means[j],
                anchor_set.positions[zones[j]],
                anchor_set.zone_radius[zones[j]],
                cfg.bisection_steps,
            )
            # a center that does not move cannot strictly improve its cost
            if np.array_equal(candidate, positions[j]):
                continue
            members = labels == j
            # strict per-cluster improvement, measured with the same kernel
            # the next assignment round will use
            if math.fsum(sq_dists(X[members], candidate)) < math.fsum(d1sq[members]):
                new_positions[j] = candidate
        positions = new_positions
        M = sq_dist_matrix(X, positions)
        labels = np.argmin(M, axis=1)
        d1sq = M[rows, labels]
        new_total = math.fsum(d1sq)
        trace.append(new_total)
        improvement = total - new_total
        total = new_total
        if improvement < cfg.min_improvement:
            break

    assign_, assign2, d1sq_, d2sq = _build_state(X, positions)
    coverage = build_coverage(anchor_set, positions)
    if len(anchor_set) and not np.all(coverage.counts >= 1):
        raise AssertionError("refinement left an anchor zone without a center")
    refined = Solution(
        ds=ds,
        anchor_set=anchor_set,
        center_ids=None,
        center_pos=positions,
        assign=assign_,
        assign2=assign2,
        d1sq=d1sq_,
        d2sq=d2sq,
        coverage=coverage,
        total_cost=total,
    )
    return refined, np.asarray(trace)
