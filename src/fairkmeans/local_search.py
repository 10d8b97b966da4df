"""Constrained local search for individually fair k-means.

The solver seeds anchors, fills up to k centers with random points, then runs
a fixed number of single-swap steps.  Each step samples a candidate point
with probability proportional to its squared distance to the current centers,
evaluates swapping it against every center that can be removed without
emptying an anchor zone, and applies the cheapest swap when it strictly
reduces the cost.

Swap evaluation is incremental.  With ``dp(x) = dist(x, p)^2`` from one
distance pass, the cost of ``S - {q} + {p}`` is::

    sum_x min(d1(x)^2, dp(x))
      + sum_{x: nearest(x)=q} (min(d2(x)^2, dp(x)) - min(d1(x)^2, dp(x)))

because points not assigned to q keep their center or defect to p, while
points assigned to q fall back to their second-nearest center or to p.  The
per-q corrections come from one bincount over the nearest-center labels, so a
full evaluation costs O(nd) for the distance pass plus O(n + k) bookkeeping.

Only points with ``dp(x) < d2(x)^2`` can change either sum or the caches, so
the distance pass may give +inf to the points a dot-product estimate rules
out (:func:`fairkmeans._dist.sq_dists_below`), which gives the same sums and
caches bit for bit.  An accepted swap re-scans the points whose nearest or
second-nearest center left with the nearest-two pass of
``Solution.build`` (:func:`fairkmeans._dist.two_nearest`).
Whether the filter applies is decided in ``_dist`` alone
(:func:`fairkmeans._dist.lift_points`): for the candidate pass from the
points, whose lift the dataset builds once (``Dataset.lift``), and for the
k-scan from the centers.  The D^2 draw reads the solution's cumsum cache
(``Solution.cum``), which every accepted swap refreshes in place.  Nothing
else is kept between steps, and a draw or a swap evaluation changes
nothing it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dist import sq_dists_below, two_nearest
from .anchors import AnchorSet, _check_gamma, build_coverage, seed
from .dataset import Dataset, RadiusBounds, _check_integer, _rng
from .errors import InfeasibleInstanceError
from .solution import Solution, check_guarantee


@dataclass
class LsConfig:
    """Knobs for :func:`run`.

    ``iterations`` is the number of local-search steps.  The paper's count
    for an instance is ``math.ceil(k * math.log(n * fk.aspect_ratio(ds)))``;
    computing the aspect ratio is quadratic in n, so reserve it for small
    inputs.  ``seed`` is a non-negative integer.
    """

    k: int
    gamma: float = 3.0
    iterations: int = 500
    seed: int = 0

    def validate(self) -> None:
        _check_integer("k", self.k, 1)
        _check_integer("iterations", self.iterations, 0)
        _check_integer("seed", self.seed, 0)
        _check_gamma(self.gamma)


@dataclass
class RunTrace:
    """Per-iteration cost (after the step) and whether the swap was taken."""

    initial_cost: float
    costs: np.ndarray
    accepted: np.ndarray

    @property
    def accepted_count(self) -> int:
        return int(self.accepted.sum())


def init_solution(ds: Dataset, anchor_set: AnchorSet, k: int, seed) -> Solution:
    """Anchors plus uniform random distinct non-anchor points, caches built.

    ``seed`` may be an int or a numpy Generator.  Raises
    InfeasibleInstanceError when there are more anchors than k, and a
    ValueError when the total cost overflows float64.
    """
    _check_integer("k", k, 1, ds.n)
    rng = _rng(seed)
    m = len(anchor_set)
    if m > k:
        raise InfeasibleInstanceError(m, k)
    ids = anchor_set.anchors
    if m < k:
        pool = np.setdiff1d(np.arange(ds.n), ids)
        fill = rng.choice(pool, size=k - m, replace=False)
        ids = np.concatenate([ids, np.sort(fill)])
    sol = Solution.build(ds, anchor_set, center_ids=ids)
    if not math.isfinite(sol.total_cost):
        raise ValueError(
            "the total cost (sum of squared distances to the nearest center) "
            "overflows float64; rescale the points, e.g. divide them by their "
            "largest magnitude"
        )
    check_guarantee(sol)
    return sol


def _d2_draw(cum: np.ndarray, rng: np.random.Generator) -> int | None:
    """Index i drawn with probability weights[i] / sum(weights), from one
    uniform draw, given ``cum = np.cumsum(weights)``; None, with ``rng``
    untouched, when the total is zero.  A total that overflowed to inf is a
    ValueError: every draw would land on the last index.  The D^2 draw of
    the search and of k-means++ seeding."""
    total = cum[-1]
    if not math.isfinite(total):
        raise ValueError(
            "the D^2 sampling weights sum to inf (float64 overflow); rescale the "
            "points, e.g. divide them by their largest magnitude"
        )
    if not total > 0:
        return None
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    return min(idx, cum.shape[0] - 1)


def d2_sample(sol: Solution, rng: np.random.Generator) -> int:
    """Draw a point id with probability d1(p)^2 / sum_q d1(q)^2: the draw
    :func:`ls_step` makes, from the same cached cumsum."""
    idx = _d2_draw(sol.cum, rng)
    if idx is None:
        raise ValueError("total cost is zero; every point already sits on a center")
    return idx


def _candidate_row(sol: Solution, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance from point p to every point, +inf where the search's
    filter proves it above ``d2sq`` (see the module docstring), and the
    zones p lies in."""
    X = sol.ds.points
    dpsq = sq_dists_below(X, sol.ds.lift, p, sol.d2sq)
    return dpsq, build_coverage(sol.anchor_set, X[p][None])[0]


def _swap_costs(
    sol: Solution, dpsq: np.ndarray, covers_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = np.minimum(sol.d1sq, dpsq)
    b = np.minimum(sol.d2sq, dpsq)
    base = float(a.sum())
    corr = np.bincount(sol.assign, weights=b - a, minlength=sol.k)
    new_costs = base + corr

    # Removing q only breaks a zone that q alone covers and p does not enter.
    counts = sol.covers.sum(axis=0)
    critical = (counts == 1) & ~covers_p
    admissible = ~(sol.covers & critical).any(axis=1)
    return new_costs, admissible


def _best_swap(
    sol: Solution, new_costs: np.ndarray, admissible: np.ndarray
) -> tuple[int, float] | None:
    """``(slot, new_cost)`` of the cheapest admissible swap, ties going to
    the lowest center id; None when every swap would empty an anchor zone."""
    if not admissible.any():
        return None
    best = new_costs[admissible].min()
    tied = np.flatnonzero(admissible & (new_costs == best))
    return int(tied[np.argmin(sol.center_ids[tied])]), float(best)


def swap_costs(sol: Solution, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Cost of swapping point p in for each center, and which swaps keep
    every anchor zone of ``sol.anchor_set`` covered.

    Returns ``(new_costs, admissible)`` indexed by center slot.  ``p`` is a
    point id in ``[0, n)``; anything else is a TypeError or ValueError
    naming it.
    """
    _check_integer("p", p, 0, sol.ds.n - 1)
    return _swap_costs(sol, *_candidate_row(sol, p))


def _apply_swap(
    sol: Solution, p: int, j: int, new_cost: float, dpsq: np.ndarray, covers_p: np.ndarray
) -> None:
    """Put point p in slot j and restore every cache.

    Points whose nearest or second-nearest center was the removed one get a
    k-scan against the new center set: the nearest-two pass
    (:func:`fairkmeans._dist.two_nearest`, which decides whether its filter
    applies) writes their four caches.  Everyone else only needs a comparison
    against the new center's distances: p becomes the nearest center of the
    ``closer`` rows and the second-nearest of the ``mid`` rows.  The D^2
    cumsum is refreshed in place.
    """
    X = sol.ds.points
    sol.center_ids[j] = p
    sol.center_pos[j] = X[p]

    affected = (sol.assign == j) | (sol.assign2 == j)
    rows = np.flatnonzero(affected)
    if rows.size:
        sol.assign[rows], sol.assign2[rows], sol.d1sq[rows], sol.d2sq[rows] = two_nearest(
            X[rows], sol.center_pos
        )

    closer = ~affected & (dpsq < sol.d1sq)
    mid = ~affected & ~closer & (dpsq < sol.d2sq)
    sol.d2sq[closer] = sol.d1sq[closer]
    sol.assign2[closer] = sol.assign[closer]
    sol.d1sq[closer] = dpsq[closer]
    sol.assign[closer] = j
    sol.d2sq[mid] = dpsq[mid]
    sol.assign2[mid] = j

    sol.covers[j, :] = covers_p
    sol.total_cost = new_cost
    np.cumsum(sol.d1sq, out=sol.cum)


def ls_step(
    sol: Solution, anchor_set: AnchorSet | None, rng: np.random.Generator
) -> tuple[Solution, bool]:
    """One sampled-swap step; mutates ``sol`` in place.

    Returns the solution and whether a swap was applied.  A zero-cost
    solution short-circuits (nothing left to sample), and a sampled point
    that already is a center can only reproduce the current solution, so it
    is rejected without evaluation.  Otherwise the step takes the cheapest
    swap that keeps every anchor zone covered (:func:`swap_costs`), ties
    going to the lowest center id, when it is strictly cheaper.  The draw is
    the one :func:`d2_sample` makes, from ``sol.cum``.

    ``anchor_set`` is None or ``sol.anchor_set`` itself: the coverage cache
    belongs to that set, so any other one is a ValueError.  So is a solution
    without ``center_ids``: search swaps data points only.
    """
    if anchor_set is not None and anchor_set is not sol.anchor_set:
        raise ValueError("anchor_set must be the solution's own anchor set (sol.anchor_set)")
    if sol.center_ids is None:
        raise ValueError(
            "local search needs centers at data points; this solution has no "
            "center_ids (a refined solution cannot be searched)"
        )
    p = _d2_draw(sol.cum, rng)
    if p is None or p in sol.center_ids:
        return sol, False
    dpsq, covers_p = _candidate_row(sol, p)
    best = _best_swap(sol, *_swap_costs(sol, dpsq, covers_p))
    if best is None or not best[1] < sol.total_cost:
        return sol, False
    slot, new_cost = best
    _apply_swap(sol, p, slot, new_cost, dpsq, covers_p)
    return sol, True


def run(ds: Dataset, delta: RadiusBounds, cfg: LsConfig) -> tuple[Solution, RunTrace]:
    """Full pipeline, one seeded pass: seeding, random fill, ``iterations``
    swap steps.

    Init and search draw from one generator,
    ``np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])``,
    so the result is deterministic per seed.  Raises InfeasibleInstanceError
    (with the anchor count) when seeding needs more than k anchors.  Every
    returned solution serves each point within ``2 * gamma * delta(p)``;
    this is re-checked at return (:func:`solution.check_guarantee`) and
    cannot be disabled.
    """
    cfg.validate()
    anchor_set = seed(ds, delta, cfg.gamma)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    sol = init_solution(ds, anchor_set, cfg.k, rng)
    costs = np.empty(cfg.iterations)
    accepted = np.zeros(cfg.iterations, dtype=bool)
    initial = sol.total_cost
    for i in range(cfg.iterations):
        sol, took = ls_step(sol, anchor_set, rng)
        costs[i] = sol.total_cost
        accepted[i] = took

    check_guarantee(sol, delta)
    return sol, RunTrace(initial_cost=initial, costs=costs, accepted=accepted)
