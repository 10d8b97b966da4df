"""Constrained local search for individually fair k-means.

The solver seeds anchors, fills up to k centers with random points, then runs
a fixed number of single-swap steps.  Each step samples a candidate point
with probability proportional to its squared distance to the current centers,
evaluates swapping it against every center that can be removed without
emptying an anchor zone, and applies the cheapest swap when it strictly
reduces the cost.

Swap evaluation is incremental.  With ``dp(x) = dist(x, p)^2`` precomputed in
one pass, the cost of ``S - {q} + {p}`` is::

    sum_x min(d1(x)^2, dp(x))
      + sum_{x: nearest(x)=q} (min(d2(x)^2, dp(x)) - min(d1(x)^2, dp(x)))

because points not assigned to q keep their center or defect to p, while
points assigned to q fall back to their second-nearest center or to p.  The
per-q corrections come from one bincount over the nearest-center labels, so a
full evaluation costs O(nd) for the distance pass plus O(n + k) bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import sq_dists
from .anchors import AnchorSet, build_coverage, seed
from .dataset import Dataset, RadiusBounds
from .errors import InfeasibleInstanceError
from .metrics import bound_ratio
from .solution import RADIUS_SLACK, Solution, build_state, check_solution


@dataclass
class LsConfig:
    """Knobs for :func:`run`.

    ``iterations`` is the number of local-search steps.  The paper's count
    for an instance is ``math.ceil(k * math.log(n * fk.aspect_ratio(ds).value))``;
    computing the aspect ratio is quadratic in n, so reserve it for small
    inputs.
    """

    k: int
    gamma: float = 3.0
    iterations: int = 500
    seed: int = 0
    debug_checks: bool = False

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not self.gamma > 2:
            raise ValueError("gamma must exceed 2")


@dataclass
class RunTrace:
    """Per-iteration cost (after the step) and whether the swap was taken."""

    initial_cost: float
    costs: np.ndarray
    accepted: np.ndarray

    @property
    def accepted_count(self) -> int:
        return int(self.accepted.sum())


@dataclass
class SwapCandidate:
    """Best admissible swap for a sampled point: replace the center in slot
    ``slot`` by ``point``, reaching ``new_cost``."""

    point: int
    slot: int
    new_cost: float


def init_solution(ds: Dataset, anchor_set: AnchorSet, k: int, seed) -> Solution:
    """Anchors plus uniform random distinct non-anchor points, caches built.

    ``seed`` may be an int or a numpy Generator.  Raises
    InfeasibleInstanceError when there are more anchors than k.
    """
    m = len(anchor_set)
    if m > k:
        raise InfeasibleInstanceError(m, k)
    if ds.n < k:
        raise ValueError(f"k={k} exceeds the number of points {ds.n}")
    rng = np.random.default_rng(seed)
    ids = anchor_set.anchors
    if m < k:
        pool = np.setdiff1d(np.arange(ds.n), ids)
        fill = rng.choice(pool, size=k - m, replace=False)
        ids = np.concatenate([ids, np.sort(fill)])
    sol = Solution.build(ds, anchor_set, center_ids=ids.astype(np.int64))
    if m and not np.all(sol.coverage.counts >= 1):
        raise AssertionError("anchor zones uncovered right after initialization")
    return sol


def _d2_draw(weights: np.ndarray, rng: np.random.Generator) -> int | None:
    """Index i drawn with probability weights[i] / sum(weights), from one
    uniform draw; None, with ``rng`` untouched, when the total is not
    positive.  The D^2 draw of the search and of k-means++ seeding."""
    cum = np.cumsum(weights)
    total = cum[-1]
    if not total > 0:
        return None
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    return min(idx, weights.shape[0] - 1)


def d2_sample(sol: Solution, rng: np.random.Generator) -> int:
    """Draw a point id with probability d1(p)^2 / sum_q d1(q)^2."""
    idx = _d2_draw(sol.d1sq, rng)
    if idx is None:
        raise ValueError("total cost is zero; every point already sits on a center")
    return idx


def _candidate_row(sol: Solution, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance from point p to every point, and the zones p lies in."""
    X = sol.ds.points
    return sq_dists(X, X[p]), build_coverage(sol.anchor_set, X[p][None]).covers[0]


def _swap_costs(
    sol: Solution, dpsq: np.ndarray, covers_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = np.minimum(sol.d1sq, dpsq)
    b = np.minimum(sol.d2sq, dpsq)
    base = float(a.sum())
    corr = np.bincount(sol.assign, weights=b - a, minlength=sol.k)
    new_costs = base + corr

    # Removing q only breaks a zone that q alone covers and p does not enter.
    counts = sol.coverage.counts
    critical = (counts == 1) & ~covers_p
    admissible = ~(sol.coverage.covers & critical).any(axis=1)
    return new_costs, admissible


def _require_center_ids(sol: Solution) -> None:
    if sol.center_ids is None:
        raise ValueError(
            "local search needs centers at data points; this solution has no "
            "center_ids (a refined solution cannot be searched)"
        )


def _best_swap(
    sol: Solution, p: int, new_costs: np.ndarray, admissible: np.ndarray
) -> SwapCandidate | None:
    if not admissible.any():
        return None
    best = new_costs[admissible].min()
    tied = np.flatnonzero(admissible & (new_costs == best))
    slot = int(tied[np.argmin(sol.center_ids[tied])])
    return SwapCandidate(point=int(p), slot=slot, new_cost=float(best))


def swap_costs(sol: Solution, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Cost of swapping point p in for each center, and which swaps keep
    every anchor zone of ``sol.anchor_set`` covered.

    Returns ``(new_costs, admissible)`` indexed by center slot.
    """
    return _swap_costs(sol, *_candidate_row(sol, p))


def evaluate_swaps(sol: Solution, p: int) -> SwapCandidate | None:
    """Best admissible swap for candidate point p, or None when every swap
    would empty an anchor zone.  Ties go to the lowest center id.

    ``sol`` must have its centers at data points (``center_ids``), else a
    ValueError.
    """
    _require_center_ids(sol)
    return _best_swap(sol, p, *swap_costs(sol, p))


def _apply_swap(sol: Solution, cand: SwapCandidate, dpsq: np.ndarray, covers_p: np.ndarray) -> None:
    """Install the swap and restore every cache.

    Points whose nearest or second-nearest center was the removed one get a
    full k-scan; everyone else only needs a comparison against the new
    center's distances.
    """
    X = sol.ds.points
    j = cand.slot
    sol.center_ids[j] = cand.point
    sol.center_pos[j] = X[cand.point]

    affected = (sol.assign == j) | (sol.assign2 == j)
    rows = np.flatnonzero(affected)
    if rows.size:
        a1, a2, d1, d2 = build_state(X[rows], sol.center_pos)
        sol.assign[rows] = a1
        sol.assign2[rows] = a2
        sol.d1sq[rows] = d1
        sol.d2sq[rows] = d2

    other = np.flatnonzero(~affected)
    if other.size:
        dp_o = dpsq[other]
        closer = dp_o < sol.d1sq[other]
        idx = other[closer]
        sol.d2sq[idx] = sol.d1sq[idx]
        sol.assign2[idx] = sol.assign[idx]
        sol.d1sq[idx] = dpsq[idx]
        sol.assign[idx] = j
        mid = other[~closer & (dp_o < sol.d2sq[other])]
        sol.d2sq[mid] = dpsq[mid]
        sol.assign2[mid] = j

    sol.coverage.covers[j, :] = covers_p
    sol.total_cost = cand.new_cost


def ls_step(
    sol: Solution, anchor_set: AnchorSet | None, rng: np.random.Generator
) -> tuple[Solution, bool]:
    """One sampled-swap step; mutates ``sol`` in place.

    Returns the solution and whether a swap was applied.  A zero-cost
    solution short-circuits (nothing left to sample), and a sampled point
    that already is a center can only reproduce the current solution, so it
    is rejected without evaluation.  Otherwise the step takes the swap
    :func:`evaluate_swaps` picks when it is strictly cheaper.

    ``anchor_set`` is None or ``sol.anchor_set`` itself: the coverage cache
    belongs to that set, so any other one is a ValueError.  So is a solution
    without ``center_ids``: search swaps data points only.
    """
    if anchor_set is not None and anchor_set is not sol.anchor_set:
        raise ValueError("anchor_set must be the solution's own anchor set (sol.anchor_set)")
    _require_center_ids(sol)
    if not sol.total_cost > 0:
        return sol, False
    p = d2_sample(sol, rng)
    if p in sol.center_ids:
        return sol, False
    dpsq, covers_p = _candidate_row(sol, p)
    cand = _best_swap(sol, p, *_swap_costs(sol, dpsq, covers_p))
    if cand is None or not cand.new_cost < sol.total_cost:
        return sol, False
    _apply_swap(sol, cand, dpsq, covers_p)
    return sol, True


def run(ds: Dataset, delta: RadiusBounds, cfg: LsConfig) -> tuple[Solution, RunTrace]:
    """Full pipeline, one seeded pass: seeding, random fill, ``iterations``
    swap steps.

    Init and search draw from one generator,
    ``np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])``,
    so the result is deterministic per seed.  Raises InfeasibleInstanceError
    (with the anchor count) when seeding needs more than k anchors.  Every
    returned solution serves each point within ``2 * gamma * delta(p)``;
    this is re-checked at return and cannot be disabled.
    """
    cfg.validate()
    if cfg.k > ds.n:
        raise ValueError(f"k={cfg.k} exceeds the number of points {ds.n}")
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
        if cfg.debug_checks and took:
            check_solution(sol, delta)

    ratio, worst = bound_ratio(ds, delta, sol.center_pos)
    if ratio > 2 * cfg.gamma * RADIUS_SLACK:
        raise AssertionError(
            f"radius guarantee violated: point {worst} at {ratio:.3f}x its bound"
        )
    return sol, RunTrace(initial_cost=initial, costs=costs, accepted=accepted)
