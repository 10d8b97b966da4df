"""Constrained local search for individually fair k-means.

The solver seeds anchors, fills up to k centers with random points, then runs
a fixed number of single-swap steps.  Each step samples a candidate point
with probability proportional to its squared distance to the current centers,
which is never a center (:func:`_d2_draw` draws only positive weights),
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
the distance pass gives kernel values only to the rows a finder keeps, a
superset of those points, and +inf to the rest, which gives the same sums
and caches bit for bit.  ``_dist`` alone chooses the finder
(:func:`fairkmeans._dist.near_sq_dists`): the points' dot-product lift at
d > 2 (``Dataset.lift``), their box layout at d <= 2 (``Dataset.boxes``),
or every row.  At d <= 2 the search reads the solution's caches in the
layout's order and each box's largest ``d2^2`` (``Solution.boxed`` and
``Solution.reach``), which the solution builds with its other caches.  An
accepted swap re-scans the points whose nearest or second-nearest center
left with the nearest-two pass of ``Solution.build``
(:func:`fairkmeans._dist.two_nearest`, whose filter ``_dist`` chooses from
the centers).  The D^2 draw reads the solution's cumsum cache
(``Solution.cum``) and the certificate below its removal costs
(``Solution.loss``); every accepted swap refreshes them all.  The search
keeps no state of its own, and a draw or a swap evaluation changes nothing
it reads.

**Certified rejection.**  Most steps are rejected.  With S = sum_x d1(x)^2,
the removal cost ``L_j = sum_{x: nearest(x)=j} (d2(x)^2 - d1(x)^2)``
(``Solution.loss``) and N the rows the finder keeps, the cost of swapping p
in for slot j is exactly::

    C_j = (S - G) + (L_j - F_j),   G = sum_{x in N} max(d1(x)^2 - dp(x), 0),
    F_j = sum_{x in N: nearest(x)=j} (max(d2(x)^2 - dp(x), 0) - max(d1(x)^2 - dp(x), 0)),

since ``min(a, dp) = a - max(a - dp, 0)``, and a row outside N has
``dp > d2^2 >= d1^2`` and adds 0 to G and F.  A step prices its swaps from
N alone (:func:`_certified`), with ``T = cum[-1]`` for S, and rejects
without the full pass when ``C_j - margin >= total_cost`` for every
admissible slot j, with ``margin = fl(fl(T + max_j L_j)·(n + 2)·2**-50) +
2**-1070``.

*The margin's proof.*  Let u = 2**-53, gamma_m = m·u / (1 - m·u), and take
the cached floats (d1^2, d2^2, dp, ``total_cost``) as exact; S, L = L_j, G,
F = F_j and C = C_j are the exact values of the sums above, with
0 <= G <= S and 0 <= F <= L.  Higham, *Accuracy and Stability of Numerical
Algorithms*, §3.1 (as in ``_dist.ranked_sq_dist``): a sum of m terms in any
order (numpy's pairwise ``sum``, the running sums of ``cumsum`` and
``bincount``) errs by at most gamma_{m-1} times the sum of the terms'
magnitudes, and a correctly rounded addition or subtraction by u times its
result, also in the subnormal range.

* The full pass (:func:`_swap_costs`) prices slot j as ``fl(base +
  corr_j)``: base sums n values ``min(d1^2, dp) <= d1^2``, and corr_j sums
  at most n rounded differences ``min(d2^2, dp) - min(d1^2, dp)``, each in
  [0, d2^2 - d1^2].  It errs from C by at most gamma_{n+1}(S + L).
* The certificate: T, a running sum of n terms, errs by at most
  gamma_{n-1}·S.  A term of G is ``max(fl(d1^2 - dp), 0)``, the exact term
  times 1 + delta (a negative difference rounds to at most 0), so G errs by
  at most gamma_n·S.  L, a ``bincount`` of rounded ``d2^2 - d1^2``, errs by
  gamma_n·L.  A term of F is the rounded difference of two such rounded
  terms e2 = max(d2^2 - dp, 0) <= d2^2 and e1 <= d1^2, and errs by at most
  gamma_2(e1 + e2); the e1 + e2 of the slot's rows sum to at most 2S + L,
  so F errs by at most gamma_{n+1}(2S + 2L).  The two subtractions and the
  addition that combine them add gamma_2(S + L) to first order: in all
  (4n + 4)u(S + L) to first order.
* The test is ``fl(min_j C'_j - margin) >= total_cost`` over the
  admissible slots, with C'_j the certificate's values.  Rounding is
  monotone, so it holds exactly when ``fl(C'_j - margin) >= total_cost``
  for each of them, and each of those rounds once: total_cost is a float,
  so it implies ``C'_j - margin >= total_cost·(1 - u)``, and total_cost
  <= C'_j <= S + L to first order.

So a slot that passes has a full-pass value of at least
``total_cost + margin - (5n + 6)u(S + L)`` to first order.  fl(T +
max_j L_j) is at least (S + L)(1 - gamma_{n+1}); the product with the
exact (n + 2)·2**-50 = 8(n + 2)u rounds by u relative, or by at most
2**-1075 where it is subnormal, which the 2**-1070 covers.  So the margin
is at least 8(n + 2)u(S + L)(1 - gamma_{n+3}), and its room of
(3n + 10)u(S + L) above the first-order sum covers the second-order terms
for n <= 2**33 (n·u at most 2**-20).  Then every admissible full-pass
value is at least ``total_cost`` and the full pass rejects too: the
certificate only skips work that the full pass would throw away.

*Where it declines.*  The full pass runs, on the row of the finder's kernel
values with +inf elsewhere, whenever some admissible slot fails the test
(every accepted step, and every rejection whose best swap ties
``total_cost`` or lies within the margin of it), and whenever the margin is
not finite: at k = 1, where d2^2 is inf and so is L, and where
``d2^2 - d1^2`` or ``T + max_j L_j`` overflows.  A step with no admissible
slot rejects before any row pass, as the full pass would.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._dist import kept_values, near_sq_dists, two_nearest
from .anchors import AnchorSet, _check_gamma, _coverage, seed
from .dataset import Dataset, RadiusBounds, _check_integer, _rng, check_cost_scale
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
    """Per-iteration cost (after the step) and whether the swap was taken,
    and why the other steps were rejected.

    The two rejection counts sum to ``steps - accepted``: every swap would
    empty an anchor zone (``rejected_inadmissible``), or no admissible swap
    is strictly cheaper (``rejected_no_gain``, which also counts a
    zero-cost solution, where nothing is drawn).  ``certified`` counts the
    no-gain rejections that the certificate settled without the full pass
    (see the module docstring).  No step draws a center: its weight in the
    D^2 draw is 0 (:func:`_d2_draw`).
    """

    initial_cost: float
    costs: np.ndarray
    accepted: np.ndarray
    rejected_inadmissible: int
    rejected_no_gain: int
    certified: int

    @property
    def accepted_count(self) -> int:
        return int(self.accepted.sum())


def init_solution(ds: Dataset, anchor_set: AnchorSet, k: int, seed) -> Solution:
    """Anchors plus uniform random distinct non-anchor points, caches built.

    ``anchor_set`` is :func:`anchors.seed`'s output for ``ds``, and
    ``seed`` may be an int or a numpy Generator.  Raises
    InfeasibleInstanceError when there are more anchors than k, and
    :meth:`Solution.build`'s ValueError for a total cost that overflows.
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
    check_guarantee(sol)
    return sol


def _d2_draw(cum: np.ndarray, rng: np.random.Generator) -> int | None:
    """Index i drawn with probability weights[i] / sum(weights), from one
    uniform draw, given ``cum = np.cumsum(weights)`` of nonnegative
    weights; None, with ``rng`` untouched, when the total is zero.  The
    D^2 draw of the search and of k-means++ seeding, whose weights are the
    squared distances to the nearest center, so their total is the total
    cost: one that overflowed to inf is :func:`dataset.check_cost_scale`'s
    ValueError, with ``rng`` untouched.

    The index returned always has a positive weight, so the draw never
    lands on a center (or a point on one).  ``cumsum`` adds in order, so
    ``cum`` never decreases and rises only at a positive weight:
    ``cum[i] > cum[i - 1]`` (or ``cum[0] > 0``) means ``weights[i] > 0``.
    The draw is ``x = fl(u·total)`` with u a multiple of 2**-53 in [0, 1),
    so 0 <= x <= total, and the index is the first i with

    * ``cum[i] > x`` where x < total: it exists, as ``cum[-1] = total``,
      and ``cum[i - 1] <= x < cum[i]``;
    * ``cum[i] >= x`` where x = total: then ``cum[i] = total``, and
      ``cum[i - 1] < total`` by the choice of the first.

    x reaches total only where total <= 2**-1022.  Above it, u·total is at
    most total - total·2**-53, which is the float below total where total
    is a power of two and otherwise lies more than half a float spacing
    below total, so x < total.  At or below it the spacing is 2**-1074, and
    that gap of at most 2**-1075 may round up to total.
    """
    total = cum[-1]
    check_cost_scale(total)
    if not total > 0:
        return None
    x = rng.random() * total
    return int(np.searchsorted(cum, x, side="right" if x < total else "left"))


def d2_sample(sol: Solution, rng: np.random.Generator) -> int:
    """Draw a point id with probability d1(p)^2 / sum_q d1(q)^2: the draw
    :func:`ls_step` makes, from the same cached cumsum.  The id is never a
    center's, whose d1(p)^2 is 0 (:func:`_d2_draw`); a zero total cost is a
    ValueError."""
    idx = _d2_draw(sol.cum, rng)
    if idx is None:
        raise ValueError("total cost is zero; every point already sits on a center")
    return idx


def _near_row(sol: Solution, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(kept, dp)``: the finder's selection of the rows point p may move,
    and their squared distances to p
    (:func:`fairkmeans._dist.near_sq_dists`).  The box layout serves a
    solution that holds box-ordered copies (``Solution.boxed``): every
    solution with ids at d <= 2."""
    ds = sol.ds
    boxes = None if sol.boxed is None else ds.boxes
    return near_sq_dists(ds.points, p, sol.d2sq, ds.lift, boxes, sol.reach)


def _near_caches(sol: Solution, kept: np.ndarray, count: int):
    """``(d1sq, d2sq, assign)`` at the ``count`` rows the finder kept, in
    the order of its values; the two distance arrays are copies, which the
    caller may overwrite."""
    caches = (sol.d1sq, sol.d2sq, sol.assign) if sol.boxed is None else sol.boxed
    return (kept_values(a, kept, count) for a in caches)


def _full_row(sol: Solution, kept: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """The full pass's row: ``dp`` at the rows the finder kept and +inf
    elsewhere (see the module docstring)."""
    rows = kept if sol.boxed is None else kept_values(sol.ds.boxes.order, kept, dp.size)
    dpsq = np.full(sol.ds.n, np.inf)
    dpsq[rows] = dp
    return dpsq


def _zone_row(sol: Solution, p: int) -> np.ndarray:
    """The zones point p lies in."""
    return _coverage(sol.anchor_set, sol.ds.points[p][None])[0]


def _admissible(sol: Solution, covers_p: np.ndarray) -> np.ndarray:
    """Which slots p may take: removing q only breaks a zone that q alone
    covers and p does not enter."""
    critical = (sol.covers.sum(axis=0) == 1) & ~covers_p
    return ~(sol.covers & critical).any(axis=1)


def _swap_costs(sol: Solution, dpsq: np.ndarray) -> np.ndarray:
    """The full pass: the cost of swapping in the candidate whose row is
    ``dpsq`` for each slot, from every row."""
    a = np.minimum(sol.d1sq, dpsq)
    b = np.minimum(sol.d2sq, dpsq)
    base = float(a.sum())
    corr = np.bincount(sol.assign, weights=b - a, minlength=sol.k)
    with np.errstate(over="ignore"):  # a cost above float64's range is inf
        return base + corr


def _certified(
    sol: Solution, kept: np.ndarray, dp: np.ndarray, admissible: np.ndarray
) -> bool:
    """Whether the certificate of the module docstring proves that no
    admissible swap is strictly cheaper than ``sol.total_cost``, from the
    finder's rows alone; False where it declines."""
    T = sol.cum[-1]
    with np.errstate(over="ignore"):  # an infinite margin declines
        margin = (T + sol.loss.max()) * ((sol.ds.n + 2) * 2.0**-50) + 2.0**-1070
    if not np.isfinite(margin):
        return False
    gain, fix, slot = _near_caches(sol, kept, dp.size)
    np.subtract(gain, dp, out=gain)
    np.maximum(gain, 0.0, out=gain)
    np.subtract(fix, dp, out=fix)
    np.maximum(fix, 0.0, out=fix)
    fix -= gain
    costs = (T - gain.sum()) + (sol.loss - np.bincount(slot, weights=fix, minlength=sol.k))
    return bool(costs[admissible].min() - margin >= sol.total_cost)


def _best_swap(
    sol: Solution, new_costs: np.ndarray, admissible: np.ndarray
) -> tuple[int, float]:
    """``(slot, new_cost)`` of the cheapest admissible swap, ties going to
    the lowest center id; some swap must be admissible."""
    best = new_costs[admissible].min()
    tied = np.flatnonzero(admissible & (new_costs == best))
    return int(tied[np.argmin(sol.center_ids[tied])]), float(best)


def swap_costs(sol: Solution, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Cost of swapping point p in for each center, and which swaps keep
    every anchor zone of ``sol.anchor_set`` covered.

    Returns ``(new_costs, admissible)`` indexed by center slot, from the
    full pass.  ``p`` is a point id in ``[0, n)``; anything else is a
    TypeError or ValueError naming it.
    """
    _check_integer("p", p, 0, sol.ds.n - 1)
    dpsq = _full_row(sol, *_near_row(sol, p))
    return _swap_costs(sol, dpsq), _admissible(sol, _zone_row(sol, p))


def _apply_swap(
    sol: Solution, p: int, j: int, new_cost: float, dpsq: np.ndarray, covers_p: np.ndarray
) -> None:
    """Put point p in slot j and restore every cache.

    Points whose nearest or second-nearest center was the removed one get a
    k-scan against the new center set: the nearest-two pass
    (:func:`fairkmeans._dist.two_nearest`, which decides whether its filter
    applies) writes their four caches.  Everyone else only needs a comparison
    against the new center's distances: p becomes the nearest center of the
    ``closer`` rows and the second-nearest of the ``mid`` rows.  What the
    draw, the finder and the certificate read (``cum``, ``loss``,
    ``boxed``, ``reach``) is rebuilt from the new caches.
    """
    X = sol.ds.points
    sol.center_ids[j] = p
    sol.center_pos[j] = X[p]

    affected = (sol.assign == j) | (sol.assign2 == j)
    rows = np.flatnonzero(affected)
    if rows.size:
        sol.assign[rows], sol.assign2[rows], sol.d1sq[rows], sol.d2sq[rows] = two_nearest(
            np.take(X, rows, axis=0), sol.center_pos
        )

    closer = ~affected & (dpsq < sol.d1sq)
    mid = ~affected & ~closer & (dpsq < sol.d2sq)
    np.copyto(sol.d2sq, sol.d1sq, where=closer)
    np.copyto(sol.assign2, sol.assign, where=closer)
    np.copyto(sol.d1sq, dpsq, where=closer)
    np.copyto(sol.assign, j, where=closer)
    np.copyto(sol.d2sq, dpsq, where=mid)
    np.copyto(sol.assign2, j, where=mid)

    sol.covers[j, :] = covers_p
    sol.total_cost = new_cost
    sol._refresh_sums()


def _step(sol: Solution, rng: np.random.Generator) -> str:
    """One sampled-swap step on ``sol``, in place; returns the branch it
    took: ``"accepted"``, ``"inadmissible"``, ``"no_gain"`` or
    ``"certified"`` (a no-gain rejection the certificate settled)."""
    p = _d2_draw(sol.cum, rng)
    if p is None:
        return "no_gain"
    covers_p = _zone_row(sol, p)
    admissible = _admissible(sol, covers_p)
    if not admissible.any():
        return "inadmissible"
    kept, dp = _near_row(sol, p)
    if _certified(sol, kept, dp, admissible):
        return "certified"
    dpsq = _full_row(sol, kept, dp)
    slot, new_cost = _best_swap(sol, _swap_costs(sol, dpsq), admissible)
    if not new_cost < sol.total_cost:
        return "no_gain"
    _apply_swap(sol, p, slot, new_cost, dpsq, covers_p)
    return "accepted"


def ls_step(
    sol: Solution, anchor_set: AnchorSet | None, rng: np.random.Generator
) -> tuple[Solution, bool]:
    """One sampled-swap step; mutates ``sol`` in place.

    Returns the solution and whether a swap was applied.  A zero-cost
    solution short-circuits (nothing left to sample).  The draw never
    samples a center, whose weight is 0 (:func:`_d2_draw`), and a point
    for which every swap would empty an anchor zone is rejected without
    evaluation.  Otherwise the step takes the cheapest swap
    that keeps every anchor zone covered (:func:`swap_costs`), ties going
    to the lowest center id, when it is strictly cheaper; a rejection that
    the certificate of the module docstring settles skips the full pass.
    The draw is the one :func:`d2_sample` makes, from ``sol.cum``.

    ``anchor_set`` is None or ``sol.anchor_set`` itself, :func:`anchors.seed`'s
    output: the coverage cache belongs to that set, so any other one is a
    ValueError.  So is a solution
    without ``center_ids``: search swaps data points only.
    """
    if anchor_set is not None and anchor_set is not sol.anchor_set:
        raise ValueError("anchor_set must be the solution's own anchor set (sol.anchor_set)")
    if sol.center_ids is None:
        raise ValueError(
            "local search needs centers at data points; this solution has no "
            "center_ids (a refined solution cannot be searched)"
        )
    return sol, _step(sol, rng) == "accepted"


def run(ds: Dataset, delta: RadiusBounds, cfg: LsConfig) -> tuple[Solution, RunTrace]:
    """Full pipeline, one seeded pass: seeding, random fill, ``iterations``
    swap steps.

    Init and search draw from one generator,
    ``np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])``,
    so the result is deterministic per seed.  Raises InfeasibleInstanceError
    (with the anchor count) when seeding needs more than k anchors.  Every
    returned solution serves each point within ``2 * gamma * delta(p)``;
    this is re-checked at return (:func:`solution.check_guarantee`) and
    cannot be disabled.  The returned solution holds every cache the
    search keeps, the box-ordered copies at d <= 2 (``Solution.boxed``)
    included, so a later :func:`ls_step` continues from it as it is.
    """
    cfg.validate()
    anchor_set = seed(ds, delta, cfg.gamma)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    sol = init_solution(ds, anchor_set, cfg.k, rng)
    costs = np.empty(cfg.iterations)
    accepted = np.zeros(cfg.iterations, dtype=bool)
    initial = sol.total_cost
    branches = Counter()
    for i in range(cfg.iterations):
        branch = _step(sol, rng)
        branches[branch] += 1
        costs[i] = sol.total_cost
        accepted[i] = branch == "accepted"

    check_guarantee(sol, delta)
    return sol, RunTrace(
        initial_cost=initial,
        costs=costs,
        accepted=accepted,
        rejected_inadmissible=branches["inadmissible"],
        rejected_no_gain=branches["no_gain"] + branches["certified"],
        certified=branches["certified"],
    )
