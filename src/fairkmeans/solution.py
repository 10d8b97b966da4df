"""A center set with the caches the search and refinement stages share.

:class:`Solution` is built from its centers alone, ids or positions.  Its
constructor derives every cache from them: each point's nearest and
second-nearest center from the one nearest-two pass (``_dist.two_nearest``),
the total cost, the D² cumsum the search draws from, the per-slot removal
costs its certificate reads, the anchor-zone coverage table and, for a
solution with ids at d <= 2, the search's box-ordered copies.  The points'
filter lift and box layout depend on the points alone and belong to the
dataset (``Dataset.lift``, ``Dataset.boxes``).
:func:`check_solution` is the debug oracle that compares a solution's
caches against a fresh rebuild, and :func:`check_guarantee` is the one
check that a solution keeps the promise: a center in every anchor zone, and
each point served within ``2 * gamma * delta(p)``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ._dist import _pair_sq_dists, fsum, two_nearest
from .anchors import AnchorSet, _coverage
from .dataset import (
    Dataset,
    RadiusBounds,
    check_cost_scale,
    check_positions,
    point_ids,
)
from .metrics import bound_ratio

RADIUS_SLACK = 1 + 1e-9  # float headroom on the 2*gamma postcondition


@dataclass(eq=False)
class Solution:
    """A k-center solution with the caches the search loop maintains.

    Built from its centers alone: ``center_ids``, a 1-D array of point ids
    (:func:`dataset.point_ids`), or ``center_pos``, a (k, d) array of the
    points' d columns (:func:`dataset.check_positions`); both, neither or
    anything else is a ValueError.  The solution holds the checked copies
    those return, float64 positions and int64 ids, so the search never
    writes to the caller's arrays nor truncates a new center to an integer
    dtype.  ``center_ids`` stays ``None`` for a solution built from
    positions, such as a refined one whose centers left the data points;
    ``center_pos`` is always valid.  ``anchor_set`` is
    :func:`anchors.seed`'s output.

    Every other field is derived, never passed in, so no caller can hand in
    a cache that disagrees with the centers.  ``assign``/``assign2`` hold
    the slot of each point's nearest and second-nearest center and
    ``d1sq``/``d2sq`` the matching squared distances (``assign2 = -1`` and
    ``d2sq = inf`` when k = 1), from one nearest-two pass
    (``_dist.two_nearest``).  ``total_cost`` is the k-means cost, their
    ``d1sq.sum()``; a total that overflows
    (:func:`dataset.check_cost_scale`) is a ValueError, and points whose
    squared distances underflow are rejected by the :class:`dataset.Dataset`
    constructor, so no solution reads a cost of 0 or inf that the points do
    not have.  Its single owner may round it another way later and keep it
    within 1e-9 relative of a recomputation: refinement sets its trace's
    correctly rounded last entry, the search its swap formula.
    ``covers`` is the (k, m) zone table of :func:`anchors._coverage`:
    ``covers[j, z]`` is True when center j lies in anchor zone z, and a
    valid solution has a True in every column.  The sums of
    ``_refresh_sums`` read the distance caches:

    * ``cum`` is ``np.cumsum(d1sq)``, the running total the search's D²
      draw reads;
    * ``loss[j]`` is the removal cost of slot j, the sum of
      ``d2sq - d1sq`` over the points whose nearest center it is, by
      ``np.bincount``;
    * ``boxed`` is ``(d1sq, d2sq, assign)`` laid out as the points' box
      layout, ``np.take(values, ds.boxes.order)``, and ``reach`` the
      largest ``d2sq`` in each box: the search's copies, which exist for a
      solution with ``center_ids`` on a dataset with a box layout (d <= 2);
      None at d > 2 and for a solution without ids, which the search
      cannot swap.

    ``loss``, ``boxed`` and ``reach`` are what the search's certificate and
    its finder read (``local_search._certified``).  Only this class decides
    whether ``boxed`` and ``reach`` exist; an accepted swap refreshes every
    sum present.

    Solutions are single-owner: only the loop that created one mutates it.
    """

    ds: Dataset
    anchor_set: AnchorSet
    center_ids: np.ndarray | None = None
    center_pos: np.ndarray | None = None
    assign: np.ndarray = field(init=False)
    assign2: np.ndarray = field(init=False)
    d1sq: np.ndarray = field(init=False)
    d2sq: np.ndarray = field(init=False)
    total_cost: float = field(init=False)
    cum: np.ndarray = field(init=False)
    covers: np.ndarray = field(init=False)
    loss: np.ndarray = field(init=False)
    boxed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(init=False)
    reach: np.ndarray | None = field(init=False)

    def __post_init__(self):
        if self.center_pos is None:
            if self.center_ids is None:
                raise ValueError("need center ids or positions")
            self.center_ids = point_ids(self.ds, self.center_ids)
            self.center_pos = self.ds.points[self.center_ids]
        elif self.center_ids is not None:
            raise ValueError("pass center_ids or center_pos, not both")
        else:
            self.center_pos = check_positions(self.center_pos, self.ds.d)
        nearest = two_nearest(self.ds.points, self.center_pos)
        self.assign, self.assign2, self.d1sq, self.d2sq = nearest
        with np.errstate(over="ignore"):  # an inf total is the check's ValueError
            self.total_cost = float(self.d1sq.sum())
        check_cost_scale(self.total_cost)
        self.covers = _coverage(self.anchor_set, self.center_pos)
        self._refresh_sums()

    def _refresh_sums(self) -> None:
        """Rebuild ``cum``, ``loss`` and, for a solution with ids on a
        dataset with a box layout, ``boxed`` and ``reach`` from the distance
        caches and slots, as the constructor does and an accepted swap does
        after updating them."""
        self.cum = np.cumsum(self.d1sq)
        self.loss = np.bincount(self.assign, weights=self.d2sq - self.d1sq, minlength=self.k)
        self.boxed = self.reach = None
        if self.center_ids is not None and self.ds.boxes is not None:
            order = self.ds.boxes.order
            self.boxed = tuple(np.take(v, order) for v in (self.d1sq, self.d2sq, self.assign))
            self.reach = self.boxed[1].max(axis=1)

    @property
    def k(self) -> int:
        return self.center_pos.shape[0]


def check_solution(sol: Solution, delta: RadiusBounds | None = None) -> None:
    """Debug oracle: caches must match a from-scratch rebuild.

    Verifies that a solution with ids holds exactly the points at those
    ids (:func:`dataset.point_ids`), distances, the coverage table and the
    sums of ``Solution._refresh_sums`` (those present) bit for bit, the
    slots (:func:`_slots_hold`), cost coherence at 1e-9 relative, and then
    the promise
    (:func:`check_guarantee`, with the 2*gamma service bound when radii are
    supplied).  The rebuild from the positions (the :class:`Solution`
    constructor) raises its float-range ValueErrors.
    """
    if sol.center_ids is not None:
        at_ids = sol.ds.points[point_ids(sol.ds, sol.center_ids)]
        if not np.array_equal(at_ids, sol.center_pos):
            raise AssertionError("center ids out of sync with the center positions")
    fresh = Solution(sol.ds, sol.anchor_set, center_pos=sol.center_pos)
    if not np.array_equal(fresh.d1sq, sol.d1sq):
        raise AssertionError("d1 cache out of sync with the center set")
    if not np.array_equal(fresh.d2sq, sol.d2sq):
        raise AssertionError("d2 cache out of sync with the center set")
    if not _slots_hold(sol, sol.assign, sol.d1sq):
        raise AssertionError("nearest-center slots out of sync with the d1 cache")
    if sol.k == 1:
        second = np.array_equal(fresh.assign2, sol.assign2)
    else:
        second = _slots_hold(sol, sol.assign2, sol.d2sq) and not np.any(sol.assign2 == sol.assign)
    if not second:
        raise AssertionError("second-nearest slots out of sync with the d2 cache")
    # the slots may keep either center of a tie, so the sums are rebuilt on
    # a copy of the solution's own fields, whose distances are checked above
    rebuilt = copy.copy(sol)
    rebuilt._refresh_sums()
    sums = {"D² cumsum": "cum", "removal-cost": "loss", "box-ordered": "boxed", "box reach": "reach"}
    for name, cache in sums.items():
        if not _same(getattr(sol, cache), getattr(rebuilt, cache)):
            raise AssertionError(f"{name} cache out of sync with the center set")
    if not np.array_equal(fresh.covers, sol.covers):
        raise AssertionError("coverage table out of sync with the center set")
    exact = fsum(sol.d1sq)
    if abs(sol.total_cost - exact) > 1e-9 * max(1.0, abs(exact)):
        raise AssertionError("total cost drifted from the recomputed value")
    check_guarantee(sol, delta)


def _same(cache, rebuilt) -> bool:
    """Whether a cache equals its rebuild bit for bit: an array, a tuple of
    arrays, or None."""
    if cache is None or rebuilt is None:
        return cache is rebuilt
    if isinstance(rebuilt, tuple):
        return len(cache) == len(rebuilt) and all(map(_same, cache, rebuilt))
    return np.array_equal(cache, rebuilt)


def _slots_hold(sol: Solution, slots: np.ndarray, sq: np.ndarray) -> bool:
    """Whether every point's slot names a center at its cached squared
    distance by the kernel.  Tie-safe: on a tie the search may keep another
    slot than a fresh build picks, at the same distance."""
    if slots.min() < 0 or slots.max() >= sol.k:
        return False
    rows = np.arange(sol.ds.n)
    return np.array_equal(_pair_sq_dists(sol.ds.points, sol.center_pos, rows, slots), sq)


def check_guarantee(sol: Solution, delta: RadiusBounds | None = None) -> None:
    """The one check of the promise: AssertionError naming an anchor zone
    that holds no center, so that some point may be served beyond
    ``2 * gamma * delta(p)``, and, given the radii, naming the worst point
    served beyond that bound (with ``RADIUS_SLACK`` float headroom).  Reads
    the solution's coverage table, so its caches must be current."""
    empty = np.flatnonzero(~sol.covers.any(axis=0))
    if empty.size:
        zone = int(empty[0])
        raise AssertionError(
            f"anchor zone {zone} (of anchor {sol.anchor_set.anchors[zone]}) holds no center"
        )
    if delta is not None:
        ratio, worst = bound_ratio(sol.ds, delta, sol.center_pos)
        if ratio > 2 * sol.anchor_set.gamma * RADIUS_SLACK:
            raise AssertionError(
                f"point {worst} served at {ratio:.3f}x its radius, above "
                f"{2 * sol.anchor_set.gamma}"
            )
