"""A center set with the caches the search and refinement stages share.

:class:`Solution` holds the centers plus each point's nearest and
second-nearest center, which :meth:`Solution.build` and a refined solution
take from the one nearest-two pass (``_dist.two_nearest``).  The D² cumsum
the search draws from, the per-slot removal costs its certificate reads and
the anchor-zone coverage table are built from those fields by the constructor
itself, never passed in, and so are, for a solution with ids at d <= 2, the
search's box-ordered copies; the points' filter lift and box layout depend
on the points alone and belong to the dataset (``Dataset.lift``,
``Dataset.boxes``).
:func:`check_solution` is the debug oracle that compares a solution's
caches against a fresh rebuild, and :func:`check_guarantee` is the one
check that a solution keeps the promise: a center in every anchor zone, and
each point served within ``2 * gamma * delta(p)``.
"""

from __future__ import annotations

import dataclasses
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

    ``center_ids`` are dataset point ids, or ``None`` once a refinement stage
    has moved centers off the data points; ``center_pos`` is always valid.
    ``assign``/``assign2`` hold the slot of each point's nearest and
    second-nearest center and ``d1sq``/``d2sq`` the matching squared
    distances (``assign2 = -1`` and ``d2sq = inf`` when k = 1).
    ``total_cost`` is the k-means cost, kept consistent with a from-scratch
    recomputation to 1e-9 relative; each constructor rounds it its own way
    (:meth:`build` sums ``d1sq``, refinement takes its trace's correctly
    rounded last entry, the search its swap formula).

    The other caches are not constructor arguments: they are built from
    the fields, so no caller can hand in a table that disagrees with the
    centers.  ``covers`` is the (k, m) zone table of
    :func:`anchors._coverage`: ``covers[j, z]`` is True when center j lies
    in anchor zone z, and a valid solution has a True in every column.
    The sums of ``_refresh_sums`` read the distance caches:

    * ``cum`` is ``np.cumsum(d1sq)``, the running total the search's D²
      draw reads;
    * ``loss[j]`` is the removal cost of slot j, the sum of
      ``d2sq - d1sq`` over the points whose nearest center it is, by
      ``np.bincount``;
    * ``boxed`` is ``(d1sq, d2sq, assign)`` laid out as the points' box
      layout, ``np.take(values, ds.boxes.order)``, and ``reach`` the
      largest ``d2sq`` in each box: the search's copies, which the
      constructor builds for a solution with ``center_ids`` on a dataset
      with a box layout (d <= 2); None at d > 2 and for a solution without
      ids (refined, or built from positions), which the search cannot
      swap.

    ``loss``, ``boxed`` and ``reach`` are what the search's certificate and
    its finder read (``local_search._certified``).  Only this class decides
    whether ``boxed`` and ``reach`` exist; an accepted swap refreshes every
    sum present.

    ``anchor_set`` is :func:`anchors.seed`'s output, ``center_pos`` must
    be a (k, d) array of the points' d columns
    (:func:`dataset.check_positions`) and ``center_ids``, if given, point
    ids (:func:`dataset.point_ids`), else a ValueError.  The solution holds
    the checked copies those return, float64 positions and int64 ids, so
    the search never writes to the caller's arrays nor truncates a new
    center to an integer dtype.

    Solutions are single-owner: only the loop that created one mutates it.
    """

    ds: Dataset
    anchor_set: AnchorSet
    center_ids: np.ndarray | None
    center_pos: np.ndarray
    assign: np.ndarray
    assign2: np.ndarray
    d1sq: np.ndarray
    d2sq: np.ndarray
    total_cost: float
    cum: np.ndarray = field(init=False)
    covers: np.ndarray = field(init=False)
    loss: np.ndarray = field(init=False)
    boxed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(init=False)
    reach: np.ndarray | None = field(init=False)

    def __post_init__(self):
        self.center_pos = check_positions(self.center_pos, self.ds.d)
        if self.center_ids is not None:
            self.center_ids = point_ids(self.ds, self.center_ids)
        self.covers = _coverage(self.anchor_set, self.center_pos)
        self.cum = np.empty(self.ds.n)
        self.loss = np.empty(self.k)
        self.boxed = self.reach = None
        if self.center_ids is not None and self.ds.boxes is not None:
            shape = self.ds.boxes.order.shape
            self.boxed = (np.empty(shape), np.empty(shape), np.empty(shape, self.assign.dtype))
            self.reach = np.empty(shape[0])
        self._refresh_sums()

    def _refresh_sums(self) -> None:
        """Rebuild ``cum``, ``loss`` and, where present, ``boxed`` and
        ``reach`` in place from the distance caches and slots, as the
        constructor does and an accepted swap does after updating them."""
        np.cumsum(self.d1sq, out=self.cum)
        self.loss[:] = np.bincount(self.assign, weights=self.d2sq - self.d1sq, minlength=self.k)
        if self.boxed is not None:
            for copy, values in zip(self.boxed, (self.d1sq, self.d2sq, self.assign)):
                np.take(values, self.ds.boxes.order, out=copy)
            np.max(self.boxed[1], axis=1, out=self.reach)

    @property
    def k(self) -> int:
        return self.center_pos.shape[0]

    @classmethod
    def build(
        cls,
        ds: Dataset,
        anchor_set: AnchorSet,
        center_ids: np.ndarray | None = None,
        center_pos: np.ndarray | None = None,
    ) -> "Solution":
        """From-scratch construction of every cache; the oracle the
        incremental updates are checked against.  ``anchor_set`` is
        :func:`anchors.seed`'s output.  Takes either
        ``center_ids``, a 1-D array of point ids (:func:`dataset.point_ids`),
        or ``center_pos``, a (k, d) array (:func:`dataset.check_positions`);
        both, neither or anything else is a ValueError.  A total cost
        that overflows (:func:`dataset.check_cost_scale`) is a ValueError
        too, and points whose squared distances underflow are rejected by
        the :class:`dataset.Dataset` constructor, so no solution built
        here, for ``init_solution`` or :func:`check_solution`, reads a
        cost of 0 or inf that the points do not have."""
        if center_pos is None:
            if center_ids is None:
                raise ValueError("need center ids or positions")
            center_pos = ds.points[point_ids(ds, center_ids)]
        elif center_ids is not None:
            raise ValueError("pass center_ids or center_pos, not both")
        else:
            center_pos = check_positions(center_pos, ds.d)
        assign, assign2, d1sq, d2sq = two_nearest(ds.points, center_pos)
        with np.errstate(over="ignore"):  # an inf total is the check's ValueError
            total_cost = float(d1sq.sum())
        check_cost_scale(total_cost)
        return cls(
            ds=ds,
            anchor_set=anchor_set,
            center_ids=center_ids,
            center_pos=center_pos,
            assign=assign,
            assign2=assign2,
            d1sq=d1sq,
            d2sq=d2sq,
            total_cost=total_cost,
        )


def check_solution(sol: Solution, delta: RadiusBounds | None = None) -> None:
    """Debug oracle: caches must match a from-scratch rebuild.

    Verifies that a solution with ids holds exactly the points at those
    ids (:func:`dataset.point_ids`), distances, the coverage table and the
    sums of ``Solution._refresh_sums`` (those present) bit for bit, the
    slots (:func:`_slots_hold`), cost coherence at 1e-9 relative, and then
    the promise
    (:func:`check_guarantee`, with the 2*gamma service bound when radii are
    supplied).  The rebuild from the positions (:meth:`Solution.build`)
    raises its float-range ValueErrors.
    """
    if sol.center_ids is not None:
        at_ids = sol.ds.points[point_ids(sol.ds, sol.center_ids)]
        if not np.array_equal(at_ids, sol.center_pos):
            raise AssertionError("center ids out of sync with the center positions")
    fresh = Solution.build(sol.ds, sol.anchor_set, center_pos=sol.center_pos)
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
    # the solution's own fields, whose distances are checked above
    rebuilt = dataclasses.replace(sol)
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
