"""A center set with the caches the search and refinement stages share.

:class:`Solution` holds the centers plus each point's nearest and
second-nearest center and the anchor-zone coverage table;
:func:`nearest_two` reads the per-point caches off an (n, k)
squared-distance matrix, :func:`check_solution` is the debug oracle that
compares a solution's caches against a fresh rebuild, and
:func:`check_guarantee` is the one check that a solution keeps the promise:
a center in every anchor zone, and each point served within
``2 * gamma * delta(p)``.  The search keeps
its own state on a solution while it runs (:class:`_SearchState`): the
points' filter lift and the D² cumsum, both current after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._dist import Lift, fsum, sq_dist_matrix
from .anchors import AnchorSet, build_coverage
from .dataset import Dataset, RadiusBounds, center_positions, point_ids
from .metrics import bound_ratio

RADIUS_SLACK = 1 + 1e-9  # float headroom on the 2*gamma postcondition


@dataclass(eq=False)
class _SearchState:
    """What the local search keeps between steps: the points' filter lift
    (``_dist.lift_points``; None where the filter declines), and
    ``cumsum(d1sq)`` for the D² draw, which every accepted swap refreshes in
    place, so it always matches ``d1sq``."""

    lift: Lift | None
    cum: np.ndarray


@dataclass(eq=False)
class Solution:
    """A k-center solution with the caches the search loop maintains.

    ``center_ids`` are dataset point ids, or ``None`` once a refinement stage
    has moved centers off the data points; ``center_pos`` is always valid.
    ``assign``/``assign2`` hold the slot of each point's nearest and
    second-nearest center and ``d1sq``/``d2sq`` the matching squared
    distances (``assign2 = -1`` and ``d2sq = inf`` when k = 1).
    ``covers`` is the (k, m) zone table of :func:`anchors.build_coverage`:
    ``covers[j, z]`` is True when center j lies in anchor zone z, and a
    valid solution has a True in every column.  ``total_cost`` is the
    k-means cost, kept consistent with a from-scratch recomputation to 1e-9
    relative.  ``_search`` is the search's :class:`_SearchState`, built
    on first use (the first step, draw or swap evaluation), kept current by
    every accepted swap, and dropped when :func:`local_search.run` returns.

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
    covers: np.ndarray
    total_cost: float
    _search: _SearchState | None = field(default=None, repr=False)

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
        incremental updates are checked against.  ``center_ids`` must be a
        1-D array of point ids (:func:`dataset.point_ids`) and
        ``center_pos`` a (k, d) array (:func:`dataset.center_positions`);
        anything else is a ValueError.  Both are copied, so the search never
        writes to the caller's arrays."""
        if center_pos is None:
            if center_ids is None:
                raise ValueError("need center ids or positions")
            center_ids = point_ids(ds, center_ids)
            center_pos = ds.points[center_ids]
        else:
            center_pos = center_positions(ds, np.asarray(center_pos, dtype=np.float64))
        return cls.from_sq_dists(
            ds, anchor_set, center_ids, center_pos, sq_dist_matrix(ds.points, center_pos)
        )

    @classmethod
    def from_sq_dists(
        cls,
        ds: Dataset,
        anchor_set: AnchorSet,
        center_ids: np.ndarray | None,
        center_pos: np.ndarray,
        M: np.ndarray,
    ) -> "Solution":
        """The :meth:`build` result for ``center_pos`` when the caller already
        holds ``M = sq_dist_matrix(ds.points, center_pos)``."""
        assign, assign2, d1sq, d2sq = nearest_two(M)
        return cls(
            ds=ds,
            anchor_set=anchor_set,
            center_ids=center_ids,
            center_pos=center_pos,
            assign=assign,
            assign2=assign2,
            d1sq=d1sq,
            d2sq=d2sq,
            covers=build_coverage(anchor_set, center_pos),
            total_cost=float(d1sq.sum()),
        )


def nearest_two(M: np.ndarray):
    """Nearest/second-nearest slots and squared distances, read off an (n, k)
    squared-distance matrix; ties go to the lower slot, as in a stable sort
    of each row.  ``M`` is masked in place and restored before returning,
    so no second (n, k) array is allocated."""
    n, k = M.shape
    rows = np.arange(n)
    assign = np.argmin(M, axis=1)
    d1sq = M[rows, assign]
    if k == 1:
        return assign, np.full(n, -1, dtype=np.int64), d1sq, np.full(n, np.inf)
    M[rows, assign] = np.inf
    assign2 = np.argmin(M, axis=1)
    M[rows, assign] = d1sq
    # a row whose other entries are all inf makes argmin return slot 0 even
    # when slot 0 is the nearest one; a stable sort puts slot 1 second there
    assign2[assign2 == assign] = 1
    return assign, assign2, d1sq, M[rows, assign2]


def check_solution(sol: Solution, delta: RadiusBounds | None = None) -> None:
    """Debug oracle: caches must match a from-scratch rebuild.

    Verifies distances, the coverage table, cost coherence at 1e-9
    relative, the search's D² cumsum (whenever the search state exists) bit
    for bit, and then the promise (:func:`check_guarantee`, with the
    2*gamma service bound when radii are supplied).
    """
    fresh = Solution.build(
        sol.ds, sol.anchor_set, center_ids=None, center_pos=sol.center_pos
    )
    if not np.array_equal(fresh.d1sq, sol.d1sq):
        raise AssertionError("d1 cache out of sync with the center set")
    if not np.array_equal(fresh.d2sq, sol.d2sq):
        raise AssertionError("d2 cache out of sync with the center set")
    if not np.array_equal(fresh.covers, sol.covers):
        raise AssertionError("coverage table out of sync with the center set")
    if sol._search is not None and not np.array_equal(sol._search.cum, np.cumsum(sol.d1sq)):
        raise AssertionError("D² cumsum cache out of sync with d1sq")
    exact = fsum(sol.d1sq)
    if abs(sol.total_cost - exact) > 1e-9 * max(1.0, abs(exact)):
        raise AssertionError("total cost drifted from the recomputed value")
    check_guarantee(sol, delta)


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
