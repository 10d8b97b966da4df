"""Anchor seeding and the zone geometry every stage reads.

Seeding repeatedly picks the uncovered point with the smallest radius until
every point p has an anchor within ``gamma * delta(p)``.  Each anchor defines
an anchor zone, the ball of radius ``gamma * delta(anchor)`` around it; any
center set that keeps at least one center in every zone serves every point
within ``2 * gamma * delta(p)``.

Picked radii are non-decreasing and the anchors' delta-balls are pairwise
disjoint, so on a feasible instance the procedure never returns more than k
anchors.  That argument needs the radius order, so an :class:`AnchorSet` is
built by :func:`seed` alone: holding one shows its zones came from the
covering pass.

Whether a position lies in a zone is decided here, by one comparison
(:func:`_zones`), for the coverage table the search and the promise check
read (:func:`_coverage`) and for refinement's pins and clamped moves
(:func:`clamped_moves`, :func:`_move`), so no two of them can disagree on a
boundary.  At the start of each refinement round every covered zone pins
exactly one of the centers inside it: its nearest one (lowest slot on
ties), which is its only coverer when there is just one.  A center's move
is a bisection along the segment from its current position to the cluster
mean, the largest step that keeps it inside every zone pinned to it.  Pins
are taken from start-of-round positions, so the result does not depend on
move order, and each pinned center stays inside its zone, so every zone
covered at the start of a round is still covered at its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dist import dists, sq_dist_matrix
from .dataset import Dataset, RadiusBounds, check_radii

# Halvings in a clamped move: its error is at most |mean - center| * 2**-40.
BISECTION_STEPS = 40


def _check_gamma(gamma: float) -> None:
    """ValueError unless ``gamma`` is a finite number above 2.  An infinite
    gamma makes the reach ``gamma * delta`` nan where delta is 0, and seeding
    would pick such a point forever."""
    if not (gamma > 2 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be a finite number above 2, got {gamma}")


@dataclass(frozen=True)
class AnchorSet:
    """Seeding output: anchor ids in pick order plus their zones.

    Built by :func:`seed` only, from the covering pass: ``anchors`` holds m
    int64 point ids, ``positions`` their (m, d) points and
    ``zone_radius[i]`` equals ``gamma * delta(anchors[i])``.
    """

    anchors: np.ndarray
    positions: np.ndarray
    zone_radius: np.ndarray
    gamma: float

    def __len__(self) -> int:
        return int(self.anchors.shape[0])


def seed(ds: Dataset, delta: RadiusBounds, gamma: float) -> AnchorSet:
    """Greedy covering pass: while some point p has no anchor within
    ``gamma * delta(p)``, add the uncovered point with the smallest radius
    (ties broken by lowest id).

    Returns the full anchor list even when it exceeds a caller's k; deciding
    feasibility is the caller's job so the anchor count can be reported.
    The package's one maker of an :class:`AnchorSet`, whose zones carry
    the guarantee only because they were picked in radius order.
    Points whose squared distances underflow float64 never get here,
    whatever the radii: the :class:`dataset.Dataset` constructor rejects
    them.
    """
    _check_gamma(gamma)
    check_radii(ds, delta)
    X = ds.points
    reach = gamma * delta.delta
    covered = np.zeros(ds.n, dtype=bool)
    picked: list[int] = []
    while True:
        open_ids = np.flatnonzero(~covered)
        if open_ids.size == 0:
            break
        pick = int(open_ids[np.argmin(delta.delta[open_ids])])
        picked.append(pick)
        covered |= dists(X, X[pick]) <= reach
    ids = np.asarray(picked, dtype=np.int64)
    return AnchorSet(ids, X[ids], gamma * delta.delta[ids], float(gamma))


def _zones(positions: np.ndarray, anchor_positions: np.ndarray, radii: np.ndarray):
    """The (k, m) distances from ``positions`` to the anchors, and whether
    each lies in the anchor's zone of radius ``radii`` (closed ball): the
    package's one zone-membership test."""
    dist = np.sqrt(sq_dist_matrix(positions, anchor_positions))
    return dist, dist <= radii


def _coverage(anchor_set: AnchorSet, positions: np.ndarray) -> np.ndarray:
    """Coverage table for the centers at ``positions``, a checked (k, d)
    float64 array: a (k, m) bool array whose entry [j, z] is True when
    center j lies in zone z (:func:`_zones`).  A valid solution has a True
    in every column."""
    return _zones(positions, anchor_set.positions, anchor_set.zone_radius)[1]


def _move(center: np.ndarray, mean: np.ndarray, anchor_positions: np.ndarray, radii: np.ndarray):
    """Farthest point toward ``mean`` on the segment from ``center`` that
    stays inside every constraint ball: refinement's one clamped move, on
    float64 arrays of d, d, (m, d) and m values.

    The feasible steps form an interval [0, t*] because the segment's
    intersection with each closed ball is convex and t=0 is feasible: the
    center must lie in every ball, else a ValueError naming the first ball
    it lies outside.  When the mean itself is feasible it is returned
    exactly; otherwise t* is located by ``BISECTION_STEPS`` halvings, an
    error of at most ``|mean - center| * 2**-BISECTION_STEPS``.
    """
    # a center no zone is pinned to moves to its mean
    if radii.size == 0:
        return mean

    def feasible(t: float) -> bool:
        pos = (1.0 - t) * center + t * mean
        return bool(_zones(pos[None], anchor_positions, radii)[1].all())

    # the precondition and the whole step, in one zone test
    inside = _zones(np.stack([center, mean]), anchor_positions, radii)[1]
    outside = np.flatnonzero(~inside[0])
    if outside.size:
        raise ValueError(
            f"center lies outside constraint ball {int(outside[0])}; it must start inside every ball"
        )
    if inside[1].all():
        return mean.copy()
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return (1.0 - lo) * center + lo * mean


def _pins(anchor_set: AnchorSet, positions: np.ndarray) -> np.ndarray:
    """Per zone, the slot of the center it pins for a refinement round from
    ``positions``: its nearest coverer, lowest slot on ties; -1 for a zone
    no center covers."""
    dist, covers = _zones(positions, anchor_set.positions, anchor_set.zone_radius)
    covered = covers.any(axis=0)
    pin = np.full(len(anchor_set), -1)
    pin[covered] = np.argmin(np.where(covers, dist, np.inf)[:, covered], axis=0)
    return pin


def clamped_moves(anchor_set: AnchorSet, positions: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Every center's candidate for one refinement round: row j is the
    clamped move (:func:`_move`) from ``positions[j]``, the start-of-round
    position, toward ``means[j]``, within the zones pinned to center j
    (the module docstring's rule).  A (k, d) array; whichever candidates
    a round takes, every zone covered at ``positions`` stays covered.
    ``positions`` and ``means`` are the refinement loop's own float64
    arrays."""
    k = positions.shape[0]
    pin = _pins(anchor_set, positions)
    zones = [(anchor_set.positions[pin == j], anchor_set.zone_radius[pin == j]) for j in range(k)]
    return np.array([_move(positions[j], means[j], *zones[j]) for j in range(k)])
