"""Anchor seeding and the zone geometry every stage reads.

Seeding repeatedly picks the uncovered point with the smallest radius until
every point p has an anchor within ``gamma * delta(p)``.  Each anchor defines
an anchor zone, the ball of radius ``gamma * delta(anchor)`` around it; any
center set that keeps at least one center in every zone serves every point
within ``2 * gamma * delta(p)``.

Picked radii are non-decreasing and the anchors' delta-balls are pairwise
disjoint, so on a feasible instance the procedure never returns more than k
anchors.

Whether a position lies in a zone is decided here, by one comparison
(:func:`_zones`), for the coverage table the search and the promise check
read (:func:`build_coverage`) and for refinement's pins and clamped moves
(:func:`clamped_moves`, :func:`fair_move_center`), so no two of them can
disagree on a boundary.  At the start of each refinement round every
covered zone pins exactly one of the centers inside it: its nearest one
(lowest slot on ties), which is its only coverer when there is just one.  A
center's move is a bisection along the segment from its current position to
the cluster mean, the largest step that keeps it inside every zone pinned
to it.  Pins are taken from start-of-round positions, so the result does
not depend on move order, and each pinned center stays inside its zone, so
every zone covered at the start of a round is still covered at its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dist import dists, sq_dist_matrix
from .dataset import (
    Dataset,
    RadiusBounds,
    _check_integers,
    as_floats,
    check_positions,
    check_radii,
    check_radius_values,
)

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

    ``zone_radius[i]`` equals ``gamma * delta(anchors[i])``.  A set of m
    anchors has 1-D ``anchors`` and ``zone_radius`` of length m, finite
    and nonnegative radii (:func:`dataset.check_radius_values`), and finite
    (m, d) ``positions``; m = 0 is valid.  The fields are stored as int64
    ids and fresh float64 positions and radii (:func:`dataset.as_floats`);
    ids that are not integers and complex values are a TypeError, and each
    other fault is a ValueError that names it.
    """

    anchors: np.ndarray
    positions: np.ndarray
    zone_radius: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "anchors", _check_integers("anchors", self.anchors))
        object.__setattr__(self, "positions", as_floats("anchor positions", self.positions))
        object.__setattr__(self, "zone_radius", as_floats("zone radii", self.zone_radius))
        if self.anchors.ndim != 1:
            raise ValueError(f"anchors must be a 1-D id array, got shape {self.anchors.shape}")
        if self.positions.ndim != 2 or self.positions.shape[0] != self.anchors.shape[0]:
            raise ValueError(
                f"anchor positions must be one row per anchor, got shape "
                f"{self.positions.shape} for {self.anchors.shape[0]} anchors"
            )
        if self.zone_radius.shape != self.anchors.shape:
            raise ValueError("one zone radius per anchor")
        check_radius_values("zone radii", self.zone_radius)
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("anchor positions hold non-finite coordinates (NaN or inf)")
        _check_gamma(self.gamma)

    def __len__(self) -> int:
        return int(self.anchors.shape[0])


def seed(ds: Dataset, delta: RadiusBounds, gamma: float) -> AnchorSet:
    """Greedy covering pass: while some point p has no anchor within
    ``gamma * delta(p)``, add the uncovered point with the smallest radius
    (ties broken by lowest id).

    Returns the full anchor list even when it exceeds a caller's k; deciding
    feasibility is the caller's job so the anchor count can be reported.
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
    return AnchorSet(picked, X[picked], gamma * delta.delta[picked], float(gamma))


def _zones(positions: np.ndarray, anchor_positions: np.ndarray, radii: np.ndarray):
    """The (k, m) distances from ``positions`` to the anchors, and whether
    each lies in the anchor's zone of radius ``radii`` (closed ball): the
    package's one zone-membership test."""
    dist = np.sqrt(sq_dist_matrix(positions, anchor_positions))
    return dist, dist <= radii


def build_coverage(anchor_set: AnchorSet, positions) -> np.ndarray:
    """Coverage table for the centers at ``positions`` (k, d): a (k, m) bool
    array whose entry [j, z] is True when center j lies in zone z
    (:func:`_zones`).  A valid solution has a True in every column.
    ``positions`` must have the anchors' d columns
    (:func:`dataset.check_positions`), else a ValueError.
    """
    pos = check_positions(positions, anchor_set.positions.shape[1])
    return _coverage(anchor_set, pos)


def _coverage(anchor_set: AnchorSet, positions: np.ndarray) -> np.ndarray:
    """:func:`build_coverage` on positions already checked, such as the
    search's candidate, a row of the dataset's own points."""
    return _zones(positions, anchor_set.positions, anchor_set.zone_radius)[1]


def fair_move_center(
    center: np.ndarray,
    mean: np.ndarray,
    anchor_positions: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Farthest point toward ``mean`` on the segment from ``center`` that
    stays inside every constraint ball.

    The feasible steps form an interval [0, t*] because the segment's
    intersection with each closed ball is convex and t=0 is feasible: the
    center must lie in every ball, which is checked.  When the mean itself
    is feasible it is returned exactly; otherwise t* is located by
    ``BISECTION_STEPS`` halvings, an error of at most
    ``|mean - center| * 2**-BISECTION_STEPS``.

    ``center`` and ``mean`` are positions of d coordinates and
    ``anchor_positions`` a (m, d) array (:func:`dataset.check_positions`),
    with one finite nonnegative radius per anchor
    (:func:`dataset.check_radius_values`), and ``center`` must lie in every
    ball; anything else is a ValueError.
    """
    center = check_positions([center], np.size(center))[0]
    mean = check_positions([mean], center.size)[0]
    radii = as_floats("radii", radii)
    if radii.shape != np.shape(anchor_positions)[:1]:
        raise ValueError(f"need one radius per anchor position, got {radii.shape} radii")
    check_radius_values("radii", radii)
    if radii.size == 0:
        return mean
    return _move(center, mean, check_positions(anchor_positions, center.size), radii)


def _move(center: np.ndarray, mean: np.ndarray, anchor_positions: np.ndarray, radii: np.ndarray):
    """:func:`fair_move_center` on inputs already checked: float64 arrays of
    d, d, (m, d) and m values.  Only the precondition is tested here."""
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
    """Every center's candidate for one refinement round: row j is
    :func:`fair_move_center` from ``positions[j]``, the start-of-round
    position, toward ``means[j]``, within the zones pinned to center j
    (the module docstring's rule).  A (k, d) array; whichever candidates
    a round takes, every zone covered at ``positions`` stays covered.
    ``positions`` and ``means`` are the refinement loop's own float64
    arrays, so the moves skip :func:`fair_move_center`'s input checks."""
    k = positions.shape[0]
    pin = _pins(anchor_set, positions)
    zones = [(anchor_set.positions[pin == j], anchor_set.zone_radius[pin == j]) for j in range(k)]
    return np.array([_move(positions[j], means[j], *zones[j]) for j in range(k)])
