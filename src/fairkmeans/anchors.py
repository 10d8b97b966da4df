"""Anchor seeding and the zone-coverage predicate used by the search loops.

Seeding repeatedly picks the uncovered point with the smallest radius until
every point p has an anchor within ``gamma * delta(p)``.  Each anchor defines
an anchor zone, the ball of radius ``gamma * delta(anchor)`` around it; any
center set that keeps at least one center in every zone serves every point
within ``2 * gamma * delta(p)``.

Picked radii are non-decreasing and the anchors' delta-balls are pairwise
disjoint, so on a feasible instance the procedure never returns more than k
anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import dists, sq_dist_matrix
from .dataset import Dataset, RadiusBounds, check_distance_scale


@dataclass(frozen=True)
class AnchorSet:
    """Seeding output: anchor ids in pick order plus their zones.

    ``zone_radius[i]`` equals ``gamma * delta(anchors[i])``.
    """

    anchors: np.ndarray
    positions: np.ndarray
    zone_radius: np.ndarray
    gamma: float

    def __post_init__(self):
        if self.anchors.shape[0] != self.zone_radius.shape[0]:
            raise ValueError("one zone radius per anchor")
        if not self.gamma > 2:
            raise ValueError("gamma must exceed 2")

    def __len__(self) -> int:
        return int(self.anchors.shape[0])


@dataclass
class CoverageTable:
    """Which centers sit inside which anchor zones.

    ``covers[j, z]`` is True when center j lies in zone z; ``counts`` is the
    per-zone total.  Any valid solution keeps every count at 1 or more.
    """

    covers: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return self.covers.sum(axis=0)


def seed(ds: Dataset, delta: RadiusBounds, gamma: float) -> AnchorSet:
    """Greedy covering pass: while some point p has no anchor within
    ``gamma * delta(p)``, add the uncovered point with the smallest radius
    (ties broken by lowest id).

    Returns the full anchor list even when it exceeds a caller's k; deciding
    feasibility is the caller's job so the anchor count can be reported.
    Points whose squared distances underflow float64 are a ValueError
    (:func:`dataset.check_distance_scale`), whatever the radii.
    """
    if not gamma > 2:
        raise ValueError(f"gamma must exceed 2, got {gamma}")
    if len(delta) != ds.n:
        raise ValueError("radius bounds do not match the dataset")
    check_distance_scale(ds)
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
    anchors = np.asarray(picked, dtype=np.int64)
    positions = X[anchors].copy()
    zone_radius = gamma * delta.delta[anchors]
    return AnchorSet(anchors, positions, zone_radius, float(gamma))


def build_coverage(anchor_set: AnchorSet, positions) -> CoverageTable:
    """Coverage table for the centers at ``positions`` (k, d): center j
    covers zone z when its distance to the zone's anchor is at most the
    zone radius (closed ball).  The one zone-membership test of the package.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape[0] == 0:
        raise ValueError("center set is empty")
    covers = np.sqrt(sq_dist_matrix(pos, anchor_set.positions)) <= anchor_set.zone_radius
    return CoverageTable(covers)
