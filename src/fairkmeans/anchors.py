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

import math
from dataclasses import dataclass

import numpy as np

from ._dist import dists, sq_dist_matrix
from .dataset import Dataset, RadiusBounds, check_distance_scale, check_positions, check_radii


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
    and nonnegative radii, and (m, d) ``positions``; m = 0 is valid.  Each
    fault is a ValueError that names it.
    """

    anchors: np.ndarray
    positions: np.ndarray
    zone_radius: np.ndarray
    gamma: float

    def __post_init__(self):
        if self.anchors.ndim != 1:
            raise ValueError(f"anchors must be a 1-D id array, got shape {self.anchors.shape}")
        if self.positions.ndim != 2 or self.positions.shape[0] != self.anchors.shape[0]:
            raise ValueError(
                f"anchor positions must be one row per anchor, got shape "
                f"{self.positions.shape} for {self.anchors.shape[0]} anchors"
            )
        if self.zone_radius.shape != self.anchors.shape:
            raise ValueError("one zone radius per anchor")
        if not np.all(np.isfinite(self.zone_radius)) or np.any(self.zone_radius < 0):
            raise ValueError("zone radii must be finite and nonnegative")
        _check_gamma(self.gamma)

    def __len__(self) -> int:
        return int(self.anchors.shape[0])


def seed(ds: Dataset, delta: RadiusBounds, gamma: float) -> AnchorSet:
    """Greedy covering pass: while some point p has no anchor within
    ``gamma * delta(p)``, add the uncovered point with the smallest radius
    (ties broken by lowest id).

    Returns the full anchor list even when it exceeds a caller's k; deciding
    feasibility is the caller's job so the anchor count can be reported.
    Points whose squared distances underflow float64 are a ValueError
    (:func:`dataset.check_distance_scale`), whatever the radii.
    """
    _check_gamma(gamma)
    check_radii(ds, delta)
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


def build_coverage(anchor_set: AnchorSet, positions) -> np.ndarray:
    """Coverage table for the centers at ``positions`` (k, d): a (k, m) bool
    array whose entry [j, z] is True when center j's distance to zone z's
    anchor is at most the zone radius (closed ball).  A valid solution has
    a True in every column.  ``positions`` must have the anchors' d
    columns (:func:`dataset.check_positions`), else a ValueError.
    """
    pos = check_positions(positions, anchor_set.positions.shape[1])
    return np.sqrt(sq_dist_matrix(pos, anchor_set.positions)) <= anchor_set.zone_radius
