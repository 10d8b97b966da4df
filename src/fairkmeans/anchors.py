"""Anchor seeding and the coverage predicates used by the search loops.

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

from ._dist import dists, min_sq_dists, sq_dist_matrix
from .dataset import Dataset, RadiusBounds
from .metrics import fairness_ratios

# Zone membership lists are materialized eagerly below this size and computed
# on demand above it.
MEMBERSHIP_EAGER_MAX = 100_000


@dataclass(frozen=True)
class AnchorSet:
    """Seeding output: anchor ids in pick order plus their zones.

    ``zone_radius[i]`` equals ``gamma * delta(anchors[i])``.  ``membership``
    holds, per anchor, the ids of dataset points inside its zone; it is
    ``None`` when materialization was skipped (large n), in which case use
    :meth:`zone_members`.
    """

    anchors: np.ndarray
    positions: np.ndarray
    zone_radius: np.ndarray
    gamma: float
    membership: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.anchors.shape[0] != self.zone_radius.shape[0]:
            raise ValueError("one zone radius per anchor")
        if not self.gamma > 2:
            raise ValueError("gamma must exceed 2")

    def __len__(self) -> int:
        return int(self.anchors.shape[0])

    def covers_position(self, pos: np.ndarray) -> np.ndarray:
        """Boolean per zone: is ``pos`` inside it (closed ball)."""
        if len(self) == 0:
            return np.zeros(0, dtype=bool)
        return dists(self.positions, pos) <= self.zone_radius

    def zone_members(self, ds: Dataset, zone: int) -> np.ndarray:
        """Ids of dataset points inside one anchor zone."""
        if self.membership is not None:
            return self.membership[zone]
        d = dists(ds.points, self.positions[zone])
        return np.flatnonzero(d <= self.zone_radius[zone])


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

    def copy(self) -> "CoverageTable":
        return CoverageTable(self.covers.copy())


def seed(ds: Dataset, delta: RadiusBounds, gamma: float) -> AnchorSet:
    """Greedy covering pass: while some point p has no anchor within
    ``gamma * delta(p)``, add the uncovered point with the smallest radius
    (ties broken by lowest id).

    Returns the full anchor list even when it exceeds a caller's k; deciding
    feasibility is the caller's job so the anchor count can be reported.
    """
    if not gamma > 2:
        raise ValueError(f"gamma must exceed 2, got {gamma}")
    if len(delta) != ds.n:
        raise ValueError("radius bounds do not match the dataset")
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
    membership = None
    if ds.n <= MEMBERSHIP_EAGER_MAX and len(picked) * ds.n <= 50_000_000:
        membership = tuple(
            np.flatnonzero(dists(X, positions[z]) <= zone_radius[z])
            for z in range(len(picked))
        )
    return AnchorSet(anchors, positions, zone_radius, float(gamma), membership)


def is_radius_feasible(
    ds: Dataset,
    delta: RadiusBounds,
    centers,
    beta: float,
) -> tuple[bool, int, float]:
    """Does every point have a center within ``beta * delta(p)``?

    Returns ``(feasible, worst_id, worst_ratio)`` where the worst offender
    maximizes dist(p, centers)/delta(p).  Points with a zero radius must sit
    exactly on a center (their ratio is 0 at distance 0, +inf otherwise).
    """
    arr = np.asarray(centers)
    pos = ds.points[arr] if arr.ndim == 1 else np.asarray(arr, dtype=np.float64)
    if pos.shape[0] == 0:
        raise ValueError("center set is empty")
    d1 = np.sqrt(min_sq_dists(ds.points, pos))
    ratios = fairness_ratios(d1, delta.delta)
    worst = int(np.argmax(ratios))
    return bool(ratios[worst] <= beta), worst, float(ratios[worst])


def build_coverage(anchor_set: AnchorSet, centers, ds: Dataset | None = None) -> CoverageTable:
    """Coverage table for a center set (point ids or positions)."""
    arr = np.asarray(centers)
    if arr.ndim == 1:
        if ds is None:
            raise ValueError("center ids need the dataset to resolve positions")
        pos = ds.points[arr]
    else:
        pos = np.asarray(arr, dtype=np.float64)
    if pos.shape[0] == 0:
        raise ValueError("center set is empty")
    covers = np.sqrt(sq_dist_matrix(pos, anchor_set.positions)) <= anchor_set.zone_radius
    return CoverageTable(covers)
