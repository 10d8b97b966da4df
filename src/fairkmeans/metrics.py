"""Solution quality measures: clustering costs and the fairness bound ratio."""

from __future__ import annotations

import numpy as np

from ._dist import fsum, nearest
from .dataset import (
    Dataset,
    RadiusBounds,
    _check_integer,
    center_positions,
    check_distance_overflow,
    check_radii,
)


def fairness_ratios(dist: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per-point dist/delta with 0/0 = 0 and positive/0 = +inf.

    Shared by :func:`bound_ratio` and the brute-force oracle so the two
    agree exactly, value for value.
    """
    ratios = np.zeros_like(dist)
    np.divide(dist, delta, out=ratios, where=(dist > 0) & (delta > 0))
    ratios[(dist > 0) & (delta == 0)] = np.inf
    return ratios


def _score(
    ds: Dataset, centers, delta: RadiusBounds | None = None
) -> tuple[np.ndarray, np.ndarray, tuple[float, int] | None]:
    """What every score reads off one nearest-center pass: each point's
    squared distance and distance to its nearest center, and, given radii,
    :func:`bound_ratio`'s pair (else None).  :func:`cost`,
    :func:`bound_ratio` and the experiment harness all take their values
    from here, so each gives the same bits as the others.  A nearest
    squared distance that overflows float64 is
    :func:`dataset.check_distance_overflow`'s ValueError, not a score of
    inf."""
    if delta is not None:
        check_radii(ds, delta)
    sq = nearest(ds.points, center_positions(ds, centers))[1]
    check_distance_overflow(sq)
    dist = np.sqrt(sq)
    if delta is None:
        return sq, dist, None
    ratios = fairness_ratios(dist, delta.delta)
    worst = int(np.argmax(ratios))
    return sq, dist, (float(ratios[worst]), worst)


def cost(ds: Dataset, centers, p: int = 2) -> float:
    """Sum over points of dist(point, centers)**p for p in {1, 2}.

    ``centers`` are point ids or (k, d) positions
    (:func:`dataset.center_positions`).  The sum is correctly rounded
    (``_dist.fsum``).  ``p`` must be the integer 1 or 2, else a TypeError or
    ValueError that names it.
    """
    _check_integer("p", p, 1, 2)
    sq, dist, _ = _score(ds, centers)
    return fsum(sq if p == 2 else dist)


def bound_ratio(ds: Dataset, delta: RadiusBounds, centers) -> tuple[float, int]:
    """Worst fairness violation, max over points of dist(p, S)/delta(p).

    Returns the maximum ratio and the id of a point attaining it.  A point at
    positive distance with a zero radius yields +inf (reported, not raised).
    ``delta`` must hold one radius per point, else a ValueError.
    """
    return _score(ds, centers, delta)[2]
