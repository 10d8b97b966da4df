"""Solution quality measures: clustering costs and the fairness bound ratio."""

from __future__ import annotations


import numpy as np

from ._dist import fsum, min_sq_dists
from .dataset import Dataset, RadiusBounds, check_center_columns, check_point_ids


def _center_positions(ds: Dataset, centers) -> np.ndarray:
    """Accept center point ids (1-D int array, each in ``[0, n)``) or
    positions (2-D array with the points' d columns)."""
    arr = np.asarray(centers)
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        if arr.size == 0:
            raise ValueError("center set is empty")
        check_point_ids(ds, arr)
        return ds.points[arr]
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("centers must be a nonempty id list or (k, d) array")
    check_center_columns(ds, arr)
    return arr


def cost(ds: Dataset, centers, p: int = 2) -> float:
    """Sum over points of dist(point, centers)**p for p in {1, 2}.

    Accumulated with compensated summation so values stay comparable at
    1e-9 relative tolerance even for very large n.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    pos = _center_positions(ds, centers)
    sq = min_sq_dists(ds.points, pos)
    return fsum(sq if p == 2 else np.sqrt(sq))


def fairness_ratios(dist: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per-point dist/delta with 0/0 = 0 and positive/0 = +inf.

    Shared by :func:`bound_ratio` and the brute-force oracle so the two
    agree exactly, value for value.
    """
    ratios = np.zeros_like(dist)
    np.divide(dist, delta, out=ratios, where=(dist > 0) & (delta > 0))
    ratios[(dist > 0) & (delta == 0)] = np.inf
    return ratios


def bound_ratio(ds: Dataset, delta: RadiusBounds, centers) -> tuple[float, int]:
    """Worst fairness violation, max over points of dist(p, S)/delta(p).

    Returns the maximum ratio and the id of a point attaining it.  A point at
    positive distance with a zero radius yields +inf (reported, not raised).
    ``delta`` must hold one radius per point, else a ValueError.
    """
    if len(delta) != ds.n:
        raise ValueError("radius bounds do not match the dataset")
    pos = _center_positions(ds, centers)
    d1 = np.sqrt(min_sq_dists(ds.points, pos))
    ratios = fairness_ratios(d1, delta.delta)
    worst = int(np.argmax(ratios))
    return float(ratios[worst]), worst
