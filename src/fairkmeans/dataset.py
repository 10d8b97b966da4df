"""Dataset ingestion, preprocessing, and per-point fairness radii.

A :class:`Dataset` is an immutable array of d-dimensional points with implicit
ids ``0..n-1``.  The fairness radius of a point is the distance to its
``ceil(n/k)``-th nearest neighbour (the point itself counts as the first), so
the closed ball of that radius always holds at least ``n/k`` points.  For
large inputs the same rank statistic can be taken over a fixed random sample
instead of the full dataset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._dist import chunk_rows, sq_dist_matrix

# Exact radii compute all n**2 pairwise distances; above this size the
# sampled mode is the documented path.
EXACT_RADII_RECOMMENDED_MAX = 50_000


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of points with stable integer ids.

    Parameters
    ----------
    points : array-like of shape (n, d)
        Finite coordinates; one row per point.  Ids are the row indices.
    source_ids : ndarray or None
        For datasets produced by :func:`subsample`, the id each row had in
        the dataset it was drawn from.  ``None`` for original datasets.
    """

    points: np.ndarray
    source_ids: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-dimensional array")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("dataset needs at least one point and one dimension")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite (no NaN or infinity)")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.source_ids is not None:
            src = np.asarray(self.source_ids, dtype=np.int64)
            if src.shape != (pts.shape[0],):
                raise ValueError("source_ids must have one entry per point")
            object.__setattr__(self, "source_ids", src)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def ids(self) -> np.ndarray:
        return np.arange(self.n)


@dataclass(frozen=True)
class RadiusBounds:
    """Per-point fairness radii and how they were computed.

    ``mode`` is ``"exact"`` for the full rank statistic, ``"sampled"`` when
    the rank was taken over a fixed random sample (``sample_size``, ``seed``),
    and ``"given"`` for user-supplied radii.
    """

    delta: np.ndarray
    mode: str = "given"
    sample_size: int | None = None
    seed: int | None = None

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=np.float64)
        if d.ndim != 1:
            raise ValueError("delta must be a 1-dimensional array")
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise ValueError("radii must be finite and nonnegative")
        d = np.ascontiguousarray(d)
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)

    def __len__(self) -> int:
        return self.delta.shape[0]


@dataclass(frozen=True)
class AspectRatio:
    """Max pairwise distance over min positive pairwise distance."""

    value: float

    def __post_init__(self):
        if not self.value >= 1.0:
            raise ValueError("aspect ratio is at least 1")


def load_points(
    path: str | Path,
    columns: Sequence[int] | None = None,
    header: bool = False,
) -> Dataset:
    """Load a CSV file of numeric coordinates.

    Parameters
    ----------
    path : str or Path
        Comma-separated file.
    columns : sequence of int, optional
        Column indices to keep; all columns when omitted.
    header : bool
        Skip the first row.

    Row order is preserved as point ids.  Parse failures report the
    1-based file row and column of the offending value.
    """
    path = Path(path)
    cols = list(columns) if columns is not None else None
    rows: list[list[float]] = []
    arity: int | None = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, raw in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not raw or (len(raw) == 1 and raw[0].strip() == ""):
                continue
            if arity is None:
                arity = len(raw)
            elif len(raw) != arity:
                raise ValueError(
                    f"{path}: row {lineno} has {len(raw)} fields, expected {arity}"
                )
            use = cols if cols is not None else range(len(raw))
            parsed = []
            for c in use:
                if c >= len(raw):
                    raise ValueError(f"{path}: row {lineno} has no column {c}")
                text = raw[c].strip()
                try:
                    val = float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {c}: "
                        f"could not parse {text!r} as a number"
                    ) from None
                if not math.isfinite(val):
                    raise ValueError(
                        f"{path}: row {lineno}, column {c}: value {text!r} is not finite"
                    )
                parsed.append(val)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=np.float64))


def normalize(ds: Dataset) -> Dataset:
    """Shift and scale every dimension to zero mean and unit population std.

    A constant dimension cannot be scaled and raises a ValueError naming it.
    """
    if ds.n < 2:
        raise ValueError("normalization needs at least 2 points")
    mean = ds.points.mean(axis=0)
    std = ds.points.std(axis=0)
    flat = np.flatnonzero(std == 0)
    if flat.size:
        raise ValueError(f"dimension {int(flat[0])} is constant and cannot be normalized")
    return Dataset((ds.points - mean) / std, source_ids=ds.source_ids)


def subsample(ds: Dataset, m: int, seed: int) -> Dataset:
    """Uniform sample of ``m`` points without replacement.

    Deterministic for a given seed.  The result is re-indexed ``0..m-1``;
    ``source_ids`` maps rows back to the original dataset (chained through
    repeated subsampling).  With ``m == n`` the dataset is copied unchanged.
    """
    if not 1 <= m <= ds.n:
        raise ValueError(f"sample size {m} must be in [1, {ds.n}]")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=m, replace=False))
    src = ds.source_ids[idx] if ds.source_ids is not None else idx
    return Dataset(ds.points[idx], source_ids=src)


def compute_radii(
    ds: Dataset,
    k: int,
    mode: str = "exact",
    sample_size: int = 1000,
    seed: int = 0,
) -> RadiusBounds:
    """Fairness radius of every point.

    Parameters
    ----------
    ds : Dataset
    k : int
        Number of clusters the radii are relative to.
    mode : {"exact", "sampled"}
        ``exact``: delta(p) is the ``ceil(n/k)``-th smallest distance from p
        to all n points, self-distance included.  Computes all n**2
        distances (in row chunks); fine up to ~50k points.
        ``sampled``: the same rank statistic over one fixed uniform sample of
        ``min(sample_size, n)`` points shared by every p, at rank
        ``ceil(sample_size / k)`` (clamped to the sample length).
    sample_size, seed : int
        Sampled mode only.

    Raises a ValueError when squared distances overflow float64 and leave
    a radius infinite; rescale the points first.
    """
    if not 1 <= k <= ds.n:
        raise ValueError(f"k={k} must be in [1, {ds.n}]")
    X = ds.points
    if mode == "exact":
        ref, rank, extra = X, -(-ds.n // k), {}
    elif mode == "sampled":
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        rng = np.random.default_rng(seed)
        s = min(sample_size, ds.n)
        sample_ids = rng.choice(ds.n, size=s, replace=False)
        ref, rank = X[sample_ids], min(-(-sample_size // k), s)
        extra = {"sample_size": sample_size, "seed": seed}
    else:
        raise ValueError(f"unknown radius mode {mode!r}")
    sq = _ranked_sq_dist(X, ref, rank)
    if not np.all(np.isfinite(sq)):
        raise ValueError(
            "squared distances overflow float64 (coordinates too large); "
            "rescale the points, e.g. divide them by their largest magnitude"
        )
    return RadiusBounds(np.sqrt(sq), mode=mode, **extra)


def _ranked_sq_dist(X: np.ndarray, ref: np.ndarray, rank: int) -> np.ndarray:
    """rank-th smallest squared distance from each row of X to the rows of ref."""
    out = np.empty(X.shape[0])
    step = chunk_rows(ref.shape[0])
    for start in range(0, X.shape[0], step):
        block = sq_dist_matrix(X[start : start + step], ref)
        block.partition(rank - 1, axis=1)
        out[start : start + step] = block[:, rank - 1]
    return out


def aspect_ratio(ds: Dataset) -> AspectRatio:
    """Ratio of the largest pairwise distance to the smallest positive one.

    Duplicate points are skipped in the minimum.  All-identical points have
    no positive distance and raise a ValueError.  Quadratic in n.
    """
    if ds.n < 2:
        raise ValueError("aspect ratio needs at least 2 points")
    X = ds.points
    max_sq = 0.0
    min_pos = np.inf
    # whole rows, so every pair is seen twice; both orders give the same bits
    step = chunk_rows(ds.n)
    for start in range(0, ds.n, step):
        sq = sq_dist_matrix(X[start : start + step], X)
        max_sq = max(max_sq, float(sq.max()))
        pos = sq[sq > 0]
        if pos.size:
            min_pos = min(min_pos, float(pos.min()))
    if not np.isfinite(min_pos):
        raise ValueError("all points are identical; aspect ratio undefined")
    return AspectRatio(float(np.sqrt(max_sq / min_pos)))


def jl_project(ds: Dataset, target_dim: int, seed: int) -> Dataset:
    """Random Gaussian projection to ``target_dim`` dimensions.

    The map has independent N(0, 1) entries scaled by 1/sqrt(target_dim), so
    squared distances are preserved in expectation.  Deterministic per seed.
    """
    if target_dim < 1:
        raise ValueError("target_dim must be at least 1")
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((ds.d, target_dim)) / np.sqrt(target_dim)
    return Dataset(ds.points @ proj, source_ids=ds.source_ids)
