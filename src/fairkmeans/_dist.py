"""The package's one Euclidean distance kernel.

Every distance in the package comes from :func:`sq_dist_matrix` or from
:func:`sq_dist_blocks`, the same kernel over row blocks that reuse one
buffer; the other functions here are thin wrappers around them.  Cached
values, from-scratch recomputations and coverage predicates therefore see
bit-identical numbers for identical inputs, however the points and centers
were batched: the squared distance between two rows never depends on which
other rows were computed with them.

The kernel works on row chunks of at most ``CHUNK_ELEMENTS`` scratch
elements.  Each entry is the sum over dimensions of the squared coordinate
differences, rounded the way a per-row ``einsum("ij,ij->i")`` rounds it:

* d > 2: a broadcast ``einsum("bsd,bsd->bs")`` over the (rows, centers, d)
  difference block, which runs the same inner reduction per entry as the
  per-row form.  The order in which einsum adds up the d squares depends on
  the SIMD width numpy was built for, so no hand-written accumulation may
  replace it.
* d <= 2: the per-dimension squares ``diff0**2 + diff1**2``.  A sum of at
  most two rounded squares is one correctly rounded addition whatever the
  order, so it equals einsum's result on any SIMD width (as long as einsum
  rounds each square before adding it, which the test below checks),
  without einsum's fixed cost per output entry.

``tests/test_dist.py`` pins this equality against a per-row einsum.  Do not
add alternative distance formulas (dot-product tricks and the like); they
round differently and break the exact-consistency checks built on top of
this kernel.
"""

from __future__ import annotations

import numpy as np

# Bound on the scratch elements one kernel chunk allocates, and on the
# (rows, references) blocks that callers reduce chunk by chunk.
CHUNK_ELEMENTS = 1 << 16


def chunk_rows(width: int) -> int:
    """Rows per chunk when one row takes ``width`` scratch elements."""
    return max(1, CHUNK_ELEMENTS // max(width, 1))


def sq_dist_matrix(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each point to each center."""
    out = np.empty((points.shape[0], centers.shape[0]), dtype=np.float64)
    _fill(points, centers, out, _scratch(points, centers))
    return out


def sq_dist_blocks(points: np.ndarray, centers: np.ndarray):
    """Yield ``(start, block)``: the squared distances from
    ``points[start : start + len(block)]`` to ``centers``, in row blocks of
    at most ``chunk_rows(k)`` rows.

    Every block is a view of one buffer that the next block overwrites, so
    consume (or copy) each block before asking for the next; the caller may
    modify it in place.  Entries are bit-identical to :func:`sq_dist_matrix`.
    """
    n = points.shape[0]
    step = chunk_rows(centers.shape[0])
    buffer = np.empty((min(step, n), centers.shape[0]), dtype=np.float64)
    diff = _scratch(points[:step], centers)
    for start in range(0, n, step):
        rows = points[start : start + step]
        block = buffer[: rows.shape[0]]
        _fill(rows, centers, block, diff)
        yield start, block


def _scratch(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The coordinate-difference block one kernel chunk needs."""
    n, d = points.shape
    k = centers.shape[0]
    rows = min(chunk_rows(k * d), n)
    return np.empty((rows, k, d) if d > 2 else (rows, k))


def _fill(points: np.ndarray, centers: np.ndarray, out: np.ndarray, diff: np.ndarray) -> None:
    """``out[:] = sq_dist_matrix(points, centers)``, chunk by chunk, with
    ``diff`` (from :func:`_scratch`) as the difference scratch."""
    n, d = points.shape
    step = chunk_rows(centers.shape[0] * d)
    for start in range(0, n, step):
        rows, block = points[start : start + step], out[start : start + step]
        part = diff[: rows.shape[0]]
        if d > 2:
            np.subtract(rows[:, None, :], centers, out=part)
            np.einsum("bsd,bsd->bs", part, part, out=block)
        else:
            np.subtract(rows[:, :1], centers[:, 0], out=block)
            np.square(block, out=block)
            if d == 2:
                np.subtract(rows[:, 1:], centers[:, 1], out=part)
                np.square(part, out=part)
                block += part


def sq_dists(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of ``points`` to ``center``."""
    return sq_dist_matrix(points, center[None, :])[:, 0]


def dists(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of ``points`` to ``center``."""
    return np.sqrt(sq_dists(points, center))


def min_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from every point to its nearest center, O(n) memory."""
    out = np.empty(points.shape[0])
    for start, block in sq_dist_blocks(points, centers):
        block.min(axis=1, out=out[start : start + block.shape[0]])
    return out
