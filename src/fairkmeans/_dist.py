"""The package's one Euclidean distance kernel.

Every distance in the package comes from :func:`sq_dist_matrix` or from
:func:`sq_dist_blocks`, the same kernel over row blocks that reuse one
buffer, or from the kernel's pair form ``einsum("ij,ij->i")`` on gathered
differences, which :func:`ranked_sq_dist` uses for the pairs its filter
keeps; the other functions here are thin wrappers around them, and
:func:`fsum` is the one way the package adds such distances up.  Cached
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

``tests/test_dist.py`` pins this equality against a per-row einsum.

A filter may exclude, never supply, a value.  Formulas that round
differently from the kernel (the dot-product form ``|x|² + |y|² - 2x·y`` and
the like) may only decide which pairs cannot matter, under a proved error
bound; every value that leaves this module comes from the kernel, so the
exact-consistency checks built on top of it keep holding.
:func:`ranked_sq_dist` holds the one such filter and derives its bound.
"""

from __future__ import annotations

import math

import numpy as np

# Bound on the scratch elements one kernel chunk allocates, and on the
# (rows, references) blocks that callers reduce chunk by chunk.
CHUNK_ELEMENTS = 1 << 16

# Multiply-adds per matmul call.  OpenBLAS runs a product of at most 2**18
# on the calling thread; a larger one wakes its thread pool, which costs
# more than the product at these sizes and stalls while another process
# holds a core: a (10, 17) x (17, 6000) product took 0.09 ms split into
# four calls and 0.09-5 ms as one call on a 2-core machine.
GEMM_PRODUCTS = 1 << 18


def fsum(a: np.ndarray) -> float:
    """Correctly rounded sum of a float array, as ``math.fsum(a)`` gives it.

    ``math.fsum`` iterates its argument; a memoryview yields Python floats
    directly, without building a list or one numpy scalar per element.
    """
    return math.fsum(memoryview(np.ascontiguousarray(a)))


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


def ranked_sq_dist(points: np.ndarray, refs: np.ndarray, rank: int) -> np.ndarray:
    """rank-th smallest squared distance from each row of ``points`` to the
    rows of ``refs``: column ``rank - 1`` of the kernel's (n, m) matrix
    after a per-row ``partition``, bit for bit.

    For d <= 2, and whenever the bound below is not finite, that is how it
    is computed, in row blocks of :func:`sq_dist_blocks`.  Otherwise a
    dot-product estimate decides which references can hold the answer, and
    only those pairs get kernel values (:func:`_filtered_ranks`).  At
    d <= 2 the kernel is about as cheap per pair as the estimate, so the
    filter would only add its selection and gathers.

    **The bound.**  Let ``mean`` be the reference mean, ``a = fl(x - mean)``
    and ``b = fl(y - mean)`` the centered rows, A = |a|², B = |b|², and
    u = 2**-53.  The estimate of the squared distance D = |x - y|² is
    ``F + A`` with ``F = fl(B̂ - 2 a·b)``, one matmul of ``[a, 1]`` with
    ``[-2b, B̂]`` (scaling by -2 is exact; ``B̂`` is the computed norm).
    Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1, bounds a
    sum of n rounded terms in any order, fused or not, by
    ``gamma_n = n·u / (1 - n·u)`` times the sum of their magnitudes:

    * centering: |(a - b) - (x - y)| <= u(|a| + |b|), so |a - b|² differs
      from D by at most 4u(A + B);
    * norms: |B̂ - B| <= gamma_d·B;
    * matmul: d + 1 products, |F - (B̂ - 2a·b)| <= gamma_{d+1}(B̂ + A + B),
      at most 2·gamma_{d+1}(A + B);
    * kernel: d rounded differences, squared and summed, so the kernel value
      K satisfies |K - D| <= gamma_{d+2}·D, and D <= 2(A + B);
    * each of the thresholds ``T - 2e`` and ``T + 2e`` below rounds once,
      by at most u|T| <= 2u(A + B).

    Summed, |F + A - K| <= (5d + 12)u(A + B) to first order in u.  The bound
    used, per row, is ``e = (d + 8)·(2**-50·(A + max B) + 2**-1070)``: its
    relative part (8d + 64)u(A + max B) leaves room for the second-order
    terms and for the rounding of A, max B and e themselves.  Its absolute
    part covers subnormal results, where each of the 3d products behind F,
    B̂ and K rounds by up to 2**-1075 absolutely.  The filter runs only
    where ``4·(A + max B)`` is finite, so no estimate or kernel value can
    overflow.

    **Why nothing is lost.**  Let T be the rank-th smallest F in a row and
    v the rank-th smallest K, the answer.  At least rank references have
    F <= T, so K <= T + A + e for them and v <= T + A + e.  At least
    m - rank + 1 have F >= T, so K >= T + A - e for them and
    v >= T + A - e.  A reference with F > T + 2e therefore has
    K > T + A + e >= v, strictly farther than the answer, and one with
    F < T - 2e has K < T + A - e <= v, strictly closer.  With c references
    strictly closer, v is the (rank - c)-th smallest kernel value among the
    references with T - 2e <= F <= T + 2e, and only those get kernel
    values: one per row unless estimates lie within 2e of each other.
    """
    n, d = points.shape
    if d > 2:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = refs.mean(axis=0)
            lifted = np.empty((d + 1, refs.shape[0]))
            centered = lifted[:d].T
            np.subtract(refs, mean, out=centered)
            np.einsum("ij,ij->i", centered, centered, out=lifted[d])
            lifted[:d] *= -2
            scale = sq_dists(points, mean) + lifted[d].max()
            finite = bool(np.isfinite(4 * scale.max()))
        if finite:
            slack = (d + 8) * (2.0**-50 * scale + 2.0**-1070)
            return _filtered_ranks(points, refs, rank, mean, lifted, slack)
    out = np.empty(n)
    for start, block in sq_dist_blocks(points, refs):
        block.partition(rank - 1, axis=1)
        out[start : start + block.shape[0]] = block[:, rank - 1]
    return out


def _filtered_ranks(
    points: np.ndarray,
    refs: np.ndarray,
    rank: int,
    mean: np.ndarray,
    lifted: np.ndarray,
    slack: np.ndarray,
) -> np.ndarray:
    """:func:`ranked_sq_dist` through the dot-product filter, in row blocks
    of ``chunk_rows(m)`` rows: ``lifted`` is ``[-2b, B̂]`` and ``slack`` the
    per-row bound e derived there."""
    n, d = points.shape
    m = refs.shape[0]
    step = chunk_rows(m)
    lead = np.ones((min(step, n), d + 1))
    estimate = np.empty((lead.shape[0], m))
    selected = np.empty_like(estimate)
    keep = np.empty(estimate.shape, dtype=bool)
    spare = np.empty_like(keep)
    pair_step = chunk_rows(d)
    out = np.empty(n)
    for start in range(0, n, step):
        rows = points[start : start + step]
        b = rows.shape[0]
        np.subtract(rows, mean, out=lead[:b, :d])
        est = estimate[:b]
        cols = max(1, GEMM_PRODUCTS // (b * (d + 1)))
        for lo in range(0, m, cols):
            np.matmul(lead[:b], lifted[:, lo : lo + cols], out=est[:, lo : lo + cols])
        sel = selected[:b]
        np.copyto(sel, est)
        sel.partition(rank - 1, axis=1)
        reach = 2 * slack[start : start + b, None]
        low = sel[:, rank - 1 : rank] - reach
        high = sel[:, rank - 1 : rank] + reach
        band = np.greater_equal(est, low, out=keep[:b])
        band &= np.less_equal(est, high, out=spare[:b])
        flat = np.flatnonzero(band)
        owner, col = np.divmod(flat, m)
        values = np.empty(flat.size)
        for lo in range(0, flat.size, pair_step):
            pairs = slice(lo, lo + pair_step)
            diff = np.take(rows, owner[pairs], axis=0)
            diff -= np.take(refs, col[pairs], axis=0)
            np.einsum("ij,ij->i", diff, diff, out=values[pairs])
        if flat.size == b:
            # each row's band holds one reference, the answer
            out[start : start + b] = values
            continue
        # every estimate below T lies left of the partition point
        closer = np.count_nonzero(sel[:, : rank - 1] < low, axis=1)
        counts = np.bincount(owner, minlength=b)
        padded = np.full((b, counts.max()), np.inf)
        padded[owner, np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)] = values
        padded.sort(axis=1)
        out[start : start + b] = padded[np.arange(b), rank - 1 - closer]
    return out
