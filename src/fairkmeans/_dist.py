"""The package's one Euclidean distance kernel.

Every distance in the package comes from :func:`sq_dist_matrix` or from
:func:`sq_dist_blocks`, the same kernel over row blocks that reuse one
buffer, or from :func:`_pair_sq_dists`, the same kernel on gathered pairs,
which the filtered functions below use for the pairs their filter keeps and
refinement's rounds for each row against its cluster's candidate; the
other functions here are thin wrappers around them.  :func:`fsum` adds such
distances up, correctly rounded, for the reported costs, and :func:`fsums`
per cluster for refinement's moves: both are ``math.fsum``'s bits through
the exact extraction sum of :func:`_levels`.  The search's cached total and
its swap costs use numpy's ``.sum()`` instead, which
``solution.check_solution`` holds to 1e-9 of it.  Cached values, from-scratch
recomputations and coverage predicates therefore see bit-identical numbers
for identical inputs, however the points and centers were batched: the
squared distance between two rows never depends on which other rows were
computed with them.

The kernel works on row chunks of at most ``CHUNK_ELEMENTS`` scratch
elements.  Each entry is the sum over dimensions of the squared coordinate
differences, rounded the way a per-row ``einsum("ij,ij->i")`` rounds it:

* d > 2: that einsum itself (:func:`_sq_norms`, the module's one einsum),
  on the chunk's contiguous difference block with one row per pair.  The
  order in which einsum adds up the d squares depends on the SIMD width
  numpy was built for, so no hand-written accumulation may replace it.
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
exact-consistency checks built on top of it keep holding.  One dot-product
filter serves, through one core:

* the radii (:func:`ranked_sq_dist`);
* the search's distance pass for a candidate at d > 2
  (:func:`near_sq_dists`);
* every nearest-two pass (:func:`two_nearest`, its rank-2 cut, read off
  one row block at a time by :func:`_nearest_two` before it leaves the
  module): the ``solution.Solution`` constructor, so ``init_solution``,
  ``greedy_baseline``, ``check_solution`` and the refined solution's
  caches; an accepted swap's k-scan; refinement's entry without caches and
  the rows its bound cannot keep;
* every nearest pass (:func:`nearest`, its rank-1 cut, read off by
  ``argmin``): ``refine.assign``, every score (``metrics.cost``,
  ``metrics.bound_ratio`` and the harness's trial scores) and refinement's
  tied rows on entry.

:func:`lift_points` alone decides where the filter applies, and every
filtered function returns the kernel's values where it declines;
:func:`_lift` builds the references' columns, :func:`_estimate` (the
module's one matmul) the estimates, :func:`ranked_sq_dist`'s docstring
derives the bound and :func:`_slack` computes it.

The lift declines at d <= 2, where the kernel costs about as much per pair
as an estimate.  There the radii (ranks above 2) take the second filter,
the exact box cut: each block of nearby rows ranks only the references
whose distance to the block's bounding box can decide a radius
(:func:`_boxed_ranks`, with bounds in the kernel's own rounding, so no
slack).  :func:`ranked_sq_dist` is the one place that chooses between the
two filters and the plain kernel, from d, the rank and whether the lift
declined.  The same bounds serve the search's distance pass for a candidate
at d <= 2: the points' box layout (:func:`box_layout`, built once per
dataset and shared with the radii) keeps the boxes whose lower bound to the
candidate is at most the largest bound of their rows.
:func:`near_sq_dists` is the one place that chooses the candidate pass's
finder: the lift, the box layout, or every row.

Refinement's filter is a third one, a lower bound per row on its distance
to every center but its own (:class:`FarBound`, whose docstring proves its
slack): a row whose kernel value to its own center, from the rounds' pair
pass, lies strictly below the bound keeps that center without a nearest-two
pass.

The passes that read every entry take the full kernel: the zone tests
against anchors, the brute-force oracle and ``aspect_ratio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Rows per box of the box cut (d <= 2).  On 80k 2-D points in ten blobs
# against 1,000 references at rank 100, boxes of 128 rows keep about 14% of
# the pairs; 128 to 512 rows ran equally fast, 32 rows 1.8x slower.
BOX_ROWS = 128


def fsum(a: np.ndarray) -> float:
    """Correctly rounded sum of a 1-D float array, bit for bit
    ``math.fsum(a)``: :func:`_levels`' exact level totals, added up by
    ``math.fsum``, or ``math.fsum`` itself where :func:`_levels` declines
    (it then keeps its result or its OverflowError)."""
    levels = _levels(a, None, 0)
    return _math_fsum(a) if levels is None else math.fsum(levels)


def fsums(a: np.ndarray, groups: np.ndarray, k: int) -> np.ndarray:
    """``fsums(a, groups, k)[j] == fsum(a[groups == j])`` for each of the k
    groups (0 for an empty one), through one ``bincount`` per level of
    :func:`_levels`."""
    levels = _levels(a, groups, k)
    if levels is None:
        return np.array([_math_fsum(a[groups == j]) for j in range(k)])
    return np.array([math.fsum(column) for column in np.reshape(levels, (-1, k)).T])


def _math_fsum(a: np.ndarray) -> float:
    """``math.fsum(a)``; a memoryview yields Python floats directly,
    without building a list or one numpy scalar per element."""
    return math.fsum(memoryview(np.ascontiguousarray(a)))


def _levels(a: np.ndarray, groups: np.ndarray | None, k: int):
    """The exact totals of the extraction sum of Rump, Ogita and Oishi
    ("Accurate floating-point summation", SIAM J. Sci. Comput. 2008), one
    per level: floats, or with ``groups`` one (k,) ``bincount`` per level.
    None, for ``math.fsum`` to decide, when a value is not finite or σ
    below would overflow.

    Let max|x| < 2**e and n + 2 <= 2**M, and σ = 2**(e + M).  Each level takes
    ``q = fl(fl(σ + x) - σ)`` and ``x = fl(x - q)``.  Rounding is monotone
    and σ ± 2**-M·σ are floats, so |q| <= 2**-M·σ; ``fl(σ + x)`` lies
    within a factor 2 of σ, so the subtraction of σ is exact (Sterbenz),
    q is a multiple of 2**-53·σ (or of 2**-1074) and ``x - q``, at most
    half a unit of ``fl(σ + x)``, at most 2**-53·σ, is exact too.  Every
    partial sum of the q, in any order, is a multiple of that unit of
    magnitude below n·2**-M·σ < σ: a float.  So each level total is exact,
    the level totals plus the x left add up to the input's exact sum, and
    the levels go on until x is all zeros, each one dividing max|x| by at
    least 2**(52 - M).  A correctly rounded sum of the level totals is then
    one of the input: the same float ``math.fsum`` returns.  A zero array
    has no level, and ``math.fsum`` of none is 0.0, as of zeros."""
    x = np.array(a).reshape(-1)
    n = x.size
    top = max(x.max(), -x.min()) if n else 0.0
    if not math.isfinite(top):
        return None
    spread = (n + 1).bit_length()  # M: 2**M >= n + 2
    if math.frexp(top)[1] + spread > 1023:
        return None
    q = np.empty_like(x)
    levels = []
    while top > 0:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + spread)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        levels.append(q.sum() if groups is None else np.bincount(groups, q, k))
        top = max(x.max(), -x.min())
    return levels


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
    n, k = points.shape[0], centers.shape[0]
    step = chunk_rows(k)
    buffer = np.empty((min(step, n), k), dtype=np.float64)
    diff = _scratch(points[: min(step, n)], centers)
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


def _sq_norms(rows: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = |rows[i]|²``, the one reduction of squares behind the
    kernel, its pair form and the lift's norms."""
    np.einsum("ij,ij->i", rows, rows, out=out)


def _fill(points: np.ndarray, centers: np.ndarray, out: np.ndarray, diff: np.ndarray) -> None:
    """``out[:] = sq_dist_matrix(points, centers)``, chunk by chunk, with
    ``diff`` (from :func:`_scratch`) as the difference scratch.  ``out`` is
    C-contiguous, so each chunk of it flattens to one entry per pair as a
    view, which the reduction writes through.  A value above float64's
    range is inf, without a warning: the callers that read one as a
    distance raise on it (``dataset.check_distance_overflow``,
    ``dataset.check_cost_scale``), and the others never read it."""
    assert out.flags.c_contiguous
    n, d = points.shape
    step = chunk_rows(centers.shape[0] * d)
    with np.errstate(over="ignore"):
        for start in range(0, n, step):
            rows, block = points[start : start + step], out[start : start + step]
            part = diff[: rows.shape[0]]
            if d > 2:
                np.subtract(rows[:, None, :], centers, out=part)
                _sq_norms(part.reshape(-1, d), block.reshape(-1))
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


def ranked_sq_dist(
    points: np.ndarray, refs: np.ndarray, rank: int, boxes: Boxes | None
) -> np.ndarray:
    """rank-th smallest squared distance from each row of ``points`` to the
    rows of ``refs``: column ``rank - 1`` of the kernel's (n, m) matrix
    after a per-row ``partition``, bit for bit; the radii's pass.
    ``boxes`` is :func:`box_layout` of ``points`` (``Dataset.boxes``).

    This function alone chooses how, from d, ``rank`` and whether
    :func:`lift_points` declines:

    * the lift applies (d > 2, more than two references, a finite bound
      below): a dot-product estimate decides which references can hold the
      answer, and only those pairs get kernel values
      (:func:`_filtered_ranks`);
    * it declines at d <= 2 and rank above 2: the box cut below decides
      which references each block of rows ranks (:func:`_boxed_ranks`);
    * otherwise (d <= 2 at ranks 1 and 2, or d > 2 where the lift
      declines) every pair gets its kernel value, in row blocks of
      :func:`sq_dist_blocks`, and ``_nth_smallest`` reads the rank.

    **The bound.**  Let ``mean`` be the reference mean, ``a = fl(x - mean)``
    and ``b = fl(y - mean)`` the centered rows, A = |a|², B = |b|², and
    u = 2**-53.  The estimate of the squared distance D = |x - y|² is
    ``F + A`` with ``F = fl(B̂ - 2 a·b)``, one matmul of ``[a, 1]`` with
    ``[-2b, B̂]`` (:func:`_estimate` with :func:`_lift`'s columns; scaling
    by -2 is exact; ``B̂`` is the computed norm).  Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.1, bounds a sum of n rounded
    terms in any order, fused or not, by ``gamma_n = n·u / (1 - n·u)`` times
    the sum of their magnitudes:

    * centering: |(a - b) - (x - y)| <= u(|a| + |b|), so |a - b|² differs
      from D by at most 4u(A + B);
    * norms: |B̂ - B| <= gamma_d·B;
    * matmul: d + 1 products, |F - (B̂ - 2a·b)| <= gamma_{d+1}(B̂ + A + B),
      at most 2·gamma_{d+1}(A + B);
    * kernel: d rounded differences, squared and summed, so the kernel value
      K satisfies |K - D| <= gamma_{d+2}·D, and D <= 2(A + B);
    * the test of an estimate against a threshold rounds by at most
      3u(A + B): each of the thresholds ``T - 2e`` and ``T + 2e`` below
      rounds once, by at most u|T| <= 2u(A + B), and the search's test
      ``F + (A - e) <= bound`` (:func:`near_sq_dists`) rounds ``A - e``, by
      at most uA, and the sum, by at most u(|F| + A) <= 2u(A + B).

    Summed, |F + A - K| <= (5d + 13)u(A + B) to first order in u, the test
    included.  The bound used, per row, is
    ``e = (d + 8)·(2**-50·(A + max B) + 2**-1070)`` (:func:`_slack`): its
    relative part (8d + 64)u(A + max B) leaves room for the second-order
    terms and for the rounding of A, max B and e themselves.  Its absolute
    part covers subnormal results, where each of the 3d products behind F,
    B̂ and K rounds by up to 2**-1075 absolutely.  The filter runs only
    where ``4·(A + max B)`` is finite, so no estimate or kernel value can
    overflow.  e depends on the reference only through max B, so it holds
    for every pair of a row with any reference of the set.

    **Why nothing is lost.**  Let T be the rank-th smallest F in a row and
    v the rank-th smallest K, the answer.  At least rank references have
    F <= T, so K <= T + A + e for them and v <= T + A + e.  At least
    m - rank + 1 have F >= T, so K >= T + A - e for them and
    v >= T + A - e.  A reference with F > T + 2e therefore has
    K > T + A + e >= v, strictly farther than the answer, and one with
    F < T - 2e has K < T + A - e <= v, strictly closer.  Pushing values
    strictly below v further down, or strictly above it further up, leaves
    the rank-th smallest unchanged: v is the rank-th smallest of the row
    with -inf for every reference below ``T - 2e``, +inf for every one
    above ``T + 2e``, and kernel values for the band between.  Only the
    band gets kernel values: one per row unless estimates lie within 2e of
    each other.

    **The box cut.**  At d <= 2 the kernel value of a pair is
    ``K = fl(fl(x0 - y0)² + fl(x1 - y1)²)``, each operation correctly
    rounded, and correct rounding is monotone.  Let a block of rows lie in
    the box ``[lo, hi]``.  For a reference y, per dimension, x - y lies
    between lo - y and hi - y, so ``fl(x - y)`` lies between
    ``fl(lo - y)`` and ``fl(hi - y)``, and its magnitude is at least that
    of ``fl(c - y)``, with c the box's nearest coordinate
    ``clip(y, lo, hi)`` (0 when y lies within).  Squaring and adding
    keep the order, so for every row x of the block
    ``near <= K(x, y) <= far``, where near is the kernel's sequence on
    ``c - y`` and far sums ``max(fl(lo - y)², fl(hi - y)²)`` over the
    dimensions in the kernel's order (:func:`_box_bounds`); no slack is
    needed.  Let U be the rank-th smallest far of the block.  At least rank
    references have K <= far <= U for every row, so every row's answer v
    is at most U, and a reference whose near is above U has K > U >= v:
    strictly farther than the answer for every row of the block.  Dropping
    it leaves the rank-th smallest unchanged, and the references kept,
    those with near <= U, include the rank ones with far <= U.  Each block
    ranks its kept references with the kernel and ``_nth_smallest``, so,
    as with the dot-product bound, the cut excludes pairs and the kernel
    supplies every value.  Boxes of ``BOX_ROWS`` rows are cut from the
    rows in a spatial order (:func:`_box_order`), so that they are small.
    """
    lift = lift_points(refs, rows=points)
    if lift is not None:
        return _filtered_ranks(points, refs, rank, lift)
    out = np.empty(points.shape[0])
    if points.shape[1] <= 2 and rank > 2:
        _boxed_ranks(points, refs, rank, out, boxes)
    else:
        _plain_ranks(points, refs, rank, out)
    return out


def _plain_ranks(points: np.ndarray, refs: np.ndarray, rank: int, out: np.ndarray) -> None:
    """``out[:] = ranked_sq_dist(points, refs, rank)`` from every pair's
    kernel value, in row blocks of :func:`sq_dist_blocks`."""
    for start, block in sq_dist_blocks(points, refs):
        out[start : start + block.shape[0]] = _nth_smallest(block, rank)


def _box_order(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` (d <= 2) in the order :func:`_boxed_ranks`
    cuts into boxes of ``BOX_ROWS`` rows: a stable sort on the first
    coordinate, and at d = 2 strips of as many boxes as there are strips,
    each stably sorted on the second coordinate."""
    order = np.argsort(points[:, 0], kind="stable")
    if points.shape[1] == 2:
        n = points.shape[0]
        strip = BOX_ROWS * (math.isqrt(max(n - 1, 0) // BOX_ROWS) + 1)
        for lo in range(0, n, strip):
            ids = order[lo : lo + strip]
            ids[:] = ids[np.argsort(points[ids, 1], kind="stable")]
    return order


@dataclass(eq=False)
class Boxes:
    """Rows (d <= 2) cut into boxes of ``BOX_ROWS`` rows, built by
    :func:`box_layout`.  ``order[i]`` holds the ids of box i's rows, taken
    in turn from the spatial order of :func:`_box_order`; the last box is
    filled up by repeating its last id, so that ``order`` is a
    (boxes, BOX_ROWS) array and the fill sits at the end of
    ``order.reshape(-1)``, after the n real rows.  ``points`` holds their
    coordinates, a (boxes, BOX_ROWS, d) array, and ``lo[i]``, ``hi[i]`` the
    smallest and largest ones in box i, the box ``[lo, hi]`` of
    :func:`_box_bounds`.  The points' layout serves the radii's box cut and
    the search's candidate pass, built once per dataset
    (``Dataset.boxes``)."""

    order: np.ndarray
    points: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def box_layout(points: np.ndarray) -> Boxes | None:
    """The box layout of ``points``; None at d > 2, where the box cut does
    not apply."""
    if points.shape[1] > 2:
        return None
    fill = -points.shape[0] % BOX_ROWS
    order = np.pad(_box_order(points), (0, fill), mode="edge")
    rows = np.take(points, order.reshape(-1, BOX_ROWS), axis=0)
    return Boxes(order.reshape(-1, BOX_ROWS), rows, rows.min(axis=1), rows.max(axis=1))


def kept_values(values: np.ndarray, kept: np.ndarray, count: int) -> np.ndarray:
    """The entries of the rows :func:`near_sq_dists` kept, in the order of
    its values: ``values`` is laid out as the finder's rows (one entry per
    point for the lift; for the box layout, one row of BOX_ROWS entries
    per box, ``np.take(per_point, boxes.order)``), ``kept`` the finder's
    selection along its first axis and ``count`` the number of values,
    which drops the last box's fill."""
    return np.take(values, kept, axis=0).reshape(-1)[:count]


def _box_bounds(lo: np.ndarray, hi: np.ndarray, refs: np.ndarray):
    """``(near, far)``: the (boxes, m) lower and upper bounds of
    :func:`ranked_sq_dist`'s box cut on the kernel values of any row in the
    box ``[lo[i], hi[i]]`` with reference j: the kernel's own sequence on
    the box's nearest point and, per dimension, its farther side.  A bound
    that overflows is inf, as the kernel value would be: an infinite U
    keeps every reference, and an infinite near drops only a reference
    whose kernel value is inf for every row of the box."""
    near = _box_near(lo, hi, refs)
    far, side, gap = (np.empty(near.shape) for _ in range(3))
    with np.errstate(over="ignore"):
        for j in range(lo.shape[1]):
            y = refs[:, j]
            np.subtract(lo[:, j, None], y, out=side)
            np.square(side, out=side)
            np.subtract(hi[:, j, None], y, out=gap)
            np.square(gap, out=gap)
            np.maximum(side, gap, out=far if j == 0 else side)
            if j:
                far += side
    return near, far


def _box_near(lo: np.ndarray, hi: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """The near bounds of :func:`_box_bounds` alone: the kernel's own
    sequence on ``clip(y, lo, hi) - y``, the box's nearest point, a
    (boxes, m) array."""
    near = np.empty((lo.shape[0], refs.shape[0]))
    gap = np.empty_like(near)
    with np.errstate(over="ignore"):
        for j in range(lo.shape[1]):
            y = refs[:, j]
            nearest = near if j == 0 else gap
            np.maximum(y, lo[:, j, None], out=nearest)
            np.minimum(nearest, hi[:, j, None], out=nearest)
            np.subtract(nearest, y, out=nearest)
            np.square(nearest, out=nearest)
            if j:
                near += gap
    return near


def _boxed_ranks(
    points: np.ndarray, refs: np.ndarray, rank: int, out: np.ndarray, boxes: Boxes
) -> None:
    """``out[:] = ranked_sq_dist(points, refs, rank)`` through the box cut
    (d <= 2, rank above 2): the boxes of ``boxes``, their bounds
    taken for as many boxes at once as keep :func:`_box_bounds`' four
    (boxes, m) arrays within ``CHUNK_ELEMENTS`` together, and each box
    ranked against only the references whose lower bound is at most U, the
    rank-th smallest upper bound of the box."""
    group = chunk_rows(4 * refs.shape[0])
    ranked = np.empty(BOX_ROWS)
    for first in range(0, boxes.lo.shape[0], group):
        part = slice(first, first + group)
        near, far = _box_bounds(boxes.lo[part], boxes.hi[part], refs)
        keep = near <= _nth_smallest(far, rank)[:, None]
        for box, ids, rows in zip(keep, boxes.order[part], boxes.points[part]):
            # the fill repeats a row, which takes the same value twice
            _plain_ranks(rows, refs[box], rank, ranked)
            out[ids] = ranked


def _nth_smallest(block: np.ndarray, rank: int) -> np.ndarray:
    """The rank-th smallest entry of each row of ``block``.  Above rank 2 a
    partition, which reorders the rows; at rank 1 a row minimum and at
    rank 2 the second value :func:`_nearest_two` reads, which give the same
    values at a fraction of a partition's cost on rows as short as a center
    set, and leave ``block`` as it was."""
    if rank > 2:
        block.partition(rank - 1, axis=1)
        return block[:, rank - 1]
    if rank == 1:
        return block.min(axis=1)
    return _nearest_two(block)[3]


def _nearest_two(M: np.ndarray):
    """``(assign, assign2, d1sq, d2sq)``: the slots and values of each row's
    smallest and second-smallest entry of ``M``, ties going to the lower
    slot, as in a stable sort of each row (``assign2 = -1`` and
    ``d2sq = inf`` when M has one column).  The smallest entry is masked in
    place and restored before returning, so no second (n, k) array is
    allocated."""
    n, k = M.shape
    rows = np.arange(n)
    assign = np.argmin(M, axis=1)
    d1sq = M[rows, assign]
    if k == 1:
        return assign, np.full(n, -1, dtype=np.int64), d1sq, np.full(n, np.inf)
    M[rows, assign] = np.inf
    assign2 = np.argmin(M, axis=1)
    M[rows, assign] = d1sq
    # a row whose other entries are all inf makes argmin return slot 0 even
    # when slot 0 is the smallest one; a stable sort puts slot 1 second there
    assign2[assign2 == assign] = 1
    return assign, assign2, d1sq, M[rows, assign2]


def _lift(refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(mean, cols)``: the references' mean, and ``cols = [-2b; B̂]``, the
    (d + 1, m) right-hand side of :func:`_estimate`, one column per
    reference."""
    d = refs.shape[1]
    mean = refs.mean(axis=0)
    cols = np.empty((d + 1, refs.shape[0]))
    centered = cols[:d].T
    np.subtract(refs, mean, out=centered)
    _sq_norms(centered, cols[d])
    cols[:d] *= -2
    return mean, cols


def _estimate(points: np.ndarray, mean: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = F``, the (n, m) product of the rows ``[x - mean, 1]`` with
    :func:`_lift`'s ``cols``, in pieces of at most ``GEMM_PRODUCTS``
    multiply-adds.  A piece takes as many columns as all n rows allow, and
    the rows are split only where one column holds too many: every row of a
    piece reuses its columns, which a split into fewer rows over more
    columns would stream again for each piece."""
    n, d = points.shape
    width = max(1, GEMM_PRODUCTS // ((d + 1) * max(n, 1)))
    step = max(1, GEMM_PRODUCTS // ((d + 1) * min(width, cols.shape[1])))
    lead = np.ones((min(step, n), d + 1))
    for start in range(0, n, step):
        rows = points[start : start + step]
        b = rows.shape[0]
        np.subtract(rows, mean, out=lead[:b, :d])
        for lo in range(0, cols.shape[1], width):
            piece = slice(lo, lo + width)
            np.matmul(lead[:b], cols[:, piece], out=out[start : start + b, piece])


def _slack(d: int, scale: np.ndarray) -> np.ndarray | None:
    """The per-row bound e of :func:`ranked_sq_dist` for rows with
    ``scale = A + max B``, computed in place of ``scale``, so that no
    temporary of one value per row is made; None when ``4·max(scale)`` is
    not finite, where the filter must decline."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(4 * scale.max()):
            return None
    scale *= 2.0**-50
    scale += 2.0**-1070
    scale *= d + 8
    return scale


def _pair_sq_dists(
    points: np.ndarray, refs: np.ndarray, owner: np.ndarray, col: np.ndarray
) -> np.ndarray:
    """Kernel values of the pairs ``(points[owner[i]], refs[col[i]])``, in
    the pair form, over chunks whose two gathered blocks hold at most
    ``CHUNK_ELEMENTS`` values together."""
    values = np.empty(owner.size)
    step = chunk_rows(2 * points.shape[1])
    for lo in range(0, owner.size, step):
        pairs = slice(lo, lo + step)
        diff = np.take(points, owner[pairs], axis=0)
        diff -= np.take(refs, col[pairs], axis=0)
        _sq_norms(diff, values[pairs])
    return values


class FarBound:
    """Per row, a lower bound ``low`` on the distance (not squared) to
    every center but the row's own: Hamerly's one bound per point (SDM
    2010), refinement's filter.  It may exclude a nearest pass, never
    supply a value: :meth:`keeps` passes a row only where the kernel value
    to its own center, which the caller has, is argmin's strict winner.

    **The bound.**  Let r be the exact distance between a row x and a
    center c, D = r², K the pair's kernel value and u = 2**-53.  Where K is
    finite, |K - D| <= gamma_{d+2}·D (:func:`ranked_sq_dist`), plus at
    most 2**-1075 for each of the d squares that underflows; a K that
    overflows to inf has D >= MAX/(1 + gamma_{d+2}), MAX the largest
    float.  The slack is ``rel = (d + 8)·2**-50``, (8d + 64)u, which covers
    gamma_{d+2} and the three roundings of each step below to first order
    in u, and ``tiny = (d + 8)·2**-1070`` for the absolute terms.  The
    invariant: ``low[i] <= r`` for row i and every center but its own.

    * :meth:`reset`, from the row's second-smallest kernel value K2, at
      most the K of every center but the nearest: ``low = fl(sqrt(max(
      fl(fl((1 - rel)·min(K2, MAX)) - tiny), 0)))``, whose square is at
      most (1 - gamma_{d+2})·K - d·2**-1075 <= D.
    * :meth:`move`: a center moved by m = |c - c'| <= S, with ``S =
      fl(sqrt(fl(fl((1 + rel)·Ks) + tiny)))`` and Ks the kernel value of
      the move, so r' >= r - m >= low - S by the triangle inequality for
      every other center, with S their largest move.  The new bound
      ``fl(fl(low·(1 - 2u)) - S)`` is at most low - S: with S = 0 it is
      at most low, as rounding is monotone; else a positive result needs
      low > S >= sqrt(tiny), a normal low, so ``fl(low·(1 - 2u)) <=
      low·(1 - u)``, and the difference rounds up by at most u times
      itself.  A negative bound holds trivially; one at -inf (an S of inf)
      keeps no row.
    * :meth:`keeps`: ``B = fl(fl(fl(max(low, 0)²)·(1 - rel)) - tiny)`` is
      at most (1 - gamma_{d+2})·low² - d·2**-1075 <= K for every center
      but the row's own, so a row whose own value is strictly below B has
      its own center as argmin's strict winner, and its own kernel value as
      the nearest one.  A tie is never kept.

    No value here can overflow: low <= sqrt(MAX), and a move whose kernel
    value is inf gives S = inf and a bound of -inf.
    """

    def __init__(self, d2sq: np.ndarray, d: int):
        self.rel = (d + 8) * 2.0**-50
        self.tiny = (d + 8) * 2.0**-1070
        self.low = np.empty(d2sq.size)
        self.reset(slice(None), d2sq)

    def reset(self, rows, d2sq: np.ndarray) -> None:
        """The bounds of ``rows`` from their second-smallest kernel values
        ``d2sq`` (inf with one center)."""
        low = np.minimum(d2sq, np.finfo(np.float64).max)
        low *= 1 - self.rel
        low -= self.tiny
        np.maximum(low, 0, out=low)
        self.low[rows] = np.sqrt(low, out=low)

    def move(self, old: np.ndarray, new: np.ndarray, moved: np.ndarray, labels: np.ndarray) -> None:
        """Lower every bound by the largest move among the other centers,
        once the centers in slots ``moved`` go from their rows of ``old``,
        the (k, d) positions, to those of ``new``; ``labels`` holds each
        row's own slot."""
        shift = np.zeros(old.shape[0])
        with np.errstate(over="ignore"):
            step = _pair_sq_dists(old, new, moved, moved)
            step *= 1 + self.rel
            step += self.tiny
            shift[moved] = np.sqrt(step)
        top = np.argmax(shift)
        others = np.full(shift.size, shift[top])
        shift[top] = 0
        others[top] = shift.max()
        self.low *= 1 - 2.0**-52
        self.low -= np.take(others, labels)

    def keeps(self, own: np.ndarray) -> np.ndarray:
        """Whether each row's kernel value ``own`` to its own center is
        strictly below its bound's: its own center is then its nearest."""
        bar = np.maximum(self.low, 0)
        bar *= bar
        bar *= 1 - self.rel
        bar -= self.tiny
        return own < bar


def _ranked_estimates(points: np.ndarray, lift: Lift, rank: int):
    """Yield ``(start, rows, est, T)`` for the row blocks
    ``rows = points[start : start + chunk_rows(m)]``: ``est`` holds their
    estimates F against the m references of ``lift`` (a view of a buffer
    the next block overwrites, and the caller may) and ``T`` the rank-th
    smallest F of each row, as a column."""
    n = points.shape[0]
    step = chunk_rows(lift.cols.shape[1])
    estimate = np.empty((min(step, n), lift.cols.shape[1]))
    # a partition reorders the rows it reads, so ranks above 2 read a copy
    selected = np.empty_like(estimate) if rank > 2 else estimate
    for start in range(0, n, step):
        rows = points[start : start + step]
        est = estimate[: rows.shape[0]]
        _estimate(rows, lift.mean, lift.cols, est)
        sel = selected[: rows.shape[0]]
        if rank > 2:
            np.copyto(sel, est)
        yield start, rows, est, _nth_smallest(sel, rank)[:, None]


def _filtered_ranks(points: np.ndarray, refs: np.ndarray, rank: int, lift: Lift) -> np.ndarray:
    """:func:`ranked_sq_dist` through the dot-product filter, in row blocks
    of ``chunk_rows(m)`` rows; ``lift`` is :func:`lift_points` of ``refs``
    with ``points`` as its rows."""
    m = refs.shape[0]
    out = np.empty(points.shape[0])
    for start, rows, est, T in _ranked_estimates(points, lift, rank):
        b = rows.shape[0]
        reach = 2 * lift.slack[start : start + b, None]
        low = T - reach
        high = T + reach
        band = (est >= low) & (est <= high)
        flat = np.flatnonzero(band)
        owner, col = np.divmod(flat, m)
        values = _pair_sq_dists(rows, refs, owner, col)
        res = out[start : start + b]
        res[owner] = values  # the answer where a row's band holds one reference
        if flat.size > b:
            many = np.bincount(owner, minlength=b) > 1
            fill = np.where(est[many] < low[many], -np.inf, np.inf)
            fill[band[many]] = values[many[owner]]
            res[many] = _nth_smallest(fill, rank)
    return out


@dataclass(eq=False)
class Lift:
    """Rows as the dot-product filter sees them, against a reference set:
    :func:`ranked_sq_dist`'s set-up, built by :func:`lift_points`.

    ``mean`` and ``cols`` are :func:`_lift` of the references, and
    ``slack[i]`` is the bound e of row i as the lead row.  In the search's
    candidate pass the points are their own references: every candidate is
    one of them, so its column is ``cols[:, p]``, its B is at most
    ``max(cols[d])``, and e_i holds for row i against any of them; it is
    computed once per dataset (``Dataset.lift``), not once per step.
    """

    mean: np.ndarray
    cols: np.ndarray
    slack: np.ndarray


def lift_points(refs: np.ndarray, rows: np.ndarray | None = None) -> Lift | None:
    """The dot-product filter's state for ``rows`` (``refs`` themselves
    when None) against ``refs``; None where the filter declines: d <= 2,
    where the kernel costs about as much per pair as the estimate, at most
    two references, where an estimate costs as much as the kernel value it
    could save, or a bound that is not finite.  The one place that decides
    where the dot-product filter applies; the filtered functions below take
    None and then return the kernel's values, except that
    :func:`ranked_sq_dist` and :func:`near_sq_dists`, the places that
    choose between the two filters, take the box cut instead at d <= 2 (for
    the radii, at ranks above 2).

    A row's A is the centered norm the lift computes for it as a reference,
    or, for separate rows, the kernel's squared distance to the mean."""
    m, d = refs.shape
    if d <= 2 or m <= 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cols = _lift(refs)
        scale = cols[d].copy() if rows is None else sq_dists(rows, mean)
        scale += cols[d].max()
        slack = _slack(d, scale)
    return None if slack is None else Lift(mean, cols, slack)


def near_sq_dists(
    points: np.ndarray,
    p: int,
    bound: np.ndarray,
    lift: Lift | None,
    boxes: Boxes | None,
    reach: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(kept, values)``: a selection of rows that holds every row whose
    squared distance to row ``p`` may be at most its ``bound``, and their
    kernel values to p, one per kept row; every row left out is strictly
    farther than its bound.

    This function alone chooses the finder for the search's candidate pass,
    and ``kept`` is that finder's selection:

    * the dot-product lift (``lift``, :func:`lift_points` of ``points``;
      d > 2), where ``kept`` holds the ids of the rows kept, ascending.
      Point p is :func:`ranked_sq_dist`'s lead row, with every point as a
      reference: one estimate row F of ``[a_p, 1]`` against ``lift.cols``,
      one A (p's norm) and one e (``lift.slack[p]``).  A row is kept unless
      ``fl(F + fl(A - e)) > bound``.  The bound derived there budgets this
      test for a row against every point, so a row that fails it has
      K > bound.
    * else the box layout (``boxes``, :func:`box_layout` of ``points``;
      d <= 2), where ``kept`` holds the boxes kept, ascending, and the
      values follow ``boxes.order`` without the last box's fill.  With
      ``reach`` the largest bound in each box (``np.take(bound,
      boxes.order).max(axis=1)``), a box is kept unless its lower bound to
      p, the ``near`` of :func:`_box_bounds` in the kernel's own rounding
      (:func:`_box_near`), is above its reach; a box left out has
      K >= near > reach >= bound for each of its rows
      (:func:`ranked_sq_dist` proves ``near <= K``).
    * else every row, with ``kept`` ``np.arange(n)``, the ids of every
      row, as the lift's are.

    :func:`kept_values` reads the kept rows' entries of an array laid out
    as the finder's rows.  Read as a row with +inf for every row left out,
    ``np.minimum(row, bound)``, and every comparison of the row with
    ``bound`` or with anything at most ``bound``, come out as with
    :func:`sq_dists`, bit for bit.
    """
    if lift is not None:
        est = np.empty(points.shape[0])
        _estimate(points[p : p + 1], lift.mean, lift.cols, est[None])
        est += lift.cols[-1, p] - lift.slack[p]
        rows = np.flatnonzero(est <= bound)
        return rows, sq_dists(np.take(points, rows, axis=0), points[p])
    if boxes is None:
        return np.arange(points.shape[0]), sq_dists(points, points[p])
    near = _box_near(boxes.lo, boxes.hi, points[p][None])[:, 0]
    kept = np.flatnonzero(near <= reach)
    count = kept.size * BOX_ROWS
    if count and kept[-1] == boxes.order.shape[0] - 1:
        count -= boxes.order.size - points.shape[0]
    rows = np.take(boxes.points, kept, axis=0).reshape(-1, points.shape[1])[:count]
    return kept, sq_dists(rows, points[p])


def two_nearest(points: np.ndarray, centers: np.ndarray):
    """``(assign, assign2, d1sq, d2sq)``: the slot and squared distance of
    each point's nearest and second-nearest center, ties going to the lower
    slot, as :func:`_nearest_two` reads them off :func:`sq_dist_matrix`
    (``assign2 = -1`` and ``d2sq = inf`` for one center), one row block of
    :func:`_cut_blocks` at rank 2 at a time.  A row's read-off depends on
    that row alone, so no (n, k) array is made."""
    n = points.shape[0]
    assign, assign2 = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    d1sq, d2sq = np.empty(n), np.empty(n)
    for start, block in _cut_blocks(points, centers, 2):
        part = slice(start, start + block.shape[0])
        assign[part], assign2[part], d1sq[part], d2sq[part] = _nearest_two(block)
    return assign, assign2, d1sq, d2sq


def nearest(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(assign, d1sq)``: the slot and squared distance of each point's
    nearest center, the lowest slot on ties, as ``argmin`` reads them off
    :func:`sq_dist_matrix`: :func:`two_nearest`'s first and third fields,
    from :func:`_cut_blocks` at rank 1."""
    n = points.shape[0]
    assign, d1sq = np.empty(n, dtype=np.intp), np.empty(n)
    for start, block in _cut_blocks(points, centers, 1):
        part = slice(start, start + block.shape[0])
        np.argmin(block, axis=1, out=assign[part])
        d1sq[part] = np.take_along_axis(block, assign[part, None], axis=1)[:, 0]
    return assign, d1sq


def _cut_blocks(points: np.ndarray, centers: np.ndarray, rank: int):
    """Yield ``(start, block)``, as :func:`sq_dist_blocks` does: each row of
    ``block`` holds the kernel values from ``points[start + i]`` to every
    center at most as far as its rank-th nearest, and +inf or the kernel
    value for every other center, so that the smallest ``rank`` entries of
    each row, slots and ties included, are those of :func:`sq_dist_matrix`.
    Every block is a view of one (chunk, k) buffer that the next block
    overwrites.

    Where the filter declines (:func:`lift_points` of ``centers`` with
    ``points`` as its rows, which declines at most two centers, since the
    cut would keep both), the blocks are :func:`sq_dist_blocks`' own.
    Otherwise this is :func:`ranked_sq_dist`'s upper cut: a center whose
    estimate exceeds the row's rank-th smallest estimate T by more than 2e
    is strictly farther than the rank-th nearest center, so it gets +inf,
    and every center at or below that distance its kernel value.  The cut
    is written over the block's estimates once it has read them.
    """
    lift = lift_points(centers, rows=points)
    if lift is None:
        yield from sq_dist_blocks(points, centers)
        return
    k = centers.shape[0]
    for start, rows, est, T in _ranked_estimates(points, lift, rank):
        b = rows.shape[0]
        high = T + 2 * lift.slack[start : start + b, None]
        flat = np.flatnonzero(est <= high)
        owner, col = np.divmod(flat, k)
        est.fill(np.inf)
        est.flat[flat] = _pair_sq_dists(rows, centers, owner, col)
        yield start, est
