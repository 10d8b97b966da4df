"""The distance kernel must round exactly like a per-row einsum.

Cached distances, from-scratch rebuilds and coverage predicates are compared
with ``==`` throughout the package, so the batched kernel is held to bit
equality with the per-center ``einsum("ij,ij->i")`` loop it replaced, for
every dimension, batch shape, chunk boundary and coordinate scale below.
The dot-product filter and the box cut are held to the same standard: the
rank statistic the radii get must equal a partition of the per-row
reference, and what the search reads off its filtered rows must equal what
it reads off the kernel.
"""

from __future__ import annotations

import ast
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkmeans import Dataset, aspect_ratio, compute_radii
from fairkmeans import _dist
from fairkmeans._dist import (
    FarBound,
    box_layout,
    chunk_rows,
    dists,
    fsum,
    fsums,
    kept_values,
    lift_points,
    near_sq_dists,
    nearest,
    ranked_sq_dist,
    sq_dist_matrix,
    sq_dists,
    two_nearest,
)
from fairkmeans.anchors import AnchorSet, _coverage, _pins, clamped_moves

from conftest import d16_layout


def reference(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one per-row einsum per center."""
    out = np.empty((points.shape[0], centers.shape[0]))
    for j in range(centers.shape[0]):
        diff = points - centers[j]
        out[:, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def points(seed, n, d, scale=1.0):
    return np.random.default_rng(seed).normal(size=(n, d)) * scale


def reference_nearest_two(M):
    """``(assign, assign2, d1sq, d2sq)``: the first two slots of a stable
    sort of each row of M, and their values."""
    n, k = M.shape
    rows = np.arange(n)
    order = np.argsort(M, axis=1, kind="stable")
    if k == 1:
        return order[:, 0], np.full(n, -1), M[:, 0], np.full(n, np.inf)
    return order[:, 0], order[:, 1], M[rows, order[:, 0]], M[rows, order[:, 1]]


NEAREST_TWO = ("assign", "assign2", "d1sq", "d2sq")


@pytest.mark.parametrize("d", [*range(1, 101), 128])
def test_matrix_matches_reference(d):
    for k in (1, 7, 100):
        P, C = points(d, 23, d), points(1000 + d, k, d)
        assert np.array_equal(sq_dist_matrix(P, C), reference(P, C)), k


@pytest.mark.parametrize("d", [1, 2, 3, 16])
@pytest.mark.parametrize("k", [1, 7, 100])
def test_chunk_boundaries(d, k):
    rows = chunk_rows(k * d)
    C = points(1, k, d)
    for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
        if n >= 1:
            P = points(n, n, d)
            assert np.array_equal(sq_dist_matrix(P, C), reference(P, C)), n


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(_dist, "CHUNK_ELEMENTS", chunk)
    for d in (1, 2, 3, 9):
        for k in (1, 7):
            rows = chunk_rows(k * d)
            C = points(2, k, d)
            for n in {max(1, rows - 1), rows, rows + 1, 3 * rows + 1}:
                P = points(n, n, d)
                assert np.array_equal(sq_dist_matrix(P, C), reference(P, C)), (d, k, n)
                assert np.array_equal(nearest(P, C)[1], reference(P, C).min(axis=1))
                check_cut(P, C)


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-150, 151, 25))
@pytest.mark.parametrize("d", [1, 2, 3, 8, 33])
def test_coordinate_scales(scale, d):
    P, C = points(3, 40, d, scale), points(4, 7, d, scale)
    want = reference(P, C)
    assert np.all(np.isfinite(want))
    assert np.array_equal(sq_dist_matrix(P, C), want)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_duplicate_rows(d):
    base = points(5, 6, d)
    idx = np.random.default_rng(6).integers(0, 6, size=50)
    P, C = base[idx], np.concatenate([base[:3], base[:3]])
    got = sq_dist_matrix(P, C)
    assert np.array_equal(got, reference(P, C))
    assert np.array_equal((got == 0).any(axis=1), idx < 3)


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_wrappers(d):
    P, C = points(7, 300, d), points(8, 12, d)
    want = reference(P, C)
    assert np.array_equal(sq_dists(P, C[4]), want[:, 4])
    assert np.array_equal(dists(P, C[4]), np.sqrt(want[:, 4]))
    assert np.array_equal(nearest(P, C)[1], want.min(axis=1))


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_build_coverage_matches_covers_position(d):
    X = points(9, 200, d)
    zones = np.arange(0, 200, 17)
    # every radius reaches exactly to the last anchor, so boundary ties occur
    radii = np.sqrt(reference(X[zones], X[zones[-1:]])[:, 0])
    aset = AnchorSet(anchors=zones, positions=X[zones].copy(), zone_radius=radii, gamma=3.0)
    centers = np.concatenate([zones[::-1], np.arange(5, 200, 23)])
    covers = _coverage(aset, X[centers])
    want = np.sqrt(reference(X[centers], X[zones])) <= radii
    assert np.array_equal(covers, want)
    assert covers.any() and not covers.all()
    # one center at a time, as the search tests a sampled point
    rows = np.stack([_coverage(aset, X[c][None])[0] for c in centers])
    assert np.array_equal(rows, want)
    # refinement's pins and clamped moves read the same table: each covered
    # zone pins one of its coverers (center 51 is listed twice, a tie), and
    # each candidate stays in every zone pinned to it
    pin = _pins(aset, X[centers])
    covered = np.flatnonzero(covers.any(axis=0))
    assert np.array_equal(np.flatnonzero(pin >= 0), covered)
    assert covers[pin[covered], covered].all()
    means = points(10, centers.size, d, scale=4.0)
    moved = _coverage(aset, clamped_moves(aset, X[centers], means))
    assert moved[pin[covered], covered].all()


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_ranked_sq_dist_matches_partition(d):
    X = points(10, 400, d)
    X[50:60] = X[0]  # ties in the rank statistic
    ref_ids = np.random.default_rng(11).choice(400, size=90, replace=False)
    for ref in (X, X[ref_ids]):
        for rank in (1, 7, ref.shape[0]):
            want = np.partition(reference(X, ref), rank - 1, axis=1)[:, rank - 1]
            assert np.array_equal(ranked_sq_dist(X, ref, rank, box_layout(X)), want)


@pytest.mark.parametrize("chunk", [1000, 5000, 20000])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 33])
def test_ranked_sq_dist_partial_last_chunk(monkeypatch, chunk, d):
    # the blocks share one buffer: the last, shorter block must not read
    # rows left over from the block before it; the filter's products are
    # split too, with a short last piece
    monkeypatch.setattr(_dist, "CHUNK_ELEMENTS", chunk)
    monkeypatch.setattr(_dist, "GEMM_PRODUCTS", 700)
    X = points(14, 437, d)
    ref = X[::3]
    rows = chunk_rows(ref.shape[0])
    assert X.shape[0] > rows and X.shape[0] % rows
    for rank in (1, 5, ref.shape[0]):
        want = np.partition(reference(X, ref), rank - 1, axis=1)[:, rank - 1]
        assert np.array_equal(ranked_sq_dist(X, ref, rank, box_layout(X)), want), rank


def ranked_reference(X, ref, rank):
    return np.partition(reference(X, ref), rank - 1, axis=1)[:, rank - 1]


@pytest.mark.parametrize("d", [3, 4, 8, 16, 33])
def test_filtered_radii_match_reference(d):
    n = 150
    X = points(20 + d, n, d)
    ds = Dataset(X)
    for k in (1, 3, n):
        want = np.sqrt(ranked_reference(X, X, -(-n // k)))
        assert np.array_equal(compute_radii(ds, k).delta, want), k
        # a sample of at least n points is a permutation of all of them
        for size in (40, n, 2 * n):
            got = compute_radii(ds, k, mode="sampled", sample_size=size, seed=d)
            s = min(size, n)
            ids = np.random.default_rng(d).choice(n, size=s, replace=False)
            want = np.sqrt(ranked_reference(X, X[ids], -(-s // k)))
            assert np.array_equal(got.delta, want), (k, size)


def lattice(d, side):
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * d, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def far_lattices(jitter):
    base = lattice(4, 4)
    X = np.concatenate([base, base + 1e6])
    return X + np.random.default_rng(15).uniform(-jitter, jitter, size=X.shape)


def offset_unit_spacing(rng):
    X = 1e8 + rng.integers(0, 6, size=(300, 5)).astype(np.float64)
    X[:, 1] -= 2e8  # an offset of each sign
    return X


def duplicate_heavy(d):
    rng = np.random.default_rng(17)
    base = points(18, 6, d)
    return np.concatenate([base[rng.integers(0, 6, size=250)], points(19, 30, d)])


# Point sets where the estimate's rounding error dwarfs the gaps between the
# distances the search compares: centered norms near 1e12 with unit or 1e-7
# gaps, a 1e8 offset, and whole groups of identical rows.
ADVERSARIAL = {
    "far lattices": lambda: far_lattices(0.0),
    "far lattices, jitter": lambda: far_lattices(1e-7),
    "offset 1e8": lambda: offset_unit_spacing(np.random.default_rng(16)),
    "duplicates d=3": lambda: duplicate_heavy(3),
    "duplicates d=8": lambda: duplicate_heavy(8),
}


@pytest.mark.parametrize("jitter", [0.0, 1e-7])
def test_filter_two_far_lattices(jitter):
    # the reference mean sits between two lattices 1e6 apart, so every
    # centered norm is about 1e12 while the distances that decide a rank are
    # small integers: exact ties at the threshold, or (with jitter) distinct
    # values closer together than the estimate's rounding error
    X = far_lattices(jitter)
    for rank in (1, 2, 5, 9, 40, 100, 256, 257, 400, 512):
        got = ranked_sq_dist(X, X, rank, box_layout(X))
        assert np.array_equal(got, ranked_reference(X, X, rank)), rank
    ref = X[::3]
    for rank in (1, 7, 86, 87, ref.shape[0]):
        got = ranked_sq_dist(X, ref, rank, box_layout(X))
        assert np.array_equal(got, ranked_reference(X, ref, rank)), rank


def test_filter_large_offset_unit_spacing():
    rng = np.random.default_rng(16)
    X = offset_unit_spacing(rng)
    for ref in (X, X[rng.choice(300, size=70, replace=False)]):
        for rank in (1, 4, 30, ref.shape[0] // 2, ref.shape[0]):
            got = ranked_sq_dist(X, ref, rank, box_layout(X))
            assert np.array_equal(got, ranked_reference(X, ref, rank))


@pytest.mark.parametrize("d", [3, 8])
def test_filter_duplicate_heavy_rows(d):
    # most rows repeat one of six points: whole tie groups pass the
    # threshold, so rows keep more than rank references
    X = duplicate_heavy(d)
    for ref in (X, X[::4]):
        for rank in (1, 2, 40, 41, 100, ref.shape[0]):
            rank = min(rank, ref.shape[0])
            got = ranked_sq_dist(X, ref, rank, box_layout(X))
            assert np.array_equal(got, ranked_reference(X, ref, rank))


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-150, 151, 25))
@pytest.mark.parametrize("d", [3, 8, 33])
def test_filter_coordinate_scales(scale, d):
    X, ref = points(3, 60, d, scale), points(4, 25, d, scale)
    want = ranked_reference(X, ref, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ranked_sq_dist(X, ref, 5, box_layout(X))
    assert np.array_equal(got, want)


def test_filter_declines_near_overflow():
    # 4 (|x - mean|² + max |y - mean|²) overflows while every distance is
    # finite: the filter's bound would not be, so the kernel decides alone
    X = points(21, 40, 8) * 2e153
    ref = X[::2]
    mean = ref.mean(axis=0)[None]
    with np.errstate(over="ignore"):
        assert not np.isfinite(4 * (reference(X, mean).max() + reference(ref, mean).max()))
    with np.errstate(over="raise"):
        want = ranked_reference(X, ref, 3)
    assert np.all(np.isfinite(want))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ranked_sq_dist(X, ref, 3, box_layout(X))
    assert np.array_equal(got, want)


def candidate_row(X, p, bound):
    """The candidate pass as the search reads it: kernel values at the rows
    its finder keeps, each once, and +inf elsewhere."""
    boxes = box_layout(X)
    reach = None if boxes is None else np.take(bound, boxes.order).max(axis=1)
    kept, values = near_sq_dists(X, p, bound, lift_points(X), boxes, reach)
    rows = kept if boxes is None else kept_values(boxes.order, kept, values.size)
    assert np.unique(rows).size == rows.size == values.size
    got = np.full(X.shape[0], np.inf)
    got[rows] = values
    return got


def check_below(X, p, bound):
    """The filtered candidate row keeps every kernel value it may need, and
    drops only rows strictly above their bound."""
    got = candidate_row(X, p, bound)
    want = reference(X, X[p : p + 1])[:, 0]
    kept = got != np.inf
    assert np.array_equal(got[kept], want[kept])
    assert np.all(want[~kept] > bound[~kept])
    assert np.array_equal(np.minimum(got, bound), np.minimum(want, bound))
    return kept


@pytest.mark.parametrize("name", ADVERSARIAL)
@pytest.mark.parametrize("k", [1, 2, 100])
def test_candidate_filter_adversarial(name, k):
    X = ADVERSARIAL[name]()
    n = X.shape[0]
    ids = np.random.default_rng(k).choice(n, size=k, replace=False)
    d2sq = reference_nearest_two(reference(X, X[ids]))[3]
    for p in (*ids[:3], 0, n // 2, n - 1):
        exact = reference(X, X[p : p + 1])[:, 0]
        kept = check_below(X, p, d2sq)
        if k == 1:
            assert kept.all()  # d2sq is inf
        # a bound one ulp above the exact value, or equal to it: every row
        # must keep its value, however close the estimate comes
        assert check_below(X, p, np.nextafter(exact, np.inf)).all()
        assert check_below(X, p, exact).all()
        check_below(X, p, np.nextafter(exact, -np.inf))


def test_candidate_filter_drops_far_rows():
    X = points(22, 2000, 8)
    d2sq = reference_nearest_two(reference(X, X[:50]))[3]
    kept = check_below(X, 7, d2sq)
    assert 0 < kept.sum() < 0.2 * X.shape[0]


@pytest.mark.parametrize("name", ["far lattices", "far lattices, jitter", "offset 1e8"])
@pytest.mark.parametrize("k", [1, 2, 100])
@pytest.mark.parametrize("d", [1, 2])
def test_candidate_boxes_adversarial(name, k, d):
    # the box layout finds the candidate's rows at d <= 2, with bounds in
    # the kernel's own rounding: ties at the bound keep their rows
    X = ADVERSARIAL[name]()[:, :d]
    n = X.shape[0]
    ids = np.random.default_rng(k).choice(n, size=k, replace=False)
    d2sq = reference_nearest_two(reference(X, X[ids]))[3]
    for p in (*ids[:3], 0, n // 2, n - 1):
        exact = reference(X, X[p : p + 1])[:, 0]
        kept = check_below(X, p, d2sq)
        if k == 1:
            assert kept.all()  # d2sq is inf
        assert check_below(X, p, np.nextafter(exact, np.inf)).all()
        assert check_below(X, p, exact).all()
        check_below(X, p, np.nextafter(exact, -np.inf))


def check_cut(P, C):
    """The nearest-two pass gives the slots and values of each row's two
    nearest centers that a stable sort of the kernel's full matrix gives,
    ties included, with the same dtypes."""
    got = two_nearest(P, C)
    want = reference_nearest_two(reference(P, C))
    for field, a, b in zip(NEAREST_TWO, got, want):
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def cut_pairs(monkeypatch, P, C):
    """The number of (point, center) pairs that get kernel values in the
    nearest-two pass of ``P`` against ``C``: the filter's kept pairs, or
    every pair where the pass takes the full kernel matrix instead."""
    pairs = []

    def counting(points, refs, owner, col, original=_dist._pair_sq_dists):
        pairs.append(owner.size)
        return original(points, refs, owner, col)

    def full(points, centers, original=_dist.sq_dist_matrix):
        pairs.append(points.shape[0] * centers.shape[0])
        return original(points, centers)

    with monkeypatch.context() as patch:
        patch.setattr(_dist, "_pair_sq_dists", counting)
        patch.setattr(_dist, "sq_dist_matrix", full)
        two_nearest(P, C)
    return sum(pairs)


@pytest.mark.parametrize("name", ADVERSARIAL)
@pytest.mark.parametrize("k", [2, 3, 100])
def test_kscan_filter_adversarial(name, k):
    X = ADVERSARIAL[name]()
    n = X.shape[0]
    rng = np.random.default_rng(k)
    ids = rng.choice(n, size=k, replace=False)
    check_cut(X, X[ids])
    check_cut(X[np.sort(rng.choice(n, size=n // 3, replace=False))], X[ids])
    # centers repeating one point: a tie group at every row's nearest
    dup = ids.copy()
    dup[k // 2 :] = ids[0]
    check_cut(X, X[dup])


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([3, 8, 16]),
    n=st.integers(1, 40),
    k=st.sampled_from(["1", "2", "3", "n"]),
    spread=st.integers(1, 4),
    corners=st.booleans(),
    jitter=st.sampled_from([0.0, 1e-7]),
    scale=st.sampled_from([1.0, 2.0**-30, 1e150, "edge"]),
    off_points=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_filtered_pass_equals_the_kernel(
    d, n, k, spread, corners, jitter, scale, off_points, seed
):
    # rows on a small integer grid (or its corners) repeat each other and
    # tie at many distances; centers are drawn with repeats, some on the
    # rows and some on the grid off them.  At the "edge" scale (about
    # 1e152-1e153) every distance stays below 1e308 while 4 (A + max B)
    # overflows for most corner sets, so the lift declines there.
    rng = np.random.default_rng(seed)
    k = n if k == "n" else int(k)

    def grid(rows):
        if corners:
            return spread * rng.choice([-1, 1], size=(rows, d))
        return rng.integers(-spread, spread + 1, size=(rows, d))

    P = grid(n) + jitter * rng.standard_normal((n, d))
    C = P[rng.integers(0, n, size=k)]
    off = rng.random(k) < off_points
    C[off] = grid(off.sum())
    if scale == "edge":
        scale = np.sqrt(1e308 / (4 * d * spread**2))
    P, C = P * scale, C * scale
    check_cut(P, C)
    assert np.array_equal(nearest(P, C)[1], reference(P, C).min(axis=1))


def test_filtered_pass_cuts_far_centers(monkeypatch):
    P, C = points(25, 3000, 8), points(26, 100, 8)
    check_cut(P, C)
    assert 0 < cut_pairs(monkeypatch, P, C) < 0.2 * P.shape[0] * C.shape[0]


@pytest.mark.parametrize("gemm", [50, 700, 1 << 18])
def test_filters_split_products(monkeypatch, gemm):
    # the estimates' matmuls are split into pieces, with a short last one
    monkeypatch.setattr(_dist, "GEMM_PRODUCTS", gemm)
    X = points(23, 437, 6)
    ids = np.arange(0, 437, 9)
    d2sq = reference_nearest_two(reference(X, X[ids]))[3]
    assert 0 < check_below(X, 5, d2sq).sum() < X.shape[0]
    check_cut(X, X[ids])
    assert 0 < cut_pairs(monkeypatch, X, X[ids]) < X.shape[0] * ids.size


def test_lift_declines():
    assert lift_points(points(24, 30, 2)) is None
    with np.errstate(over="ignore"):
        assert lift_points(points(21, 40, 8) * 2e153) is None
    assert lift_points(points(21, 40, 8) * 1e150) is not None
    # two references: an estimate costs as much as the value it could save
    X = points(25, 40, 8)
    assert lift_points(X[:2], rows=X) is None and lift_points(X[:2]) is None
    assert lift_points(X[:3], rows=X) is not None


@pytest.mark.parametrize("k", [1, 2])
def test_two_nearest_leaves_the_decline_to_lift(monkeypatch, k):
    # lift_points alone decides where the filter applies: the pass asks it
    # even where it declines, and then every pair gets its kernel value
    calls = []

    def spy(refs, rows=None):
        calls.append(refs.shape[0])
        return lift_points(refs, rows)

    monkeypatch.setattr(_dist, "lift_points", spy)
    X = points(26, 50, 8)
    got = two_nearest(X, X[:k])
    assert calls == [k]
    for field, a, b in zip(NEAREST_TWO, got, reference_nearest_two(reference(X, X[:k]))):
        assert np.array_equal(a, b), field


def test_compute_radii_matches_reference():
    X = points(12, 500, 3)
    ds = Dataset(X)
    exact = compute_radii(ds, 9)
    rank = -(-500 // 9)
    want = np.sqrt(np.partition(reference(X, X), rank - 1, axis=1)[:, rank - 1])
    assert np.array_equal(exact.delta, want)
    sampled = compute_radii(ds, 9, mode="sampled", sample_size=120, seed=3)
    ids = np.random.default_rng(3).choice(500, size=120, replace=False)
    rank = -(-120 // 9)
    want = np.sqrt(np.partition(reference(X, X[ids]), rank - 1, axis=1)[:, rank - 1])
    assert np.array_equal(sampled.delta, want)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_aspect_ratio_matches_pairwise_loop(d):
    X = points(13, 120, d)
    X[7] = X[3]  # a duplicate pair is skipped in the minimum
    max_sq, min_pos = 0.0, np.inf
    for i in range(X.shape[0] - 1):
        sq = reference(X[i + 1 :], X[i : i + 1])[:, 0]
        max_sq = max(max_sq, float(sq.max()))
        min_pos = min(min_pos, float(sq[sq > 0].min()))
    assert aspect_ratio(Dataset(X)) == float(np.sqrt(max_sq / min_pos))


# The box cut: at d <= 2 the radii (ranks above 2) rank each box of nearby
# rows against the references its bounds cannot rule out.  Its bounds are
# the kernel's own rounding, with no slack, so the cases below put ties
# exactly at the rank and boxes of zero width, where near == far == K.


def identical_blocks(d):
    # four points, each repeated over two whole boxes
    rng = np.random.default_rng(30)
    X = np.repeat(points(31, 4, d), 2 * _dist.BOX_ROWS, axis=0)
    return X[rng.permutation(X.shape[0])]


def box_lattice(d):
    side = 600 if d == 1 else 25
    return lattice(d, side)


def box_offset(d):
    X = 1e8 + np.random.default_rng(32).integers(0, 30, size=(600, d)).astype(np.float64)
    X[:, -1] -= 2e8  # an offset of each sign at d = 2
    return X


BOX_CASES = {
    "identical blocks": identical_blocks,
    "lattice": box_lattice,
    "offset 1e8": box_offset,
    "normal, short last box": lambda d: points(33, 3 * _dist.BOX_ROWS + 17, d),
    "duplicates": duplicate_heavy,
}


def check_box_cut(X, ref):
    m = ref.shape[0]
    for rank in (3, (m + 3) // 2, m):
        got = ranked_sq_dist(X, ref, rank, box_layout(X))
        assert np.array_equal(got, ranked_reference(X, ref, rank)), rank


@pytest.mark.parametrize("name", BOX_CASES)
@pytest.mark.parametrize("d", [1, 2])
def test_box_cut_matches_partition(name, d):
    X = BOX_CASES[name](d)
    n = X.shape[0]
    check_box_cut(X, X)
    check_box_cut(X, X[np.random.default_rng(d).choice(n, size=n // 5, replace=False)])


@pytest.mark.parametrize("rows", [1, 7, 128])
@pytest.mark.parametrize("chunk", [300, 5000])
@pytest.mark.parametrize("d", [1, 2])
def test_box_cut_small_chunks(monkeypatch, rows, chunk, d):
    # bounds are taken for a few boxes at a time and the kept references
    # of one box are ranked in several row chunks, with short last groups,
    # strips and boxes; boxes of one row have zero width
    monkeypatch.setattr(_dist, "CHUNK_ELEMENTS", chunk)
    monkeypatch.setattr(_dist, "BOX_ROWS", rows)
    for X in (points(34, 437, d), box_lattice(d)[::2]):
        check_box_cut(X, X[::3])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("d", [1, 2])
def test_box_cut_overflow(mode, d):
    # near 1e153 the squares of the differences, and the bounds, overflow
    # between a far group and the rest: the cut still gives the kernel's
    # values, inf included, and the radii still name the cause
    X = points(35, 400, d, scale=1e153)
    X[:30] += 1.5e154
    with np.errstate(over="ignore"):
        want = ranked_reference(X, X, 40)
    assert np.isinf(want).any() and np.isfinite(want).any()
    assert np.array_equal(ranked_sq_dist(X, X, 40, box_layout(X)), want)
    with pytest.raises(ValueError, match="^squared distances overflow float64.*rescale the points"):
        compute_radii(Dataset(X), 4, mode=mode, sample_size=100)


def box_pairs(monkeypatch, X, ref, rank):
    """The number of (row, reference) pairs that get kernel values in
    ``ranked_sq_dist(X, ref, rank, box_layout(X))`` through the plain path's blocks."""
    pairs = []

    def counting(points, refs, rank, out, original=_dist._plain_ranks):
        pairs.append(points.shape[0] * refs.shape[0])
        original(points, refs, rank, out)

    with monkeypatch.context() as patch:
        patch.setattr(_dist, "_plain_ranks", counting)
        got = ranked_sq_dist(X, ref, rank, box_layout(X))
    assert np.array_equal(got, ranked_reference(X, ref, rank))
    return sum(pairs)


def blobs(seed, n, d):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-20, 20, size=(10, d))
    return centers[rng.integers(0, 10, size=n)] + rng.normal(size=(n, d))


@pytest.mark.parametrize("d", [1, 2])
def test_box_cut_drops_far_references(monkeypatch, d):
    # ten unit blobs: a box's bounds rule out the blobs far from it
    X = blobs(36, 3000, d)
    ref = X[::3]
    assert 0 < box_pairs(monkeypatch, X, ref, 100) < 0.5 * X.shape[0] * ref.shape[0]
    # ranks 1 and 2 and d > 2 never take the cut
    assert box_pairs(monkeypatch, X, ref, 2) == X.shape[0] * ref.shape[0]
    assert box_pairs(monkeypatch, points(36, 300, 3), points(37, 100, 3), 50) == 0


@pytest.mark.parametrize("name", BOX_CASES)
@pytest.mark.parametrize("d", [1, 2])
def test_candidate_boxes_cases(name, d):
    X = BOX_CASES[name](d)
    ids = np.random.default_rng(d).choice(X.shape[0], size=10, replace=False)
    d2sq = reference_nearest_two(reference(X, X[ids]))[3]
    for p in (0, X.shape[0] - 1, *ids[:2]):
        check_below(X, p, d2sq)


@pytest.mark.parametrize("d", [1, 2])
def test_candidate_boxes_drop_far_rows(d):
    # ten unit blobs: the boxes far from the candidate are left out
    X = blobs(36, 3000, d)
    d2sq = reference_nearest_two(reference(X, X[:10]))[3]
    kept = check_below(X, 7, d2sq)
    assert 0 < kept.sum() < 0.5 * X.shape[0]


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    n=st.integers(1, 300),
    m=st.integers(3, 60),
    rank=st.floats(0.0, 1.0),
    spread=st.integers(1, 6),
    jitter=st.sampled_from([0.0, 1e-7]),
    scale=st.sampled_from([1.0, 2.0**-30, 1e8, 1e150]),
    offset=st.sampled_from([0.0, 1e8]),
    rows=st.sampled_from([1, 5, 128]),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_cut_equals_the_plain_path(d, n, m, rank, spread, jitter, scale, offset, rows, seed):
    # rows on a small integer grid repeat each other and tie at many
    # distances; references are drawn with repeats, some off the rows
    rng = np.random.default_rng(seed)
    P = rng.integers(-spread, spread + 1, size=(n, d)) + jitter * rng.standard_normal((n, d))
    off = rng.integers(-spread, spread + 1, size=(m - m // 2, d))
    R = np.concatenate([P[rng.integers(0, n, size=m // 2)], off])
    P, R = offset + P * scale, offset + R * scale
    rank = 3 + int(rank * (m - 3))
    want = np.empty(n)
    _dist._plain_ranks(P, R, rank, want)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_dist, "BOX_ROWS", rows)
        assert np.array_equal(ranked_sq_dist(P, R, rank, box_layout(P)), want)


# The leader cut: at d > 2 the radii group the rows around leaders among
# the references and rank each group against the references its ball
# bounds cannot rule out.  Its bounds are widened by the kernel's rounding
# slack, so the cases below put distances at the edges of float64's range,
# ties at the rank and groups of one row or none.  Small constants make the
# cut run on small inputs, and a share of 1 makes it run whatever it keeps.


def lead_knobs(patch, rows=1, refs=1, share=1.0, sample=512):
    patch.setattr(_dist, "LEAD_ROWS", rows)
    patch.setattr(_dist, "LEAD_REFS", refs)
    patch.setattr(_dist, "LEAD_PAIRS", 1)
    patch.setattr(_dist, "LEAD_SHARE", share)
    patch.setattr(_dist, "LEAD_SAMPLE", sample)


def spy_cut(patch):
    """Record the calls of the leader cut: ``led`` holds whether each call
    of ``_led_ranks`` ranked (True) or declined (False), ``ranked`` the
    (rows, references, rank) of each ``_lifted_ranks`` call (one per group,
    or one for every row where the cut declines), and ``lifted`` the number
    of rows of each ``_filtered_ranks`` call."""
    calls = {"led": [], "ranked": [], "lifted": []}

    def led(points, refs, rank, original=_dist._led_ranks):
        out = original(points, refs, rank)
        calls["led"].append(out is not None)
        return out

    def lifted(points, refs, rank, ids=None, original=_dist._lifted_ranks):
        calls["ranked"].append((points.shape[0], refs.shape[0] if ids is None else ids.size, rank))
        return original(points, refs, rank, ids)

    def filtered(points, refs, rank, lift, ids=None, original=_dist._filtered_ranks):
        calls["lifted"].append(points.shape[0])
        return original(points, refs, rank, lift, ids)

    patch.setattr(_dist, "_led_ranks", led)
    patch.setattr(_dist, "_lifted_ranks", lifted)
    patch.setattr(_dist, "_filtered_ranks", filtered)
    return calls


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(3, 20),
    n=st.integers(1, 200),
    m=st.integers(3, 80),
    exact=st.booleans(),
    rank=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    blobs=st.sampled_from([0, 1, 3, 8]),
    distinct=st.sampled_from([None, 1, 2, 5]),
    scale=st.sampled_from([1.0, 1e-150, 2.0**-30, 1e8, 1e150]),
    offset=st.sampled_from([0.0, 1e8]),
    rows=st.sampled_from([1, 4, 40]),
    sample=st.sampled_from([4, 512]),
    seed=st.integers(0, 2**32 - 1),
)
def test_leader_cut_equals_the_full_partition(
    d, n, m, exact, rank, blobs, distinct, scale, offset, rows, sample, seed
):
    # blobs of unit noise around far centers, or unclustered points with
    # no blobs; with ``distinct`` every row repeats one of a few points;
    # sampled references are drawn with repeats, some off the rows
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, d))
    if blobs:
        P += rng.uniform(-30, 30, size=(blobs, d))[rng.integers(0, blobs, size=n)]
    if distinct:
        P = P[rng.integers(0, min(distinct, n), size=n)]
    if exact:
        R = P
    else:
        R = np.concatenate([P[rng.integers(0, n, size=m // 2)], rng.standard_normal((m - m // 2, d))])
    P, R = offset + P * scale, offset + R * scale
    rank = 1 + int(rank * (R.shape[0] - 1))
    want = _dist._nth_smallest(sq_dist_matrix(P, R), rank)
    with pytest.MonkeyPatch.context() as patch:
        lead_knobs(patch, rows=rows, sample=sample)
        assert np.array_equal(ranked_sq_dist(P, R, rank, box_layout(P)), want)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(3, 12),
    rows=st.integers(1, 20),
    m=st.integers(1, 30),
    scale=st.sampled_from([1.0, 1e-160, 2.0**-500, 1e100, 2.0**500]),
    offset=st.sampled_from([0.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cut_bounds_hold(d, rows, m, scale, offset, seed):
    # rows and references on a few lines through the leader, where the
    # triangle inequality is tight: near <= K <= far for every row of the
    # group and every reference, each K the kernel's own value
    rng = np.random.default_rng(seed)
    lead = rng.standard_normal(d)
    lines = rng.standard_normal((3, d))
    X = lead + rng.uniform(-1, 1, size=(rows, 1)) * lines[rng.integers(0, 3, size=rows)]
    R = lead + rng.uniform(-5, 5, size=(m, 1)) * lines[rng.integers(0, 3, size=m)]
    X, R = offset + X * scale, offset + R * scale
    refs = np.concatenate([(offset + lead * scale)[None], R])
    slack = _dist._Slack(d)
    reach = slack.root_above(sq_dists(X, refs[0]).max(keepdims=True))
    rank = 1 + int(rng.integers(0, m + 1))
    for _, near, far, high, low in _dist._cut_bounds(refs, np.array([0]), reach, rank, slack):
        K = sq_dist_matrix(X, refs)
        assert np.all(near <= K) and np.all(K <= far)
        assert high == np.sort(far[0])[rank - 1] and low == np.sort(near[0])[rank - 1]


def test_leader_cut_one_row_and_empty_groups(monkeypatch):
    # the traversal picks far references first: three off the rows lead
    # groups without rows, and an outlying row leads a group of itself
    rng = np.random.default_rng(40)
    X = np.concatenate([rng.standard_normal((300, 5)), [[60.0, 0, 0, 0, 0]]])
    R = np.concatenate([X, 100 * np.eye(5)[:3]])
    lead_knobs(monkeypatch, rows=30)
    calls = spy_cut(monkeypatch)
    leaders = []

    def spy(refs, count, original=_dist._leaders):
        leaders.append(original(refs, count)[0].size)
        return original(refs, count)

    monkeypatch.setattr(_dist, "_leaders", spy)
    for rank in (1, 2, 40, R.shape[0]):
        calls["ranked"].clear()
        got = ranked_sq_dist(X, R, rank, None)
        assert np.array_equal(got, ranked_reference(X, R, rank)), rank
        sizes = [rows for rows, _, _ in calls["ranked"]]
        assert 1 in sizes and sum(sizes) == X.shape[0]
        assert len(sizes) <= leaders[-1] - 3  # groups without rows are skipped


def test_leader_cut_ranks_few_pairs_of_blobs(monkeypatch):
    # twenty 16-d blobs (the radii-exact-d16 layout): each group ranks a
    # fraction of the references, each row once, at a rank lowered by the
    # references that are closer for every row of its group
    X = d16_layout(41, 3000)
    rank = 150
    calls = spy_cut(monkeypatch)
    got = ranked_sq_dist(X, X, rank, None)
    want = np.empty(X.shape[0])
    _dist._plain_ranks(X, X, rank, want)
    assert np.array_equal(got, want)
    assert calls["led"] == [True]
    pairs = sum(rows * refs for rows, refs, _ in calls["ranked"])
    assert 0 < pairs <= 0.4 * X.shape[0] ** 2, pairs
    assert sum(rows for rows, _, _ in calls["ranked"]) == X.shape[0]
    assert sum(calls["lifted"]) == X.shape[0]
    assert min(r for _, _, r in calls["ranked"]) < rank


def test_leader_cut_declines_on_gaussian_points(monkeypatch):
    # one 16-d Gaussian: a group's ball is as wide as a radius, so the cut
    # declines before ranking any group, and the lift ranks each row once
    X = points(42, 3000, 16)
    calls = spy_cut(monkeypatch)
    got = ranked_sq_dist(X, X, 150, None)
    want = np.empty(X.shape[0])
    _dist._plain_ranks(X, X, 150, want)
    assert np.array_equal(got, want)
    assert calls["led"] == [False]
    assert calls["ranked"] == [(X.shape[0], X.shape[0], 150)]
    assert calls["lifted"] == [X.shape[0]]


def test_leader_cut_declines_small_inputs(monkeypatch):
    # below two groups of LEAD_PAIRS pairs the cut takes no leaders
    calls = spy_cut(monkeypatch)
    monkeypatch.setattr(_dist, "_leaders", None)
    X = d16_layout(43, 700)
    assert np.array_equal(ranked_sq_dist(X, X, 35, None), ranked_reference(X, X, 35))
    assert calls["led"] == [False]


def test_slack_constants_are_shared():
    # the leader cut and refinement's bound widen by the same slack
    bound = FarBound(np.ones(3), 7)
    assert (bound.slack.rel, bound.slack.tiny) == ((7 + 8) * 2.0**-50, (7 + 8) * 2.0**-1070)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_ranked_sq_dist_memory(d):
    # neither filter makes an array of one value per pair: at n = 20k and
    # m = 2k one takes 320 MB, while both filters peak at a few MB
    # (tracemalloc sees numpy's buffers)
    X = points(38, 20_000, d)
    ref = X[::10]
    tracemalloc.start()
    try:
        ranked_sq_dist(X, ref, 200, box_layout(X))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


# The exact sum: ``_dist.fsum`` and its grouped form against ``math.fsum``,
# bit for bit, sign of zero included, and with its errors where it has them.

# finite values of each sign from 2**-1074 to about 2**1001, zeros and
# subnormals, mixed in one array
VALUES = st.one_of(
    st.builds(
        lambda mantissa, exponent, sign: sign * math.ldexp(mantissa, exponent),
        st.integers(2**52, 2**53 - 1),
        st.integers(-1074 - 52, 1000 - 52),
        st.sampled_from([1.0, -1.0]),
    ),
    st.floats(-(2.0**-1022), 2.0**-1022),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)
TOP = float.fromhex("0x1.fffffffffffffp+1023")
EDGES = st.sampled_from([math.inf, -math.inf, math.nan, TOP, -TOP, TOP / 2, 2.0**1000, -(2.0**1000)])


def outcome(sum_of, values):
    """The sum's bits, or the type of the error it raised."""
    try:
        return float(sum_of(values)).hex()
    except (OverflowError, ValueError) as error:
        return type(error)


@given(st.lists(VALUES, max_size=300))
@settings(max_examples=300, deadline=None)
def test_fsum_equals_math_fsum(values):
    assert outcome(fsum, np.array(values)) == outcome(math.fsum, values)


@given(st.lists(VALUES, max_size=200), st.lists(VALUES, max_size=4), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_fsum_heavy_cancellation(values, extra, seed):
    a = np.array(values + [-v for v in values] + extra)
    np.random.default_rng(seed).shuffle(a)
    assert outcome(fsum, a) == outcome(math.fsum, a.tolist())


@given(
    n=st.one_of(
        st.integers(0, 2**17),
        st.sampled_from([2**j + o for j in range(1, 18) for o in (-2, -1, 0)]),
    ),
    spread=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_fsum_lengths(n, spread, seed):
    # the lengths where the level spread M grows are in the sample
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * np.exp2(rng.integers(-spread, spread + 1, n))
    assert outcome(fsum, a) == outcome(math.fsum, a.tolist())


@given(st.lists(st.one_of(EDGES, VALUES), max_size=20))
@settings(max_examples=300, deadline=None)
def test_fsum_fallback_keeps_math_fsum(values):
    # a value that is not finite, or a level that would overflow, is left to
    # math.fsum: its result, its OverflowError or its ValueError (inf - inf)
    assert outcome(fsum, np.array(values)) == outcome(math.fsum, values)


@given(
    st.lists(st.tuples(st.one_of(VALUES, EDGES), st.integers(0, 7)), max_size=80),
    st.integers(1, 8),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_fsums_per_group(pairs, k, finite):
    # some of the k groups are empty; their sum is 0.0
    pairs = [(v, g % k) for v, g in pairs if math.isfinite(v) or not finite]
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    groups = np.array([g for _, g in pairs], dtype=np.int64)
    want = [outcome(math.fsum, values[groups == j].tolist()) for j in range(k)]
    errors = [w for w in want if isinstance(w, type)]
    if errors:
        with pytest.raises(errors[0]):
            fsums(values, groups, k)
    else:
        assert [float(v).hex() for v in fsums(values, groups, k)] == want


def math_fsum_uses(tree: ast.AST) -> list[int]:
    """Lines that name ``math.fsum`` or import ``fsum`` from math."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fsum":
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [node.lineno for a in node.names if a.name == "fsum"]
    return found


def test_math_fsum_only_in_dist():
    # every correctly rounded sum is _dist.fsum or fsums, which take
    # math.fsum only for the level totals and the fallback
    src = Path(_dist.__file__).parent
    found = {m.name: math_fsum_uses(ast.parse(m.read_text())) for m in sorted(src.glob("*.py"))}
    assert found.pop("_dist.py")
    assert not {name: lines for name, lines in found.items() if lines}
    assert sorted(math_fsum_uses(ast.parse("import math\nmath.fsum(a)\nfrom math import fsum\n"))) == [2, 3]


# The refinement's bound: ``FarBound.low`` never exceeds the exact distance
# from a row to a center other than its own, through resets and moves, and
# ``keeps`` passes only rows whose own kernel value is the strict minimum.


def exact_sq(x, c) -> Fraction:
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x.tolist(), c.tolist()))


def check_far_bound(bound, X, C, labels):
    for i in range(X.shape[0]):
        low = float(bound.low[i])
        if low > 0:
            for j in range(C.shape[0]):
                if j != labels[i]:
                    assert Fraction(low) ** 2 <= exact_sq(X[i], C[j]), (i, j)


def check_keeps(bound, X, C, labels):
    M = sq_dist_matrix(X, C)
    rows = np.arange(X.shape[0])
    kept = bound.keeps(M[rows, labels])
    others = M.copy()
    others[rows, labels] = np.inf
    assert np.all(M[rows, labels][kept] < others[kept].min(axis=1))
    return kept


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    k=st.integers(1, 6),
    d=st.sampled_from([1, 2, 3, 8]),
    scale=st.sampled_from([1.0, 1e-7, 2.0**500, 2.0**-500]),
    offset=st.sampled_from([0.0, 1e15]),
    reach=st.sampled_from([0.0, 1e-9, 0.1, 1.0, 10.0]),
)
@settings(max_examples=60, deadline=None)
def test_far_bound_holds(seed, n, k, d, scale, offset, reach):
    # half the rows repeat others, and centers sit on rows, so many
    # distances tie or round
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[n // 2 :] = X[rng.integers(0, n - n // 2, n - n // 2)]
    X = offset + X * scale
    C = X[rng.integers(0, n, k)]
    labels, _, _, d2sq = two_nearest(X, C)
    bound = FarBound(d2sq, d)
    check_far_bound(bound, X, C, labels)
    check_keeps(bound, X, C, labels)
    for _ in range(2):
        moved = np.flatnonzero(rng.random(k) < 0.6)
        new = C.copy()
        new[moved] += reach * scale * rng.standard_normal((moved.size, d))
        bound.move(C, new, moved, labels)
        C = new
        check_far_bound(bound, X, C, labels)
        check_keeps(bound, X, C, labels)


def test_far_bound_keeps_most_rows_of_separated_blobs():
    # a filter that keeps no row would pass the test above
    rng = np.random.default_rng(3)
    C = 10.0 * np.arange(5.0)[:, None] * np.ones(3)
    X = C[rng.integers(0, 5, 2000)] + rng.standard_normal((2000, 3))
    labels, _, _, d2sq = two_nearest(X, C)
    bound = FarBound(d2sq, 3)
    new = C + 0.05
    bound.move(C, new, np.arange(5), labels)
    assert check_keeps(bound, X, new, labels).mean() > 0.9


def test_far_bound_infinite_move_keeps_nothing():
    X = np.array([[0.0], [1.0], [1e200]])
    C = np.array([[0.0], [1e200]])
    labels, _, _, d2sq = two_nearest(X, C)
    bound = FarBound(d2sq, 1)
    new = np.array([[0.0], [-1e200]])  # a move whose kernel value overflows
    bound.move(C, new, np.array([1]), labels)
    assert not check_keeps(bound, X, new, labels)[labels == 0].any()
