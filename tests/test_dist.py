"""The distance kernel must round exactly like a per-row einsum.

Cached distances, from-scratch rebuilds and coverage predicates are compared
with ``==`` throughout the package, so the batched kernel is held to bit
equality with the per-center ``einsum("ij,ij->i")`` loop it replaced, for
every dimension, batch shape, chunk boundary and coordinate scale below.
The radii's dot-product filter is held to the same standard: the rank
statistic it returns must equal a partition of the per-row reference.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from fairkmeans import Dataset, aspect_ratio, build_coverage, compute_radii
from fairkmeans import _dist
from fairkmeans._dist import (
    chunk_rows,
    dists,
    min_sq_dists,
    ranked_sq_dist,
    sq_dist_matrix,
    sq_dists,
)
from fairkmeans.anchors import AnchorSet


def reference(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one per-row einsum per center."""
    out = np.empty((points.shape[0], centers.shape[0]))
    for j in range(centers.shape[0]):
        diff = points - centers[j]
        out[:, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def points(seed, n, d, scale=1.0):
    return np.random.default_rng(seed).normal(size=(n, d)) * scale


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
                assert np.array_equal(min_sq_dists(P, C), reference(P, C).min(axis=1))


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
    assert np.array_equal(min_sq_dists(P, C), want.min(axis=1))


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_build_coverage_matches_covers_position(d):
    X = points(9, 200, d)
    zones = np.arange(0, 200, 17)
    # every radius reaches exactly to the last anchor, so boundary ties occur
    radii = np.sqrt(reference(X[zones], X[zones[-1:]])[:, 0])
    aset = AnchorSet(anchors=zones, positions=X[zones].copy(), zone_radius=radii, gamma=3.0)
    centers = np.concatenate([zones[::-1], np.arange(5, 200, 23)])
    covers = build_coverage(aset, X[centers])
    want = np.sqrt(reference(X[centers], X[zones])) <= radii
    assert np.array_equal(covers, want)
    assert covers.any() and not covers.all()
    # one center at a time, as the search tests a sampled point
    rows = np.stack([build_coverage(aset, X[c][None])[0] for c in centers])
    assert np.array_equal(rows, want)


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_ranked_sq_dist_matches_partition(d):
    X = points(10, 400, d)
    X[50:60] = X[0]  # ties in the rank statistic
    ref_ids = np.random.default_rng(11).choice(400, size=90, replace=False)
    for ref in (X, X[ref_ids]):
        for rank in (1, 7, ref.shape[0]):
            want = np.partition(reference(X, ref), rank - 1, axis=1)[:, rank - 1]
            assert np.array_equal(ranked_sq_dist(X, ref, rank), want)


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
        assert np.array_equal(ranked_sq_dist(X, ref, rank), want), rank


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


@pytest.mark.parametrize("jitter", [0.0, 1e-7])
def test_filter_two_far_lattices(jitter):
    # the reference mean sits between two lattices 1e6 apart, so every
    # centered norm is about 1e12 while the distances that decide a rank are
    # small integers: exact ties at the threshold, or (with jitter) distinct
    # values closer together than the estimate's rounding error
    base = lattice(4, 4)
    X = np.concatenate([base, base + 1e6])
    X += np.random.default_rng(15).uniform(-jitter, jitter, size=X.shape)
    for rank in (1, 2, 5, 9, 40, 100, 256, 257, 400, 512):
        assert np.array_equal(ranked_sq_dist(X, X, rank), ranked_reference(X, X, rank)), rank
    ref = X[::3]
    for rank in (1, 7, 86, 87, ref.shape[0]):
        assert np.array_equal(ranked_sq_dist(X, ref, rank), ranked_reference(X, ref, rank)), rank


def test_filter_large_offset_unit_spacing():
    rng = np.random.default_rng(16)
    X = 1e8 + rng.integers(0, 6, size=(300, 5)).astype(np.float64)
    X[:, 1] -= 2e8  # an offset of each sign
    for ref in (X, X[rng.choice(300, size=70, replace=False)]):
        for rank in (1, 4, 30, ref.shape[0] // 2, ref.shape[0]):
            assert np.array_equal(ranked_sq_dist(X, ref, rank), ranked_reference(X, ref, rank))


@pytest.mark.parametrize("d", [3, 8])
def test_filter_duplicate_heavy_rows(d):
    # most rows repeat one of six points: whole tie groups pass the
    # threshold, so rows keep more than rank references
    rng = np.random.default_rng(17)
    base = points(18, 6, d)
    X = np.concatenate([base[rng.integers(0, 6, size=250)], points(19, 30, d)])
    for ref in (X, X[::4]):
        for rank in (1, 2, 40, 41, 100, ref.shape[0]):
            rank = min(rank, ref.shape[0])
            assert np.array_equal(ranked_sq_dist(X, ref, rank), ranked_reference(X, ref, rank))


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-150, 151, 25))
@pytest.mark.parametrize("d", [3, 8, 33])
def test_filter_coordinate_scales(scale, d):
    X, ref = points(3, 60, d, scale), points(4, 25, d, scale)
    want = ranked_reference(X, ref, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ranked_sq_dist(X, ref, 5)
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
        got = ranked_sq_dist(X, ref, 3)
    assert np.array_equal(got, want)


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
