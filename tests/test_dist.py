"""The distance kernel must round exactly like a per-row einsum.

Cached distances, from-scratch rebuilds and coverage predicates are compared
with ``==`` throughout the package, so the batched kernel is held to bit
equality with the per-center ``einsum("ij,ij->i")`` loop it replaced, for
every dimension, batch shape, chunk boundary and coordinate scale below.
"""

from __future__ import annotations

import numpy as np
import pytest

from fairkmeans import Dataset, aspect_ratio, build_coverage, compute_radii
from fairkmeans import _dist
from fairkmeans._dist import chunk_rows, dists, min_sq_dists, sq_dist_matrix, sq_dists
from fairkmeans.anchors import AnchorSet
from fairkmeans.dataset import _ranked_sq_dist


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
            assert np.array_equal(_ranked_sq_dist(X, ref, rank), want)


@pytest.mark.parametrize("chunk", [1000, 5000, 20000])
@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_ranked_sq_dist_partial_last_chunk(monkeypatch, chunk, d):
    # the blocks share one buffer: the last, shorter block must not read
    # rows left over from the block before it
    monkeypatch.setattr(_dist, "CHUNK_ELEMENTS", chunk)
    X = points(14, 437, d)
    ref = X[::3]
    rows = chunk_rows(ref.shape[0])
    assert X.shape[0] > rows and X.shape[0] % rows
    for rank in (1, 5, ref.shape[0]):
        want = np.partition(reference(X, ref), rank - 1, axis=1)[:, rank - 1]
        assert np.array_equal(_ranked_sq_dist(X, ref, rank), want), rank


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
