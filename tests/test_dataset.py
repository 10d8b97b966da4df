import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkmeans import (
    Dataset,
    aspect_ratio,
    compute_radii,
    jl_project,
    load_points,
    normalize,
    subsample,
)
from fairkmeans._dist import sq_dists


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDataset:
    def test_basic_shape(self):
        ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert ds.n == 2 and ds.d == 2
        assert np.array_equal(ds.ids, [0, 1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[0.0], [np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)))

    def test_points_read_only(self):
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 1.0


class TestLoadPoints:
    def test_header_csv(self, tmp_path):
        path = write_csv(tmp_path, "x,y\n0,0\n1,0\n")
        ds = load_points(path, header=True)
        assert ds.n == 2 and ds.d == 2
        assert np.array_equal(ds.points, [[0, 0], [1, 0]])

    def test_parse_error_names_row(self, tmp_path):
        path = write_csv(tmp_path, "x,y\n0,0\nabc,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_points(path, header=True)

    def test_column_selection(self, tmp_path):
        path = write_csv(tmp_path, "1,foo,2\n3,bar,4\n")
        ds = load_points(path, columns=[0, 2])
        assert np.array_equal(ds.points, [[1, 2], [3, 4]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            load_points(path)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(ValueError, match="no data rows"):
            load_points(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_points(tmp_path / "nope.csv")


class TestNormalize:
    def test_two_points(self):
        out = normalize(Dataset(np.array([[0.0], [2.0]])))
        assert np.allclose(out.points.ravel(), [-1.0, 1.0])

    def test_constant_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension 0"):
            normalize(Dataset(np.array([[5.0], [5.0]])))

    def test_three_points_population_std(self):
        out = normalize(Dataset(np.array([[0.0], [1.0], [2.0]])))
        r = math.sqrt(1.5)
        assert np.allclose(out.points.ravel(), [-r, 0.0, r], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_output_moments(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), size=(25, 3))
        out = normalize(Dataset(pts))
        assert np.all(np.abs(out.points.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(out.points.std(axis=0) - 1) <= 1e-9)


class TestSubsample:
    def test_full_sample_is_copy(self):
        ds = Dataset(np.arange(10.0).reshape(5, 2))
        out = subsample(ds, 5, seed=3)
        assert np.array_equal(out.points, ds.points)
        assert np.array_equal(out.source_ids, np.arange(5))

    def test_single_point(self):
        ds = Dataset(np.arange(10.0).reshape(5, 2))
        out = subsample(ds, 1, seed=0)
        assert out.n == 1
        assert np.array_equal(out.points[0], ds.points[out.source_ids[0]])

    def test_too_large_rejected(self):
        ds = Dataset(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            subsample(ds, 4, seed=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_and_chained_ids(self, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(size=(40, 2)))
        a = subsample(ds, 17, seed=seed)
        b = subsample(ds, 17, seed=seed)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.source_ids, b.source_ids)
        assert np.array_equal(ds.points[a.source_ids], a.points)
        inner = subsample(a, 5, seed=seed + 1)
        assert np.array_equal(ds.points[inner.source_ids], inner.points)


class TestComputeRadii:
    def test_line_example(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [9.0]]))
        delta = compute_radii(ds, 2)
        assert np.array_equal(delta.delta, [1.0, 1.0, 1.0, 7.0])

    def test_k_equals_n_all_zero(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 2)))
        delta = compute_radii(ds, 6)
        assert np.array_equal(delta.delta, np.zeros(6))

    def test_k_one_is_farthest_point(self):
        pts = np.random.default_rng(1).normal(size=(15, 3))
        ds = Dataset(pts)
        delta = compute_radii(ds, 1)
        for i in range(15):
            assert delta.delta[i] == pytest.approx(
                np.sqrt(sq_dists(pts, pts[i]).max()), rel=0, abs=0
            )

    def test_invalid_k(self):
        ds = Dataset(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            compute_radii(ds, 0)
        with pytest.raises(ValueError):
            compute_radii(ds, 4)

    def test_ball_rank_invariant(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 2))
        ds = Dataset(pts)
        for k in (2, 7, 13):
            delta = compute_radii(ds, k)
            rank = -(-60 // k)
            for i in range(60):
                d = np.sqrt(sq_dists(pts, pts[i]))
                assert np.count_nonzero(d <= delta.delta[i]) >= rank
                assert np.count_nonzero(d < delta.delta[i]) < rank

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(30, 2))
        perm = rng.permutation(30)
        k = int(rng.integers(1, 31))
        base = compute_radii(Dataset(pts), k).delta
        permuted = compute_radii(Dataset(pts[perm]), k).delta
        assert np.array_equal(base[perm], permuted)

    def test_sampled_mode_shared_sample(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(200, 2))
        ds = Dataset(pts)
        a = compute_radii(ds, 4, mode="sampled", sample_size=50, seed=11)
        b = compute_radii(ds, 4, mode="sampled", sample_size=50, seed=11)
        assert np.array_equal(a.delta, b.delta)
        sample = np.random.default_rng(11).choice(200, size=50, replace=False)
        rank = -(-50 // 4)
        for i in (0, 57, 199):
            d = np.sort(np.sqrt(sq_dists(pts[sample], pts[i])))
            assert a.delta[i] == d[rank - 1]

    def test_sampled_mode_clamps(self):
        ds = Dataset(np.random.default_rng(2).normal(size=(10, 2)))
        delta = compute_radii(ds, 2, mode="sampled", sample_size=100, seed=0)
        assert delta.sample_size == 100
        assert np.all(delta.delta >= 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_overflow_names_cause(self, mode):
        ds = Dataset(np.random.default_rng(4).normal(size=(20, 2)) * 1e160)
        with pytest.raises(ValueError, match="overflow float64.*rescale the points"):
            compute_radii(ds, 2, mode=mode, sample_size=10)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_underflow_names_cause(self, mode, scale):
        # at 1e-170 every squared distance is 0, at 1e-160 subnormal
        ds = Dataset(np.random.default_rng(4).normal(size=(300, 2)) * scale)
        with pytest.raises(ValueError, match="underflow float64.*rescale the points"):
            compute_radii(ds, 5, mode=mode, sample_size=50)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_identical_points_have_zero_radii(self, mode):
        ds = Dataset(np.full((6, 3), 1e-170))
        assert np.array_equal(compute_radii(ds, 2, mode=mode, sample_size=4).delta, np.zeros(6))


class TestAspectRatio:
    def test_examples(self):
        assert aspect_ratio(Dataset(np.array([[0.0], [1.0], [3.0]]))).value == 3.0
        assert aspect_ratio(Dataset(np.array([[0.0], [1.0]]))).value == 1.0
        assert aspect_ratio(Dataset(np.array([[0.0], [0.0], [5.0]]))).value == 1.0

    def test_all_identical(self):
        with pytest.raises(ValueError, match="identical"):
            aspect_ratio(Dataset(np.zeros((4, 2))))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_at_least_one(self, seed):
        pts = np.random.default_rng(seed).normal(size=(12, 2))
        assert aspect_ratio(Dataset(pts)).value >= 1.0

    def test_equals_one_iff_equidistant(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert aspect_ratio(Dataset(tri)).value == pytest.approx(1.0)


class TestJlProject:
    def test_shape_contract(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(10, 50)))
        out = jl_project(ds, 8, seed=1)
        assert out.n == 10 and out.d == 8

    def test_single_point(self):
        out = jl_project(Dataset(np.ones((1, 5))), 3, seed=0)
        assert out.n == 1 and out.d == 3

    def test_deterministic(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 4)))
        a = jl_project(ds, 4, seed=7)
        b = jl_project(ds, 4, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_distortion_bound(self):
        # target_dim >= 8 ln(n) / eps^2 keeps 95% of squared pairwise
        # distances within relative eps, pooled over 20 seeds
        eps = 0.5
        n = 60
        target = math.ceil(8 * math.log(n) / eps**2)
        pts = np.random.default_rng(123).normal(size=(n, 20))
        ds = Dataset(pts)
        iu = np.triu_indices(n, k=1)
        orig = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)[iu]
        good = 0
        total = 0
        for s in range(20):
            proj = jl_project(ds, target, seed=s).points
            new = ((proj[:, None, :] - proj[None, :, :]) ** 2).sum(-1)[iu]
            rel = np.abs(new - orig) / orig
            good += int(np.count_nonzero(rel <= eps))
            total += rel.size
        assert good / total >= 0.95
