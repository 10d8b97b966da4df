import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkmeans import (
    Dataset,
    RadiusBounds,
    aspect_ratio,
    compute_radii,
    load_points,
    normalize,
    subsample,
)
from fairkmeans._dist import sq_dists


def rows_of(ds, sub):
    """Row of ``ds`` that each row of ``sub`` equals (rows of ds distinct)."""
    match = (sub.points[:, None, :] == ds.points[None, :, :]).all(axis=2)
    assert np.all(match.sum(axis=1) == 1)
    return match.argmax(axis=1)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDataset:
    def test_basic_shape(self):
        ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert ds.n == 2 and ds.d == 2

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

    def test_negative_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, "1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="column -1 is negative"):
            load_points(path, columns=[0, -1])

    @pytest.mark.parametrize(
        "text, columns, error, message",
        [
            ("0,inf\n1,2\n", None, ValueError, "row 1, column 1: value 'inf' is not finite"),
            ("1,2\n3,4\n", [5], ValueError, "row 1 has no column 5"),
            ("1,2\n3,4\n", [0.5], TypeError, "column must be an integer, got 0.5"),
        ],
        ids=["inf", "missing-column", "float-column"],
    )
    def test_bad_values_named(self, tmp_path, text, columns, error, message):
        # a float column used to raise "list indices must be integers or
        # slices, not float"
        with pytest.raises(error, match=message):
            load_points(write_csv(tmp_path, text), columns=columns)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n\n3,4\n  \n5,6\n")
        assert np.array_equal(load_points(path).points, [[1, 2], [3, 4], [5, 6]])

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

    def test_single_point(self):
        ds = Dataset(np.arange(10.0).reshape(5, 2))
        out = subsample(ds, 1, seed=0)
        assert out.n == 1
        assert any(np.array_equal(out.points[0], row) for row in ds.points)

    def test_too_large_rejected(self):
        ds = Dataset(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            subsample(ds, 4, seed=0)

    def test_size_must_be_integer(self):
        ds = Dataset(np.arange(10.0).reshape(5, 2))
        with pytest.raises(TypeError, match="m must be an integer, got 3.0"):
            subsample(ds, 3.0, seed=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_and_chained_ids(self, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(size=(40, 2)))
        a = subsample(ds, 17, seed=seed)
        b = subsample(ds, 17, seed=seed)
        assert np.array_equal(a.points, b.points)
        # rows are original rows in their original order, through both levels
        assert np.all(np.diff(rows_of(ds, a)) > 0)
        inner = subsample(a, 5, seed=seed + 1)
        assert np.all(np.diff(rows_of(ds, inner)) > 0)


class TestComputeRadii:
    def test_counts_must_be_integers(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(20, 3)))
        with pytest.raises(TypeError, match="k must be an integer, got 4.0"):
            compute_radii(ds, 4.0)
        with pytest.raises(TypeError, match="sample_size must be an integer, got 10.0"):
            compute_radii(ds, 4, mode="sampled", sample_size=10.0)
        want = compute_radii(ds, 4, mode="sampled", sample_size=10).delta
        got = compute_radii(ds, np.int64(4), mode="sampled", sample_size=np.int32(10)).delta
        assert np.array_equal(got, want)

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
        # a sample of at least n points is the whole dataset: the rank is
        # ceil(n/k) and the radii are the exact ones, bit for bit
        ds = Dataset(np.random.default_rng(2).normal(size=(500, 3)))
        for k in (1, 3, 10, 500):
            exact = compute_radii(ds, k).delta
            for size in (500, 1000):
                delta = compute_radii(ds, k, mode="sampled", sample_size=size, seed=4)
                assert np.array_equal(delta.delta, exact)

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_overflow_names_cause_d8(self, mode):
        # at d > 2 the radii's filter sees the overflow first and leaves the
        # rows to the kernel, whose infinite distances name the cause
        ds = Dataset(np.random.default_rng(4).normal(size=(20, 8)) * 1e160)
        with pytest.raises(ValueError, match="overflow float64.*rescale the points"):
            compute_radii(ds, 2, mode=mode, sample_size=10)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_underflow_names_cause_d8(self, mode, scale):
        ds = Dataset(np.random.default_rng(4).normal(size=(300, 8)) * scale)
        with pytest.raises(ValueError, match="underflow float64.*rescale the points"):
            compute_radii(ds, 5, mode=mode, sample_size=50)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_identical_points_have_zero_radii(self, mode):
        ds = Dataset(np.full((6, 3), 1e-170))
        assert np.array_equal(compute_radii(ds, 2, mode=mode, sample_size=4).delta, np.zeros(6))


class TestAspectRatio:
    def test_examples(self):
        assert aspect_ratio(Dataset(np.array([[0.0], [1.0], [3.0]]))) == 3.0
        assert aspect_ratio(Dataset(np.array([[0.0], [1.0]]))) == 1.0
        assert aspect_ratio(Dataset(np.array([[0.0], [0.0], [5.0]]))) == 1.0

    def test_all_identical(self):
        with pytest.raises(ValueError, match="identical"):
            aspect_ratio(Dataset(np.zeros((4, 2))))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_at_least_one(self, seed):
        pts = np.random.default_rng(seed).normal(size=(12, 2))
        assert aspect_ratio(Dataset(pts)) >= 1.0

    def test_equals_one_iff_equidistant(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert aspect_ratio(Dataset(tri)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Dataset(np.zeros((2, 2, 2))), "points must be a 2-dimensional array"),
        (lambda: RadiusBounds(np.array([1.0, -1.0])), "finite and nonnegative"),
        (lambda: RadiusBounds(np.array([1.0, np.nan])), "finite and nonnegative"),
        (lambda: RadiusBounds(np.ones((2, 1))), "delta must be a 1-dimensional array"),
        (lambda: normalize(Dataset(np.ones((1, 2)))), "normalization needs at least 2 points"),
        (lambda: aspect_ratio(Dataset(np.ones((1, 2)))), "aspect ratio needs at least 2 points"),
        (
            lambda: compute_radii(Dataset(np.arange(6.0)), 2, mode="nope"),
            "unknown radius mode 'nope'",
        ),
    ],
    ids=["3-D-points", "negative-radius", "nan-radius", "2-D-radii", "normalize-one",
         "aspect-one", "radius-mode"],
)
def test_bad_input_named(make, message):
    with pytest.raises(ValueError, match=message):
        make()
