import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkmeans import (
    Dataset,
    RadiusBounds,
    aspect_ratio,
    assign,
    bound_ratio,
    brute_force_opt,
    compute_radii,
    cost,
    load_points,
    normalize,
    subsample,
)
from fairkmeans import dataset
from fairkmeans._dist import sq_dists
from fairkmeans.refine import lloyd_rounds
from fairkmeans.solution import check_solution
from test_anchors import make_anchor_set


def rows_of(ds, sub):
    """Row of ``ds`` that each row of ``sub`` equals (rows of ds distinct)."""
    match = (sub.points[:, None, :] == ds.points[None, :, :]).all(axis=2)
    assert np.all(match.sum(axis=1) == 1)
    return match.argmax(axis=1)


# (text, columns, header, whether numpy's reader is kept): each value or
# layout on which numpy's parser and the csv loop could disagree
LOADER_CASES = {
    "17-digit": (
        "0.10000000000000001,-2.7182818284590451\n3.1415926535897931,1e-5\n", None, False, True
    ),
    "subnormal": (
        "4.9406564584124654e-324,2.2250738585072009e-308\n1e-320,-5e-324\n1,1\n", None, False, True
    ),
    "max-float": ("1.7976931348623157e308,-1.7976931348623157e308\n", None, False, True),
    "signed-zero": ("-0,0\n-0.0,+0\n", None, False, True),
    "bare-point": ("+.5,1.\n-.25,2.e1\n", None, False, True),
    "underscore": ("1_0,2\n", None, False, False),
    "blanks": (" 1 ,\t2\t\n3,  4\n", None, False, True),
    "nbsp": ("\xa01\xa0,2\n", None, False, True),
    "vt-ff": ("\x0b1,\x0c2\x0c\n", None, False, True),
    "arabic-digit": ("\u0661,2\n", None, False, False),
    "quoted": ('"1",2\n3,4\n', None, False, False),
    "quote-in-header": ('"x,y\n1,2\n3,4\n', None, True, False),
    "blank-lines": ("1,2\n\n3,4\n\n", None, False, True),
    "space-line-1-col": ("1\n  \n2\n", None, False, False),
    "space-line-2-col": ("1,2\n \t \n3,4\n", None, False, False),
    "lone-cr": ("1,2\r3,4\r", None, False, True),
    "lone-cr-header": ("x,y\r\r1,2\r3,4", None, True, True),
    "lone-cr-space-line": ("1\r \r2\r", None, False, False),
    "crlf": ("1,2\r\n\r\n3,4\r\n", None, False, True),
    "header-blank-first": ("\nx,y\n1,2\n", None, True, False),
    "header-blank-crlf": ("\r\n1,2\r\n3,4\r\n", None, True, False),
    "header-space-line": ("  \n1\n2\n", None, True, False),
    "header": ("x,y\n1,2\n", None, True, True),
    "header-only": ("x,y\n", None, True, False),
    "inf": ("1,inf\n", None, False, False),
    "nan": ("nan,1\n", None, False, False),
    "Infinity": ("2,-Infinity\n", None, False, False),
    "1e400": ("1e400,1\n", None, False, False),
    "inf-unselected": ("1,inf\n2,3\n", [0], False, True),
    "over-limit-field": ("0." + "0" * 140_000 + "1,1\n", None, False, False),
    "empty-file": ("", None, False, False),
    "blank-file": ("\n\n\r\n", None, False, False),
    "nul": ("1,2\x00\n", None, False, False),
    "text-unselected": ("1,foo,2\n3,bar,4\n", [0, 2], False, False),
    "reordered": ("1,2,3\n4,5,6\n", [2, 0, 2], False, True),
    "no-columns": ("1,2\n", [], False, True),
    "ragged-prefix": ("1,2,3\n4,5\n", [0], False, False),
    "column-past-end": ("1,2\n3,4\n", [2], False, False),
}
LOADER_IDS = list(LOADER_CASES)
UNDERFLOW = r"^squared distances underflow float64 \(coordinate spread .*\); rescale the points"
# maps every byte to "1", CR or LF
LINE_BYTES = bytes(b"1\r\n"[i % 3] for i in range(256))
LOADER_CORPUS = list(LOADER_CASES.values())


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

    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_underflow_rejected(self, d, scale):
        # at 1e-170 every squared distance is 0, at 1e-160 subnormal: radii,
        # costs and ratios used to read 0, as if the points were identical
        with pytest.raises(ValueError, match=UNDERFLOW):
            Dataset(np.random.default_rng(4).normal(size=(300, d)) * scale)

    def test_underflow_boundary(self):
        # (2**-511)**2 is the smallest normal float64, (2**-512)**2 is below it
        Dataset(np.array([[0.0], [2.0**-511]]))
        with pytest.raises(ValueError, match=UNDERFLOW):
            Dataset(np.array([[0.0], [2.0**-512]]))
        # the largest spread of any dimension decides
        Dataset(np.array([[0.0, 0.0], [1e-170, 1.0]]))


class TestLoadPoints:
    def test_header_csv(self, tmp_path):
        path = write_csv(tmp_path, "x,y\n0,0\n1,0\n")
        ds = load_points(path, header=True)
        assert ds.n == 2 and ds.d == 2
        assert np.array_equal(ds.points, [[0, 0], [1, 0]])

    @pytest.mark.parametrize(
        "text, want",
        [
            ("\nx,y\n1,2\n", [[1, 2]]),
            ("\r\n1,2\r\n3,4\r\n", [[3, 4]]),
            ("  \n1\n2\n", [[2]]),
            ("\xa0\nx,y\n5,6\n", [[5, 6]]),
        ],
        ids=["blank", "blank-crlf", "spaces", "nbsp"],
    )
    def test_header_is_the_first_nonblank_row(self, tmp_path, text, want):
        # blank rows are skipped everywhere, before the header too
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert np.array_equal(load_points(path, header=True).points, want)

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
            (
                "1,2\n3," + "0" * 140_000 + "\n",
                None,
                ValueError,
                r"row 2: field larger than field limit \(131072\)",
            ),
        ],
        ids=["inf", "missing-column", "float-column", "over-size-field"],
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

    @pytest.mark.parametrize("text, columns, header, fast", LOADER_CORPUS, ids=LOADER_IDS)
    def test_fast_path_equals_the_loop(self, tmp_path, text, columns, header, fast):
        # the loop is the reference: where numpy's reader is kept, its values
        # equal the loop's bit for bit (sign of zero included); where the
        # loop raises, load_points raises the loop's message
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = Dataset(dataset._read_rows(path, columns, header)).points
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_points(path, columns=columns, header=header)
            assert str(got.value) == str(exc)
            expected = None
        else:
            got = load_points(path, columns=columns, header=header).points
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        points = dataset._read_fast(path, columns, header)
        assert (points is not None) == fast
        if fast and expected is not None:
            assert np.array_equal(points.view(np.uint64), expected.view(np.uint64))

    @given(st.binary(max_size=40).map(lambda b: b.translate(LINE_BYTES)), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_long_line_check(self, data, limit):
        longest = max(len(line) for line in re.split(rb"[\r\n]", data))
        assert dataset._has_long_line(data, limit) == (longest > limit)

    def test_numpy_warnings_do_not_leak(self, tmp_path):
        # np.loadtxt warns "input contained no data"; the loop names it
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                load_points(write_csv(tmp_path, "x,y\n"), header=True)
        assert seen == []

    def test_underflow_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=UNDERFLOW):
            load_points(write_csv(tmp_path, "0,1e-170\n1e-170,0\n"))

    def test_plain_csv_skips_the_loop(self, tmp_path, monkeypatch):
        def no_loop(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(dataset.csv, "reader", no_loop)
        path = write_csv(tmp_path, "x,y\n0.5,-0\n1e-3,2\n")
        points = load_points(path, columns=[1, 0], header=True).points
        assert np.array_equal(points, [[-0.0, 0.5], [2.0, 1e-3]])
        assert math.copysign(1.0, points[0, 0]) == -1.0


class TestNormalize:
    def test_two_points(self):
        out = normalize(Dataset(np.array([[0.0], [2.0]])))
        assert np.allclose(out.points.ravel(), [-1.0, 1.0])

    def test_constant_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension 0"):
            normalize(Dataset(np.array([[5.0], [5.0]])))

    def test_overflowing_std_named(self):
        # the std overflowed to inf and the column normalized to all zeros
        pts = np.array([[1e200, 0.0], [-1e200, 1.0], [1e200, 2.0]])
        with pytest.raises(ValueError, match="dimension 0 spans too wide a range"):
            normalize(Dataset(pts))

    def test_overflowing_mean_named(self):
        # finite input used to be reported as "coordinates must be finite"
        with pytest.raises(ValueError, match="dimension 0 spans too wide a range"):
            normalize(Dataset(np.array([[1e308], [1e308], [0.0]])))

    def test_underflowing_std_named(self):
        # a spread of 1e-170 used to be reported as constant
        pts = np.array([[0.0, 0.0], [1.0, 1e-170]])
        with pytest.raises(ValueError, match="dimension 1 spans too narrow a range"):
            normalize(Dataset(pts))

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


    def test_underflowing_sample_rejected(self):
        ds = Dataset(np.array([[0.0], [1e-170], [1.0]]))
        assert np.array_equal(subsample(ds, 2, 0).points, [[1e-170], [1.0]])
        with pytest.raises(ValueError, match=UNDERFLOW):
            subsample(ds, 2, 1)  # draws {0, 1e-170}


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
        # at 1e-170 every squared distance is 0, at 1e-160 subnormal; the
        # points are refused when built, before any radius is read
        pts = np.random.default_rng(4).normal(size=(300, 2)) * scale
        with pytest.raises(ValueError, match=UNDERFLOW):
            compute_radii(Dataset(pts), 5, mode=mode, sample_size=50)

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
        pts = np.random.default_rng(4).normal(size=(300, 8)) * scale
        with pytest.raises(ValueError, match=UNDERFLOW):
            compute_radii(Dataset(pts), 5, mode=mode, sample_size=50)

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
    "make, error, message",
    [
        (lambda: Dataset(np.zeros((2, 2, 2))), ValueError, "points must be a 2-dimensional array"),
        (lambda: RadiusBounds(np.array([1.0, -1.0])), ValueError, "finite and nonnegative"),
        (lambda: RadiusBounds(np.array([1.0, np.nan])), ValueError, "finite and nonnegative"),
        (lambda: RadiusBounds(np.ones((2, 1))), ValueError, "delta must be a 1-dimensional array"),
        (
            lambda: normalize(Dataset(np.ones((1, 2)))),
            ValueError,
            "normalization needs at least 2 points",
        ),
        (
            lambda: aspect_ratio(Dataset(np.ones((1, 2)))),
            ValueError,
            "aspect ratio needs at least 2 points",
        ),
        (
            lambda: compute_radii(Dataset(np.arange(6.0)), 2, mode="nope"),
            ValueError,
            "unknown radius mode 'nope'",
        ),
        (
            lambda: compute_radii(Dataset(np.arange(6.0)), 2, mode="sampled", seed=-1),
            ValueError,
            "seed=-1 must be at least 0",
        ),
        (
            lambda: compute_radii(Dataset(np.arange(6.0)), 2, mode="sampled", seed=1.5),
            TypeError,
            "seed must be an integer, got 1.5",
        ),
        (
            lambda: subsample(Dataset(np.arange(6.0)), 2, -1),
            ValueError,
            "seed=-1 must be at least 0",
        ),
        (
            lambda: subsample(Dataset(np.arange(6.0)), 2, 1.5),
            TypeError,
            "seed must be an integer, got 1.5",
        ),
    ],
    ids=["3-D-points", "negative-radius", "nan-radius", "2-D-radii", "normalize-one",
         "aspect-one", "radius-mode", "radii-seed-negative", "radii-seed-float",
         "subsample-seed-negative", "subsample-seed-float"],
)
def test_bad_input_named(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda fk, ds, delta: fk.run(ds, delta, fk.LsConfig(k=True, iterations=True, seed=False)), "k"),
        (lambda fk, ds, delta: fk.run(ds, delta, fk.LsConfig(k=2, iterations=True)), "iterations"),
        (lambda fk, ds, delta: fk.compute_radii(ds, True), "k"),
        (lambda fk, ds, delta: fk.subsample(ds, 2, False), "seed"),
        (lambda fk, ds, delta: fk.vanilla_kmeans(ds, np.True_, 0), "k"),
    ],
    ids=["run-k", "run-iterations", "radii-k", "subsample-seed", "vanilla-numpy-bool"],
)
def test_bool_count_named(call, name):
    # operator.index(True) is 1, so a Python bool passed every count check,
    # then failed inside numpy with a message that named no field
    import fairkmeans as fk

    ds = Dataset(np.arange(6.0))
    with pytest.raises(TypeError, match=f"{name} must be an integer, got (np.)?(True|False)"):
        call(fk, ds, compute_radii(ds, 2))


@pytest.mark.parametrize(
    "entry", ["init_solution", "greedy_baseline", "kmeanspp_init", "vanilla_kmeans"]
)
@pytest.mark.parametrize(
    "seed, error, message",
    [
        (-1, ValueError, "seed=-1 must be at least 0"),
        (1.5, TypeError, "seed must be an integer, got 1.5"),
    ],
    ids=["negative", "float"],
)
def test_bad_seed_named(entry, seed, error, message):
    # the entries whose seed may also be a Generator; numpy's own errors
    # named neither the seed nor the entry
    import fairkmeans as fk

    ds = Dataset(np.arange(6.0))
    delta = compute_radii(ds, 2)
    calls = {
        "init_solution": lambda: fk.init_solution(ds, fk.seed(ds, delta, 3.0), 2, seed),
        "greedy_baseline": lambda: fk.greedy_baseline(ds, delta, 3.0, 2, seed),
        "kmeanspp_init": lambda: fk.kmeanspp_init(ds, 2, seed),
        "vanilla_kmeans": lambda: fk.vanilla_kmeans(ds, 2, seed),
    }
    with pytest.raises(error, match=message):
        calls[entry]()


def non_finite_cases():
    """One call per entry point that takes positions, each given a NaN or
    an infinite coordinate.  Each used to answer silently: the NaN center
    won every point (ratio 0, cost nan)."""
    import fairkmeans as fk

    ds = Dataset(np.arange(20.0).reshape(10, 2))
    ds4 = Dataset(np.arange(40.0).reshape(10, 4))
    aset = make_anchor_set(ds, [0, 5], [3.0, 3.0])
    nan = [[np.nan, np.nan]]
    return {
        "cost": lambda: fk.cost(ds, nan),
        "bound_ratio": lambda: fk.bound_ratio(ds, compute_radii(ds, 2), nan),
        "bound_ratio-d4": lambda: fk.bound_ratio(ds4, compute_radii(ds4, 2), [[np.nan] * 4]),
        "assign": lambda: fk.assign(ds, [[0.0, 1.0], [np.nan, np.nan]]),
        "Solution.build": lambda: fk.Solution(ds, aset, center_pos=nan),
    }


@pytest.mark.parametrize("entry", list(non_finite_cases()))
def test_non_finite_positions_named(entry):
    with pytest.raises(ValueError, match=r"non-finite coordinates \(NaN or inf\)"):
        non_finite_cases()[entry]()


def underflow_cases():
    """One call per entry that reads distances to a center set or between
    points, on a dataset of 200 distinct points at 1e-170, where every
    squared distance underflows to 0.  Each used to answer as if the points
    were identical: a [0., 0.] trace, a cost of 0.0, a ratio of (0.0, 0)
    against radii of 1e-171, "all points are identical", every label 0, and
    a solution (built or checked) of cost 0.0.  The dataset now refuses the
    points when built, so no entry is handed them."""
    import fairkmeans as fk

    delta = RadiusBounds(np.full(200, 1e-171))

    def aset(ds):
        return make_anchor_set(ds, [0], [1.0])

    return {
        "kmeanspp_init": lambda ds: fk.kmeanspp_init(ds, 3, 0),
        "vanilla_kmeans": lambda ds: fk.vanilla_kmeans(ds, 3, 0),
        "cost": lambda ds: fk.cost(ds, [0, 1]),
        "bound_ratio": lambda ds: fk.bound_ratio(ds, delta, [0, 1]),
        "aspect_ratio": lambda ds: fk.aspect_ratio(ds),
        "assign": lambda ds: fk.assign(ds, [0, 1]),
        "Solution.build-ids": lambda ds: fk.Solution(ds, aset(ds), center_ids=[0, 1]),
        "Solution.build-positions": lambda ds: fk.Solution(
            ds, aset(ds), center_pos=ds.points[[0, 1]]
        ),
        "init_solution": lambda ds: fk.init_solution(ds, aset(ds), 3, 0),
        "check_solution": lambda ds: check_solution(
            fk.Solution(ds, aset(ds), center_pos=ds.points[[0, 1]])
        ),
        "brute_force_opt": lambda ds: brute_force_without_its_loop(ds, delta),
    }


def brute_force_without_its_loop(ds, delta):
    """``brute_force_opt`` at k = 2, failing if its subset loop starts."""
    import fairkmeans as fk

    started = AssertionError("brute_force_opt started its subset loop")
    with mock.patch.object(itertools, "combinations", side_effect=started):
        return fk.brute_force_opt(ds, delta, 6.0, 2)


@pytest.mark.parametrize("entry", list(underflow_cases()))
def test_underflowing_distances_named(entry):
    pts = np.random.default_rng(7).normal(size=(200, 2)) * 1e-170
    with pytest.raises(ValueError, match=UNDERFLOW):
        underflow_cases()[entry](Dataset(pts))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("d", [2, 8])
def test_lloyd_overflowing_cost_named(d):
    # the Lloyd loop's entry cost; it used to return an all-inf trace
    # behind RuntimeWarnings
    ds = Dataset(np.random.default_rng(4).normal(size=(20, d)) * 1e160)
    with pytest.raises(ValueError, match=r"total cost \(sum of squared distances.*overflows"):
        lloyd_rounds(ds.points, ds.points[[0, 1]], None, 100, 0.0)


def two_far_clusters():
    """12 points in two tight clusters at +-1e160: squared distances within
    a cluster are finite, those across the clusters overflow to inf."""
    pts = np.random.default_rng(3).normal(size=(12, 2)) * 1e146
    pts[:6] += 1e160
    pts[6:] -= 1e160
    return Dataset(pts)


def distance_overflow_cases():
    """One call per entry that reads pairwise squared distances, or each
    point's squared distance to its nearest center, where some overflow to
    inf.  On 12 points at 1e160 brute force used to return None (no
    feasible subset, where the same points at 1e150 have one) and
    aspect_ratio to call the points identical; on two tight clusters at
    +-1e160 aspect_ratio returned inf, where the ratio is about 1e14.  With
    centers [0, 1, 2] on the 12 points, assign used to label every other
    point 0 (each far center tied at inf), cost to return inf and
    bound_ratio (inf, 3)."""
    ds = Dataset(np.random.default_rng(3).normal(size=(12, 2)) * 1e160)
    delta = RadiusBounds(np.full(12, 1e161))
    return {
        "brute_force_opt": lambda: brute_force_opt(ds, delta, 6.0, 3),
        "aspect_ratio": lambda: aspect_ratio(ds),
        "aspect_ratio-two-clusters": lambda: aspect_ratio(two_far_clusters()),
        "assign": lambda: assign(ds, [0, 1, 2]),
        "cost": lambda: cost(ds, [0, 1, 2]),
        "bound_ratio": lambda: bound_ratio(ds, delta, [0, 1, 2]),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("entry", list(distance_overflow_cases()))
def test_overflowing_distances_named(entry):
    with pytest.raises(ValueError, match="^squared distances overflow float64.*rescale the points"):
        distance_overflow_cases()[entry]()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nearest_distances_below_overflow_answer():
    # at 1e150 the squared distances stay finite, so the labels are those
    # of the same points at scale 1 and no check fires; two clusters at
    # +-1e160 overflow only across them, and a center in each serves all
    pts = np.random.default_rng(3).normal(size=(12, 2))
    ds = Dataset(pts * 1e150)
    labels = assign(ds, [0, 1, 2])
    assert labels.tolist() == [0, 1, 2, 2, 2, 1, 2, 2, 1, 1, 2, 1]
    assert np.array_equal(labels, assign(Dataset(pts), [0, 1, 2]))
    assert np.isfinite(cost(ds, [0, 1, 2]))
    assert np.isfinite(bound_ratio(ds, RadiusBounds(np.full(12, 1e151)), [0, 1, 2])[0])
    assert assign(two_far_clusters(), [2, 8]).tolist() == [0] * 6 + [1] * 6


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_brute_force_answers_past_overflowed_pairs():
    # the pairs across the clusters overflow, but a center in each cluster
    # serves every point, so there is an answer and no error
    ds = two_far_clusters()
    cost, ids = brute_force_opt(ds, compute_radii(ds, 2), 6.0, 2)
    assert np.array_equal(ids, [2, 8]) and np.isfinite(cost)


def cost_overflow_cases():
    """One call per entry that totals squared distances to a center set,
    on 20 points at 1e160, where the squared distances and so the total
    cost overflow to inf.  k-means++ seeding used to raise its own
    overflow error for the sum of its draw weights, and a built solution
    held a total cost of inf."""
    import fairkmeans as fk

    ds = Dataset(np.random.default_rng(4).normal(size=(20, 2)) * 1e160)
    aset = make_anchor_set(ds, [], [])
    return {
        "kmeanspp_init": lambda: fk.kmeanspp_init(ds, 3, 0),
        "vanilla_kmeans": lambda: fk.vanilla_kmeans(ds, 3, 0),
        "Solution.build-ids": lambda: fk.Solution(ds, aset, center_ids=[0, 1]),
        "Solution.build-positions": lambda: fk.Solution(
            ds, aset, center_pos=ds.points[[0, 1]]
        ),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("entry", list(cost_overflow_cases()))
def test_overflowing_cost_named(entry):
    with pytest.raises(ValueError, match=r"total cost \(sum of squared distances.*overflows float64"):
        cost_overflow_cases()[entry]()


def test_caller_arrays_stay_writable():
    # Dataset and RadiusBounds used to freeze the caller's own array, so a
    # later "X *= 2" failed with "output array is read-only"
    X, d = np.arange(8.0).reshape(4, 2), np.ones(4)
    ds, delta = Dataset(X), RadiusBounds(d)
    for arr in (X, d):
        arr *= 2
    assert np.array_equal(ds.points, np.arange(8.0).reshape(4, 2))
    assert np.array_equal(delta.delta, np.ones(4))
    assert not ds.points.flags.writeable and not delta.delta.flags.writeable


def complex_cases():
    """One call per place outside values become floats, each given complex
    values, which numpy converted by dropping the imaginary parts behind a
    ComplexWarning: ``Dataset([[1+2j, 0], [3, 4j]])`` held [[1, 0], [3, 0]]."""
    import fairkmeans as fk

    ds = Dataset(np.zeros((3, 2)))
    return {
        "points": lambda: Dataset([[1 + 2j, 0], [3, 4j]]),
        "delta": lambda: RadiusBounds([1j, 1.0]),
        "positions": lambda: fk.cost(ds, [[1j, 0.0]]),
    }


@pytest.mark.parametrize("name", list(complex_cases()))
def test_complex_input_named(name):
    with pytest.raises(TypeError, match=f"^{name} must be real numbers, got complex128$"):
        complex_cases()[name]()


def ragged_cases():
    """One call per place outside values become floats as a whole, each
    given rows of different lengths, which numpy refused with "setting an
    array element with a sequence ... inhomogeneous shape", naming no
    input."""
    return {
        "points": lambda: Dataset([[1, 2], [3]]),
        "delta": lambda: RadiusBounds([[1.0], [2.0, 3.0]]),
    }


@pytest.mark.parametrize("name", list(ragged_cases()))
def test_ragged_input_named(name):
    with pytest.raises(ValueError, match=f"^{name} must be a rectangular array; its rows differ"):
        ragged_cases()[name]()


def text_cases():
    """One call per place outside values become floats, each given text,
    which numpy parsed as numbers where it could (``Dataset([["1", "2"],
    ["3", "4.5"]])`` held floats) and otherwise failed on with "could not
    convert string to float", naming no input."""
    import fairkmeans as fk

    ds = Dataset(np.zeros((3, 2)))
    return {
        "points": lambda: Dataset([["1", "2"], ["3", "4.5"]]),
        "delta": lambda: RadiusBounds(np.array([b"1", b"2"])),
        "positions": lambda: fk.cost(ds, [["1", "0"]]),
    }


@pytest.mark.parametrize("name", list(text_cases()))
def test_text_input_named(name):
    with pytest.raises(TypeError, match=rf"^{name} must be real numbers, got [<|][US]\d+$"):
        text_cases()[name]()


@pytest.mark.parametrize("text", ["1", b"1"], ids=["str", "bytes"])
def test_text_in_object_array_named(text):
    # numpy parsed it: Dataset(np.array([["1", 2.0]], dtype=object)) held [[1., 2.]]
    with pytest.raises(TypeError, match="^points must be real numbers, got object$"):
        Dataset(np.array([[text, 2.0]], dtype=object))


def test_numbers_in_object_array_convert():
    points = Dataset(np.array([[1, 2.0]], dtype=object)).points
    assert points.dtype == np.float64 and np.array_equal(points, [[1.0, 2.0]])
