import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkmeans import (
    Dataset,
    LsConfig,
    RadiusBounds,
    Solution,
    brute_force_opt,
    greedy_baseline,
    run,
    seed,
)
from fairkmeans._dist import dists
from fairkmeans.anchors import AnchorSet, _coverage
from conftest import gaussian_instance, tiny_instance


def make_anchor_set(ds, anchor_ids, radii, gamma=3.0):
    """Planted zones around the given points, with the field types
    ``seed`` gives: int64 ids and float64 positions and radii."""
    ids = np.asarray(anchor_ids, dtype=np.int64)
    return AnchorSet(
        anchors=ids,
        positions=ds.points[ids].copy(),
        zone_radius=np.asarray(radii, dtype=np.float64),
        gamma=gamma,
    )


class TestSeed:
    def test_line_single_anchor(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [9.0]]))
        delta = RadiusBounds(np.array([1.0, 1.0, 1.0, 7.0]))
        aset = seed(ds, delta, gamma=3.0)
        assert np.array_equal(aset.anchors, [0])
        assert np.array_equal(aset.zone_radius, [3.0])

    def test_two_far_points(self):
        ds = Dataset(np.array([[0.0], [100.0]]))
        delta = RadiusBounds(np.array([1.0, 1.0]))
        aset = seed(ds, delta, gamma=3.0)
        assert np.array_equal(aset.anchors, [0, 1])
        assert len(aset) == 2  # caller treats this as infeasible for k=1

    def test_huge_radii_single_pick(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(30, 2)))
        delta = RadiusBounds(np.full(30, 1e9))
        aset = seed(ds, delta, gamma=3.0)
        assert np.array_equal(aset.anchors, [0])

    def test_gamma_must_exceed_two(self):
        ds = Dataset(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="gamma"):
            seed(ds, RadiusBounds(np.ones(2)), gamma=2.0)

    @pytest.mark.parametrize("gamma", [2.0, math.inf, math.nan, True])
    def test_gamma_must_be_finite_above_two(self, gamma):
        # every radius is positive, so an infinite gamma covers every point
        # with the first anchor instead of hanging on a nan reach; a bool is
        # a number, and never above 2
        ds = Dataset(np.arange(4.0)[:, None])
        delta = RadiusBounds(np.ones(4))
        message = "gamma must be a finite number above 2"
        with pytest.raises(ValueError, match=message):
            seed(ds, delta, gamma=gamma)
        with pytest.raises(ValueError, match=message):
            LsConfig(k=2, gamma=gamma).validate()

    @pytest.mark.parametrize(
        "gamma", ["3", None, np.array([3.0, 4.0])], ids=["str", "None", "array"]
    )
    def test_gamma_must_be_a_real_number(self, gamma):
        # each used to fail inside the comparison with gamma, naming no input:
        # "'>' not supported between ..." or "truth value of an array ..."
        ds = Dataset(np.arange(4.0)[:, None])
        delta = RadiusBounds(np.ones(4))
        message = "^gamma must be a real number, got "
        with pytest.raises(TypeError, match=message):
            seed(ds, delta, gamma=gamma)
        with pytest.raises(TypeError, match=message):
            run(ds, delta, LsConfig(k=2, gamma=gamma))

    def test_tie_breaks_to_lowest_id(self):
        ds = Dataset(np.array([[0.0], [50.0], [100.0]]))
        delta = RadiusBounds(np.array([1.0, 1.0, 1.0]))
        aset = seed(ds, delta, gamma=3.0)
        assert aset.anchors[0] == 0

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_invariants_on_random_instances(self, s):
        ds, delta, k = gaussian_instance(s, n=120)
        aset = seed(ds, delta, gamma=3.0)
        # every point is served within gamma * delta(p)
        served = np.full(ds.n, np.inf)
        for pos in aset.positions:
            np.minimum(served, dists(ds.points, pos), out=served)
        assert np.all(served <= 3.0 * delta.delta)
        # pick order is monotone in delta
        picked = delta.delta[aset.anchors]
        assert np.all(np.diff(picked) >= 0)
        # anchors' delta-balls are pairwise disjoint
        for i in range(len(aset)):
            for j in range(i + 1, len(aset)):
                gap = dists(aset.positions[i : i + 1], aset.positions[j])[0]
                assert gap > picked[i] + picked[j]
        # exact radii always admit k anchors or fewer
        assert len(aset) <= k

    def test_feasible_instances_need_at_most_k(self):
        found = 0
        s = 0
        while found < 15:
            ds, delta, k = tiny_instance(5000 + s)
            s += 1
            if brute_force_opt(ds, delta, beta=1.0, k=k) is None:
                continue
            found += 1
            assert len(seed(ds, delta, gamma=3.0)) <= k


    def test_underflow_names_cause_with_given_radii(self):
        # user radii skip compute_radii; the points are refused when built
        pts = np.random.default_rng(4).normal(size=(300, 2)) * 1e-170
        delta = RadiusBounds(np.full(300, 1e-171))
        with pytest.raises(ValueError, match="underflow float64.*rescale the points"):
            run(Dataset(pts), delta, LsConfig(k=5, iterations=10, seed=0))
        with pytest.raises(ValueError, match="underflow float64.*rescale the points"):
            greedy_baseline(Dataset(pts), delta, 3.0, 5, seed=0)

    def test_identical_tiny_points_pass(self):
        ds = Dataset(np.full((6, 3), 1e-170))
        delta = RadiusBounds(np.full(6, 1e-171))
        sol, _ = run(ds, delta, LsConfig(k=2, iterations=10, seed=0))
        assert sol.total_cost == 0.0
        assert greedy_baseline(ds, delta, 3.0, 2, seed=0).total_cost == 0.0


class TestBuildCoverage:
    """The coverage table (``anchors._coverage``), as a ``Solution`` builds
    it from its centers."""

    def test_anchors_cover_their_own_zones(self):
        ds, delta, k = gaussian_instance(3, n=150)
        aset = seed(ds, delta, gamma=3.0)
        covers = _coverage(aset, aset.positions)
        assert covers.shape == (len(aset), len(aset))
        assert covers.any(axis=0).all()

    def test_count_single_center_inside(self):
        ds = Dataset(np.array([[0.0], [2.0], [10.0]]))
        aset = make_anchor_set(ds, [0], [3.0])
        covers = _coverage(aset, ds.points[[1, 2]])
        assert covers.tolist() == [[True], [False]]
        assert Solution(ds, aset, center_ids=[1, 2]).covers.tolist() == covers.tolist()

    def test_uncovered_zone_detected(self):
        ds = Dataset(np.array([[0.0], [10.0]]))
        aset = make_anchor_set(ds, [0], [3.0])
        covers = _coverage(aset, ds.points[[1]])
        assert covers.tolist() == [[False]]

    @pytest.mark.parametrize(
        "positions, message",
        [
            ([[0.0]], "centers have 1 columns but the points have 2"),
            ([[0.0, 1.0, 2.0]], "centers have 3 columns but the points have 2"),
            (np.empty((0, 2)), "center set is empty"),
            ([0.0, 1.0], r"positions must be a \(k, d\) array"),
        ],
        ids=["narrower", "wider", "empty", "1-D"],
    )
    def test_positions_checked(self, positions, message):
        # a solution's constructor checks the positions it builds the table
        # from: narrower ones used to be compared on the anchors' first
        # column alone and give a table
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        aset = make_anchor_set(ds, [0, 5], [3.0, 3.0])
        with pytest.raises(ValueError, match=message):
            Solution(ds, aset, center_pos=np.array(positions))


def test_anchor_set_accepts_seed_output_and_no_zones():
    ds, delta, _ = gaussian_instance(5, n=120, d=3)
    aset = seed(ds, delta, gamma=3.0)  # the one maker of an AnchorSet
    assert len(aset) > 0
    assert aset.anchors.dtype == np.int64 and aset.positions.shape == (len(aset), 3)
    empty = AnchorSet(np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty(0), 3.0)
    assert len(empty) == 0
