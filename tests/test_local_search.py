import ast
import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkmeans import (
    Dataset,
    FlConfig,
    InfeasibleInstanceError,
    LsConfig,
    RadiusBounds,
    Solution,
    brute_force_opt,
    d2_sample,
    flloyd_run,
    init_solution,
    ls_step,
    run,
    seed,
    swap_costs,
)
from fairkmeans import _dist, compute_radii, dataset, local_search
from fairkmeans._dist import _nearest_two, _nth_smallest, nearest
from fairkmeans.anchors import AnchorSet
from fairkmeans.local_search import _best_swap
from fairkmeans.solution import check_guarantee, check_solution
from conftest import gaussian_instance, record_draws
from test_anchors import make_anchor_set
from test_dist import ADVERSARIAL, reference_nearest_two


def with_exact_radii(points, k):
    ds = Dataset(points)
    return ds, compute_radii(ds, k), k


def ls_fixture(instance_seed, n=100, k=4, init_seed=0):
    ds, delta, _ = gaussian_instance(instance_seed, n=n, k=k)
    aset = seed(ds, delta, gamma=3.0)
    sol = init_solution(ds, aset, k, init_seed)
    return ds, delta, aset, sol


class TestInitSolution:
    def test_anchors_exactly_k(self):
        ds = Dataset(np.array([[0.0], [100.0], [200.0]]))
        delta = RadiusBounds(np.ones(3))
        aset = seed(ds, delta, gamma=3.0)
        assert len(aset) == 3
        sol = init_solution(ds, aset, 3, 0)
        assert sorted(sol.center_ids.tolist()) == [0, 1, 2]

    def test_deterministic_fill(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [9.0]]))
        delta = RadiusBounds(np.array([1.0, 1.0, 1.0, 7.0]))
        aset = seed(ds, delta, gamma=3.0)
        a = init_solution(ds, aset, 2, 5)
        b = init_solution(ds, aset, 2, 5)
        assert np.array_equal(a.center_ids, b.center_ids)
        assert a.center_ids[0] == 0 and a.center_ids[1] in (1, 2, 3)

    def test_k_equals_n_zero_cost(self):
        ds, delta, _ = gaussian_instance(1, n=12, k=3)
        aset = seed(ds, delta, gamma=3.0)
        sol = init_solution(ds, aset, 12, 0)
        assert sol.total_cost == 0.0
        assert sorted(sol.center_ids.tolist()) == list(range(12))

    def test_too_many_anchors(self):
        ds = Dataset(np.array([[0.0], [100.0]]))
        aset = seed(ds, RadiusBounds(np.ones(2)), gamma=3.0)
        with pytest.raises(InfeasibleInstanceError) as err:
            init_solution(ds, aset, 1, 0)
        assert err.value.anchors_needed == 2 and err.value.k == 1

    def test_caches_fresh(self):
        ds, delta, aset, sol = ls_fixture(7)
        check_solution(sol, delta)


    def test_overflowing_total_cost_is_named(self):
        # every squared distance is finite but their sum is not: every D^2
        # draw would land on the last point and the search would report
        # cost inf with no step taken
        n = 20_000
        ds = Dataset(np.random.default_rng(0).normal(size=(n, 2)) * 1e152)
        delta = RadiusBounds(np.full(n, 1e156))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow.*rescale"):
            run(ds, delta, LsConfig(k=3, iterations=50, seed=1))


class TestD2Sample:
    def test_probabilities_line(self):
        ds = Dataset(np.array([[0.0], [1.0], [3.0]]))
        aset = make_anchor_set(ds, [0], [1e9])
        sol = Solution(ds, aset, center_ids=np.array([0]))
        assert np.allclose(sol.d1sq, [0.0, 1.0, 9.0])
        rng = np.random.default_rng(0)
        draws = np.array([d2_sample(sol, rng) for _ in range(20_000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        assert freq[0] == 0.0
        assert freq[1] == pytest.approx(0.1, abs=0.01)
        assert freq[2] == pytest.approx(0.9, abs=0.01)

    def test_zero_cost_is_an_error(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        aset = make_anchor_set(ds, [0], [1e9])
        sol = Solution(ds, aset, center_ids=np.array([0, 1]))
        with pytest.raises(ValueError, match="zero"):
            d2_sample(sol, np.random.default_rng(0))

    def test_draw_from_overflowed_total_is_an_error(self):
        rng = np.random.default_rng(0)
        state = copy.deepcopy(rng.bit_generator.state)
        weights = np.array([1.0, 1e308, 1e308, 1.0])
        with np.errstate(over="ignore"):
            cum = np.cumsum(weights)
        with pytest.raises(ValueError, match="overflow"):
            local_search._d2_draw(cum, rng)
        assert rng.bit_generator.state == state

    def test_draw_never_lands_on_a_zero_weight(self):
        # weights [0, 2**-1074, 0]: u·total rounds up to the total for about
        # half the draws, and those too land on the one positive weight
        cum = np.cumsum([0.0, 2.0**-1074, 0.0])
        rng = np.random.default_rng(0)
        draws = [local_search._d2_draw(cum, rng) for _ in range(2000)]
        assert draws == [1] * 2000

    def test_symmetric_pair_within_3_sigma(self):
        ds = Dataset(np.array([[0.0], [-2.0], [2.0]]))
        aset = make_anchor_set(ds, [0], [1e9])
        sol = Solution(ds, aset, center_ids=np.array([0]))
        rng = np.random.default_rng(1)
        draws = np.array([d2_sample(sol, rng) for _ in range(10_000)])
        count = np.count_nonzero(draws == 1)
        sigma = math.sqrt(10_000 * 0.25)
        assert abs(count - 5_000) <= 3 * sigma


def clamped_draw(cum, rng):
    """The reference draw that clamps to the last index: where u·total stays
    below the total, :func:`local_search._d2_draw` must agree with it."""
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, cum.shape[0] - 1)


TINY_WEIGHTS = st.sampled_from([0.0, 2.0**-1074, 3 * 2.0**-1074, 2.0**-1023, 2.0**-1022])
WEIGHTS = st.one_of(
    TINY_WEIGHTS,
    st.floats(0.0, 2.0**-1020, allow_subnormal=True),
    st.floats(0.0, 1e300, allow_subnormal=True),
)


@settings(max_examples=500, deadline=None)
@given(weights=st.lists(WEIGHTS, min_size=1, max_size=12), draw_seed=st.integers(0, 2**32))
def test_d2_draw_lands_on_positive_weights(weights, draw_seed):
    # zeros, subnormals and totals at or below 2**-1022, where u·total may
    # round up to the total
    weights = np.array(weights)
    cum = np.cumsum(weights)
    rng = np.random.default_rng(draw_seed)
    twin = copy.deepcopy(rng)
    got = local_search._d2_draw(cum, rng)
    if not cum[-1] > 0:
        assert got is None and rng.bit_generator.state == twin.bit_generator.state
        return
    assert weights[got] > 0
    if cum[-1] > 2.0**-1022:
        assert got == clamped_draw(cum, twin)
        assert rng.bit_generator.state == twin.bit_generator.state


class _LastDraw:
    """A generator stand-in whose uniform draw is the largest one."""

    @staticmethod
    def random():
        return 1 - 2.0**-53


@pytest.mark.parametrize(
    "weights, want",
    [
        ([0.0, 2.0**-1074, 0.0], 1),
        ([2.0**-1074, 0.0, 0.0, 2.0**-1074, 0.0], 3),
        ([2.0**-1023, 2.0**-1023, 0.0], 1),
        ([2.0**-1040, 0.0, 2.0**-1030, 0.0], 2),
    ],
)
def test_d2_draw_rounding_up_to_the_total(weights, want):
    # u·total rounds up to the total: the first index whose cumsum reaches it
    cum = np.cumsum(weights)
    assert _LastDraw.random() * cum[-1] == cum[-1]
    assert local_search._d2_draw(cum, _LastDraw) == want


@pytest.mark.parametrize("total", [np.nextafter(2.0**-1022, 1), 2.0**-1021, 3.0, 1e300])
def test_d2_draw_stays_below_totals_above_2_1022(total):
    # the proof's bound: the largest draw rounds to a float below the total
    assert _LastDraw.random() * total < total
    assert _LastDraw.random() * 2.0**-1022 == 2.0**-1022


class TestConfigs:
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: LsConfig(k=4.0), "k"),
            (lambda: LsConfig(k=4, iterations=3.0), "iterations"),
            (lambda: LsConfig(k=4, seed=1.5), "seed"),
            (lambda: FlConfig(iterations=2.5), "iterations"),
        ],
        ids=["LsConfig.k", "LsConfig.iterations", "LsConfig.seed", "FlConfig.iterations"],
    )
    def test_counts_must_be_integers(self, make, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            make().validate()

    def test_numpy_integers_pass(self):
        LsConfig(k=np.int64(4), iterations=np.int32(3), seed=np.int64(5)).validate()
        FlConfig(iterations=np.uint8(2)).validate()


class TestSolutionBuild:
    @pytest.mark.parametrize("given", ["center_ids", "center_pos"])
    def test_empty_center_set(self, given):
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        aset = make_anchor_set(ds, [0], [1e9])
        empty = {"center_ids": [], "center_pos": np.empty((0, 2))}[given]
        with pytest.raises(ValueError, match="center set is empty"):
            Solution(ds, aset, **{given: empty})

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_center_id_out_of_range(self, bad):
        # numpy would read a negative id as a point from the end
        ds = Dataset(np.arange(10.0))
        aset = make_anchor_set(ds, [0], [1e9])
        with pytest.raises(ValueError, match=f"center id {bad} is outside"):
            Solution(ds, aset, center_ids=[bad, 3])

    @pytest.mark.parametrize("cols", [1, 3])
    def test_center_columns_mismatch(self, cols):
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        aset = make_anchor_set(ds, [0], [1e9])
        with pytest.raises(ValueError, match=f"centers have {cols} columns but the points have 2"):
            Solution(ds, aset, center_pos=np.arange(1.0, cols + 1)[None])

    @pytest.mark.parametrize("ids", [[1.5, 2.0], np.array([1.0, 2.0]), [[0, 1]]])
    def test_ids_must_be_a_1d_integer_array(self, ids):
        # float ids used to be truncated: [1.5, 2.0] built the solution [1, 2];
        # a 2-D integer list must not be read as positions
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        aset = make_anchor_set(ds, [0], [1e9])
        with pytest.raises(ValueError, match="center ids must be a 1-D integer array"):
            Solution(ds, aset, center_ids=ids)

    def test_ids_copied(self):
        # the search writes to sol.center_ids, never to the caller's array
        ds, delta, aset, _ = ls_fixture(66, n=120, k=4)
        ids = init_solution(ds, aset, 4, 0).center_ids.copy()
        given = ids.copy()
        sol = Solution(ds, aset, center_ids=given)
        rng = np.random.default_rng(1)
        for _ in range(60):
            ls_step(sol, aset, rng)
        assert not np.array_equal(sol.center_ids, ids)
        assert np.array_equal(given, ids)

    def test_constructor_holds_checked_copies(self):
        # a directly built solution holds float64 and int64 copies: the
        # search writes its swaps into neither of the caller's arrays, and
        # int64 positions are held as float64 ones, so that no new center
        # is truncated off its id
        X = np.random.default_rng(8).integers(-8, 8, size=(150, 2)) + 0.25
        ds = Dataset(np.concatenate([X, [[-20.0, -20.0], [20.0, 20.0]]]))
        ids = np.array([150, 151], dtype=np.int32)
        pos = ds.points[ids].astype(np.int64)
        given_ids, given_pos = ids.copy(), pos.copy()
        nearest = _dist.two_nearest(ds.points, ds.points[ids])
        no_zones = AnchorSet(np.empty(0, dtype=np.int64), np.empty((0, 2)), np.empty(0), 3.0)
        sol = Solution(ds, no_zones, center_ids=ids)
        assert sol.center_pos.dtype == np.float64 and sol.center_ids.dtype == np.int64
        placed = Solution(ds, no_zones, center_pos=pos)
        assert placed.center_pos.dtype == np.float64
        assert np.array_equal(placed.d1sq, nearest[2]) and np.array_equal(placed.d2sq, nearest[3])
        rng = np.random.default_rng(1)
        took = [ls_step(sol, None, rng)[1] for _ in range(100)]
        assert sum(took) >= 2
        check_solution(sol)
        assert np.array_equal(ids, given_ids) and np.array_equal(pos, given_pos)
        assert np.all(sol.center_pos % 1 == 0.25)

    def test_ids_and_positions_together_refused(self):
        # given both, the ids used to be stored unchecked: ids [-7, 2.5, 1e9, 0]
        # with valid positions passed check_solution, and ids off their
        # positions let the search swap in ids and positions that disagree
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        aset = make_anchor_set(ds, [0], [1e9])
        for ids in (np.array([-7, 2.5, 1e9, 0]), np.array([0, 1, 2, 3])):
            with pytest.raises(ValueError, match="pass center_ids or center_pos, not both"):
                Solution(ds, aset, center_ids=ids, center_pos=ds.points[[5, 6, 7, 8]])

    def test_init_solution_k_must_be_integer(self):
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        aset = make_anchor_set(ds, [0], [1e9])
        with pytest.raises(TypeError, match="k must be an integer, got 4.0"):
            init_solution(ds, aset, 4.0, 0)


class TestEvaluateSwaps:
    """Swap evaluation through :func:`swap_costs`; :func:`ls_step` makes the
    choice among the admissible swaps (see ``TestLsStep``)."""

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            ds, delta, aset, sol = ls_fixture(int(rng.integers(1e6)), n=60, k=3)
            p = int(rng.integers(ds.n))
            costs, admissible = swap_costs(sol, p)
            for j in np.flatnonzero(admissible):
                pos = sol.center_pos.copy()
                pos[j] = ds.points[p]
                naive = math.fsum(nearest(ds.points, pos)[1])
                assert costs[j] == pytest.approx(naive, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize(
        "p, error, message",
        [
            (-1, ValueError, r"p=-1 must be in \[0, 299\]"),
            (300, ValueError, r"p=300 must be in \[0, 299\]"),
            (2.5, TypeError, "p must be an integer, got 2.5"),
        ],
        ids=["negative", "n", "float"],
    )
    def test_point_id_checked(self, d, p, error, message):
        # p = -1 used to wrap to point n-1 at d <= 2 and to price swaps
        # from unset memory at d > 2; n and 2.5 failed inside numpy
        ds, delta, k = gaussian_instance(67, n=300, k=4, d=d)
        sol = init_solution(ds, seed(ds, delta, 3.0), k, 0)
        with pytest.raises(error, match=message):
            swap_costs(sol, p)

    def test_existing_center_is_a_noop(self):
        ds, delta, aset, sol = ls_fixture(3)
        p = int(sol.center_ids[0])
        costs, admissible = swap_costs(sol, p)
        assert costs[admissible].min() == pytest.approx(sol.total_cost, rel=1e-12)

    def test_sole_coverer_filtered(self):
        # zone around point 0 only holds center 0; candidate 4 is outside
        ds = Dataset(np.array([[0.0], [4.0], [10.0]]))
        aset = make_anchor_set(ds, [0], [3.0])
        sol = Solution(ds, aset, center_ids=np.array([0, 2]))
        costs, admissible = swap_costs(sol, 1)
        assert not admissible[0] and admissible[1]
        # the filter, not the cost, rules out removing center 0
        assert costs[0] < costs[1]
        slot, new_cost = _best_swap(sol, costs, admissible)
        assert sol.center_ids[slot] == 2 and new_cost == costs[1]

    def test_no_admissible_swap(self):
        ds = Dataset(np.array([[0.0], [4.0]]))
        aset = make_anchor_set(ds, [0], [3.0])
        sol = Solution(ds, aset, center_ids=np.array([0]))
        _, admissible = swap_costs(sol, 1)
        assert not admissible.any()
        # every draw is point 1, and no swap may take it
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert not ls_step(sol, aset, rng)[1]
        assert sol.center_ids.tolist() == [0]


class TestLsStep:
    def test_state_matches_scratch_after_swaps(self):
        for t in range(10):
            ds, delta, aset, sol = ls_fixture(200 + t, n=80, k=4, init_seed=t)
            rng = np.random.default_rng(t)
            took_any = False
            for _ in range(40):
                _, took = ls_step(sol, aset, rng)
                took_any = took_any or took
            fresh = Solution(ds, aset, center_pos=sol.center_pos)
            assert np.array_equal(fresh.d1sq, sol.d1sq)
            assert np.array_equal(fresh.d2sq, sol.d2sq)
            assert np.array_equal(fresh.assign, sol.assign)
            assert np.array_equal(fresh.covers, sol.covers)
            assert sol.total_cost == pytest.approx(math.fsum(sol.d1sq), rel=1e-9)
            assert took_any

    def test_no_improving_swap_leaves_state(self):
        # exhaustively verify no admissible swap improves, then step
        ds = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
        delta = RadiusBounds(np.full(4, 1e6))
        aset = seed(ds, delta, gamma=3.0)
        sol = Solution(ds, aset, center_ids=np.array([0, 2]))
        for p in range(4):
            costs, admissible = swap_costs(sol, p)
            assert np.all(costs[admissible] >= sol.total_cost - 1e-12)
        before = sol.center_ids.copy()
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, took = ls_step(sol, aset, rng)
            assert not took
        assert np.array_equal(sol.center_ids, before)

    def test_cost_never_increases(self):
        ds, delta, aset, sol = ls_fixture(31, n=150, k=5)
        rng = np.random.default_rng(2)
        costs = [sol.total_cost]
        for _ in range(120):
            ls_step(sol, aset, rng)
            costs.append(sol.total_cost)
        assert np.all(np.diff(costs) <= 0)

    def test_foreign_anchor_set_rejected(self):
        # same anchors, tiny zones: stepping with it would corrupt the
        # coverage cache, which belongs to sol.anchor_set
        ds, delta, aset, sol = ls_fixture(41, n=120, k=4)
        shrunk = AnchorSet(aset.anchors, aset.positions, aset.zone_radius * 1e-6, aset.gamma)
        before = sol.center_ids.copy()
        with pytest.raises(ValueError, match="sol.anchor_set"):
            ls_step(sol, shrunk, np.random.default_rng(0))
        assert np.array_equal(sol.center_ids, before)
        ls_step(sol, None, np.random.default_rng(0))
        ls_step(sol, aset, np.random.default_rng(1))
        check_solution(sol, delta)

    def test_refined_solution_rejected(self):
        # refined centers are not data points: nothing to swap out by id
        ds, delta, aset, sol = ls_fixture(43, n=120, k=4)
        refined, _ = flloyd_run(ds, sol, cfg=FlConfig(iterations=2))
        assert refined.center_ids is None
        with pytest.raises(ValueError, match="center_ids"):
            ls_step(refined, aset, np.random.default_rng(0))

    def test_tie_goes_to_lowest_center_id(self):
        # every draw is a point at 0 (the only ones at positive cost), and
        # swapping it for either center reaches cost 1 < 3: the removed
        # center is id 0 in slot 1, not the lower slot 0
        ds = Dataset(np.array([-1.0, 0.0, 0.0, 0.0, 1.0]))
        aset = make_anchor_set(ds, [2], [10.0])
        for s in range(5):
            sol = Solution(ds, aset, center_ids=np.array([4, 0]))
            assert sol.total_cost == 3.0
            _, took = ls_step(sol, aset, np.random.default_rng(s))
            assert took and sol.total_cost == 1.0
            assert sol.center_ids[0] == 4 and sol.center_ids[1] in (1, 2, 3)

    def test_cheaper_swap_emptying_a_zone_rejected(self):
        # every draw is a point at 5; swapping it for center 0 would cost
        # 25 < 75 but empty the zone around point 0, and swapping it for
        # center 4 costs 225, so the step must reject
        ds = Dataset(np.array([0.0, 5.0, 5.0, 5.0, 20.0]))
        aset = make_anchor_set(ds, [0], [1.0])
        for s in range(5):
            sol = Solution(ds, aset, center_ids=np.array([0, 4]))
            assert sol.total_cost == 75.0
            _, took = ls_step(sol, aset, np.random.default_rng(s))
            assert not took
            assert sol.center_ids.tolist() == [0, 4] and sol.total_cost == 75.0

    def test_zero_cost_short_circuit(self):
        ds, delta, _ = gaussian_instance(4, n=10, k=2)
        aset = seed(ds, delta, gamma=3.0)
        sol = init_solution(ds, aset, 10, 0)
        _, took = ls_step(sol, aset, np.random.default_rng(0))
        assert not took and sol.total_cost == 0.0


class TestSearchState:
    """What the search reads between steps: the solution's D^2 cumsum cache,
    its box-ordered copies and the dataset's lift, with no state of its
    own."""

    def test_draws_equal_d2_sample(self, monkeypatch):
        # the cached cumsum gives ls_step the draw d2_sample gives on a copy
        # of the generator, before and after accepted swaps
        original = local_search._d2_draw
        draws = []

        def recording(cum, rng):
            draws.append(original(cum, rng))
            return draws[-1]

        monkeypatch.setattr(local_search, "_d2_draw", recording)
        ds, delta, aset, sol = ls_fixture(61, n=300, k=6, init_seed=3)
        rng = np.random.default_rng(5)
        took = []
        assert np.array_equal(sol.cum, np.cumsum(sol.d1sq))
        for _ in range(120):
            want = d2_sample(sol, copy.deepcopy(rng))
            draws.clear()
            took.append(ls_step(sol, aset, rng)[1])
            assert draws == [want]
            assert np.array_equal(sol.cum, np.cumsum(sol.d1sq))
        assert 3 <= sum(took) < 100

    def test_stale_cumsum_detected(self):
        # on a stepped solution, a fresh one and a refined one alike
        ds, delta, aset, sol = ls_fixture(62, n=200, k=4)
        rng = np.random.default_rng(0)
        while ls_step(sol, aset, rng)[1]:
            pass
        fresh = Solution(ds, aset, center_ids=sol.center_ids)
        refined, _ = flloyd_run(ds, sol, cfg=FlConfig(iterations=3))
        for each in (sol, fresh, refined):
            check_solution(each, delta)
            each.cum[-1] *= 2
            with pytest.raises(AssertionError, match="cumsum"):
                check_solution(each, delta)

    @pytest.mark.parametrize("d", [2, 3])
    def test_draw_and_swap_costs_change_nothing(self, d):
        # the public reads attach nothing to the solution and write nothing
        # into its caches, whether or not the lift exists (d > 2 here)
        ds, delta, k = gaussian_instance(65, n=200, k=4, d=d)
        sol = init_solution(ds, seed(ds, delta, 3.0), k, 0)
        before = dict(vars(sol))
        arrays = {name: v.copy() for name, v in before.items() if isinstance(v, np.ndarray)}
        p = d2_sample(sol, np.random.default_rng(0))
        swap_costs(sol, p)
        assert vars(sol).keys() == before.keys()
        assert all(vars(sol)[name] is v for name, v in before.items())
        assert all(np.array_equal(vars(sol)[name], v) for name, v in arrays.items())
        assert (ds.lift is None) == (d <= 2)
        check_solution(sol, delta)

    @pytest.mark.parametrize("d", [1, 2])
    def test_box_copies_exist_from_construction(self, monkeypatch, d):
        # the solution init_solution returns, one after some steps and the
        # one run returns all hold their box-ordered copies: check_solution
        # compares them with a rebuild, and swap_costs finds the rows
        # through the box layout and prices as from every row
        finders = []

        def spying(points, p, bound, lift, boxes, reach):
            finders.append(boxes)
            return _dist.near_sq_dists(points, p, bound, lift, boxes, reach)

        monkeypatch.setattr(local_search, "near_sq_dists", spying)
        ds, delta, k = gaussian_instance(67, n=500, k=5, d=d)
        aset = seed(ds, delta, 3.0)
        fresh = init_solution(ds, aset, k, 0)
        stepped = init_solution(ds, aset, k, 0)
        rng = np.random.default_rng(2)
        for _ in range(30):
            ls_step(stepped, aset, rng)
        searched, _ = run(ds, delta, LsConfig(k=k, iterations=30, seed=2))
        for sol in (fresh, stepped, searched):
            assert sol.boxed is not None and sol.reach is not None
            check_solution(sol, delta)
            stale = copy.deepcopy(sol)
            stale.reach[0] += 1.0
            with pytest.raises(AssertionError, match="box reach"):
                check_solution(stale)
            for p in range(0, ds.n, 41):
                finders.clear()
                new_costs, admissible = swap_costs(sol, p)
                assert finders == [ds.boxes]
                every_row = _dist.sq_dists(ds.points, ds.points[p])
                assert np.array_equal(new_costs, local_search._swap_costs(sol, every_row))
                covers_p = local_search._zone_row(sol, p)
                assert np.array_equal(admissible, local_search._admissible(sol, covers_p))

    def test_only_the_solution_assigns_its_box_copies(self):
        # the solution alone decides when its box-ordered copies exist
        assigned = set()
        for module in Path(local_search.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(module.read_text())):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        names = {a.attr for a in ast.walk(target) if isinstance(a, ast.Attribute)}
                        if names & {"boxed", "reach"}:
                            assigned.add(module.name)
        assert assigned == {"solution.py"}

    def test_lift_built_once_per_dataset(self, monkeypatch):
        calls = []

        def counting(points):
            calls.append(points)
            return _dist.lift_points(points)

        monkeypatch.setattr(dataset, "lift_points", counting)
        ds, delta, k = gaussian_instance(63, n=200, k=4, d=3)
        for s in (2, 3):
            sol, trace = run(ds, delta, LsConfig(k=k, iterations=40, seed=s))
            assert trace.accepted_count
        assert len(calls) == 1 and calls[0] is ds.points

    @staticmethod
    def solve(ds, delta, k, iterations):
        sol, trace = run(ds, delta, LsConfig(k=k, iterations=iterations, seed=7))
        check_solution(sol, delta)
        caches = [sol.center_ids, sol.d1sq, sol.d2sq, sol.assign, sol.assign2, sol.covers]
        caches += [sol.cum, sol.loss]
        return caches, trace, sol.total_cost, sol

    def assert_filter_changes_nothing(self, monkeypatch, ds, delta, k, iterations):
        filtered = self.solve(ds, delta, k, iterations)
        with monkeypatch.context() as m:
            # the certificate declines: every step that gets a candidate row
            # takes the full pass, on the same finder's rows
            m.setattr(local_search, "_certified", lambda *args: False)
            uncertified = self.solve(ds, delta, k, iterations)
            # and no finder anywhere: the candidate pass, the k-scan and the
            # Solution constructor (init and the debug oracle) all run the
            # plain kernel.  A fresh dataset, since ds keeps the lift and
            # boxes it has built.
            plain_ds = Dataset(ds.points)
            m.setattr(dataset, "lift_points", lambda points: None)
            m.setattr(dataset, "box_layout", lambda points: None)
            m.setattr(_dist, "lift_points", lambda refs, rows=None: None)
            plain = self.solve(plain_ds, delta, k, iterations)
        assert vars(plain_ds).get("lift") is None and vars(plain_ds).get("boxes") is None
        assert plain[3].boxed is None and plain[3].reach is None
        for other in (uncertified, plain):
            for a, b in zip(filtered[0], other[0]):
                assert np.array_equal(a, b)
            assert filtered[1].initial_cost == other[1].initial_cost
            assert np.array_equal(filtered[1].costs, other[1].costs)
            assert np.array_equal(filtered[1].accepted, other[1].accepted)
            assert filtered[2] == other[2]
            for name in ("rejected_inadmissible", "rejected_no_gain"):
                assert getattr(filtered[1], name) == getattr(other[1], name)
            assert other[1].certified == 0
        # run returns the search's box-ordered copies with the solution, at
        # d <= 2 alone; solve's check_solution compared them with a rebuild
        assert (filtered[3].boxed is None) == (filtered[3].reach is None) == (ds.d > 2)
        return filtered[1]

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_filtered_equals_unfiltered(self, monkeypatch, d):
        ds, delta, k = gaussian_instance(64 + d, n=1500, k=12, d=d)
        trace = self.assert_filter_changes_nothing(monkeypatch, ds, delta, k, 200)
        assert trace.accepted_count >= 5
        assert trace.certified >= 0.5 * (200 - trace.accepted_count)

    @pytest.mark.parametrize("k", [1, 2, 100])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_filtered_equals_unfiltered_k(self, monkeypatch, d, k):
        # k = 1: d2sq is inf, every finder keeps every row and the
        # certificate declines
        ds, delta, k = gaussian_instance(150 + d, n=600, k=k, d=d)
        trace = self.assert_filter_changes_nothing(monkeypatch, ds, delta, k, 100)
        if k == 1:
            assert trace.certified == 0

    @pytest.mark.parametrize("name", ADVERSARIAL)
    @pytest.mark.parametrize("k", [1, 2, 100])
    def test_filtered_equals_unfiltered_adversarial(self, monkeypatch, name, k):
        ds = Dataset(ADVERSARIAL[name]())
        delta = compute_radii(ds, k)
        self.assert_filter_changes_nothing(monkeypatch, ds, delta, k, 150)

    @pytest.mark.parametrize("name", ADVERSARIAL)
    @pytest.mark.parametrize("k", [1, 2, 100])
    @pytest.mark.parametrize("d", [1, 2])
    def test_filtered_equals_unfiltered_adversarial_boxes(self, monkeypatch, name, k, d):
        # the same point sets cut to their first d columns, where the box
        # layout finds the candidate's rows
        ds = Dataset(ADVERSARIAL[name]()[:, :d])
        delta = compute_radii(ds, k)
        self.assert_filter_changes_nothing(monkeypatch, ds, delta, k, 100)


class TestCertificate:
    """A rejection that the certificate settles is one the full pass makes
    too: near-ties and exact ties go to the full pass, which decides as
    before, and the full pass runs on no step the certificate settled."""

    @staticmethod
    def step(monkeypatch, sol, p, certify=True):
        """The branch one step takes on a copy of ``sol`` that draws p, and
        the copy after the step."""
        sol = copy.deepcopy(sol)
        with monkeypatch.context() as m:
            m.setattr(local_search, "_d2_draw", lambda cum, rng: p)
            if not certify:
                m.setattr(local_search, "_certified", lambda *args: False)
            branch = local_search._step(sol, None)
        return branch, sol

    def assert_same_step(self, monkeypatch, sol, p):
        got, stepped = self.step(monkeypatch, sol, p)
        want, full = self.step(monkeypatch, sol, p, certify=False)
        assert got == want or (got, want) == ("certified", "no_gain")
        for name in ("center_ids", "d1sq", "d2sq", "assign", "assign2", "cum", "loss", "covers"):
            assert np.array_equal(getattr(stepped, name), getattr(full, name)), name
        assert stepped.total_cost == full.total_cost
        return got

    @staticmethod
    def shifted(value, ulps):
        """``value`` moved by ``ulps`` units in the last place."""
        for _ in range(abs(ulps)):
            value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
        return float(value)

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_near_ties_take_the_full_pass(self, monkeypatch, d):
        # total_cost planted a few ulps on either side of the best
        # admissible swap: the certificate declines, and the full pass
        # accepts exactly when the swap is strictly cheaper
        ds, delta, k = gaussian_instance(70 + d, n=400, k=5, d=d)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=30, seed=1))
        assert (sol.boxed is not None) == (d <= 2)  # the box layout finds p's rows
        candidates = [p for p in range(0, ds.n, 37) if p not in sol.center_ids]
        for p in candidates:
            new_costs, admissible = swap_costs(sol, p)
            best = new_costs[admissible].min()
            for ulps in (-3, -1, 0, 1, 3):
                planted = copy.deepcopy(sol)
                planted.total_cost = self.shifted(best, ulps)
                kept, dp = local_search._near_row(planted, p)
                assert not local_search._certified(planted, kept, dp, admissible)
                branch = self.assert_same_step(monkeypatch, planted, p)
                assert branch == ("accepted" if ulps > 0 else "no_gain")
            # far from a tie, the same rejection is settled
            planted = copy.deepcopy(sol)
            planted.total_cost = best * (1 - 1e-6)
            assert self.assert_same_step(monkeypatch, planted, p) == "certified"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_ties_take_the_full_pass(self, monkeypatch, d):
        # every point has an identical twin: swapping a center for its twin
        # leaves the center positions, so that swap costs total_cost up to
        # the rounding of the full pass's sums
        base = np.random.default_rng(d).normal(size=(150, d)) * 4
        ds, delta, k = with_exact_radii(np.repeat(base, 2, axis=0), 6)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=60, seed=3))
        assert (sol.boxed is not None) == (d <= 2)  # the box layout finds p's rows
        for c in sol.center_ids:
            twin = int(c ^ 1)
            if twin in sol.center_ids:
                continue
            new_costs, admissible = swap_costs(sol, twin)
            best = new_costs[admissible].min()
            kept, dp = local_search._near_row(sol, twin)
            if abs(best - sol.total_cost) <= 4 * np.spacing(sol.total_cost):
                assert not local_search._certified(sol, kept, dp, admissible)
            assert self.assert_same_step(monkeypatch, sol, twin) != "certified"

    def test_declines_silently_where_the_margin_overflows(self):
        # near the top of float64's range T + max L overflows: the
        # certificate declines without a warning of its own (the suite turns
        # warnings into errors)
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(size=(60, 3)), rng.normal(size=(60, 3)) + 10])
        ds = Dataset(X * 7e152)
        delta = compute_radii(ds, 4)
        sol = init_solution(ds, seed(ds, delta, 3.0), 4, 1)
        with np.errstate(over="ignore"):
            assert np.isfinite(sol.loss.max()) and not np.isfinite(sol.cum[-1] + sol.loss.max())
        admissible = np.ones(sol.k, dtype=bool)
        for p in range(0, ds.n, 7):
            assert not local_search._certified(sol, *local_search._near_row(sol, p), admissible)

    @pytest.mark.parametrize("d", [2, 8])
    def test_full_pass_only_where_unsettled(self, monkeypatch, d):
        verdicts, full_passes = [], []
        certified, swap_costs_ = local_search._certified, local_search._swap_costs

        def spy_certified(*args):
            verdicts.append(certified(*args))
            return verdicts[-1]

        def spy_swap_costs(*args):
            full_passes.append(len(verdicts))
            assert not verdicts[-1]
            return swap_costs_(*args)

        monkeypatch.setattr(local_search, "_certified", spy_certified)
        monkeypatch.setattr(local_search, "_swap_costs", spy_swap_costs)
        ds, delta, k = gaussian_instance(90 + d, n=2000, k=8, d=d)
        _, trace = run(ds, delta, LsConfig(k=k, iterations=150, seed=4))
        assert trace.certified == verdicts.count(True) > 0
        assert len(full_passes) == verdicts.count(False) == len(set(full_passes))
        assert len(full_passes) == trace.accepted_count + trace.rejected_no_gain - trace.certified

    def test_settles_most_rejections_on_blobs(self):
        # ten well separated 2-D blobs, as in the blobs-80k benchmark
        rng = np.random.default_rng(5)
        centers = rng.uniform(-20, 20, size=(10, 2))
        X = centers[rng.integers(0, 10, size=4000)] + rng.normal(size=(4000, 2))
        ds = Dataset(X)
        delta = compute_radii(ds, 10, mode="sampled", sample_size=500, seed=1)
        _, trace = run(ds, delta, LsConfig(k=10, iterations=300, seed=1))
        rejected = 300 - trace.accepted_count
        assert trace.certified >= 0.9 * rejected


class TestRejectionCounts:
    """``RunTrace`` counts why each rejected step was rejected."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_counts_add_up_and_repeat(self, d):
        ds, delta, k = gaussian_instance(110 + d, n=500, k=6, d=d)
        cfg = LsConfig(k=k, iterations=120, seed=5)
        first, again = run(ds, delta, cfg)[1], run(ds, delta, cfg)[1]
        rejected = (first.rejected_inadmissible, first.rejected_no_gain)
        assert sum(rejected) == 120 - first.accepted_count
        assert 0 < first.certified <= first.rejected_no_gain
        assert rejected + (first.certified,) == (
            again.rejected_inadmissible,
            again.rejected_no_gain,
            again.certified,
        )

    def test_inadmissible_counted(self, monkeypatch):
        # every draw is point 1, outside the only zone, whose sole coverer
        # is the only center
        ds = Dataset(np.array([[0.0], [4.0]]))
        aset = make_anchor_set(ds, [0], [3.0])
        monkeypatch.setattr(local_search, "seed", lambda ds, delta, gamma: aset)
        _, trace = run(ds, RadiusBounds(np.full(2, 10.0)), LsConfig(k=1, iterations=5))
        counts = (trace.rejected_inadmissible, trace.rejected_no_gain)
        assert counts == (5, 0) and trace.certified == 0

    def test_zero_cost_counted(self):
        # at k = n the cost is 0 and nothing is drawn, which counts as no
        # gain
        ds, delta, k = gaussian_instance(90, n=12, k=12)
        _, trace = run(ds, delta, LsConfig(k=k, iterations=4))
        assert (trace.rejected_no_gain, trace.certified) == (4, 0)

    @pytest.mark.parametrize("seed, ids", [(1, [2, 1]), (4242, [0, 2])])
    def test_subnormal_total_never_draws_a_center(self, monkeypatch, seed, ids):
        # the total cost 2**-1074 lets u·total round up to the total; the
        # draw still lands on the one point of positive weight, never on a
        # center, and the search ends on the same centers
        draws = record_draws(monkeypatch, local_search)
        ds = Dataset(np.array([[0.0], [2.0**-537], [1.0]]))
        delta = compute_radii(ds, 2)
        sol, trace = run(ds, delta, LsConfig(k=2, iterations=50, seed=seed))
        check_solution(sol, delta)
        assert sol.center_ids.tolist() == ids
        assert len(draws) == 50 and all(weight > 0 for _, weight, _ in draws)
        assert sum(total <= 2.0**-1022 for _, _, total in draws) >= 20
        assert trace.rejected_inadmissible + trace.rejected_no_gain == 50 - trace.accepted_count


class TestCheckGuarantee:
    """Each caller of ``check_guarantee`` raises when its solution breaks
    the promise.  The solver cannot produce such a solution, so the faults
    are planted: a zone that sits away from its anchor point, or no zones
    at all with radii the centers do not meet."""

    @staticmethod
    def line4():
        return Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))

    @staticmethod
    def zone_off_its_anchor():
        return AnchorSet(np.array([0]), np.array([[100.0]]), np.array([1.0]), 3.0)

    @staticmethod
    def no_zones():
        return AnchorSet(np.empty(0, dtype=np.int64), np.empty((0, 1)), np.empty(0), 3.0)

    def test_init_solution(self):
        with pytest.raises(AssertionError, match="anchor zone 0 .* holds no center"):
            init_solution(self.line4(), self.zone_off_its_anchor(), 2, 0)

    def test_run(self, monkeypatch):
        monkeypatch.setattr(local_search, "seed", lambda ds, delta, gamma: self.no_zones())
        with pytest.raises(AssertionError, match="served at"):
            run(self.line4(), RadiusBounds(np.full(4, 0.01)), LsConfig(k=1, iterations=5))

    def test_flloyd_run(self):
        ds = self.line4()
        sol = Solution(ds, self.zone_off_its_anchor(), center_ids=[0, 2])
        with pytest.raises(AssertionError, match="anchor zone 0 .* holds no center"):
            flloyd_run(ds, sol, cfg=FlConfig(iterations=2))

    def test_check_solution_zone(self):
        sol = Solution(self.line4(), self.zone_off_its_anchor(), center_ids=[0, 2])
        with pytest.raises(AssertionError, match="anchor zone 0 .* holds no center"):
            check_solution(sol)

    def test_check_solution_radii(self):
        ds = self.line4()
        sol = Solution(ds, self.no_zones(), center_ids=[0])
        check_solution(sol, RadiusBounds(np.full(4, 11 / 6)))
        with pytest.raises(AssertionError, match="point 3 served at 11.000x"):
            check_solution(sol, RadiusBounds(np.ones(4)))


class TestCheckSolution:
    """``check_solution`` catches every stale cache, one planted at a time,
    and lets a tie keep either slot."""

    @staticmethod
    def tie_line():
        # point 1 lies at squared distance 1 from both centers
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [5.0]]))
        return Solution(ds, TestCheckGuarantee.no_zones(), center_ids=[0, 2])

    @staticmethod
    def stepped():
        ds, delta, aset, sol = ls_fixture(63, n=200, k=4)
        rng = np.random.default_rng(1)
        for _ in range(40):
            ls_step(sol, aset, rng)
        check_solution(sol, delta)
        return sol

    def plant(self, sol, cache):
        """Make ``cache`` stale at a point whose two nearest distances
        differ from each other and from the other two centers'."""
        i = int(np.argmax(sol.d2sq - sol.d1sq))
        third = next(j for j in range(sol.k) if j not in (sol.assign[i], sol.assign2[i]))
        if cache == "d1sq":
            sol.d1sq[i] *= 2
        elif cache == "d2sq":
            sol.d2sq[i] *= 2
        elif cache == "assign":
            sol.assign[i] = third
        elif cache == "assign2":
            sol.assign2[i] = third
        elif cache == "assign2-negative":
            sol.assign2[i] = -1
        elif cache == "covers":
            sol.covers[:] = ~sol.covers
        elif cache == "total_cost":
            sol.total_cost *= 1 + 1e-6

    @pytest.mark.parametrize(
        "cache, message",
        [
            ("d1sq", "d1 cache out of sync"),
            ("d2sq", "d2 cache out of sync"),
            ("assign", "nearest-center slots out of sync"),
            ("assign2", "second-nearest slots out of sync"),
            ("assign2-negative", "second-nearest slots out of sync"),
            ("covers", "coverage table out of sync"),
            ("total_cost", "total cost drifted"),
        ],
    )
    def test_stale_cache_detected(self, cache, message):
        # the slots used to go unchecked, so a slot naming the wrong center
        # passed when the distance caches were right
        sol = self.stepped()
        self.plant(sol, cache)
        with pytest.raises(AssertionError, match=message):
            check_solution(sol)

    @pytest.mark.parametrize(
        "cache, message",
        [
            ("loss", "removal-cost cache out of sync"),
            ("boxed d1", "box-ordered cache out of sync"),
            ("boxed d2", "box-ordered cache out of sync"),
            ("boxed assign", "box-ordered cache out of sync"),
            ("reach", "box reach cache out of sync"),
        ],
    )
    def test_stale_search_sums_detected(self, cache, message):
        # the certificate's caches, on a stepped 2-D solution
        ds, delta, k = gaussian_instance(66, n=300, k=4, d=2)
        aset = seed(ds, delta, 3.0)
        sol = init_solution(ds, aset, k, 0)
        rng = np.random.default_rng(1)
        for _ in range(40):
            ls_step(sol, aset, rng)
        check_solution(sol, delta)
        i = int(np.argmax(sol.d2sq - sol.d1sq))
        if cache == "loss":
            sol.loss[sol.assign[i]] += 1.0
        elif cache == "reach":
            sol.reach[-1] += 1.0
        else:
            part = ("boxed d1", "boxed d2", "boxed assign").index(cache)
            sol.boxed[part][0, 0] += 1
        with pytest.raises(AssertionError, match=message):
            check_solution(sol)

    def test_tie_keeps_either_slot(self):
        sol = self.tie_line()
        assert (sol.assign[1], sol.assign2[1]) == (0, 1)
        sol.assign[1], sol.assign2[1] = 1, 0
        sol._refresh_sums()  # the box-ordered copy of the slots follows them
        check_solution(sol)

    def test_tied_slots_must_differ(self):
        # both slots at the tied distance, but the same center twice
        sol = self.tie_line()
        sol.assign2[1] = sol.assign[1]
        with pytest.raises(AssertionError, match="second-nearest slots out of sync"):
            check_solution(sol)

    def test_one_center_has_no_second_slot(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0]]))
        sol = Solution(ds, TestCheckGuarantee.no_zones(), center_ids=[1])
        check_solution(sol)
        sol.assign2[0] = 0
        with pytest.raises(AssertionError, match="second-nearest slots out of sync"):
            check_solution(sol)

    def test_ids_off_their_positions_detected(self):
        # a solution whose ids were changed to name other points than its
        # positions hold; its distance caches match the positions
        ds = TestCheckGuarantee.line4()
        sol = Solution(ds, TestCheckGuarantee.no_zones(), center_ids=[0, 2])
        sol.center_ids = np.array([0, 3])
        with pytest.raises(AssertionError, match="center ids out of sync with the center positions"):
            check_solution(sol)
        sol.center_ids = np.array([0, 2])
        check_solution(sol)

    def test_constructor_builds_cumsum_and_coverage(self):
        # the constructor derives every cache from the centers: a hand-built
        # solution used to take both tables, and one whose coverage table
        # marked every zone covered passed check_guarantee with no center in
        # zone 0
        ds = TestCheckGuarantee.line4()
        aset = TestCheckGuarantee.zone_off_its_anchor()
        pos = ds.points[[0, 2]]
        nearest = _dist.two_nearest(ds.points, pos)
        sol = Solution(ds, aset, center_pos=pos)
        assert np.array_equal(sol.cum, np.cumsum(nearest[2]))
        assert not sol.covers.any()
        with pytest.raises(AssertionError, match="anchor zone 0 .* holds no center"):
            check_guarantee(sol)
        derived = ["assign", "assign2", "d1sq", "d2sq", "total_cost"]
        for name in derived + ["cum", "covers", "loss", "boxed", "reach"]:
            with pytest.raises(TypeError, match=name):
                Solution(ds, aset, center_pos=pos, **{name: np.ones((2, 1), bool)})


class TestRun:
    def test_steps_check_no_positions(self, monkeypatch):
        # the candidate is a row of the dataset's own points, so its zone
        # row skips the positions check: it ran once per step
        calls = []
        real = dataset.check_positions

        def counted(*args):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("fairkmeans") and hasattr(module, "check_positions"):
                monkeypatch.setattr(module, "check_positions", counted)
        ds, delta, k = gaussian_instance(23, n=200, k=4)
        counts = []
        for iterations in (0, 60):
            calls.clear()
            _, trace = run(ds, delta, LsConfig(k=k, iterations=iterations, seed=2))
            counts.append(len(calls))
        assert trace.accepted_count > 0
        assert counts[0] == counts[1]

    def test_zero_iterations_returns_init(self):
        ds, delta, k = gaussian_instance(17, n=50, k=3)
        cfg = LsConfig(k=k, iterations=0, seed=9)
        sol, trace = run(ds, delta, cfg)
        aset = seed(ds, delta, gamma=3.0)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        expected = init_solution(ds, aset, k, rng)
        assert np.array_equal(sol.center_ids, expected.center_ids)
        assert trace.costs.size == 0 and trace.accepted_count == 0

    def test_radius_postcondition(self):
        from fairkmeans import bound_ratio

        for s in range(5):
            ds, delta, k = gaussian_instance(700 + s, n=300)
            sol, _ = run(ds, delta, LsConfig(k=k, iterations=60, seed=s))
            ratio, _ = bound_ratio(ds, delta, sol.center_pos)
            assert ratio <= 6.0

    def test_finds_line_optimum(self, line4):
        ds, delta = line4
        for s in range(10):
            sol, trace = run(ds, delta, LsConfig(k=2, iterations=50, seed=s))
            assert sol.total_cost == 2.0
            full = np.concatenate([[trace.initial_cost], trace.costs])
            assert np.all(np.diff(full) <= 0)

    def test_deterministic(self):
        ds, delta, k = gaussian_instance(55, n=200, k=6)
        cfg = LsConfig(k=k, iterations=80, seed=13)
        a, ta = run(ds, delta, cfg)
        b, tb = run(ds, delta, cfg)
        assert np.array_equal(a.center_ids, b.center_ids)
        assert np.array_equal(ta.costs, tb.costs)

    def test_infeasible_instance_reported(self):
        ds = Dataset(np.array([[0.0], [100.0], [200.0]]))
        delta = RadiusBounds(np.ones(3))
        with pytest.raises(InfeasibleInstanceError) as err:
            run(ds, delta, LsConfig(k=2, iterations=10, seed=0))
        assert err.value.anchors_needed == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gaussian_instance(88, n=80, k=3),
            # 6 distinct points, 15 copies each
            lambda: with_exact_radii(
                np.repeat(np.random.default_rng(3).normal(size=(6, 2)), 15, axis=0), 4
            ),
            lambda: gaussian_instance(89, n=60, k=1),
            lambda: gaussian_instance(90, n=12, k=12),
            lambda: gaussian_instance(91, n=80, k=4, d=1),
        ],
        ids=["mixture", "duplicates", "k=1", "k=n", "d=1"],
    )
    def test_debug_checks_run_clean(self, make):
        # the oracle after each accepted step of a seeded search; at k = n
        # the cost is 0 and no step can be accepted
        ds, delta, k = make()
        anchor_set = seed(ds, delta, gamma=3.0)
        rng = np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0])
        sol = init_solution(ds, anchor_set, k, rng)
        accepted = 0
        for _ in range(40):
            _, took = ls_step(sol, anchor_set, rng)
            if took:
                check_solution(sol, delta)
                accepted += 1
        assert accepted or k == ds.n

    def test_equals_manual_loop(self):
        # run is one pass: init plus ls_step on one generator from the seed
        for s in range(4):
            ds, delta, k = gaussian_instance(21 + s, n=150, k=4)
            sol, trace = run(ds, delta, LsConfig(k=k, iterations=60, seed=s))
            aset = seed(ds, delta, gamma=3.0)
            rng = np.random.default_rng(np.random.SeedSequence(s).spawn(1)[0])
            manual = init_solution(ds, aset, k, rng)
            initial = manual.total_cost
            costs, accepted = [], []
            for _ in range(60):
                _, took = ls_step(manual, aset, rng)
                costs.append(manual.total_cost)
                accepted.append(took)
            assert np.array_equal(sol.center_ids, manual.center_ids)
            assert trace.initial_cost == initial
            assert np.array_equal(trace.costs, costs)
            assert np.array_equal(trace.accepted, accepted)

    def test_oracle_gap_on_small_instances(self):
        # median over seeds lands within 3x of the exhaustive optimum
        from conftest import tiny_instance

        checked = 0
        s = 0
        while checked < 8:
            ds, delta, k = tiny_instance(9000 + s)
            s += 1
            opt = brute_force_opt(ds, delta, beta=1.0, k=k)
            if opt is None:
                continue
            checked += 1
            finals = [
                run(ds, delta, LsConfig(k=k, iterations=60, seed=r))[0].total_cost
                for r in range(10)
            ]
            assert np.median(finals) <= 3.0 * opt[0] + 1e-12


class TestNearestTwo:
    """``_dist._nearest_two``, the read-off behind the nearest-two pass and
    ``_nth_smallest`` at rank 2."""

    @staticmethod
    def matrices(k):
        rng = np.random.default_rng(k)
        ties = rng.integers(0, 3, size=(300, k)).astype(np.float64)
        lone = np.full((3 * k, k), np.inf)
        lone[np.arange(3 * k), np.arange(3 * k) % k] = rng.integers(0, 2, size=3 * k)
        mixed = ties.copy()
        mixed[rng.random(mixed.shape) < 0.4] = np.inf
        yield "integer ties", ties
        yield "one finite entry per row", lone
        yield "all-inf rows", np.full((5, k), np.inf)
        yield "ties and inf", np.vstack([mixed, lone, np.full((2, k), np.inf)])
        yield "continuous", rng.random((200, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_matches_stable_sort(self, k):
        for name, M in self.matrices(k):
            got, want = _nearest_two(M), reference_nearest_two(M)
            for field, a, b in zip(("assign", "assign2", "d1sq", "d2sq"), got, want):
                assert a.dtype == b.dtype, (name, field)
                assert np.array_equal(a, b), (name, field)
            if k > 1:
                assert np.all(got[0] != got[1]), name
            assert np.array_equal(_nth_smallest(M, 2), got[3]), name

    def test_input_untouched(self):
        M = np.random.default_rng(0).integers(0, 3, size=(50, 4)).astype(np.float64)
        before = M.copy()
        _nearest_two(M)
        assert np.array_equal(M, before)
        _nth_smallest(M, 2)
        assert np.array_equal(M, before)
