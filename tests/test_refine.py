import math
import sys

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
    assign,
    bound_ratio,
    compute_radii,
    flloyd_run,
    run,
    seed,
)
from fairkmeans._dist import sq_dist_matrix, sq_dists
from fairkmeans.anchors import AnchorSet, _move, clamped_moves
from fairkmeans.refine import cluster_means, lloyd_rounds
from fairkmeans.solution import RADIUS_SLACK
from conftest import gaussian_instance
from test_dist import NEAREST_TWO, reference_nearest_two


def reference_lloyd_rounds(X, centers, anchor_set, iterations, rel_tol):
    """The Lloyd loop without the fixed-point stop: a full kernel pass and
    a fresh position array every round.  Also returns how many centers
    moved in each round it ran."""
    positions = np.array(centers, dtype=np.float64)
    k = positions.shape[0]
    rows = np.arange(X.shape[0])
    M = sq_dist_matrix(X, positions)
    labels = np.argmin(M, axis=1)
    d1sq = M[rows, labels]
    total = math.fsum(d1sq)
    trace = [total]
    moved = []
    for _ in range(iterations):
        means, sizes = cluster_means(X, labels, k)
        candidates = means if anchor_set is None else clamped_moves(anchor_set, positions, means)
        new_positions = positions.copy()
        for j in range(k):
            if sizes[j] == 0:
                continue
            candidate = candidates[j]
            if np.array_equal(candidate, positions[j]):
                continue
            members = labels == j
            if math.fsum(sq_dists(X[members], candidate)) < math.fsum(d1sq[members]):
                new_positions[j] = candidate
        moved.append(int((new_positions != positions).any(axis=1).sum()))
        positions = new_positions
        M = sq_dist_matrix(X, positions)
        labels = np.argmin(M, axis=1)
        d1sq = M[rows, labels]
        new_total = math.fsum(d1sq)
        trace.append(new_total)
        improvement = total - new_total
        total = new_total
        if rel_tol > 0 and improvement <= rel_tol * max(total, 1e-300):
            break
    return positions, np.asarray(trace), M, moved


def hexes(values):
    return [float(v).hex() for v in values]


class TestAssign:
    def test_nearest(self):
        ds = Dataset(np.array([[4.0]]))
        labels = assign(ds, np.array([[0.0], [10.0]]))
        assert labels.tolist() == [0]

    def test_tie_goes_low(self):
        ds = Dataset(np.array([[5.0]]))
        labels = assign(ds, np.array([[0.0], [10.0]]))
        assert labels.tolist() == [0]

    def test_single_center(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(7, 2)))
        assert np.all(assign(ds, np.zeros((1, 2))) == 0)

    @pytest.mark.parametrize("cols", [1, 3])
    def test_center_columns_mismatch(self, cols):
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        with pytest.raises(ValueError, match=f"centers have {cols} columns but the points have 2"):
            assign(ds, np.arange(1.0, cols + 1)[None])


class TestFairMoveCenter:
    """Refinement's one clamped move (``anchors._move``)."""

    def test_no_constraints_returns_mean(self):
        out = _move(
            np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.empty((0, 2)), np.empty(0)
        )
        assert np.array_equal(out, [3.0, 4.0])

    def test_segment_ball_intersection(self):
        out = _move(
            np.array([0.0]), np.array([10.0]), np.array([[0.0]]), np.array([3.0])
        )
        assert abs(out[0] - 3.0) <= 10.0 * 2**-40

    def test_feasible_mean_exact(self):
        center = np.array([1.0, 1.0])
        mean = np.array([1.5, 0.5])
        out = _move(center, mean, np.array([[0.0, 0.0]]), np.array([10.0]))
        assert np.array_equal(out, mean)

    def test_result_always_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            center = rng.normal(size=2)
            anchors = center + rng.normal(0, 0.3, size=(3, 2))
            radii = np.sqrt(((anchors - center) ** 2).sum(1)) + rng.uniform(0.1, 1, 3)
            mean = rng.normal(0, 5, size=2)
            out = _move(center, mean, anchors, radii)
            d = np.sqrt(((anchors - out) ** 2).sum(1))
            assert np.all(d <= radii)


    @pytest.mark.parametrize(
        "center, mean, anchors, radii, message",
        [
            ([5.0, 0.0], [0.0, 0.0], [[0.0, 0.0], [5.0, 0.0]], [1.0, 10.0], "outside .* ball 0"),
            ([0.0, 0.0], [1.0, 1.0], [[0.0, 0.0], [5.0, 0.0]], [1.0, 1.0], "outside .* ball 1"),
        ],
        ids=["center-outside-first", "center-outside-second"],
    )
    def test_bad_inputs_named(self, center, mean, anchors, radii, message):
        # a center outside a ball used to stay put
        args = [np.array(a, dtype=float) for a in (center, mean, anchors, radii)]
        with pytest.raises(ValueError, match=message):
            _move(*args)


def refined_fixture(s, iters=20):
    ds, delta, k = gaussian_instance(s, n=250)
    sol, _ = run(ds, delta, LsConfig(k=k, iterations=80, seed=s))
    refined, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=iters))
    return ds, delta, sol, refined, trace


class TestFlloydRun:
    def test_zero_iterations_unchanged(self):
        ds, delta, k = gaussian_instance(5, n=80)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=20, seed=0))
        out, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=0))
        assert out is sol
        assert trace.size == 1

    def test_cost_monotone_and_covered(self):
        for s in (1, 2, 3):
            ds, delta, sol, refined, trace = refined_fixture(10 * s)
            assert np.all(np.diff(trace) <= 0)
            assert refined.covers.any(axis=0).all()
            ratio, _ = bound_ratio(ds, delta, refined.center_pos)
            assert ratio <= 6.0

    def test_cost_not_worse_than_input(self):
        ds, delta, sol, refined, trace = refined_fixture(77)
        assert refined.total_cost <= trace[0]

    def test_matches_plain_lloyd_when_unconstrained(self):
        # huge radii: one anchor zone covering everything, never binding
        rng = np.random.default_rng(4)
        pts = np.vstack(
            [rng.normal((-4, 0), 0.5, (25, 2)), rng.normal((4, 0), 0.5, (25, 2))]
        )
        ds = Dataset(pts)
        delta = RadiusBounds(np.full(50, 1e9))
        sol, _ = run(ds, delta, LsConfig(k=2, iterations=30, seed=2))
        refined, _ = flloyd_run(ds, sol, cfg=FlConfig(iterations=60))
        plain, _, _ = lloyd_rounds(ds.points, sol.center_pos, None, 60, 0.0)
        assert np.array_equal(refined.center_pos, plain)

    def test_empty_cluster_center_stays(self):
        # second center is far from all points and keeps its position
        ds = Dataset(np.array([[0.0], [1.0], [2.0]]))
        delta = RadiusBounds(np.full(3, 1e9))
        aset = seed(ds, delta, gamma=3.0)
        from fairkmeans.local_search import Solution

        sol = Solution.build(ds, aset, center_pos=np.array([[1.0], [50.0]]))
        refined, _ = flloyd_run(ds, sol, cfg=FlConfig(iterations=3))
        assert refined.center_pos[1, 0] == 50.0

    @pytest.mark.parametrize("k", [1, 5])
    def test_caches_match_fresh_build(self, k):
        ds, delta, _ = gaussian_instance(60 + k, n=200, k=k)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=40, seed=k))
        refined, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=6))
        fresh = Solution.build(ds, sol.anchor_set, center_pos=refined.center_pos)
        for name in ("assign", "assign2", "d1sq", "d2sq"):
            assert np.array_equal(getattr(refined, name), getattr(fresh, name)), name
        assert np.array_equal(refined.covers, fresh.covers)
        assert refined.center_ids is None
        assert refined.total_cost == trace[-1]

    def test_one_kernel_pass_per_round(self, monkeypatch):
        # the entry pass measures all k centers; each later round measures
        # only the centers that moved, and the first round where none moved
        # is the fixed point, after which the kernel is not called again:
        # the refined solution's caches are read off the loop's last matrix
        ds, delta, k = gaussian_instance(31, n=200)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=20, seed=1))
        passes = []
        for name, module in list(sys.modules.items()):
            for kernel in ("sq_dist_matrix", "sq_dist_blocks"):
                if name.startswith("fairkmeans") and hasattr(module, kernel):

                    def counting(points, centers, original=getattr(module, kernel)):
                        if points is ds.points:
                            passes.append(centers.shape[0])
                        return original(points, centers)

                    monkeypatch.setattr(module, kernel, counting)
        _, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=5))
        _, want, _, moved = reference_lloyd_rounds(
            ds.points, sol.center_pos, sol.anchor_set, 5, 0.0
        )
        assert 0 in moved and moved[0] > 0
        assert passes == [k] + moved[: moved.index(0)]
        assert hexes(trace) == hexes(want)

    def test_foreign_dataset_rejected(self):
        ds, delta, k = gaussian_instance(9, n=120)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=20, seed=1))
        with pytest.raises(ValueError, match="sol.ds"):
            flloyd_run(Dataset(ds.points.copy()), sol, cfg=FlConfig(iterations=2))

    def test_deterministic(self):
        ds, delta, sol, refined_a, trace_a = refined_fixture(123)
        _, _, _, refined_b, trace_b = refined_fixture(123)
        assert np.array_equal(refined_a.center_pos, refined_b.center_pos)
        assert np.array_equal(trace_a, trace_b)


def lloyd_instance(s):
    """Points, start centers at data points, and zones around half of them
    small enough that clamped moves occur."""
    ds, _, k = gaussian_instance(200 + s, n=60 + 17 * s, d=1 + s % 4)
    rng = np.random.default_rng(s)
    ids = rng.choice(ds.n, size=k, replace=False)
    zones = ids[: (k + 1) // 2]
    anchor_set = AnchorSet(
        anchors=zones,
        positions=ds.points[zones].copy(),
        zone_radius=rng.uniform(0.2, 2.0, zones.size),
        gamma=3.0,
    )
    return ds.points, ds.points[ids], anchor_set


class TestLloydRounds:
    """``lloyd_rounds`` against the full-recompute loop it replaced."""

    @pytest.mark.parametrize("s", range(20))
    @pytest.mark.parametrize("zoned", [True, False])
    def test_matches_full_recompute(self, s, zoned):
        X, centers, anchor_set = lloyd_instance(s)
        anchor_set = anchor_set if zoned else None
        for iterations in (0, 1, 60):
            for rel_tol in (0.0, 1e-6):
                positions, trace, nearest = lloyd_rounds(
                    X, centers, anchor_set, iterations, rel_tol
                )
                want = reference_lloyd_rounds(X, centers, anchor_set, iterations, rel_tol)
                case = (iterations, rel_tol)
                assert np.array_equal(positions, want[0]), case
                assert hexes(trace) == hexes(want[1]), case
                # the read-off of the last matrix, as the full kernel gives it
                expected = reference_nearest_two(sq_dist_matrix(X, positions))
                for field, a, b in zip(NEAREST_TWO, nearest, expected):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (case, field)
                if rel_tol == 0:
                    assert len(trace) == iterations + 1, case

    def test_corpus_takes_every_path(self):
        # the corpus above has clamped moves, rounds that move only some
        # centers, and fixed points well before the last round
        clamped = partial = fixed = 0
        for s in range(20):
            X, centers, anchor_set = lloyd_instance(s)
            zoned, *_, moved = reference_lloyd_rounds(X, centers, anchor_set, 60, 0.0)
            free = reference_lloyd_rounds(X, centers, None, 60, 0.0)[0]
            clamped += not np.array_equal(zoned, free)
            partial += any(0 < m < centers.shape[0] for m in moved)
            fixed += 0 in moved[:-1]
        assert clamped >= 10 and partial >= 10 and fixed >= 10

    def test_input_centers_untouched(self):
        # accepted moves are written in place, into the loop's own copy
        X, centers, anchor_set = lloyd_instance(5)
        before = centers.copy()
        positions, _, _ = lloyd_rounds(X, centers, anchor_set, 5, 0.0)
        assert np.array_equal(centers, before)
        assert not np.array_equal(positions, before)


def scaled_pipeline(points, k, mode, seed):
    """Radii, search and refinement of one instance; None when seeding
    needs more than k anchors."""
    ds = Dataset(points)
    delta = compute_radii(ds, k, mode=mode, sample_size=25, seed=seed)
    try:
        sol, trace = run(ds, delta, LsConfig(k=k, iterations=40, seed=seed))
    except InfeasibleInstanceError:
        return None
    refined, fl = flloyd_run(ds, sol, cfg=FlConfig(iterations=5))
    traces = np.concatenate([[trace.initial_cost], trace.costs, fl])
    return delta.delta, sol.center_ids, trace.accepted, refined.center_pos, traces


@given(
    seed=st.integers(0, 2**16),
    e=st.integers(-30, 40),
    d=st.sampled_from([1, 2, 3, 6]),
    k=st.integers(1, 7),
    mode=st.sampled_from(["exact", "sampled"]),
)
@settings(max_examples=30, deadline=None)
def test_power_of_two_scaling_is_exact(seed, e, d, k, mode):
    # scaling by 2**e is exact in float64 away from overflow and underflow,
    # and every decision compares quantities that scale alike, so the
    # solution scales bit for bit: ids and flags equal, lengths times 2**e,
    # costs times 4**e
    rng = np.random.default_rng(seed)
    comps = rng.uniform(-8, 8, size=(k, d))
    points = comps[rng.integers(0, k, size=60)] + rng.normal(size=(60, d))
    base = scaled_pipeline(points, k, mode, seed)
    scaled = scaled_pipeline(points * 2.0**e, k, mode, seed)
    if base is None:
        assert scaled is None
        return
    delta, ids, accepted, centers, traces = base
    delta_s, ids_s, accepted_s, centers_s, traces_s = scaled
    assert np.array_equal(ids_s, ids)
    assert np.array_equal(accepted_s, accepted)
    assert np.array_equal(delta_s, delta * 2.0**e)
    assert np.array_equal(centers_s, centers * 2.0**e)
    assert np.array_equal(traces_s, traces * 4.0**e)


@given(
    seed=st.integers(0, 2**16),
    d=st.sampled_from([1, 2, 3, 6]),
    k=st.integers(1, 7),
    shift=st.floats(-1e4, 1e4),
)
@settings(max_examples=25, deadline=None)
def test_bound_holds_under_translation_and_permutation(seed, d, k, shift):
    # the 6x promise against exact radii, on the points as drawn and on a
    # shuffled, shifted copy; the two solutions may differ
    rng = np.random.default_rng(seed)
    comps = rng.uniform(-8, 8, size=(k, d))
    points = comps[rng.integers(0, k, size=60)] + rng.normal(size=(60, d))
    moved = points[rng.permutation(60)] + shift * rng.uniform(0.5, 1.0, size=d)
    limit = 2 * 3.0 * RADIUS_SLACK
    for X in (points, moved):
        ds = Dataset(X)
        delta = compute_radii(ds, k)
        sol, _ = run(ds, delta, LsConfig(k=k, gamma=3.0, iterations=40, seed=seed))
        assert bound_ratio(ds, delta, sol.center_pos)[0] <= limit
        refined, _ = flloyd_run(ds, sol, cfg=FlConfig(iterations=5))
        assert bound_ratio(ds, delta, refined.center_pos)[0] <= limit
