import itertools
import math

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
from fairkmeans._dist import FarBound, sq_dist_matrix, sq_dists, two_nearest
from fairkmeans.anchors import AnchorSet, _move, clamped_moves
from fairkmeans import refine, solution
from fairkmeans.baselines import kmeanspp_init
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


def spy_passes(monkeypatch):
    """Record refinement's kernel passes, each as its name and a copy of its
    arguments (the loop updates its labels and positions in place)."""
    calls = []

    def spy(module, name):
        def recording(*args, original=getattr(module, name)):
            calls.append((name, *map(np.copy, args)))
            return original(*args)

        monkeypatch.setattr(module, name, recording)

    for name in ("nearest", "two_nearest", "_pair_sq_dists"):
        spy(refine, name)
    spy(solution, "two_nearest")  # the refined solution's constructor
    return calls


def assert_calls(calls, expected):
    assert [c[0] for c in calls] == [e[0] for e in expected]
    for got, wanted in zip(calls, expected):
        assert len(got) == len(wanted)
        for a, b in zip(got[1:], wanted[1:]):
            assert np.array_equal(a, b), got[0]


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
        plain = sol.center_pos.copy()
        lloyd_rounds(ds.points, plain, None, 60, 0.0)
        assert np.array_equal(refined.center_pos, plain)

    def test_empty_cluster_center_stays(self):
        # second center is far from all points and keeps its position
        ds = Dataset(np.array([[0.0], [1.0], [2.0]]))
        delta = RadiusBounds(np.full(3, 1e9))
        aset = seed(ds, delta, gamma=3.0)
        from fairkmeans.local_search import Solution

        sol = Solution(ds, aset, center_pos=np.array([[1.0], [50.0]]))
        refined, _ = flloyd_run(ds, sol, cfg=FlConfig(iterations=3))
        assert refined.center_pos[1, 0] == 50.0

    @pytest.mark.parametrize("k", [1, 5])
    def test_caches_match_fresh_build(self, k):
        ds, delta, _ = gaussian_instance(60 + k, n=200, k=k)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=40, seed=k))
        refined, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=6))
        fresh = Solution(ds, sol.anchor_set, center_pos=refined.center_pos)
        for name in ("assign", "assign2", "d1sq", "d2sq"):
            assert np.array_equal(getattr(refined, name), getattr(fresh, name)), name
        assert np.array_equal(refined.covers, fresh.covers)
        assert refined.center_ids is None
        assert refined.total_cost == trace[-1]

    def test_one_kernel_pass_per_round(self, monkeypatch):
        # the searched solution's caches are the entry state, so a solution
        # without ties gets no entry pass; a round takes one pair pass, each
        # row against its own cluster's candidate, and one nearest-two pass
        # over exactly the rows whose bound cannot keep their nearest
        # center; after the fixed point the kernel is not called again, and
        # one nearest-two pass at the final positions gives the caches
        ds, delta, k = gaussian_instance(31, n=200)
        sol, _ = run(ds, delta, LsConfig(k=k, iterations=20, seed=1))
        assert np.all(sol.d1sq < sol.d2sq)
        calls = spy_passes(monkeypatch)
        _, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=5))
        X, rows = ds.points, np.arange(ds.n)
        _, want, _, moved = reference_lloyd_rounds(X, sol.center_pos, sol.anchor_set, 5, 0.0)
        assert 0 in moved and moved[0] > 0
        bound = FarBound(sol.d2sq, ds.d)
        expected, kept = [], []
        for r in range(moved.index(0) + 1):
            before = reference_lloyd_rounds(X, sol.center_pos, sol.anchor_set, r, 0.0)
            after = reference_lloyd_rounds(X, sol.center_pos, sol.anchor_set, r + 1, 0.0)
            labels = np.argmin(before[2], axis=1)
            means, sizes = cluster_means(X, labels, k)
            means[sizes == 0] = before[0][sizes == 0]
            candidates = clamped_moves(sol.anchor_set, before[0], means)
            if (candidates != before[0]).any():
                expected.append(("_pair_sq_dists", X, candidates, rows, labels))
            slots = np.flatnonzero((after[0] != before[0]).any(axis=1))
            if not slots.size:
                break
            bound.move(before[0], after[0], slots, labels)
            redo = np.flatnonzero(~bound.keeps(after[2][rows, labels]))
            # the bound never keeps a row whose nearest center changed
            assert np.isin(np.flatnonzero(np.argmin(after[2], axis=1) != labels), redo).all()
            if redo.size:
                expected.append(("two_nearest", X[redo], after[0]))
                bound.reset(redo, reference_nearest_two(after[2][redo])[3])
            keep = ~np.isin(rows, redo)
            kept.append((keep.sum(), (keep & np.isin(labels, slots)).sum()))
        expected.append(("two_nearest", X, after[0]))
        # some round keeps most rows, and rows of moved centers are kept
        assert max(all_kept for all_kept, _ in kept) > ds.n // 2
        assert sum(moved_kept for _, moved_kept in kept) > 0
        assert_calls(calls, expected)
        assert hexes(trace) == hexes(want)

    def test_entry_pass_only_for_tied_rows(self, monkeypatch):
        # the point at 1 is as far from both centers; the search may hold
        # either slot for it, so it alone gets a nearest pass on entry
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0], [6.0]]))
        delta = RadiusBounds(np.full(5, 1e9))
        sol = Solution(ds, seed(ds, delta, gamma=3.0), center_ids=np.array([0, 2]))
        sol.assign[1] = 1
        calls = spy_passes(monkeypatch)
        refined, trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=3))
        assert calls[0][0] == "nearest" and np.array_equal(calls[0][1], ds.points[[1]])
        assert sum(call[0] == "nearest" for call in calls) == 1
        want = reference_lloyd_rounds(ds.points, sol.center_pos, sol.anchor_set, 3, 0.0)
        assert np.array_equal(refined.center_pos, want[0])
        assert hexes(trace) == hexes(want[1])

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


def blob_points(rng, n=150, d=2, blobs=5):
    return rng.uniform(-8, 8, (blobs, d))[rng.integers(0, blobs, n)] + rng.standard_normal((n, d))


def with_ids(X, k, rng, scale=1.0):
    return X, rng.choice(X.shape[0], size=k, replace=False), scale


def equidistant(rng):
    # a 9 x 9 integer lattice, each row twice, with centers on lattice
    # points: whole lines of rows are as far from two centers
    grid = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij"), -1).reshape(-1, 2)
    X = np.concatenate([grid, grid])
    return X, np.array([0, 8, 72, 80, 40, 4]), 1.0


# Instances beyond the Gaussian seeds: (points, center ids, zone scale).
CORPUS = {
    "duplicates": lambda rng: with_ids(np.repeat(blob_points(rng, 30, 3), 6, axis=0), 6, rng),
    "equidistant": equidistant,
    "offset 1e15": lambda rng: with_ids(1e15 + blob_points(rng), 5, rng),
    "scale 2**500": lambda rng: with_ids(2.0**500 * blob_points(rng, d=3), 5, rng, 2.0**500),
    "scale 2**-500": lambda rng: with_ids(2.0**-500 * blob_points(rng), 5, rng, 2.0**-500),
    "k=1": lambda rng: with_ids(blob_points(rng), 1, rng),
    "k=n": lambda rng: with_ids(np.repeat(blob_points(rng, 20), 2, axis=0), 40, rng),
    **{
        f"vanilla {s}": lambda rng, s=s: (
            (X := blob_points(rng, 300, 1 + s, 8)), kmeanspp_init(Dataset(X), 6, s), 1.0
        )
        for s in range(3)
    },
}


def lloyd_instance(s):
    """Points, start centers at data points, and zones around half of them
    small enough that clamped moves occur: a Gaussian instance for an
    integer ``s``, else ``CORPUS[s]``."""
    rng = np.random.default_rng(s if isinstance(s, int) else sorted(CORPUS).index(s))
    if isinstance(s, int):
        ds, _, k = gaussian_instance(200 + s, n=60 + 17 * s, d=1 + s % 4)
        X, ids, scale = with_ids(ds.points, k, rng)
    else:
        X, ids, scale = CORPUS[s](rng)
    zones = ids[: (ids.size + 1) // 2]
    anchor_set = AnchorSet(
        anchors=zones,
        positions=X[zones].copy(),
        zone_radius=scale * rng.uniform(0.2, 2.0, zones.size),
        gamma=3.0,
    )
    return X, X[ids], anchor_set


def cached_start(X, centers):
    """A solution's caches at ``centers`` as the search may hold them: each
    tied row in the higher slot of its tie."""
    assign, assign2, d1sq, d2sq = two_nearest(X, centers)
    tied = d1sq == d2sq
    assign[tied] = assign2[tied]
    return assign, d1sq, d2sq


class TestLloydRounds:
    """``lloyd_rounds`` against the full-recompute loop it replaced."""

    @pytest.mark.parametrize("s", [*range(20), *CORPUS])
    @pytest.mark.parametrize("zoned", [True, False])
    def test_matches_full_recompute(self, s, zoned):
        X, centers, anchor_set = lloyd_instance(s)
        anchor_set = anchor_set if zoned else None
        for iterations, rel_tol, start in itertools.product(
            (0, 1, 60), (0.0, 1e-6), (None, cached_start(X, centers))
        ):
            positions = centers.copy()
            trace = lloyd_rounds(X, positions, anchor_set, iterations, rel_tol, start)
            want = reference_lloyd_rounds(X, centers, anchor_set, iterations, rel_tol)
            case = (iterations, rel_tol, start is None)
            assert np.array_equal(positions, want[0]), case
            assert hexes(trace) == hexes(want[1]), case
            # the nearest-two pass at the final positions, which the refined
            # solution's constructor makes, is the read-off of the last
            # matrix, as the full kernel gives it
            expected = reference_nearest_two(sq_dist_matrix(X, positions))
            for field, a, b in zip(NEAREST_TWO, two_nearest(X, positions), expected):
                assert a.dtype == b.dtype and np.array_equal(a, b), (case, field)
            if rel_tol == 0:
                assert len(trace) == iterations + 1, case

    @pytest.mark.parametrize("start", [[[0.0], [5.0]], [[5.0], [0.0]]])
    def test_ties_with_moved_centers_go_to_the_lower_slot(self, start):
        # the center at 5 moves to 4, the mean of 3 and 5, and the one at 0
        # stays; the point at 2, whose nearest center stayed, is then as far
        # from both: it keeps slot 0, or switches to the moved slot 0, and
        # the next round's means depend on which
        X = np.array([[-2.0], [0.0], [2.0], [3.0], [5.0]])
        centers = np.array(start)
        first = reference_lloyd_rounds(X, centers, None, 1, 0.0)
        tie = reference_nearest_two(first[2])
        assert first[3] == [1] and tie[0][2] == 0 and tie[2][2] == tie[3][2] == 4.0
        positions = centers.copy()
        trace = lloyd_rounds(X, positions, None, 3, 0.0)
        want = reference_lloyd_rounds(X, centers, None, 3, 0.0)
        assert np.array_equal(positions, want[0])
        assert hexes(trace) == hexes(want[1])

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
        # accepted moves are written in place, into flloyd_run's own copy of
        # the solution's centers
        X, centers, anchor_set = lloyd_instance(5)
        sol = Solution(Dataset(X), anchor_set, center_pos=centers)
        before = sol.center_pos.copy()
        refined, _ = flloyd_run(sol.ds, sol, cfg=FlConfig(iterations=5))
        assert np.array_equal(sol.center_pos, before)
        assert not np.array_equal(refined.center_pos, before)


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
