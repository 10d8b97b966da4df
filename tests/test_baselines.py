import numpy as np
import pytest

from fairkmeans import (
    Dataset,
    InfeasibleInstanceError,
    LsConfig,
    RadiusBounds,
    bound_ratio,
    brute_force_opt,
    greedy_baseline,
    init_solution,
    kmeanspp_init,
    run,
    seed,
    vanilla_kmeans,
)
from fairkmeans.metrics import fairness_ratios
from fairkmeans.refine import lloyd_rounds
from conftest import gaussian_instance


class TestGreedyBaseline:
    def test_equals_init_solution(self):
        ds, delta, k = gaussian_instance(2, n=120)
        aset = seed(ds, delta, gamma=3.0)
        a = greedy_baseline(ds, delta, 3.0, k, seed=7)
        b = init_solution(ds, aset, k, 7)
        assert np.array_equal(a.center_ids, b.center_ids)

    def test_radius_bound(self):
        for s in range(5):
            ds, delta, k = gaussian_instance(300 + s, n=200)
            sol = greedy_baseline(ds, delta, 3.0, k, seed=s)
            ratio, _ = bound_ratio(ds, delta, sol.center_pos)
            assert ratio <= 6.0

    def test_infeasible(self):
        ds = Dataset(np.array([[0.0], [100.0], [200.0]]))
        with pytest.raises(InfeasibleInstanceError):
            greedy_baseline(ds, RadiusBounds(np.ones(3)), 3.0, 2, seed=0)

    def test_search_beats_greedy(self):
        ds, delta, k = gaussian_instance(12, n=400, k=5)
        greedy_costs = []
        ls_costs = []
        for s in range(10):
            greedy_costs.append(greedy_baseline(ds, delta, 3.0, k, seed=s).total_cost)
            ls_costs.append(run(ds, delta, LsConfig(k=k, iterations=300, seed=s))[0].total_cost)
        assert np.median(ls_costs) <= np.median(greedy_costs)


class TestKmeansppInit:
    def test_k_one_uniform(self):
        ds = Dataset(np.arange(10.0).reshape(-1, 1))
        picks = {int(kmeanspp_init(ds, 1, s)[0]) for s in range(200)}
        assert len(picks) >= 8

    def test_k_equals_n(self):
        ds = Dataset(np.arange(6.0).reshape(-1, 1))
        ids = kmeanspp_init(ds, 6, 0)
        assert sorted(ids.tolist()) == list(range(6))

    def test_two_cluster_fixture_hits_both(self):
        pts = np.concatenate([np.arange(4.0), 100.0 + np.arange(4.0)]).reshape(-1, 1)
        ds = Dataset(pts)
        hit = 0
        for s in range(1000):
            ids = kmeanspp_init(ds, 2, s)
            sides = {int(i) // 4 for i in ids}
            hit += len(sides) == 2
        # second draw lands in the other cluster w.p. ~4*96^2/(4*96^2+3*9) > 0.999
        assert hit / 1000 >= 0.9

    def test_duplicates_all_points(self):
        ds = Dataset(np.zeros((4, 1)))
        ids = kmeanspp_init(ds, 4, 3)
        assert sorted(ids.tolist()) == [0, 1, 2, 3]


class TestLloyd:
    """Plain Lloyd: the refinement loop with no zones
    (``refine.lloyd_rounds``), as ``vanilla_kmeans`` runs it."""

    def test_line_fixture_converges(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
        pos, trace, _ = lloyd_rounds(ds.points, np.array([[0.0], [10.0]]), None, 10, 0.0)
        assert np.allclose(np.sort(pos.ravel()), [0.5, 10.5])
        assert trace[-1] == 1.0

    def test_zero_iterations(self):
        ds = Dataset(np.array([[0.0], [2.0]]))
        start = np.array([[1.5]])
        pos, trace, _ = lloyd_rounds(ds.points, start, None, 0, 0.0)
        assert np.array_equal(pos, start)
        assert trace.size == 1

    def test_cost_monotone_on_random_fixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(1, 6))
            pts = rng.normal(size=(n, 2))
            ds = Dataset(pts)
            start = pts[rng.choice(n, size=k, replace=False)]
            _, trace, _ = lloyd_rounds(ds.points, start, None, 8, 0.0)
            assert np.all(np.diff(trace) <= 0)

    def test_vanilla_pipeline(self):
        ds, delta, k = gaussian_instance(6, n=200)
        pos, trace = vanilla_kmeans(ds, k, seed=0)
        assert pos.shape == (k, ds.d)
        assert np.all(np.diff(trace) <= 0)


class TestBruteForce:
    def test_line_optimum(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
        delta = RadiusBounds(np.full(4, 1e9))
        cost, ids = brute_force_opt(ds, delta, beta=1.0, k=2)
        assert cost == 2.0
        assert ids[0] in (0, 1) and ids[1] in (2, 3)

    def test_k_equals_n(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 2)))
        cost, ids = brute_force_opt(ds, RadiusBounds(np.zeros(6)), beta=1.0, k=6)
        assert cost == 0.0

    def test_zero_radii_infeasible(self):
        ds = Dataset(np.arange(5.0).reshape(-1, 1))
        assert brute_force_opt(ds, RadiusBounds(np.zeros(5)), beta=1.0, k=2) is None

    def test_guard(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(60, 2)))
        with pytest.raises(ValueError, match="too large"):
            brute_force_opt(ds, RadiusBounds(np.ones(60)), beta=1.0, k=12)

    def test_feasibility_agrees_with_predicate(self):
        # the oracle's per-subset filter and metrics.bound_ratio share their
        # ratio values, so the best subset it returns must pass the check and
        # any infeasible verdict must be reproducible
        import itertools

        from fairkmeans import compute_radii
        from fairkmeans._dist import sq_dist_matrix

        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(10, 2)))
        delta = compute_radii(ds, 3)
        ratios = fairness_ratios(
            np.sqrt(sq_dist_matrix(ds.points, ds.points)), delta.delta[:, None]
        )
        for subset in itertools.combinations(range(10), 3):
            ids = np.array(subset)
            worst, _ = bound_ratio(ds, delta, ids)
            oracle_ok = bool(np.all(ratios[:, ids].min(axis=1) <= 1.0))
            assert oracle_ok == (worst <= 1.0)
            assert ratios[:, ids].min(axis=1).max() == worst


class TestInputChecks:
    """Bad input to a baseline gets an error that names its cause, from the
    one check of each kind in ``dataset.py``, never a silent answer."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda ds, delta: kmeanspp_init(ds, 4.0, 0), "k"),
            (lambda ds, delta: vanilla_kmeans(ds, 4.0, 0), "k"),
            (lambda ds, delta: greedy_baseline(ds, delta, 3.0, 4.0, 0), "k"),
            (lambda ds, delta: brute_force_opt(ds, delta, 6.0, 2.0), "k"),
        ],
        ids=["kmeanspp_init", "vanilla_kmeans", "greedy_baseline", "brute_force_opt"],
    )
    def test_counts_must_be_integers(self, call, name):
        ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)))
        delta = RadiusBounds(np.full(10, 1e9))
        with pytest.raises(TypeError, match=f"{name} must be an integer, got"):
            call(ds, delta)

    @pytest.mark.parametrize("m", [1, 7, 9])
    def test_brute_force_radius_length_mismatch(self, m):
        # one radius used to be broadcast over all 8 points: (5.91, [1, 7])
        ds = Dataset(np.random.default_rng(0).normal(size=(8, 2)))
        with pytest.raises(ValueError, match="radius bounds do not match the dataset"):
            brute_force_opt(ds, RadiusBounds(np.ones(m)), 6.0, 2)
