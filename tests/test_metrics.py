import numpy as np
import pytest

from fairkmeans import (
    Dataset,
    LsConfig,
    RadiusBounds,
    bound_ratio,
    cost,
    run,
)
from conftest import gaussian_instance


class TestCost:
    def test_all_points_centers(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 2)))
        assert cost(ds, np.arange(6), p=2) == 0.0
        assert cost(ds, np.arange(6), p=1) == 0.0

    def test_line_fixture(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
        centers = np.array([0, 2])
        assert cost(ds, centers, p=2) == 2.0
        assert cost(ds, centers, p=1) == 2.0

    def test_positions_accepted(self):
        ds = Dataset(np.array([[0.0], [2.0]]))
        assert cost(ds, np.array([[1.0]]), p=2) == 2.0

    def test_bad_p(self):
        ds = Dataset(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            cost(ds, np.array([0]), p=3)

    def test_empty_centers(self):
        ds = Dataset(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            cost(ds, np.empty((0, 1)), p=2)

    def test_agrees_with_solution_cache(self):
        for s in range(5):
            ds, delta, k = gaussian_instance(400 + s, n=250)
            sol, _ = run(ds, delta, LsConfig(k=k, iterations=50, seed=s))
            assert cost(ds, sol.center_pos, p=2) == pytest.approx(
                sol.total_cost, rel=1e-9
            )


class TestBoundRatio:
    def test_all_points_centers(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(5, 2)))
        ratio, _ = bound_ratio(ds, RadiusBounds(np.ones(5)), np.arange(5))
        assert ratio == 0.0

    def test_witness(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        delta = RadiusBounds(np.array([1.0, 0.5]))
        ratio, witness = bound_ratio(ds, delta, np.array([0]))
        assert ratio == 2.0 and witness == 1

    def test_every_point_a_center(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(8, 2)))
        ratio, _ = bound_ratio(ds, RadiusBounds(np.ones(8)), np.arange(8))
        assert ratio == 0.0 and ratio <= 6.0

    def test_worst_offender(self):
        # the ratio decides feasibility against a bound beta: 2 <= 6 but 2 > 1.5
        ds = Dataset(np.array([[0.0], [1.0]]))
        delta = RadiusBounds(np.array([1.0, 0.5]))
        ratio, worst = bound_ratio(ds, delta, np.array([0]))
        assert worst == 1 and ratio == 2.0
        assert ratio <= 6.0 and not ratio <= 1.5

    def test_zero_radius_inf(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        delta = RadiusBounds(np.array([1.0, 0.0]))
        ratio, witness = bound_ratio(ds, delta, np.array([0]))
        assert ratio == np.inf and witness == 1

    def test_zero_radius_on_center(self):
        # 0/0 is a ratio of 0: a zero-radius point sitting on a center is served
        ds = Dataset(np.array([[0.0], [1.0]]))
        ratio, _ = bound_ratio(ds, RadiusBounds(np.zeros(2)), np.arange(2))
        assert ratio == 0.0

    def test_empty_centers(self):
        ds = Dataset(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            bound_ratio(ds, RadiusBounds(np.ones(2)), np.empty(0, dtype=int))

    def test_float_ids_rejected(self):
        # a 1-D float array is neither an id list nor a (k, d) position array
        ds = Dataset(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="id list or"):
            bound_ratio(ds, RadiusBounds(np.ones(2)), np.array([0.0, 1.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.normal(size=(30, 3))
            ds = Dataset(pts)
            delta = RadiusBounds(rng.uniform(0.1, 2.0, size=30))
            centers = pts[rng.choice(30, 4, replace=False)]
            base, _ = bound_ratio(ds, delta, centers)
            c = float(rng.uniform(0.1, 100))
            scaled, _ = bound_ratio(
                Dataset(pts * c), RadiusBounds(delta.delta * c), centers * c
            )
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_search_output_within_six(self):
        for s in range(3):
            ds, delta, k = gaussian_instance(500 + s, n=300)
            sol, _ = run(ds, delta, LsConfig(k=k, iterations=80, seed=s))
            ratio, _ = bound_ratio(ds, delta, sol.center_pos)
            assert ratio <= 6.0
