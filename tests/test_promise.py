"""The promise over the ``Dataset`` domain, fuzzed.

Every case draws a small instance from the corners the north star names:
fewer distinct rows than points (heavy duplicates), k anywhere from 1 to n,
exact or sampled radii, a quarter of the cases scaled by 2**e with |e| in
[505, 515] (squared distances near either end of float64's range) and 30%
offset by up to 1e15 (coordinates that swallow their spread).  Each case
either raises a named error (a ValueError or InfeasibleInstanceError) or
returns solutions for which all of these hold:

* ``check_solution`` passes, searched and refined;
* the search's and refinement's cost traces never rise;
* the bound ratio is at most ``2 * gamma`` before and after refinement;
* ``assign`` agrees with the solutions' nearest-center slots.

A leaked numpy warning is a failure too: pytest turns RuntimeWarning into
an error (pyproject's ``filterwarnings``).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from fairkmeans import (
    Dataset,
    FlConfig,
    InfeasibleInstanceError,
    LsConfig,
    Solution,
    assign,
    bound_ratio,
    compute_radii,
    flloyd_run,
    run,
    swap_costs,
)
from fairkmeans._dist import _pair_sq_dists
from fairkmeans.anchors import AnchorSet
from fairkmeans.solution import RADIUS_SLACK, check_solution

GAMMA = 3.0
CASES = 1500


def draw_case(seed: int):
    """``(points, k, radii keywords, search iterations, refine rounds)`` of
    fuzz case ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    d = int(rng.integers(1, 6))
    distinct = int(rng.integers(1, n))
    base = rng.normal(size=(distinct, d))
    if rng.random() < 0.5:
        base = np.round(base * 2)  # a grid: ties between distances
    points = base[rng.integers(distinct, size=n)]
    if rng.random() < 0.25:
        e = int(rng.integers(505, 516)) * (1 if rng.random() < 0.5 else -1)
        points = points * 2.0**e
    if rng.random() < 0.3:
        points = points + rng.uniform(-1e15, 1e15, size=d)
    k = int(rng.integers(1, n + 1))
    if rng.random() < 0.5:
        radii = {"mode": "exact"}
    else:
        radii = {"mode": "sampled", "sample_size": int(rng.integers(1, n + 6)), "seed": seed}
    return points, k, radii, int(rng.integers(0, 30)), int(rng.integers(0, 6))


def check_case(seed: int) -> bool:
    """Run case ``seed`` end to end and assert the promise; False where it
    raised a named error."""
    points, k, radii, steps, rounds = draw_case(seed)
    try:
        ds = Dataset(points)
        delta = compute_radii(ds, k, **radii)
        sol, trace = run(ds, delta, LsConfig(k=k, gamma=GAMMA, iterations=steps, seed=seed))
        refined, fl_trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=rounds))
    except (ValueError, InfeasibleInstanceError):
        return False
    rows = np.arange(ds.n)
    for solution in (sol, refined):
        check_solution(solution, delta)
        assert bound_ratio(ds, delta, solution.center_pos)[0] <= 2 * GAMMA * RADIUS_SLACK
        labels = assign(ds, solution.center_pos)
        # the search may keep either center of a tie: the labels name a
        # center at the cached nearest distance
        at_labels = _pair_sq_dists(ds.points, solution.center_pos, rows, labels)
        assert np.array_equal(at_labels, solution.d1sq)
    if rounds:  # refined slots come from a fresh pass, lowest slot on ties
        assert np.array_equal(assign(ds, refined.center_pos), refined.assign)
    assert np.all(np.diff(np.concatenate([[trace.initial_cost], trace.costs])) <= 0)
    assert np.all(np.diff(fl_trace) <= 0)
    return True


@pytest.mark.parametrize("block", range(10))
def test_promise_holds_or_a_named_error(block):
    solved = [seed for seed in range(block, CASES, 10) if check_case(seed)]
    assert solved


# A float operation may overflow on values that are never read, or that a
# named check reads next; it does so without a warning, so that the caller
# sees the right answer or the named error alone.  Cases of the domain above
# reach each of these three.


def no_zones(d: int) -> AnchorSet:
    return AnchorSet(np.empty(0, dtype=np.int64), np.empty((0, d)), np.empty(0), GAMMA)


def test_radii_past_an_overflowing_square():
    # the squared distance to 2**600 overflows, and no radius reads it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = compute_radii(Dataset([[0.0], [1.0], [2.0**600]]), 3)
    assert np.array_equal(radii.delta, [0.0, 0.0, 0.0])


def test_overflowing_total_cost_is_only_the_named_error():
    ds = Dataset([[0.0], [1.2e154], [-1.2e154]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="total cost .* overflows float64"):
            Solution.build(ds, no_zones(1), center_ids=[0])


def test_swap_cost_above_the_float_range_is_inf():
    # trading slot 1 for point 2, a twin of the center in slot 0, leaves
    # points 1 and 3 a cost above float64's range
    ds = Dataset(np.array([[-2.0, -2.0], [-2.0, 0.0], [-2.0, -2.0], [0.0, 1.0]]) * 2.0**510)
    sol = Solution.build(ds, no_zones(2), center_ids=[0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new_costs, admissible = swap_costs(sol, 2)
    assert np.array_equal(new_costs, [sol.total_cost, np.inf]) and admissible.all()
