"""Acceptance suite.

Each test enforces one release criterion at its pinned tolerance and prints a
PASS line on success (run with ``pytest -s`` to see them).  Criterion 7 needs
the adult census CSV, which is not redistributed here; point the
FAIR_KMEANS_ADULT environment variable at ``adult.data`` (or drop the file at
``data/adult.data``) to enable it.  Everything else is self-contained.

Budget: criteria 1-6 take a couple of minutes; criterion 8 runs four sizes up
to 80k points and dominates the wall time.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from fairkmeans import (
    Dataset,
    ExperimentConfig,
    FlConfig,
    LsConfig,
    RadiusBounds,
    Solution,
    bound_ratio,
    brute_force_opt,
    flloyd_run,
    run,
    run_experiment,
    seed,
    swap_costs,
)
from fairkmeans._dist import dists, nearest
from fairkmeans.local_search import init_solution, d2_sample
from conftest import gaussian_instance, tiny_instance

GAMMA = 3.0
N_INSTANCES = 200
LS_ITERATIONS = 150


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="session")
def corpus():
    """200 random feasible synthetic instances, n in [100, 2000], k in [2, 20]."""
    return [gaussian_instance(1000 + i) for i in range(N_INSTANCES)]


@pytest.fixture(scope="session")
def search_outputs(corpus):
    """Local-search and refined solutions plus traces for every instance."""
    out = []
    for i, (ds, delta, k) in enumerate(corpus):
        sol, trace = run(
            ds, delta, LsConfig(k=k, gamma=GAMMA, iterations=LS_ITERATIONS, seed=i)
        )
        refined, fl_trace = flloyd_run(ds, sol, cfg=FlConfig(iterations=20))
        out.append((sol, trace, refined, fl_trace))
    return out


def test_criterion_1_radius_guarantee(corpus, search_outputs):
    """Every search and refinement output serves each point within 6x its
    radius; hard postcondition, zero tolerance."""
    worst = 0.0
    for (ds, delta, k), (sol, _, refined, _) in zip(corpus, search_outputs):
        for centers in (sol.center_pos, refined.center_pos):
            ratio, _ = bound_ratio(ds, delta, centers)
            assert ratio <= 2 * GAMMA, f"bound ratio {ratio} above {2 * GAMMA}"
            worst = max(worst, ratio)
    report(
        "criterion 1 (radius guarantee)",
        f"{N_INSTANCES} instances, worst bound ratio {worst:.3f} <= 6.0",
    )


def test_criterion_2_seeding(corpus):
    """Anchors cover every point within gamma*delta(p) and their delta-balls
    are pairwise disjoint; zero tolerance."""
    max_anchors = 0
    for ds, delta, k in corpus:
        aset = seed(ds, delta, GAMMA)
        max_anchors = max(max_anchors, len(aset))
        assert len(aset) <= k
        served = np.full(ds.n, np.inf)
        for pos in aset.positions:
            np.minimum(served, dists(ds.points, pos), out=served)
        assert np.all(served <= GAMMA * delta.delta)
        picked = delta.delta[aset.anchors]
        assert np.all(np.diff(picked) >= 0)
        for i in range(len(aset)):
            gaps = dists(aset.positions[i + 1 :], aset.positions[i])
            assert np.all(gaps > picked[i] + picked[i + 1 :])
    report(
        "criterion 2 (seeding lemma)",
        f"coverage and disjointness hold on {N_INSTANCES} instances "
        f"(max anchors {max_anchors})",
    )


def test_criterion_3_oracle_gap():
    """On tiny feasible instances the median search cost over 20 seeds stays
    within 3x the exhaustive feasible optimum."""
    checked = 0
    attempt = 0
    worst = 0.0
    while checked < 50:
        assert attempt < 500, "could not generate 50 feasible tiny instances"
        ds, delta, k = tiny_instance(3000 + attempt)
        attempt += 1
        opt = brute_force_opt(ds, delta, beta=1.0, k=k)
        if opt is None or opt[0] == 0.0:
            continue
        checked += 1
        finals = [
            run(ds, delta, LsConfig(k=k, gamma=GAMMA, iterations=100, seed=r))[0].total_cost
            for r in range(20)
        ]
        gap = float(np.median(finals)) / opt[0]
        worst = max(worst, gap)
        assert gap <= 3.0, f"median/opt gap {gap:.3f} above 3.0"
    report("criterion 3 (oracle gap)", f"50 instances, worst median/opt {worst:.3f} <= 3.0")


def test_criterion_4_incremental_exactness():
    """Incremental swap evaluation equals naive recomputation to 1e-9
    relative on 1,000 randomized cases; zero failures."""
    rng = np.random.default_rng(2024)
    cases = 0
    worst = 0.0
    while cases < 1000:
        n = int(rng.integers(20, 120))
        k = int(rng.integers(2, 9))
        ds, delta, _ = gaussian_instance(int(rng.integers(2**31)), n=n, k=k)
        aset = seed(ds, delta, GAMMA)
        sol = init_solution(ds, aset, k, int(rng.integers(2**31)))
        for _ in range(10):
            if cases >= 1000:
                break
            p = int(rng.integers(n))
            costs, admissible = swap_costs(sol, p)
            for j in np.flatnonzero(admissible):
                pos = sol.center_pos.copy()
                pos[j] = ds.points[p]
                naive = math.fsum(nearest(ds.points, pos)[1])
                rel = abs(costs[j] - naive) / max(1.0, abs(naive))
                worst = max(worst, rel)
                assert rel <= 1e-9
            cases += 1
    report(
        "criterion 4 (incremental exactness)",
        f"1000 cases, worst relative deviation {worst:.2e} <= 1e-9",
    )


def test_criterion_5_monotonicity(search_outputs):
    """Cost traces never increase, across search steps and refinement
    rounds; zero failures."""
    steps = 0
    for sol, trace, refined, fl_trace in search_outputs:
        full = np.concatenate([[trace.initial_cost], trace.costs])
        assert np.all(np.diff(full) <= 0)
        assert np.all(np.diff(fl_trace) <= 0)
        steps += full.size + fl_trace.size
    report("criterion 5 (monotonicity)", f"{steps} recorded costs, all non-increasing")


def test_criterion_6_d2_sampler():
    """Chi-square goodness of fit at 99% for the distance-squared sampler on
    a 10-point fixture, 100,000 draws."""
    pts = np.arange(10.0).reshape(-1, 1)
    ds = Dataset(pts)
    delta = RadiusBounds(np.full(10, 1e9))
    aset = seed(ds, delta, GAMMA)
    sol = Solution.build(ds, aset, center_ids=np.array([0, 9]))
    probs = sol.d1sq / sol.d1sq.sum()
    rng = np.random.default_rng(9)
    n_draws = 100_000
    draws = np.array([d2_sample(sol, rng) for _ in range(n_draws)])
    observed = np.bincount(draws, minlength=10)
    assert np.all(observed[probs == 0] == 0)
    live = probs > 0
    expected = probs[live] * n_draws
    chi2 = float(((observed[live] - expected) ** 2 / expected).sum())
    threshold = scipy.stats.chi2.ppf(0.99, df=int(live.sum()) - 1)
    assert chi2 <= threshold, f"chi2 {chi2:.2f} above {threshold:.2f}"
    report(
        "criterion 6 (distance-squared sampler)",
        f"chi2 {chi2:.2f} <= {threshold:.2f} at 99%, {n_draws} draws",
    )


def _adult_path() -> Path | None:
    env = os.environ.get("FAIR_KMEANS_ADULT")
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parents[1] / "data" / "adult.data"
    return default if default.exists() else None


@pytest.mark.skipif(
    _adult_path() is None,
    reason="adult census file not supplied (set FAIR_KMEANS_ADULT or add data/adult.data)",
)
def test_criterion_7_adult_subsample():
    """Adult census, normalized, 1000-point sample, k=10: mean search cost
    within 25% of 1726.0, bound ratio at most 1.6, and greedy costing more."""
    path = _adult_path()
    common = dict(
        input_path=path,
        columns=[0, 2, 4, 10, 11, 12],
        normalize=True,
        sample=1000,
        k=10,
        gamma=GAMMA,
        trials=10,
        seed=0,
    )
    ls = run_experiment(ExperimentConfig(algorithm="lspp", iterations=500, **common))
    greedy = run_experiment(ExperimentConfig(algorithm="greedy", **common))
    assert ls.feasible_trials == 10
    mean_cost = ls.aggregates["kmeans_cost"]["mean"]
    mean_ratio = ls.aggregates["bound_ratio"]["mean"]
    assert abs(mean_cost - 1726.0) <= 0.25 * 1726.0, f"mean cost {mean_cost:.1f}"
    assert mean_ratio <= 1.6, f"mean bound ratio {mean_ratio:.2f}"
    assert greedy.aggregates["kmeans_cost"]["mean"] > mean_cost
    report(
        "criterion 7 (adult subsample)",
        f"mean cost {mean_cost:.1f} in 1726.0 +/- 25%, bound ratio "
        f"{mean_ratio:.2f} <= 1.6, greedy {greedy.aggregates['kmeans_cost']['mean']:.1f} higher",
    )


def test_criterion_8_scaling_trend(tmp_path_factory):
    """Wall time grows at most like n**1.5 across n = 10k..80k (2-D data,
    k=10, 500 iterations); the fitted log-log slope must be at most 1.5."""
    tmp = tmp_path_factory.mktemp("scaling")
    rng = np.random.default_rng(7)
    sizes = [10_000, 20_000, 40_000, 80_000]
    times = []
    for n in sizes:
        comps = rng.uniform(-10, 10, size=(10, 2))
        pts = comps[rng.integers(0, 10, n)] + rng.normal(0, 1.2, (n, 2))
        path = tmp / f"scale_{n}.csv"
        np.savetxt(path, pts, delimiter=",")
        rep = run_experiment(
            ExperimentConfig(
                input_path=path,
                k=10,
                gamma=GAMMA,
                iterations=500,
                flloyd_iters=20,
                delta_mode="sampled:1000",
                algorithm="lspp",
                trials=3,
                seed=11,
            )
        )
        assert rep.feasible_trials == 3
        times.append(rep.aggregates["wall_time_seconds"]["mean"])
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    assert slope <= 1.5, f"time exponent {slope:.2f} above 1.5"
    report(
        "criterion 8 (scaling trend)",
        "times "
        + ", ".join(f"n={n}: {t:.2f}s" for n, t in zip(sizes, times))
        + f"; fitted exponent {slope:.2f} <= 1.5",
    )
