"""Individually fair k-means clustering.

Every point p carries a radius bound delta(p), by default the distance to its
ceil(n/k)-th nearest neighbour, and a solution must place some center within
a small factor of that radius.  The solver seeds anchor zones greedily, runs
a constrained single-swap local search driven by squared-distance sampling,
and optionally refines centers with a coverage-preserving Lloyd pass.  Any
returned solution serves every point within ``2 * gamma * delta(p)``
(factor 6 at the default gamma of 3).
"""

from .anchors import AnchorSet, CoverageTable, build_coverage, seed
from .baselines import (
    brute_force_opt,
    greedy_baseline,
    kmeanspp_init,
    lloyd,
    vanilla_kmeans,
)
from .dataset import (
    AspectRatio,
    Dataset,
    RadiusBounds,
    aspect_ratio,
    compute_radii,
    load_points,
    normalize,
    subsample,
)
from .errors import InfeasibleInstanceError
from .experiments import ExperimentConfig, ExperimentReport, run_experiment
from .local_search import (
    LsConfig,
    RunTrace,
    SwapCandidate,
    d2_sample,
    evaluate_swaps,
    init_solution,
    ls_step,
    run,
    swap_costs,
)
from .metrics import bound_ratio, cost
from .refine import FlConfig, assign, fair_move_center, flloyd_run
from .solution import Solution

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "AspectRatio",
    "CoverageTable",
    "Dataset",
    "ExperimentConfig",
    "ExperimentReport",
    "FlConfig",
    "InfeasibleInstanceError",
    "LsConfig",
    "RadiusBounds",
    "RunTrace",
    "Solution",
    "SwapCandidate",
    "aspect_ratio",
    "assign",
    "bound_ratio",
    "brute_force_opt",
    "build_coverage",
    "compute_radii",
    "cost",
    "d2_sample",
    "evaluate_swaps",
    "fair_move_center",
    "flloyd_run",
    "greedy_baseline",
    "init_solution",
    "kmeanspp_init",
    "lloyd",
    "load_points",
    "ls_step",
    "normalize",
    "run",
    "run_experiment",
    "seed",
    "subsample",
    "swap_costs",
    "vanilla_kmeans",
]
