"""Fairness-preserving Lloyd refinement.

After local search the centers are dataset points.  This stage alternates
nearest-center assignment with moves of each center toward its cluster mean,
clamped so that no anchor zone is ever left without a center.  Centers become
continuous positions here; the radius guarantee of the search phase carries
through because zone coverage is preserved.

Each round's candidate moves, with the pins that clamp them, come from
:func:`anchors.clamped_moves`; this module decides only which moves pay.

The same loop with no zones is plain Lloyd (:func:`baselines.lloyd`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import fsum, sq_dist_blocks, sq_dist_matrix, sq_dists, two_nearest_sq_dists
from .anchors import AnchorSet, clamped_moves
from .dataset import Dataset, _check_integer, center_positions
from .solution import Solution, check_guarantee


@dataclass
class FlConfig:
    iterations: int = 20

    def validate(self) -> None:
        _check_integer("iterations", self.iterations, 0)


def assign(ds: Dataset, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every point, lowest index on ties.
    ``centers`` are point ids or (k, d) positions
    (:func:`dataset.center_positions`).  Read off the filtered pass
    (``_dist.two_nearest_sq_dists``), whose row minima are the kernel's."""
    return np.argmin(two_nearest_sq_dists(ds.points, center_positions(ds, centers)), axis=1)


def cluster_means(X: np.ndarray, labels: np.ndarray, k: int):
    """Per-cluster means and sizes; the mean row of an empty cluster is 0."""
    sizes = np.bincount(labels, minlength=k)
    means = np.zeros((k, X.shape[1]))
    for dim in range(X.shape[1]):
        means[:, dim] = np.bincount(labels, weights=X[:, dim], minlength=k)
    nonempty = sizes > 0
    means[nonempty] /= sizes[nonempty, None]
    return means, sizes


def lloyd_rounds(
    X: np.ndarray,
    centers: np.ndarray,
    anchor_set: AnchorSet | None,
    iterations: int,
    rel_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Up to ``iterations`` Lloyd rounds from ``centers``, each move clamped
    to the zones of ``anchor_set`` pinned to the center (none when
    ``anchor_set`` is None).

    Returns the final positions, the cost trace (the entry cost plus one
    value per round) and the (n, k) squared distances from ``X`` to the
    final positions that the last assignment used.  An empty cluster keeps
    its center, and a move is kept only when its cluster's recomputed cost
    strictly improves, which makes the trace non-increasing in float
    arithmetic as well as in exact arithmetic.  A positive ``rel_tol`` stops
    once a round's relative improvement drops to it or below.

    A round in which no center moves is a fixed point: positions, and so
    distances, labels, means and pins, are those of the round before, and
    every later round would repeat it.  The loop stops there.  With
    ``rel_tol = 0`` the trace still gets one entry per remaining round (the
    unchanged cost), so it always has ``iterations + 1`` entries; with a
    positive ``rel_tol`` it gets one, the zero-improvement stop.  Otherwise
    a round re-measures only the columns of the centers that moved: a
    kernel entry never depends on the other centers, so ``M`` stays equal
    to ``sq_dist_matrix(X, positions)``.
    """
    positions = np.array(centers, dtype=np.float64)
    k = positions.shape[0]
    rows = np.arange(X.shape[0])
    M = sq_dist_matrix(X, positions)
    labels = np.argmin(M, axis=1)
    d1sq = M[rows, labels]
    total = fsum(d1sq)
    trace = [total]
    for done in range(iterations):
        means, sizes = cluster_means(X, labels, k)
        # an empty cluster keeps its center: its mean is its position
        means[sizes == 0] = positions[sizes == 0]
        candidates = means if anchor_set is None else clamped_moves(anchor_set, positions, means)
        moved = []
        # a center that does not move cannot strictly improve its cost
        for j in np.flatnonzero((candidates != positions).any(axis=1)):
            members = labels == j
            # strict per-cluster improvement, measured with the same kernel
            # the next assignment round will use
            if fsum(sq_dists(X[members], candidates[j])) < fsum(d1sq[members]):
                moved.append(j)
        if not moved:
            trace.extend([total] * (1 if rel_tol > 0 else iterations - done))
            break
        positions[moved] = candidates[moved]
        # in row blocks, so no second (n, k) array is live beside M
        for start, block in sq_dist_blocks(X, positions[moved]):
            M[start : start + block.shape[0], moved] = block
        labels = np.argmin(M, axis=1)
        d1sq = M[rows, labels]
        new_total = fsum(d1sq)
        trace.append(new_total)
        improvement = total - new_total
        total = new_total
        if rel_tol > 0 and improvement <= rel_tol * max(total, 1e-300):
            break
    return positions, np.asarray(trace), M


def flloyd_run(ds: Dataset, sol: Solution, *, cfg: FlConfig | None = None):
    """Refine a solution for ``cfg.iterations`` rounds within the zones of
    ``sol.anchor_set``.

    Returns the refined solution (centers now continuous positions) and the
    cost trace, one entry on entry plus one per round; the trace is
    non-increasing.  Refinement stops computing at its fixed point, the
    first round in which no center moves; the rounds after it repeat the
    last cost in the trace (:func:`lloyd_rounds`).  ``ds`` must be
    ``sol.ds``, else a ValueError.

    ``iterations = 0`` returns the input solution unchanged.
    """
    if ds is not sol.ds:
        raise ValueError("ds must be the dataset the solution was built on (sol.ds)")
    cfg = FlConfig() if cfg is None else cfg
    cfg.validate()
    positions, trace, M = lloyd_rounds(
        ds.points, sol.center_pos, sol.anchor_set, cfg.iterations, 0.0
    )
    if cfg.iterations == 0:
        return sol, trace

    refined = Solution.from_sq_dists(ds, sol.anchor_set, None, positions, M)
    check_guarantee(refined)
    refined.total_cost = float(trace[-1])
    return refined, trace
