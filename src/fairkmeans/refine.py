"""Fairness-preserving Lloyd refinement.

After local search the centers are dataset points.  This stage alternates
nearest-center assignment with moves of each center toward its cluster mean,
clamped so that no anchor zone is ever left without a center.  Centers become
continuous positions here; the radius guarantee of the search phase carries
through because zone coverage is preserved.

Each round's candidate moves, with the pins that clamp them, come from
:func:`anchors.clamped_moves`; this module decides only which moves pay.

The same loop with no zones is plain Lloyd (:func:`baselines.vanilla_kmeans`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import _nearest_two, fsum, sq_dist_blocks, sq_dist_matrix, sq_dists, two_nearest
from .anchors import AnchorSet, clamped_moves
from .dataset import (
    Dataset,
    _check_integer,
    center_positions,
    check_cost_scale,
    check_distance_overflow,
)
from .solution import Solution, check_guarantee


@dataclass
class FlConfig:
    iterations: int = 20

    def validate(self) -> None:
        _check_integer("iterations", self.iterations, 0)


def assign(ds: Dataset, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every point, lowest index on ties.
    ``centers`` are point ids or (k, d) positions
    (:func:`dataset.center_positions`).  The nearest
    slots of the nearest-two pass (``_dist.two_nearest``), which are the
    kernel's.  A nearest squared distance that overflows float64 is
    :func:`dataset.check_distance_overflow`'s ValueError: every far center
    would then tie at inf and the point go to the lowest slot."""
    labels, _, d1sq, _ = two_nearest(ds.points, center_positions(ds, centers))
    check_distance_overflow(d1sq)
    return labels


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
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Up to ``iterations`` Lloyd rounds from ``centers``, each move clamped
    to the zones of ``anchor_set`` pinned to the center (none when
    ``anchor_set`` is None).

    Returns the final positions, the cost trace (the entry cost plus one
    value per round) and each point's nearest and second-nearest center at
    the final positions, ``(assign, assign2, d1sq, d2sq)`` as the
    nearest-two pass gives them, read off the loop's last matrix by the
    pass's read-off (``_dist._nearest_two``).  An empty cluster keeps its
    center, and a move is kept only when its cluster's recomputed cost
    strictly improves, which makes the trace non-increasing in float
    arithmetic as well as in exact arithmetic.  A positive ``rel_tol`` stops
    once a round's relative improvement drops to it or below.  An entry
    cost that overflows float64 is a ValueError
    (:func:`dataset.check_cost_scale`).

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
    positions = centers.copy()
    M = sq_dist_matrix(X, positions)
    trace = _rounds(X, positions, M, anchor_set, iterations, rel_tol)
    # read off once the rounds' per-point arrays are freed, so that it takes
    # no more memory than a round
    return positions, trace, _nearest_two(M)


def _rounds(X, positions, M, anchor_set, iterations, rel_tol) -> np.ndarray:
    """The loop of :func:`lloyd_rounds`, with its arguments: moves
    ``positions`` and re-measures their columns of ``M`` in place, and
    returns the trace."""
    k = positions.shape[0]
    rows = np.arange(X.shape[0])
    labels = np.argmin(M, axis=1)
    d1sq = M[rows, labels]
    total = fsum(d1sq)
    check_cost_scale(total)
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
    return np.asarray(trace)


def flloyd_run(ds: Dataset, sol: Solution, *, cfg: FlConfig | None = None):
    """Refine a solution for ``cfg.iterations`` rounds within the zones of
    ``sol.anchor_set``.

    Returns the refined solution (centers now continuous positions) and the
    cost trace, one entry on entry plus one per round; the trace is
    non-increasing.  Refinement stops computing at its fixed point, the
    first round in which no center moves; the rounds after it repeat the
    last cost in the trace (:func:`lloyd_rounds`).  The refined solution's
    nearest-two caches are those :func:`lloyd_rounds` reads off its last
    matrix, equal to :meth:`Solution.build`'s at the final positions without
    a second pass, its D² cumsum is built from them, and its ``total_cost``
    is the trace's last, correctly rounded, entry.  ``ds`` must be
    ``sol.ds``, else a ValueError.

    ``iterations = 0`` returns the input solution unchanged.
    """
    if ds is not sol.ds:
        raise ValueError("ds must be the dataset the solution was built on (sol.ds)")
    cfg = FlConfig() if cfg is None else cfg
    cfg.validate()
    positions, trace, nearest = lloyd_rounds(
        ds.points, sol.center_pos, sol.anchor_set, cfg.iterations, 0.0
    )
    if cfg.iterations == 0:
        return sol, trace

    # the read-off's (assign, assign2, d1sq, d2sq) are the fields in order
    refined = Solution(ds, sol.anchor_set, None, positions, *nearest, float(trace[-1]))
    check_guarantee(refined)
    return refined, trace
