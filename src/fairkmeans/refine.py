"""Fairness-preserving Lloyd refinement.

After local search the centers are dataset points.  This stage alternates
nearest-center assignment with moves of each center toward its cluster mean,
clamped so that no anchor zone is ever left without a center.  Centers become
continuous positions here; the radius guarantee of the search phase carries
through because zone coverage is preserved.

At the start of each round every covered zone pins exactly one of the
centers inside it: its nearest one (lowest slot on ties), which is its only
coverer when there is just one.  A center's move is a bisection along the
segment from its current position to the cluster mean, the largest step that
keeps it inside every zone pinned to it.  Pins are taken from start-of-round
positions, so the result does not depend on move order, and each pinned
center stays inside its zone, so every zone covered at the start of a round
is still covered at its end.

The same loop with no zones is plain Lloyd (:func:`baselines.lloyd`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import dists, fsum, sq_dist_blocks, sq_dist_matrix, sq_dists, two_nearest_sq_dists
from .anchors import AnchorSet
from .dataset import Dataset, _check_integer, center_positions, check_positions
from .solution import Solution, check_guarantee

# Halvings in a clamped move: its error is at most |mean - center| * 2**-40.
BISECTION_STEPS = 40


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


def fair_move_center(
    center: np.ndarray,
    mean: np.ndarray,
    anchor_positions: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Farthest point toward ``mean`` on the segment from ``center`` that
    stays inside every constraint ball.

    The feasible steps form an interval [0, t*] because the segment's
    intersection with each closed ball is convex and t=0 is feasible by
    precondition.  When the mean itself is feasible it is returned exactly;
    otherwise t* is located by ``BISECTION_STEPS`` halvings, an error of at
    most ``|mean - center| * 2**-BISECTION_STEPS``.

    ``center`` and ``mean`` are positions of d coordinates and
    ``anchor_positions`` a (m, d) array (:func:`dataset.check_positions`),
    with one radius per anchor; anything else is a ValueError.
    """
    center = check_positions([center], np.size(center))[0]
    mean = check_positions([mean], center.size)[0]
    if np.shape(radii) != np.shape(anchor_positions)[:1]:
        raise ValueError(f"need one radius per anchor position, got {np.shape(radii)} radii")
    if np.size(radii) == 0:
        return mean
    anchor_positions = check_positions(anchor_positions, center.size)

    def feasible(t: float) -> bool:
        pos = (1.0 - t) * center + t * mean
        return bool(np.all(dists(anchor_positions, pos) <= radii))

    if feasible(1.0):
        return mean.copy()
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return (1.0 - lo) * center + lo * mean


def _pinned_zones(
    anchor_set: AnchorSet | None, positions: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per center, the positions and radii of the zones pinned to it this
    round: every covered zone binds its nearest coverer (ties: lowest slot)."""
    k, d = positions.shape
    if anchor_set is None:
        return [(np.empty((0, d)), np.empty(0))] * k
    dmat = np.sqrt(sq_dist_matrix(positions, anchor_set.positions))
    covers = dmat <= anchor_set.zone_radius
    covered = covers.any(axis=0)
    pin = np.full(len(anchor_set), -1, dtype=np.int64)
    masked = np.where(covers, dmat, np.inf)
    pin[covered] = np.argmin(masked[:, covered], axis=0)
    return [(anchor_set.positions[pin == j], anchor_set.zone_radius[pin == j]) for j in range(k)]


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
        zones = _pinned_zones(anchor_set, positions)
        moved = []
        # every candidate reads only its own start-of-round position, so the
        # accepted moves can be written in place
        for j in range(k):
            if sizes[j] == 0:
                continue
            candidate = fair_move_center(positions[j], means[j], *zones[j])
            # a center that does not move cannot strictly improve its cost
            if np.array_equal(candidate, positions[j]):
                continue
            members = labels == j
            # strict per-cluster improvement, measured with the same kernel
            # the next assignment round will use
            new_sq = sq_dists(X[members], candidate)
            if fsum(new_sq) < fsum(d1sq[members]):
                positions[j] = candidate
                moved.append(j)
        if not moved:
            trace.extend([total] * (1 if rel_tol > 0 else iterations - done))
            break
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
