"""Fairness-preserving Lloyd refinement.

After local search the centers are dataset points.  This stage alternates
nearest-center assignment with moves of each center toward its cluster mean,
clamped so that no anchor zone is ever left without a center.  Centers become
continuous positions here; the radius guarantee of the search phase carries
through because zone coverage is preserved.

Each round's candidate moves, with the pins that clamp them, come from
:func:`anchors.clamped_moves`; this module decides only which moves pay.

:func:`lloyd_rounds` is the package's one Lloyd loop: with zones it refines
a solution (:func:`flloyd_run`, which builds the refined solution from its
final positions with the :class:`solution.Solution` constructor), and with no
zones it is plain Lloyd (:func:`baselines.vanilla_kmeans`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import FarBound, _pair_sq_dists, fsum, fsums, nearest, two_nearest
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
    (:func:`dataset.center_positions`).  The slots of the nearest pass
    (``_dist.nearest``), which are the kernel's.  A nearest squared
    distance that overflows float64 is
    :func:`dataset.check_distance_overflow`'s ValueError: every far center
    would then tie at inf and the point go to the lowest slot."""
    labels, d1sq = nearest(ds.points, center_positions(ds, centers))
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
    positions: np.ndarray,
    anchor_set: AnchorSet | None,
    iterations: int,
    rel_tol: float,
    start: tuple | None = None,
) -> np.ndarray:
    """Up to ``iterations`` Lloyd rounds, each move clamped to the zones of
    ``anchor_set`` pinned to the center (none when ``anchor_set`` is None).
    Moves the (k, d) float array ``positions`` in place and returns the
    cost trace: the entry cost plus one value per round.  ``start``, when
    given, is ``(assign, d1sq, d2sq)`` of ``positions``, a solution's
    nearest-two caches, which spare the entry pass.

    An empty cluster keeps its center, and a move is kept only when its
    cluster's recomputed cost strictly improves, which makes the trace
    non-increasing in float arithmetic as well as in exact arithmetic.  A
    positive ``rel_tol`` stops once a round's relative improvement drops to
    it or below.  An entry cost that overflows float64 is a ValueError
    (:func:`dataset.check_cost_scale`).

    A round in which no center moves is a fixed point: positions, and so
    distances, labels, means and pins, are those of the round before, and
    every later round would repeat it.  The loop stops there.  With
    ``rel_tol = 0`` the trace still gets one entry per remaining round (the
    unchanged cost), so it always has ``iterations + 1`` entries; with a
    positive ``rel_tol`` it gets one, the zero-improvement stop.

    The loop keeps each point's nearest slot and squared distance, as
    ``argmin`` reads them off ``sq_dist_matrix(X, positions)``, and never
    that matrix, with a lower bound on its distance to every other center
    (``_dist.FarBound``).  The entry pass is one nearest-two pass, or
    none from a solution's caches, whose slot is argmin's wherever
    ``d1sq < d2sq``; the rows of a tie, where the search may hold either
    slot, get one nearest pass.  A round takes one pair pass
    (``_dist._pair_sq_dists``): each row's kernel value to its own
    cluster's candidate, whose correctly rounded sums per cluster
    (``_dist.fsums``) decide which moves pay.  A row whose value to its
    own, possibly moved, center is then below the bound keeps its slot and
    that value; the others get one nearest-two pass, which also resets
    their bound.
    """
    k = positions.shape[0]
    if start is None:
        labels, _, d1sq, d2sq = two_nearest(X, positions)
    else:
        labels, d1sq, d2sq = start[0].copy(), start[1].copy(), start[2]
        tied = np.flatnonzero(d1sq == d2sq)
        if tied.size:
            labels[tied] = nearest(np.take(X, tied, axis=0), positions)[0]
    bound = FarBound(d2sq, X.shape[1])
    total = fsum(d1sq)
    check_cost_scale(total)
    trace = [total]
    rows = np.arange(X.shape[0])
    for done in range(iterations):
        means, sizes = cluster_means(X, labels, k)
        # an empty cluster keeps its center: its mean is its position
        means[sizes == 0] = positions[sizes == 0]
        candidates = means if anchor_set is None else clamped_moves(anchor_set, positions, means)
        moved = ()
        # a center that does not move cannot strictly improve its cost, so
        # where none would move the pass is skipped
        if (candidates != positions).any():
            near = _pair_sq_dists(X, candidates, rows, labels)
            moved = np.flatnonzero(fsums(near, labels, k) < fsums(d1sq, labels, k))
        if not len(moved):
            trace.extend([total] * (1 if rel_tol > 0 else iterations - done))
            break
        bound.move(positions, candidates, moved, labels)
        positions[moved] = candidates[moved]
        shifted = np.zeros(k, dtype=bool)
        shifted[moved] = True
        np.copyto(d1sq, near, where=shifted[labels])
        redo = np.flatnonzero(~bound.keeps(d1sq))
        if redo.size:
            labels[redo], _, d1sq[redo], d2sq = two_nearest(np.take(X, redo, axis=0), positions)
            bound.reset(redo, d2sq)
        new_total = fsum(d1sq)
        trace.append(new_total)
        improvement = total - new_total
        total = new_total
        if rel_tol > 0 and improvement <= rel_tol * max(total, 1e-300):
            break
    return np.asarray(trace)


def flloyd_run(ds: Dataset, sol: Solution, *, cfg: FlConfig | None = None):
    """Refine a solution for ``cfg.iterations`` rounds within the zones of
    ``sol.anchor_set`` (:func:`lloyd_rounds`), starting from the solution's
    own nearest-two caches.

    Returns the refined solution (centers now continuous positions) and the
    cost trace, one entry on entry plus one per round; the trace is
    non-increasing.  Refinement stops computing at its fixed point, the
    first round in which no center moves; the rounds after it repeat the
    last cost in the trace.  The refined solution is built from its final
    positions by the :class:`Solution` constructor, which derives its caches,
    and its ``total_cost`` is then the trace's last, correctly rounded,
    entry.  ``ds`` must be ``sol.ds``, else a ValueError.

    ``iterations = 0`` returns the input solution unchanged.
    """
    if ds is not sol.ds:
        raise ValueError("ds must be the dataset the solution was built on (sol.ds)")
    cfg = FlConfig() if cfg is None else cfg
    cfg.validate()
    positions = sol.center_pos.copy()
    start = (sol.assign, sol.d1sq, sol.d2sq)
    trace = lloyd_rounds(ds.points, positions, sol.anchor_set, cfg.iterations, 0.0, start)
    if cfg.iterations == 0:
        return sol, trace

    refined = Solution(ds, sol.anchor_set, center_pos=positions)
    refined.total_cost = float(trace[-1])
    check_guarantee(refined)
    return refined, trace
