"""Golden regression: exact outputs of three small seeded instances.

The values were recorded before the batched distance kernel replaced the
per-center loops, as ``float.hex`` strings, and must be reproduced bit for
bit: the local-search cost trace, the final center ids, the refinement cost
trace, ``metrics.cost`` and ``bound_ratio``.  All instances have d <= 2,
where every squared distance is rounded the same way on any SIMD width, so
the goldens hold on any platform; ``test_dist.py`` covers d >= 3 against a
per-row reference instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import fairkmeans as fk


@dataclass(frozen=True)
class Golden:
    ls_trace: tuple[tuple[str, int], ...]  # (float.hex, repeat count) runs
    center_ids: tuple[int, ...]
    fl_trace: tuple[tuple[str, int], ...]
    cost: str
    bound_ratio: str


def _instance(name):
    if name == "line-d1":
        rng = np.random.default_rng(101)
        pts = np.concatenate([rng.normal(c, 0.7, size=(60, 1)) for c in (-9.0, 0.0, 4.0, 12.0)])
        pts = np.concatenate([pts, pts[:12]])  # duplicate rows
        ds, k = fk.Dataset(pts), 4
        return ds, fk.compute_radii(ds, k), k
    if name == "blobs-d2-exact":
        rng = np.random.default_rng(202)
        comps = rng.uniform(-10, 10, size=(6, 2))
        pts = comps[rng.integers(0, 6, size=500)] + rng.normal(0, 1.0, size=(500, 2))
        ds, k = fk.Dataset(pts), 6
        return ds, fk.compute_radii(ds, k), k
    rng = np.random.default_rng(303)
    comps = rng.uniform(-30, 30, size=(9, 2))
    pts = comps[rng.integers(0, 9, size=3000)] + rng.normal(0, 2.0, size=(3000, 2))
    ds, k = fk.Dataset(pts), 9
    return ds, fk.compute_radii(ds, k, mode="sampled", sample_size=300, seed=5), k


def _hex_runs(values):
    runs: list[tuple[str, int]] = []
    for v in values:
        h = float(v).hex()
        if runs and runs[-1][0] == h:
            runs[-1] = (h, runs[-1][1] + 1)
        else:
            runs.append((h, 1))
    return tuple(runs)


GOLDENS = {
    "line-d1": Golden(
        ls_trace=(
            ("0x1.12fac34ded31ep+9", 1),
            ("0x1.13fe33ccaf3a7p+8", 2),
            ("0x1.74645f41ec3b4p+7", 6),
            ("0x1.1c9642c00712fp+7", 30),
            ("0x1.1b2526ade9d4ap+7", 2),
        ),
        center_ids=(20, 150, 105, 239),
        fl_trace=(
            ("0x1.1b2526ade9d4ap+7", 1),
            ("0x1.07e964b52c5a4p+7", 6),
        ),
        cost="0x1.07e964b52c5a4p+7",
        bound_ratio="0x1.8e7dd54c79c6cp-1",
    ),
    "blobs-d2-exact": Golden(
        ls_trace=(
            ("0x1.60113705620fap+10", 1),
            ("0x1.475d52ad4cfabp+10", 1),
            ("0x1.26729391c878ap+10", 3),
            ("0x1.11652ab98d6d9p+10", 1),
            ("0x1.0be1828a76fd4p+10", 17),
            ("0x1.08b0c26e3b844p+10", 2),
            ("0x1.ec9b8ab3a5836p+9", 2),
            ("0x1.e003bba28dd11p+9", 14),
        ),
        center_ids=(387, 267, 421, 439, 367, 381),
        fl_trace=(
            ("0x1.e003bba28dd11p+9", 1),
            ("0x1.be576e1574d40p+9", 1),
            ("0x1.bdd2bca79aa6dp+9", 5),
        ),
        cost="0x1.bdd2bca79aa6dp+9",
        bound_ratio="0x1.d9293af813e62p-1",
    ),
    "blobs-d2-sampled": Golden(
        ls_trace=(
            ("0x1.01e947cd2fbcfp+15", 1),
            ("0x1.e10b244c6cf05p+14", 2),
            ("0x1.bfc972acbdf01p+14", 2),
            ("0x1.bd1d433b71cacp+14", 4),
            ("0x1.a845b25453d34p+14", 3),
            ("0x1.a043d4af053dcp+14", 1),
            ("0x1.9f1484007206ep+14", 1),
            ("0x1.97262d68e4f24p+14", 2),
            ("0x1.96671677d584cp+14", 6),
            ("0x1.8499658379d65p+14", 14),
            ("0x1.7b1e65e21ace8p+14", 5),
        ),
        center_ids=(2070, 1707, 2780, 1224, 2853, 611, 1788, 476, 2708),
        fl_trace=(
            ("0x1.7b1e65e21ace8p+14", 1),
            ("0x1.4ecfb33c5dc46p+14", 1),
            ("0x1.4d94b29c26fb2p+14", 1),
            ("0x1.4d3da34be2004p+14", 1),
            ("0x1.4d1ba74948d0dp+14", 1),
            ("0x1.4d051e1234da1p+14", 1),
            ("0x1.4cfd2698cd812p+14", 1),
        ),
        cost="0x1.4cfd2698cd812p+14",
        bound_ratio="0x1.0b76c7f40c7d4p+0",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_outputs_match_golden(name):
    want = GOLDENS[name]
    ds, delta, k = _instance(name)
    sol, trace = fk.run(ds, delta, fk.LsConfig(k=k, iterations=40, seed=7))
    refined, fl = fk.flloyd_run(ds, sol, cfg=fk.FlConfig(iterations=6))
    assert _hex_runs([trace.initial_cost, *trace.costs]) == want.ls_trace
    assert tuple(sol.center_ids.tolist()) == want.center_ids
    assert _hex_runs(fl) == want.fl_trace
    assert fk.cost(ds, refined.center_pos).hex() == want.cost
    assert fk.bound_ratio(ds, delta, refined.center_pos)[0].hex() == want.bound_ratio
