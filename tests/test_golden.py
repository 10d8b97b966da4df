"""Golden regression: exact outputs of three small seeded instances.

The values are ``float.hex`` strings and must be reproduced bit for bit.
``GOLDENS`` was recorded before the batched distance kernel replaced the
per-center loops: the local-search cost trace, the final center ids, the
refinement cost trace, ``metrics.cost`` and ``bound_ratio``.
``VANILLA_GOLDENS`` was recorded while ``baselines.lloyd`` still had its own
loop, apart from the refinement's: the cost trace and final center
positions of ``vanilla_kmeans`` (D^2 seeding plus Lloyd with its
``rel_tol`` stop).  All instances have d <= 2,
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


@dataclass(frozen=True)
class VanillaGolden:
    trace: tuple[tuple[str, int], ...]
    positions: tuple[tuple[str, ...], ...]


VANILLA_GOLDENS = {
    "line-d1": VanillaGolden(
        trace=(("0x1.32cd3f54c7dbbp+8", 1), ("0x1.07e964b52c5a4p+7", 2)),
        positions=(
            ("0x1.7e52a676030a9p+3",),
            ("-0x1.1da0ec580f47fp+3",),
            ("0x1.f522e2f4035c5p+1",),
            ("-0x1.065a458c91013p-3",),
        ),
    ),
    "blobs-d2-exact": VanillaGolden(
        trace=(
            ("0x1.8c99912629f20p+10", 1),
            ("0x1.c36eae60c0bfap+9", 1),
            ("0x1.bd121cba784f3p+9", 1),
            ("0x1.bac0d7d1d2cc5p+9", 1),
            ("0x1.ba3c316ff0f88p+9", 1),
            ("0x1.b9db9749f7964p+9", 1),
            ("0x1.b9d197ae4f89dp+9", 2),
        ),
        positions=(
            ("-0x1.726d1c9dcce3cp+1", "-0x1.5671f3f4f1133p+0"),
            ("0x1.9e187e3dbd15bp+2", "0x1.ca23ef0c4ddafp+1"),
            ("-0x1.d40026d07add4p+1", "0x1.600add08bd139p+2"),
            ("-0x1.76ff0979a7186p+2", "0x1.0bbb123ab8e76p+3"),
            ("-0x1.26ad544d375afp+2", "-0x1.4c64ae4d257e5p+0"),
            ("0x1.6bd58c5ebde34p+0", "0x1.ae91a1ad6263ep+2"),
        ),
    ),
    "blobs-d2-sampled": VanillaGolden(
        trace=(
            ("0x1.634f6c6ad1d14p+15", 1),
            ("0x1.7875bb61f279fp+14", 1),
            ("0x1.6b4a9caeecdd5p+14", 1),
            ("0x1.68bfe1e9d0377p+14", 1),
            ("0x1.68022edacf61bp+14", 1),
            ("0x1.67e42cbaf1578p+14", 1),
            ("0x1.67ddf8e1e8131p+14", 1),
            ("0x1.67da8ca28df85p+14", 1),
            ("0x1.67d9bb99987dfp+14", 1),
            ("0x1.67d8e62f0f163p+14", 1),
            ("0x1.67d2b7b6072d1p+14", 1),
            ("0x1.67c3e330e5023p+14", 1),
            ("0x1.67c0190dec2a5p+14", 1),
            ("0x1.67bbfe3f20b08p+14", 1),
            ("0x1.67b4c8a184aa7p+14", 1),
            ("0x1.67a7dbde445aep+14", 1),
            ("0x1.679e6cb35473cp+14", 1),
            ("0x1.6799aaf329bf0p+14", 1),
            ("0x1.6794286ff8a2fp+14", 1),
            ("0x1.678e100812d07p+14", 1),
            ("0x1.677b0907e8d72p+14", 1),
            ("0x1.676050712f99fp+14", 1),
            ("0x1.6731a3e1bb68cp+14", 1),
            ("0x1.66e9ef9b117c4p+14", 1),
            ("0x1.66a138fa32548p+14", 1),
            ("0x1.666f29b17d3e9p+14", 1),
            ("0x1.6633ef73bd19ap+14", 1),
            ("0x1.661593aba18e7p+14", 1),
            ("0x1.660fecedfad19p+14", 1),
            ("0x1.660d4c60b88dbp+14", 1),
            ("0x1.660c708c97447p+14", 1),
            ("0x1.660c161d71917p+14", 2),
        ),
        positions=(
            ("-0x1.eac259f3e0573p+1", "0x1.42ccaefd83492p+4"),
            ("-0x1.1441db40ab666p+4", "-0x1.57183cb529e22p+2"),
            ("0x1.989cd18dff800p+4", "0x1.d951602718886p+1"),
            ("0x1.32b9bad62a87bp+4", "-0x1.77e23e491f110p+4"),
            ("-0x1.3cb1e83a93a27p+3", "-0x1.15ed6f7bbb4cep+4"),
            ("-0x1.0f2b8ac00d380p+4", "-0x1.a0875953734c3p+3"),
            ("0x1.2254d229d4964p+4", "-0x1.fcdcc3cbb37bbp+3"),
            ("0x1.4836a3ca56199p+4", "0x1.03f77a150bdc0p+1"),
            ("0x1.2c317bb82a9b9p+4", "-0x1.8e4346d866921p+3"),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(VANILLA_GOLDENS))
def test_vanilla_kmeans_matches_golden(name):
    want = VANILLA_GOLDENS[name]
    ds, _, k = _instance(name)
    positions, trace = fk.vanilla_kmeans(ds, k, 7)
    assert _hex_runs(trace) == want.trace
    assert tuple(tuple(v.hex() for v in row) for row in positions.tolist()) == want.positions
