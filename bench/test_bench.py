"""Tests of the benchmark itself, on shrunk workloads.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
from workloads import GAMMA, WORKLOADS, make_points

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCALE = "0.02"
# Seed that was never used while the benchmark was built.
HELD_OUT_SEED = 7919


def varies_between_runs(name: str, unit: str) -> bool:
    return unit in ("s", "ms", "pairs/s", "MB") or name == "trace.overhead_frac"


def bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", SCALE],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def test_spec_lists_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_shrunk_workload_is_correct_and_repeats(workload, trace):
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    results = []
    for _ in range(2):
        result, text = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert list(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert metric["unit"] and isinstance(metric["value"], (int, float))
            assert f"  {name} " in text
        results.append(result)

    def fixed(result):
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if not varies_between_runs(name, m["unit"])
        }

    assert fixed(results[0]) == fixed(results[1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_is_feasible(workload):
    import fairkmeans as fk

    w = WORKLOADS[workload]
    ds = fk.Dataset(make_points(w, HELD_OUT_SEED))
    if w.harness:
        ds = fk.subsample(fk.normalize(ds), w.sample, HELD_OUT_SEED)
    delta = run.radii(fk, w, ds, HELD_OUT_SEED)
    assert len(fk.seed(ds, delta, GAMMA)) <= w.k
