"""Benchmark of the fair k-means pipeline, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload blobs-80k --seed 1 --seconds 20 --trace 0

One run sets the workload up several times (fresh ``fairkmeans`` import,
input generation, ``Dataset`` or CSV), then solves the same seeded
instance repeatedly for ``--seconds`` seconds.  A solve runs radii, seeding,
search, refinement and scoring (for the ``csv-harness`` workload: one
``run_experiment`` call with the fair solver and one with the vanilla
baseline).

``--trace 0`` times untraced solves through the library's top-level calls
and prints the end-to-end metrics.  ``--trace 1`` spends half the time on
untraced solves and half on traced ones, which drive the pipeline through
its public calls one layer at a time with a span around each call, and
prints the per-layer metrics.  Spans never nest, so a span's duration is
its layer's self time.  The search loop is replayed step by step on a copy
of the generator, outside the spans, to classify every rejection.  So that
every workload reaches every layer, a traced in-process solve also loads
the points back from an exactly written CSV, normalizes them, solves them
once more through ``run_experiment`` (whose trial must match the traced
solve bit for bit) and runs one vanilla k-means trial; these probes are not
part of the traced solve time that ``trace.overhead_frac`` compares.

Every solve passes a correctness gate: the 2*gamma service bound, monotone
search and refinement cost traces, ``metrics.cost`` equal to the solution's
cached cost to 1e-9 relative (where the benchmark holds the solution: not
inside the harness), and outputs bit-identical to the first solve of the
run (a traced solve must match ``fairkmeans.run``, and a traced harness
trial rebuilt from public calls must match the harness report).  A solve
that raises or fails the gate counts as failed, and the run exits with 1.
``solved_frac`` is the share of solves that passed, 1 - failed/attempted.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import GAMMA, WORKLOADS, Workload, make_points

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Set-up repeats until it has taken SETUP_SECONDS and at least SETUP_MIN_REPS
# times, at most SETUP_MAX_REPS; its median is setup_s.
SETUP_SECONDS = 1.0
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 25
MIN_SOLVES = 2  # a median, and a second solve to compare against the first
ASSIGN_PROBES = 3
SLACK = 1 + 1e-9  # float headroom on the 2*gamma bound, as in the library

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "kmeans_cost": "cost",
    "bound_ratio": "ratio",
    "solved_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dataset.load_s": "s",
    "dataset.normalize_s": "s",
    "dataset.radii_s": "s",
    "dataset.radii_pairs": "count",
    "dataset.radii_pairs_per_s": "pairs/s",
    "anchors.seed_s": "s",
    "anchors.count": "count",
    "local_search.init_s": "s",
    "local_search.search_s": "s",
    "local_search.steps": "count",
    "local_search.accepted": "count",
    "local_search.accept_ratio": "frac",
    "local_search.step_ms_accepted": "ms",
    "local_search.step_ms_rejected": "ms",
    "local_search.sample_ms": "ms",
    "local_search.swap_eval_ms": "ms",
    "local_search.reject_is_center": "count",
    "local_search.reject_inadmissible": "count",
    "local_search.reject_no_gain": "count",
    "refine.total_s": "s",
    "refine.rounds": "count",
    "refine.round_ms": "ms",
    "refine.assign_ms": "ms",
    "refine.cost_drop_frac": "frac",
    "metrics.cost_s": "s",
    "metrics.bound_ratio_s": "s",
    "experiments.run_s": "s",
    "experiments.prep_s": "s",
    "experiments.trial_s": "s",
    "baselines.vanilla_trial_s": "s",
    "baselines.lloyd_rounds": "count",
    "trace.overhead_frac": "frac",
}

REJECT_REASONS = ("is_center", "inadmissible", "no_gain")

# Spans of the pipeline itself, as opposed to the harness and baseline probes.
SOLVE_SPANS = (
    "dataset.radii",
    "anchors.seed",
    "local_search.init",
    "local_search.accept",
    "local_search.reject",
    "refine.flloyd",
    "metrics.cost",
    "metrics.bound_ratio",
)

# Per-layer metrics that are deterministic per seed and must repeat exactly.
EXACT_LAYER_METRICS = (
    "dataset.radii_pairs",
    "anchors.count",
    "local_search.steps",
    "local_search.accepted",
    "local_search.accept_ratio",
    "local_search.reject_is_center",
    "local_search.reject_inadmissible",
    "local_search.reject_no_gain",
    "refine.rounds",
    "refine.cost_drop_frac",
    "baselines.lloyd_rounds",
)


class Tracer:
    """Spans (name, start, end) recorded around calls into the library."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end in self.spans if n == name]

    def total(self, *names: str) -> float:
        return sum(end - start for n, start, end in self.spans if n in names)


class NoTrace:
    """Stand-in for :class:`Tracer` in untraced solves."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


@dataclass
class Outcome:
    """What one solve produced; two solves of one seed must agree exactly.

    ``outputs`` holds every non-timing output, ``traces`` the cost traces
    that must never increase, ``pairs`` (cost from ``metrics.cost``, cost
    cached on the solution) pairs that must agree to 1e-9 relative.
    """

    outputs: dict
    traces: list
    pairs: list
    kmeans_cost: float
    bound_ratios: list


def radii_mode(fk, w: Workload, n: int) -> str:
    if w.radii != "auto":
        return w.radii
    return "exact" if n <= fk.dataset.EXACT_RADII_RECOMMENDED_MAX else "sampled"


def radii_pairs(fk, w: Workload, n: int) -> int:
    """Distance evaluations one radius computation makes: n x reference rows."""
    return n * (n if radii_mode(fk, w, n) == "exact" else min(w.refs, n))


def radii(fk, w: Workload, ds, seed: int):
    return fk.compute_radii(ds, w.k, mode=radii_mode(fk, w, ds.n), sample_size=w.refs, seed=seed)


def solve(fk, w: Workload, ds, seed: int) -> Outcome:
    """Untraced solve through the top-level calls."""
    delta = radii(fk, w, ds, seed)
    sol, trace = fk.run(ds, delta, fk.LsConfig(k=w.k, gamma=GAMMA, iterations=w.steps, seed=seed))
    refined, fl = fk.flloyd_run(ds, sol, cfg=fk.FlConfig(iterations=w.rounds))
    kcost = fk.cost(ds, refined.center_pos)
    ratio, _ = fk.bound_ratio(ds, delta, refined.center_pos)
    return solve_outcome(
        sol.center_ids, trace.initial_cost, trace.costs, trace.accepted, refined, fl, kcost, ratio
    )


def solve_outcome(ls_ids, initial, costs, accepted, refined, fl, kcost, ratio) -> Outcome:
    ls_trace = np.concatenate([[initial], costs])
    return Outcome(
        outputs={
            "ls_ids": ls_ids.tolist(),
            "ls_trace": ls_trace.tolist(),
            "accepted": accepted.tolist(),
            "centers": refined.center_pos.tolist(),
            "fl_trace": fl.tolist(),
            "kmeans_cost": kcost,
            "bound_ratio": ratio,
        },
        traces=[ls_trace, fl],
        pairs=[(kcost, refined.total_cost)],
        kmeans_cost=kcost,
        bound_ratios=[ratio],
    )


def replay_step(fk, sol, rng, times: dict) -> str:
    """Why the next ``ls_step`` will accept or reject, found with the public
    ``d2_sample``/``swap_costs`` on a copy of the generator (read-only)."""
    probe = copy.deepcopy(rng)
    start = time.perf_counter()
    p = fk.d2_sample(sol, probe)
    times["sample"].append(time.perf_counter() - start)
    if p in sol.center_ids:
        return "is_center"
    start = time.perf_counter()
    new_costs, admissible = fk.swap_costs(sol, p)
    times["swap_eval"].append(time.perf_counter() - start)
    if not admissible.any():
        return "inadmissible"
    if not new_costs[admissible].min() < sol.total_cost:
        return "no_gain"
    return "accepted"


def traced_fair_solve(fk, w: Workload, tr: Tracer, ds, delta, seed: int):
    """Seeding, init, the ``ls_step`` loop and refinement, one span per call.

    Seeded exactly as ``fairkmeans.run`` seeds its single restart, so the
    result must be bit-identical to it.  Returns the ``solve_outcome``
    arguments before scoring, and the per-layer counts and probe timings.
    """
    with tr.span("anchors.seed"):
        anchors = fk.seed(ds, delta, GAMMA)
    with tr.span("local_search.init"):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        sol = fk.init_solution(ds, anchors, w.k, rng)
    initial = sol.total_cost
    costs = np.empty(w.steps)
    accepted = np.zeros(w.steps, dtype=bool)
    reasons = Counter()
    probe_times = {"sample": [], "swap_eval": []}
    for i in range(w.steps):
        reason = replay_step(fk, sol, rng, probe_times)
        with tr.span("local_search.accept" if reason == "accepted" else "local_search.reject"):
            sol, took = fk.ls_step(sol, anchors, rng)
        if took != (reason == "accepted"):
            raise AssertionError(f"step {i}: replay predicted {reason}, ls_step took={took}")
        reasons[reason] += 1
        costs[i] = sol.total_cost
        accepted[i] = took
    ls_ids = sol.center_ids.copy()
    with tr.span("refine.flloyd"):
        refined, fl = fk.flloyd_run(ds, sol, cfg=fk.FlConfig(iterations=w.rounds))
    assign_times = []
    for _ in range(ASSIGN_PROBES):
        start = time.perf_counter()
        fk.assign(ds, refined.center_pos)
        assign_times.append(time.perf_counter() - start)
    layer = {
        "anchors.count": len(anchors),
        "local_search.steps": w.steps,
        "local_search.accepted": int(accepted.sum()),
        "local_search.accept_ratio": float(accepted.mean()),
        "local_search.sample_ms": 1e3 * median(probe_times["sample"]),
        "local_search.swap_eval_ms": 1e3 * median(probe_times["swap_eval"]),
        "refine.rounds": len(fl) - 1,
        "refine.assign_ms": 1e3 * median(assign_times),
        "refine.cost_drop_frac": float((fl[0] - fl[-1]) / fl[0]),
    }
    for r in REJECT_REASONS:
        layer[f"local_search.reject_{r}"] = reasons[r]
    if sum(reasons[r] for r in REJECT_REASONS) != w.steps - layer["local_search.accepted"]:
        raise AssertionError("rejection counts do not sum to steps - accepted")
    parts = {
        "ls_ids": ls_ids,
        "initial": initial,
        "costs": costs,
        "accepted": accepted,
        "refined": refined,
        "fl": fl,
    }
    return parts, layer


def span_layers(tr: Tracer) -> dict:
    """Per-layer times from the spans of one traced solve."""
    steps_acc = tr.durations("local_search.accept")
    steps_rej = tr.durations("local_search.reject")
    return {
        "dataset.load_s": tr.total("dataset.load"),
        "dataset.normalize_s": tr.total("dataset.normalize"),
        "dataset.radii_s": tr.total("dataset.radii"),
        "anchors.seed_s": tr.total("anchors.seed"),
        "local_search.init_s": tr.total("local_search.init"),
        "local_search.search_s": sum(steps_acc) + sum(steps_rej),
        "local_search.step_ms_accepted": 1e3 * median(steps_acc),
        "local_search.step_ms_rejected": 1e3 * median(steps_rej),
        "refine.total_s": tr.total("refine.flloyd"),
        "metrics.cost_s": tr.total("metrics.cost"),
        "metrics.bound_ratio_s": tr.total("metrics.bound_ratio"),
    }


def traced_solve(fk, w: Workload, ds, csv_path: Path, seed: int):
    """Returns (outcome, traced solve seconds, per-layer metrics)."""
    tr = Tracer()
    with tr.span("dataset.radii"):
        delta = radii(fk, w, ds, seed)
    parts, layer = traced_fair_solve(fk, w, tr, ds, delta, seed)
    centers = parts["refined"].center_pos
    with tr.span("metrics.cost"):
        kcost = fk.cost(ds, centers)
    with tr.span("metrics.bound_ratio"):
        ratio, _ = fk.bound_ratio(ds, delta, centers)
    out = solve_outcome(**parts, kcost=kcost, ratio=ratio)

    with tr.span("dataset.load"):
        loaded = fk.load_points(csv_path)
    with tr.span("dataset.normalize"):
        fk.normalize(loaded)  # timed only: the solves use raw coordinates
    delta_mode = "exact" if w.radii == "exact" else f"sampled:{w.refs}"
    cfg = fk.ExperimentConfig(
        input_path=csv_path,
        k=w.k,
        gamma=GAMMA,
        iterations=w.steps,
        flloyd_iters=w.rounds,
        delta_mode=delta_mode,
        trials=1,
        seed=seed,
    )
    with tr.span("experiments.run"):
        report = fk.run_experiment(cfg)
    check_trial(report.trials[0], out.outputs)
    with tr.span("baselines.vanilla"):
        _, lloyd_trace = fk.vanilla_kmeans(ds, w.k, seed)

    run_s = tr.total("experiments.run")
    trial_s = report.trials[0].wall_time_seconds
    layer.update(span_layers(tr))
    layer.update(
        {
            "dataset.radii_pairs": radii_pairs(fk, w, ds.n),
            "experiments.run_s": run_s,
            "experiments.prep_s": run_s - trial_s,
            "experiments.trial_s": trial_s,
            "baselines.vanilla_trial_s": tr.total("baselines.vanilla"),
            "baselines.lloyd_rounds": len(lloyd_trace) - 1,
        }
    )
    return out, tr.total(*SOLVE_SPANS), layer


def check_trial(trial, outputs: dict) -> None:
    """A harness trial must equal the solve driven through public calls."""
    if (
        trial.kmeans_cost != outputs["kmeans_cost"]
        or trial.bound_ratio != outputs["bound_ratio"]
        or trial.cost_trace != outputs["ls_trace"]
        or trial.flloyd_cost_trace != outputs["fl_trace"]
    ):
        raise AssertionError("harness trial differs from the public-call solve")


def experiment_config(fk, w: Workload, csv_path: Path, seed: int, algorithm: str):
    return fk.ExperimentConfig(
        input_path=csv_path,
        normalize=True,
        sample=w.sample,
        eval_on_full=True,
        k=w.k,
        gamma=GAMMA,
        iterations=w.steps,
        flloyd_iters=w.rounds,
        trials=w.trials,
        seed=seed,
        algorithm=algorithm,
    )


def without_timing(report) -> dict:
    data = report.to_dict()
    for trial in data["trials"]:
        del trial["wall_time_seconds"]
    del data["aggregates"]["wall_time_seconds"]
    return data


def harness_calls(fk, w: Workload, csv_path: Path, seed: int, tr=NoTrace):
    """One fair and one vanilla ``run_experiment`` call on the CSV."""
    with tr.span("experiments.run"):
        fair = fk.run_experiment(experiment_config(fk, w, csv_path, seed, "lspp"))
    with tr.span("baselines.run"):
        vanilla = fk.run_experiment(experiment_config(fk, w, csv_path, seed, "vanilla"))
    return fair, vanilla


def harness_outcome(fair, vanilla) -> Outcome:
    traces = []
    for t in fair.trials:
        if not t.feasible:
            raise AssertionError(f"trial {t.trial} infeasible: {t.error}")
        traces += [np.asarray(t.cost_trace), np.asarray(t.flloyd_cost_trace)]
    traces += [np.asarray(t.cost_trace) for t in vanilla.trials]
    return Outcome(
        outputs={"lspp": without_timing(fair), "vanilla": without_timing(vanilla)},
        traces=traces,
        pairs=[],
        kmeans_cost=fair.aggregates["kmeans_cost"]["mean"],
        bound_ratios=[t.bound_ratio for t in fair.trials],
    )


def harness_solve(fk, w: Workload, csv_path: Path, seed: int) -> Outcome:
    return harness_outcome(*harness_calls(fk, w, csv_path, seed))


def traced_harness_solve(fk, w: Workload, csv_path: Path, seed: int):
    """Trial 0 of the harness rebuilt from public calls, spans around each,
    then the two harness calls themselves.  The rebuilt trial must match
    the harness report exactly.  Returns (outcome, traced solve seconds,
    per-layer metrics); the solve seconds cover the harness calls only."""
    tr = Tracer()
    with tr.span("dataset.load"):
        full = fk.load_points(csv_path)
    with tr.span("dataset.normalize"):
        full = fk.normalize(full)
    ds = fk.subsample(full, w.sample, seed)
    with tr.span("dataset.radii"):
        delta = radii(fk, w, ds, seed)
    with tr.span("dataset.radii"):
        full_delta = radii(fk, w, full, seed)
    parts, layer = traced_fair_solve(fk, w, tr, ds, delta, seed)
    refined = parts["refined"]
    sample_cost = fk.cost(ds, refined.center_pos)
    with tr.span("metrics.cost"):
        kcost = fk.cost(full, refined.center_pos)
    with tr.span("metrics.bound_ratio"):
        ratio, _ = fk.bound_ratio(full, full_delta, refined.center_pos)
    fair, vanilla = harness_calls(fk, w, csv_path, seed, tr)
    out = harness_outcome(fair, vanilla)
    check_trial(fair.trials[0], solve_outcome(**parts, kcost=kcost, ratio=ratio).outputs)
    out.pairs.append((sample_cost, refined.total_cost))

    fair_walls = [t.wall_time_seconds for t in fair.trials]
    run_s = tr.total("experiments.run")
    layer.update(span_layers(tr))
    layer.update(
        {
            "dataset.radii_pairs": radii_pairs(fk, w, ds.n) + radii_pairs(fk, w, full.n),
            "experiments.run_s": run_s,
            "experiments.prep_s": run_s - sum(fair_walls),
            "experiments.trial_s": median(fair_walls),
            "baselines.vanilla_trial_s": median([t.wall_time_seconds for t in vanilla.trials]),
            "baselines.lloyd_rounds": sum(len(t.cost_trace) - 1 for t in vanilla.trials),
        }
    )
    return out, tr.total("experiments.run", "baselines.run"), layer


def gate(out: Outcome, first: Outcome | None) -> list[str]:
    """Correctness problems of one solve; empty when it passes."""
    problems = []
    limit = 2 * GAMMA * SLACK
    for ratio in out.bound_ratios:
        if not ratio <= limit:
            problems.append(f"bound ratio {ratio} above {2 * GAMMA}")
    for trace in out.traces:
        if np.any(np.diff(trace) > 0):
            problems.append("a cost trace increases")
    for scored, cached in out.pairs:
        if abs(scored - cached) > 1e-9 * max(1.0, abs(scored)):
            problems.append(f"metrics.cost {scored} differs from Solution.total_cost {cached}")
    if first is not None and out.outputs != first.outputs:
        problems.append("outputs differ from the first solve of this seed")
    return problems


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def set_up(w: Workload, seed: int, csv_path: Path):
    """Fresh ``fairkmeans`` import, inputs from the seed, and the Dataset
    (the CSV file instead for the harness).  Returns (fk, ds, seconds)."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "fairkmeans" or m.startswith("fairkmeans.")]:
        del sys.modules[name]
    fk = importlib.import_module("fairkmeans")
    points = make_points(w, seed)
    ds = None
    if w.harness:
        np.savetxt(csv_path, points, fmt="%.9g", delimiter=",")
    else:
        ds = fk.Dataset(points)
    return fk, ds, time.perf_counter() - start


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Solves of one workload and seed, and the gate's verdicts on them."""

    def __init__(self, fk, w: Workload, ds, csv_path: Path, seed: int):
        self.fk, self.w, self.ds, self.csv_path, self.seed = fk, w, ds, csv_path, seed
        self.first: Outcome | None = None
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """Run and gate one solve; returns (seconds, fn's result), or None
        when the solve raised or failed the gate."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = fn(self.fk, self.w, *args, self.seed)
            seconds = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        out = result[0] if isinstance(result, tuple) else result
        problems = gate(out, self.first)
        if problems:
            print(f"solve {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        if self.first is None:
            self.first = out
        return seconds, result

    def untraced(self, seconds: float, min_solves: int) -> list[float]:
        fn, data = (harness_solve, self.csv_path) if self.w.harness else (solve, self.ds)
        times = []
        start = time.perf_counter()
        while len(times) < min_solves or time.perf_counter() - start < seconds:
            done = self.attempt(fn, data)
            if done is None:
                break
            times.append(done[0])
        return times

    def traced(self, seconds: float) -> tuple[list[float], list[dict]]:
        if self.w.harness:
            fn, data = traced_harness_solve, (self.csv_path,)
        else:
            # round-trip exact, so the harness sees the very same points
            np.savetxt(self.csv_path, self.ds.points, fmt="%.17g", delimiter=",")
            fn, data = traced_solve, (self.ds, self.csv_path)
        times, layers = [], []
        start = time.perf_counter()
        while not layers or time.perf_counter() - start < seconds:
            done = self.attempt(fn, *data)
            if done is None:
                break
            _, solve_s, layer = done[1]
            changed = [n for n in EXACT_LAYER_METRICS if layers and layer.get(n) != layers[0].get(n)]
            if changed:
                print(f"solve {self.attempted} failed: {changed} differ between traced solves", file=sys.stderr)
                self.failed += 1
                break
            times.append(solve_s)
            layers.append(layer)
        return times, layers


def per_layer_metrics(layers: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Medians of times over traced solves; exact metrics from the first
    (``Run.traced`` has checked that they repeat)."""
    out = {name: 0 for name in PER_LAYER}
    for name in PER_LAYER:
        values = [layer[name] for layer in layers if name in layer]
        if values:
            out[name] = values[0] if name in EXACT_LAYER_METRICS else median(values)
    if out["dataset.radii_s"] > 0:
        out["dataset.radii_pairs_per_s"] = out["dataset.radii_pairs"] / out["dataset.radii_s"]
    if out["refine.rounds"] > 0:
        out["refine.round_ms"] = 1e3 * out["refine.total_s"] / out["refine.rounds"]
    if untraced_s > 0:
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink the workload (n, steps, rounds) by this factor; for testing the benchmark",
    )
    return p.parse_args(argv)


def bench(w: Workload, args, csv_path: Path) -> int:
    setups = []
    while len(setups) < SETUP_MIN_REPS or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPS
    ):
        fk, ds, seconds = set_up(w, args.seed, csv_path)
        setups.append(seconds)
    runner = Run(fk, w, ds, csv_path, args.seed)

    if args.trace:
        times = runner.untraced(args.seconds / 2, 1)
        traced_times, layers = runner.traced(args.seconds / 2) if times else ([], [])
        metrics = per_layer_metrics(layers, median(times), median(traced_times))
        names = PER_LAYER
    else:
        times = runner.untraced(args.seconds, MIN_SOLVES)
        first = runner.first
        metrics = {
            "setup_s": median(setups),
            "solve_s": median(times),
            "kmeans_cost": first.kmeans_cost if first else 0.0,
            "bound_ratio": max(first.bound_ratios) if first else 0.0,
            "solved_frac": (runner.attempted - runner.failed) / runner.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = END_TO_END

    info = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "why": w.why,
        "params": w.params(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_sha(),
        "setup_s_samples": [round(t, 4) for t in setups],
        "solve_s_samples": [round(t, 4) for t in times],
    }
    print("info " + json.dumps(info, sort_keys=True))
    for name, unit in names.items():
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    correct = runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload].scaled(args.scale)
    src = ROOT / "src"
    if not (src / "fairkmeans" / "__init__.py").is_file():
        print(f"bench: no fairkmeans sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    csv_path = BENCH_DIR / "_data" / f"{w.name}-{os.getpid()}.csv"
    csv_path.parent.mkdir(exist_ok=True)
    try:
        return bench(w, args, csv_path)
    finally:
        csv_path.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
