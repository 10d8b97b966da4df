"""Experiment harness: dataset prep, repeated seeded trials, reporting.

A run loads a CSV, optionally normalizes and subsamples it, computes radius
bounds, then executes independent trials of the selected algorithm with seeds
``base_seed + i``.  Wall time is measured per trial and excludes preparation.
The report is JSON (the stable interface) plus a cosmetic text table; all
non-timing fields are deterministic for a given config and seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import metrics
from ._dist import fsum
from .dataset import (
    EXACT_RADII_RECOMMENDED_MAX,
    Dataset,
    RadiusBounds,
    _check_integer,
    compute_radii,
    load_points,
    normalize,
    subsample,
)
from .baselines import greedy_baseline, vanilla_kmeans
from .errors import InfeasibleInstanceError
from .local_search import LsConfig, run
from .refine import FlConfig, flloyd_run

ALGORITHMS = ("lspp", "greedy", "vanilla")


@dataclass
class ExperimentConfig:
    """One experiment: input, preprocessing, algorithm, and trial plan.

    ``delta_mode`` is ``"exact"``, ``"sampled:<m>"``, or None to pick exact
    radii up to 50,000 points and a 1000-point sample above that.  With
    ``eval_on_full`` set and a subsample in use, solutions are solved on the
    sample but scored on the full dataset, against radii recomputed on the
    full dataset.
    """

    input_path: str | Path
    columns: Sequence[int] | None = None
    header: bool = False
    normalize: bool = False
    sample: int | None = None
    k: int = 10
    gamma: float = 3.0
    iterations: int = 500
    flloyd_iters: int = 20
    delta_mode: str | None = None
    algorithm: str = "lspp"
    trials: int = 10
    seed: int = 0
    out: str | Path | None = None
    eval_on_full: bool = False

    def validate(self) -> None:
        """Every field is checked here, before the CSV is opened, whatever
        the algorithm, and each error names the field: k, gamma, iterations
        and seed by the search config the trials use, whose fields have the
        same names.  An ``out`` in a missing directory names both, and an
        ``out`` that is a directory is an error too."""
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        _check_integer("trials", self.trials, 1)
        _check_integer("flloyd_iters", self.flloyd_iters, 0)
        if self.sample is not None:
            _check_integer("sample", self.sample, 1)
        if self.delta_mode is not None:
            parse_delta_mode(self.delta_mode)
        self._stages(self.seed)[0].validate()
        if self.out is not None:
            out = Path(self.out)
            if not out.parent.is_dir():
                raise ValueError(
                    f"out={str(out)!r}: directory {str(out.parent)!r} does not exist"
                )
            if out.is_dir():
                raise ValueError(f"out={str(out)!r} is a directory")

    def _stages(self, seed: int) -> tuple[LsConfig, FlConfig]:
        """The search and refinement configs of the trial seeded ``seed``."""
        return (
            LsConfig(k=self.k, gamma=self.gamma, iterations=self.iterations, seed=seed),
            FlConfig(iterations=self.flloyd_iters),
        )


@dataclass
class TrialRecord:
    trial: int
    seed: int
    feasible: bool
    wall_time_seconds: float
    kmeans_cost: float | None = None
    kmedian_cost: float | None = None
    bound_ratio: float | None = None
    bound_witness: int | None = None
    accepted_swaps: int | None = None
    cost_trace: list[float] = field(default_factory=list)
    flloyd_cost_trace: list[float] | None = None
    error: str | None = None
    anchors_needed: int | None = None


@dataclass
class ExperimentReport:
    """A run's dataset sizes and trial records.  ``feasible_trials`` and
    ``aggregates`` are read off the trials: ``aggregates`` maps each
    aggregated field to the mean and population std over the feasible
    trials that have it, or to None when none has it.  An infinite value
    (a bound ratio over a zero radius) gives mean inf and std nan, which the
    JSON report writes as the strings "inf" and "nan"."""

    config: dict
    n: int
    d: int
    n_full: int
    trials: list[TrialRecord]

    @property
    def feasible_trials(self) -> int:
        return sum(t.feasible for t in self.trials)

    @property
    def aggregates(self) -> dict:
        ok = [t for t in self.trials if t.feasible]
        aggregates = {}
        for key in ("kmeans_cost", "kmedian_cost", "bound_ratio", "wall_time_seconds", "accepted_swaps"):
            vals = [getattr(t, key) for t in ok if getattr(t, key) is not None]
            # inf - inf in the std of infinite values is nan, as documented
            with np.errstate(invalid="ignore"):
                aggregates[key] = (
                    None if not vals else {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
                )
        return aggregates

    def to_dict(self) -> dict:
        return _jsonable(
            {
                "config": self.config,
                "dataset": {"n": self.n, "d": self.d, "n_full": self.n_full},
                "trials": [dataclasses.asdict(t) for t in self.trials],
                "aggregates": self.aggregates,
                "feasible_trials": self.feasible_trials,
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def text_table(self) -> str:
        head = (
            f"algorithm={self.config['algorithm']} k={self.config['k']} "
            f"gamma={self.config['gamma']} n={self.n} d={self.d} "
            f"trials={len(self.trials)}"
        )
        cols = "trial  seed  feasible  kmeans_cost  kmedian_cost  bound_ratio  swaps    time_s"
        lines = [head, cols]
        aggregates = self.aggregates
        for t in self.trials:
            if t.feasible:
                lines.append(
                    f"{t.trial:5d}  {t.seed:4d}  {'yes':>8}  {t.kmeans_cost:11.4f}  "
                    f"{t.kmedian_cost:12.4f}  {_fmt(t.bound_ratio):>11}  "
                    f"{_fmt_int(t.accepted_swaps):>5}  {t.wall_time_seconds:8.3f}"
                )
            else:
                lines.append(
                    f"{t.trial:5d}  {t.seed:4d}  {'no':>8}  {t.error or 'infeasible'}"
                )
        for name in ("mean", "std"):
            # every aggregated field is a key, None when no trial has it
            agg = {key: _fmt((entry or {}).get(name)) for key, entry in aggregates.items()}
            lines.append(
                f"{name:>5}  {'':4}  {'':8}  {agg['kmeans_cost']:>11}  {agg['kmedian_cost']:>12}  "
                f"{agg['bound_ratio']:>11}  {agg['accepted_swaps']:>5}  "
                f"{agg['wall_time_seconds']:>8}"
            )
        return "\n".join(lines)


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.4f}"


def _fmt_int(x) -> str:
    return "-" if x is None else str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def parse_delta_mode(mode: str) -> tuple[str, int]:
    """Parse "exact" or "sampled:<m>" into (mode, sample_size)."""
    if mode == "exact":
        return "exact", 0
    if mode.startswith("sampled:"):
        try:
            m = int(mode.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad delta mode {mode!r}; use exact or sampled:<m>") from None
        _check_integer("sample_size", m, 1)
        return "sampled", m
    raise ValueError(f"bad delta mode {mode!r}; use exact or sampled:<m>")


def _resolve_delta(cfg: ExperimentConfig, ds: Dataset) -> RadiusBounds:
    spec = cfg.delta_mode
    if spec is None:
        spec = "exact" if ds.n <= EXACT_RADII_RECOMMENDED_MAX else "sampled:1000"
    mode, m = parse_delta_mode(spec)
    return compute_radii(ds, cfg.k, mode=mode, sample_size=m, seed=cfg.seed)


def _run_trial(cfg: ExperimentConfig, ds: Dataset, delta: RadiusBounds | None, trial: int):
    """Returns (center positions, ls trace list, flloyd trace list or None,
    accepted swap count or None).  ``delta`` is None only for vanilla
    trials, which read no radii."""
    tseed = cfg.seed + trial
    if cfg.algorithm == "vanilla":
        positions, trace = vanilla_kmeans(ds, cfg.k, tseed)
        return positions, trace.tolist(), None, None
    if cfg.algorithm == "greedy":
        sol = greedy_baseline(ds, delta, cfg.gamma, cfg.k, tseed)
        return sol.center_pos, [sol.total_cost], None, None
    ls_cfg, fl_cfg = cfg._stages(tseed)
    sol, trace = run(ds, delta, ls_cfg)
    ls_trace = [trace.initial_cost] + trace.costs.tolist()
    fl_trace = None
    if cfg.flloyd_iters > 0:
        sol, fl = flloyd_run(ds, sol, cfg=fl_cfg)
        fl_trace = fl.tolist()
    return sol.center_pos, ls_trace, fl_trace, trace.accepted_count


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Prep the dataset, run all trials, aggregate, and write the report."""
    cfg.validate()
    ds_full = load_points(cfg.input_path, columns=cfg.columns, header=cfg.header)
    if cfg.normalize:
        ds_full = normalize(ds_full)
    if cfg.sample is not None and cfg.sample < ds_full.n:
        ds = subsample(ds_full, cfg.sample, cfg.seed)
    else:
        ds = ds_full
    on_full = cfg.eval_on_full and ds is not ds_full
    # a vanilla trial reads no radii, so the solving set needs them only
    # when it is also the scoring set
    delta = None
    if cfg.algorithm != "vanilla" or not on_full:
        delta = _resolve_delta(cfg, ds)
    eval_ds, eval_delta = (ds_full, _resolve_delta(cfg, ds_full)) if on_full else (ds, delta)

    records: list[TrialRecord] = []
    for i in range(cfg.trials):
        t0 = time.perf_counter()
        try:
            positions, ls_trace, fl_trace, swaps = _run_trial(cfg, ds, delta, i)
        except InfeasibleInstanceError as exc:
            records.append(
                TrialRecord(
                    trial=i,
                    seed=cfg.seed + i,
                    feasible=False,
                    wall_time_seconds=time.perf_counter() - t0,
                    error=str(exc),
                    anchors_needed=exc.anchors_needed,
                )
            )
            continue
        wall = time.perf_counter() - t0
        # one nearest-center pass scores the trial: the same bits as
        # metrics.cost (p = 2 and p = 1) and metrics.bound_ratio
        sq, dist, (ratio, witness) = metrics._score(eval_ds, positions, eval_delta)
        records.append(
            TrialRecord(
                trial=i,
                seed=cfg.seed + i,
                feasible=True,
                wall_time_seconds=wall,
                kmeans_cost=fsum(sq),
                kmedian_cost=fsum(dist),
                bound_ratio=ratio,
                bound_witness=witness,
                accepted_swaps=swaps,
                cost_trace=ls_trace,
                flloyd_cost_trace=fl_trace,
            )
        )

    config_dict = dataclasses.asdict(cfg)
    if config_dict["columns"] is not None:
        config_dict["columns"] = list(config_dict["columns"])
    report = ExperimentReport(
        config=_jsonable(config_dict),
        n=ds.n,
        d=ds.d,
        n_full=ds_full.n,
        trials=records,
    )
    if cfg.out is not None:
        Path(cfg.out).write_text(report.to_json() + "\n")
    return report
