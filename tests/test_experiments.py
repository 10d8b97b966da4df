import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairkmeans.cli as cli
import fairkmeans.experiments as experiments
import fairkmeans.metrics as metrics
from fairkmeans import (
    ExperimentConfig,
    InfeasibleInstanceError,
    bound_ratio,
    compute_radii,
    cost,
    load_points,
    run,
    run_experiment,
)
from fairkmeans.cli import main
from fairkmeans.experiments import parse_delta_mode


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    rng = np.random.default_rng(1)
    comps = rng.uniform(-6, 6, size=(4, 2))
    pts = comps[rng.integers(0, 4, 300)] + rng.normal(0, 0.5, (300, 2))
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    np.savetxt(path, pts, delimiter=",", header="x,y", comments="")
    return path


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if "wall_time" not in k}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def base_config(blob_csv, **kw):
    defaults = dict(
        input_path=blob_csv,
        header=True,
        k=4,
        iterations=120,
        flloyd_iters=5,
        trials=2,
        seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_deterministic_reports(self, blob_csv):
        a = run_experiment(base_config(blob_csv))
        b = run_experiment(base_config(blob_csv))
        assert strip_timing(a.to_dict()) == strip_timing(b.to_dict())

    def test_report_fields(self, blob_csv, tmp_path):
        out = tmp_path / "report.json"
        rep = run_experiment(base_config(blob_csv, out=out))
        data = json.loads(out.read_text())
        assert data["dataset"]["n"] == 300
        assert data["feasible_trials"] == 2
        trial = data["trials"][0]
        for key in (
            "seed",
            "kmeans_cost",
            "kmedian_cost",
            "bound_ratio",
            "wall_time_seconds",
            "cost_trace",
            "accepted_swaps",
            "flloyd_cost_trace",
        ):
            assert key in trial
        agg = data["aggregates"]["kmeans_cost"]
        costs = [t["kmeans_cost"] for t in data["trials"]]
        assert agg["mean"] == pytest.approx(np.mean(costs))
        assert agg["std"] == pytest.approx(np.std(costs))

    def test_search_beats_greedy_on_fixture(self, blob_csv):
        ls = run_experiment(base_config(blob_csv, trials=4, algorithm="lspp"))
        greedy = run_experiment(base_config(blob_csv, trials=4, algorithm="greedy"))
        assert (
            ls.aggregates["kmeans_cost"]["mean"]
            <= greedy.aggregates["kmeans_cost"]["mean"]
        )

    def test_vanilla_runs(self, blob_csv):
        rep = run_experiment(base_config(blob_csv, algorithm="vanilla", trials=2))
        assert rep.feasible_trials == 2
        assert rep.trials[0].accepted_swaps is None

    def test_trials_report_the_search_counts(self, blob_csv):
        # a search trial's counts are its RunTrace's; trials without a
        # search have none, and no count is aggregated or tabled
        counts = ("rejected_inadmissible", "rejected_no_gain", "certified")
        cfg = base_config(blob_csv)
        rep = run_experiment(cfg)
        ds = load_points(blob_csv, header=True)
        delta = compute_radii(ds, cfg.k)
        for trial in rep.trials:
            _, trace = run(ds, delta, cfg._stages(trial.seed)[0])
            assert trial.accepted_swaps == trace.accepted_count
            assert [getattr(trial, c) for c in counts] == [getattr(trace, c) for c in counts]
            rejected = trial.rejected_inadmissible + trial.rejected_no_gain
            assert trial.accepted_swaps + rejected == cfg.iterations
        assert sum(t.rejected_no_gain for t in rep.trials) > 0
        assert not set(counts) & set(rep.aggregates)
        assert all(c not in rep.text_table() for c in counts)
        assert strip_timing(run_experiment(cfg).to_dict()) == strip_timing(rep.to_dict())
        for algorithm in ("vanilla", "greedy"):
            other = run_experiment(base_config(blob_csv, algorithm=algorithm))
            for trial in other.trials:
                assert [getattr(trial, c) for c in counts] == [None, None, None]

    def test_subsample_and_eval_on_full(self, blob_csv):
        rep = run_experiment(
            base_config(blob_csv, sample=80, eval_on_full=True, trials=2)
        )
        assert rep.n == 80 and rep.n_full == 300
        # scored against all 300 points, so the cost exceeds any 80-point cost
        sample_only = run_experiment(base_config(blob_csv, sample=80, trials=2))
        assert (
            rep.aggregates["kmeans_cost"]["mean"]
            > sample_only.aggregates["kmeans_cost"]["mean"]
        )

    @pytest.mark.parametrize(
        "algorithm, sample, eval_on_full, sizes",
        [
            ("vanilla", 80, True, [300]),
            ("vanilla", 80, False, [80]),
            ("vanilla", None, True, [300]),
            ("lspp", 80, True, [80, 300]),
            ("greedy", 80, True, [80, 300]),
            ("lspp", None, True, [300]),
        ],
    )
    def test_radii_computed_only_where_read(
        self, blob_csv, monkeypatch, algorithm, sample, eval_on_full, sizes
    ):
        # a vanilla trial reads no radii; the scoring set's are computed once
        seen = []
        original = experiments.compute_radii

        def recording(ds, *args, **kwargs):
            seen.append(ds.n)
            return original(ds, *args, **kwargs)

        monkeypatch.setattr(experiments, "compute_radii", recording)
        cfg = base_config(
            blob_csv, algorithm=algorithm, sample=sample, eval_on_full=eval_on_full, trials=1
        )
        run_experiment(cfg)
        assert seen == sizes

    def test_vanilla_sample_below_k_named(self, blob_csv):
        # the trial names the fault the sample's unread radii used to name
        cfg = base_config(blob_csv, algorithm="vanilla", sample=3, eval_on_full=True)
        with pytest.raises(ValueError, match=r"k=4 must be in \[1, 3\]"):
            run_experiment(cfg)

    def test_sampled_delta_mode(self, blob_csv):
        rep = run_experiment(base_config(blob_csv, delta_mode="sampled:40", trials=1))
        assert rep.feasible_trials == 1

    def test_infeasible_trials_recorded(self, blob_csv, monkeypatch):
        def boom(*args, **kwargs):
            raise InfeasibleInstanceError(7, 4)

        monkeypatch.setattr(experiments, "run", boom)
        rep = run_experiment(base_config(blob_csv, trials=2))
        assert rep.feasible_trials == 0
        assert rep.trials[0].anchors_needed == 7
        assert rep.aggregates["kmeans_cost"] is None

    def test_bad_config(self, blob_csv):
        with pytest.raises(ValueError):
            run_experiment(base_config(blob_csv, trials=0))
        with pytest.raises(ValueError):
            run_experiment(base_config(blob_csv, algorithm="magic"))

    @pytest.mark.parametrize("algorithm", experiments.ALGORITHMS)
    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("gamma", math.inf, ValueError, "gamma must be a finite number above 2"),
            ("gamma", 1.0, ValueError, "gamma must be a finite number above 2"),
            ("trials", 2.5, TypeError, "trials must be an integer, got 2.5"),
            ("sample", 20.0, TypeError, "sample must be an integer, got 20.0"),
            ("k", 4.0, TypeError, "k must be an integer, got 4.0"),
            ("flloyd_iters", 2.5, TypeError, "flloyd_iters must be an integer, got 2.5"),
            ("flloyd_iters", -1, ValueError, "flloyd_iters=-1 must be at least 0"),
            ("seed", -1, ValueError, "seed=-1 must be at least 0"),
            ("seed", 1.5, TypeError, "seed must be an integer, got 1.5"),
            (
                "out",
                "no-such-directory/report.json",
                ValueError,
                "out='no-such-directory/report.json': "
                "directory 'no-such-directory' does not exist",
            ),
            ("out", ".", ValueError, "out='.' is a directory"),
        ],
        ids=[
            "gamma-inf", "gamma-1", "trials-float", "sample-float", "k-float",
            "flloyd-iters-float", "flloyd-iters-negative", "seed-negative", "seed-float",
            "out-missing-directory", "out-directory",
        ],
    )
    def test_config_checked_before_reading(self, tmp_path, algorithm, field, value, error, message):
        # each used to pass validation and fail only at the missing file
        cfg = ExperimentConfig(
            input_path=tmp_path / "missing.csv", algorithm=algorithm, **{field: value}
        )
        with pytest.raises(error, match=message):
            run_experiment(cfg)

    def test_one_scoring_pass_per_trial(self, blob_csv, monkeypatch):
        # greedy trials make no other nearest-center pass, so every call is
        # scoring; the report equals the public metrics bit for bit
        original = metrics.nearest
        seen = []

        def recording(points, centers):
            seen.append(centers.copy())
            return original(points, centers)

        monkeypatch.setattr(metrics, "nearest", recording)
        rep = run_experiment(base_config(blob_csv, algorithm="greedy", trials=3))
        monkeypatch.undo()
        assert len(seen) == 3
        ds = load_points(blob_csv, header=True)
        delta = compute_radii(ds, 4)
        for trial, centers in zip(rep.trials, seen):
            assert trial.kmeans_cost == cost(ds, centers, p=2)
            assert trial.kmedian_cost == cost(ds, centers, p=1)
            assert (trial.bound_ratio, trial.bound_witness) == bound_ratio(ds, delta, centers)

    def test_infinite_ratio_written_as_string(self):
        # JSON has no infinity; the README promises the string "inf"
        trial = experiments.TrialRecord(
            trial=0, seed=0, feasible=True, wall_time_seconds=0.0, bound_ratio=math.inf
        )
        # the aggregates are the report's own, read off the trial under the
        # suite's error::RuntimeWarning filter
        report = experiments.ExperimentReport({}, 2, 1, 2, [trial])
        assert report.feasible_trials == 1
        data = json.loads(report.to_json())
        assert data["trials"][0]["bound_ratio"] == "inf"
        assert data["aggregates"]["bound_ratio"] == {"mean": "inf", "std": "nan"}

    def test_infinite_vanilla_ratio_aggregated(self, tmp_path):
        # 12 copies of the origin hold ceil(24/2) points, so their radius is
        # 0; vanilla's center of that cluster is the mean of the copies and
        # two neighbours, off the origin, so each trial's ratio is inf.  The
        # std of infinite ratios used to warn "invalid value encountered in
        # subtract", an error under this suite's filter
        pts = np.zeros((24, 2))
        pts[12:14, 0] = [0.1, -0.3]
        pts[14:, 0] = 100 + np.arange(10)
        path = tmp_path / "copies.csv"
        np.savetxt(path, pts, delimiter=",")
        rep = run_experiment(ExperimentConfig(input_path=path, k=2, algorithm="vanilla", trials=2))
        assert [t.bound_ratio for t in rep.trials] == [math.inf, math.inf]
        assert json.loads(rep.to_json())["aggregates"]["bound_ratio"] == {"mean": "inf", "std": "nan"}

    def test_numpy_config_round_trip(self, blob_csv, tmp_path):
        # numpy scalars and arrays in the config are written as JSON
        # numbers and lists, the same report the CLI writes from its flags
        out = tmp_path / "numpy.json"
        cfg = base_config(
            blob_csv, k=np.int64(4), gamma=np.float64(3.0), columns=np.array([0, 1]), out=out
        )
        rep = run_experiment(cfg)
        data = json.loads(rep.to_json())
        assert json.loads(out.read_text()) == data
        assert (data["config"]["k"], data["config"]["gamma"]) == (4, 3.0)
        assert data["config"]["columns"] == [0, 1]
        direct = experiments.ExperimentReport({"columns": np.array([0, 1])}, 2, 1, 2, [])
        assert json.loads(direct.to_json())["config"] == {"columns": [0, 1]}
        flags = ["--input", str(blob_csv), "--header", "--k", "4", "--gamma", "3.0",
                 "--columns", "0,1", "--iterations", "120", "--flloyd-iters", "5",
                 "--trials", "2", "--seed", "3", "--out", str(tmp_path / "cli.json")]
        assert main(flags) == 0
        from_cli = json.loads((tmp_path / "cli.json").read_text())
        from_cli["config"]["out"] = data["config"]["out"]
        assert strip_timing(from_cli) == strip_timing(data)

    def test_parse_delta_mode(self):
        assert parse_delta_mode("exact") == ("exact", 0)
        assert parse_delta_mode("sampled:50") == ("sampled", 50)
        with pytest.raises(ValueError):
            parse_delta_mode("sampled:x")
        with pytest.raises(ValueError):
            parse_delta_mode("other")


class TestCli:
    def test_defaults_come_from_config(self, monkeypatch):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise ValueError("stop")

        monkeypatch.setattr(cli, "run_experiment", capture)
        assert main(["--input", "x.csv"]) == 1
        assert seen == [ExperimentConfig(input_path="x.csv")]

    def test_module_entry_point(self, blob_csv):
        # as users run it: a fresh interpreter through __main__.py
        src = str(Path(cli.__file__).resolve().parents[1])
        paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        command = [sys.executable, "-m", "fairkmeans"]
        shown = subprocess.run([*command, "--help"], env=env, capture_output=True, text=True)
        assert shown.returncode == 0, shown.stderr
        assert shown.stdout.startswith("usage: fair-kmeans")
        flags = ["--input", str(blob_csv), "--header", "--k", "3", "--iterations", "20",
                 "--flloyd-iters", "2", "--trials", "2", "--seed", "5"]
        ran = subprocess.run([*command, *flags], env=env, capture_output=True, text=True)
        assert ran.returncode == 0, ran.stderr
        report = json.loads(ran.stdout)
        assert len(report["trials"]) == report["feasible_trials"] == 2
        assert "kmeans_cost" in ran.stderr

    def test_success_exit_zero(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(
            [
                "--input", str(blob_csv),
                "--header",
                "--k", "4",
                "--iterations", "60",
                "--trials", "1",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["feasible_trials"] == 1
        table = capsys.readouterr().err
        assert "kmeans_cost" in table

    def test_json_to_stdout_without_out(self, blob_csv, capsys):
        rc = main(
            ["--input", str(blob_csv), "--header", "--k", "3", "--iterations",
             "20", "--trials", "1", "--flloyd-iters", "0"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["k"] == 3

    def test_columns_flag(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("1,9,2\n3,9,4\n1,9,0\n5,9,1\n")
        rc = main(
            ["--input", str(path), "--columns", "0,2", "--k", "2",
             "--iterations", "10", "--trials", "1", "--flloyd-iters", "0"]
        )
        assert rc == 0

    def test_negative_column_is_fatal(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("1,9,2\n3,9,4\n1,9,0\n5,9,1\n")
        rc = main(["--input", str(path), "--columns", "-1", "--k", "2"])
        assert rc == 1
        assert "column -1 is negative" in capsys.readouterr().err

    def test_bad_columns_value_is_fatal(self, capsys):
        assert main(["--input", "x.csv", "--columns", "a,b"]) == 1
        assert "bad --columns value 'a,b'" in capsys.readouterr().err

    def test_negative_flloyd_iters_names_the_flag(self, tmp_path, capsys):
        # it used to be reported as a complaint about "iterations"
        rc = main(["--input", str(tmp_path / "missing.csv"), "--flloyd-iters", "-1"])
        assert rc == 1
        assert "flloyd_iters=-1 must be at least 0" in capsys.readouterr().err

    def test_over_size_field_is_fatal(self, tmp_path, capsys):
        # csv's own error used to escape as a traceback
        path = tmp_path / "wide.csv"
        path.write_text("1,2\n3," + "0" * 140_000 + "\n")
        assert main(["--input", str(path), "--k", "1"]) == 1
        assert "row 2: field larger than field limit (131072)" in capsys.readouterr().err

    def test_missing_file_is_fatal(self, tmp_path):
        rc = main(["--input", str(tmp_path / "nope.csv"), "--k", "2"])
        assert rc == 1

    def test_infinite_gamma_is_fatal(self, blob_csv, capsys):
        rc = main(
            ["--input", str(blob_csv), "--header", "--k", "4", "--gamma", "inf",
             "--iterations", "10", "--trials", "1", "--flloyd-iters", "0"]
        )
        assert rc == 1
        assert "gamma must be a finite number above 2" in capsys.readouterr().err

    def test_bad_usage_is_fatal(self):
        assert main(["--k", "2"]) == 1
        assert main(["--input", "x.csv", "--algorithm", "magic"]) == 1

    def test_infeasible_exit_two(self, blob_csv, monkeypatch):
        def boom(*args, **kwargs):
            raise InfeasibleInstanceError(9, 4)

        monkeypatch.setattr(experiments, "run", boom)
        rc = main(
            ["--input", str(blob_csv), "--header", "--k", "4",
             "--trials", "1", "--out", "/dev/null"]
        )
        assert rc == 2

    def test_normalize_flag(self, blob_csv, tmp_path):
        out = tmp_path / "norm.json"
        rc = main(
            ["--input", str(blob_csv), "--header", "--normalize", "--k", "3",
             "--iterations", "30", "--trials", "1", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["config"]["normalize"] is True
