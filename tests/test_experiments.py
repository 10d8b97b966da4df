import json

import numpy as np
import pytest

import fairkmeans.cli as cli
import fairkmeans.experiments as experiments
from fairkmeans import ExperimentConfig, InfeasibleInstanceError, run_experiment
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
