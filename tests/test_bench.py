"""Benchmark harness: artifacts, aggregation, determinism, failure handling, CLI."""

import csv
import json
import os
import re
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hyperbo
import hyperbo.bench as bench
from hyperbo.bench import (
    ConfigError,
    ExperimentConfig,
    ReportError,
    build_task,
    emit_reports,
    load_config,
    run_experiment,
)
from hyperbo.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def ls_config(tmp_path, **overrides):
    base = dict(
        task={"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 40, "seed": 7},
        mode="length_scale",
        trials=2,
        m=1,
        K=2,
        budget=4,
        seed=100,
        strategies=("standard_bo", "hyperbo"),
        output_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


class TestConfigValidation:
    def test_best_theta_rerun_requires_hyperbo(self, tmp_path):
        with pytest.raises(ConfigError, match="requires the hyperbo"):
            ls_config(tmp_path, strategies=("standard_bo", "best_theta_rerun"))

    def test_budget_must_be_multiple_of_k(self, tmp_path):
        with pytest.raises(ConfigError, match="multiple of K"):
            ls_config(tmp_path, budget=5)

    def test_gold_standard_needs_theta(self, tmp_path):
        with pytest.raises(ConfigError, match="needs a gold_standard_theta"):
            ls_config(tmp_path, strategies=("standard_bo", "gold_standard_theta"))

    def test_unknown_strategy(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown strategies"):
            ls_config(tmp_path, strategies=("something",))

    def test_unknown_engine_key(self, tmp_path):
        # All but "bogus" were engine overrides once; they are module constants now.
        keys = ("bogus", "thompson_subsample", "regularization", "default_length_scale", "signal_variance", "noise_variance")
        for key in keys:
            with pytest.raises(ConfigError, match="unknown engine overrides"):
                ls_config(tmp_path, engine={key: 1})

    @pytest.mark.parametrize(
        "override",
        [
            {"budget": "30"},
            {"trials": 2.5},
            {"m": True},
            {"K": None},
            {"seed": "0"},
            {"seed": -1},
            {"workers": 1.0},
            {"discovery_budget": "8"},
            {"K": 0},
            {"strategies": ["standard_bo", "gold_standard_theta"], "gold_standard_theta": ["a"]},
            {"strategies": ["standard_bo", "gold_standard_theta"], "gold_standard_theta": 0.3},
            {"engine": {"ucb_delta": "x"}},
            {"engine": {"ucb_delta": 0}},
            {"engine": {"ucb_delta": None}},
            {"engine": []},
            {"task": {"kind": "gp_sample", "dim": "x", "length_scale": 0.3}},
            {"task": {"kind": "gp_sample", "length_scale": 0.3}},
            {"task": {"kind": "goldstein_price", "pool_size": -5}},
            {"task": {"kind": "goldstein_price", "pool_size": 0}},
            {"task": {"kind": "gp_sample", "dim": 1.9, "length_scale": 0.3}},
            {"task": {"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 2.7}},
            {"task": {"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "seed": True}},
            {"task": {"kind": "gp_sample", "dim": 1, "length_scale": True}},
            {"task": {"kind": "gp_sample", "dim": 1, "length_scale": float("nan")}},
            {"engine": {"ucb_delta": float("inf")}},
            # Integers past float range: each raised OverflowError where it became a float.
            pytest.param(
                {"strategies": ["standard_bo", "gold_standard_theta"], "gold_standard_theta": [10**400]},
                id="gold_standard_theta [10**400]",
            ),
            pytest.param({"task": {"kind": "gp_sample", "dim": 1, "length_scale": 10**400}}, id="length_scale 10**400"),
            pytest.param({"engine": {"ucb_delta": 10**400}}, id="ucb_delta 10**400"),
            # A beta that overflows to inf: at the first step from 17 pi^2 / (6 delta),
            # and at the last step (t = 4) only from 17 * 16 pi^2 / (6 delta).
            {"engine": {"ucb_delta": 1e-308}},
            {"engine": {"ucb_delta": 1e-306}},
            # 17 first-step UCB candidates (20 rows less 3 initial): beta_1 < 0 from 17 pi^2 / 6 = 27.96 on.
            {"engine": {"ucb_delta": 28.0}},
            {"engine": {"ucb_delta": 100.0}},
            {"task": {"kind": "goldstein_price", "pool_sise": 7}},
            {"task": {"kind": ["goldstein_price"]}},
            {"workers": 0},
            {"workers": -3},
            {"discovery_budget": 0, "strategies": ["standard_bo"]},
            {"strategies": ["hyperbo", "hyperbo"]},
            {"strategies": 5},
            {"output_dir": 5},
            {"task": 5},
            # hyperbo's 4 samples in windows of K = 2 leave 2 windows for a random phase of 3.
            {"m": 3},
        ],
        ids=lambda override: json.dumps(override),
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, override):
        path = tmp_path / "cfg.json"
        raw = {
            "task": {"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 20, "seed": 1},
            "mode": "length_scale",
            "trials": 1,
            "m": 1,
            "K": 2,
            "budget": 4,
            "output_dir": str(tmp_path / "run"),
        }
        path.write_text(json.dumps({**raw, **override}))
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 0

    @pytest.mark.parametrize(
        "override",
        [
            {"engine": {"ucb_delta": -(10**300)}},
            {"task": {"kind": "gp_sample", "dim": 1, "length_scale": 10**400}},
            {"strategies": ["standard_bo", "gold_standard_theta"], "gold_standard_theta": [10**400] * 50},
            {"strategies": ["standard_bo"] * 500},
            {"mode": "x" * 5000},
            {"engine": {"y" * 5000: 1}},
            {"z" * 5000: 1},
            {"task": {"kind": "dataset", "path": "data.csv", "target": "y", "features": ["a" * 5000]}},
            {"task": {"kind": "dataset", "path": "data.csv", "target": "y" * 5000}},
            {"task": {"kind": "dataset", "path": "data.csv", "target": "y", "filters": [{"type": "x" * 5000}]}},
            {
                "task": {
                    "kind": "dataset",
                    "path": "data.csv",
                    "target": "y",
                    "filters": [{"type": "drop_max_target_in_low_quantile", "column": "a", "quantile": -(10**300)}],
                }
            },
        ],
        ids=lambda override: json.dumps(override)[:60],
    )
    def test_a_config_error_echoes_a_huge_value_in_short(self, tmp_path, capsys, monkeypatch, override):
        # Echoed in full, a -10**300 ucb_delta made a 365-character message.  A
        # shortened echo shows at most six list items of at most 40 characters.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("a,y\n1,2\n3,4\n")
        raw = {
            "task": {"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 20, "seed": 1},
            "mode": "length_scale",
            "trials": 1,
            "m": 1,
            "K": 2,
            "budget": 4,
            "output_dir": "run",
        }
        (tmp_path / "cfg.json").write_text(json.dumps({**raw, **override}))
        assert cli_main(["validate", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err) <= 350

    @pytest.mark.parametrize("below", ["", "run"], ids=["the-file", "under-the-file"])
    def test_output_dir_over_an_existing_file_is_a_config_error(self, tmp_path, capsys, monkeypatch, below):
        # Unchecked, validate passed and run died with FileExistsError at mkdir.
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        path = tmp_path / "cfg.json"
        raw = {
            "task": {"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 20, "seed": 1},
            "mode": "length_scale",
            "trials": 1,
            "m": 1,
            "K": 2,
            "budget": 4,
            "output_dir": str(taken / below),
        }
        path.write_text(json.dumps(raw))
        monkeypatch.setattr(bench, "_run_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="is not a directory"):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("setting", ["output_dir", "HYPERBO_OUTPUT_DIR"])
    def test_an_empty_output_location_is_a_config_error(self, tmp_path, capsys, monkeypatch, setting):
        # Path("") is the working directory: unchecked, run removed an earlier run's file names there.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        for name in ("manifest.json", "aggregate.csv", "report.csv", "trace_hyperbo_trial000.csv"):
            (cwd / name).write_text(f"not a run's {name}\n")
        before = {p.name: p.read_bytes() for p in cwd.iterdir()}
        path = tmp_path / "cfg.json"
        raw = {
            "task": {"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 20, "seed": 1},
            "mode": "length_scale",
            "trials": 1,
            "m": 1,
            "K": 2,
            "budget": 4,
            "output_dir": "" if setting == "output_dir" else str(tmp_path / "run"),
        }
        path.write_text(json.dumps(raw))
        if setting == "HYPERBO_OUTPUT_DIR":
            monkeypatch.setenv(setting, "")
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(bench, "_run_trial", lambda *args: pytest.fail("a trial ran"))
        for command in ("validate", "run"):
            assert cli_main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and setting in err
        assert {p.name: p.read_bytes() for p in cwd.iterdir()} == before
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text", [None, '{"mode": '], ids=["missing", "invalid-json"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_ucb_delta_below_the_first_step_bound_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        raw = {
            "task": {"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 20, "seed": 1},
            "mode": "length_scale",
            "trials": 1,
            "m": 1,
            "K": 2,
            "budget": 4,
            "output_dir": str(tmp_path / "run"),
            "engine": {"ucb_delta": 27.0},
        }
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 0
        assert cli_main(["run", str(path)]) == 0

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": {"kind": "goldstein_price"}, "mode": "monotonicity", "budget": 4, "output_dir": "x", "zzz": 1}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(str(path))

    def test_load_config_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "monotonicity"}))
        with pytest.raises(ConfigError, match="missing required"):
            load_config(str(path))

    def test_missing_dataset_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            build_task({"kind": "dataset", "path": str(tmp_path / "nope.csv"), "target": "y"})
        with pytest.raises(ConfigError, match="does not exist"):  # a directory is no dataset file
            build_task({"kind": "dataset", "path": str(tmp_path), "target": "y"})

    def test_malformed_dataset_file(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,y\n1,2\nfoo,3\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            build_task({"kind": "dataset", "path": str(data), "target": "y"})

    @pytest.mark.parametrize(
        "csv_text, features",
        [("a,y\n1,2\n3,4\n", []), ("y\n2\n4\n", None)],
        ids=["empty-feature-list", "target-only-file"],
    )
    def test_dataset_without_features_is_a_config_error(self, tmp_path, capsys, csv_text, features):
        data = tmp_path / "data.csv"
        data.write_text(csv_text)
        path = tmp_path / "cfg.json"
        task = {"kind": "dataset", "path": str(data), "target": "y", "features": features}
        raw = {"task": task, "mode": "monotonicity", "budget": 2, "strategies": ["standard_bo"], "output_dir": str(tmp_path / "run")}
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="no feature columns"):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "override",
        [
            {"path": 1},
            {"filters": "x"},
            {"filters": [1]},
            {"features": ["a", "y"]},
            {"features": ["a", "a"]},
            {"filters": [{"type": "drop_max_target_in_low_quantile", "column": "b"}]},
            {"filters": [{"type": "drop_max_target_in_low_quantile", "column": "a", "quantile": True}]},
            {"filters": [{"type": "drop_max_target_in_low_quantile", "column": "a", "quantile": "0.5"}]},
            {"filters": [{"type": "keep_first_max_only", "junk": 1}]},
            {"filters": [{"type": "drop_max_target_in_low_quantile"}]},
        ],
        ids=json.dumps,
    )
    def test_malformed_dataset_task_is_a_config_error(self, tmp_path, capsys, override):
        data = tmp_path / "data.csv"
        data.write_text("a,y\n1,2\n3,4\n")
        path = tmp_path / "cfg.json"
        task = {"kind": "dataset", "path": str(data), "target": "y", **override}
        raw = {"task": task, "mode": "monotonicity", "budget": 2, "strategies": ["standard_bo"], "output_dir": str(tmp_path / "run")}
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("csv_text", ["a,y\n1,2\nnan,4\n", "a,y\n1,2\n3,inf\n"], ids=["nan-feature", "inf-target"])
    def test_non_finite_dataset_cell_is_a_config_error(self, tmp_path, capsys, csv_text):
        # Unchecked, a nan feature failed every trial of a run that validate
        # passed, and an inf target made a run whose regrets read inf.
        data = tmp_path / "data.csv"
        data.write_text(csv_text)
        path = tmp_path / "cfg.json"
        task = {"kind": "dataset", "path": str(data), "target": "y", "n_initial": 1}
        raw = {"task": task, "mode": "monotonicity", "budget": 1, "strategies": ["standard_bo"], "output_dir": str(tmp_path / "run")}
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="line 3: column '[ay]' holds '(nan|inf)', not a finite number"):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    def test_a_dataset_column_whose_range_overflows_is_a_config_error(self, tmp_path, capsys):
        # Unchecked, validate printed ok and run reported every trial a success over a NaN pool coordinate.
        data = tmp_path / "data.csv"
        data.write_text("x,z,y\n1e308,0.5,1\n-1e308,0.2,2\n0,0.1,3\n5,0.9,4\n")
        path = tmp_path / "cfg.json"
        task = {"kind": "dataset", "path": str(data), "target": "y", "n_initial": 1}
        raw = {"task": task, "mode": "monotonicity", "budget": 1, "strategies": ["standard_bo"], "output_dir": str(tmp_path / "run")}
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert "column 'x' has a range past float range" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("features", ["ab", ["a", 1]], ids=json.dumps)
    def test_features_must_be_a_list_of_column_names(self, tmp_path, capsys, features):
        # A string would otherwise be read as its characters: "ab" as the columns a and b.
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n1,2,3\n4,5,6\n")
        path = tmp_path / "cfg.json"
        task = {"kind": "dataset", "path": str(data), "target": "y", "features": features}
        raw = {"task": task, "mode": "monotonicity", "budget": 2, "strategies": ["standard_bo"], "output_dir": str(tmp_path / "run")}
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="features must be a list of column names"):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        task["features"] = ["a", "b"]
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 0

    def test_integer_dataset_path_is_a_config_error(self, tmp_path):
        # An integer path names an open file descriptor: here a write-only one, which cannot be read.
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        try:
            with pytest.raises(ConfigError, match="does not exist"):
                build_task({"kind": "dataset", "path": fd, "target": "y"})
        finally:
            os.close(fd)

    @pytest.mark.parametrize("text", ["5", "[]", '"config"'])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_task_kind(self):
        with pytest.raises(ConfigError, match="unknown task kind"):
            build_task({"kind": "mystery"})

    @pytest.mark.parametrize(
        "theta",
        [[-6, 0], [-6, 0, 0, -6, 0, 0], [-2.5, 0, 0, -6], [-7, 0, 0, -6], [-6, -6, 0, 0]],
        ids=["too-short", "too-long", "off-grid", "out-of-range", "double-strict"],
    )
    def test_gold_standard_theta_checked_at_load(self, tmp_path, theta):
        # The 2-D Goldstein task needs one on-grid (theta_minus, theta_plus) pair per dimension.
        path = tmp_path / "cfg.json"
        raw = {
            "task": {"kind": "goldstein_price", "pool_size": 40},
            "mode": "monotonicity",
            "budget": 2,
            "strategies": ["standard_bo", "gold_standard_theta"],
            "gold_standard_theta": theta,
            "output_dir": str(tmp_path / "run"),
        }
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="gold_standard_theta"):
            load_config(str(path))
        assert cli_main(["validate", str(path)]) == 2
        raw["gold_standard_theta"] = [-6, 0, 0, -6]
        path.write_text(json.dumps(raw))
        assert load_config(str(path)).gold_standard_theta == (-6.0, 0.0, 0.0, -6.0)


class TestRunExperiment:
    def test_artifact_counts_single_strategy(self, tmp_path):
        config = ls_config(tmp_path, trials=1, strategies=("standard_bo",))
        outcome = run_experiment(config)
        assert outcome.ok
        traces = sorted(Path(outcome.output_dir).glob("trace_*.csv"))
        assert len(traces) == 1
        header, rows = read_csv(Path(outcome.output_dir) / "aggregate.csv")
        assert header == ["iteration", "mean_regret_standard_bo", "stderr_standard_bo"]
        assert len(rows) == config.budget

    def test_same_seed_shares_initial_design(self, tmp_path):
        config = ls_config(tmp_path)
        outcome = run_experiment(config)
        for trial in range(config.trials):
            first = {}
            for strategy in config.strategies:
                _, rows = read_csv(Path(outcome.output_dir) / f"trace_{strategy}_trial{trial:03d}.csv")
                first[strategy] = rows[0]  # iteration-0 row = initial-design best
            values = {tuple(v) for v in first.values()}
            assert len(values) == 1

    # Past eight trials numpy sums a column pairwise, so the aggregate must
    # reduce each column in np.mean's order; at 12 trials a summation along the
    # trial axis of the block changes a standard error in its last digit.
    @pytest.mark.parametrize("trials, discovery_budget", [(5, None), (12, 8)])
    def test_stderr_matches_statistics_oracle(self, tmp_path, trials, discovery_budget):
        config = ls_config(tmp_path, trials=trials, discovery_budget=discovery_budget)
        outcome = run_experiment(config)
        out = Path(outcome.output_dir)
        header, agg_rows = read_csv(out / "aggregate.csv")
        for name in config.strategies:
            regrets = []
            for trial in range(trials):
                _, rows = read_csv(out / f"trace_{name}_trial{trial:03d}.csv")
                regrets.append([float(r[2]) for r in rows[1 : config.budget + 1]])  # skip iteration 0
            regrets = np.array(regrets)
            assert regrets.shape == (trials, config.budget)
            mean_col = header.index(f"mean_regret_{name}")
            err_col = header.index(f"stderr_{name}")
            for it, row in enumerate(agg_rows):
                col = regrets[:, it]
                assert float(row[mean_col]) == np.mean(col)
                assert float(row[err_col]) == np.std(col, ddof=1) / np.sqrt(len(col))

    def test_byte_identical_reruns(self, tmp_path):
        config_a = ls_config(tmp_path, output_dir=str(tmp_path / "a"))
        config_b = ls_config(tmp_path, output_dir=str(tmp_path / "b"))
        out_a = run_experiment(config_a).output_dir
        out_b = run_experiment(config_b).output_dir
        for name in sorted(p.name for p in Path(out_a).glob("*.csv")):
            assert (Path(out_a) / name).read_bytes() == (Path(out_b) / name).read_bytes()

    def test_rerun_replaces_the_earlier_runs_artifacts(self, tmp_path):
        out = tmp_path / "run"
        first = ExperimentConfig(
            task={"kind": "goldstein_price", "pool_size": 60},
            mode="monotonicity",
            trials=3,
            m=1,
            K=2,
            budget=4,
            seed=3,
            strategies=("standard_bo", "hyperbo", "best_theta_rerun"),
            output_dir=str(out),
        )
        run_experiment(first)
        assert (out / "report.csv").exists() and len(list(out.glob("trace_*.csv"))) == 9
        (out / "notes.txt").write_text("kept")
        run_experiment(ls_config(tmp_path, trials=1))
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv",
            "manifest.json",
            "notes.txt",
            "trace_hyperbo_trial000.csv",
            "trace_standard_bo_trial000.csv",
        ]

    def test_gold_standard_strategy_runs(self, tmp_path):
        config = ls_config(
            tmp_path,
            strategies=("standard_bo", "gold_standard_theta"),
            gold_standard_theta=(0.3,),
        )
        outcome = run_experiment(config)
        assert outcome.ok
        assert (Path(outcome.output_dir) / "trace_gold_standard_theta_trial000.csv").exists()

    def test_failed_trials_recorded_and_threshold_enforced(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = bench.run_framework

        def flaky(task, run_cfg):
            calls["n"] += 1
            if run_cfg.seed % 2 == 0:
                raise RuntimeError("injected failure")
            return original(task, run_cfg)

        monkeypatch.setattr(bench, "run_framework", flaky)
        config = ls_config(tmp_path, trials=4, seed=100)  # seeds 100..103: half fail
        outcome = run_experiment(config)
        assert not outcome.ok
        assert outcome.failure_rates["hyperbo"] == 0.5
        manifest = json.loads((Path(outcome.output_dir) / "manifest.json").read_text())
        statuses = [tr["strategies"]["hyperbo"]["status"] for tr in manifest["trials"]]
        assert statuses.count("failed") == 2
        out = Path(outcome.output_dir)
        ok = [tr["trial"] for tr in manifest["trials"] if tr["strategies"]["hyperbo"]["status"] == "ok"]
        for tr in manifest["trials"]:
            assert (out / f"trace_hyperbo_trial{tr['trial']:03d}.csv").exists() == (tr["trial"] in ok)
        # Aggregation proceeded over the successes.
        header, rows = read_csv(out / "aggregate.csv")
        assert len(rows) == config.budget
        traces = np.array([[float(r[2]) for r in read_csv(out / f"trace_hyperbo_trial{t:03d}.csv")[1][1:]] for t in ok])
        col = header.index("mean_regret_hyperbo")
        assert [float(r[col]) for r in rows] == np.mean(traces[:, : config.budget], axis=0).tolist()

    def test_worker_pool_matches_serial_output(self, tmp_path):
        serial = run_experiment(ls_config(tmp_path, output_dir=str(tmp_path / "serial")))
        pooled = run_experiment(ls_config(tmp_path, output_dir=str(tmp_path / "pooled"), workers=2))
        a = (Path(serial.output_dir) / "aggregate.csv").read_bytes()
        b = (Path(pooled.output_dir) / "aggregate.csv").read_bytes()
        assert a == b

    def test_pooled_monotonic_run_matches_serial_bytes(self, tmp_path):
        # Pooled workers unpickle the task; their monotonic fits must take the
        # serial path, so every artifact is the same file.
        outputs = {}
        for name, workers in (("serial", 1), ("pooled", 2)):
            config = ExperimentConfig(
                task={"kind": "gp_sample", "dim": 2, "length_scale": 0.2, "n_points": 60, "seed": 3},
                mode="monotonicity",
                trials=2,
                m=2,
                K=1,
                budget=4,
                seed=40,
                strategies=("standard_bo", "hyperbo", "best_theta_rerun"),
                output_dir=str(tmp_path / name),
                workers=workers,
            )
            outcome = run_experiment(config)
            assert set(outcome.failure_rates.values()) == {0.0}
            outputs[name] = {p.name: p.read_bytes() for p in sorted(Path(outcome.output_dir).iterdir())}
        assert outputs["serial"] == outputs["pooled"]
        assert "report.csv" in outputs["serial"] and len(outputs["serial"]) == 3 * 2 + 3

    def test_pooled_workers_start_with_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with bench._worker_pool(1) as pool:
            seen = [pool.submit(os.getenv, name).result(timeout=120) for name in hyperbo.BLAS_THREAD_VARS]
        assert seen == ["1", "1", "1"]
        # The parent's environment is as it was.
        assert os.environ["OMP_NUM_THREADS"] == "4"
        assert "OPENBLAS_NUM_THREADS" not in os.environ and "MKL_NUM_THREADS" not in os.environ

    def test_trial_without_samples_holds_initial_regret(self, tmp_path):
        # Three rows and three initial samples: every strategy-trial acquires nothing.
        data = tmp_path / "three.csv"
        data.write_text("x,y\n0.0,1.0\n0.5,3.0\n1.0,2.0\n")
        config = ls_config(
            tmp_path,
            task={"kind": "dataset", "path": str(data), "target": "y", "n_initial": 3},
        )
        outcome = run_experiment(config)
        assert outcome.ok
        out = Path(outcome.output_dir)
        assert (out / "manifest.json").exists()
        header, rows = read_csv(out / "aggregate.csv")
        assert len(rows) == config.budget
        for trial in range(config.trials):
            for strategy in config.strategies:
                _, trace = read_csv(out / f"trace_{strategy}_trial{trial:03d}.csv")
                assert len(trace) == 1  # iteration 0 only
        initial = float(trace[0][2])
        for name in config.strategies:
            assert {float(r[header.index(f"mean_regret_{name}")]) for r in rows} == {initial}

    def test_best_theta_rerun_fails_when_hyperbo_scores_no_window(self, tmp_path):
        # Three rows and three initial samples: the hyperbo run scores no window, so it has no best theta.
        data = tmp_path / "three.csv"
        data.write_text("x,y\n0.0,1.0\n0.5,3.0\n1.0,2.0\n")
        config = ls_config(
            tmp_path,
            task={"kind": "dataset", "path": str(data), "target": "y", "n_initial": 3},
            strategies=("hyperbo", "best_theta_rerun"),
        )
        outcome = run_experiment(config)
        assert outcome.failure_rates == {"hyperbo": 0.0, "best_theta_rerun": 1.0}
        manifest = json.loads((Path(outcome.output_dir) / "manifest.json").read_text())
        for trial in manifest["trials"]:
            assert trial["strategies"]["hyperbo"]["best_theta"] is None
            failed = trial["strategies"]["best_theta_rerun"]
            assert failed == {"status": "failed", "error": "RuntimeError: no best theta available from the hyperbo run"}

    def test_strategies_run_in_one_order_whatever_the_config_order(self, tmp_path):
        # best_theta_rerun listed before hyperbo still reruns hyperbo's best theta.
        runs = {}
        for name, strategies in (("listed", bench.STRATEGIES[::-1]), ("ordered", bench.STRATEGIES)):
            config = ls_config(tmp_path, strategies=strategies, gold_standard_theta=(0.3,), output_dir=str(tmp_path / name))
            outcome = run_experiment(config)
            assert outcome.failure_rates == dict.fromkeys(strategies, 0.0)
            out = Path(outcome.output_dir)
            runs[name] = (
                {p.name: p.read_bytes() for p in sorted(out.glob("trace_*.csv"))},
                json.loads((out / "manifest.json").read_text())["trials"],
            )
        assert len(runs["listed"][0]) == len(bench.STRATEGIES) * 2
        assert runs["listed"] == runs["ordered"]

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("HYPERBO_OUTPUT_DIR", str(override))
        config = ls_config(tmp_path, trials=1, strategies=("standard_bo",))
        outcome = run_experiment(config)
        assert Path(outcome.output_dir) == override
        assert (override / "aggregate.csv").exists()


class TestReports:
    def mono_outcome(self, tmp_path, trials=2):
        config = ExperimentConfig(
            task={"kind": "goldstein_price", "pool_size": 60},
            mode="monotonicity",
            trials=trials,
            m=1,
            K=2,
            budget=4,
            seed=3,
            strategies=("hyperbo",),
            output_dir=str(tmp_path / "mono"),
        )
        return run_experiment(config)

    def test_monotonicity_run_emits_report(self, tmp_path):
        outcome = self.mono_outcome(tmp_path)
        header, rows = read_csv(Path(outcome.output_dir) / "report.csv")
        assert header[0] == "dimension"
        assert len(rows) == 2  # one row per input dimension
        directions = {r[6] for r in rows}
        assert directions <= {"increasing", "decreasing", "none"}

    def test_manifest_records_ep_health_deterministically(self, tmp_path):
        config = ExperimentConfig(
            task={"kind": "goldstein_price", "pool_size": 60},
            mode="monotonicity",
            trials=1,
            m=1,
            K=2,
            budget=4,
            seed=3,
            strategies=("standard_bo", "hyperbo", "best_theta_rerun"),
            output_dir=str(tmp_path / "a"),
        )
        out_a = run_experiment(config).output_dir
        config.output_dir = str(tmp_path / "b")
        out_b = run_experiment(config).output_dir
        manifest_bytes = (Path(out_a) / "manifest.json").read_bytes()
        assert manifest_bytes == (Path(out_b) / "manifest.json").read_bytes()
        payloads = json.loads(manifest_bytes)["trials"][0]["strategies"]
        # The plain-BO baseline fits no monotonic GP; every monotonicity step fits one.
        assert payloads["standard_bo"]["ep_fits"] == 0
        assert payloads["standard_bo"]["ep_sweeps"] == 0
        for name in ("hyperbo", "best_theta_rerun"):
            payload = payloads[name]
            assert payload["ep_fits"] == payload["n_samples"] == 4
            assert payload["ep_sweeps"] >= payload["ep_fits"]
            assert 0 <= payload["ep_nonconverged"] <= payload["ep_fits"]

    def test_non_monotonicity_run_skips_report(self, tmp_path, capsys):
        config = ls_config(tmp_path, trials=1)
        outcome = run_experiment(config)
        assert emit_reports(outcome.output_dir) is None
        assert "skipped" in capsys.readouterr().out
        assert not (Path(outcome.output_dir) / "report.csv").exists()

    def test_report_without_successes_errors(self, tmp_path, monkeypatch):
        def always_fail(task, run_cfg):
            raise RuntimeError("injected")

        monkeypatch.setattr(bench, "run_framework", always_fail)
        outcome = self.mono_outcome(tmp_path, trials=1)
        with pytest.raises(ReportError):
            emit_reports(outcome.output_dir)

    def test_report_on_moved_dataset_errors(self, tmp_path, capsys):
        # A dataset run's report re-reads the CSV; once it has moved, that is a report error.
        data = tmp_path / "five.csv"
        data.write_text("a,b,y\n0.0,1.0,1.0\n0.2,0.5,2.0\n0.5,0.2,4.0\n0.7,0.9,3.0\n1.0,0.0,5.0\n")
        config = ExperimentConfig(
            task={"kind": "dataset", "path": str(data), "target": "y", "n_initial": 2},
            mode="monotonicity",
            trials=1,
            m=1,
            K=1,
            budget=2,
            strategies=("hyperbo",),
            output_dir=str(tmp_path / "run"),
        )
        out = run_experiment(config).output_dir
        assert (out / "report.csv").exists()
        data.rename(tmp_path / "moved.csv")
        with pytest.raises(ReportError, match="does not exist"):
            emit_reports(out)
        assert cli_main(["report", str(out)]) == 1
        assert capsys.readouterr().err.startswith("report error:")

    def test_constant_feature_reports_no_correlation(self, tmp_path):
        # Column b is constant, so its correlation with y is undefined: report.csv writes None in both cells.
        data = tmp_path / "five.csv"
        data.write_text("a,b,y\n0.0,1.0,1.0\n0.2,1.0,2.0\n0.5,1.0,4.0\n0.7,1.0,3.0\n1.0,1.0,5.0\n")
        config = ExperimentConfig(
            task={"kind": "dataset", "path": str(data), "target": "y", "n_initial": 2},
            mode="monotonicity",
            trials=1,
            m=1,
            K=1,
            budget=2,
            strategies=("hyperbo",),
            output_dir=str(tmp_path / "run"),
        )
        header, rows = read_csv(run_experiment(config).output_dir / "report.csv")
        cells = [dict(zip(header, row)) for row in rows]
        assert [c["feature"] for c in cells] == ["a", "b"]
        assert float(cells[0]["correlation"]) > 0
        assert (cells[1]["correlation"], cells[1]["matches_correlation"]) == ("None", "None")

    def test_report_on_missing_dir_errors(self, tmp_path):
        with pytest.raises(ReportError):
            emit_reports(tmp_path / "void")

    @pytest.mark.parametrize(
        "text",
        [
            '{"config": {"mode": "monoton',
            "[]",
            "{}",
            '{"config": {}, "trials": []}',
            '{"config": {"mode": "monotonicity"}}',
            '{"config": {"mode": "monotonicity"}, "trials": [1]}',
            '{"config": {"mode": "monotonicity"}, "trials": {"a": 1}}',
            '{"config": {"mode": "monotonicity"}, "trials": [{"strategies": []}]}',
            '{"config": {"mode": "bogus"}, "trials": []}',
            '{"config": {"mode": "monotonicity", "task": 5}, "trials": []}',
        ],
    )
    def test_report_on_a_broken_manifest_errors(self, tmp_path, capsys, text):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ReportError, match="not a run manifest"):
            emit_reports(tmp_path)
        assert cli_main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("report error:")

    @pytest.mark.parametrize("best_theta", [[-7.0, 0.0, 0.0, -6.0], [-6.0, 0.0], "x"])
    def test_report_rejects_off_grid_best_theta(self, tmp_path, best_theta):
        # manifest.json is read back from disk: an edited best_theta is outside input.
        out = Path(self.mono_outcome(tmp_path, trials=1).output_dir)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["trials"][0]["strategies"]["hyperbo"]["best_theta"] = best_theta
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReportError, match="not a grid point"):
            emit_reports(out)
        assert cli_main(["report", str(out)]) == 1


class TestCli:
    def write_config(self, tmp_path, **overrides):
        cfg = dict(
            task={"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 30, "seed": 2},
            mode="length_scale",
            trials=1,
            m=1,
            K=2,
            budget=2,
            seed=5,
            strategies=["standard_bo"],
            output_dir=str(tmp_path / "cli_run"),
        )
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert cli_main(["validate", self.write_config(tmp_path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path):
        path = self.write_config(tmp_path, mode="nonsense")
        assert cli_main(["validate", path]) == 2

    def test_run_and_report_roundtrip(self, tmp_path):
        path = self.write_config(tmp_path)
        assert cli_main(["run", path]) == 0
        assert (tmp_path / "cli_run" / "aggregate.csv").exists()
        # Length-scale run: report command succeeds with a skip notice.
        assert cli_main(["report", str(tmp_path / "cli_run")]) == 0

    @pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.json")))
    def test_validate_shipped_configs(self, name, capsys, monkeypatch):
        monkeypatch.chdir(SCRIPTS.parent)  # configs name their data relative to the repository root
        raw = json.loads((SCRIPTS / name).read_text())
        if raw["task"]["kind"] == "dataset" and not os.path.exists(raw["task"]["path"]):
            pytest.skip(f"{name} is a template for a dataset that is not bundled ({raw['task']['path']})")
        assert cli_main(["validate", str(SCRIPTS / name)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    @pytest.mark.slow
    def test_demo_script_prints_a_direction_per_dimension(self, capsys):
        runpy.run_path(str(SCRIPTS / "demo_goldstein.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert len(re.findall(r"^trial \d: best_theta=", out, flags=re.M)) == 5
        assert re.findall(r"^(x\d): .* -> (?:increasing|decreasing|none)$", out, flags=re.M) == ["x1", "x2"]

    def test_report_missing_dir_exit_1(self, tmp_path):
        assert cli_main(["report", str(tmp_path / "missing")]) == 1

    def test_run_exit_1_when_failures_exceed_threshold(self, tmp_path, monkeypatch):
        def always_fail(task, run_cfg):
            raise RuntimeError("injected")

        monkeypatch.setattr(bench, "run_framework", always_fail)
        path = self.write_config(tmp_path, strategies=["hyperbo"], m=1, trials=2)
        assert cli_main(["run", path]) == 1


class TestAggregateSchema:
    def test_multi_strategy_column_order(self, tmp_path):
        config = ls_config(tmp_path, trials=2)
        outcome = run_experiment(config)
        header, rows = read_csv(Path(outcome.output_dir) / "aggregate.csv")
        assert header == [
            "iteration",
            "mean_regret_standard_bo",
            "mean_regret_hyperbo",
            "stderr_standard_bo",
            "stderr_hyperbo",
        ]
        assert [int(r[0]) for r in rows] == list(range(1, config.budget + 1))

    def test_discovery_budget_lets_hyperbo_run_longer(self, tmp_path):
        config = ls_config(tmp_path, trials=1, budget=4, discovery_budget=8)
        outcome = run_experiment(config)
        _, hyperbo_rows = read_csv(Path(outcome.output_dir) / "trace_hyperbo_trial000.csv")
        _, standard_rows = read_csv(Path(outcome.output_dir) / "trace_standard_bo_trial000.csv")
        assert len(hyperbo_rows) == 8 + 1  # iteration 0 plus discovery_budget samples
        assert len(standard_rows) == 4 + 1
        # Aggregate still covers exactly `budget` iterations.
        _, agg = read_csv(Path(outcome.output_dir) / "aggregate.csv")
        assert len(agg) == 4


def test_set_up_loads_only_what_a_run_calls():
    # In a fresh interpreter: the LAPACK and BLAS wrappers come without the
    # scipy.linalg package, log_ndtr's compiled module without the scipy.special
    # package with the first EP fit and the pool modules with a pool; a later
    # scipy.linalg or scipy.special shares the compiled modules.
    script = textwrap.dedent(
        """
        import json, sys
        import numpy as np

        WATCHED = ("scipy.linalg", "scipy.special", "scipy.special._special_ufuncs", "concurrent.futures.process")
        seen = {}
        import hyperbo, hyperbo.cli
        seen["import"] = [name for name in WATCHED if name in sys.modules]

        from hyperbo.bench import build_task
        from hyperbo.engine import RunConfig, run_framework
        task = build_task({"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 40, "seed": 7})
        run_framework(task, RunConfig(mode="length_scale", m=1, K=2, R=2, seed=0))
        seen["length-scale run"] = [name for name in WATCHED if name in sys.modules]

        from hyperbo.gp import KernelParams, PoolPosterior
        from hyperbo.monotonic import MonotonicWorkspace, fit_monotonic_gp
        X = np.linspace(0.0, 1.0, 5)[:, None]
        workspace = MonotonicWorkspace(PoolPosterior(X, X, KernelParams(1.0, (0.3,))), [[0.25], [0.75]])
        fit_monotonic_gp(workspace, X[:, 0] - 0.5, np.array([-6.0, 0.0]))
        seen["EP fit"] = [name for name in WATCHED if name in sys.modules]

        import scipy.linalg, scipy.special
        import hyperbo.gp, hyperbo.monotonic
        seen["shared"] = [
            scipy.linalg.lapack.dpotrf is hyperbo.gp.lapack.dpotrf,
            scipy.linalg.lapack.dtrtrs is hyperbo.gp.lapack.dtrtrs,
            scipy.linalg.blas.dtrsm is hyperbo.gp.blas.dtrsm,
            scipy.special.log_ndtr is hyperbo.monotonic._log_ndtr(),
        ]
        print(json.dumps(seen))
        """
    )
    env = dict(os.environ, **dict.fromkeys(hyperbo.BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(bench.__file__).parents[1]), env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {
        "import": [],
        "length-scale run": [],
        "EP fit": ["scipy.special._special_ufuncs"],
        "shared": [True, True, True, True],
    }


def test_program_loads_numpy_with_one_blas_thread():
    # In a fresh interpreter with an exported OMP_NUM_THREADS=4: the package
    # import loads no numpy, and the program's first numpy import, which fixes
    # BLAS's thread count, already sees one thread in every variable.
    script = textwrap.dedent(
        """
        import json, os, sys
        import hyperbo

        seen = {"numpy after import hyperbo": "numpy" in sys.modules}

        def hook(event, args):
            if event == "import" and args[0] == "numpy" and "at the first numpy import" not in seen:
                seen["at the first numpy import"] = [os.environ.get(name) for name in hyperbo.BLAS_THREAD_VARS]

        sys.addaudithook(hook)
        import hyperbo.cli
        print(json.dumps(seen))
        """
    )
    env = {k: v for k, v in os.environ.items() if k not in hyperbo.BLAS_THREAD_VARS}
    env["OMP_NUM_THREADS"] = "4"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(bench.__file__).parents[1]), env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"numpy after import hyperbo": False, "at the first numpy import": ["1", "1", "1"]}
