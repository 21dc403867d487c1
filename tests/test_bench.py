"""Benchmark harness: artifacts, aggregation, determinism, failure handling, CLI."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

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
        # thompson_subsample was an engine override once; it is a module constant now.
        for engine in ({"bogus": 1}, {"thompson_subsample": 500}):
            with pytest.raises(ConfigError, match="unknown engine overrides"):
                ls_config(tmp_path, engine=engine)

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

    def test_stderr_matches_statistics_oracle(self, tmp_path):
        config = ls_config(tmp_path, trials=5)
        outcome = run_experiment(config)
        out = Path(outcome.output_dir)
        header, agg_rows = read_csv(out / "aggregate.csv")
        regrets = []
        for trial in range(5):
            _, rows = read_csv(out / f"trace_hyperbo_trial{trial:03d}.csv")
            regrets.append([float(r[2]) for r in rows[1:]])  # skip iteration 0
        regrets = np.array(regrets)
        mean_col = header.index("mean_regret_hyperbo")
        err_col = header.index("stderr_hyperbo")
        for it, row in enumerate(agg_rows):
            col = regrets[:, it]
            assert float(row[mean_col]) == pytest.approx(col.mean(), abs=1e-12)
            expected_err = col.std(ddof=1) / np.sqrt(len(col))
            assert float(row[err_col]) == pytest.approx(expected_err, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        config_a = ls_config(tmp_path, output_dir=str(tmp_path / "a"))
        config_b = ls_config(tmp_path, output_dir=str(tmp_path / "b"))
        out_a = run_experiment(config_a).output_dir
        out_b = run_experiment(config_b).output_dir
        for name in sorted(p.name for p in Path(out_a).glob("*.csv")):
            assert (Path(out_a) / name).read_bytes() == (Path(out_b) / name).read_bytes()

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
        # Aggregation proceeded over the successes.
        header, rows = read_csv(Path(outcome.output_dir) / "aggregate.csv")
        assert len(rows) == config.budget

    def test_worker_pool_matches_serial_output(self, tmp_path):
        serial = run_experiment(ls_config(tmp_path, output_dir=str(tmp_path / "serial")))
        pooled = run_experiment(ls_config(tmp_path, output_dir=str(tmp_path / "pooled"), workers=2))
        a = (Path(serial.output_dir) / "aggregate.csv").read_bytes()
        b = (Path(pooled.output_dir) / "aggregate.csv").read_bytes()
        assert a == b

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

    def test_report_on_missing_dir_errors(self, tmp_path):
        with pytest.raises(ReportError):
            emit_reports(tmp_path / "void")

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
