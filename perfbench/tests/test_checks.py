"""The output checks catch broken traces, count failed strategies, and compare passes."""

import json
import shutil

import pytest

import checks


@pytest.fixture
def finished(finished_run, tmp_path):
    """A private copy of the shared tiny run: (output dir, failure rates, optimum, initial bests)."""
    config_path, shared_dir, failure_rates = finished_run
    out_dir = tmp_path / "run"
    shutil.copytree(shared_dir, out_dir)
    optimum, bests = checks.initial_bests(config_path, checks.read_manifest(out_dir))
    return out_dir, failure_rates, optimum, bests


def rewrite_trace(path, edit):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def test_sound_run_passes_every_check(finished):
    out_dir, failure_rates, optimum, bests = finished
    assert checks.check_traces(out_dir, optimum, bests) == []
    assert checks.count_failures(out_dir, failure_rates) == (8, 0, [])
    facts = checks.result_facts(out_dir)
    assert set(facts["mean_final_regret"]) == {"standard_bo", "hyperbo", "best_theta_rerun", "gold_standard_theta"}
    assert len(facts["aggregate_sha256"]) == 64


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[-1].__setitem__(2, repr(float(rows[0][2]) * 2 + 1)), "regret increases"),
        (lambda rows: rows[-1].__setitem__(2, "-1.0"), "negative regret"),
        (lambda rows: rows[0].__setitem__(1, repr(float(rows[0][1]) - 1.0)), "iteration 0"),
        (lambda rows: rows.pop(), "iterations are not"),
    ],
)
def test_broken_trace_is_caught(finished, edit, message):
    out_dir, _, optimum, bests = finished
    rewrite_trace(out_dir / "trace_hyperbo_trial001.csv", edit)
    problems = checks.check_traces(out_dir, optimum, bests)
    assert any(p.startswith("trace_hyperbo_trial001.csv") and message in p for p in problems), problems


def test_missing_and_stray_traces_are_caught(finished):
    out_dir, _, optimum, bests = finished
    (out_dir / "trace_standard_bo_trial000.csv").rename(out_dir / "trace_standard_bo_trial009.csv")
    problems = checks.check_traces(out_dir, optimum, bests)
    assert "trace_standard_bo_trial000.csv: missing" in problems
    assert "trace_standard_bo_trial009.csv: not a strategy-trial of the manifest" in problems


def test_failed_strategy_is_counted(tiny_run, monkeypatch):
    import hyperbo.bench as hb

    real = hb.rerun_with_best_theta

    def failing(task, theta, budget, config):
        if theta is None:
            raise RuntimeError("injected failure")
        return real(task, theta, budget, config)

    monkeypatch.setattr(hb, "rerun_with_best_theta", failing)
    config_path, out_dir = tiny_run()
    outcome = hb.run_experiment(hb.load_config(str(config_path)))
    assert outcome.failure_rates["standard_bo"] == 1.0

    attempted, failed, problems = checks.count_failures(out_dir, outcome.failure_rates)
    assert (attempted, failed, problems) == (8, 2, [])
    optimum, bests = checks.initial_bests(config_path, checks.read_manifest(out_dir))
    assert checks.check_traces(out_dir, optimum, bests) == []

    # A failure the outcome does not report disagrees with the manifest.
    _, _, problems = checks.count_failures(out_dir, {**outcome.failure_rates, "standard_bo": 0.0})
    assert problems and problems[0].startswith("standard_bo")

    # A trace written for a failed strategy is caught.
    shutil.copy(out_dir / "trace_hyperbo_trial000.csv", out_dir / "trace_standard_bo_trial000.csv")
    assert "trace_standard_bo_trial000.csv: written for a failed strategy" in checks.check_traces(out_dir, optimum, bests)


def test_compare_artifacts(finished, tmp_path):
    out_dir = finished[0]
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    (copy / "manifest.json").write_text(json.dumps({"timing": 1}))  # not a deterministic artifact
    assert checks.compare_artifacts(out_dir, copy) == []

    aggregate = copy / "aggregate.csv"
    aggregate.write_bytes(aggregate.read_bytes() + b"\n")
    (copy / "trace_hyperbo_trial000.csv").unlink()
    assert checks.compare_artifacts(out_dir, copy) == [
        "trace_hyperbo_trial000.csv: only in run",
        "aggregate.csv: differs from run",
    ]
