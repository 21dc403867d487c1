"""Output checks on the artifacts of one `run_experiment` pass.

Each check returns a list of problems; an empty list means the pass is sound.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

TRACE_HEADER = ["iteration", "best_value", "regret"]


def read_manifest(run_dir: Path) -> dict:
    with open(run_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def _read_trace(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def initial_bests(config_path: Path, manifest: dict) -> tuple[float, dict[int, float]]:
    """Task optimum and, per trial seed, the initial-design best, from hyperbo's public API.

    A zero-iteration plain-BO run returns just the initial design.  Needs
    hyperbo importable.
    """
    from hyperbo.bench import build_task, load_config
    from hyperbo.engine import rerun_with_best_theta

    config = load_config(str(config_path))
    task = build_task(config.task)
    bests = {
        tr["seed"]: float(rerun_with_best_theta(task, None, 0, config.run_config(tr["seed"])).best_values[0])
        for tr in manifest["trials"]
    }
    return task.optimum, bests


def check_traces(run_dir: Path, optimum: float, initial_best: dict[int, float]) -> list[str]:
    """Every successful strategy-trial has a regret trace that is sound.

    Sound means: iterations 0..n_samples in order, regret non-negative,
    non-increasing and equal to the optimum minus the best value (clamped at
    0), and iteration 0 equal to the initial-design best of that trial seed.
    Failed strategy-trials must have no trace, and no trace may be left over.
    """
    manifest = read_manifest(run_dir)
    problems = []
    known = set()
    tol = 1e-9 * max(1.0, abs(optimum))
    for trial in manifest["trials"]:
        for name, payload in trial["strategies"].items():
            fname = f"trace_{name}_trial{trial['trial']:03d}.csv"
            path = run_dir / fname
            known.add(fname)
            if payload["status"] != "ok":
                if path.exists():
                    problems.append(f"{fname}: written for a failed strategy")
                continue
            if not path.exists():
                problems.append(f"{fname}: missing")
                continue
            header, rows = _read_trace(path)
            if header != TRACE_HEADER:
                problems.append(f"{fname}: header {header}")
                continue
            if [int(r[0]) for r in rows] != list(range(payload["n_samples"] + 1)):
                problems.append(f"{fname}: iterations are not 0..{payload['n_samples']}")
                continue
            best = [r[1] for r in rows]
            regret = [r[2] for r in rows]
            if best[0] != initial_best[trial["seed"]]:
                problems.append(f"{fname}: iteration 0 is {best[0]!r}, initial-design best is {initial_best[trial['seed']]!r}")
            if any(r < 0 for r in regret):
                problems.append(f"{fname}: negative regret")
            if any(b > a for a, b in zip(regret, regret[1:])):
                problems.append(f"{fname}: regret increases")
            if any(abs(r - max(optimum - b, 0.0)) > tol for b, r in zip(best, regret)):
                problems.append(f"{fname}: regret is not optimum minus best value")
    for path in sorted(run_dir.glob("trace_*.csv")):
        if path.name not in known:
            problems.append(f"{path.name}: not a strategy-trial of the manifest")
    return problems


def count_failures(run_dir: Path, failure_rates: dict[str, float]) -> tuple[int, int, list[str]]:
    """(attempted, failed) strategy-trials from the manifest, cross-checked with failure_rates.

    `failure_rates` is `ExperimentOutcome.failure_rates`: failures over the
    configured trial count, per strategy.
    """
    manifest = read_manifest(run_dir)
    strategies = manifest["config"]["strategies"]
    trials = manifest["trials"]
    problems = []
    failed = 0
    for name in strategies:
        failures = sum(1 for tr in trials if tr["strategies"].get(name, {}).get("status") != "ok")
        failed += failures
        if name not in failure_rates or round(failure_rates[name] * manifest["config"]["trials"]) != failures:
            problems.append(f"{name}: failure rate {failure_rates.get(name)} disagrees with {failures} failed trials")
    if len(trials) != manifest["config"]["trials"]:
        problems.append(f"manifest lists {len(trials)} of {manifest['config']['trials']} trials")
    return len(strategies) * manifest["config"]["trials"], failed, problems


def deterministic_artifacts(run_dir: Path) -> dict[str, bytes]:
    """The artifacts that must not depend on timing or tracing."""
    paths = sorted(run_dir.glob("trace_*.csv")) + [run_dir / "aggregate.csv"]
    return {p.name: p.read_bytes() for p in paths}


def compare_artifacts(reference: Path, other: Path) -> list[str]:
    """Problems unless both passes wrote byte-identical traces and aggregate."""
    a, b = deterministic_artifacts(reference), deterministic_artifacts(other)
    problems = [f"{name}: only in {reference.name}" for name in sorted(a.keys() - b.keys())]
    problems += [f"{name}: only in {other.name}" for name in sorted(b.keys() - a.keys())]
    problems += [f"{name}: differs from {reference.name}" for name in sorted(a.keys() & b.keys()) if a[name] != b[name]]
    return problems


def result_facts(run_dir: Path) -> dict:
    """Digest of aggregate.csv and mean final regret per strategy; recorded, not gated."""
    data = (run_dir / "aggregate.csv").read_bytes()
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    header, last = rows[0], rows[-1]
    final = {h[len("mean_regret_"):]: float(v) for h, v in zip(header, last) if h.startswith("mean_regret_")}
    return {"aggregate_sha256": hashlib.sha256(data).hexdigest(), "mean_final_regret": final}
