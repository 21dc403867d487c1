"""Multi-trial benchmark harness: paired strategies, CSV artifacts, reports.

Each trial seeds every configured strategy identically, so initial designs and
virtual derivative locations are shared and comparisons are paired.  Artifacts
are plain CSV plus a JSON manifest; numeric cells use the shortest
round-trip decimal representation so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hyperbo.engine import ModelSpace, ModelTheta, RunConfig, RunResult, rerun_with_best_theta, run_framework
from hyperbo.scoring import MODES, MONOTONICITY
from hyperbo.tasks import (
    Task,
    load_dataset,
    make_goldstein_price_task,
    make_gp_sample_task,
    monotonicity_report,
    pearson_correlation,
)

__all__ = [
    "STRATEGIES",
    "ConfigError",
    "ReportError",
    "ExperimentConfig",
    "load_config",
    "build_task",
    "run_experiment",
    "emit_reports",
]

STRATEGIES = ("standard_bo", "hyperbo", "best_theta_rerun", "gold_standard_theta")

OUTPUT_DIR_ENV = "HYPERBO_OUTPUT_DIR"
FAILURE_THRESHOLD = 0.10

_ENGINE_KEYS = (
    "regularization",
    "default_length_scale",
    "signal_variance",
    "noise_variance",
    "ucb_delta",
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class ReportError(RuntimeError):
    """Report generation is impossible (e.g. no successful trials)."""


@dataclass
class ExperimentConfig:
    task: dict
    mode: str
    budget: int
    output_dir: str
    trials: int = 50
    m: int = 5
    K: int = 5
    seed: int = 0
    strategies: tuple[str, ...] = ("standard_bo", "hyperbo")
    gold_standard_theta: tuple[float, ...] | None = None
    discovery_budget: int | None = None  # hyperbo sample budget; defaults to budget
    workers: int = 1
    engine: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        self.strategies = tuple(self.strategies)
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigError(f"unknown strategies {unknown}; valid: {list(STRATEGIES)}")
        if "best_theta_rerun" in self.strategies and "hyperbo" not in self.strategies:
            raise ConfigError("best_theta_rerun requires the hyperbo strategy in the same experiment")
        if "hyperbo" in self.strategies:
            hyperbo_budget = self.discovery_budget if self.discovery_budget is not None else self.budget
            if hyperbo_budget % self.K != 0:
                raise ConfigError(f"hyperbo budget ({hyperbo_budget}) must be a multiple of K ({self.K})")
            if hyperbo_budget // self.K < self.m:
                raise ConfigError("hyperbo budget / K must be >= m so the random phase fits")
        if "gold_standard_theta" in self.strategies:
            if self.gold_standard_theta is None:
                raise ConfigError("gold_standard_theta strategy needs a gold_standard_theta value")
            self.gold_standard_theta = tuple(float(v) for v in self.gold_standard_theta)
        bad_engine = [k for k in self.engine if k not in _ENGINE_KEYS]
        if bad_engine:
            raise ConfigError(f"unknown engine overrides {bad_engine}; valid: {list(_ENGINE_KEYS)}")
        if not isinstance(self.task, dict) or "kind" not in self.task:
            raise ConfigError("task must be an object with a 'kind' key")

    def run_config(self, trial_seed: int) -> RunConfig:
        hyperbo_budget = self.discovery_budget if self.discovery_budget is not None else self.budget
        return RunConfig(
            mode=self.mode,
            m=self.m,
            K=self.K,
            R=max(hyperbo_budget // self.K, self.m),
            seed=trial_seed,
            **self.engine,
        )

    def resolved_output_dir(self) -> Path:
        return Path(os.environ.get(OUTPUT_DIR_ENV, self.output_dir))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = [k for k in raw if k not in known]
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    missing = [k for k in ("task", "mode", "budget", "output_dir") if k not in raw]
    if missing:
        raise ConfigError(f"missing required config keys {missing}")
    config = ExperimentConfig(**raw)
    task = build_task(config.task)  # validates task binding and referenced files now
    if config.gold_standard_theta is not None:
        try:
            ModelSpace(config.mode, task.dim).theta(config.gold_standard_theta)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"gold_standard_theta: {exc}") from None
    return config


def build_task(spec: dict) -> Task:
    kind = spec.get("kind")
    if kind == "goldstein_price":
        return make_goldstein_price_task(pool_size=int(spec.get("pool_size", 500)))
    if kind == "gp_sample":
        return make_gp_sample_task(
            dim=int(spec["dim"]),
            length_scale=float(spec["length_scale"]),
            n_points=int(spec.get("n_points", 300)),
            seed=int(spec.get("seed", 0)),
        )
    if kind == "dataset":
        path = spec.get("path")
        if not path or not os.path.exists(path):
            raise ConfigError(f"dataset file {path!r} does not exist")
        return load_dataset(
            path,
            target=spec["target"],
            features=spec.get("features"),
            filters=tuple(spec.get("filters", ())),
            n_initial=int(spec.get("n_initial", 3)),
            name=spec.get("name"),
        )
    raise ConfigError(f"unknown task kind {kind!r}")


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def _pad_to(values: np.ndarray, length: int) -> np.ndarray:
    """Hold the last best-so-far value through post-exhaustion iterations."""
    if len(values) >= length:
        return values[:length]
    return np.concatenate([values, np.full(length - len(values), values[-1])])


def _run_trial(task: Task, config: ExperimentConfig, trial: int) -> dict:
    """All configured strategies for one trial; exceptions recorded per strategy."""
    trial_seed = config.seed + trial
    out: dict = {"trial": trial, "seed": trial_seed, "strategies": {}}
    hyperbo_result: RunResult | None = None

    def record(name: str, result: RunResult):
        # Trace rows cover acquired iterations only; aggregation pads.
        out["strategies"][name] = {
            "status": "ok",
            "n_samples": int(result.n_samples),
            "best_y": float(result.best_y),
            "exhausted": bool(result.exhausted),
            "best_theta": list(result.best_theta.values) if result.best_theta else None,
            "ep_fits": result.ep_fits,
            "ep_sweeps": result.ep_sweeps,
            "ep_nonconverged": result.ep_nonconverged,
            "best_values": [float(v) for v in result.best_values],
            "regrets": [float(v) for v in result.regrets],
        }

    for name in config.strategies:
        try:
            run_cfg = config.run_config(trial_seed)
            if name == "hyperbo":
                hyperbo_result = run_framework(task, run_cfg)
                record(name, hyperbo_result)
            elif name == "standard_bo":
                record(name, rerun_with_best_theta(task, None, config.budget, run_cfg))
            elif name == "best_theta_rerun":
                if hyperbo_result is None or hyperbo_result.best_theta is None:
                    raise RuntimeError("no best theta available from the hyperbo run")
                record(name, rerun_with_best_theta(task, hyperbo_result.best_theta, config.budget, run_cfg))
            elif name == "gold_standard_theta":
                theta = ModelTheta(config.mode, config.gold_standard_theta)
                record(name, rerun_with_best_theta(task, theta, config.budget, run_cfg))
        except Exception as exc:  # noqa: BLE001 - trial isolation is the point
            out["strategies"][name] = {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
    return out


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def _write_traces(out_dir: Path, trial_result: dict) -> None:
    # Iteration 0 is the initial-design best, shared across strategies of a trial.
    for name, payload in trial_result["strategies"].items():
        if payload["status"] != "ok":
            continue
        rows = []
        best_values = payload["best_values"]
        regrets = payload["regrets"]
        for it in range(len(best_values)):
            rows.append([it, best_values[it], regrets[it]])
        path = out_dir / f"trace_{name}_trial{trial_result['trial']:03d}.csv"
        _write_csv(path, ["iteration", "best_value", "regret"], rows)


def _aggregate(config: ExperimentConfig, trial_results: list[dict]) -> tuple[list[str], list[list]]:
    header = ["iteration"]
    header += [f"mean_regret_{s}" for s in config.strategies]
    header += [f"stderr_{s}" for s in config.strategies]

    per_strategy: dict[str, np.ndarray] = {}
    for name in config.strategies:
        traces = []
        for tr in trial_results:
            payload = tr["strategies"].get(name)
            if payload and payload["status"] == "ok":
                traces.append(_pad_to(np.asarray(payload["regrets"], dtype=float), config.budget + 1)[1:])
        per_strategy[name] = np.vstack(traces) if traces else np.empty((0, config.budget))

    rows = []
    for it in range(1, config.budget + 1):
        row: list = [it]
        means, errs = [], []
        for name in config.strategies:
            block = per_strategy[name]
            if block.shape[0] == 0:
                means.append(float("nan"))
                errs.append(float("nan"))
                continue
            col = block[:, it - 1]
            means.append(float(np.mean(col)))
            errs.append(float(np.std(col, ddof=1) / np.sqrt(len(col))) if len(col) > 1 else 0.0)
        rows.append(row + means + errs)
    return header, rows


@dataclass
class ExperimentOutcome:
    output_dir: Path
    failure_rates: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(rate <= FAILURE_THRESHOLD for rate in self.failure_rates.values())


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run all trials and strategies, writing traces, aggregate CSV, and manifest."""
    task = build_task(config.task)
    out_dir = config.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)

    trials = list(range(config.trials))
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            trial_results = list(pool.map(_run_trial, [task] * len(trials), [config] * len(trials), trials))
    else:
        trial_results = [_run_trial(task, config, t) for t in trials]
    trial_results.sort(key=lambda tr: tr["trial"])

    for tr in trial_results:
        _write_traces(out_dir, tr)

    header, rows = _aggregate(config, trial_results)
    _write_csv(out_dir / "aggregate.csv", header, rows)

    failure_rates = {}
    for name in config.strategies:
        failures = sum(
            1 for tr in trial_results if tr["strategies"].get(name, {}).get("status") != "ok"
        )
        failure_rates[name] = failures / config.trials

    manifest = {
        "config": {
            "task": config.task,
            "mode": config.mode,
            "trials": config.trials,
            "m": config.m,
            "K": config.K,
            "budget": config.budget,
            "discovery_budget": config.discovery_budget,
            "seed": config.seed,
            "strategies": list(config.strategies),
            "gold_standard_theta": list(config.gold_standard_theta) if config.gold_standard_theta else None,
            "engine": config.engine,
        },
        "failure_rates": failure_rates,
        "trials": [
            {
                "trial": tr["trial"],
                "seed": tr["seed"],
                "strategies": {
                    name: {k: v for k, v in payload.items() if k not in ("best_values", "regrets")}
                    for name, payload in tr["strategies"].items()
                },
            }
            for tr in trial_results
        ],
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if config.mode == MONOTONICITY and "hyperbo" in config.strategies:
        try:
            emit_reports(out_dir)
        except ReportError:
            pass  # all-hyperbo-failed runs still produce traces and the manifest
    return ExperimentOutcome(output_dir=out_dir, failure_rates=failure_rates)


def emit_reports(run_dir) -> Path | None:
    """Write the per-dimension monotonicity-vs-correlation table for a finished run.

    Returns None (with a notice) for non-monotonicity runs; raises ReportError
    when no successful trial produced a best theta.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ReportError(f"no manifest.json under {run_dir}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    mode = manifest["config"]["mode"]
    if mode != MONOTONICITY:
        print(f"notice: {run_dir} is a {mode} run; monotonicity report skipped")
        return None

    best_thetas = []
    for tr in manifest["trials"]:
        payload = tr["strategies"].get("hyperbo")
        if payload and payload.get("status") == "ok" and payload.get("best_theta"):
            best_thetas.append(payload["best_theta"])
    if not best_thetas:
        raise ReportError("no successful trials with a best theta; nothing to report")

    task = build_task(manifest["config"]["task"])
    space = ModelSpace(MONOTONICITY, task.dim)
    try:
        best_thetas = np.array([space.theta(values).values for values in best_thetas])
    except (TypeError, ValueError) as exc:
        raise ReportError(f"{manifest_path}: a hyperbo best_theta is not a grid point: {exc}") from None
    X, y = task.correlation_sample()
    correlations = []
    for g in range(task.dim):
        try:
            correlations.append(pearson_correlation(X[:, g], y))
        except ValueError:
            correlations.append(float("nan"))
    names = getattr(task, "feature_names", None) or tuple(f"x{g + 1}" for g in range(task.dim))
    rows = monotonicity_report(best_thetas, feature_names=names, correlations=correlations)

    out_path = run_dir / "report.csv"
    _write_csv(
        out_path,
        [
            "dimension",
            "feature",
            "correlation",
            "mean_theta_minus",
            "mean_theta_plus",
            "net",
            "direction",
            "matches_correlation",
        ],
        [
            [
                r.dimension,
                r.feature,
                r.correlation,
                r.mean_theta_minus,
                r.mean_theta_plus,
                r.net,
                r.direction,
                r.matches_correlation,
            ]
            for r in rows
        ],
    )
    return out_path
