"""Multi-trial benchmark harness: paired strategies, CSV artifacts, reports.

Each trial seeds every configured strategy identically, so initial designs and
virtual derivative locations are shared and comparisons are paired.  Artifacts
are plain CSV plus a JSON manifest; numeric cells use the shortest
round-trip decimal representation so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
import reprlib
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from hyperbo import BLAS_THREAD_VARS
from hyperbo.acquisition import ucb_beta
from hyperbo.engine import MODES, MONOTONICITY, ModelSpace, RunConfig, RunResult, rerun_with_best_theta, run_framework
from hyperbo.engine import _init_state
from hyperbo.tasks import (
    MonotonicityRow,
    Task,
    _is_int,
    _is_number,
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

_ENGINE_KEYS = ("ucb_delta",)
# Keys that must be JSON integers, with their least value: of the experiment, and of a task spec.
_INT_KEYS = {"trials": 1, "m": 1, "K": 1, "budget": 1, "workers": 1, "seed": 0, "discovery_budget": 1}
_TASK_INT_KEYS = {"pool_size": 1, "dim": 1, "n_points": 1, "n_initial": 1, "seed": 0}
# A task spec's keys other than `kind` are its builder's keyword arguments.
_TASK_BUILDERS = {"goldstein_price": make_goldstein_price_task, "gp_sample": make_gp_sample_task, "dataset": load_dataset}


def _check_ints(values: dict, least: dict, where: str = "") -> None:
    """ConfigError unless each key of `least` present in `values` holds an integer of at least its value."""
    bad = [k for k, low in least.items() if k in values and not (_is_int(values[k]) and values[k] >= low)]
    if bad:
        raise ConfigError("; ".join(f"{where}{k} must be an integer >= {least[k]}" for k in bad))


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
            raise ConfigError(f"unknown mode {reprlib.repr(self.mode)}")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ConfigError(f"output_dir must be a non-empty string, got {reprlib.repr(self.output_dir)}")
        ints = {k: getattr(self, k) for k in _INT_KEYS}
        if self.discovery_budget is None:
            del ints["discovery_budget"]  # unset: hyperbo samples `budget`
        _check_ints(ints, _INT_KEYS)
        if not isinstance(self.strategies, (list, tuple)) or not self.strategies:
            raise ConfigError("strategies must be a non-empty list")
        self.strategies = tuple(self.strategies)
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigError(f"unknown strategies {reprlib.repr(unknown)}; valid: {list(STRATEGIES)}")
        if len(set(self.strategies)) < len(self.strategies):
            raise ConfigError(f"strategies {reprlib.repr(list(self.strategies))} name one strategy more than once")
        if "best_theta_rerun" in self.strategies and "hyperbo" not in self.strategies:
            raise ConfigError("best_theta_rerun requires the hyperbo strategy in the same experiment")
        if "hyperbo" in self.strategies:
            if self.hyperbo_budget % self.K != 0:
                raise ConfigError(f"hyperbo budget ({self.hyperbo_budget}) must be a multiple of K ({self.K})")
            if self.hyperbo_budget // self.K < self.m:
                raise ConfigError("hyperbo budget / K must be >= m so the random phase fits")
        theta = self.gold_standard_theta
        if theta is not None and not (isinstance(theta, (list, tuple)) and all(map(_is_number, theta))):
            raise ConfigError(f"gold_standard_theta must be a list of numbers, got {reprlib.repr(theta)}")
        if "gold_standard_theta" in self.strategies:
            if self.gold_standard_theta is None:
                raise ConfigError("gold_standard_theta strategy needs a gold_standard_theta value")
            self.gold_standard_theta = tuple(float(v) for v in self.gold_standard_theta)
        if not isinstance(self.engine, dict):
            raise ConfigError("engine must be an object")
        bad_engine = [k for k in self.engine if k not in _ENGINE_KEYS]
        if bad_engine:
            raise ConfigError(f"unknown engine overrides {reprlib.repr(bad_engine)}; valid: {list(_ENGINE_KEYS)}")
        delta = self.engine.get("ucb_delta")
        if "ucb_delta" in self.engine and not (_is_number(delta) and delta > 0):
            raise ConfigError(f"engine.ucb_delta must be a positive number, got {reprlib.repr(delta)}")
        if not isinstance(self.task, dict):
            raise ConfigError("task must be an object")

    @property
    def hyperbo_budget(self) -> int:
        """The hyperbo strategy's sample budget: `discovery_budget`, else `budget`."""
        return self.budget if self.discovery_budget is None else self.discovery_budget

    def run_config(self, trial_seed: int) -> RunConfig:
        return RunConfig(
            mode=self.mode,
            m=self.m,
            K=self.K,
            R=max(self.hyperbo_budget // self.K, self.m),
            seed=trial_seed,
            **self.engine,
        )

    def resolved_output_dir(self) -> Path:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, self.output_dir)
        if not out_dir:  # Path("") is the working directory
            raise ConfigError(f"{OUTPUT_DIR_ENV} is set but empty; unset it or name a directory")
        return Path(out_dir)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(raw).__name__}")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = [k for k in raw if k not in known]
    if unknown:
        raise ConfigError(f"unknown config keys {reprlib.repr(unknown)}")
    missing = [k for k in ("task", "mode", "budget", "output_dir") if k not in raw]
    if missing:
        raise ConfigError(f"missing required config keys {missing}")
    config = ExperimentConfig(**raw)
    out_dir = config.resolved_output_dir()
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {str(out_dir)!r} cannot be made: {str(existing)!r} is not a directory")
    task = build_task(config.task)  # validates task binding and referenced files now
    if config.gold_standard_theta is not None:
        try:
            ModelSpace(config.mode, task.dim).theta(config.gold_standard_theta)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"gold_standard_theta: {exc}") from None
    if "ucb_delta" in config.engine:
        # UCB's beta grows with the step t and the candidate count: over a run it
        # is least at the first step, over the pool rows the initial design
        # left, and at most its value at the last step's t over those rows.
        n = np.count_nonzero(~_init_state(task, config.run_config(config.seed)).sampled)
        delta, last = config.engine["ucb_delta"], max(config.budget, config.hyperbo_budget)
        if n > 0:
            try:
                first, _ = ucb_beta(1, n, delta), ucb_beta(last, n, delta)
            except ValueError as exc:
                raise ConfigError(f"engine.ucb_delta: {exc}") from None
            if first <= 0:
                raise ConfigError(f"engine.ucb_delta is too large: the first UCB beta over {n} candidates is not positive")
    return config


def build_task(spec: dict) -> Task:
    """The task a config's `task` object describes; ConfigError when it cannot be built.

    The keys other than `kind` are passed to the kind's builder, so an unknown
    or missing key is the builder's TypeError.
    """
    args = dict(spec)
    kind = args.pop("kind", None)
    if not isinstance(kind, str) or kind not in _TASK_BUILDERS:
        raise ConfigError(f"unknown task kind {reprlib.repr(kind)}; valid: {list(_TASK_BUILDERS)}")
    _check_ints(args, _TASK_INT_KEYS, where="task ")
    if "length_scale" in args and not _is_number(args["length_scale"]):
        raise ConfigError(f"task length_scale must be a finite number, got {reprlib.repr(args['length_scale'])}")
    path = args.get("path")
    if kind == "dataset" and not (isinstance(path, str) and os.path.isfile(path)):
        raise ConfigError(f"dataset file {reprlib.repr(path)} does not exist")
    try:
        return _TASK_BUILDERS[kind](**args)
    except (KeyError, TypeError, ValueError) as exc:  # DatasetError is a ValueError
        raise ConfigError(f"cannot build the {kind} task: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def _run_trial(task: Task, config: ExperimentConfig, trial: int) -> dict[str, RunResult | str]:
    """Each configured strategy's RunResult for one trial, or the error that stopped it, by name."""
    run_cfg = config.run_config(config.seed + trial)
    results: dict[str, RunResult | str] = {}
    for name in (s for s in STRATEGIES if s in config.strategies):  # hyperbo before the rerun of its best theta
        try:
            if name == "hyperbo":
                results[name] = run_framework(task, run_cfg)
                continue
            theta = None  # standard_bo: the fixed default kernel
            if name == "best_theta_rerun":
                hyperbo = results.get("hyperbo")
                if not isinstance(hyperbo, RunResult) or hyperbo.best_theta is None:
                    raise RuntimeError("no best theta available from the hyperbo run")
                theta = hyperbo.best_theta
            elif name == "gold_standard_theta":
                theta = ModelSpace(config.mode, task.dim).theta(config.gold_standard_theta)
            results[name] = rerun_with_best_theta(task, theta, config.budget, run_cfg)
        except Exception as exc:  # noqa: BLE001 - trial isolation is the point
            results[name] = f"{type(exc).__name__}: {exc}"
    return results


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv would write None as an empty cell; a report row writes "None".
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row] for row in rows)


def _manifest_entry(result: RunResult | str) -> dict:
    """A strategy-trial's manifest object: its outcome without the traces, or the error that stopped it."""
    if isinstance(result, str):
        return {"status": "failed", "error": result}
    return {
        "status": "ok",
        "n_samples": int(result.n_samples),
        "best_y": float(result.best_y),
        "exhausted": bool(result.exhausted),
        "best_theta": None if result.best_theta is None else result.best_theta.tolist(),
        "ep_fits": result.ep_fits,
        "ep_sweeps": result.ep_sweeps,
        "ep_nonconverged": result.ep_nonconverged,
    }


def _aggregate(config: ExperimentConfig, trial_results: list[dict[str, RunResult | str]]) -> tuple[list[str], zip]:
    """Mean regret and its standard error at iterations 1..budget, per strategy, over its successful trials.

    A trace that stops short of `budget` holds its last regret; hyperbo's
    longer discovery trace is cut at `budget`.
    """
    steps = np.arange(1, config.budget + 1)
    means, errs = [], []
    for name in config.strategies:
        traces = [tr[name].regrets for tr in trial_results if isinstance(tr[name], RunResult)]
        if not traces:
            means.append([math.nan] * config.budget)
            errs.append([math.nan] * config.budget)
            continue
        # One contiguous row per iteration: a reduction along it sums the trials in np.mean's order for one column.
        block = np.ascontiguousarray(np.stack([t[np.minimum(steps, len(t) - 1)] for t in traces]).T)
        n = len(traces)
        means.append(block.mean(axis=1).tolist())
        errs.append((block.std(axis=1, ddof=1) / np.sqrt(n)).tolist() if n > 1 else [0.0] * config.budget)
    header = ["iteration", *(f"mean_regret_{s}" for s in config.strategies), *(f"stderr_{s}" for s in config.strategies)]
    return header, zip(steps.tolist(), *means, *errs)


@contextmanager
def _worker_pool(workers: int):
    """A process pool of spawned workers that each start with one BLAS thread.

    A spawned worker reads the thread variables from the environment it
    inherits when it starts, so they are set in this process while the pool
    runs and restored when it has shut down.  The pool modules are imported
    here: a serial run never loads them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass
class ExperimentOutcome:
    output_dir: Path
    failure_rates: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(rate <= FAILURE_THRESHOLD for rate in self.failure_rates.values())


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run all trials and strategies, then write traces, aggregate CSV and manifest in place of an earlier run's."""
    task = build_task(config.task)
    out_dir = config.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)

    trials = range(config.trials)
    if config.workers > 1:
        with _worker_pool(config.workers) as pool:
            trial_results = list(pool.map(_run_trial, [task] * len(trials), [config] * len(trials), trials))
    else:
        trial_results = [_run_trial(task, config, t) for t in trials]

    for pattern in ("trace_*_trial*.csv", "aggregate.csv", "manifest.json", "report.csv"):
        for path in out_dir.glob(pattern):
            path.unlink()
    # Iteration 0 is the initial-design best, shared across strategies of a trial.
    for trial, results in enumerate(trial_results):
        for name, result in results.items():
            if isinstance(result, RunResult):
                rows = zip(range(len(result.regrets)), result.best_values.tolist(), result.regrets.tolist())
                _write_csv(out_dir / f"trace_{name}_trial{trial:03d}.csv", ["iteration", "best_value", "regret"], rows)

    header, rows = _aggregate(config, trial_results)
    _write_csv(out_dir / "aggregate.csv", header, rows)

    failure_rates = {
        name: sum(isinstance(results[name], str) for results in trial_results) / config.trials
        for name in config.strategies
    }
    manifest = {
        "config": {k: v for k, v in asdict(config).items() if k not in ("output_dir", "workers")},
        "failure_rates": failure_rates,
        "trials": [
            {"trial": trial, "seed": config.seed + trial, "strategies": {name: _manifest_entry(r) for name, r in results.items()}}
            for trial, results in enumerate(trial_results)
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
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        mode, spec, trials = manifest["config"]["mode"], manifest["config"]["task"], manifest["trials"]
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if not (isinstance(spec, dict) and isinstance(trials, list)):
            raise TypeError("task must be an object and trials a list")
        # Each trial is an object whose strategies object may hold a hyperbo object.
        payloads = [tr["strategies"].get("hyperbo") or {} for tr in trials]
        best_thetas = [p["best_theta"] for p in payloads if p.get("status") == "ok" and p.get("best_theta")]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # JSONDecodeError is a ValueError
        raise ReportError(f"{manifest_path} is not a run manifest: {type(exc).__name__}: {exc}") from None
    if mode != MONOTONICITY:
        print(f"notice: {run_dir} is a {mode} run; monotonicity report skipped")
        return None
    if not best_thetas:
        raise ReportError("no successful trials with a best theta; nothing to report")

    try:
        task = build_task(spec)
    except ConfigError as exc:
        raise ReportError(f"{manifest_path}: cannot rebuild the run's task: {exc}") from None
    space = ModelSpace(MONOTONICITY, task.dim)
    try:
        best_thetas = np.array([space.theta(values) for values in best_thetas])
    except (TypeError, ValueError) as exc:
        raise ReportError(f"{manifest_path}: a hyperbo best_theta is not a grid point: {exc}") from None
    X, y = task.correlation_sample()
    correlations = [pearson_correlation(X[:, g], y) for g in range(task.dim)]
    rows = monotonicity_report(best_thetas, feature_names=getattr(task, "feature_names", None), correlations=correlations)

    out_path = run_dir / "report.csv"
    _write_csv(out_path, [f.name for f in fields(MonotonicityRow)], map(astuple, rows))
    return out_path
