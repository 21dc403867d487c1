"""Bayesian optimization with an outer model-search BO over GP hyperparameters.

An inner GP-UCB loop optimizes a black-box task while an outer Thompson-sampling
loop searches the space of GP models (length scales, or per-dimension
monotonicity strictness enforced via virtual derivative observations), scoring
each model by the regret-normalized gain it produced over a short window.
The layers live in their own modules (gp, monotonic, acquisition, engine,
tasks, bench); this package exports the run surface.
"""

from hyperbo.bench import ExperimentConfig, emit_reports, load_config, run_experiment
from hyperbo.engine import RunConfig, RunResult, rerun_with_best_theta, run_framework

__all__ = [
    "ExperimentConfig",
    "RunConfig",
    "RunResult",
    "emit_reports",
    "load_config",
    "rerun_with_best_theta",
    "run_experiment",
    "run_framework",
]

__version__ = "0.1.0"
