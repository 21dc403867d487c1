"""The benchmark's workloads: experiment configs built from the shipped ones.

Each workload is a config that `hyperbo.bench.load_config` reads, so a
repetition follows the same path as `hyperbo run`.  Only the keys listed
here differ from the shipped file: the trial count and budget (sized so one
repetition takes a few seconds and a run holds many), the strategies, the
output directory and, where the seed applies, the seeds.

Why each workload exists, and what it should show:

- goldstein-mono: the paper's headline monotonicity run.  Damped EP and the
  outer Thompson proposal over a subsampled 2,304-theta grid carry its time.
- lengthscale-recovery: no EP at all and an enumerated 121-theta grid, so an
  EP change must leave it unmoved; plain GP fits, UCB and the artifact
  writing carry its time.

Only lengthscale-recovery takes its trial seeds from `--seed` (and its GP
draw).  goldstein-mono keeps the shipped trial seed: its trial
cost varies 2-3x from one trial seed to the next (EP sweeps to
convergence), and a repetition holds one trial, so a seed-dependent trial
would spread the run times far beyond the bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    shipped: str  # config under scripts/
    trials: int
    strategies: tuple[str, ...]
    seed_picks_trials: bool  # else the trial seeds are fixed
    overrides: dict = field(default_factory=dict)  # further keys that differ from the shipped config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "goldstein-mono",
            "goldstein_monotonicity.json",
            1,
            ("standard_bo", "hyperbo", "best_theta_rerun"),
            False,
            {"budget": 30},
        ),
        Workload("lengthscale-recovery", "lengthscale_recovery.json", 10, ("standard_bo", "hyperbo", "best_theta_rerun"), True),
    )
}


def write_config(workload: Workload, root: Path, seed: int, work_dir: Path) -> Path:
    """Write the workload's config for this seed into work_dir and return its path.

    Each repetition redirects the artifacts with HYPERBO_OUTPUT_DIR.
    """
    with open(root / "scripts" / workload.shipped, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(workload.overrides)
    raw["trials"] = workload.trials
    raw["strategies"] = list(workload.strategies)
    raw["output_dir"] = str(work_dir / "run")
    if workload.seed_picks_trials:
        # Consecutive seeds get disjoint trial panels.
        raw["seed"] += seed * workload.trials
        if raw["task"]["kind"] == "gp_sample":
            raw["task"]["seed"] += seed
    path = work_dir / "config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    return path
