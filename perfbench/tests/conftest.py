import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def _config_writer(tmp_path):
    def make(name="run", **overrides):
        raw = dict(
            task={"kind": "goldstein_price", "pool_size": 40},
            mode="monotonicity",
            trials=2,
            m=2,
            K=1,
            budget=4,
            seed=11,
            strategies=["standard_bo", "hyperbo", "best_theta_rerun", "gold_standard_theta"],
            gold_standard_theta=[-6, 0, 0, -6],
            output_dir=str(tmp_path / name),
        )
        raw.update(overrides)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        return path, tmp_path / name

    return make


@pytest.fixture
def tiny_run(tmp_path, monkeypatch):
    """Write a config of a run that takes a few seconds at most; returns (config path, output dir).

    Monotonicity on a small Goldstein pool, with all four strategies, so EP,
    the outer loop, the reruns and the report all run.
    """
    monkeypatch.delenv("HYPERBO_OUTPUT_DIR", raising=False)
    return _config_writer(tmp_path)


@pytest.fixture(scope="session")
def finished_run(tmp_path_factory):
    """One completed tiny run, shared read-only: (config path, output dir, failure rates)."""
    import hyperbo.bench as hb

    config_path, out_dir = _config_writer(tmp_path_factory.mktemp("finished"))()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HYPERBO_OUTPUT_DIR", raising=False)
        outcome = hb.run_experiment(hb.load_config(str(config_path)))
    return config_path, out_dir, outcome.failure_rates
