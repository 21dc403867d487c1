"""Golden artifacts: three tiny runs whose every output file has a fixed sha256.

A change that keeps random streams must leave these hashes alone.  A change
that alters streams on purpose updates the constants and says so in
CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from hyperbo.bench import ExperimentConfig, run_experiment

STRATEGIES = ("standard_bo", "hyperbo", "best_theta_rerun", "gold_standard_theta")

# Both grids are within ENUMERATION_LIMIT (48^2 monotonicity thetas, 11
# length scales), so each outer proposal is an exact whole-grid draw.
# The dataset run reads a CSV the test writes under a relative path (the
# manifest records the path), so it also pins ingestion, the filter, the
# on-pool initial design and the feature names in report.csv.
CONFIGS = {
    "goldstein-mono": dict(
        task={"kind": "goldstein_price", "pool_size": 500},
        mode="monotonicity",
        trials=2,
        m=2,
        K=2,
        budget=8,
        seed=11,
        gold_standard_theta=(-6, 0, 0, -6),
    ),
    "gp-sample-lengthscale": dict(
        task={"kind": "gp_sample", "dim": 1, "length_scale": 0.2, "n_points": 60, "seed": 5},
        mode="length_scale",
        trials=2,
        m=2,
        K=2,
        budget=8,
        seed=21,
        gold_standard_theta=(0.2,),
    ),
    "dataset-mono": dict(
        task={
            "kind": "dataset",
            "path": "tiny.csv",
            "target": "y",
            "filters": [{"type": "drop_max_target_in_low_quantile", "column": "age", "quantile": 0.1}],
            "n_initial": 3,
            "name": "tiny",
        },
        mode="monotonicity",
        trials=2,
        m=2,
        K=1,
        budget=6,
        seed=31,
        gold_standard_theta=(0, -6, -6, 0),
    ),
}

GOLDEN = {
    "dataset-mono": {
        "aggregate.csv": "cfde5c76a1e7e59eada22837327fb89be1cd740751a6e3f0cb8ac102f17b0bd7",
        "manifest.json": "f4b3ee9aa21a50e8eecbac062008a93eebbc9f1de4c240b92b340fe745d097e7",
        "report.csv": "f7900240dcd1015641f313fce8d9d5e87ab983d5a05e79f193196862558dce33",
        "trace_best_theta_rerun_trial000.csv": "46adefc9fd7ee27d53c87d45bd3d44331a0de58ddf7676c694fa31cdb05ff20d",
        "trace_best_theta_rerun_trial001.csv": "27a01ff90a6a6e2a554ef608ae57009dcac869943a44b17aa3cba256eeca6c8e",
        "trace_gold_standard_theta_trial000.csv": "46adefc9fd7ee27d53c87d45bd3d44331a0de58ddf7676c694fa31cdb05ff20d",
        "trace_gold_standard_theta_trial001.csv": "cf878d1eb3dce9e6f46e2d23d12a926248facec4d4df5897154550a07be9735f",
        "trace_hyperbo_trial000.csv": "46adefc9fd7ee27d53c87d45bd3d44331a0de58ddf7676c694fa31cdb05ff20d",
        "trace_hyperbo_trial001.csv": "ff73433d801ef9ef836eb46f923ab52390db10789a6cf0d38d0918634787ff30",
        "trace_standard_bo_trial000.csv": "46adefc9fd7ee27d53c87d45bd3d44331a0de58ddf7676c694fa31cdb05ff20d",
        "trace_standard_bo_trial001.csv": "37fe6ee9e74ee73d1d61a5dd923495c96f6cea76f32b87b18a95e0877dfe19e0",
    },
    "goldstein-mono": {
        "aggregate.csv": "1de2b6f8e56406586b98c4e8498b6029bd530a0a80b6552798db509e57549b4c",
        "manifest.json": "1bfbca9ef5e6b3123eb995890fa38206775dd90fed0d9692e1d658b07b845f0c",
        "report.csv": "43b32284107fdaedffe3701862ba443b7cd4543bc93f7ca6f054f82955c0bb81",
        "trace_best_theta_rerun_trial000.csv": "6ab3301ebd1e5a29d7bb1ff3153cd6513667d169923d0c05652ff4a22452dc75",
        "trace_best_theta_rerun_trial001.csv": "e5b06d7180624d4648b6a74f9a3e5ec1bd657b5c708f372c63b9aac4a6c50c61",
        "trace_gold_standard_theta_trial000.csv": "f230d8035943024831a7593b16ce9d5428e877df7a66a8c651ce06214f4c6d57",
        "trace_gold_standard_theta_trial001.csv": "106fced478b8d221e70d5630d3745d319888bb1ebf7e389851223994f7e50e61",
        "trace_hyperbo_trial000.csv": "f3c6bce0c78055f24d7ec14ce68d120ce8f9c48c839f45afaa68b72390d890be",
        "trace_hyperbo_trial001.csv": "3414d148dd671ce3f6265722d3f280ca362a2bb5bc7b2942add08fab10c8c1c5",
        "trace_standard_bo_trial000.csv": "33c06f8e6528083f722cd85c1c80823800852f71239adabfa691a139ed8f8b9b",
        "trace_standard_bo_trial001.csv": "4a4a3167bbcd40ca052b69c07dea722c2828bad01cc74f3438e64dd78692a13c",
    },
    "gp-sample-lengthscale": {
        "aggregate.csv": "a7b74c23f408e1d8b362dedc0eb6198839f3e4a1175eb8238a4b734b27347f3b",
        "manifest.json": "2fe212719c1598daac99720914545ee0743f48eecd5023cb58a80ee08ff98c05",
        "trace_best_theta_rerun_trial000.csv": "3b3ab1088cf4cc411c78954ecdf49cf64007455af935313a9739ae29062c2ff3",
        "trace_best_theta_rerun_trial001.csv": "63dd77aac7babcc6d8ab9be35333978cf08640cebf681f0783aa5d5940fa532e",
        "trace_gold_standard_theta_trial000.csv": "6206e60d994f0e11cfc3e33543b357a987ac0e884d2d3d772dc57532ec4f2212",
        "trace_gold_standard_theta_trial001.csv": "9a87adb4b1e121cb0445bd7e7cfd7f953a351eefffc0cb9529d370fc6672af70",
        "trace_hyperbo_trial000.csv": "3b3ab1088cf4cc411c78954ecdf49cf64007455af935313a9739ae29062c2ff3",
        "trace_hyperbo_trial001.csv": "63dd77aac7babcc6d8ab9be35333978cf08640cebf681f0783aa5d5940fa532e",
        "trace_standard_bo_trial000.csv": "c26fc35188d501e6ac7d12bae193890461aad2e60c7082832f11b6e727cce4ce",
        "trace_standard_bo_trial001.csv": "19298632a81ce77798a18ecfbb255a582ebe439d8c9115255dc82476c5ac120f",
    },
}


def write_tiny_csv(path):
    """30 rows: y falls with age and rises with dose; one young row is an outlier."""
    lines = ["age,dose,y"]
    for i in range(30):
        age, dose = (7 * i) % 30, (11 * i) % 30
        y = 100.0 if age == 1 else 50.0 - 0.8 * age + 0.5 * dose + 3.0 * ((13 * i) % 7)
        lines.append(f"{age},{dose},{y:.2f}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_tiny_csv(tmp_path / "tiny.csv")
    config = ExperimentConfig(strategies=STRATEGIES, output_dir=str(tmp_path / name), **CONFIGS[name])
    outcome = run_experiment(config)
    assert outcome.ok
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(outcome.output_dir).iterdir())
    }
    assert digests == GOLDEN[name]
