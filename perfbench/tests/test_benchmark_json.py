"""BENCHMARK.json agrees with what run.py emits, and run.py refuses a tree without hyperbo."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_the_emitted_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    emitted = [k for k in spans.layer_metrics(spans.Recorder()) if k not in run.RECORD_ONLY]
    emitted += ["bench.artifact_bytes", "trace.overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == emitted
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in SPEC["per_layer"])


def test_run_without_the_source_tree_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "goldstein-mono", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src/hyperbo/__init__.py" in proc.stderr
