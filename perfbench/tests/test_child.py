"""The child's repetition loop, and the host-speed correction."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import child
import hostspeed
from checks import compare_artifacts

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_corrected_scales_by_the_mean_probe():
    assert hostspeed.corrected(2.0, hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == pytest.approx(2.0)
    # A host running at half speed halves the time it is credited with.
    assert hostspeed.corrected(2.0, hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S) == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_child_repeats_the_same_run(tiny_run, tmp_path, mode):
    config, _ = tiny_run()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), HYPERBO_OUTPUT_DIR=str(tmp_path / "out"))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--config", str(config), "--mode", mode, "--result", str(result)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    reps = out["reps"]
    # --seconds 0: the warm-up and the minimum of measured repetitions.
    assert len(reps) == 1 + child.MIN_REPS
    assert len(out["probes"]) == len(reps) + 1
    assert all(p > 0 for p in out["probes"])
    dirs = [tmp_path / "out" / f"rep{k}" for k in range(len(reps))]
    assert [r["output_dir"] for r in reps] == [str(d) for d in dirs]
    for d in dirs[1:]:
        assert compare_artifacts(dirs[0], d) == []
    # Two trials of four strategies in every repetition, each timed once.
    assert all(len(r["strategy_times"]) == 8 for r in reps)
    if mode == "traced":
        assert all(r["layers"]["tasks.build_calls"] >= 1 for r in reps)
        assert (tmp_path / "result.json.spans.jsonl").is_file()
