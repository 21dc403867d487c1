"""Benchmark of hyperbo's regret runs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  A run starts child interpreters
(perfbench/child.py) that import hyperbo from ./src, load the workload's
config with `hyperbo.bench.load_config` and call `run_experiment`, as
`hyperbo run` does, with one BLAS thread.  One untraced child repeats the
identical experiment for about --seconds (half of it with --trace 1, where a
traced child takes the other half); its first repetition warms up and is
not measured.  A host-speed probe runs between repetitions, and each
repetition's times are corrected to the probe's reference speed (see
hostspeed.py and NOTES.md); the reported times are medians over the
measured repetitions, and their wall-clock medians are printed beside them.
setup_s is the median over fresh interpreters before and after the
repetitions, each between two probes and corrected the same way.  Every repetition's artifacts are checked (see checks.py)
and must be byte-identical to the first one's.

The last line of stdout is one JSON object: correct, attempted, failed
(strategy-trials over all repetitions) and metrics.  The full record, with
machine facts, the host-speed probe, every repetition's times and the
per-layer metrics, goes to perfbench/out/<workload>/seed<N>/result.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # fresh set-ups per run
RUN_LIMIT_S = 165  # a child still running this long after the start is killed

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "hyperbo_trial_s": "s",
    "standard_bo_trial_s": "s",
    "peak_rss_mb": "MB",
}
# Zero on a workload without EP, so they would read 0 s on every run there;
# their shares of the traced run time stand in on the last line of output.
RECORD_ONLY = ("monotonic.fit_s", "monotonic.predict_s")


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_bytes"):
        return "bytes"
    if suffix.endswith("_share"):
        return "ratio"
    return "count"


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def run_child(config: Path, mode: str, result: Path, output_dir: Path, deadline: float, seconds: float = 0.0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["HYPERBO_OUTPUT_DIR"] = str(output_dir)
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config), "--mode", mode, "--result", str(result)]
    cmd += ["--seconds", repr(seconds)]
    try:
        # subprocess.run kills the child and waits for it if the timeout expires.
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} child did not finish in time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{mode} child failed with exit code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    if Path(out["hyperbo_file"]).resolve().parent != SRC / "hyperbo":
        raise SystemExit(f"child imported hyperbo from {out['hyperbo_file']}, not from {SRC}")
    return out


def median_metric(values: list[float]) -> dict:
    return {"value": statistics.median(values), "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 keeps the shipped seeds")
    parser.add_argument("--seconds", type=float, default=10.0, help="measure repetitions for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy loads, for the host probe here and for every child.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path[:0] = [str(HERE), str(SRC)]
    import checks
    import hostspeed
    from workloads import WORKLOADS, write_config

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    needed = [SRC / "hyperbo" / "__init__.py", ROOT / "scripts" / workload.shipped]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work_dir = HERE / "out" / args.workload / f"seed{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    config_path = write_config(workload, ROOT, args.seed, work_dir)
    facts = machine_facts()

    setups = []  # (wall seconds, seconds at the reference host speed)

    def measure_setups(n: int) -> None:
        after = hostspeed.probe()
        for _ in range(n):
            before = after
            out = run_child(config_path, "setup", work_dir / f"setup{len(setups)}.json", work_dir / "setup", deadline)
            after = hostspeed.probe()
            setups.append((out["setup_s"], hostspeed.corrected(out["setup_s"], before, after)))

    # Set-ups before and after the repetitions, where host speed drifts.
    measure_setups(SETUP_SAMPLES // 2)
    modes = ["untraced", "traced"] if args.trace else ["untraced"]
    children = {}
    for mode in modes:
        children[mode] = run_child(
            config_path, mode, work_dir / f"{mode}.json", work_dir / mode, deadline, args.seconds / len(modes)
        )
    measure_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    # Output checks, on every repetition, warm-ups included.
    problems: list[str] = []
    attempted = failed = 0
    reps = [(mode, k, rep) for mode, out in children.items() for k, rep in enumerate(out["reps"])]
    reference = Path(reps[0][2]["output_dir"])
    optimum, bests = checks.initial_bests(config_path, checks.read_manifest(reference))
    for mode, k, rep in reps:
        rep_dir = Path(rep["output_dir"])
        tried, lost, bad = checks.count_failures(rep_dir, rep["failure_rates"])
        attempted += tried
        failed += lost
        bad += checks.check_traces(rep_dir, optimum, bests)
        if rep_dir != reference:
            bad += checks.compare_artifacts(reference, rep_dir)
        problems += [f"{mode}/rep{k}: {msg}" for msg in bad]

    def measured(mode: str) -> list[dict]:
        """A child's repetitions after the warm-up, each with the factor that corrects its times."""
        probes = children[mode]["probes"]
        return [
            {**rep, "factor": hostspeed.corrected(1.0, probes[k], probes[k + 1])}
            for k, rep in enumerate(children[mode]["reps"])
            if k > 0
        ]

    untraced = measured("untraced")

    def trial_seconds(strategy: str, corrected: bool = True) -> dict:
        # Median over repetitions of each repetition's mean trial time.
        per_rep = [
            statistics.fmean(t["s"] for t in times) * (r["factor"] if corrected else 1.0)
            for r in untraced
            if (times := [t for t in r["strategy_times"] if t["strategy"] == strategy])
        ]
        if not per_rep:
            raise SystemExit(f"no successful {strategy} trial to time")
        n = sum(t["strategy"] == strategy for r in untraced for t in r["strategy_times"])
        return {"value": statistics.median(per_rep), "n": n}

    end_to_end = {
        "run_s": median_metric([r["run_s"] * r["factor"] for r in untraced]),
        "setup_s": median_metric([c for _, c in setups]),
        "hyperbo_trial_s": trial_seconds("hyperbo"),
        "standard_bo_trial_s": trial_seconds("standard_bo"),
        "peak_rss_mb": {"value": children["untraced"]["peak_rss_mb"], "n": 1},
    }
    wall = {
        "run_s": median_metric([r["run_s"] for r in untraced]),
        "setup_s": median_metric([w for w, _ in setups]),
        "hyperbo_trial_s": trial_seconds("hyperbo", corrected=False),
        "standard_bo_trial_s": trial_seconds("standard_bo", corrected=False),
    }
    for name, unit in END_TO_END.items():
        end_to_end[name]["unit"] = unit
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": end_to_end,
        "wall_clock": wall,
        "machine": facts,
        "probe_reference_s": hostspeed.REFERENCE_S,
        "results": checks.result_facts(reference),
        "setups": [{"s": w, "corrected_s": c} for w, c in setups],
        "children": {
            mode: {
                "setup_s": out["setup_s"],
                "peak_rss_mb": out["peak_rss_mb"],
                "reps": [{k: v for k, v in rep.items() if k != "layers"} for rep in out["reps"]],
                "probes": out["probes"],
            }
            for mode, out in children.items()
        },
    }
    if args.trace:
        traced = measured("traced")
        layers = {
            name: median_metric([r["layers"][name] * (r["factor"] if per_layer_unit(name) == "s" else 1.0) for r in traced])
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = {
            "value": statistics.median(r["run_s"] * r["factor"] for r in traced) - end_to_end["run_s"]["value"],
            "n": len(traced),
        }
        for name, entry in layers.items():
            entry["unit"] = per_layer_unit(name)
        record["per_layer"] = layers
    with open(work_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, entry in {**end_to_end, **record.get("per_layer", {})}.items():
        line = f"{args.workload:22s} {name:34s} {entry['value']:>14.6g} {entry['unit']:6s} n={entry['n']}"
        if name in wall:
            line += f"  (wall clock {wall[name]['value']:.6g} s)"
        print(line)
    print(f"{args.workload:22s} {'failed_share':34s} {record['failed_share']:>14.6g} ratio  n={attempted}")
    shown = {k: v for k, v in record["per_layer"].items() if k not in RECORD_ONLY} if args.trace else end_to_end
    for msg in problems:
        print(f"CHECK FAILED {msg}")
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in shown.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
