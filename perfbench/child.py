"""One benchmark process: set up, then run the experiment again and again, and report.

    python3 perfbench/child.py --config CFG --mode untraced|traced|setup --result OUT.json [--seconds S]

`setup` stops after `load_config`.  The other modes call `run_experiment`
repeatedly in this interpreter, each repetition writing into its own
directory `rep<k>` under HYPERBO_OUTPUT_DIR, with a host-speed probe (see
hostspeed.py) before each repetition and after the last.  Repetition 0 warms up (lazy
imports, first-touch allocations) and is recorded but not counted by the
parent; after it, repetitions continue while another one fits in --seconds,
and at least MIN_REPS are measured.  `untraced` times each `run_experiment`
call and each strategy call.  `traced` wraps every layer boundary (see
spans.py) afresh for each repetition and writes the spans of the first
measured one next to the result.  The parent sets PYTHONPATH, the BLAS
thread variables and HYPERBO_OUTPUT_DIR.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

MIN_REPS = 3  # measured repetitions, after the warm-up


def _artifact_bytes(out_dir: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", choices=("untraced", "traced", "setup"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="measure repetitions for about this long")
    args = parser.parse_args(argv)

    if args.mode == "traced":
        import spans  # imports numpy, so it stays outside the set-up timer of the other modes

    start = time.perf_counter()
    import hyperbo.bench as hb

    config = hb.load_config(args.config)
    setup_s = time.perf_counter() - start
    result = {"mode": args.mode, "setup_s": setup_s, "hyperbo_file": os.path.abspath(hb.__file__)}

    if args.mode != "setup":
        import hostspeed
        import spans

        base = Path(os.environ[hb.OUTPUT_DIR_ENV])
        reps: list[dict] = []
        timings: list[dict] = []
        unpatch = spans.time_strategies(timings) if args.mode == "untraced" else None
        probes: list[float] = []  # probes[k] runs just before repetition k, the last after the last one
        measure_start = None
        while True:
            os.environ[hb.OUTPUT_DIR_ENV] = str(base / f"rep{len(reps)}")
            probes.append(hostspeed.probe())
            if unpatch is None:
                recorder = spans.Recorder()
                unwrap = spans.install(recorder)
                with recorder.span(spans.RUN_SPAN) as run_span:
                    outcome = hb.run_experiment(config)
                unwrap()
                run_s = run_span["end"] - run_span["start"]
                times = [
                    {"strategy": s["strategy"], "trial": s["trial"], "s": s["end"] - s["start"]}
                    for s in recorder.spans
                    if s["name"] == spans.STRATEGY_SPAN
                ]
            else:
                del timings[:]
                began = time.perf_counter()
                outcome = hb.run_experiment(config)
                run_s = time.perf_counter() - began
                times = list(timings)
            rep = {
                "run_s": run_s,
                "strategy_times": times,
                "failure_rates": outcome.failure_rates,
                "output_dir": str(outcome.output_dir),
            }
            if unpatch is None:
                layers = spans.layer_metrics(recorder)
                layers["bench.artifact_bytes"] = _artifact_bytes(str(outcome.output_dir))
                rep["layers"] = layers
                if len(reps) == 1:
                    with open(args.result + ".spans.jsonl", "w", encoding="utf-8") as fh:
                        for s in recorder.spans:
                            fh.write(json.dumps(s) + "\n")
            reps.append(rep)
            if measure_start is None:
                measure_start = time.perf_counter()
                continue
            measured = reps[1:]
            elapsed = time.perf_counter() - measure_start
            if len(measured) >= MIN_REPS and elapsed + max(r["run_s"] for r in measured) > args.seconds:
                break
        probes.append(hostspeed.probe())
        if unpatch is not None:
            unpatch()
        result.update(reps=reps, probes=probes, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
