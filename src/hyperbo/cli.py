"""Command-line entry points: run an experiment, emit reports, validate a config.

Exit codes: 0 success, 1 experiment failures above the threshold (or report
impossible), 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from hyperbo import BLAS_THREAD_VARS

# One BLAS thread, as in the pooled workers: BLAS reads these once, when hyperbo.bench loads numpy.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from hyperbo.bench import ConfigError, ReportError, emit_reports, load_config, run_experiment  # noqa: E402

EXIT_OK = 0
EXIT_EXPERIMENT_FAILURES = 1
EXIT_CONFIG_ERROR = 2


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    outcome = run_experiment(config)
    for name, rate in sorted(outcome.failure_rates.items()):
        print(f"{name}: {100 * (1 - rate):.0f}% trials succeeded")
    print(f"artifacts written to {outcome.output_dir}")
    return EXIT_OK if outcome.ok else EXIT_EXPERIMENT_FAILURES


def _cmd_report(args) -> int:
    try:
        path = emit_reports(args.run_dir)
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILURES
    if path is not None:
        print(f"report written to {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"ok: {args.config} ({config.mode}, {config.trials} trials, budget {config.budget})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperbo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.set_defaults(fn=_cmd_run)

    p_report = sub.add_parser("report", help="emit the monotonicity report for a finished run")
    p_report.add_argument("run_dir", help="output directory of a completed run")
    p_report.set_defaults(fn=_cmd_report)

    p_validate = sub.add_parser("validate", help="check a config without running it")
    p_validate.add_argument("config", help="path to the experiment config (JSON)")
    p_validate.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
