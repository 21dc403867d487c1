"""Outside-in tracing of hyperbo's layers: spans, counts and per-layer metrics.

`install` replaces each layer's public entry point with a wrapper that opens
a span around the call, at the name its caller looks up (for example
`hyperbo.engine.gp_fit`, not `hyperbo.gp.gp_fit`).  Nothing under `src/`
changes.  Spans nest through a stack, so each one knows its parent and the
trial and strategy it ran under.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

STRATEGY_SPAN = "strategy"
RUN_SPAN = "bench.run_experiment"


class Recorder:
    """Spans and counts of one traced pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, strategy: str | None = None, trial: int | None = None):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trial": trial if trial is not None else (parent["trial"] if parent else None),
            "strategy": strategy if strategy is not None else (parent["strategy"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its direct children cover.

    Children are clipped to the parent's interval and overlapping children are
    merged, so no instant is subtracted twice.  Grandchildren are already
    inside a child and are not subtracted again.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def strategy_of(theta, last_hyperbo_theta) -> str:
    """Name the strategy behind one `rerun_with_best_theta` call.

    `hyperbo.bench` passes None for the plain-BO baseline and the very
    `best_theta` object of the trial's hyperbo result for the rerun; any other
    theta is the configured gold standard.
    """
    if theta is None:
        return "standard_bo"
    if theta is last_hyperbo_theta:
        return "best_theta_rerun"
    return "gold_standard_theta"


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make_wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _wrap_strategies(patches: _Patches, around) -> None:
    """Wrap both strategy entry points of `hyperbo.bench` in `around(strategy, trial)`."""
    import hyperbo.bench as hb

    last = {"theta": None}

    def wrap_framework(original):
        def run_framework(task, config):
            with around("hyperbo", config.seed):
                result = original(task, config)
            last["theta"] = result.best_theta
            return result

        return run_framework

    def wrap_rerun(original):
        def rerun_with_best_theta(task, theta, budget, config):
            with around(strategy_of(theta, last["theta"]), config.seed):
                return original(task, theta, budget, config)

        return rerun_with_best_theta

    patches.replace(hb, "run_framework", wrap_framework)
    patches.replace(hb, "rerun_with_best_theta", wrap_rerun)


def time_strategies(timings: list[dict]):
    """Untraced pass: one timer per strategy call, appended to `timings`.

    Returns a function that removes the timers.
    """

    @contextmanager
    def timer(strategy, trial):
        start = time.perf_counter()
        yield
        timings.append({"strategy": strategy, "trial": trial, "s": time.perf_counter() - start})

    patches = _Patches()
    _wrap_strategies(patches, timer)
    return patches.undo


def install(rec: Recorder):
    """Traced pass: wrap every layer boundary.  Returns a function that unwraps them."""
    import hyperbo.acquisition as acq
    import hyperbo.bench as hb
    import hyperbo.engine as eng
    from hyperbo.gp import FittedGP
    from hyperbo.monotonic import FittedMonotonicGP
    from hyperbo.tasks import Task

    patches = _Patches()

    def spanned(name):
        def make(original):
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def wrap_monotonic_fit(original):
        def fit_monotonic_gp(*args, **kwargs):
            with rec.span("monotonic.fit") as record:
                model = original(*args, **kwargs)
                record.update(sweeps=int(model.sweeps), converged=bool(model.converged))
            rec.count("monotonic.fit_calls")
            rec.count("monotonic.ep_sweeps", int(model.sweeps))
            rec.count("monotonic.nonconverged", int(not model.converged))
            return model

        return fit_monotonic_gp

    def wrap_gp_fit(original):
        def gp_fit(*args, **kwargs):
            with rec.span("gp.fit") as record:
                model = original(*args, **kwargs)
                record["jitter"] = float(model.jitter)
            rec.count("gp.fit_calls")
            rec.count("gp.jittered_fits", int(model.jitter > 0))
            return model

        return gp_fit

    def wrap_ucb(original):
        def ucb_select(model, candidates, beta):
            rec.count("acquisition.ucb_calls")
            rec.count("acquisition.ucb_candidates", int(np.count_nonzero(~candidates.excluded)))
            with rec.span("acquisition.ucb"):
                return original(model, candidates, beta)

        return ucb_select

    def wrap_thompson(original):
        def thompson_select(model, candidates, rng):
            rows = candidates.points[~candidates.excluded]
            rec.count("acquisition.thompson_candidates", rows.shape[0])
            rec.count("acquisition.thompson_unique", np.unique(rows, axis=0).shape[0])
            with rec.span("acquisition.thompson"):
                return original(model, candidates, rng)

        return thompson_select

    def wrap_window(original):
        def model_score_window(*args, **kwargs):
            rec.count("engine.windows")
            with rec.span("engine.window"):
                return original(*args, **kwargs)

        return model_score_window

    def wrap_sample(original):
        def sample(self, rng):
            rec.count("engine.theta_draws")
            return original(self, rng)

        return sample

    def wrap_observe(original):
        def observe(self, index, x):
            rec.count("tasks.observes")
            with rec.span("tasks.observe"):
                return original(self, index, x)

        return observe

    def wrap_build(original):
        def build_task(spec):
            rec.count("tasks.build_calls")
            with rec.span("tasks.build"):
                return original(spec)

        return build_task

    _wrap_strategies(patches, lambda strategy, trial: rec.span(STRATEGY_SPAN, strategy=strategy, trial=trial))
    patches.replace(hb, "build_task", wrap_build)
    patches.replace(hb, "emit_reports", spanned("bench.emit_reports"))
    patches.replace(eng, "fit_monotonic_gp", wrap_monotonic_fit)
    patches.replace(eng, "gp_fit", wrap_gp_fit)
    patches.replace(eng, "ucb_select", wrap_ucb)
    patches.replace(eng, "thompson_select", wrap_thompson)
    patches.replace(eng, "hyperbo_step", spanned("engine.outer"))
    patches.replace(eng, "model_score_window", wrap_window)
    patches.replace(acq, "thompson_sample_argmax", spanned("acquisition.sample_argmax"))
    patches.replace(FittedGP, "predict_batch", spanned("gp.predict"))
    patches.replace(FittedGP, "predict_joint", spanned("acquisition.predict_joint"))
    patches.replace(FittedMonotonicGP, "predict_batch", spanned("monotonic.predict"))
    patches.replace(eng.ModelSpace, "sample", wrap_sample)
    pending = list(Task.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "observe" in cls.__dict__:
            patches.replace(cls, "observe", wrap_observe)
    return patches.undo


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer totals of one traced pass, named as in BENCHMARK.json."""
    total: Counter = Counter()
    self_total: Counter = Counter()
    own = self_times(rec.spans)
    for s in rec.spans:
        total[s["name"]] += s["end"] - s["start"]
        self_total[s["name"]] += own[s["id"]]
    c = rec.counts
    runs = [s for s in rec.spans if s["name"] == RUN_SPAN]
    strategies = [s for s in rec.spans if s["name"] == STRATEGY_SPAN]
    run_s = sum(s["end"] - s["start"] for s in runs)
    last_strategy_end = max((s["end"] for s in strategies), default=None)
    report_s = sum(s["end"] - (last_strategy_end or s["start"]) for s in runs)
    fits = c["monotonic.fit_calls"]
    return {
        "monotonic.fit_s": total["monotonic.fit"],
        "monotonic.fit_share": _ratio(total["monotonic.fit"], run_s, 0.0),
        "monotonic.fit_calls": fits,
        "monotonic.ep_sweeps": c["monotonic.ep_sweeps"],
        "monotonic.nonconverged": c["monotonic.nonconverged"],
        "monotonic.converged_share": _ratio(fits - c["monotonic.nonconverged"], fits, 1.0),
        "monotonic.predict_s": total["monotonic.predict"],
        "monotonic.predict_share": _ratio(total["monotonic.predict"], run_s, 0.0),
        "gp.fit_s": total["gp.fit"],
        "gp.fit_calls": c["gp.fit_calls"],
        "gp.jittered_fits": c["gp.jittered_fits"],
        "gp.predict_s": total["gp.predict"],
        "acquisition.ucb_s": total["acquisition.ucb"],
        "acquisition.ucb_calls": c["acquisition.ucb_calls"],
        "acquisition.ucb_candidates": c["acquisition.ucb_candidates"],
        "acquisition.thompson_s": total["acquisition.thompson"],
        "acquisition.predict_joint_s": total["acquisition.predict_joint"],
        "acquisition.sample_argmax_s": total["acquisition.sample_argmax"],
        "acquisition.thompson_candidates": c["acquisition.thompson_candidates"],
        "acquisition.thompson_unique_share": _ratio(
            c["acquisition.thompson_unique"], c["acquisition.thompson_candidates"], 1.0
        ),
        "engine.outer_s": total["engine.outer"],
        "engine.outer_calls": sum(1 for s in rec.spans if s["name"] == "engine.outer"),
        "engine.outer_self_s": self_total["engine.outer"],
        "engine.theta_draws": c["engine.theta_draws"],
        "engine.window_s": total["engine.window"],
        "engine.window_self_s": self_total["engine.window"],
        "engine.windows": c["engine.windows"],
        "tasks.observe_s": total["tasks.observe"],
        "tasks.observes": c["tasks.observes"],
        "tasks.build_s": total["tasks.build"],
        "tasks.build_calls": c["tasks.build_calls"],
        "bench.self_s": run_s - sum(s["end"] - s["start"] for s in strategies),
        "bench.report_s": report_s,
    }
