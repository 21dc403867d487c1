"""Span arithmetic, strategy labels, and the traced pass leaving results unchanged."""

import json

import spans
from checks import compare_artifacts


def span(id_, parent, start, end, name="x"):
    return {"id": id_, "name": name, "parent": parent, "trial": None, "strategy": None, "start": start, "end": end}


def test_self_time_subtracts_direct_children_only():
    tree = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),  # grandchild: inside span 1, not subtracted from span 0 again
        span(3, 0, 6.0, 7.5),
    ]
    own = spans.self_times(tree)
    assert own == {0: 10.0 - 3.0 - 1.5, 1: 3.0 - 1.0, 2: 1.0, 3: 1.5}


def test_self_time_merges_overlap_and_clips_to_parent():
    tree = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 2.0, 5.0),
        span(2, 0, 4.0, 6.0),  # overlaps span 1 by one second
        span(3, 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == 10.0 - 4.0 - 1.0


def test_recorder_links_parents_and_inherits_trial_and_strategy():
    rec = spans.Recorder()
    with rec.span("outer", strategy="hyperbo", trial=7):
        with rec.span("inner"):
            pass
    with rec.span("after"):
        pass
    outer, inner, after = rec.spans
    assert inner["parent"] == outer["id"] and (inner["trial"], inner["strategy"]) == (7, "hyperbo")
    assert after["parent"] is None and after["strategy"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_strategy_labels():
    best = object()
    assert spans.strategy_of(None, best) == "standard_bo"
    assert spans.strategy_of(best, best) == "best_theta_rerun"
    assert spans.strategy_of(object(), best) == "gold_standard_theta"


def test_layer_metrics_bench_arithmetic():
    rec = spans.Recorder()
    rec.spans = [
        span(0, None, 0.0, 10.0, spans.RUN_SPAN),
        span(1, 0, 1.0, 4.0, spans.STRATEGY_SPAN),
        span(2, 0, 4.0, 8.5, spans.STRATEGY_SPAN),
    ]
    layers = spans.layer_metrics(rec)
    assert layers["bench.self_s"] == 10.0 - 3.0 - 4.5
    assert layers["bench.report_s"] == 10.0 - 8.5


def test_traced_pass_keeps_artifacts_and_counts_every_layer(tiny_run):
    import hyperbo.bench as hb
    import hyperbo.engine as eng

    plain_cfg, plain_dir = tiny_run("plain")
    traced_cfg, traced_dir = tiny_run("traced")
    timings = []
    undo = spans.time_strategies(timings)
    try:
        hb.run_experiment(hb.load_config(str(plain_cfg)))
    finally:
        undo()
    assert sorted((t["strategy"], t["trial"]) for t in timings) == sorted(
        (name, seed) for name in ("standard_bo", "hyperbo", "best_theta_rerun", "gold_standard_theta") for seed in (11, 12)
    )

    originals = (hb.run_framework, eng.gp_fit, eng.ModelSpace.sample)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        with rec.span(spans.RUN_SPAN):
            hb.run_experiment(hb.load_config(str(traced_cfg)))
    finally:
        undo()
    assert (hb.run_framework, eng.gp_fit, eng.ModelSpace.sample) == originals
    assert compare_artifacts(plain_dir, traced_dir) == []

    layers = spans.layer_metrics(rec)
    manifest = json.loads((traced_dir / "manifest.json").read_text())
    # Windows: 2 trials x 4 samples for hyperbo; inner steps: 4 strategies x 4 samples.
    assert layers["engine.windows"] == 8
    assert layers["tasks.observes"] == 2 * 4 * 4
    assert layers["engine.outer_calls"] == 2 * 2
    assert layers["monotonic.fit_calls"] == 2 * 3 * 4  # every strategy but standard_bo fits EP
    assert layers["acquisition.ucb_calls"] == 2 * 4 * 4
    assert layers["tasks.build_calls"] == 3  # load_config, run_experiment, emit_reports
    assert layers["monotonic.ep_sweeps"] >= layers["monotonic.fit_calls"]
    assert 0.0 < layers["acquisition.thompson_unique_share"] <= 1.0
    assert layers["engine.theta_draws"] >= 2 * 2
    assert all(
        tr["strategies"][s]["status"] == "ok" for tr in manifest["trials"] for s in tr["strategies"]
    )
    strategy_spans = [s for s in rec.spans if s["name"] == spans.STRATEGY_SPAN]
    assert {(s["strategy"], s["trial"]) for s in strategy_spans} == {(t["strategy"], t["trial"]) for t in timings}
    for name, value in layers.items():
        assert value >= 0, name
