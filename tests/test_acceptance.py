"""End-to-end acceptance suite.

Each test prints one PASS line (visible with -v via the test name, and on
stdout with -s/-rA) and pins its tolerance inline.  The long-running recovery
criteria (5-7) drive the full framework at calibrated benchmark settings; see
the module docstrings for the statistic each one asserts.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from hyperbo.acquisition import thompson_sample_argmax
from hyperbo.engine import ModelTheta, RunConfig, rerun_with_best_theta, run_framework
from hyperbo.gp import KernelParams, gp_fit
from hyperbo.monotonic import (
    VirtualDerivativeSet,
    fit_monotonic_gp,
    gradient_gram_matrix,
    value_gradient_cross_matrix,
)
from hyperbo.scoring import length_scale_lambda, monotonicity_lambda, regret_normalizer, score_model
from hyperbo.tasks import make_goldstein_price_task, make_gp_sample_task, monotonicity_report

from kernel_oracles import cov_gradient_gradient, cov_value_gradient, se_kernel


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def check_regret_traces(traces) -> int:
    """The regret-trace invariant of criterion 10: every trace is non-negative
    and non-increasing.  Criteria 5-7 and 9 apply it to the traces they produce."""
    assert traces, "no regret traces to check"
    for trace in traces:
        assert np.all(trace >= 0)
        assert np.all(np.diff(trace) <= 1e-12)
    return len(traces)


def test_criterion_01_gp_oracle_equivalence():
    """Posterior mean/variance match explicit dense-inverse evaluation to 1e-8."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        t = int(rng.integers(1, 21))
        params = KernelParams(
            float(rng.uniform(0.5, 2.0)),
            tuple(rng.uniform(0.15, 0.9, size=d)),
            float(rng.uniform(1e-6, 1e-3)),
        )
        X = rng.uniform(0, 1, size=(t, d))
        y = rng.normal(size=t)
        K = np.array([[se_kernel(a, b, params) for b in X] for a in X])
        A = np.linalg.inv(K + params.noise_variance * np.eye(t))
        model = gp_fit(X, y, params)
        for x_star in rng.uniform(0, 1, size=(3, d)):
            k_star = np.array([se_kernel(a, x_star, params) for a in X])
            mean = float(k_star @ A @ y)
            var = max(float(se_kernel(x_star, x_star, params) - k_star @ A @ k_star), 0.0)
            pred = model.predict(x_star)
            worst = max(worst, abs(pred.mean - mean), abs(pred.variance - var))
    elapsed = time.time() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    report(1, f"100 instances, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_derivative_kernel_correctness():
    """Value-gradient and gradient-gradient covariances match finite differences,
    both the scalar reference forms and the matrices the monotonic GP uses."""
    start = time.time()
    rng = np.random.default_rng(202)
    params = KernelParams(1.3, (0.35, 0.5), noise_variance=0.0)
    for _ in range(20):
        x, xp = rng.uniform(0, 1, size=(2, 2))
        g, h = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        step = 1e-6
        e = np.zeros(2)
        e[g] = step
        fd1 = (se_kernel(x, xp + e, params) - se_kernel(x, xp - e, params)) / (2 * step)
        assert cov_value_gradient(x, xp, g, params) == pytest.approx(fd1, abs=1e-6)
        assert value_gradient_cross_matrix(x[None], xp[None], params)[0, g] == pytest.approx(fd1, abs=1e-6)
        step2 = 1e-4
        eg = np.zeros(2)
        eg[g] = step2
        eh = np.zeros(2)
        eh[h] = step2
        fd2 = (
            se_kernel(x + eg, xp + eh, params)
            - se_kernel(x + eg, xp - eh, params)
            - se_kernel(x - eg, xp + eh, params)
            + se_kernel(x - eg, xp - eh, params)
        ) / (4 * step2 * step2)
        assert cov_gradient_gradient(x, xp, g, h, params) == pytest.approx(fd2, abs=1e-4)
        # Location-major layout: row g is d/dx_g at x, column 2 + h is d/dx'_h at x'.
        assert gradient_gram_matrix(np.vstack([x, xp]), params)[g, 2 + h] == pytest.approx(fd2, abs=1e-4)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, f"20 point pairs within 1e-6 / 1e-4, {elapsed:.1f}s")


def test_criterion_03_monotonic_gp_sanity():
    """Strict increasing constraint yields a non-decreasing mean; the reversed
    constraint strictly degrades the training fit."""
    start = time.time()
    params = KernelParams(1.0, (0.3,), noise_variance=1e-6)
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ys = (xs - xs.mean()) / xs.std()
    X = xs.reshape(-1, 1)
    virtual = VirtualDerivativeSet.sample(1, np.random.default_rng(7))

    increasing = fit_monotonic_gp(X, ys, params, np.array((0.0, -6.0)), virtual)
    grid = np.linspace(0, 1, 50).reshape(-1, 1)
    means, _ = increasing.predict_batch(grid)
    min_slope = float(np.min(np.diff(means) / np.diff(grid[:, 0])))
    assert min_slope >= -1e-3

    reversed_fit = fit_monotonic_gp(X, ys, params, np.array((-6.0, 0.0)), virtual)
    plain = gp_fit(X, ys, params)
    rmse_reversed = float(np.sqrt(np.mean((reversed_fit.predict_batch(X)[0] - ys) ** 2)))
    rmse_plain = float(np.sqrt(np.mean((plain.predict_batch(X)[0] - ys) ** 2)))
    assert rmse_reversed > rmse_plain

    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"min grid slope {min_slope:+.2e}, reversed RMSE {rmse_reversed:.3f} > plain {rmse_plain:.2e}, {elapsed:.1f}s")


def test_criterion_04_scoring_function():
    """Normalizer matches its closed form to 1e-12; lambda defaults exact; zero gain scores zero."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(2, 100_000))
        d = int(rng.integers(1, 13))
        worst = max(worst, abs(regret_normalizer(T, d) - np.sqrt(np.log(T) ** (d + 1) / T)))
    assert worst < 1e-12
    for d in range(1, 14):
        assert length_scale_lambda(d) == 1.0 / (0.6 * d)
        assert monotonicity_lambda(d) == 1.0 / (12.0 * d)
    assert score_model(0.0, T=50, d=3, theta=(-6.0, 0.0), lam=0.3, mode="monotonicity") == 0.0
    assert score_model(0.0, T=1, d=3, theta=(0.3,), lam=0.3, mode="length_scale") == 0.0
    report(4, f"1000 (T,d) pairs within {worst:.1e}; lambda formulas exact; zero gain -> zero score")


@pytest.mark.slow
def test_criterion_05_goldstein_price_sign_recovery():
    """Across 50 trials the mean discovered monotonicity is decreasing in x1 and
    increasing in x2 (only the signs are asserted; means are logged).

    Calibration: fixed 500-point pools per trial and single-sample scoring
    windows (K=1, R=50); longer windows let one window harvest the entire easy
    phase regardless of theta, which destroys score identifiability.
    """
    start = time.time()
    task = make_goldstein_price_task(pool_size=500)
    best, traces = [], []
    for trial in range(50):
        config = RunConfig(mode="monotonicity", m=5, K=1, R=50, seed=7000 + trial)
        result = run_framework(task, config)
        best.append(result.best_theta.values)
        traces.append(result.regrets)
    check_regret_traces(traces)
    rows = monotonicity_report(best)
    nets = [row.net for row in rows]
    elapsed = time.time() - start
    assert rows[0].direction == "decreasing", f"x1 net {nets[0]:+.3f} should be negative"
    assert rows[1].direction == "increasing", f"x2 net {nets[1]:+.3f} should be positive"
    assert elapsed < 1800.0
    report(5, f"net x1 {nets[0]:+.2f}, net x2 {nets[1]:+.2f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_06_case2_trend():
    """Paired Case-2 comparison on Goldstein-Price: the gold-standard-strictness
    run is no worse than plain BO in mean final regret, and re-running each
    trial's best discovered strictness lands within 1.1x of the gold run."""
    start = time.time()
    budget = 30
    task = make_goldstein_price_task(pool_size=5000)
    gold_theta = ModelTheta("monotonicity", (-6.0, 0.0, 0.0, -6.0))
    standard, gold, best, traces = [], [], [], []
    for seed in range(20):
        config = RunConfig(mode="monotonicity", m=5, K=1, R=50, seed=seed)
        discovery = run_framework(task, config)
        runs = [
            rerun_with_best_theta(task, theta, budget, config)
            for theta in (None, gold_theta, discovery.best_theta)
        ]
        for finals, run in zip((standard, gold, best), runs):
            finals.append(run.regrets[-1])
        traces += [discovery.regrets] + [run.regrets for run in runs]
    check_regret_traces(traces)
    mean_std, mean_gold, mean_best = np.mean(standard), np.mean(gold), np.mean(best)
    elapsed = time.time() - start
    assert mean_gold <= mean_std
    assert mean_best <= 1.1 * mean_gold
    assert elapsed < 1800.0
    report(
        6,
        f"mean final regret: standard {mean_std:.0f}, gold {mean_gold:.0f}, "
        f"best-theta {mean_best:.0f} (ratio {mean_best / mean_gold:.3f} <= 1.1), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_07_length_scale_recovery():
    """On a GP draw with true length scales 0.2, the mean discovered length
    scale sits closer to 0.2 than the grid-uniform mean (0.35) in every
    dimension: |mean theta_d - 0.2| < 0.15."""
    start = time.time()
    task = make_gp_sample_task(2, 0.2, n_points=300, seed=42)
    best, traces = [], []
    for trial in range(100):
        config = RunConfig(mode="length_scale", m=5, K=1, R=50, seed=9000 + trial, ucb_delta=5.0)
        result = run_framework(task, config)
        best.append(result.best_theta.values)
        traces.append(result.regrets)
    check_regret_traces(traces)
    arr = np.vstack(best)
    mean_theta = arr.mean(axis=0)
    distances = np.abs(mean_theta - 0.2)
    mean_abs_dev = np.abs(arr - 0.2).mean(axis=0)
    elapsed = time.time() - start
    assert np.all(distances < 0.15), f"mean theta {mean_theta} strays from 0.2"
    assert elapsed < 1200.0
    report(
        7,
        f"mean theta {np.round(mean_theta, 3)} (|mean-0.2| = {np.round(distances, 3)} < 0.15; "
        f"mean |theta-0.2| = {np.round(mean_abs_dev, 3)}), {elapsed:.0f}s",
    )


def test_criterion_08_thompson_sampling_statistics():
    """Selection frequencies match an independent Monte Carlo oracle within 0.03."""
    start = time.time()
    means = np.array([0.3, 0.0, 0.25])
    cov = np.array(
        [
            [0.50, 0.20, 0.10],
            [0.20, 0.40, 0.05],
            [0.10, 0.05, 0.60],
        ]
    )
    n = 100_000
    rng = np.random.default_rng(808)
    counts = np.zeros(3)
    for _ in range(n):
        counts[thompson_sample_argmax(means, cov, rng)] += 1
    ours = counts / n

    oracle_rng = np.random.default_rng(111)
    vals, vecs = np.linalg.eigh(cov)
    root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0))) @ vecs.T
    draws = means + oracle_rng.standard_normal((n, 3)) @ root.T
    oracle = np.bincount(np.argmax(draws, axis=1), minlength=3) / n

    gap = float(np.max(np.abs(ours - oracle)))
    elapsed = time.time() - start
    assert gap < 0.03
    assert elapsed < 60.0
    report(8, f"frequencies {np.round(ours, 4)} vs oracle {np.round(oracle, 4)}, max gap {gap:.4f}, {elapsed:.0f}s")


def test_criterion_09_run_determinism(tmp_path):
    """Two executions of `run` with the same config and seed emit byte-identical CSVs."""
    from hyperbo.bench import ExperimentConfig, run_experiment

    def do_run(tag):
        config = ExperimentConfig(
            task={"kind": "gp_sample", "dim": 1, "length_scale": 0.3, "n_points": 40, "seed": 5},
            mode="length_scale",
            trials=3,
            m=2,
            K=2,
            budget=6,
            seed=77,
            strategies=("standard_bo", "hyperbo"),
            output_dir=str(tmp_path / tag),
        )
        return run_experiment(config).output_dir

    out_a, out_b = do_run("a"), do_run("b")
    names = sorted(p.name for p in Path(out_a).glob("*.csv"))
    assert names, "no CSVs emitted"
    for name in names:
        assert (Path(out_a) / name).read_bytes() == (Path(out_b) / name).read_bytes()
    # Emitted per-trial traces also satisfy the regret-trace invariant (criterion 10).
    trace_paths = sorted(Path(out_a).glob("trace_*.csv"))
    traces = [np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2] for path in trace_paths]
    check_regret_traces(traces)
    report(9, f"{len(names)} CSV artifacts byte-identical across reruns")


def test_criterion_10_regret_trace_invariant():
    """Regret traces of every strategy, in both modes, are non-negative and non-increasing.

    Runs its own short trials; criteria 5-7 and 9 check the same invariant on
    the traces they produce.
    """
    start = time.time()
    goldstein = make_goldstein_price_task(pool_size=200)
    gp_draw = make_gp_sample_task(2, 0.2, n_points=100, seed=42)
    gold_theta = ModelTheta("monotonicity", (-6.0, 0.0, 0.0, -6.0))
    traces = []
    for seed in range(2):
        config = RunConfig(mode="monotonicity", m=2, K=1, R=4, seed=seed)
        discovery = run_framework(goldstein, config)
        traces.append(discovery.regrets)
        for theta in (None, gold_theta, discovery.best_theta):
            traces.append(rerun_with_best_theta(goldstein, theta, 4, config).regrets)
        config = RunConfig(mode="length_scale", m=2, K=2, R=5, seed=seed, ucb_delta=5.0)
        traces.append(run_framework(gp_draw, config).regrets)
    count = check_regret_traces(traces)
    elapsed = time.time() - start
    report(10, f"{count} traces non-negative and non-increasing, {elapsed:.1f}s")
