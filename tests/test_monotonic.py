"""Monotonicity-constrained GP: derivative kernels vs finite differences, EP sanity."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_solve, cholesky, solve_triangular

import hyperbo
from hyperbo import monotonic
from hyperbo.acquisition import CandidateSet
from hyperbo.engine import RunConfig, run_framework
from hyperbo.gp import KernelParams, gp_fit
from hyperbo.monotonic import (
    FittedMonotonicGP,
    fit_monotonic_gp,
    gradient_gram_matrix,
    value_gradient_cross_matrix,
)

from hyperbo.tasks import goldstein_price, make_goldstein_price_task

from ep_oracle import (
    fit_rows,
    joint_ep_fit,
    joint_moves,
    joint_posterior,
    joint_prior,
    sequential_ep_fit,
    workspace_over,
)
from kernel_oracles import cov_gradient_gradient, cov_value_gradient, random_gp_instance, se_kernel, se_kernel_matrix_einsum

PARAMS_2D = KernelParams(1.0, (0.3, 0.45), noise_variance=1e-6)


def fd_value_gradient(x, x_prime, g, params, h=1e-6):
    """Central finite difference of the kernel in the g-th coordinate of x'."""
    e = np.zeros(len(x_prime))
    e[g] = h
    return (se_kernel(x, x_prime + e, params) - se_kernel(x, x_prime - e, params)) / (2 * h)


def fd_gradient_gradient(x, x_prime, g, h_idx, params, h=1e-4):
    """Mixed second-order finite difference in x_g and x'_h."""
    eg = np.zeros(len(x))
    eg[g] = h
    eh = np.zeros(len(x_prime))
    eh[h_idx] = h
    kpp = se_kernel(x + eg, x_prime + eh, params)
    kpm = se_kernel(x + eg, x_prime - eh, params)
    kmp = se_kernel(x - eg, x_prime + eh, params)
    kmm = se_kernel(x - eg, x_prime - eh, params)
    return (kpp - kpm - kmp + kmm) / (4 * h * h)


class TestDerivativeKernels:
    def test_zero_offset_identities(self):
        x = np.array([0.3, 0.6])
        assert cov_value_gradient(x, x, 0, PARAMS_2D) == pytest.approx(0.0, abs=1e-15)
        assert cov_value_gradient(x, x, 1, PARAMS_2D) == pytest.approx(0.0, abs=1e-15)
        for g in range(2):
            expected = PARAMS_2D.signal_variance / PARAMS_2D.length_scales[g] ** 2
            assert cov_gradient_gradient(x, x, g, g, PARAMS_2D) == pytest.approx(expected, rel=1e-12)

    def test_value_gradient_matches_finite_difference(self, rng):
        for _ in range(20):
            x, xp = rng.uniform(0, 1, size=(2, 2))
            g = rng.integers(0, 2)
            analytic = cov_value_gradient(x, xp, g, PARAMS_2D)
            numeric = fd_value_gradient(x, xp, g, PARAMS_2D)
            assert analytic == pytest.approx(numeric, abs=1e-6)

    def test_gradient_gradient_matches_finite_difference(self, rng):
        for _ in range(20):
            x, xp = rng.uniform(0, 1, size=(2, 2))
            g, h = rng.integers(0, 2, size=2)
            analytic = cov_gradient_gradient(x, xp, g, h, PARAMS_2D)
            numeric = fd_gradient_gradient(x, xp, g, h, PARAMS_2D)
            assert analytic == pytest.approx(numeric, abs=1e-4)

    def test_cross_matrix_matches_scalar_form(self, rng):
        X = rng.uniform(0, 1, size=(4, 2))
        Z = rng.uniform(0, 1, size=(3, 2))
        M = value_gradient_cross_matrix(X, Z, PARAMS_2D)
        for i in range(4):
            for j in range(3):
                for g in range(2):
                    assert M[i, j * 2 + g] == pytest.approx(
                        cov_value_gradient(X[i], Z[j], g, PARAMS_2D), abs=1e-12
                    )

    def test_gradient_gram_matches_scalar_form(self, rng):
        Z = rng.uniform(0, 1, size=(3, 2))
        G = gradient_gram_matrix(Z, PARAMS_2D)
        for j in range(3):
            for jp in range(3):
                for g in range(2):
                    for h in range(2):
                        assert G[j * 2 + g, jp * 2 + h] == pytest.approx(
                            cov_gradient_gradient(Z[j], Z[jp], g, h, PARAMS_2D), abs=1e-12
                        )

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_derivative_matrices_match_einsum_kernel(self, monkeypatch, rng, d):
        params, X, _ = random_gp_instance(rng, d, t=15)
        Z = rng.uniform(0, 1, size=(2 * d * d, d))
        cross, gram = value_gradient_cross_matrix(X, Z, params), gradient_gram_matrix(Z, params)
        monkeypatch.setattr(monotonic, "se_kernel_matrix", se_kernel_matrix_einsum)
        assert np.array_equal(cross, value_gradient_cross_matrix(X, Z, params))
        assert np.array_equal(gram, gradient_gram_matrix(Z, params))

    def test_joint_prior_is_positive_semidefinite(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            d = int(r.integers(1, 4))
            params = KernelParams(float(r.uniform(0.5, 2.0)), tuple(r.uniform(0.2, 0.6, size=d)))
            X = r.uniform(0, 1, size=(6, d))
            locations = virtual_locations(d, r)
            K = joint_prior(X, locations, params)
            np.testing.assert_allclose(K, K.T, atol=1e-12)
            np.linalg.cholesky(K + 1e-8 * np.eye(K.shape[0]))  # raises if not PSD


def virtual_locations(d, rng):
    """Five virtual derivative locations per dimension, as the engine draws them."""
    return rng.uniform(0.0, 1.0, size=(5 * d, d))


def make_1d_data(xs, ys):
    return np.asarray(xs, dtype=float).reshape(-1, 1), np.asarray(ys, dtype=float)


def standardize(y):
    y = np.asarray(y, dtype=float)
    return (y - y.mean()) / y.std()


PARAMS_1D = KernelParams(1.0, (0.3,), noise_variance=1e-6)


class TestMonotonicFit:
    def test_increasing_constraint_yields_nondecreasing_mean(self):
        xs = [0.0, 0.25, 0.5, 0.75, 1.0]
        X, y = make_1d_data(xs, standardize(xs))
        locations = virtual_locations(1, np.random.default_rng(7))
        model = fit_rows(X, y, PARAMS_1D, np.array((0.0, -6.0)), locations)
        grid = np.linspace(0, 1, 50).reshape(-1, 1)
        means, _ = model.predict_batch(grid)
        slopes = np.diff(means) / np.diff(grid[:, 0])
        assert slopes.min() >= -1e-3

    def test_reversed_constraint_degrades_fit(self):
        xs = [0.0, 0.25, 0.5, 0.75, 1.0]
        ys = standardize(xs)
        X, y = make_1d_data(xs, ys)
        locations = virtual_locations(1, np.random.default_rng(7))
        # Strict *decreasing* constraint against increasing data.
        wrong = fit_rows(X, y, PARAMS_1D, np.array((-6.0, 0.0)), locations)
        plain = gp_fit(X, y, PARAMS_1D)
        rmse_wrong = np.sqrt(np.mean((wrong.predict_batch(X)[0] - ys) ** 2))
        rmse_plain = np.sqrt(np.mean((plain.predict_batch(X)[0] - ys) ** 2))
        assert rmse_wrong > rmse_plain

    def test_weak_constraints_near_odd_symmetric_data(self):
        # Equal weak pull in both directions roughly cancels at the symmetry point.
        xs = [0.1, 0.3, 0.5, 0.7, 0.9]
        ys = standardize([-2.0, -0.7, 0.0, 0.7, 2.0])
        X, y = make_1d_data(xs, ys)
        locations = virtual_locations(1, np.random.default_rng(3))
        mono = fit_rows(X, y, PARAMS_1D, np.array((0.0, 0.0)), locations)
        plain = gp_fit(X, y, PARAMS_1D)
        assert abs(mono.predict_batch([0.5])[0][0] - plain.predict_batch([0.5])[0][0]) < 0.05

    def test_weak_constraint_limit_close_to_unconstrained(self):
        for seed in range(3):
            r = np.random.default_rng(seed)
            xs = np.sort(r.uniform(0, 1, size=8))
            ys = standardize(np.sin(2.2 * xs + r.uniform(0, 1)))
            X, y = make_1d_data(xs, ys)
            locations = virtual_locations(1, r)
            mono = fit_rows(X, y, PARAMS_1D, np.array((0.0, 0.0)), locations)
            plain = gp_fit(X, y, PARAMS_1D)
            x_test = r.uniform(0, 1, size=(20, 1))
            delta = mono.predict_batch(x_test)[0] - plain.predict_batch(x_test)[0]
            assert np.max(np.abs(delta)) < 0.1

    def test_derivative_means_respect_imposed_sign(self):
        xs = np.linspace(0, 1, 6)
        X, y = make_1d_data(xs, standardize(xs))
        locations = virtual_locations(1, np.random.default_rng(11))
        model = fit_rows(X, y, PARAMS_1D, np.array((0.0, -6.0)), locations)
        frac_positive = np.mean(model.derivative_means >= 0)
        assert frac_positive >= 0.9

    def test_deterministic_given_virtual_points(self):
        xs = [0.0, 0.4, 0.8]
        X, y = make_1d_data(xs, standardize([0.0, 1.0, 0.5]))
        locations = virtual_locations(1, np.random.default_rng(5))
        sv = np.array((-2.0, -1.0))
        a = fit_rows(X, y, PARAMS_1D, sv, locations)
        b = fit_rows(X, y, PARAMS_1D, sv, locations)
        grid = np.linspace(0, 1, 17).reshape(-1, 1)
        np.testing.assert_array_equal(a.predict_batch(grid)[0], b.predict_batch(grid)[0])
        np.testing.assert_array_equal(a.predict_batch(grid)[1], b.predict_batch(grid)[1])

    def test_conflicting_strict_fit_still_returns(self):
        # Strict decreasing against strongly increasing data: EP may not converge,
        # but the fit must come back flagged rather than raise.
        xs = np.linspace(0, 1, 8)
        X, y = make_1d_data(xs, standardize(xs**2))
        locations = virtual_locations(1, np.random.default_rng(2))
        model = fit_rows(X, y, PARAMS_1D, np.array((-6.0, 0.0)), locations)
        assert isinstance(model, FittedMonotonicGP)
        assert model.sweeps <= 100
        means, variances = model.predict_batch(np.linspace(0, 1, 9).reshape(-1, 1))
        assert np.all(np.isfinite(means)) and np.all(variances >= 0)

    def test_strictness_length_must_match_dimension(self, rng):
        X = rng.uniform(0, 1, size=(6, 2))
        y = standardize(X[:, 0] - X[:, 1])
        locations = virtual_locations(2, rng)
        for strictness in ([0.0, -3.0], [0.0, -3.0, -3.0], [0.0, -3.0, -3.0, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="dimensions must agree"):
                fit_rows(X, y, PARAMS_2D, np.array(strictness), locations)

    def test_location_columns_must_match_dimension(self, rng):
        # Checked where the locations enter: the workspace.
        for locations in (rng.uniform(0, 1, size=(10, 1)), rng.uniform(0, 1, size=(10, 3)), rng.uniform(0, 1, size=2)):
            with pytest.raises(ValueError, match="dimensions must agree"):
                workspace_over(np.empty((0, 2)), None, PARAMS_2D, locations)

    def test_outputs_must_match_the_workspace_rows(self, rng):
        X = rng.uniform(0, 1, size=(6, 2))
        y = standardize(X[:, 0] - X[:, 1])
        strictness = np.array((0.0, -3.0, -3.0, 0.0))
        locations = virtual_locations(2, rng)
        workspace = workspace_over(X[:0], None, PARAMS_2D, locations)
        with pytest.raises(ValueError, match="for 0 observed rows"):
            fit_monotonic_gp(workspace, y[:0], strictness)
        workspace.posterior.extend(X)
        for wrong in (y[:5], np.append(y, 0.0), y[:, None]):
            with pytest.raises(ValueError, match="for 6 observed rows"):
                fit_monotonic_gp(workspace, wrong, strictness)
        model = fit_monotonic_gp(workspace, y, strictness)
        assert np.array_equal(fitted_over(model)[0], X) and model.predict_batch(X)[0].shape == (6,)

    def test_2d_fit_predict_shapes(self, rng):
        X = rng.uniform(0, 1, size=(6, 2))
        y = standardize(X[:, 0] - X[:, 1])
        locations = virtual_locations(2, rng)
        sv = np.array((0.0, -3.0, -3.0, 0.0))
        model = fit_rows(X, y, PARAMS_2D, sv, locations)
        means, variances = model.predict_batch(rng.uniform(0, 1, size=(7, 2)))
        assert means.shape == (7,) and variances.shape == (7,)
        assert np.all(variances >= 0) and np.all(variances <= PARAMS_2D.signal_variance)


def criterion_3_case(theta):
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    X, y = make_1d_data(xs, standardize(xs))
    locations = virtual_locations(1, np.random.default_rng(7))
    return X, y, PARAMS_1D, np.array(theta), locations, np.linspace(0, 1, 200).reshape(-1, 1)


def goldstein_conflict_case():
    # Goldstein-Price falls in x1 and rises in x2; the strictness demands a
    # strict fall in x1 and pulls x2 strictly both ways.
    r = np.random.default_rng(30)
    X = r.uniform(0, 1, size=(30, 2))
    y = standardize([goldstein_price(x) for x in X])
    locations = virtual_locations(2, r)
    params = KernelParams(1.0, (0.3, 0.3), noise_variance=1e-6)
    return X, y, params, np.array((-5.0, 0.0, -5.0, -4.0)), locations, r.uniform(0, 1, size=(200, 2))


# Gaps from the joint oracle, fixed from calibration panels that these tests
# do not use (CHANGES.md gives the panels).  SITES_TOL bounds a fit's
# predictions (means, variances) and derivative means against the joint
# posterior at the fit's own final sites: the panels' largest gaps were
# 1.2e-6, 1.2e-10 and 1.4e-7.  RULE_TOL bounds the joint oracle's convergence
# measure along the fit's own sites against the fit's own, in units of the
# threshold: largest gap 3.4e-3.  FIT_TOL bounds whole fits against the joint
# EP oracle at d >= 3, where every panel fit took the oracle's sweeps: largest
# gaps 1.7e-8 and 1.6e-9.  At d = 1 and 2 whole fits are not compared: there
# the sweep at which EP stops is decided by rounding (perturbing y by 1e-15
# relative changes the joint oracle's own sweep count in 64 of 1,360 panel
# fits), so the fit is held to the oracle's stopping rule along its own sites.
SITES_TOL = (1e-5, 1e-9, 1e-6)
RULE_TOL = 1e-2
FIT_TOL = (1e-7, 1e-8)


def fitted_over(model):
    """The observed rows, the kernel params and the virtual locations of a fit, read from its workspace."""
    return model._workspace.posterior.X, model._workspace.posterior.params, model._workspace.locations


def assert_matches_joint_posterior(model, y, candidates):
    """The fit's predictions at the active pool rows and its derivative means are the joint posterior's at its sites."""
    X, params, locations = fitted_over(model)
    joint = joint_posterior(X, y, params, locations, model.sites)
    means, variances = model.predict_candidates(candidates)
    want_means, want_variances = joint.predict_batch(candidates.points[candidates.active_indices])
    np.testing.assert_allclose(means, want_means, rtol=0, atol=SITES_TOL[0])
    np.testing.assert_allclose(variances, want_variances, rtol=0, atol=SITES_TOL[1])
    np.testing.assert_allclose(model.derivative_means, joint.derivative_means, rtol=0, atol=SITES_TOL[2])


def recorded_refreshes(monkeypatch) -> list:
    """From now on, the site totals (precisions, natural means) of every posterior of a fit, in order."""
    refreshes = []
    refresh = monotonic._posterior

    def recording(K, prior_var, prior_mean, tau_lat, nat_lat):
        refreshes.append((tau_lat.copy(), nat_lat.copy()))
        return refresh(K, prior_var, prior_mean, tau_lat, nat_lat)

    monkeypatch.setattr(monotonic, "_posterior", recording)
    return refreshes


def assert_stops_where_the_joint_rule_does(model, y, refreshes):
    """The joint oracle's convergence test, run on the fit's own refreshes, stops at the fit's sweep.

    Every earlier sweep moves some joint latent, f(X) included, by more than
    the threshold and the last by at most it (or more, for a fit that did not
    converge), each within RULE_TOL of the threshold.
    """
    X, params, locations = fitted_over(model)
    moves = joint_moves(X, y, params, locations, refreshes)
    assert len(moves) == model.sweeps
    assert (moves[:-1] > 1.0 - RULE_TOL).all()
    if model.converged:
        assert moves[-1] <= 1.0 + RULE_TOL
    else:
        assert moves[-1] > 1.0 - RULE_TOL


def assert_matches_joint_fit(model, y, strictness, candidates):
    """The fit takes the joint EP oracle's sweeps and predicts as it does at the active pool rows."""
    X, params, locations = fitted_over(model)
    joint = joint_ep_fit(X, y, params, strictness, locations)
    assert (model.sweeps, model.converged) == (joint.sweeps, joint.converged)
    means, variances = model.predict_candidates(candidates)
    want_means, want_variances = joint.predict_batch(candidates.points[candidates.active_indices])
    np.testing.assert_allclose(means, want_means, rtol=0, atol=FIT_TOL[0])
    np.testing.assert_allclose(variances, want_variances, rtol=0, atol=FIT_TOL[1])


def scipy_posterior(K, prior_var, prior_mean, tau_lat, nat_lat):
    """The EP posterior refresh through the scipy.linalg wrappers, the reference for the direct LAPACK calls.

    It ignores prior_var and forms diag(K) and the identity on every call, as
    the refresh did before it took them once per fit.
    """
    sqrt_s = np.sqrt(tau_lat)
    chol_B = cholesky(np.eye(K.shape[0]) + (sqrt_s[:, None] * K) * sqrt_s[None, :], lower=True)
    V = solve_triangular(chol_B, sqrt_s[:, None] * K, lower=True)
    variances = np.maximum(np.diag(K) - np.einsum("ij,ij->j", V, V), 0.0)
    residual = np.divide(nat_lat, sqrt_s, out=np.zeros_like(nat_lat), where=sqrt_s > 0.0) - sqrt_s * prior_mean
    weights = sqrt_s * cho_solve((chol_B, True), residual)
    return prior_mean + K @ weights, variances, chol_B, sqrt_s, weights


class TestDirectLapack:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_fit_and_predictions_match_scipy_linalg(self, monkeypatch, d):
        r = np.random.default_rng(40 + d)
        X = r.uniform(0, 1, size=(4 * d + 6, d))
        y = standardize(X @ np.linspace(-1.0, 1.0, d) + np.sin(3.0 * X[:, 0]))
        params = KernelParams(1.0, (0.3,) * d, noise_variance=1e-6)
        locations = virtual_locations(d, r)
        strictness = r.choice(np.arange(-6.0, 1.0), size=2 * d)
        grid = r.uniform(0, 1, size=(50, d))
        ours = fit_rows(X, y, params, strictness, locations, grid)
        assert_matches_joint_posterior(ours, y, CandidateSet(grid))
        monkeypatch.setattr(monotonic, "_posterior", scipy_posterior)
        monkeypatch.setattr(monotonic, "se_kernel_matrix", se_kernel_matrix_einsum)
        ref = fit_rows(X, y, params, strictness, locations)
        assert ours.sweeps == ref.sweeps and ours.converged == ref.converged
        for name in ("derivative_means", "_chol_B", "_weights", "_W", "_alpha"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name)), name
        # The prediction formula through scipy.linalg, from the reference fit's arrays.
        v = solve_triangular(ref._workspace.posterior.chol, se_kernel_matrix_einsum(X, grid, params), lower=True)
        C = value_gradient_cross_matrix(grid, locations, params).T - ref._W.T @ v
        u = solve_triangular(ref._chol_B, ref._sqrt_S[:, None] * C, lower=True)
        ref_var = params.signal_variance - np.einsum("ij,ij->j", v, v) - np.einsum("ij,ij->j", u, u)
        ref_var = np.clip(ref_var, 0.0, params.signal_variance)
        means, variances = ours.predict_batch(grid)
        assert np.array_equal(means, ref._alpha @ v + ref._weights @ C)
        assert np.array_equal(variances, ref_var)


class TestParallelEP:
    @pytest.mark.parametrize(
        "case",
        [lambda: criterion_3_case((0.0, -6.0)), lambda: criterion_3_case((-6.0, 0.0)), goldstein_conflict_case],
        ids=["1d-increasing", "1d-reversed", "2d-conflicting"],
    )
    def test_matches_sequential_oracle(self, case):
        X, y, params, strictness, locations, grid = case()
        ours = fit_rows(X, y, params, strictness, locations)
        oracle = sequential_ep_fit(X, y, params, strictness, locations)
        assert ours.converged
        ours_mean, ours_var = ours.predict_batch(grid)
        oracle_mean, oracle_var = oracle.predict_batch(grid)
        np.testing.assert_allclose(ours_mean, oracle_mean, rtol=0, atol=1e-3)
        np.testing.assert_allclose(ours_var, oracle_var, rtol=0, atol=1e-4)
        np.testing.assert_allclose(ours.derivative_means, oracle.derivative_means, rtol=0, atol=1e-3)

    def test_goldstein_runs_converge(self):
        # Every EP fit of two short monotonicity runs; at most 1% may stop at max_sweeps.
        task = make_goldstein_price_task(pool_size=500)
        fits = nonconverged = 0
        for seed in (7000, 7001):
            result = run_framework(task, RunConfig(mode="monotonicity", m=5, K=1, R=20, seed=seed))
            fits += result.ep_fits
            nonconverged += result.ep_nonconverged
        assert fits == 40
        assert nonconverged <= 0.01 * fits

    @pytest.mark.slow
    def test_goldstein_trial_seed_7064_converges(self):
        # Fitted over the joint latents [f(X), derivatives], one of this
        # run's 50 fits stopped at _MAX_SWEEPS.  Where that fit stops is
        # decided by rounding: with its outputs changed by 1e-15 relative,
        # the joint fit converges in 32 sweeps.  So this pins the present
        # arithmetic, not a mended fault.
        task = make_goldstein_price_task(pool_size=500)
        result = run_framework(task, RunConfig(mode="monotonicity", m=5, K=1, R=50, seed=7064))
        assert result.ep_fits == 50
        assert result.ep_nonconverged == 0

    def test_d8_fit_with_50_observations_is_fast(self):
        # Timed in a fresh interpreter with one BLAS thread, as pooled workers
        # and the benchmark run: on a 2-CPU host at two BLAS threads one cold
        # fit in three took 0.88 s instead of 0.06-0.09 s.
        script = textwrap.dedent(
            """
            import json, time
            import numpy as np
            from hyperbo.gp import KernelParams, PoolPosterior, standardize
            from hyperbo.monotonic import MonotonicWorkspace, fit_monotonic_gp

            r = np.random.default_rng(8)
            X = r.uniform(0, 1, size=(50, 8))
            y, _ = standardize(X @ np.linspace(-1.0, 1.0, 8) + np.sin(3.0 * X[:, 0]))
            params = KernelParams(1.0, (0.3,) * 8, noise_variance=1e-6)
            locations = r.uniform(0.0, 1.0, size=(40, 8))
            strictness = np.array((-6.0, 0.0, -3.0, -1.0) * 4)
            start = time.perf_counter()
            workspace = MonotonicWorkspace(PoolPosterior(X, np.empty((0, 8)), params), locations)
            model = fit_monotonic_gp(workspace, y, strictness)
            print(json.dumps({"elapsed": time.perf_counter() - start, "converged": model.converged}))
            """
        )
        env = dict(os.environ, **dict.fromkeys(hyperbo.BLAS_THREAD_VARS, "1"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(hyperbo.__file__).parents[1]), env.get("PYTHONPATH"))))
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout)
        assert result["converged"]
        assert result["elapsed"] < 0.5, f"d=8 fit took {result['elapsed']:.2f} s"


def growing_case(d, seed):
    """A kernel, virtual locations, a pool and 4d + 6 observed rows, two of them repeats, at dimension d."""
    r = np.random.default_rng(seed)
    params = KernelParams(1.0, tuple(r.uniform(0.2, 0.5, size=d)), noise_variance=1e-6)
    X = r.uniform(0, 1, size=(4 * d + 6, d))
    X[5] = X[2]
    X[-1] = X[0]
    pool = r.uniform(0, 1, size=(60, d))
    return params, X, virtual_locations(d, r), pool, r


# The largest gap between a fit's predict_candidates and its predict_batch at
# the same rows, in units of max(1, max |EP weights|): the two take the sites'
# part from different solves, so they may differ by rounding alone.  The
# kept pool cross block is held to C computed whole within the same bound.
PREDICTION_PATHS_TOL = 1e-12


def assert_cross_block_is_whole(model):
    """The fit's kept pool cross block is K_pd - W^T V computed whole, and its whole-pool prediction predict_batch's."""
    workspace = model._workspace
    atol = PREDICTION_PATHS_TOL * max(1.0, np.abs(model._weights).max())
    whole = workspace.K_pd - model._W.T @ workspace.posterior.factors()[2]
    np.testing.assert_allclose(model._C, whole, rtol=0, atol=atol)
    pool = workspace.posterior.pool
    for got, want in zip(model.predict_candidates(CandidateSet(pool)), model.predict_batch(pool)):
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


class TestWorkspace:
    """One workspace grown row by row against kernels computed whole and the joint oracle."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grown_blocks_equal_the_whole_ones(self, d):
        params, X, locations, pool, _ = growing_case(d, d)
        empty = workspace_over(X[:0], pool, params, locations)
        assert empty.posterior.n == 0 and empty.K_fd.shape == (0, d * len(locations))
        workspace = workspace_over(X[:3], pool, params, locations)
        for t in range(3, len(X) + 1):
            assert workspace.posterior.n == t and np.array_equal(workspace.posterior.X, X[:t])
            assert np.array_equal(workspace.K_fd, value_gradient_cross_matrix(X[:t], locations, params))
            if t < len(X):
                workspace.posterior.extend(X[t])
        assert workspace.posterior.pool is pool and workspace.posterior.params == params
        assert np.array_equal(workspace.K_dd, gradient_gram_matrix(locations, params))
        # The pool's derivative cross-covariances, in the C order that the kept cross block's solve takes in place.
        assert workspace.K_pd.flags.c_contiguous
        assert np.array_equal(workspace.K_pd, value_gradient_cross_matrix(pool, locations, params).T)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_fits_match_the_joint_oracle_after_the_workspace_grows(self, monkeypatch, d):
        params, X, locations, pool, r = growing_case(d, 10 + d)
        y = standardize(X @ np.linspace(1.0, -1.0, d) + np.cos(4.0 * X[:, -1]))
        workspace = workspace_over(X[:3], pool, params, locations)
        refreshes = recorded_refreshes(monkeypatch)
        for t in range(3, len(X) + 1):
            strictness = r.choice(np.arange(-6.0, 1.0), size=2 * d)
            workspace.posterior.extend(X[workspace.posterior.n : t])
            refreshes.clear()
            model = fit_monotonic_gp(workspace, y[:t], strictness)
            candidates = CandidateSet(pool, excluded=r.uniform(size=len(pool)) < 0.3)
            # Each fit is checked before the workspace grows again, while it answers.
            assert np.array_equal(fitted_over(model)[0], X[:t])
            assert_matches_joint_posterior(model, y[:t], candidates)
            assert_stops_where_the_joint_rule_does(model, y[:t], refreshes)
            if d >= 3:
                assert_matches_joint_fit(model, y[:t], strictness, candidates)
        assert workspace.posterior.n == len(X)

    def test_a_fit_answers_while_its_posterior_holds_its_rows_and_outputs(self):
        params, X, locations, pool, r = growing_case(2, 7)
        y = standardize(X[:, 0] - np.sin(3.0 * X[:, 1]))
        strictness = np.array((0.0, -3.0, -3.0, 0.0))
        candidates = CandidateSet(pool, excluded=r.uniform(size=len(pool)) < 0.3)
        grid = r.uniform(0, 1, size=(9, 2))

        def gains_a_row(workspace):
            workspace.posterior.extend(X[-1])

        def gets_new_outputs(workspace):
            workspace.posterior.set_outputs(y[:-1].copy())

        def is_refit(workspace):
            fit_monotonic_gp(workspace, y[:-1], strictness)

        for change in (gains_a_row, gets_new_outputs, is_refit):
            workspace = workspace_over(X[:-1], pool, params, locations)
            model = fit_monotonic_gp(workspace, y[:-1], strictness)
            first = model.predict_candidates(candidates) + model.predict_batch(grid)
            for _ in range(2):
                again = model.predict_candidates(candidates) + model.predict_batch(grid)
                assert all(map(np.array_equal, again, first))
            change(workspace)
            with pytest.raises(ValueError, match="changed since this fit"):
                model.predict_candidates(candidates)
            with pytest.raises(ValueError, match="changed since this fit"):
                model.predict_batch(grid)

    def test_a_d8_fit_matches_the_joint_oracle(self, monkeypatch):
        params, X, locations, pool, r = growing_case(8, 18)
        y = standardize(X @ np.linspace(1.0, -1.0, 8) + np.cos(4.0 * X[:, -1]))
        strictness = r.choice(np.arange(-6.0, 1.0), size=16)
        workspace = workspace_over(X[:20], pool, params, locations)
        workspace.posterior.extend(X[20:30])
        refreshes = recorded_refreshes(monkeypatch)
        model = fit_monotonic_gp(workspace, y[:30], strictness)
        candidates = CandidateSet(pool, excluded=r.uniform(size=len(pool)) < 0.3)
        assert_matches_joint_posterior(model, y[:30], candidates)
        assert_stops_where_the_joint_rule_does(model, y[:30], refreshes)
        assert_matches_joint_fit(model, y[:30], strictness, candidates)

    def test_the_convergence_test_covers_the_observed_rows(self, monkeypatch):
        # Both slopes held strictly at d=1: three sweeps in, no derivative
        # latent moves by more than _TOL x its prior sd, but f(X) still moves
        # by 8 times that, and the fit must go on.
        params, X, locations, _, _ = growing_case(1, 100)
        y = standardize(X[:, 0] + np.cos(4.0 * X[:, 0]))[:9]
        refreshes = recorded_refreshes(monkeypatch)
        model = fit_rows(X[:9], y, params, np.array((-5.0, -5.0)), locations)
        assert model.sweeps > 3
        assert_stops_where_the_joint_rule_does(model, y, refreshes)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_kept_cross_block_equals_the_whole_one(self, d):
        params, X, locations, pool, r = growing_case(d, 40 + d)
        f = X @ np.linspace(1.0, -1.0, d) + np.cos(4.0 * X[:, -1])
        strictness = r.choice(np.arange(-6.0, 1.0), size=2 * d)
        workspace = workspace_over(X[:1], pool, params, locations)
        for t in range(1, len(X) + 1):
            workspace.posterior.extend(X[workspace.posterior.n : t])
            assert_cross_block_is_whole(fit_monotonic_gp(workspace, f[:t], strictness))
        # Every row was taken as a rank-one term: the posterior never refactored.
        assert workspace.posterior.factorizations == 1

    def test_the_kept_cross_block_is_whole_again_after_a_refactor(self):
        # A repeated row at zero noise leaves the pivot 1 - 1 * 1 = 0 exactly:
        # the posterior refactors with jitter, which moves every row of V and W.
        r = np.random.default_rng(4)
        params = KernelParams(1.0, (0.3, 0.45))
        X = r.uniform(0, 1, size=(5, 2))
        X[1] = X[0]
        pool = r.uniform(0, 1, size=(60, 2))
        workspace = workspace_over(X[:1], pool, params, virtual_locations(2, r))
        y = X[:, 0] - np.sin(3.0 * X[:, 1])
        strictness = np.array((0.0, -3.0, -3.0, 0.0))
        for t in range(1, len(X) + 1):
            workspace.posterior.extend(X[workspace.posterior.n : t])
            assert_cross_block_is_whole(fit_monotonic_gp(workspace, y[:t], strictness))
            assert workspace.posterior.factorizations == (1 if t == 1 else 2)
        assert workspace.posterior.jitter > 0

    def test_candidates_over_another_array_are_refused(self):
        # Same shape and values, but not the workspace's pool array.
        params, X, locations, pool, _ = growing_case(2, 5)
        model = fit_rows(X, standardize(X[:, 0]), params, np.array((0.0, -3.0, -3.0, 0.0)), locations, pool)
        assert model.predict_candidates(CandidateSet(pool))[0].shape == (len(pool),)
        for points in (pool.copy(), pool[:]):
            with pytest.raises(ValueError, match="workspace's pool"):
                model.predict_candidates(CandidateSet(points))


# Values that EP's marginals and sites can take at their edges: zeros of both
# signs, infinities, NaN, subnormals, the site precision cap and overflow-sized
# values, beside arbitrary floats.
EDGE_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e-12, 1e8, -1e8, 1e300, -1e300)


def edge_floats(n, *shape):
    return hnp.arrays(float, shape + (n,), elements=st.one_of(st.sampled_from(EDGE_VALUES), st.floats()))


class TestValidityRule:
    """The sweep keeps a site pair's proposal where cavity[0] > 1e-12 and the target is finite.

    The oracle is the six-check rule the sweep used before: var > 0, a cavity
    precision above 1e-12, a finite cavity mean, a finite matched mean, a
    matched variance above 0 and a finite target.  The inputs are built as
    the sweep builds them: the variances through np.maximum(., 0.0), as
    `_posterior` and the cold start form them, and the cavities, matched
    moments and targets by the sweep's own steps.
    """

    @settings(max_examples=300)
    @given(
        data=st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                edge_floats(n), edge_floats(n), edge_floats(n, 2, 2), hnp.arrays(float, (2, n), elements=st.sampled_from((1e-12, 1e-6, 1e-2, 1.0)))
            )
        )
    )
    def test_two_checks_decide_as_the_six_did(self, data):
        mean, raw_var, sites, nu2 = data
        var = np.maximum(raw_var, 0.0)
        sign = np.array([[1.0], [-1.0]])
        with np.errstate(all="ignore"):
            cavity = (np.stack((np.ones_like(mean), mean)) / var)[:, None, :] - sites
            cav_var = 1.0 / cavity[0]
            cav_mean = cavity[1] * cav_var
            new_mean, new_var = monotonic._probit_moments(cav_mean, cav_var, sign, nu2)
            target = np.stack((np.ones_like(new_mean), new_mean)) / new_var - cavity
        six = (
            (var > 0)
            & (cavity[0] > 1e-12)
            & np.isfinite(cav_mean)
            & np.isfinite(new_mean)
            & (new_var > 0)
            & np.isfinite(target).all(axis=0)
        )
        two = (cavity[0] > 1e-12) & np.isfinite(target).all(axis=0)
        assert np.array_equal(two, six)


def derivative_sds(model):
    """The posterior standard deviations of a fit's derivative latents, from its factor of B and its workspace."""
    K = model._workspace.K_dd - model._W.T @ model._W
    V = solve_triangular(model._chol_B, model._sqrt_S[:, None] * K, lower=True)
    return np.sqrt(np.maximum(np.diag(K) - np.einsum("ij,ij->j", V, V), 0.0))


class TestWarmStart:
    """fit_monotonic_gp's start: the sites of an earlier fit on the same workspace."""

    # Pre-registered in CHANGES.md from a calibration panel of other seeds,
    # whose largest deviation was 7.03.
    DEVIATION_BOUND = 25.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_cold_fit_keeps_the_zero_site_arithmetic(self, monkeypatch, d):
        params, X, locations, pool, r = growing_case(d, 50 + d)
        y = standardize(np.sin(3.0 * X).sum(axis=1))
        strictness = r.choice(np.arange(-6.0, 1.0), size=2 * d)
        refreshes = recorded_refreshes(monkeypatch)
        cold = fit_rows(X, y, params, strictness, locations, pool)
        candidates = CandidateSet(pool, excluded=r.uniform(size=len(pool)) < 0.3)
        assert_matches_joint_posterior(cold, y, candidates)
        assert_stops_where_the_joint_rule_does(cold, y, refreshes)
        if d >= 3:
            assert_matches_joint_fit(cold, y, strictness, candidates)
        zeros = np.zeros_like(cold.sites)
        ours = fit_rows(X, y, params, strictness, locations, pool, start=zeros)
        assert (ours.sweeps, ours.converged) == (cold.sweeps, cold.converged)
        for name in ("sites", "derivative_means", "_weights", "_chol_B", "_sqrt_S"):
            assert np.array_equal(getattr(ours, name), getattr(cold, name)), name
        assert not zeros.any()

    @pytest.mark.parametrize("case", [lambda: criterion_3_case((0.0, -6.0)), goldstein_conflict_case], ids=["1d", "2d"])
    def test_a_refit_from_its_own_sites_starts_at_its_posterior(self, monkeypatch, case):
        X, y, params, strictness, locations, _ = case()
        posteriors = []
        monotonic_posterior = monotonic._posterior

        def recording_posterior(*args):
            posteriors.append(monotonic_posterior(*args))
            return posteriors[-1]

        monkeypatch.setattr(monotonic, "_posterior", recording_posterior)
        workspace = workspace_over(X, None, params, locations)
        model = fit_monotonic_gp(workspace, y, strictness)
        # Every fit, cold or started, takes its first posterior from one refresh and one more per sweep.
        assert len(posteriors) == model.sweeps + 1
        final, sites = posteriors[-1], model.sites.copy()
        posteriors.clear()
        refit = fit_monotonic_gp(workspace, y, strictness, start=model.sites)
        assert len(posteriors) == refit.sweeps + 1
        for ours, want in zip(posteriors[0], final):
            assert np.array_equal(ours, want)
        assert np.array_equal(model.sites, sites) and refit.sites is not model.sites
        assert refit.converged and refit.sweeps < model.sweeps

    def test_start_must_have_the_workspace_sites_shape(self):
        X, y, params, strictness, locations, _ = criterion_3_case((0.0, -6.0))
        model = fit_rows(X, y, params, strictness, locations)
        with pytest.raises(ValueError, match="start sites"):
            fit_rows(X, y, params, strictness, locations, start=model.sites[:, :, 1:])

    def test_warm_fits_over_growing_rows_land_near_cold_fits_in_fewer_sweeps(self):
        # Growing fits at d=1..3 over all their rows, and at d=8 over rows 20..30,
        # each at one grid strictness; outputs re-standardized at every row
        # count, as in a run.  Each warm fit starts from the previous row
        # count's warm fit.
        panel = [(growing_case(d, 60 + d), 3, 4 * d + 6) for d in (1, 2, 3)] + [(growing_case(8, 68), 20, 30)]
        cold_sweeps = warm_sweeps = 0
        worst = 0.0
        for (params, X, locations, _, r), first, rows in panel:
            f = X @ np.linspace(1.0, -1.0, params.dim) + np.cos(4.0 * X[:, -1])
            strictness = r.choice(np.arange(-6.0, 1.0), size=2 * params.dim)
            workspace = workspace_over(X[:first], None, params, locations)
            warm = None
            for t in range(first, rows + 1):
                workspace.posterior.extend(X[workspace.posterior.n : t])
                y = standardize(f[:t])
                cold = fit_monotonic_gp(workspace, y, strictness)
                start = None if warm is None else warm.sites
                warm = fit_monotonic_gp(workspace, y, strictness, start=start)
                assert cold.converged and warm.converged
                cold_sweeps += cold.sweeps
                warm_sweeps += warm.sweeps
                if start is None:
                    continue
                prior_sd = np.sqrt(np.diag(workspace.K_dd))
                moved = np.maximum(
                    np.abs(warm.derivative_means - cold.derivative_means),
                    np.abs(derivative_sds(warm) - derivative_sds(cold)),
                )
                worst = max(worst, (moved / prior_sd).max() / monotonic._TOL)
        print(f"WARM START: largest deviation {worst:.2f} x _TOL x prior sd; sweeps {cold_sweeps} cold, {warm_sweeps} warm")
        assert worst <= self.DEVIATION_BOUND
        assert warm_sweeps < cold_sweeps


def ep_panel() -> tuple[str, float, float]:
    """A fixed panel of fits: the sha256 of its arrays, and its largest predict_candidates gaps.

    At d = 1, 2 and 3 and at two strictnesses (one drawn from the grid, one
    strict both ways in every dimension, whose sites reach the precision
    cap), a fit over the first rows starts cold and is refitted warm from its
    own sites; after the workspace grows by the remaining rows (outputs
    re-standardized) a fit starts cold and another warm from the earlier warm
    fit's sites.  Each fit predicts as soon as it is made, while it answers.
    The digest covers sweeps, convergence, sites, derivative means, weights,
    chol_B and predict_batch over a grid.  The gaps are predict_candidates'
    means and variances against predict_batch at the active pool rows, in
    units of max(1, max |weights|).
    """
    digest = hashlib.sha256()
    gaps = [0.0, 0.0]

    def record(model, candidates, grid):
        digest.update(f"{model.sweeps} {model.converged};".encode())
        arrays = (model.sites, model.derivative_means, model._weights, model._chol_B)
        for array in arrays + model.predict_batch(grid):
            digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
        unit = max(1.0, np.abs(model._weights).max())
        got = model.predict_candidates(candidates)
        want = model.predict_batch(candidates.points[candidates.active_indices])
        for k in range(2):
            gaps[k] = max(gaps[k], np.abs(got[k] - want[k]).max() / unit)

    for d in (1, 2, 3):
        params, X, locations, pool, r = growing_case(d, 90 + d)
        f = X @ np.linspace(1.0, -1.0, d) + np.cos(4.0 * X[:, -1])
        candidates = CandidateSet(pool, excluded=r.uniform(size=len(pool)) < 0.3)
        grid = r.uniform(0, 1, size=(7, d))
        for strictness in (r.choice(np.arange(-6.0, 1.0), size=2 * d), np.full(2 * d, -5.0)):
            workspace = workspace_over(X[:0], pool, params, locations)
            warm = None
            for rows in (2 * d + 3, len(X)):
                workspace.posterior.extend(X[workspace.posterior.n : rows])
                y = standardize(f[:rows])
                cold = fit_monotonic_gp(workspace, y, strictness)
                record(cold, candidates, grid)
                warm = fit_monotonic_gp(workspace, y, strictness, start=(cold if warm is None else warm).sites)
                record(warm, candidates, grid)
    return digest.hexdigest(), gaps[0], gaps[1]


def test_ep_panel_bits_are_pinned():
    # Recorded from this test body on the code before the whole-pool
    # prediction block: a change that keeps EP's arithmetic and predict_batch
    # keeps this digest.  predict_candidates is held to predict_batch instead.
    digest, mean_gap, var_gap = ep_panel()
    print(f"EP PANEL: predict_candidates gaps {mean_gap:.3g} (means), {var_gap:.3g} (variances) x max(1, max|w|)")
    assert digest == "28b5ee66436328b6e404adddd2871a8bd299f204888b1eb44cfe1e07d68128eb"
    assert mean_gap <= PREDICTION_PATHS_TOL and var_gap <= PREDICTION_PATHS_TOL
