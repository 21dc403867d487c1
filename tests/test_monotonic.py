"""Monotonicity-constrained GP: derivative kernels vs finite differences, EP sanity."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

import hyperbo
from hyperbo import monotonic
from hyperbo.acquisition import CandidateSet
from hyperbo.bench import _BLAS_THREAD_VARS
from hyperbo.engine import RunConfig, run_framework
from hyperbo.gp import KernelParams, gp_fit
from hyperbo.monotonic import (
    FittedMonotonicGP,
    MonotonicWorkspace,
    fit_monotonic_gp,
    gradient_gram_matrix,
    value_gradient_cross_matrix,
)

from hyperbo.tasks import goldstein_price, make_goldstein_price_task

from ep_oracle import joint_prior, sequential_ep_fit, unstacked_parallel_ep_fit
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
        model = fit_monotonic_gp(X, y, PARAMS_1D, np.array((0.0, -6.0)), locations)
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
        wrong = fit_monotonic_gp(X, y, PARAMS_1D, np.array((-6.0, 0.0)), locations)
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
        mono = fit_monotonic_gp(X, y, PARAMS_1D, np.array((0.0, 0.0)), locations)
        plain = gp_fit(X, y, PARAMS_1D)
        assert abs(mono.predict_batch([0.5])[0][0] - plain.predict_batch([0.5])[0][0]) < 0.05

    def test_weak_constraint_limit_close_to_unconstrained(self):
        for seed in range(3):
            r = np.random.default_rng(seed)
            xs = np.sort(r.uniform(0, 1, size=8))
            ys = standardize(np.sin(2.2 * xs + r.uniform(0, 1)))
            X, y = make_1d_data(xs, ys)
            locations = virtual_locations(1, r)
            mono = fit_monotonic_gp(X, y, PARAMS_1D, np.array((0.0, 0.0)), locations)
            plain = gp_fit(X, y, PARAMS_1D)
            x_test = r.uniform(0, 1, size=(20, 1))
            delta = mono.predict_batch(x_test)[0] - plain.predict_batch(x_test)[0]
            assert np.max(np.abs(delta)) < 0.1

    def test_derivative_means_respect_imposed_sign(self):
        xs = np.linspace(0, 1, 6)
        X, y = make_1d_data(xs, standardize(xs))
        locations = virtual_locations(1, np.random.default_rng(11))
        model = fit_monotonic_gp(X, y, PARAMS_1D, np.array((0.0, -6.0)), locations)
        frac_positive = np.mean(model.derivative_means >= 0)
        assert frac_positive >= 0.9

    def test_deterministic_given_virtual_points(self):
        xs = [0.0, 0.4, 0.8]
        X, y = make_1d_data(xs, standardize([0.0, 1.0, 0.5]))
        locations = virtual_locations(1, np.random.default_rng(5))
        sv = np.array((-2.0, -1.0))
        a = fit_monotonic_gp(X, y, PARAMS_1D, sv, locations)
        b = fit_monotonic_gp(X, y, PARAMS_1D, sv, locations)
        grid = np.linspace(0, 1, 17).reshape(-1, 1)
        np.testing.assert_array_equal(a.predict_batch(grid)[0], b.predict_batch(grid)[0])
        np.testing.assert_array_equal(a.predict_batch(grid)[1], b.predict_batch(grid)[1])

    def test_conflicting_strict_fit_still_returns(self):
        # Strict decreasing against strongly increasing data: EP may not converge,
        # but the fit must come back flagged rather than raise.
        xs = np.linspace(0, 1, 8)
        X, y = make_1d_data(xs, standardize(xs**2))
        locations = virtual_locations(1, np.random.default_rng(2))
        model = fit_monotonic_gp(X, y, PARAMS_1D, np.array((-6.0, 0.0)), locations)
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
                fit_monotonic_gp(X, y, PARAMS_2D, np.array(strictness), locations)

    def test_location_columns_must_match_dimension(self, rng):
        X = rng.uniform(0, 1, size=(6, 2))
        y = standardize(X[:, 0] - X[:, 1])
        for locations in (rng.uniform(0, 1, size=(10, 1)), rng.uniform(0, 1, size=(10, 3))):
            with pytest.raises(ValueError, match="dimensions must agree"):
                fit_monotonic_gp(X, y, PARAMS_2D, np.array((0.0, -3.0, -3.0, 0.0)), locations)

    def test_2d_fit_predict_shapes(self, rng):
        X = rng.uniform(0, 1, size=(6, 2))
        y = standardize(X[:, 0] - X[:, 1])
        locations = virtual_locations(2, rng)
        sv = np.array((0.0, -3.0, -3.0, 0.0))
        model = fit_monotonic_gp(X, y, PARAMS_2D, sv, locations)
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


def scipy_posterior(K, prior_var, tau_lat, nat_lat):
    """The EP posterior refresh through the scipy.linalg wrappers, the reference for the direct LAPACK calls.

    It ignores prior_var and forms diag(K) and the identity on every call, as
    the refresh did before it took them once per fit.
    """
    sqrt_s = np.sqrt(tau_lat)
    chol_B = cholesky(np.eye(K.shape[0]) + (sqrt_s[:, None] * K) * sqrt_s[None, :], lower=True)
    V = solve_triangular(chol_B, sqrt_s[:, None] * K, lower=True)
    variances = np.maximum(np.diag(K) - np.einsum("ij,ij->j", V, V), 0.0)
    weights = nat_lat - sqrt_s * cho_solve((chol_B, True), sqrt_s * (K @ nat_lat))
    return K @ weights, variances, chol_B, sqrt_s, weights


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
        ours = fit_monotonic_gp(X, y, params, strictness, locations)
        monkeypatch.setattr(monotonic, "_posterior", scipy_posterior)
        monkeypatch.setattr(monotonic, "se_kernel_matrix", se_kernel_matrix_einsum)
        ref = fit_monotonic_gp(X, y, params, strictness, locations)
        assert ours.sweeps == ref.sweeps and ours.converged == ref.converged
        assert np.array_equal(ours._latent_mean, ref._latent_mean)
        assert np.array_equal(ours._chol_B, ref._chol_B)
        assert np.array_equal(ours._mean_weights, ref._mean_weights)
        k_star = ref._cross_covariances(grid)
        v = solve_triangular(ref._chol_B, ref._sqrt_S[:, None] * k_star, lower=True)
        ref_var = np.clip(params.signal_variance - np.einsum("ij,ij->j", v, v), 0.0, params.signal_variance)
        means, variances = ours.predict_batch(grid)
        assert np.array_equal(means, k_star.T @ ref._mean_weights)
        assert np.array_equal(variances, ref_var)


class TestParallelEP:
    @pytest.mark.parametrize(
        "case",
        [lambda: criterion_3_case((0.0, -6.0)), lambda: criterion_3_case((-6.0, 0.0)), goldstein_conflict_case],
        ids=["1d-increasing", "1d-reversed", "2d-conflicting"],
    )
    def test_matches_sequential_oracle(self, case):
        X, y, params, strictness, locations, grid = case()
        ours = fit_monotonic_gp(X, y, params, strictness, locations)
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

    def test_d8_fit_with_50_observations_is_fast(self):
        # Timed in a fresh interpreter with one BLAS thread, as pooled workers
        # and the benchmark run: on a 2-CPU host at two BLAS threads one cold
        # fit in three took 0.88 s instead of 0.06-0.09 s.
        script = textwrap.dedent(
            """
            import json, time
            import numpy as np
            from hyperbo.gp import KernelParams, standardize
            from hyperbo.monotonic import fit_monotonic_gp

            r = np.random.default_rng(8)
            X = r.uniform(0, 1, size=(50, 8))
            y, _ = standardize(X @ np.linspace(-1.0, 1.0, 8) + np.sin(3.0 * X[:, 0]))
            params = KernelParams(1.0, (0.3,) * 8, noise_variance=1e-6)
            locations = r.uniform(0.0, 1.0, size=(40, 8))
            strictness = np.array((-6.0, 0.0, -3.0, -1.0) * 4)
            start = time.perf_counter()
            model = fit_monotonic_gp(X, y, params, strictness, locations)
            print(json.dumps({"elapsed": time.perf_counter() - start, "converged": model.converged}))
            """
        )
        env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
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


class TestWorkspace:
    """One workspace grown row by row against kernels and fits computed whole."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grown_joint_prior_equals_the_whole_one(self, d):
        params, X, locations, pool, _ = growing_case(d, d)
        workspace = MonotonicWorkspace(params, locations, pool)
        workspace.extend(X[:3])
        for t in range(3, len(X) + 1):
            assert np.array_equal(workspace.joint_prior(), joint_prior(X[:t], locations, params))
            if t < len(X):
                workspace.extend(X[t])
        # The cross-covariances predict_batch computes at the active pool rows,
        # in its layout.
        active = np.arange(0, len(pool), 3)
        block = workspace.pool_cross_covariances(len(X) - 2, active)
        assert block.flags.c_contiguous
        k_obs = se_kernel_matrix_einsum(X[:-2], pool[active], params)
        want = np.vstack((k_obs, value_gradient_cross_matrix(pool[active], locations, params).T))
        assert np.array_equal(block, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fits_and_predictions_equal_fresh_fits(self, d):
        params, X, locations, pool, r = growing_case(d, 10 + d)
        y = standardize(X @ np.linspace(1.0, -1.0, d) + np.cos(4.0 * X[:, -1]))
        workspace = MonotonicWorkspace(params, locations, pool)
        fits = []
        for t in range(3, len(X) + 1):
            strictness = r.choice(np.arange(-6.0, 1.0), size=2 * d)
            fits.append((fit_monotonic_gp(X[:t], y[:t], params, strictness, locations, workspace), strictness))
        assert workspace.n == len(X)
        # Every fit predicts from the grown workspace.  The unstacked reference
        # takes the joint prior computed whole and predicts through predict_batch.
        for ours, strictness in fits:
            t = ours.X.shape[0]
            fresh = fit_monotonic_gp(X[:t], y[:t], params, strictness, locations)
            reference = unstacked_parallel_ep_fit(X[:t], y[:t], params, strictness, locations)
            for other in (fresh, reference):
                assert (ours.sweeps, ours.converged) == (other.sweeps, other.converged)
                for name in ("_mean_weights", "_chol_B", "_sqrt_S", "_latent_mean"):
                    assert np.array_equal(getattr(ours, name), getattr(other, name)), name
            candidates = CandidateSet(pool, excluded=r.uniform(size=len(pool)) < 0.3)
            means, variances = ours.predict_candidates(candidates)
            want_means, want_variances = reference.predict_batch(pool[candidates.active_indices])
            assert np.array_equal(means, want_means)
            assert np.array_equal(variances, want_variances)
            other_pool = CandidateSet(pool.copy(), excluded=candidates.excluded)
            assert all(map(np.array_equal, ours.predict_candidates(other_pool), (means, variances)))

    def test_a_workspace_of_other_rows_or_params_is_refused(self):
        params, X, locations, pool, _ = growing_case(2, 5)
        y = standardize(X[:, 0])
        strictness = np.array((0.0, -3.0, -3.0, 0.0))
        workspace = MonotonicWorkspace(params, locations, pool)
        fit_monotonic_gp(X[:6], y[:6], params, strictness, locations, workspace)
        with pytest.raises(ValueError, match="not the first rows"):
            fit_monotonic_gp(X[1:8], y[1:8], params, strictness, locations, workspace)
        with pytest.raises(ValueError, match="not the first rows"):
            fit_monotonic_gp(X[:4], y[:4], params, strictness, locations, workspace)
        with pytest.raises(ValueError, match="other kernel params or locations"):
            fit_monotonic_gp(X[:8], y[:8], KernelParams(1.0, (0.3, 0.3), 1e-6), strictness, locations, workspace)
        with pytest.raises(ValueError, match="other kernel params or locations"):
            fit_monotonic_gp(X[:8], y[:8], params, strictness, locations + 0.01, workspace)
        assert workspace.n == 6
