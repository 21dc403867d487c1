"""GP regression checked against direct dense-matrix evaluation of the posterior."""

import importlib.machinery
import sys
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.linalg import cho_solve, cholesky, solve_triangular

from hyperbo import gp as gp_module
from hyperbo.acquisition import CandidateSet
from hyperbo.gp import (
    KernelParams,
    PoolPosterior,
    SingularGramError,
    _cho_solve_lower,
    _cholesky_lower,
    _solve_lower,
    gp_fit,
    se_kernel_matrix,
    standardize,
)

from kernel_oracles import random_gp_instance, se_kernel, se_kernel_matrix_einsum


def dense_posterior_oracle(X, y, params, x_star):
    """Posterior mean/variance via explicit matrix inversion (no Cholesky)."""
    K = np.array([[se_kernel(xi, xj, params) for xj in X] for xi in X])
    A = np.linalg.inv(K + params.noise_variance * np.eye(len(y)))
    k_star = np.array([se_kernel(xi, x_star, params) for xi in X])
    mean = k_star @ A @ y
    var = se_kernel(x_star, x_star, params) - k_star @ A @ k_star
    return mean, var


class TestSeKernel:
    def test_zero_distance_identity(self):
        params = KernelParams(1.0, (0.3, 0.7))
        x = np.array([0.4, 0.9])
        assert se_kernel(x, x, params) == pytest.approx(1.0, abs=1e-15)

    def test_unit_offset(self):
        # Frozen from exp(-0.5) evaluated directly.
        params = KernelParams(1.0, (1.0, 1.0))
        val = se_kernel((0.0, 0.0), (1.0, 0.0), params)
        assert val == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_scaled_offset(self):
        # 2 * exp(-0.125) with a single 0.1 length scale and 0.05 offset.
        params = KernelParams(2.0, (0.1,))
        val = se_kernel((0.0,), (0.05,), params)
        assert val == pytest.approx(2.0 * np.exp(-0.125), abs=1e-12)
        assert val == pytest.approx(1.764993805169191, abs=1e-9)

    def test_symmetry_and_bounds(self, rng):
        params = KernelParams(1.7, tuple(rng.uniform(0.1, 1.0, size=3)))
        for _ in range(20):
            a, b = rng.uniform(0, 1, size=(2, 3))
            k_ab = se_kernel(a, b, params)
            k_ba = se_kernel(b, a, params)
            assert k_ab == k_ba  # same code path, exact
            assert 0 < k_ab <= params.signal_variance + 1e-15

    def test_dimension_mismatch_raises(self):
        params = KernelParams(1.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            se_kernel((0.1,), (0.2, 0.3), params)

    def test_matrix_matches_pairwise(self, rng):
        params = KernelParams(1.3, (0.2, 0.5, 0.9))
        X = rng.uniform(0, 1, size=(6, 3))
        Z = rng.uniform(0, 1, size=(4, 3))
        K = se_kernel_matrix(X, Z, params)
        for i in range(6):
            for j in range(4):
                assert K[i, j] == pytest.approx(se_kernel(X[i], Z[j], params), abs=1e-14)

    def test_gram_exactly_symmetric(self, rng):
        params = KernelParams(1.0, (0.4, 0.4))
        X = rng.uniform(0, 1, size=(12, 2))
        K = se_kernel_matrix(X, X, params)
        assert np.array_equal(K, K.T)


class TestKernelMatchesEinsum:
    """se_kernel_matrix against its einsum form, bit for bit."""

    @pytest.mark.parametrize("d", range(1, 25))
    def test_every_dimension(self, rng, d):
        # d >= 8 takes einsum's blocks of 8; d = 17..24 ends in each remainder.
        params, X, _ = random_gp_instance(rng, d, t=40)
        Z = rng.uniform(0, 1, size=(50, d))
        assert params.signal_variance != 1.0
        assert np.array_equal(se_kernel_matrix(X, Z, params), se_kernel_matrix_einsum(X, Z, params))

    @pytest.mark.parametrize("t, m", [(1, 1), (1, 30), (30, 1)])
    def test_single_rows(self, rng, t, m):
        for d in (1, 2, 4, 9):
            params, X, _ = random_gp_instance(rng, d, t)
            Z = rng.uniform(0, 1, size=(m, d))
            assert np.array_equal(se_kernel_matrix(X, Z, params), se_kernel_matrix_einsum(X, Z, params))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 11])
    def test_gram_matches_and_stays_symmetric(self, rng, d):
        params, X, _ = random_gp_instance(rng, d, t=35)
        K = se_kernel_matrix(X, X, params)
        assert np.array_equal(K, se_kernel_matrix_einsum(X, X, params))
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 11])
    def test_strided_and_fortran_inputs(self, rng, d):
        params, _, _ = random_gp_instance(rng, d, t=1)
        X = rng.uniform(0, 1, size=(60, 3 * d))[::2, ::3]
        Z = rng.uniform(0, 1, size=(25, 2 * d))[:, 1::2]
        expected = se_kernel_matrix_einsum(X, Z, params)
        assert np.array_equal(se_kernel_matrix(X, Z, params), expected)
        # The einsum form follows the memory order of its difference array, so
        # Fortran-ordered inputs are checked against it on C-ordered copies.
        expected = se_kernel_matrix_einsum(np.ascontiguousarray(X), np.ascontiguousarray(Z), params)
        assert np.array_equal(se_kernel_matrix(np.asfortranarray(X), np.asfortranarray(Z), params), expected)
        assert np.array_equal(se_kernel_matrix(X, np.asfortranarray(Z), params), expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 17])
    def test_pre_scaled_planes_equal_the_kernel_matrix(self, rng, d):
        # Every branch of the lane order: no odd lane (1), tails only (2, 3),
        # one block of 8 (8), blocks plus an even (9) or odd-length (17) tail.
        params, X, _ = random_gp_instance(rng, d, t=30)
        Z = rng.uniform(0, 1, size=(45, d))
        ls = params.scales_array()
        planes = gp_module._scaled_se((X / ls).T, np.ascontiguousarray((Z / ls).T), params.signal_variance)
        assert np.array_equal(planes, se_kernel_matrix(X, Z, params))


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * 1e-3 * np.eye(n)


class TestLapackHelpers:
    """The direct LAPACK calls against the scipy.linalg wrappers they replace, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 55, 120])
    def test_match_scipy_linalg(self, rng, n):
        for _ in range(5):
            A = random_spd(rng, n)
            L = _cholesky_lower(A)
            assert np.array_equal(L, cholesky(A, lower=True))
            for b in (rng.normal(size=n), rng.normal(size=(n, 9))):
                assert np.array_equal(_solve_lower(L, b), solve_triangular(L, b, lower=True))
                assert np.array_equal(_cho_solve_lower(L, b), cho_solve((L, True), b))

    def test_fit_and_predictions_match_scipy_linalg(self, rng):
        params, X, y = random_gp_instance(rng, d=3, t=25, noise=1e-6)
        model = gp_fit(X, y, params)
        gram = se_kernel_matrix(X, X, params) + params.noise_variance * np.eye(25)
        chol = cholesky(gram, lower=True)
        assert np.array_equal(model.chol, chol)
        assert np.array_equal(model.weights, cho_solve((chol, True), y))
        x_star = rng.uniform(0, 1, size=(40, 3))
        k_star = se_kernel_matrix(X, x_star, params)
        v = solve_triangular(chol, k_star, lower=True)
        variances = np.clip(params.signal_variance - np.einsum("ij,ij->j", v, v), 0.0, params.signal_variance)
        means, got_variances = model.predict_batch(x_star)
        assert np.array_equal(means, k_star.T @ model.weights) and np.array_equal(got_variances, variances)
        _, cov = model.predict_joint(x_star)
        assert np.array_equal(cov, se_kernel_matrix(x_star, x_star, params) - v.T @ v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_value_error(self, rng, bad):
        A = random_spd(rng, 5)
        A[3, 1] = bad  # in the triangle LAPACK never reads, as scipy checks the whole matrix
        with pytest.raises(ValueError):
            _cholesky_lower(A)

    def test_not_positive_definite_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            _cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_triangle_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _solve_lower(np.array([[1.0, 0.0], [3.0, 0.0]]), np.ones(2))

    def test_zero_noise_duplicates_escalate_jitter(self):
        model = gp_fit([[0.5, 0.5]] * 3, [1.0, 1.1, 0.9], KernelParams(1.0, (0.3, 0.3)))
        assert model.jitter > 0

    def test_singular_at_maximum_jitter_raises(self, monkeypatch):
        # A Gram matrix with eigenvalue -1 stays indefinite at every jitter level.
        monkeypatch.setattr(gp_module, "se_kernel_matrix", lambda X, Z, params: np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(SingularGramError, match="maximum jitter"):
            gp_fit([[0.1], [0.9]], [0.0, 1.0], KernelParams(1.0, (0.3,)))

    def test_compiled_modules_load_once_and_a_missing_one_is_named(self):
        assert gp_module._scipy_compiled_module("linalg", "_flapack") is gp_module.lapack
        with pytest.raises(ImportError, match=r"scipy\.linalg\._missing is missing: no .*_missing\.\* file"):
            gp_module._scipy_compiled_module("linalg", "_missing")
        with pytest.raises(ImportError, match=r"scipy\.special\._missing is missing: no .*special/_missing\.\* file"):
            gp_module._scipy_compiled_module("special", "_missing")

    def test_a_module_that_fails_to_execute_is_not_left_loaded(self, monkeypatch, tmp_path):
        # A stand-in scipy tree whose module file exists but fails to execute, so nothing real loads.
        (tmp_path / "special").mkdir()
        (tmp_path / "special" / ("_broken" + importlib.machinery.EXTENSION_SUFFIXES[0])).touch()
        monkeypatch.setattr(gp_module, "scipy", types.SimpleNamespace(__file__=str(tmp_path / "__init__.py")))

        class FailingLoader(importlib.machinery.ExtensionFileLoader):
            def create_module(self, spec):
                return types.ModuleType(spec.name)

            def exec_module(self, module):
                raise ImportError("initialization failed")

        monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", FailingLoader)
        for _ in range(2):
            with pytest.raises(ImportError, match="initialization failed"):
                gp_module._scipy_compiled_module("special", "_broken")
            assert "scipy.special._broken" not in sys.modules


class TestPoolPosterior:
    POOL = np.random.default_rng(0).uniform(0.0, 1.0, size=(20, 2))

    def test_a_jittered_start_carries_its_jitter_into_later_pivots(self):
        # Duplicate rows at zero noise need jitter; every later pivot, including
        # another duplicate's, is then one of the factor of K + jitter * I.
        params = KernelParams(1.0, (0.3, 0.3))
        posterior = PoolPosterior([[0.5, 0.5]] * 3, self.POOL, params)
        assert posterior.jitter > 0
        posterior.extend([0.2, 0.7])
        posterior.extend([0.5, 0.5])
        X = np.array([[0.5, 0.5]] * 3 + [[0.2, 0.7], [0.5, 0.5]])
        want = _cholesky_lower(se_kernel_matrix(X, X, params) + posterior.jitter * np.eye(5))
        np.testing.assert_allclose(posterior.chol, want, rtol=0, atol=1e-9)

    def test_a_non_positive_pivot_refactors_from_scratch(self):
        # A repeated row at zero noise leaves the pivot 1 - 1 * 1 = 0 exactly.
        params = KernelParams(1.0, (0.3,))
        posterior = PoolPosterior([[0.3]], self.POOL[:, :1], params)
        assert posterior.jitter == 0.0
        posterior.extend([0.3])
        oracle = gp_fit([[0.3], [0.3]], [0.0, 0.0], params)
        assert posterior.jitter == oracle.jitter > 0
        assert np.array_equal(posterior.chol, oracle.chol)
        posterior.set_outputs([1.0, 1.0])
        means, variances = posterior.predict_candidates(CandidateSet(posterior.pool))
        assert np.all(np.isfinite(means)) and np.all(np.isfinite(variances))

    def test_means_answer_for_the_outputs_set_after_the_last_row(self):
        posterior = PoolPosterior([[0.1, 0.2]], self.POOL, KernelParams(1.0, (0.3, 0.3), 1e-6))
        candidates = CandidateSet(self.POOL)
        with pytest.raises(ValueError, match="set_outputs"):
            posterior.predict_candidates(candidates)
        with pytest.raises(ValueError, match="2 outputs for 1 observed rows"):
            posterior.set_outputs([1.0, 2.0])
        posterior.set_outputs([1.0])
        posterior.extend([0.8, 0.9])
        with pytest.raises(ValueError, match="set_outputs"):
            posterior.predict_candidates(candidates)
        posterior.set_outputs([1.0, -1.0])
        with pytest.raises(ValueError, match="pool"):
            posterior.predict_candidates(CandidateSet(self.POOL[:5]))

    def test_candidates_over_another_array_are_refused(self):
        # Same shape and values, but not the posterior's pool array.
        posterior = PoolPosterior([[0.1, 0.2]], self.POOL, KernelParams(1.0, (0.3, 0.3), 1e-6))
        posterior.set_outputs([1.0])
        assert posterior.predict_candidates(CandidateSet(self.POOL))[0].shape == (len(self.POOL),)
        for points in (self.POOL.copy(), self.POOL[:], self.POOL[::-1]):
            with pytest.raises(ValueError, match="not this posterior's pool"):
                posterior.predict_candidates(CandidateSet(points))

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_kernel_blocks_equal_the_kernel_matrix(self, rng, monkeypatch, d):
        # The build's Gram and pool kernel, and each extended row's kernel
        # against the observed rows and the pool, from pre-scaled points.
        params, X, _ = random_gp_instance(rng, d, t=6)
        pool = rng.uniform(0.0, 1.0, size=(25, d))
        blocks = []
        original = gp_module._scaled_se

        def recording(*args):
            block = original(*args)
            blocks.append(block.copy())  # the Gram's diagonal is regularized in place
            return block

        monkeypatch.setattr(gp_module, "_scaled_se", recording)
        posterior = PoolPosterior(X[:2], pool, params)
        assert len(blocks) == 2
        assert np.array_equal(blocks[0], se_kernel_matrix(X[:2], X[:2], params))
        assert np.array_equal(blocks[1], se_kernel_matrix(X[:2], pool, params))
        for t in range(2, len(X)):
            blocks.clear()
            posterior.extend(X[t])
            assert len(blocks) == 1  # k(x, pool), then k(x, X)
            assert np.array_equal(blocks[0][:, : len(pool)], se_kernel_matrix(X[t], pool, params))
            assert np.array_equal(blocks[0][:, len(pool) :], se_kernel_matrix(X[t], X[:t], params))

    @pytest.mark.parametrize("first", [1, 3, 6])
    def test_an_empty_posterior_grows_as_one_built_over_its_first_rows(self, first):
        # The first extend factors its rows whole, as the constructor does; later ones update.
        params = KernelParams(1.0, (0.3, 0.3), 1e-6)
        rows = np.random.default_rng(6).uniform(0.0, 1.0, size=(6, 2))
        grown = PoolPosterior(rows[:0], self.POOL, params)
        grown.extend(rows[:0])
        with pytest.raises(ValueError, match="0 outputs for 0 observed rows"):
            grown.set_outputs([])
        grown.extend(rows[:first])
        whole = PoolPosterior(rows[:first], self.POOL, params)
        for posterior in (grown, whole):
            posterior.extend(rows[first:])
            posterior.set_outputs(np.sin(np.arange(6.0)))
        assert np.array_equal(grown.X, rows) and grown.jitter == whole.jitter
        assert all(map(np.array_equal, grown.factors(), whole.factors()))  # L, L^-1 z, V, column sums
        candidates = CandidateSet(self.POOL, excluded=np.arange(len(self.POOL)) % 3 == 0)
        assert all(map(np.array_equal, grown.predict_candidates(candidates), whole.predict_candidates(candidates)))

    @pytest.mark.parametrize("first", [0, 3])
    def test_zero_rows_change_nothing(self, first):
        params = KernelParams(1.0, (0.3, 0.3), 1e-6)
        rows = np.random.default_rng(7).uniform(0.0, 1.0, size=(3, 2))
        posterior = PoolPosterior(rows[:first], self.POOL, params)
        if first:
            posterior.set_outputs(np.arange(float(first)))
        before = (posterior.X.copy(), posterior.factorizations, posterior.jitter)
        held = posterior.factors()
        copies = [None if a is None else a.copy() for a in held]
        for empty in (rows[:0], np.empty((0, 2))):
            posterior.extend(empty)
        after = posterior.factors()
        assert all(held[i] is after[i] for i in (0, 1, 3))  # L, L^-1 z (no new set_outputs needed), column sums
        assert all(a is None if b is None else np.array_equal(a, b) for a, b in zip(after, copies))
        assert np.array_equal(posterior.X, before[0]) and (posterior.factorizations, posterior.jitter) == before[1:]

    def test_rows_read_before_an_extend_stay_as_they_were(self):
        params = KernelParams(1.0, (0.3, 0.3), 1e-6)
        rows = np.random.default_rng(8).uniform(0.0, 1.0, size=(9, 2))
        posterior = PoolPosterior(rows[:1], self.POOL, params)
        views = []
        for t in range(1, len(rows)):
            views.append(posterior.X)
            posterior.extend(rows[t])  # fills spare rows, then doubles the buffer at t = 1, 2, 4 and 8
        assert all(np.array_equal(view, rows[: len(view)]) for view in views)
        assert np.array_equal(posterior.X, rows) and posterior.factorizations == 1

    def test_a_batch_of_rows_extends_as_one_row_at_a_time(self):
        params = KernelParams(1.0, (0.3, 0.3), 1e-6)
        rows = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, 2))
        batch, single = (PoolPosterior(rows[:2], self.POOL, params) for _ in range(2))
        batch.extend(rows[2:])
        batch.extend(rows[:0])
        for x in rows[2:]:
            single.extend(x)
        for posterior in (batch, single):
            posterior.set_outputs(np.arange(6.0))
        assert batch.n == single.n == 6 and np.array_equal(batch.X, rows)
        assert np.array_equal(batch.chol, single.chol)
        candidates = CandidateSet(self.POOL)
        assert all(map(np.array_equal, batch.predict_candidates(candidates), single.predict_candidates(candidates)))


class TestGpFit:
    @pytest.mark.parametrize("d, noise", [(1, 0.0), (2, 1e-6), (4, 1e-4), (9, 0.0)])
    def test_matches_eye_based_factorization(self, rng, d, noise):
        # The Gram matrix of the einsum kernel with the noise and a zero jitter
        # added as identity matrices, factorized and solved through scipy.linalg.
        params, X, y = random_gp_instance(rng, d, t=12, noise=noise)
        model = gp_fit(X, y, params)
        assert model.jitter == 0.0
        gram = se_kernel_matrix_einsum(X, X, params) + noise * np.eye(12)
        chol = cholesky(gram + 0.0 * np.eye(12), lower=True)
        assert np.array_equal(model.chol, chol)
        assert np.array_equal(model.weights, cho_solve((chol, True), y))

    def test_single_observation_weights(self):
        # 1x1 system: Gram = [signal_variance], weights = [y / signal_variance].
        params = KernelParams(2.5, (0.3,), noise_variance=0.0)
        model = gp_fit([[0.4]], [5.0], params)
        assert model.chol[0, 0] == pytest.approx(np.sqrt(2.5), abs=1e-12)
        assert model.weights[0] == pytest.approx(5.0 / 2.5, abs=1e-12)

    def test_duplicate_inputs_with_noise_accepted(self):
        params = KernelParams(1.0, (0.3, 0.3), noise_variance=1e-4)
        model = gp_fit([[0.5, 0.5]] * 3, [1.0, 1.1, 0.9], params)
        assert model.predict_batch([0.5, 0.5])[0][0] == pytest.approx(1.0, abs=1e-3)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            gp_fit(np.empty((0, 1)), np.empty(0), KernelParams(1.0, (0.3,)))

    def test_weights_match_dense_inverse(self, rng):
        params, X, y = random_gp_instance(rng, d=3, t=10, noise=1e-4)
        model = gp_fit(X, y, params)
        K = se_kernel_matrix(X, X, params) + params.noise_variance * np.eye(10)
        expected = np.linalg.inv(K) @ y
        np.testing.assert_allclose(model.weights, expected, atol=1e-8)


class TestGpPredict:
    def test_noise_free_interpolation(self):
        params = KernelParams(1.0, (0.3,), noise_variance=0.0)
        (mean,), (variance,) = gp_fit([[0.4]], [2.0], params).predict_batch([0.4])
        assert mean == pytest.approx(2.0, abs=1e-10)
        assert variance == pytest.approx(0.0, abs=1e-10)

    def test_prior_recovery_far_from_data(self):
        # With a short length scale, the opposite corner is effectively infinitely far.
        params = KernelParams(1.8, (0.02,), noise_variance=0.0)
        (mean,), (variance,) = gp_fit([[0.0]], [4.0], params).predict_batch([1.0])
        assert abs(mean) < 1e-9
        assert variance == pytest.approx(1.8, abs=1e-9)

    def test_matches_dense_oracle(self, rng):
        params, X, y = random_gp_instance(rng, d=3, t=20, noise=1e-4)
        model = gp_fit(X, y, params)
        for x_star in rng.uniform(0, 1, size=(5, 3)):
            mean, var = dense_posterior_oracle(X, y, params, x_star)
            (pred_mean,), (pred_var,) = model.predict_batch(x_star)
            assert pred_mean == pytest.approx(mean, abs=1e-8)
            assert pred_var == pytest.approx(max(var, 0.0), abs=1e-8)

    def test_training_variance_tiny_when_noiseless(self, rng):
        params, X, y = random_gp_instance(rng, d=2, t=8, noise=0.0)
        model = gp_fit(X, y, params)
        _, variances = model.predict_batch(X)
        assert np.all(variances <= 1e-8)

    def test_variance_clamped_to_signal_range(self, rng):
        params, X, y = random_gp_instance(rng, d=2, t=15, noise=1e-6)
        model = gp_fit(X, y, params)
        _, variances = model.predict_batch(rng.uniform(0, 1, size=(50, 2)))
        assert np.all(variances >= 0.0)
        assert np.all(variances <= params.signal_variance)

    @given(seed=st.integers(0, 10_000))
    def test_information_monotonicity(self, seed):
        # Conditioning on one more point cannot raise posterior variance.
        rng = np.random.default_rng(seed)
        params, X, y = random_gp_instance(rng, d=2, t=6, noise=1e-4)
        x_new, y_new = rng.uniform(0, 1, size=2), rng.normal()
        x_test = rng.uniform(0, 1, size=(10, 2))
        _, var_before = gp_fit(X, y, params).predict_batch(x_test)
        _, var_after = gp_fit(np.vstack([X, x_new]), np.append(y, y_new), params).predict_batch(x_test)
        assert np.all(var_after <= var_before + 1e-9)

    def test_joint_prediction_consistent_with_marginals(self, rng):
        params, X, y = random_gp_instance(rng, d=2, t=12, noise=1e-4)
        model = gp_fit(X, y, params)
        X_star = rng.uniform(0, 1, size=(6, 2))
        means_b, vars_b = model.predict_batch(X_star)
        means_j, cov_j = model.predict_joint(X_star)
        np.testing.assert_allclose(means_j, means_b, atol=1e-12)
        np.testing.assert_allclose(np.diag(cov_j), vars_b, atol=1e-9)


class TestStandardize:
    def test_roundtrip_matches_raw_fit_selection_scale(self, rng):
        # A fit on the z-scores, mapped back with mean -> mean * scale + shift,
        # must reproduce the training targets on an easy interpolation problem.
        params = KernelParams(1.0, (0.3, 0.3), noise_variance=1e-8)
        X = rng.uniform(0, 1, size=(8, 2))
        y = 1000.0 + 50.0 * rng.normal(size=8)  # far from zero mean, large scale
        z, scale = standardize(y)
        assert scale == pytest.approx(np.std(y), rel=1e-12)
        means, variances = gp_fit(X, z, params).predict_batch(X)
        np.testing.assert_allclose(means * scale + np.mean(y), y, atol=1e-4)
        assert np.all(variances >= 0)

    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (60,), (5, 4)])
    def test_matches_std_then_mean(self, rng, shape):
        for _ in range(20):
            y = rng.normal(loc=rng.uniform(-1e3, 1e3), scale=rng.uniform(1e-3, 1e2), size=shape)
            z, scale = standardize(y)
            ref_scale = float(np.std(y))
            if ref_scale <= 1e-12:
                assert scale == 1.0 and np.array_equal(z, np.zeros(shape))
                continue
            assert scale == ref_scale
            assert np.array_equal(z, (y - np.mean(y)) / ref_scale)

    def test_spread_below_threshold_gives_zeros(self, rng):
        z, scale = standardize(3.0 + 1e-14 * rng.normal(size=9))
        assert scale == 1.0
        assert np.array_equal(z, np.zeros(9))

    def test_constant_outputs_do_not_crash(self):
        params = KernelParams(1.0, (0.3,), noise_variance=1e-6)
        y = np.array([7.0, 7.0, 7.0])
        z, scale = standardize(y)
        assert scale == 1.0
        np.testing.assert_array_equal(z, np.zeros(3))
        model = gp_fit([[0.1], [0.5], [0.9]], z, params)
        assert model.predict_batch([0.5])[0][0] * scale + 7.0 == pytest.approx(7.0, abs=1e-3)
