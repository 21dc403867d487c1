"""GP regression checked against direct dense-matrix evaluation of the posterior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperbo.gp import KernelParams, SingularGramError, gp_fit, se_kernel_matrix, standardize

from conftest import random_gp_instance
from kernel_oracles import se_kernel


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


class TestGpFit:
    def test_single_observation_weights(self):
        # 1x1 system: Gram = [signal_variance], weights = [y / signal_variance].
        params = KernelParams(2.5, (0.3,), noise_variance=0.0)
        model = gp_fit([[0.4]], [5.0], params)
        assert model.chol[0, 0] == pytest.approx(np.sqrt(2.5), abs=1e-12)
        assert model.weights[0] == pytest.approx(5.0 / 2.5, abs=1e-12)

    def test_duplicate_inputs_zero_noise_rejected(self):
        params = KernelParams(1.0, (0.3, 0.3), noise_variance=0.0)
        with pytest.raises(SingularGramError):
            gp_fit([[0.5, 0.5]] * 3, [1.0] * 3, params)

    def test_duplicate_inputs_with_noise_accepted(self):
        params = KernelParams(1.0, (0.3, 0.3), noise_variance=1e-4)
        model = gp_fit([[0.5, 0.5]] * 3, [1.0, 1.1, 0.9], params)
        assert model.predict([0.5, 0.5]).mean == pytest.approx(1.0, abs=1e-3)

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
        pred = gp_fit([[0.4]], [2.0], params).predict([0.4])
        assert pred.mean == pytest.approx(2.0, abs=1e-10)
        assert pred.variance == pytest.approx(0.0, abs=1e-10)

    def test_prior_recovery_far_from_data(self):
        # With a short length scale, the opposite corner is effectively infinitely far.
        params = KernelParams(1.8, (0.02,), noise_variance=0.0)
        pred = gp_fit([[0.0]], [4.0], params).predict([1.0])
        assert abs(pred.mean) < 1e-9
        assert pred.variance == pytest.approx(1.8, abs=1e-9)

    def test_matches_dense_oracle(self, rng):
        params, X, y = random_gp_instance(rng, d=3, t=20, noise=1e-4)
        model = gp_fit(X, y, params)
        for x_star in rng.uniform(0, 1, size=(5, 3)):
            mean, var = dense_posterior_oracle(X, y, params, x_star)
            pred = model.predict(x_star)
            assert pred.mean == pytest.approx(mean, abs=1e-8)
            assert pred.variance == pytest.approx(max(var, 0.0), abs=1e-8)

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

    def test_constant_outputs_do_not_crash(self):
        params = KernelParams(1.0, (0.3,), noise_variance=1e-6)
        y = np.array([7.0, 7.0, 7.0])
        z, scale = standardize(y)
        assert scale == 1.0
        np.testing.assert_array_equal(z, np.zeros(3))
        model = gp_fit([[0.1], [0.5], [0.9]], z, params)
        assert model.predict([0.5]).mean * scale + 7.0 == pytest.approx(7.0, abs=1e-3)
