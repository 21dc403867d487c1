"""GP regression with soft monotonicity constraints via virtual derivative observations.

The latent vector stacks the function values at the observed inputs with the
partial derivatives at a fixed set of virtual locations.  Each virtual
derivative carries two probit factors, one per direction: Phi(+df / nu_plus)
rewards positive slope, Phi(-df / nu_minus) rewards negative slope, and the
strictness nu = 10^theta interpolates between a near-hard sign constraint
(theta = -6) and a weak preference (theta = 0).  The non-Gaussian posterior is
approximated by damped parallel expectation propagation: every sweep updates
all probit sites at once from the current posterior marginals and then
refreshes the posterior with one Cholesky factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from hyperbo.gp import KernelParams, _cho_solve_lower, _cholesky_lower, _solve_lower, as_observations, se_kernel_matrix

__all__ = [
    "FittedMonotonicGP",
    "value_gradient_cross_matrix",
    "gradient_gram_matrix",
    "fit_monotonic_gp",
]

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SITE_PRECISION_CAP = 1e8
_MIN_OBS_NOISE = 1e-8
# EP: damped site updates, at most _MAX_SWEEPS sweeps, converged at _TOL.
_DAMPING = 0.8
_MAX_SWEEPS = 100
_TOL = 1e-4


def value_gradient_cross_matrix(X, Z, params: KernelParams) -> np.ndarray:
    """Cross-covariances between f at rows of X and derivative latents at rows of Z.

    Column layout is location-major: column j*d + g is d/dz_g at location Z[j].
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    d = params.dim
    base = se_kernel_matrix(X, Z, params)  # (n, m)
    n, m = base.shape
    out = np.empty((n, m * d))
    ls2 = params.scales_array() ** 2
    for g in range(d):
        out[:, g::d] = base * (X[:, g][:, None] - Z[:, g][None, :]) / ls2[g]
    return out


def gradient_gram_matrix(Z, params: KernelParams) -> np.ndarray:
    """Prior covariance among all derivative latents at rows of Z (location-major)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    d = params.dim
    m = Z.shape[0]
    base = se_kernel_matrix(Z, Z, params)
    ls2 = params.scales_array() ** 2
    out = np.empty((m * d, m * d))
    for g in range(d):
        dg = (Z[:, g][:, None] - Z[:, g][None, :]) / ls2[g]
        for h in range(d):
            dh = (Z[:, h][:, None] - Z[:, h][None, :]) / ls2[h]
            block = base * ((1.0 / ls2[g] if g == h else 0.0) - dg * dh)
            out[g::d, h::d] = block
    return out


def _probit_moments(cav_mean, cav_var, sign, nu2):
    """Matched means and variances of N(u; cav) * Phi(sign * u / nu), elementwise; nu2 is nu * nu."""
    total_var = nu2 + cav_var
    denom = np.sqrt(total_var)
    z = sign * cav_mean / denom
    log_phi = -0.5 * z * z - _LOG_SQRT_2PI
    ratio = np.exp(log_phi - log_ndtr(z))  # pdf/cdf, stable for very negative z
    new_mean = cav_mean + sign * cav_var * ratio / denom
    new_var = cav_var - cav_var * cav_var * ratio * (z + ratio) / total_var
    return new_mean, np.maximum(new_var, 1e-14 * cav_var)


@dataclass(frozen=True)
class FittedMonotonicGP:
    """Gaussian EP approximation to the monotonicity-constrained posterior."""

    X: np.ndarray
    params: KernelParams
    locations: np.ndarray  # (n, d) virtual derivative locations
    converged: bool
    sweeps: int
    _mean_weights: np.ndarray = field(repr=False)
    _chol_B: np.ndarray = field(repr=False)
    _sqrt_S: np.ndarray = field(repr=False)
    _latent_mean: np.ndarray = field(repr=False)

    @property
    def derivative_means(self) -> np.ndarray:
        """Posterior means of the virtual derivative latents (location-major)."""
        return self._latent_mean[self.X.shape[0]:]

    def _cross_covariances(self, X_star: np.ndarray) -> np.ndarray:
        k_obs = se_kernel_matrix(self.X, X_star, self.params)  # (t, m)
        k_grad = value_gradient_cross_matrix(X_star, self.locations, self.params).T
        return np.vstack([k_obs, k_grad])  # (n_latent, m)

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k_star = self._cross_covariances(X)
        means = k_star.T @ self._mean_weights
        v = _solve_lower(self._chol_B, self._sqrt_S[:, None] * k_star)
        variances = self.params.signal_variance - np.einsum("ij,ij->j", v, v)
        variances = np.clip(variances, 0.0, self.params.signal_variance)
        return means, variances

    def predict_candidates(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """predict_batch at the active rows of an acquisition.CandidateSet."""
        return self.predict_batch(candidates.points[candidates.active_indices])


def _joint_prior(X, Z, params: KernelParams) -> np.ndarray:
    K_ff = se_kernel_matrix(X, X, params)
    K_fd = value_gradient_cross_matrix(X, Z, params)
    K_dd = gradient_gram_matrix(Z, params)
    return np.block([[K_ff, K_fd], [K_fd.T, K_dd]])


def _posterior(K, prior_var, tau_lat, nat_lat):
    """Gaussian posterior of the latents under site precisions and natural means.

    prior_var is the diagonal of K.  Returns the marginal means and variances,
    the Cholesky factor of B = I + S^1/2 K S^1/2, S^1/2 and the weights w with
    mean = K w (GPML Alg. 3.5); the full posterior covariance is never formed.
    """
    sqrt_s = np.sqrt(tau_lat)
    B = (sqrt_s[:, None] * K) * sqrt_s[None, :]
    B.flat[:: K.shape[0] + 1] += 1.0
    chol_B = _cholesky_lower(B)
    V = _solve_lower(chol_B, sqrt_s[:, None] * K)
    variances = np.maximum(prior_var - np.einsum("ij,ij->j", V, V), 0.0)
    weights = nat_lat - sqrt_s * _cho_solve_lower(chol_B, sqrt_s * (K @ nat_lat))
    return K @ weights, variances, chol_B, sqrt_s, weights


def fit_monotonic_gp(
    X,
    y,
    params: KernelParams,
    strictness,
    locations,
) -> FittedMonotonicGP:
    """Fit the probit derivative sites by damped parallel EP and freeze the posterior.

    strictness holds the 2d exponents [theta_1_minus, theta_1_plus, ...]; the
    probit scale of each direction is nu = 10^theta.  locations holds the
    virtual derivative locations, one row of d coordinates each.
    Each sweep takes every site's cavity from the current marginals, matches
    moments for all sites at once, applies the damped site updates and
    refreshes the posterior with one Cholesky.  The fit has converged when, in
    one sweep, no latent's posterior mean or standard deviation moves by more
    than _TOL times its prior standard deviation.  Non-convergence within
    _MAX_SWEEPS is not fatal: the last damped iterate is returned with
    converged=False.
    """
    X, y = as_observations(X, y, params.dim)
    strictness = np.asarray(strictness, dtype=float)
    locations = np.asarray(locations, dtype=float)
    if strictness.shape != (2 * params.dim,) or locations.ndim != 2 or locations.shape[1] != params.dim:
        raise ValueError("kernel, strictness and location dimensions must agree")

    t = X.shape[0]
    K = _joint_prior(X, locations, params)
    prior_var = np.diag(K)
    prior_sd = np.sqrt(prior_var)

    obs_noise = max(params.noise_variance, _MIN_OBS_NOISE)
    tau_lat = np.zeros(K.shape[0])
    nat_lat = np.zeros(K.shape[0])
    tau_lat[:t] = 1.0 / obs_noise
    nat_lat[:t] = y / obs_noise

    # One (+, -) pair of probit sites per derivative latent t + j*d + g: row 0
    # rewards a positive slope in dimension g, row 1 a negative one.
    sign = np.array([[1.0], [-1.0]])
    nu_pair = 10.0 ** strictness.reshape(-1, 2)[:, ::-1].T  # (2, d): nu_plus, nu_minus
    nu2 = np.tile(nu_pair * nu_pair, (1, locations.shape[0]))
    tau = np.zeros(nu2.shape)  # site precisions
    nat = np.zeros(nu2.shape)  # site natural means (precision * mean)

    mean, var, chol_B, sqrt_s, weights = _posterior(K, prior_var, tau_lat, nat_lat)
    sd = np.sqrt(var)
    converged = False
    sweeps = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        sweeps = sweep
        mean_d, var_d = mean[t:], var[t:]
        with np.errstate(all="ignore"):  # invalid entries are masked out below
            tau_cav = 1.0 / var_d - tau
            nat_cav = mean_d / var_d - nat
            cav_var = 1.0 / tau_cav
            cav_mean = nat_cav * cav_var
            new_mean, new_var = _probit_moments(cav_mean, cav_var, sign, nu2)
            tau_target = 1.0 / new_var - tau_cav
            nat_target = new_mean / new_var - nat_cav
            valid = (
                (var_d > 0)
                & (tau_cav > 1e-12)
                & np.isfinite(cav_mean)
                & np.isfinite(new_mean)
                & (new_var > 0)
                & np.isfinite(tau_target)
                & np.isfinite(nat_target)
            )
            # Probit factors are log-concave, so a non-positive proposal is pure
            # round-off: drop the site rather than keep a bad precision.  Above
            # the cap, shrink the pair together so the implied site mean is kept.
            shrink = np.where(tau_target > 0.0, np.minimum(1.0, _SITE_PRECISION_CAP / tau_target), 0.0)
        tau = np.where(valid, (1.0 - _DAMPING) * tau + _DAMPING * shrink * tau_target, tau)
        nat = np.where(valid, (1.0 - _DAMPING) * nat + _DAMPING * shrink * nat_target, nat)

        tau_lat[t:] = tau.sum(axis=0)
        nat_lat[t:] = nat.sum(axis=0)
        old_mean, old_sd = mean, sd
        mean, var, chol_B, sqrt_s, weights = _posterior(K, prior_var, tau_lat, nat_lat)
        sd = np.sqrt(var)
        moved = np.maximum(np.abs(mean - old_mean), np.abs(sd - old_sd))
        if np.max(moved / prior_sd) <= _TOL:
            converged = True
            break

    return FittedMonotonicGP(
        X=X,
        params=params,
        locations=locations,
        converged=converged,
        sweeps=sweeps,
        _mean_weights=weights,
        _chol_B=chol_B,
        _sqrt_S=sqrt_s,
        _latent_mean=mean,
    )
