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

A `MonotonicWorkspace` holds the prior kernel blocks of one trial's fits: in a
monotonicity run the locations, the candidate pool and the kernel are fixed
and only the strictness changes, so each observed row adds one row to the
blocks and nothing is recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from hyperbo.gp import KernelParams, _cho_solve_lower, _cholesky_lower, _solve_lower, as_observations, se_kernel_matrix

__all__ = [
    "FittedMonotonicGP",
    "MonotonicWorkspace",
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


class MonotonicWorkspace:
    """The prior kernel blocks of a run of monotonic fits, grown as rows are observed.

    The fits share the kernel params, the virtual locations and the candidate
    pool: the array that the run's CandidateSets hold, or none.  The
    derivative-derivative block K_dd and the pool's cross-covariances with the
    derivative latents are computed once; each observed row x adds its row of
    K_ff (and, by symmetry, its column), its row of K_fd and k(x, pool), one
    kernel call for each batch of rows.  The kernel is elementwise and
    symmetric bit for bit, so every block holds the bits that computing it
    whole gives.
    """

    def __init__(self, params: KernelParams, locations, pool=None):
        self.params = params
        self.locations = np.asarray(locations, dtype=float)
        self.pool = np.empty((0, params.dim)) if pool is None else pool
        self._K_dd = gradient_gram_matrix(self.locations, params)
        self._pool_grad = np.ascontiguousarray(value_gradient_cross_matrix(self.pool, self.locations, params).T)
        self.n = 0
        self._X = np.empty((0, params.dim))
        self._K_ff = np.empty((0, 0))
        self._K_fd = np.empty((0, self._K_dd.shape[0]))
        self._pool_obs = np.empty((0, self.pool.shape[0]))

    @property
    def X(self) -> np.ndarray:
        """The observed rows, in order."""
        return self._X[: self.n]

    def extend(self, rows) -> None:
        """Add observed rows, in order: one row x, or a (k, d) array of them."""
        t = self.n
        n = t + len(np.atleast_2d(rows))
        if n > len(self._X):
            self._grow(max(2 * n, 8))
        self._X[t:n] = rows
        new = self._X[t:n]
        k = se_kernel_matrix(new, np.concatenate((self._X[:n], self.pool)), self.params)
        self._K_ff[t:n, :n] = k[:, :n]
        self._K_ff[:t, t:n] = k[:, :t].T
        self._pool_obs[t:n] = k[:, n:]
        self._K_fd[t:n] = value_gradient_cross_matrix(new, self.locations, self.params)
        self.n = n

    def _grow(self, rows: int) -> None:
        """Move the blocks into arrays with room for this many observed rows."""
        t = self.n

        def grown(block):
            out = np.empty((rows, block.shape[1]))
            out[:t] = block[:t]
            return out

        K_ff = np.empty((rows, rows))
        K_ff[:t, :t] = self._K_ff[:t, :t]
        self._K_ff = K_ff
        self._X, self._K_fd, self._pool_obs = grown(self._X), grown(self._K_fd), grown(self._pool_obs)

    def joint_prior(self) -> np.ndarray:
        """The prior covariance of the latents [f(X), derivatives at the locations]."""
        t = self.n
        K_fd = self._K_fd[:t]
        K = np.empty((t + K_fd.shape[1],) * 2)
        K[:t, :t] = self._K_ff[:t, :t]
        K[:t, t:] = K_fd
        K[t:, :t] = K_fd.T
        K[t:, t:] = self._K_dd
        return K

    def pool_cross_covariances(self, t: int, columns: np.ndarray) -> np.ndarray:
        """The cross-covariances of the latents of the first t rows with the pool rows in columns."""
        # C order, the layout of predict_batch's stacked cross-covariances: in
        # another layout the means' matrix-vector product rounds differently.
        out = np.empty((t + len(self._pool_grad), len(columns)))
        out[:t] = self._pool_obs[:t, columns]
        out[t:] = self._pool_grad[:, columns]
        return out


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
    _workspace: MonotonicWorkspace = field(repr=False)

    @property
    def derivative_means(self) -> np.ndarray:
        """Posterior means of the virtual derivative latents (location-major)."""
        return self._latent_mean[self.X.shape[0]:]

    def _cross_covariances(self, X_star: np.ndarray) -> np.ndarray:
        k_obs = se_kernel_matrix(self.X, X_star, self.params)  # (t, m)
        k_grad = value_gradient_cross_matrix(X_star, self.locations, self.params).T
        return np.vstack([k_obs, k_grad])  # (n_latent, m)

    def _predict(self, k_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        means = k_star.T @ self._mean_weights
        v = _solve_lower(self._chol_B, self._sqrt_S[:, None] * k_star)
        # einsum, not (v * v).sum(0): the two round differently.
        variances = self.params.signal_variance - np.einsum("ij,ij->j", v, v)
        variances = np.clip(variances, 0.0, self.params.signal_variance)
        return means, variances

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        return self._predict(self._cross_covariances(np.atleast_2d(np.asarray(X, dtype=float))))

    def predict_candidates(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """predict_batch at the active rows of an acquisition.CandidateSet.

        When the candidates are the workspace's pool, the cross-covariances
        are the active columns of its blocks.
        """
        active = candidates.active_indices
        if candidates.points is not self._workspace.pool:
            return self.predict_batch(candidates.points[active])
        return self._predict(self._workspace.pool_cross_covariances(self.X.shape[0], active))


def _posterior(K, prior_var, tau_lat, nat_lat):
    """Gaussian posterior of the latents under site precisions and natural means.

    prior_var is the diagonal of K.  Returns the marginal means and variances,
    the Cholesky factor of B = I + S^1/2 K S^1/2, S^1/2 and the weights w with
    mean = K w (GPML Alg. 3.5); the full posterior covariance is never formed.
    """
    sqrt_s = np.sqrt(tau_lat)
    SK = sqrt_s[:, None] * K
    B = SK * sqrt_s[None, :]
    B.flat[:: K.shape[0] + 1] += 1.0
    chol_B = _cholesky_lower(B)
    V = _solve_lower(chol_B, SK)
    # einsum, not (V * V).sum(0): the two round differently.
    variances = np.maximum(prior_var - np.einsum("ij,ij->j", V, V), 0.0)
    weights = nat_lat - sqrt_s * _cho_solve_lower(chol_B, sqrt_s * (K @ nat_lat))
    return K @ weights, variances, chol_B, sqrt_s, weights


def fit_monotonic_gp(
    X,
    y,
    params: KernelParams,
    strictness,
    locations,
    workspace: MonotonicWorkspace | None = None,
) -> FittedMonotonicGP:
    """Fit the probit derivative sites by damped parallel EP and freeze the posterior.

    strictness holds the 2d exponents [theta_1_minus, theta_1_plus, ...]; the
    probit scale of each direction is nu = 10^theta.  locations holds the
    virtual derivative locations, one row of d coordinates each.  workspace,
    built for params and locations, holds the prior kernel blocks of earlier
    rows of X; the fit extends it by the rest of X.  Without one the fit
    builds its own.
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
    if workspace is None:
        workspace = MonotonicWorkspace(params, locations)
    elif workspace.params != params or not np.array_equal(workspace.locations, locations):
        raise ValueError("the workspace was built for other kernel params or locations")
    if not np.array_equal(workspace.X, X[: workspace.n]):
        raise ValueError("the workspace's rows are not the first rows of X")
    if workspace.n < len(X):
        workspace.extend(X[workspace.n :])

    t = X.shape[0]
    K = workspace.joint_prior()
    prior_var = np.diag(K)
    prior_sd = np.sqrt(prior_var)

    obs_noise = max(params.noise_variance, _MIN_OBS_NOISE)
    lat = np.zeros((2, K.shape[0]))  # per latent: total site precision, total natural mean
    lat[0, :t] = 1.0 / obs_noise
    lat[1, :t] = y / obs_noise

    # One (+, -) pair of probit sites per derivative latent t + j*d + g: row 0
    # rewards a positive slope in dimension g, row 1 a negative one.  sites[0]
    # holds the pairs' precisions and sites[1] their natural means (precision *
    # mean), so each step of the update below runs once on both.
    sign = np.array([[1.0], [-1.0]])
    nu_pair = 10.0 ** strictness.reshape(-1, 2)[:, ::-1].T  # (2, d): nu_plus, nu_minus
    nu2 = np.tile(nu_pair * nu_pair, (1, locations.shape[0]))
    sites = np.zeros((2,) + nu2.shape)
    # Row 0 of these numerators stays 1, so one division gives the natural
    # parameters [1 / v, m / v] of means m and variances v.
    marginal_num = np.ones((2, nu2.shape[1]))
    matched_num = np.ones(sites.shape)

    mean, var, chol_B, sqrt_s, weights = _posterior(K, prior_var, lat[0], lat[1])
    sd = np.sqrt(var)
    converged = False
    sweeps = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        sweeps = sweep
        var_d = var[t:]
        marginal_num[1] = mean[t:]
        with np.errstate(all="ignore"):  # invalid entries are masked out below
            cavity = (marginal_num / var_d)[:, None, :] - sites
            cav_var = 1.0 / cavity[0]
            cav_mean = cavity[1] * cav_var
            new_mean, new_var = _probit_moments(cav_mean, cav_var, sign, nu2)
            matched_num[1] = new_mean
            target = matched_num / new_var - cavity
            valid = (
                (var_d > 0)
                & (cavity[0] > 1e-12)
                & np.isfinite(cav_mean)
                & np.isfinite(new_mean)
                & (new_var > 0)
                & np.isfinite(target).all(axis=0)
            )
            # Probit factors are log-concave, so a non-positive proposal is pure
            # round-off: drop the site rather than keep a bad precision.  Above
            # the cap, shrink the pair together so the implied site mean is kept.
            shrink = np.where(target[0] > 0.0, np.minimum(1.0, _SITE_PRECISION_CAP / target[0]), 0.0)
        np.copyto(sites, (1.0 - _DAMPING) * sites + (_DAMPING * shrink) * target, where=valid)

        np.add(sites[:, 0], sites[:, 1], out=lat[:, t:])
        old_mean, old_sd = mean, sd
        mean, var, chol_B, sqrt_s, weights = _posterior(K, prior_var, lat[0], lat[1])
        sd = np.sqrt(var)
        moved = np.maximum(np.abs(mean - old_mean), np.abs(sd - old_sd))
        if (moved / prior_sd).max() <= _TOL:
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
        _workspace=workspace,
    )
