"""Reference fits for the monotonic GP.

`joint_ep_fit` is the damped parallel EP fit over the joint latents
[f(X), derivatives at the locations] with the joint prior computed whole
(`joint_prior`), the observations entering as fixed Gaussian sites: the fit's
arithmetic before it conditioned the derivative latents on the observations
once per fit.  It returns a `JointFit`, which predicts from the joint
posterior; `joint_posterior` is that posterior at given sites, with no sweep,
and `joint_moves` is joint_ep_fit's convergence measure along a given
sequence of sites.  The fit is tested against all three at pre-registered
tolerances.

`sequential_ep_fit` is the per-site damped EP loop that hyperbo.monotonic used
before it moved to parallel EP: one probit site at a time, a rank-1 update of
the full posterior covariance after each site, a refresh from scratch after
each sweep, and convergence judged on the site parameters.  Tests compare the
parallel fit against it.

`workspace_over` builds a pool posterior over the rows of X and a workspace
over it; a test grows it through `workspace.posterior.extend`.  `fit_rows` is
the fit's call form on plain arrays: a fresh workspace holding the rows of X.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import log_ndtr

from hyperbo.gp import (
    KernelParams,
    PoolPosterior,
    _cho_solve_lower,
    _cholesky_lower,
    _solve_lower,
    as_observations,
    se_kernel_matrix,
)
from hyperbo.monotonic import (
    _DAMPING,
    _LOG_SQRT_2PI,
    _MAX_SWEEPS,
    _SITE_PRECISION_CAP,
    _TOL,
    FittedMonotonicGP,
    MonotonicWorkspace,
    _probit_moments as _parallel_probit_moments,
    fit_monotonic_gp,
    gradient_gram_matrix,
    value_gradient_cross_matrix,
)


def workspace_over(X, pool, params, locations) -> MonotonicWorkspace:
    """A workspace over a new pool posterior of params at pool (None: an empty pool) that holds the rows of X."""
    pool = np.empty((0, params.dim)) if pool is None else pool
    return MonotonicWorkspace(PoolPosterior(X, pool, params), locations)


def fit_rows(X, y, params, strictness, locations, pool=None, start=None) -> FittedMonotonicGP:
    """fit_monotonic_gp from a new workspace over pool (or none) that holds the rows of X."""
    return fit_monotonic_gp(workspace_over(X, pool, params, locations), y, strictness, start)


def joint_prior(X, Z, params):
    """The prior covariance of [f(X), derivatives at Z], computed whole."""
    K_ff = se_kernel_matrix(X, X, params)
    K_fd = value_gradient_cross_matrix(X, Z, params)
    K_dd = gradient_gram_matrix(Z, params)
    return np.block([[K_ff, K_fd], [K_fd.T, K_dd]])


def _posterior(K, prior_var, tau_lat, nat_lat):
    """Gaussian posterior of zero-mean latents under site precisions and natural means.

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


@dataclass(frozen=True)
class JointFit:
    """A Gaussian EP approximation over the joint latents [f(X), derivatives], predicting from the joint posterior."""

    X: np.ndarray
    params: KernelParams
    locations: np.ndarray
    converged: bool
    sweeps: int
    sites: np.ndarray = field(repr=False)
    mean_weights: np.ndarray = field(repr=False)
    chol_B: np.ndarray = field(repr=False)
    sqrt_S: np.ndarray = field(repr=False)
    latent_mean: np.ndarray = field(repr=False)

    @property
    def derivative_means(self) -> np.ndarray:
        return self.latent_mean[self.X.shape[0]:]

    def cross_covariances(self, X_star: np.ndarray) -> np.ndarray:
        k_obs = se_kernel_matrix(self.X, X_star, self.params)  # (t, m)
        k_grad = value_gradient_cross_matrix(X_star, self.locations, self.params).T
        return np.vstack([k_obs, k_grad])  # (n_latent, m)

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        k_star = self.cross_covariances(np.atleast_2d(np.asarray(X, dtype=float)))
        means = k_star.T @ self.mean_weights
        v = _solve_lower(self.chol_B, self.sqrt_S[:, None] * k_star)
        variances = self.params.signal_variance - np.einsum("ij,ij->j", v, v)
        variances = np.clip(variances, 0.0, self.params.signal_variance)
        return means, variances


def joint_posterior(X, y, params, locations, sites) -> JointFit:
    """The joint posterior under given probit sites, with no EP sweep."""
    X, y = as_observations(X, y, params.dim)
    t = X.shape[0]
    K = joint_prior(X, locations, params)
    lat = np.zeros((2, K.shape[0]))
    lat[0, :t] = 1.0 / params.noise_variance
    lat[1, :t] = y / params.noise_variance
    lat[:, t:] = sites[:, 0] + sites[:, 1]
    mean, _, chol_B, sqrt_s, weights = _posterior(K, np.diag(K), lat[0], lat[1])
    return JointFit(X, params, locations, True, 0, sites, weights, chol_B, sqrt_s, mean)


def joint_moves(X, y, params, locations, site_totals) -> np.ndarray:
    """joint_ep_fit's convergence measure along a sequence of derivative site totals.

    site_totals holds one (precisions, natural means) pair per posterior
    refresh, summed over each latent's two sites.  Entry k is the largest move
    of any joint latent's posterior mean or standard deviation from refresh k
    to refresh k + 1, in units of _TOL times its prior standard deviation:
    joint_ep_fit stops at the first entry at most 1.
    """
    X, y = as_observations(X, y, params.dim)
    t = X.shape[0]
    K = joint_prior(X, np.asarray(locations, dtype=float), params)
    prior_var = np.diag(K)
    lat = np.zeros((2, K.shape[0]))
    lat[0, :t] = 1.0 / params.noise_variance
    lat[1, :t] = y / params.noise_variance
    marginals = []
    for tau, nat in site_totals:
        lat[0, t:], lat[1, t:] = tau, nat
        mean, var, *_ = _posterior(K, prior_var, lat[0], lat[1])
        marginals.append((mean, np.sqrt(var)))
    return np.array(
        [
            (np.maximum(np.abs(mean - old_mean), np.abs(sd - old_sd)) / np.sqrt(prior_var)).max() / _TOL
            for (old_mean, old_sd), (mean, sd) in zip(marginals, marginals[1:])
        ]
    )


def joint_ep_fit(X, y, params, strictness, locations, start=None) -> JointFit:
    """Damped parallel EP over the joint latents, from zero sites or a copy of start."""
    X, y = as_observations(X, y, params.dim)
    strictness = np.asarray(strictness, dtype=float)
    locations = np.asarray(locations, dtype=float)
    t = X.shape[0]
    K = joint_prior(X, locations, params)
    prior_var = np.diag(K)
    prior_sd = np.sqrt(prior_var)

    lat = np.zeros((2, K.shape[0]))  # per latent: total site precision, total natural mean
    lat[0, :t] = 1.0 / params.noise_variance
    lat[1, :t] = y / params.noise_variance

    sign = np.array([[1.0], [-1.0]])
    nu_pair = 10.0 ** strictness.reshape(-1, 2)[:, ::-1].T  # (2, d): nu_plus, nu_minus
    nu2 = np.tile(nu_pair * nu_pair, (1, locations.shape[0]))
    sites = np.zeros((2,) + nu2.shape) if start is None else np.array(start, dtype=float)
    marginal_num = np.ones((2, nu2.shape[1]))
    matched_num = np.ones(sites.shape)

    np.add(sites[:, 0], sites[:, 1], out=lat[:, t:])
    mean, var, chol_B, sqrt_s, weights = _posterior(K, prior_var, lat[0], lat[1])
    sd = np.sqrt(var)
    converged = False
    sweeps = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        sweeps = sweep
        var_d = var[t:]
        marginal_num[1] = mean[t:]
        with np.errstate(all="ignore"):
            cavity = (marginal_num / var_d)[:, None, :] - sites
            cav_var = 1.0 / cavity[0]
            cav_mean = cavity[1] * cav_var
            new_mean, new_var = _parallel_probit_moments(cav_mean, cav_var, sign, nu2)
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

    return JointFit(
        X=X,
        params=params,
        locations=locations,
        converged=converged,
        sweeps=sweeps,
        sites=sites,
        mean_weights=weights,
        chol_B=chol_B,
        sqrt_S=sqrt_s,
        latent_mean=mean,
    )


def _probit_moments(cav_mean, cav_var, sign, nu):
    """Zeroth/first/second moments of N(u; cav) * Phi(sign * u / nu)."""
    denom = np.sqrt(nu * nu + cav_var)
    z = sign * cav_mean / denom
    log_phi = -0.5 * z * z - _LOG_SQRT_2PI
    ratio = np.exp(log_phi - log_ndtr(z))  # pdf/cdf, stable for very negative z
    new_mean = cav_mean + sign * cav_var * ratio / denom
    new_var = cav_var - cav_var * cav_var * ratio * (z + ratio) / (nu * nu + cav_var)
    return new_mean, max(new_var, 1e-14 * cav_var)


@dataclass
class _SiteSet:
    latent: np.ndarray  # latent index per site
    sign: np.ndarray  # +1 rewards positive derivative, -1 rewards negative
    nu: np.ndarray  # strictness scale per site
    tau: np.ndarray  # site precisions
    nu_nat: np.ndarray  # site natural means (precision * mean)

    @property
    def count(self) -> int:
        return len(self.latent)


def _posterior_from_sites(K, tau_lat, nu_lat):
    sqrt_s = np.sqrt(tau_lat)
    B = np.eye(K.shape[0]) + (sqrt_s[:, None] * K) * sqrt_s[None, :]
    L = cholesky(B, lower=True)
    V = solve_triangular(L, sqrt_s[:, None] * K, lower=True)
    sigma = K - V.T @ V
    mu = sigma @ nu_lat
    return mu, sigma, L, sqrt_s


def _build_sites(t: int, locations: np.ndarray, strictness: np.ndarray) -> _SiteSet:
    n_locations, d = locations.shape
    latents, signs, nus = [], [], []
    for j in range(n_locations):
        for g in range(d):
            idx = t + j * d + g
            latents.extend([idx, idx])
            signs.extend([+1.0, -1.0])
            nus.extend([10.0 ** strictness[2 * g + 1], 10.0 ** strictness[2 * g]])
    n = len(latents)
    return _SiteSet(
        latent=np.asarray(latents, dtype=int),
        sign=np.asarray(signs, dtype=float),
        nu=np.asarray(nus, dtype=float),
        tau=np.zeros(n),
        nu_nat=np.zeros(n),
    )


def sequential_ep_fit(
    X,
    y,
    params,
    strictness,
    locations,
    damping: float = 0.8,
    max_sweeps: int = 100,
    tol: float = 1e-4,
) -> "JointFit":
    """Run damped sequential EP over the probit derivative sites and freeze the posterior.

    Non-convergence within max_sweeps is not fatal: the last damped iterate is
    returned with converged=False.
    """
    X, y = as_observations(X, y, params.dim)
    strictness = np.asarray(strictness, dtype=float)
    locations = np.asarray(locations, dtype=float)
    if strictness.shape != (2 * params.dim,) or locations.shape[1] != params.dim:
        raise ValueError("kernel, strictness and location dimensions must agree")

    t = X.shape[0]
    n_latent = t + locations.size
    K = joint_prior(X, locations, params)

    obs_noise = params.noise_variance
    tau_fixed = np.zeros(n_latent)
    nu_fixed = np.zeros(n_latent)
    tau_fixed[:t] = 1.0 / obs_noise
    nu_fixed[:t] = y / obs_noise

    sites = _build_sites(t, locations, strictness)

    def totals():
        tau_lat = tau_fixed.copy()
        nu_lat = nu_fixed.copy()
        np.add.at(tau_lat, sites.latent, sites.tau)
        np.add.at(nu_lat, sites.latent, sites.nu_nat)
        return tau_lat, nu_lat

    mu, sigma, chol_B, sqrt_s = _posterior_from_sites(K, *totals())

    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_delta = 0.0
        for s in range(sites.count):
            i = sites.latent[s]
            var_i = sigma[i, i]
            if var_i <= 0:
                continue
            tau_cav = 1.0 / var_i - sites.tau[s]
            nu_cav = mu[i] / var_i - sites.nu_nat[s]
            if tau_cav <= 1e-12:
                continue
            cav_var = 1.0 / tau_cav
            cav_mean = nu_cav * cav_var
            if not np.isfinite(cav_mean):
                continue
            new_mean, new_var = _probit_moments(cav_mean, cav_var, sites.sign[s], sites.nu[s])
            if not np.isfinite(new_mean) or not new_var > 0:
                continue
            tau_target = 1.0 / new_var - tau_cav
            nu_target = new_mean / new_var - nu_cav
            if not np.isfinite(tau_target) or not np.isfinite(nu_target):
                continue
            if tau_target <= 0.0:
                # Probit factors are log-concave; a negative proposal is pure
                # round-off, so drop the site rather than keep a bad precision.
                tau_target, nu_target = 0.0, 0.0
            elif tau_target > _SITE_PRECISION_CAP:
                # Cap the pair together so the implied site mean is preserved.
                nu_target *= _SITE_PRECISION_CAP / tau_target
                tau_target = _SITE_PRECISION_CAP
            tau_new = (1.0 - damping) * sites.tau[s] + damping * tau_target
            nu_new = (1.0 - damping) * sites.nu_nat[s] + damping * nu_target
            d_tau = tau_new - sites.tau[s]
            d_nu = nu_new - sites.nu_nat[s]
            denom = 1.0 + d_tau * var_i
            if denom <= 1e-12:
                continue
            max_delta = max(
                max_delta,
                abs(d_tau) / (1.0 + abs(sites.tau[s])),
                abs(d_nu) / (1.0 + abs(sites.nu_nat[s])),
            )
            sites.tau[s] = tau_new
            sites.nu_nat[s] = nu_new
            col = sigma[:, i].copy()
            sigma -= (d_tau / denom) * np.outer(col, col)
            mu += ((d_nu - d_tau * mu[i]) / denom) * col
        # Refresh from scratch each sweep to shed accumulated rank-1 round-off.
        mu, sigma, chol_B, sqrt_s = _posterior_from_sites(K, *totals())
        if max_delta < tol:
            converged = True
            break

    tau_lat, nu_lat = totals()
    z = sqrt_s * solve_triangular(chol_B.T, solve_triangular(chol_B, sqrt_s * (K @ nu_lat), lower=True), lower=False)
    mean_weights = nu_lat - z

    return JointFit(
        X=X,
        params=params,
        locations=locations,
        converged=converged,
        sweeps=sweeps,
        sites=np.stack([sites.tau.reshape(-1, 2).T, sites.nu_nat.reshape(-1, 2).T]),
        mean_weights=mean_weights,
        chol_B=chol_B,
        sqrt_S=sqrt_s,
        latent_mean=mu,
    )
