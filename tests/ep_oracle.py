"""Reference fits for the monotonic GP.

`sequential_ep_fit` is the per-site damped EP loop that hyperbo.monotonic used
before it moved to parallel EP: one probit site at a time, a rank-1 update of
the full posterior covariance after each site, a refresh from scratch after
each sweep, and convergence judged on the site parameters.  Tests compare the
parallel fit against it.

`unstacked_parallel_ep_fit` is the parallel fit with the site precisions and
natural means in two arrays, each updated on its own, from the joint prior
computed whole (`joint_prior`): the fit's arithmetic before it stacked the
two and kept its kernel blocks in a workspace.  The fit must match it bit for bit.

`fit_rows` is the fit's call form on plain arrays: a fresh workspace holding
the rows of X.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import log_ndtr

from hyperbo.gp import as_observations, se_kernel_matrix
from hyperbo.monotonic import (
    _DAMPING,
    _LOG_SQRT_2PI,
    _MAX_SWEEPS,
    _MIN_OBS_NOISE,
    _SITE_PRECISION_CAP,
    _TOL,
    FittedMonotonicGP,
    MonotonicWorkspace,
    _posterior,
    _probit_moments as _parallel_probit_moments,
    fit_monotonic_gp,
    gradient_gram_matrix,
    value_gradient_cross_matrix,
)


def fit_rows(X, y, params, strictness, locations, pool=None, start=None) -> FittedMonotonicGP:
    """fit_monotonic_gp from a new workspace over pool (or none) that holds the rows of X."""
    workspace = MonotonicWorkspace(params, locations, pool)
    workspace.extend(X)
    return fit_monotonic_gp(workspace, y, strictness, start)


def joint_prior(X, Z, params):
    """The prior covariance of [f(X), derivatives at Z], computed whole."""
    K_ff = se_kernel_matrix(X, X, params)
    K_fd = value_gradient_cross_matrix(X, Z, params)
    K_dd = gradient_gram_matrix(Z, params)
    return np.block([[K_ff, K_fd], [K_fd.T, K_dd]])


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
) -> FittedMonotonicGP:
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

    obs_noise = max(params.noise_variance, _MIN_OBS_NOISE)
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

    return FittedMonotonicGP(
        X=X,
        params=params,
        locations=locations,
        converged=converged,
        sweeps=sweeps,
        sites=np.stack([sites.tau.reshape(-1, 2).T, sites.nu_nat.reshape(-1, 2).T]),
        _mean_weights=mean_weights,
        _chol_B=chol_B,
        _sqrt_S=sqrt_s,
        _latent_mean=mu,
        _workspace=MonotonicWorkspace(params, locations),
    )


def unstacked_parallel_ep_fit(X, y, params, strictness, locations) -> FittedMonotonicGP:
    """Damped parallel EP with separate precision and natural-mean site arrays."""
    X, y = as_observations(X, y, params.dim)
    strictness = np.asarray(strictness, dtype=float)
    locations = np.asarray(locations, dtype=float)
    t = X.shape[0]
    K = joint_prior(X, locations, params)
    prior_var = np.diag(K)
    prior_sd = np.sqrt(prior_var)

    obs_noise = max(params.noise_variance, _MIN_OBS_NOISE)
    tau_lat = np.zeros(K.shape[0])
    nat_lat = np.zeros(K.shape[0])
    tau_lat[:t] = 1.0 / obs_noise
    nat_lat[:t] = y / obs_noise

    sign = np.array([[1.0], [-1.0]])
    nu_pair = 10.0 ** strictness.reshape(-1, 2)[:, ::-1].T
    nu2 = np.tile(nu_pair * nu_pair, (1, locations.shape[0]))
    tau = np.zeros(nu2.shape)
    nat = np.zeros(nu2.shape)

    mean, var, chol_B, sqrt_s, weights = _posterior(K, prior_var, tau_lat, nat_lat)
    sd = np.sqrt(var)
    converged = False
    sweeps = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        sweeps = sweep
        mean_d, var_d = mean[t:], var[t:]
        with np.errstate(all="ignore"):
            tau_cav = 1.0 / var_d - tau
            nat_cav = mean_d / var_d - nat
            cav_var = 1.0 / tau_cav
            cav_mean = nat_cav * cav_var
            new_mean, new_var = _parallel_probit_moments(cav_mean, cav_var, sign, nu2)
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
        sites=np.stack([tau, nat]),
        _mean_weights=weights,
        _chol_B=chol_B,
        _sqrt_S=sqrt_s,
        _latent_mean=mean,
        _workspace=MonotonicWorkspace(params, locations),
    )
