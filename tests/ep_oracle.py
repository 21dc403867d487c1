"""Sequential-EP reference for the monotonic GP.

This is the per-site damped EP loop that hyperbo.monotonic used before it
moved to parallel EP: one probit site at a time, a rank-1 update of the full
posterior covariance after each site, a refresh from scratch after each
sweep, and convergence judged on the site parameters.  Tests compare the
parallel fit against it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import log_ndtr

from hyperbo.gp import as_observations
from hyperbo.monotonic import (
    _LOG_SQRT_2PI,
    _MIN_OBS_NOISE,
    _SITE_PRECISION_CAP,
    FittedMonotonicGP,
    VirtualDerivativeSet,
    _joint_prior,
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


def _build_sites(t: int, virtual: VirtualDerivativeSet, strictness: np.ndarray) -> _SiteSet:
    d = virtual.dim
    latents, signs, nus = [], [], []
    for j in range(virtual.n_locations):
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
    virtual: VirtualDerivativeSet,
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
    if strictness.shape != (2 * params.dim,) or virtual.dim != params.dim:
        raise ValueError("kernel, strictness and virtual-set dimensions must agree")

    t = X.shape[0]
    n_latent = t + virtual.n_derivatives
    K = _joint_prior(X, virtual, params)

    obs_noise = max(params.noise_variance, _MIN_OBS_NOISE)
    tau_fixed = np.zeros(n_latent)
    nu_fixed = np.zeros(n_latent)
    tau_fixed[:t] = 1.0 / obs_noise
    nu_fixed[:t] = y / obs_noise

    sites = _build_sites(t, virtual, strictness)

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
        y=y,
        params=params,
        virtual=virtual,
        converged=converged,
        sweeps=sweeps,
        _mean_weights=mean_weights,
        _chol_B=chol_B,
        _sqrt_S=sqrt_s,
        _latent_mean=mu,
    )
