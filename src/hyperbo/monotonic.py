"""GP regression with soft monotonicity constraints via virtual derivative observations.

The latent vector stacks the function values at the observed inputs with the
partial derivatives at a fixed set of virtual locations.  Each virtual
derivative carries two probit factors, one per direction: Phi(+df / nu_plus)
rewards positive slope, Phi(-df / nu_minus) rewards negative slope, and the
strictness nu = 10^theta interpolates between a near-hard sign constraint
(theta = -6) and a weak preference (theta = 0).  The non-Gaussian posterior is
approximated with expectation propagation using damped site updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import log_ndtr

from hyperbo.gp import KernelParams, PosteriorPrediction, as_observations, se_kernel_matrix

__all__ = [
    "StrictnessVector",
    "VirtualDerivativeSet",
    "FittedMonotonicGP",
    "value_gradient_cross_matrix",
    "gradient_gram_matrix",
    "fit_monotonic_gp",
]

THETA_MIN = -6.0
THETA_MAX = 0.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SITE_PRECISION_CAP = 1e8
_MIN_OBS_NOISE = 1e-8


@dataclass(frozen=True)
class StrictnessVector:
    """Per-dimension, per-direction monotonicity strictness exponents.

    Layout is [theta_1_minus, theta_1_plus, theta_2_minus, theta_2_plus, ...]
    with every component in [-6, 0]; the strictness itself is nu = 10^theta.
    A dimension may not be strictly constrained (-6) in both directions at once.
    """

    theta: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.theta)
        if len(values) == 0 or len(values) % 2 != 0:
            raise ValueError(f"theta must have 2 entries per dimension, got {len(values)}")
        if any(v < THETA_MIN - 1e-9 or v > THETA_MAX + 1e-9 for v in values):
            raise ValueError(f"theta components must lie in [{THETA_MIN}, {THETA_MAX}], got {values}")
        for g in range(len(values) // 2):
            if values[2 * g] <= THETA_MIN + 1e-12 and values[2 * g + 1] <= THETA_MIN + 1e-12:
                raise ValueError(
                    f"dimension {g} cannot be strictly monotone in both directions (both theta = -6)"
                )
        object.__setattr__(self, "theta", values)

    @property
    def dim(self) -> int:
        return len(self.theta) // 2

    def theta_minus(self, g: int) -> float:
        return self.theta[2 * g]

    def theta_plus(self, g: int) -> float:
        return self.theta[2 * g + 1]

    def nu_minus(self, g: int) -> float:
        return 10.0 ** self.theta_minus(g)

    def nu_plus(self, g: int) -> float:
        return 10.0 ** self.theta_plus(g)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)


@dataclass(frozen=True)
class VirtualDerivativeSet:
    """Fixed derivative-observation locations: exactly 5 per input dimension."""

    locations: np.ndarray

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=float))
        n, d = locs.shape
        if n != 5 * d:
            raise ValueError(f"expected 5*d = {5 * d} virtual locations for d = {d}, got {n}")
        if np.any(locs < -1e-12) or np.any(locs > 1 + 1e-12):
            raise ValueError("virtual locations must lie inside the unit hypercube")
        object.__setattr__(self, "locations", np.clip(locs, 0.0, 1.0))

    @classmethod
    def sample(cls, dim: int, rng: np.random.Generator) -> "VirtualDerivativeSet":
        return cls(rng.uniform(0.0, 1.0, size=(5 * dim, dim)))

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    @property
    def n_locations(self) -> int:
        return self.locations.shape[0]

    @property
    def n_derivatives(self) -> int:
        return self.n_locations * self.dim


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


@dataclass(frozen=True)
class FittedMonotonicGP:
    """Gaussian EP approximation to the monotonicity-constrained posterior."""

    X: np.ndarray
    y: np.ndarray
    params: KernelParams
    strictness: StrictnessVector
    virtual: VirtualDerivativeSet
    converged: bool
    sweeps: int
    _mean_weights: np.ndarray = field(repr=False)
    _chol_B: np.ndarray = field(repr=False)
    _sqrt_S: np.ndarray = field(repr=False)
    _latent_mean: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return self.X.shape[0]

    @property
    def derivative_means(self) -> np.ndarray:
        """Posterior means of the virtual derivative latents (location-major)."""
        return self._latent_mean[self.X.shape[0]:]

    def _cross_covariances(self, X_star: np.ndarray) -> np.ndarray:
        k_obs = se_kernel_matrix(self.X, X_star, self.params)  # (t, m)
        k_grad = value_gradient_cross_matrix(X_star, self.virtual.locations, self.params).T
        return np.vstack([k_obs, k_grad])  # (n_latent, m)

    def predict(self, x) -> PosteriorPrediction:
        means, variances = self.predict_batch(np.atleast_2d(np.asarray(x, dtype=float)))
        return PosteriorPrediction(mean=float(means[0]), variance=float(variances[0]))

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k_star = self._cross_covariances(X)
        means = k_star.T @ self._mean_weights
        v = solve_triangular(self._chol_B, self._sqrt_S[:, None] * k_star, lower=True)
        variances = self.params.signal_variance - np.einsum("ij,ij->j", v, v)
        variances = np.clip(variances, 0.0, self.params.signal_variance)
        return means, variances


def _joint_prior(X, virtual: VirtualDerivativeSet, params: KernelParams) -> np.ndarray:
    Z = virtual.locations
    K_ff = se_kernel_matrix(X, X, params)
    K_fd = value_gradient_cross_matrix(X, Z, params)
    K_dd = gradient_gram_matrix(Z, params)
    return np.block([[K_ff, K_fd], [K_fd.T, K_dd]])


def _posterior_from_sites(K, tau_lat, nu_lat):
    sqrt_s = np.sqrt(tau_lat)
    B = np.eye(K.shape[0]) + (sqrt_s[:, None] * K) * sqrt_s[None, :]
    L = cholesky(B, lower=True)
    V = solve_triangular(L, sqrt_s[:, None] * K, lower=True)
    sigma = K - V.T @ V
    mu = sigma @ nu_lat
    return mu, sigma, L, sqrt_s


def _build_sites(t: int, virtual: VirtualDerivativeSet, strictness: StrictnessVector) -> _SiteSet:
    d = virtual.dim
    latents, signs, nus = [], [], []
    for j in range(virtual.n_locations):
        for g in range(d):
            idx = t + j * d + g
            latents.extend([idx, idx])
            signs.extend([+1.0, -1.0])
            nus.extend([strictness.nu_plus(g), strictness.nu_minus(g)])
    n = len(latents)
    return _SiteSet(
        latent=np.asarray(latents, dtype=int),
        sign=np.asarray(signs, dtype=float),
        nu=np.asarray(nus, dtype=float),
        tau=np.zeros(n),
        nu_nat=np.zeros(n),
    )


def fit_monotonic_gp(
    X,
    y,
    params: KernelParams,
    strictness: StrictnessVector,
    virtual: VirtualDerivativeSet,
    damping: float = 0.8,
    max_sweeps: int = 100,
    tol: float = 1e-4,
) -> FittedMonotonicGP:
    """Run damped EP over the probit derivative sites and freeze the posterior.

    Non-convergence within max_sweeps is not fatal: the last damped iterate is
    returned with converged=False.
    """
    X, y = as_observations(X, y, params.dim)
    if strictness.dim != params.dim or virtual.dim != params.dim:
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
    V = solve_triangular(chol_B, sqrt_s[:, None] * K, lower=True)
    z = sqrt_s * solve_triangular(chol_B.T, solve_triangular(chol_B, sqrt_s * (K @ nu_lat), lower=True), lower=False)
    mean_weights = nu_lat - z

    return FittedMonotonicGP(
        X=X,
        y=y,
        params=params,
        strictness=strictness,
        virtual=virtual,
        converged=converged,
        sweeps=sweeps,
        _mean_weights=mean_weights,
        _chol_B=chol_B,
        _sqrt_S=sqrt_s,
        _latent_mean=mu,
    )
