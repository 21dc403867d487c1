"""GP regression with soft monotonicity constraints via virtual derivative observations.

The latents are the function values at the observed inputs and the partial
derivatives at a fixed set of virtual locations.  Each virtual derivative
carries two probit factors, one per direction: Phi(+df / nu_plus) rewards
positive slope, Phi(-df / nu_minus) rewards negative slope, and the
strictness nu = 10^theta interpolates between a near-hard sign constraint
(theta = -6) and a weak preference (theta = 0).  The observations are fixed
Gaussian sites, so a fit conditions the derivative latents on them once and
approximates the rest of the posterior by damped parallel expectation
propagation over the derivative latents alone: every sweep updates all
probit sites at once from the current posterior marginals and then refreshes
the posterior with one Cholesky factorization.

A `MonotonicWorkspace` holds the derivative latents' kernel blocks beside the
run's one plain GP posterior over the candidate pool, and every fit is made
from one: in a monotonicity run the locations, the candidate pool and the
kernel are fixed and only the strictness changes, so each observed row
extends the pool posterior, adds one row of K_fd and takes one rank-one term
from the pool's cross block C, and nothing is recomputed.  A fit is its
probit sites over that posterior: it predicts a candidate set over the pool
array as the pool posterior's prediction plus the sites' correction, while
the posterior holds the fit's rows and outputs.

A fit may start from the probit sites of an earlier fit on the same workspace
instead of from zero sites.  The engine passes them when a step keeps the
previous monotonic step's strictness, so the fit begins one observed row away
from its fixed point and converges in fewer sweeps.

A fit does no work whose result it already knows.  A sweep keeps a site
pair's update where the cavity precision exceeds 1e-12 and the target is
finite: the marginal variances are never negative, and with that these two
checks imply the others.  A prediction of f at a set of points takes the
observations' part once per set (`_observed`) and the sites' part once per
state of the sites (`_site_corrected`), so a fit takes f(X)'s observed part
once, before its sweeps.  The pool's observed part is the pool posterior's
own V and column sums beside the workspace's kept C, so a fit predicts the
whole pool from them and gathers only the two result vectors at the active
rows.

log_ndtr's compiled module is loaded by the first EP sweep, without the
scipy.special package (see gp.py): a length-scale run never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from hyperbo.gp import KernelParams, PoolPosterior, _cho_solve_lower, _cholesky_lower, _solve_lower, se_kernel_matrix
from hyperbo.gp import _scipy_compiled_module, _solve_lower_in_place

__all__ = [
    "FittedMonotonicGP",
    "MonotonicWorkspace",
    "value_gradient_cross_matrix",
    "gradient_gram_matrix",
    "fit_monotonic_gp",
]

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SITE_PRECISION_CAP = 1e8
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


@cache
def _log_ndtr():
    """scipy.special.log_ndtr from scipy's compiled ufunc module, loaded by the first call: only EP needs it."""
    return _scipy_compiled_module("special", "_special_ufuncs").log_ndtr


def _probit_moments(cav_mean, cav_var, sign, nu2):
    """Matched means and variances of N(u; cav) * Phi(sign * u / nu), elementwise; nu2 is nu * nu."""
    total_var = nu2 + cav_var
    denom = np.sqrt(total_var)
    z = sign * cav_mean / denom
    log_phi = -0.5 * z * z - _LOG_SQRT_2PI
    ratio = np.exp(log_phi - _log_ndtr()(z))  # pdf/cdf, stable for very negative z
    new_mean = cav_mean + sign * cav_var * ratio / denom
    new_var = cav_var - cav_var * cav_var * ratio * (z + ratio) / total_var
    return new_mean, np.maximum(new_var, 1e-14 * cav_var)


class MonotonicWorkspace:
    """The derivative latents' kernel blocks beside a run's pool posterior.

    posterior is the kernel's plain GP posterior over the candidate pool (a
    gp.PoolPosterior), which holds the observed rows and the factor L of their
    Gram matrix plus noise; the run grows it, and a fit made from the
    workspace answers until it gains a row or other outputs.  The workspace
    adds the derivative-derivative block K_dd and the pool's derivative
    cross-covariances K_pd at the virtual locations (rows of d coordinates),
    computed once, the derivative latents' prior standard deviations
    prior_sd, and the observed rows' cross-covariances K_fd.  It keeps the
    pool's cross block C = K_pd - W^T V (W = L^-1 K_fd, V the posterior's
    L^-1 K(X, pool)) for `pool_cross`, which takes the rows observed since its
    last call and computes C whole again after the posterior refactors.
    """

    def __init__(self, posterior: PoolPosterior, locations):
        self.posterior = posterior
        self.locations = np.asarray(locations, dtype=float)
        params = posterior.params
        if self.locations.ndim != 2 or self.locations.shape[1] != params.dim:
            raise ValueError("kernel and location dimensions must agree")
        self.K_dd = gradient_gram_matrix(self.locations, params)
        self.prior_sd = np.sqrt(np.diag(self.K_dd))
        # (m, N), C order, so C and S^1/2 C are too and `_solve_lower_in_place` copies neither.
        self.K_pd = np.ascontiguousarray(value_gradient_cross_matrix(posterior.pool, self.locations, params).T)
        self._K_fd = np.empty((0, len(self.K_dd)))
        # C and the posterior's factorization count and observed rows that it covers.
        self._C, self._C_at = self.K_pd, (posterior.factorizations, 0)

    @property
    def K_fd(self) -> np.ndarray:
        """K_fd at every row of the posterior; the rows it gained since the last read take one kernel call."""
        seen = len(self._K_fd)
        if seen < self.posterior.n:
            rows = value_gradient_cross_matrix(self.posterior.X[seen:], self.locations, self.posterior.params)
            self._K_fd = np.vstack((self._K_fd, rows))
        return self._K_fd

    def pool_cross(self, W: np.ndarray) -> np.ndarray:
        """C = K_pd - W^T V over the whole pool, for a fit's W = L^-1 K_fd at every observed row.

        The kept C takes W[seen:]^T V[seen:] for the rows observed since the
        last call; a refactored posterior has rebuilt every row of V (and of
        W), so C starts again from K_pd.  A new array at each change.
        """
        factorizations, seen = self._C_at
        if factorizations != self.posterior.factorizations:
            self._C, seen = self.K_pd, 0
        if seen < len(W):
            self._C = self._C - W[seen:].T @ self.posterior.factors()[2][seen:]
        self._C_at = (self.posterior.factorizations, len(W))
        return self._C


def _observed(v, explained, K_dx, alpha, W, sv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The observations' part of f's means and variances at points with V columns v, their squared sums and K_dx.

    The pool posterior's mean alpha^T v and variance sv - explained, and the
    derivative latents' cross-covariances C = k_d(x) - W^T v (K_dx holds
    k_d(x), one column per point).  None of them depends on the sites.
    """
    return alpha @ v, sv - explained, K_dx - W.T @ v


def _site_corrected(observed, sv, chol_B, sqrt_s, weights, solve=_solve_lower) -> tuple[np.ndarray, np.ndarray]:
    """f's means and variances at the points of an `_observed` part, under sites with factor chol_B, S^1/2 and w.

    The sites add c^T w to the mean and take |L_B^-1 S^1/2 c|^2 from the
    variance (GPML Alg. 3.5 and 3.6 on the conditioned derivative prior),
    with L_B^-1 from solve: the whole pool's prediction solves in place.
    """
    mean, var, C = observed
    u = solve(chol_B, sqrt_s[:, None] * C)
    # einsum, not (u * u).sum(0): the two round differently.
    return mean + weights @ C, np.clip(var - np.einsum("ij,ij->j", u, u), 0.0, sv)


@dataclass(frozen=True)
class FittedMonotonicGP:
    """Gaussian EP approximation to the monotonicity-constrained posterior: probit sites over a pool posterior.

    It answers while the workspace's pool posterior holds the rows and
    outputs of the fit, whose L^-1 y array it keeps, and raises ValueError
    once the posterior has gained a row or been given other outputs.
    W = L^-1 K_fd; S and w are the derivative sites' precisions and the EP
    weights; C is the workspace's pool cross block at the fit.
    """

    converged: bool
    sweeps: int
    sites: np.ndarray = field(repr=False)  # the final probit sites, a start for fit_monotonic_gp
    derivative_means: np.ndarray = field(repr=False)  # posterior means of the derivative latents (location-major)
    _alpha: np.ndarray = field(repr=False)  # the pool posterior's L^-1 y at the fit
    _W: np.ndarray = field(repr=False)
    _weights: np.ndarray = field(repr=False)
    _chol_B: np.ndarray = field(repr=False)
    _sqrt_S: np.ndarray = field(repr=False)
    _C: np.ndarray = field(repr=False)
    _workspace: MonotonicWorkspace = field(repr=False)

    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        factors = self._workspace.posterior.factors()
        if factors[1] is not self._alpha:
            raise ValueError("the pool posterior's rows or outputs have changed since this fit")
        return factors

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        chol = self._factors()[0]
        posterior, X = self._workspace.posterior, np.atleast_2d(np.asarray(X, dtype=float))
        sv = posterior.params.signal_variance
        v = _solve_lower(chol, se_kernel_matrix(posterior.X, X, posterior.params))
        K_dx = value_gradient_cross_matrix(X, self._workspace.locations, posterior.params).T
        observed = _observed(v, np.einsum("ij,ij->j", v, v), K_dx, self._alpha, self._W, sv)
        return _site_corrected(observed, sv, self._chol_B, self._sqrt_S, self._weights)

    def predict_candidates(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """predict_batch at the active rows of a CandidateSet over the pool: the whole pool's, from V and C, gathered."""
        _, _, V, col_sums = self._factors()
        if candidates.points is not self._workspace.posterior.pool:
            raise ValueError("the candidates are not the workspace's pool")
        sv = self._workspace.posterior.params.signal_variance
        observed = (self._alpha @ V, sv - col_sums, self._C)
        means, variances = _site_corrected(observed, sv, self._chol_B, self._sqrt_S, self._weights, _solve_lower_in_place)
        active = candidates.active_indices
        return means[active], variances[active]


def _posterior(K, prior_var, prior_mean, tau_lat, nat_lat):
    """Gaussian posterior of latents with prior N(prior_mean, K) under site precisions and natural means.

    prior_var is the diagonal of K.  Returns the marginal means and variances,
    the Cholesky factor of B = I + S^1/2 K S^1/2, S^1/2 and the weights
    w = (K + S^-1)^-1 (S^-1 nat - prior_mean), with mean = prior_mean + K w
    (GPML Alg. 3.5); the full posterior covariance is never formed.  w is
    formed as S^1/2 B^-1 S^1/2 (S^-1 nat - prior_mean), not as GPML's
    nat' - S^1/2 B^-1 S^1/2 K nat' with nat' = nat - S prior_mean: at site
    precisions near the 1e8 cap that difference cancels terms thousands of
    times larger than w.  A latent without a site (precision 0, natural
    mean 0) takes a residual of 0.
    """
    sqrt_s = np.sqrt(tau_lat)
    SK = sqrt_s[:, None] * K
    B = SK * sqrt_s[None, :]
    # B is new and contiguous, so ravel("K") views its buffer and every (n + 1)-th entry is on its diagonal.
    B.ravel(order="K")[:: K.shape[0] + 1] += 1.0
    chol_B = _cholesky_lower(B)
    V = _solve_lower(chol_B, SK)
    # einsum, not (V * V).sum(0): the two round differently.
    variances = np.maximum(prior_var - np.einsum("ij,ij->j", V, V), 0.0)
    residual = np.divide(nat_lat, sqrt_s, out=np.zeros(len(nat_lat)), where=sqrt_s > 0.0) - sqrt_s * prior_mean
    weights = sqrt_s * _cho_solve_lower(chol_B, residual)
    return prior_mean + K @ weights, variances, chol_B, sqrt_s, weights


def fit_monotonic_gp(workspace: MonotonicWorkspace, y, strictness, start=None) -> FittedMonotonicGP:
    """Fit the probit derivative sites by damped parallel EP and freeze the posterior.

    workspace holds the virtual derivative locations and their prior kernel
    blocks beside the pool posterior, which holds the observed rows and the
    kernel params; y holds one output per observed row, and the posterior is
    given them (`set_outputs`).  strictness holds the 2d exponents
    [theta_1_minus, theta_1_plus, ...]; the probit scale of each direction
    is nu = 10^theta.

    The observation sites are fixed Gaussians (the kernel's noise), so the
    latents are conditioned on the outputs once: with L the pool posterior's
    factor and W = L^-1 K_fd, the derivative latents' prior given y is
    N(mu_c, K_c), K_c = K_dd - W^T W and mu_c = W^T L^-1 y.  EP runs on K_c
    alone, with the site natural means shifted by -tau * mu_c (the sites act
    on the latents' offsets from mu_c).  Each sweep takes every site's
    cavity from the current marginals, matches moments for all sites at
    once, applies the damped site updates and refreshes the posterior with
    one Cholesky.  The fit has converged when, in one sweep, no latent's
    posterior mean or standard deviation moves by more than _TOL times its
    prior standard deviation.  That covers f(X) as well as the derivative
    latents: only the derivative sites move, but at d = 1 f(X) can still
    move by more than that in a sweep in which no derivative latent does.
    The marginals of f(X) are the fit's own predictions at X: the
    observations' part (`_observed`) once per fit, and the sites' part
    (`_site_corrected`) for the two states that a sweep the derivative
    latents pass compares.
    Non-convergence within _MAX_SWEEPS is not fatal: the last damped iterate
    is returned with converged=False.

    start None begins from zero sites, whose posterior is the conditioned
    prior itself.  Otherwise it is the `sites` array of an earlier fit on
    this workspace (the derivative latents do not change as rows are
    observed), and the first posterior is formed from a copy of it: refitting
    a fit's own rows and outputs from its sites starts at that fit's final
    posterior.  Sites of another strictness are a poor start: they cost
    sweeps rather than save them.
    """
    posterior, locations = workspace.posterior, workspace.locations
    params = posterior.params
    strictness = np.asarray(strictness, dtype=float)
    if strictness.shape != (2 * params.dim,):
        raise ValueError("kernel and strictness dimensions must agree")
    posterior.set_outputs(y)

    chol, alpha, _, _ = posterior.factors()
    K_fd = workspace.K_fd
    W = _solve_lower(chol, K_fd)
    K = workspace.K_dd - W.T @ W
    mean_c = alpha @ W
    prior_var, prior_sd = np.diag(K), workspace.prior_sd
    sv = params.signal_variance
    V_X = _solve_lower(chol, se_kernel_matrix(posterior.X, posterior.X, params))
    at_X = _observed(V_X, np.einsum("ij,ij->j", V_X, V_X), K_fd.T, alpha, W, sv)  # f(X)'s observed part

    # One (+, -) pair of probit sites per derivative latent j*d + g: row 0
    # rewards a positive slope in dimension g, row 1 a negative one.  sites[0]
    # holds the pairs' precisions and sites[1] their natural means (precision *
    # mean), so each step of the update below runs once on both.
    sign = np.array([[1.0], [-1.0]])
    nu_pair = 10.0 ** strictness.reshape(-1, 2)[:, ::-1].T  # (2, d): nu_plus, nu_minus
    nu2 = np.tile(nu_pair * nu_pair, (1, locations.shape[0]))
    sites = np.zeros((2,) + nu2.shape) if start is None else np.array(start, dtype=float)
    if sites.shape != (2,) + nu2.shape:
        raise ValueError(f"start sites of shape {sites.shape}; this workspace's fits have {(2,) + nu2.shape}")
    # Row 0 of these numerators stays 1, so one division gives the natural
    # parameters [1 / v, m / v] of means m and variances v.
    marginal_num = np.ones((2, nu2.shape[1]))
    matched_num = np.ones(sites.shape)
    lat = np.empty(marginal_num.shape)  # per latent: total site precision, total natural mean

    def refresh():
        np.add(sites[:, 0], sites[:, 1], out=lat)
        mean, var, chol_B, sqrt_s, weights = _posterior(K, prior_var, mean_c, lat[0], lat[1])
        return mean, var, np.sqrt(var), chol_B, sqrt_s, weights

    mean, var, sd, chol_B, sqrt_s, weights = refresh()
    converged = False
    sweeps = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        sweeps = sweep
        marginal_num[1] = mean
        with np.errstate(all="ignore"):  # invalid entries are masked out below
            cavity = (marginal_num / var)[:, None, :] - sites
            cav_var = 1.0 / cavity[0]
            cav_mean = cavity[1] * cav_var
            new_mean, new_var = _probit_moments(cav_mean, cav_var, sign, nu2)
            matched_num[1] = new_mean
            target = matched_num / new_var - cavity
            # Two checks suffice because var >= 0 (np.maximum in `_posterior`):
            # at var == 0, mean / var is not finite and neither is target[1];
            # a non-finite cavity or matched mean leaves target non-finite;
            # and new_var >= 1e-14 cav_var >= 0, with 1 / new_var infinite at
            # 0.  At var < 0 they would keep pairs that var > 0 drops.
            valid = (cavity[0] > 1e-12) & np.isfinite(target).all(axis=0)
            # Probit factors are log-concave, so a non-positive proposal is pure
            # round-off: drop the site rather than keep a bad precision.  Above
            # the cap, shrink the pair together so the implied site mean is kept.
            shrink = np.where(target[0] > 0.0, np.minimum(1.0, _SITE_PRECISION_CAP / target[0]), 0.0)
        np.copyto(sites, (1.0 - _DAMPING) * sites + (_DAMPING * shrink) * target, where=valid)

        old_mean, old_sd, old_state = mean, sd, (chol_B, sqrt_s, weights)
        mean, var, sd, chol_B, sqrt_s, weights = refresh()
        moved = np.maximum(np.abs(mean - old_mean), np.abs(sd - old_sd))
        if (moved / prior_sd).max() <= _TOL:
            old_f = _site_corrected(at_X, sv, *old_state)
            new_f = _site_corrected(at_X, sv, chol_B, sqrt_s, weights)
            f_moved = np.maximum(np.abs(new_f[0] - old_f[0]), np.abs(np.sqrt(new_f[1]) - np.sqrt(old_f[1])))
            if (f_moved / np.sqrt(sv)).max() <= _TOL:
                converged = True
                break

    return FittedMonotonicGP(
        converged=converged,
        sweeps=sweeps,
        sites=sites,
        derivative_means=mean,
        _alpha=alpha,
        _W=W,
        _weights=weights,
        _chol_B=chol_B,
        _sqrt_S=sqrt_s,
        _C=workspace.pool_cross(W),
        _workspace=workspace,
    )
