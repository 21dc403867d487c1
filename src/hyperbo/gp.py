"""Exact Gaussian-process regression with an anisotropic squared-exponential kernel.

Inputs are (t, d) arrays in the unit hypercube (one coordinate per search
dimension; tasks check the range); outputs are arbitrary scalars, usually
z-scored with `standardize`.  Fitting factorizes the Gram matrix once via
Cholesky; fitted models are immutable and cheap to query.

The factorizations and solves call LAPACK directly (`_cholesky_lower`,
`_solve_lower`, `_cho_solve_lower`): on the few-dozen-row matrices of an EP
sweep the fixed cost of scipy.linalg's wrappers outweighs the arithmetic.
They make the same LAPACK calls as those wrappers, so results are bit for
bit the same, and keep their errors: ValueError on a non-finite matrix,
LinAlgError on one that is not positive definite or is singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# Imported as a module: `from scipy.linalg.lapack import ...` as the process's
# first import of scipy.linalg made each interpreter fault in ~5,000 more
# pages during `import hyperbo` (+50 ms).
from scipy.linalg import lapack

__all__ = [
    "KernelParams",
    "FittedGP",
    "SingularGramError",
    "se_kernel_matrix",
    "standardize",
    "as_observations",
    "gp_fit",
]

# Jitter escalation used when the Gram matrix fails to factorize.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4
_JITTER_GROWTH = 10.0


class SingularGramError(np.linalg.LinAlgError):
    """Gram matrix could not be factorized, even at the maximum jitter level."""


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a, as scipy.linalg.cholesky(a, lower=True) computes it."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    chol, info = lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return chol


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chol^-1 b for a lower Cholesky factor, as scipy.linalg.solve_triangular(chol, b, lower=True)."""
    x, info = lapack.dtrtrs(chol, b, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _cho_solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 b, as scipy.linalg.cho_solve((chol, True), b)."""
    return lapack.dpotrs(chol, b, lower=1)[0]


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters with one length scale per dimension."""

    signal_variance: float
    length_scales: tuple[float, ...]
    noise_variance: float = 0.0

    def __post_init__(self):
        if self.signal_variance <= 0:
            raise ValueError(f"signal_variance must be > 0, got {self.signal_variance}")
        if self.noise_variance < 0:
            raise ValueError(f"noise_variance must be >= 0, got {self.noise_variance}")
        scales = tuple(float(v) for v in self.length_scales)
        if len(scales) == 0 or any(v <= 0 for v in scales):
            raise ValueError(f"length_scales must be positive, got {scales}")
        object.__setattr__(self, "length_scales", scales)

    @property
    def dim(self) -> int:
        return len(self.length_scales)

    def scales_array(self) -> np.ndarray:
        return np.asarray(self.length_scales, dtype=float)


def se_kernel_matrix(X, Z, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix K[i, j] = k(X[i], Z[j]) under the SE kernel."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.shape[1] != params.dim or Z.shape[1] != params.dim:
        raise ValueError("input dimension does not match kernel dimension")
    ls = params.scales_array()
    diff = X[:, None, :] / ls - Z[None, :, :] / ls
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    return params.signal_variance * np.exp(-0.5 * sq)


@dataclass(frozen=True)
class FittedGP:
    """Immutable GP posterior: Cholesky factor of (K + noise*I) plus solved weights."""

    X: np.ndarray
    params: KernelParams
    chol: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    jitter: float = 0.0

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k_star = se_kernel_matrix(self.X, X, self.params)  # (t, m)
        means = k_star.T @ self.weights
        v = _solve_lower(self.chol, k_star)
        variances = self.params.signal_variance - np.einsum("ij,ij->j", v, v)
        variances = np.clip(variances, 0.0, self.params.signal_variance)
        return means, variances

    def predict_joint(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean vector and full covariance matrix over the rows of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k_star = se_kernel_matrix(self.X, X, self.params)
        means = k_star.T @ self.weights
        prior = se_kernel_matrix(X, X, self.params)
        v = _solve_lower(self.chol, k_star)
        cov = prior - v.T @ v
        return means, cov


def standardize(y) -> tuple[np.ndarray, float]:
    """Z-scores of y and the standard deviation they were divided by.

    Outputs whose spread is at most 1e-12 carry no signal: they map to zeros
    with scale 1.0.
    """
    y = np.asarray(y, dtype=float)
    scale = float(np.std(y))
    if scale <= 1e-12:
        return np.zeros_like(y), 1.0
    return (y - np.mean(y)) / scale, scale


def as_observations(X, y, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Copies of X as a (t, dim) matrix and y as a length-t vector, t >= 1."""
    X = np.array(X, dtype=float, ndmin=2)
    y = np.array(y, dtype=float).reshape(-1)
    if y.shape[0] < 1:
        raise ValueError("at least one observation is required")
    if X.shape != (y.shape[0], dim):
        raise ValueError(f"inputs of shape {X.shape} do not match {y.shape[0]} outputs in dimension {dim}")
    return X, y


def gp_fit(X, y, params: KernelParams) -> FittedGP:
    """Factorize the regularized Gram matrix and cache the weight vector.

    Jitter policy: on Cholesky failure, add jitter starting at 1e-10 *
    signal_variance to the diagonal and escalate tenfold up to 1e-4 *
    signal_variance before giving up.
    """
    X, y = as_observations(X, y, params.dim)
    gram = se_kernel_matrix(X, X, params)
    gram[np.diag_indices_from(gram)] += params.noise_variance

    jitter = 0.0
    while True:
        try:
            chol = _cholesky_lower(gram + jitter * np.eye(len(y)))
            break
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = _JITTER_START * params.signal_variance
            elif jitter < _JITTER_MAX * params.signal_variance:
                jitter = min(jitter * _JITTER_GROWTH, _JITTER_MAX * params.signal_variance)
            else:
                raise SingularGramError(f"Cholesky factorization failed at maximum jitter {jitter:g}") from None
    weights = _cho_solve_lower(chol, y)
    return FittedGP(X=X, params=params, chol=chol, weights=weights, jitter=jitter)
