"""Exact Gaussian-process regression with an anisotropic squared-exponential kernel.

Inputs are (t, d) arrays in the unit hypercube (one coordinate per search
dimension; tasks check the range); outputs are arbitrary scalars, usually
z-scored with `standardize`.  Fitting factorizes the Gram matrix once via
Cholesky; fitted models are immutable and cheap to query.  A `PoolPosterior`
instead keeps one kernel's posterior over a fixed candidate pool, grows it by
observed rows, and answers only for candidate sets over that very pool array.

The factorizations and solves of gp.py, monotonic.py and engine.py call
LAPACK directly (`_cholesky_lower`, `_solve_lower`, `_cho_solve_lower`): on
the few-dozen-row matrices of an EP sweep the fixed cost of scipy.linalg's
wrappers outweighs the arithmetic.  They make the same LAPACK calls as those
wrappers, so results are bit for bit the same, and keep their errors:
ValueError on a non-finite matrix, LinAlgError on one that is not positive
definite or is singular.  Only the whole-pool solves call BLAS (`dtrsm`,
through `_solve_lower_in_place`) instead, each on a factor that
`_cholesky_lower` has made: the pool posterior's V and the monotonic fit's
sites' part L_B^-1 S^1/2 C.

`lapack` and `blas` are scipy's compiled f2py modules scipy.linalg._flapack
and scipy.linalg._fblas themselves, and monotonic.py's log_ndtr is the ufunc
of scipy.special._special_ufuncs, each loaded by `_scipy_compiled_module`
without running its scipy package's import.  Importing scipy.linalg (0.25 s
and 21 MB on a 2-CPU x86-64 host, most of it scipy's array-API layer) was
most of a run's set-up for four wrappers; scipy.special (0.2 s and 21 MB)
cost each EP process as much for one ufunc.  The modules are registered in
sys.modules under their scipy names, so a later scipy import shares them; a
module whose execution fails is unregistered.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy

__all__ = [
    "KernelParams",
    "FittedGP",
    "PoolPosterior",
    "SingularGramError",
    "se_kernel_matrix",
    "standardize",
    "as_observations",
    "gp_fit",
]


def _scipy_compiled_module(package: str, name: str):
    """scipy.<package>'s compiled module `name`, loaded without running the scipy.<package> package import."""
    full_name = f"scipy.{package}.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    directory = os.path.join(os.path.dirname(scipy.__file__), package)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(full_name, path)
            spec = importlib.util.spec_from_file_location(full_name, path, loader=loader)
            module = sys.modules[full_name] = importlib.util.module_from_spec(spec)
            try:
                loader.exec_module(module)
            except BaseException:
                sys.modules.pop(full_name, None)
                raise
            return module
    raise ImportError(f"scipy's compiled module {full_name} is missing: no {os.path.join(directory, name)}.* file")


lapack = _scipy_compiled_module("linalg", "_flapack")
blas = _scipy_compiled_module("linalg", "_fblas")

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


def _solve_lower_in_place(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chol^-1 b for a lower Cholesky factor, written over a C-ordered b: BLAS solves b^T chol^-T.

    The transpose of a row-major b is the column-major array BLAS takes, so
    nothing is copied (a left-side solve copies b: twice as long on 500 columns).
    """
    return blas.dtrsm(1.0, chol, b.T, side=1, lower=1, trans_a=1, overwrite_b=1).T


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


@cache
def _einsum_lanes(dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The order in which np.einsum("ijk,ijk->ij") adds its dim terms, as two lanes.

    On an x86-64 numpy build with a 2-lane double-vector baseline (X86_V2), the
    einsum inner loop keeps one running sum for the even k and one for the odd
    k, each added in index order, except that while 8 or more terms remain it
    takes a block of 8 as the pairs (6, 7), (4, 5), (2, 3), (0, 1); its result
    is the even sum plus the odd sum.
    """
    head = dim - dim % 8
    blocks = [b + i for b in range(0, head, 8) for i in (6, 4, 2, 0)]
    even = tuple(blocks) + tuple(range(head, dim, 2))
    odd = tuple(k + 1 for k in blocks) + tuple(range(head + 1, dim, 2))
    return even, odd


def _squared_distance_sum(Xs: np.ndarray, Zs: np.ndarray, dims) -> np.ndarray:
    """Sum over k in dims, in that order, of the (t, m) planes (Xs[k, i] - Zs[k, j]) ** 2."""
    total = None
    for k in dims:
        plane = Xs[k, :, None] - Zs[k]
        plane *= plane
        total = plane if total is None else np.add(total, plane, out=total)
    return total


def _scaled_se(Xs: np.ndarray, Zs: np.ndarray, signal_variance: float) -> np.ndarray:
    """The (t, m) SE kernel between the columns of Xs (d, t) and Zs (d, m), inputs already divided by the length scales.

    The squared scaled distances are summed one (t, m) plane per dimension, in
    the order `_einsum_lanes` gives, so K is bit for bit the einsum of the
    (t, m, d) scaled differences with themselves, without that array.  Each
    entry depends only on its own two columns, so a block of K equals K of
    the block's columns.
    """
    even, odd = _einsum_lanes(len(Xs))
    sq = _squared_distance_sum(Xs, Zs, even)
    if odd:
        sq += _squared_distance_sum(Xs, Zs, odd)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= signal_variance
    return sq


def se_kernel_matrix(X, Z, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix K[i, j] = k(X[i], Z[j]) under the SE kernel, through `_scaled_se`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.shape[1] != params.dim or Z.shape[1] != params.dim:
        raise ValueError("input dimension does not match kernel dimension")
    ls = params.scales_array()
    return _scaled_se((X / ls).T, (Z / ls).T, params.signal_variance)


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
    # The sums and divisions of np.mean and np.std, without their per-call overhead.
    dev = y - y.sum() / y.size
    scale = float(np.sqrt((dev * dev).sum() / y.size))
    if scale <= 1e-12:
        return np.zeros_like(y), 1.0
    dev /= scale
    return dev, scale


def as_observations(X, y, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Copies of X as a (t, dim) matrix and y as a length-t vector, t >= 1."""
    X = np.array(X, dtype=float, ndmin=2)
    y = np.array(y, dtype=float).reshape(-1)
    if y.shape[0] < 1:
        raise ValueError("at least one observation is required")
    if X.shape != (y.shape[0], dim):
        raise ValueError(f"inputs of shape {X.shape} do not match {y.shape[0]} outputs in dimension {dim}")
    return X, y


def _factor_gram(gram: np.ndarray, params: KernelParams) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a Gram matrix K(X, X) plus (noise + jitter) I, and the jitter it took.

    gram takes the noise in place.  Jitter policy: on Cholesky failure, add
    jitter starting at 1e-10 * signal_variance to the diagonal and escalate
    tenfold up to 1e-4 * signal_variance before giving up.
    """
    t = len(gram)
    gram.flat[:: t + 1] += params.noise_variance

    jitter = 0.0
    while True:
        try:
            return _cholesky_lower(gram if jitter == 0.0 else gram + jitter * np.eye(t)), jitter
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = _JITTER_START * params.signal_variance
            elif jitter < _JITTER_MAX * params.signal_variance:
                jitter = min(jitter * _JITTER_GROWTH, _JITTER_MAX * params.signal_variance)
            else:
                raise SingularGramError(f"Cholesky factorization failed at maximum jitter {jitter:g}") from None


def gp_fit(X, y, params: KernelParams) -> FittedGP:
    """Factorize the regularized Gram matrix (under `_factor_gram`'s jitter policy) and cache the weight vector."""
    X, y = as_observations(X, y, params.dim)
    chol, jitter = _factor_gram(se_kernel_matrix(X, X, params), params)
    weights = _cho_solve_lower(chol, y)
    return FittedGP(X=X, params=params, chol=chol, weights=weights, jitter=jitter)


class PoolPosterior:
    """Exact GP posterior of one fixed kernel at every row of a fixed pool, grown one observation at a time.

    It holds the lower Cholesky factor L of the observed rows' Gram matrix plus
    (noise + jitter) I, V = L^-1 K(X, pool) and the column sums s of V squared
    (Rasmussen & Williams, GPML Alg. 2.1).  `extend` adds a row in O(t N): one
    kernel row against the pool and a rank-one update, where a refit rebuilds
    the (t, N) kernel and solves it whole.  The jitter of the first
    factorization is added to every later pivot, so L stays the factor of one
    regularized Gram matrix; a pivot that is not safely positive refactors
    from scratch.  `factorizations` counts the factorizations from scratch,
    each of which rebuilds every row of V.  Means answer for the outputs last
    given to `set_outputs`, at the active rows of a CandidateSet whose points
    are the pool array itself.
    The pool and each observed row are divided by the length scales once, and
    every kernel block goes through `_scaled_se`, so it is bit for bit
    se_kernel_matrix's.  The observed rows, V's rows and the scaled points
    live in buffers with spare room, so `extend` writes each row once and
    copies none; zero rows return at once.
    """

    def __init__(self, X, pool, params: KernelParams):
        self.params = params
        self.pool = np.atleast_2d(np.asarray(pool, dtype=float))
        self._scales = params.scales_array()
        # The pool's points and then the observed rows, divided by the length
        # scales, one column each: a new row's kernel against the pool and the
        # observed rows is one `_scaled_se` call.
        self._points = (self.pool / self._scales).T
        self.factorizations = 0
        self._factor(np.array(X, dtype=float, ndmin=2))

    def _factor(self, X: np.ndarray) -> None:
        self._X, self.n = X, len(X)  # the buffer of observed rows, full after a factorization, and their number
        N, sv = self.pool.shape[0], self.params.signal_variance
        Xs = (X / self._scales).T
        self._points = np.concatenate((self._points[:, :N], Xs), axis=1)
        self.chol, self.jitter = _factor_gram(_scaled_se(Xs, Xs, sv), self.params)
        # V = L^-1 K(X, pool), solved in place.  `extend` writes V's later rows,
        # the later observed rows and their scaled points into spare rows and
        # columns, doubled when full.
        self._rows = _solve_lower_in_place(self.chol, _scaled_se(Xs, self._points[:, :N], sv))
        self.factorizations += 1
        self._col_sums = np.einsum("ij,ij->j", self._rows, self._rows)
        self._alpha = None

    @property
    def X(self) -> np.ndarray:
        """The observed rows, in order: a view of the posterior's own buffer, to read and not to write."""
        return self._X[: self.n]

    def extend(self, rows) -> None:
        """Condition on more observed rows, in order: one row x, or a (k, d) array of them."""
        rows = np.array(rows, dtype=float, ndmin=2)
        if not len(rows):
            return
        if self.n == 0:
            # No factor to update yet: factor the rows whole, as the constructor does.
            self._factor(rows)
            return
        N, params = self.pool.shape[0], self.params
        for x, xs in zip(rows, rows / self._scales):
            t = self.n
            if t == len(self._rows):
                self._rows = np.concatenate((self._rows, np.empty_like(self._rows)))
                self._X = np.concatenate((self._X, np.empty_like(self._X)))
                self._points = np.concatenate((self._points, np.empty((len(xs), t))), axis=1)
            self._X[t] = x
            self._points[:, N + t] = xs
            k = _scaled_se(xs[:, None], self._points[:, : N + t], params.signal_variance)[0]  # k(x, pool) then k(x, X)
            l = _solve_lower(self.chol, k[N:])
            # The new pivot squared is x's posterior variance plus noise and
            # jitter, so at or below the noise it holds only rounding error.
            pivot = params.signal_variance + params.noise_variance + self.jitter - l @ l
            if not (np.isfinite(pivot) and pivot > params.noise_variance):
                self._factor(self._X[: t + 1])
                continue
            pivot = np.sqrt(pivot)
            row = self._rows[t]
            np.subtract(k[:N], l @ self._rows[:t], out=row)
            row /= pivot
            self._col_sums += row * row
            # Every entry written once: L's old columns, a zero column above the pivot, the new row.
            chol = np.empty((t + 1, t + 1), order="F")
            chol[:t, :t] = self.chol
            chol[:t, t] = 0.0
            chol[t, :t] = l
            chol[t, t] = pivot
            self.chol = chol
            self.n = t + 1
            self._alpha = None

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """L, L^-1 z (a new array at each `set_outputs`, None after a later `extend`), V and V's squared column sums.

        They are the posterior's own arrays, to read and not to write.
        """
        return self.chol, self._alpha, self._rows[: self.n], self._col_sums

    def set_outputs(self, z) -> None:
        """The outputs at the observed rows, a vector in their order, that the means answer for."""
        z = np.asarray(z, dtype=float)
        if self.n == 0 or z.shape != (self.n,):
            raise ValueError(f"{z.size} outputs for {self.n} observed rows (need a vector of one per row, over at least one row)")
        self._alpha = _solve_lower(self.chol, z)

    def predict_candidates(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at the active rows of a CandidateSet over this very pool array."""
        if candidates.points is not self.pool:
            raise ValueError("the candidates are not this posterior's pool")
        if self._alpha is None:
            raise ValueError("set_outputs must follow the last change of the observed rows")
        active = candidates.active_indices
        sv = self.params.signal_variance
        means = (self._alpha @ self._rows[: self.n])[active]
        variances = sv - self._col_sums[active]
        return means, np.clip(variances, 0.0, sv, out=variances)
