"""Reference forms of the SE kernel and its derivative covariances.

Tests compare the vectorized production matrices in hyperbo.gp and
hyperbo.monotonic against these one-pair formulas, on random instances
from `random_gp_instance`, and the kernel matrix against its einsum form
bit for bit.
"""

import numpy as np

from hyperbo.gp import KernelParams


def random_gp_instance(rng, d, t, noise=1e-4):
    """Random kernel params plus t observations (X in [0,1]^d, y standard normal)."""
    params = KernelParams(
        signal_variance=float(rng.uniform(0.5, 3.0)),
        length_scales=tuple(rng.uniform(0.15, 0.8, size=d)),
        noise_variance=noise,
    )
    X = rng.uniform(0, 1, size=(t, d))
    y = rng.normal(size=t)
    return params, X, y


def se_kernel(x_i, x_j, params) -> float:
    """Squared-exponential covariance between two points.

    k(x, x') = signal_variance * exp(-0.5 * sum_d (x_d - x'_d)^2 / l_d^2)
    """
    x_i = np.asarray(x_i, dtype=float).reshape(-1)
    x_j = np.asarray(x_j, dtype=float).reshape(-1)
    if x_i.shape[0] != params.dim or x_j.shape[0] != params.dim:
        raise ValueError(
            f"point dimensions ({x_i.shape[0]}, {x_j.shape[0]}) do not match kernel dimension {params.dim}"
        )
    scaled = (x_i - x_j) / params.scales_array()
    return float(params.signal_variance * np.exp(-0.5 * np.dot(scaled, scaled)))


def cov_value_gradient(x, x_prime, g: int, params) -> float:
    """cov(f(x), df(x')/dx'_g) for the SE kernel: k(x,x') * (x_g - x'_g) / l_g^2."""
    x = np.asarray(x, dtype=float).reshape(-1)
    x_prime = np.asarray(x_prime, dtype=float).reshape(-1)
    k = se_kernel(x, x_prime, params)
    return float(k * (x[g] - x_prime[g]) / params.length_scales[g] ** 2)


def cov_gradient_gradient(x, x_prime, g: int, h: int, params) -> float:
    """cov(df(x)/dx_g, df(x')/dx'_h) for the SE kernel."""
    x = np.asarray(x, dtype=float).reshape(-1)
    x_prime = np.asarray(x_prime, dtype=float).reshape(-1)
    k = se_kernel(x, x_prime, params)
    lg2 = params.length_scales[g] ** 2
    lh2 = params.length_scales[h] ** 2
    delta = 1.0 / lg2 if g == h else 0.0
    return float(k * (delta - (x[g] - x_prime[g]) * (x[h] - x_prime[h]) / (lg2 * lh2)))


def se_kernel_matrix_einsum(X, Z, params) -> np.ndarray:
    """The SE kernel matrix in its einsum form: one (t, m, d) array of scaled differences, summed over d.

    hyperbo.gp.se_kernel_matrix sums per-dimension planes instead and must
    match this bit for bit on C-ordered and strided inputs.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    ls = params.scales_array()
    diff = X[:, None, :] / ls - Z[None, :, :] / ls
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    return params.signal_variance * np.exp(-0.5 * sq)
