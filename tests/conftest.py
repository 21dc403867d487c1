import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_gp_instance(rng, d, t, noise=1e-4):
    """Random kernel params plus t observations (X in [0,1]^d, y standard normal)."""
    from hyperbo.gp import KernelParams

    params = KernelParams(
        signal_variance=float(rng.uniform(0.5, 3.0)),
        length_scales=tuple(rng.uniform(0.15, 0.8, size=d)),
        noise_variance=noise,
    )
    X = rng.uniform(0, 1, size=(t, d))
    y = rng.normal(size=t)
    return params, X, y
