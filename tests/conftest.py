import os

import hypothesis
import pytest

import hyperbo

# The tests run trials with one BLAS thread, as the program and its pooled
# workers do; BLAS reads the variables once, when numpy first loads.
os.environ.update(dict.fromkeys(hyperbo.BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
