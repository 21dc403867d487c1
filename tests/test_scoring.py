"""Window scoring: closed-form normalizer, grid-derived weights, regularizer behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperbo.engine import LENGTH_SCALE, MONOTONICITY, ModelSpace, regret_normalizer


class TestRegretNormalizer:
    def test_matches_closed_form_everywhere(self, rng):
        # 1000 random (T, d) pairs against an independent closed-form evaluation.
        for _ in range(1000):
            T = int(rng.integers(2, 10_000))
            d = int(rng.integers(1, 13))
            expected = (np.log(T) ** (d + 1) / T) ** 0.5
            assert regret_normalizer(T, d) == pytest.approx(expected, abs=1e-12)

    def test_rejects_small_T(self):
        with pytest.raises(ValueError):
            regret_normalizer(1, 2)

    def test_known_value(self):
        # T=10, d=2: sqrt(ln(10)^3 / 10); base score for unit gain is its inverse.
        assert 1.0 / regret_normalizer(10, 2) == pytest.approx(0.9051, abs=1e-4)


class TestLambdaDefaults:
    def test_length_scale_formula(self):
        for d in range(1, 14):
            assert ModelSpace(LENGTH_SCALE, d).lam == 1.0 / (0.6 * d)

    def test_monotonicity_formula(self):
        for d in range(1, 14):
            assert ModelSpace(MONOTONICITY, d).lam == 1.0 / (12.0 * d)


class TestScoreModel:
    def test_zero_gain_scores_zero(self):
        for mode, theta in ((LENGTH_SCALE, (0.6, 0.6)), (MONOTONICITY, (-6.0, 0.0, 0.0, -6.0))):
            assert ModelSpace(mode, 2).score(0.0, T=100, theta=theta) == 0.0
        # Zero gain short-circuits even where the normalizer is undefined.
        assert ModelSpace(LENGTH_SCALE, 2).score(0.0, T=1, theta=(0.3, 0.3)) == 0.0

    def test_unit_gain_no_regularizer(self):
        # A zero theta makes the regularizer 1 whatever the weight.
        score = ModelSpace(LENGTH_SCALE, 2).score(1.0, T=10, theta=(0.0, 0.0))
        assert score == pytest.approx(0.9051, abs=1e-4)

    def test_monotonicity_multiplier_hand_value(self):
        # d=2, lambda=1/24, theta=(-6,0,0,-6): ||theta|| = 6*sqrt(2), factor ~ 1.3536.
        space = ModelSpace(MONOTONICITY, 2)
        assert space.lam == 1.0 / 24.0
        base = 1.0 / regret_normalizer(10, 2)
        score = space.score(1.0, T=10, theta=(-6.0, 0.0, 0.0, -6.0))
        assert score / base == pytest.approx(1.0 + 6.0 * np.sqrt(2.0) / 24.0, abs=1e-12)
        assert score / base == pytest.approx(1.3536, abs=1e-4)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            ModelSpace(LENGTH_SCALE, 1).score(-0.5, T=10, theta=(0.3,))

    @given(
        gain=st.floats(0.001, 100.0),
        T=st.integers(2, 100_000),
        d=st.integers(1, 10),
    )
    def test_strictly_increasing_in_gain(self, gain, T, d):
        theta = tuple([0.3] * d)
        space = ModelSpace(LENGTH_SCALE, d)
        s1 = space.score(gain, T, theta)
        s2 = space.score(gain * 1.5, T, theta)
        assert s2 > s1

    @given(scale=st.floats(0.11, 0.59), d=st.integers(1, 6))
    def test_length_scale_mode_penalizes_norm(self, scale, d):
        space = ModelSpace(LENGTH_SCALE, d)
        small = space.score(1.0, 10, tuple([scale] * d))
        large = space.score(1.0, 10, tuple([scale + 0.01] * d))
        assert large < small

    @given(level=st.floats(-5.9, -0.1), d=st.integers(1, 6))
    def test_monotonicity_mode_rewards_norm(self, level, d):
        space = ModelSpace(MONOTONICITY, d)
        theta_weak = tuple([level + 0.05, 0.0] * d)
        theta_strict = tuple([level - 0.05, 0.0] * d)
        weak = space.score(1.0, 10, theta_weak)
        strict = space.score(1.0, 10, theta_strict)
        assert strict > weak
