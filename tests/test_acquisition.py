"""UCB and Thompson selectors against hand computations and Monte Carlo oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperbo.acquisition import (
    CandidateSet,
    thompson_sample_argmax,
    thompson_select,
    ucb_beta,
    ucb_select,
)
from hyperbo.gp import KernelParams, gp_fit


class StubModel:
    """Duck-typed model returning fixed predictions for the given points."""

    def __init__(self, means, variances, cov=None):
        self.means = np.asarray(means, dtype=float)
        self.variances = np.asarray(variances, dtype=float)
        self.cov = cov if cov is not None else np.diag(self.variances)

    def _lookup(self, X):
        # Points are encoded as [[0], [1], ...] indices into the fixed tables.
        return np.asarray(X)[:, 0].astype(int)

    def predict_candidates(self, candidates):
        idx = self._lookup(candidates.points[candidates.active_indices])
        return self.means[idx], self.variances[idx]

    def predict_joint(self, X):
        idx = self._lookup(X)
        return self.means[idx], self.cov[np.ix_(idx, idx)]


def index_candidates(n, excluded=None):
    return CandidateSet(np.arange(n, dtype=float).reshape(-1, 1), excluded=excluded)


class TestCandidateSet:
    def test_the_mask_is_held_as_is(self):
        mask = np.zeros(4, dtype=bool)
        candidates = index_candidates(4, excluded=mask)
        assert candidates.excluded is mask
        candidates.exclude(2)
        assert mask.tolist() == [False, False, True, False]
        with pytest.raises(ValueError, match="mask length"):
            index_candidates(4, excluded=np.zeros((4, 1), dtype=bool))

    @pytest.mark.parametrize("read_first", [True, False], ids=["indices-read", "indices-unread"])
    def test_each_exclusion_keeps_the_active_indices_current(self, rng, read_first):
        n = 40
        candidates = index_candidates(n, excluded=rng.uniform(size=n) < 0.3)
        if read_first:
            before = candidates.active_indices
            kept = before.copy()
        for index in rng.permutation(candidates.active_indices if read_first else np.flatnonzero(~candidates.excluded)):
            candidates.exclude(index)
            assert candidates.excluded[index]
            assert np.array_equal(candidates.active_indices, np.flatnonzero(~candidates.excluded))
        assert candidates.active_indices.size == 0 and candidates.excluded.all()
        if read_first:
            assert np.array_equal(before, kept)  # an exclusion makes a new array

    def test_excluding_an_excluded_or_missing_row_is_refused(self):
        candidates = index_candidates(5, excluded=np.array([False, True, False, False, False]))
        active = candidates.active_indices
        for index, error in ((1, ValueError), (5, IndexError)):
            with pytest.raises(error):
                candidates.exclude(index)
            assert candidates.active_indices is active
        assert candidates.excluded.tolist() == [False, True, False, False, False]
        candidates.exclude(-1)  # a negative index counts from the end, as in the mask
        assert candidates.active_indices.tolist() == [0, 2, 3]


class TestUcbBeta:
    def test_constructed_cancellation(self):
        assert ucb_beta(1, 1, delta=np.pi**2 / 6) == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        expected = 2 * np.log(100 * np.pi**2 / 0.6)
        assert ucb_beta(1, 100, delta=0.1) == pytest.approx(expected, abs=1e-12)
        assert ucb_beta(1, 100, delta=0.1) == pytest.approx(14.81, abs=0.01)

    def test_monotone_in_t(self):
        values = [ucb_beta(t, 50, 0.1) for t in range(1, 1001)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ucb_beta(0, 10, 0.1)
        with pytest.raises(ValueError):
            ucb_beta(1, 10, delta=0.0)

    # Each of these returned nan or inf (at delta = inf with a divide-by-zero
    # RuntimeWarning, which the test settings turn into a failure) or raised
    # OverflowError (10**400, a Python int past float range).
    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "10**400"])
    def test_rejects_a_delta_that_is_not_finite(self, delta):
        with pytest.raises(ValueError, match="positive finite float"):
            ucb_beta(1, 10, delta)

    @pytest.mark.parametrize("t, n, delta", [(1, 10, 1e-308), (4, 17, 1e-306), (1, 1, 1.7e308)])
    def test_rejects_a_beta_past_float_range(self, t, n, delta):
        # The ratio reaches inf, or at the largest delta 0 (6 * delta overflows).
        with pytest.raises(ValueError, match="not finite"):
            ucb_beta(t, n, delta)


class TestUcbSelect:
    def test_hand_computed_scores(self):
        model = StubModel(means=[0.0, 1.0], variances=[0.0, 0.01])
        idx, point = ucb_select(model, index_candidates(2), beta=4.0)
        # scores: (0.0, 1.0 + 2 * 0.1) = (0.0, 1.2)
        assert idx == 1 and point[0] == 1.0

    def test_tie_breaks_to_lowest_index(self):
        model = StubModel(means=[0.5, 0.5, 0.5], variances=[0.2, 0.2, 0.2])
        idx, _ = ucb_select(model, index_candidates(3), beta=1.0)
        assert idx == 0

    def test_zero_beta_is_greedy(self, rng):
        for _ in range(50):
            means = rng.normal(size=10)
            model = StubModel(means=means, variances=rng.uniform(0, 1, size=10))
            idx, _ = ucb_select(model, index_candidates(10), beta=0.0)
            assert idx == int(np.argmax(means))

    def test_scores_are_formed_in_the_model_arrays(self, rng):
        # The pick of the out-of-place formula, negative variances clipped to 0.
        class Returned(StubModel):
            def predict_candidates(self, candidates):
                self.returned = super().predict_candidates(candidates)
                return self.returned

        for _ in range(50):
            means, variances, beta = rng.normal(size=12), rng.normal(size=12), rng.uniform(0.0, 9.0)
            model = Returned(means=means, variances=variances)
            idx, _ = ucb_select(model, index_candidates(12), beta=beta)
            scores = means + np.sqrt(beta) * np.sqrt(np.maximum(variances, 0.0))
            assert idx == int(np.argmax(scores))
            assert np.array_equal(model.returned[0], scores)

    def test_never_returns_excluded(self, rng):
        means = rng.normal(size=6)
        model = StubModel(means=means, variances=np.full(6, 0.1))
        excluded = np.array([True, False, True, False, False, True])
        for beta in (0.0, 1.0, 25.0):
            idx, _ = ucb_select(model, index_candidates(6, excluded=excluded.copy()), beta=beta)
            assert not excluded[idx]

    @given(
        a=st.floats(0.01, 100.0),
        b=st.floats(-50.0, 50.0),
        seed=st.integers(0, 1000),
    )
    def test_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        means = rng.normal(size=8)
        stds = rng.uniform(0.01, 2.0, size=8)
        plain = StubModel(means=means, variances=stds**2)
        scaled = StubModel(means=a * means + b, variances=(a * stds) ** 2)
        idx1, _ = ucb_select(plain, index_candidates(8), beta=2.0)
        idx2, _ = ucb_select(scaled, index_candidates(8), beta=2.0)
        assert idx1 == idx2


class TestThompson:
    def test_degenerate_variance_picks_higher_mean(self):
        model = StubModel(means=[1.0, 0.0], variances=[1e-12, 1e-12])
        counts = np.zeros(2)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            idx, _ = thompson_select(model, index_candidates(2), rng)
            counts[idx] += 1
        assert counts[0] / 1000 >= 0.999

    def test_symmetric_posterior_splits_evenly(self):
        model = StubModel(means=[0.0, 0.0], variances=[1.0, 1.0], cov=np.eye(2))
        counts = np.zeros(2)
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            idx, _ = thompson_select(model, index_candidates(2), rng)
            counts[idx] += 1
        freq = counts / 10_000
        assert 0.45 <= freq[0] <= 0.55

    def test_matches_independent_monte_carlo_oracle(self):
        # Hand-specified 3-candidate posterior with correlations.
        means = np.array([0.3, 0.0, 0.25])
        cov = np.array(
            [
                [0.50, 0.20, 0.10],
                [0.20, 0.40, 0.05],
                [0.10, 0.05, 0.60],
            ]
        )
        n = 100_000
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        for _ in range(n):
            counts[thompson_sample_argmax(means, cov, rng)] += 1
        ours = counts / n

        # Independent oracle: eigendecomposition sampler, separate stream.
        oracle_rng = np.random.default_rng(991)
        vals, vecs = np.linalg.eigh(cov)
        root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0))) @ vecs.T
        draws = means + oracle_rng.standard_normal((n, 3)) @ root.T
        oracle = np.bincount(np.argmax(draws, axis=1), minlength=3) / n

        np.testing.assert_allclose(ours, oracle, atol=0.03)

    def test_fixed_seed_reproducible(self):
        model = StubModel(means=[0.1, 0.5, -0.2], variances=[0.3, 0.3, 0.3])
        picks_a = [thompson_select(model, index_candidates(3), np.random.default_rng(5))[0] for _ in range(10)]
        picks_b = [thompson_select(model, index_candidates(3), np.random.default_rng(5))[0] for _ in range(10)]
        assert picks_a == picks_b

    def test_never_returns_excluded(self):
        model = StubModel(means=[5.0, 0.0, 0.1], variances=[0.1, 0.1, 0.1])
        rng = np.random.default_rng(0)
        for _ in range(50):
            idx, _ = thompson_select(model, index_candidates(3, excluded=[True, False, False]), rng)
            assert idx != 0

    def test_works_with_real_gp(self, rng):
        # End-to-end smoke: Thompson over a fitted GP posterior on scored points.
        params = KernelParams(1.0, (0.2,), noise_variance=1e-4)
        model = gp_fit([[0.1], [0.9]], [0.0, 1.0], params)
        candidates = CandidateSet(np.linspace(0, 1, 20).reshape(-1, 1))
        counts = np.zeros(20)
        for _ in range(200):
            idx, _ = thompson_select(model, candidates, rng)
            counts[idx] += 1
        # Mass should concentrate near the high-scoring end.
        assert counts[10:].sum() > counts[:10].sum()
