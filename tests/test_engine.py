"""Model grid, scoring windows, outer proposals, and full-run contracts."""

import itertools
import json
import pickle
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hyperbo.acquisition import thompson_sample_argmax
from hyperbo.engine import (
    ENUMERATION_LIMIT,
    LENGTH_SCALE,
    LENGTH_SCALE_GRID,
    MONOTONICITY,
    MONOTONICITY_PAIRS,
    THETA_GP_LS_FRACTION,
    ModelSpace,
    RunConfig,
    hyperbo_step,
    model_score_window,
    new_ledger,
    rerun_with_best_theta,
    run_framework,
    _fit_window_model,
    _init_state,
    _inner_step,
    _pathwise_argmax,
)
from hyperbo.acquisition import CandidateSet, ucb_select
from hyperbo.bench import ExperimentConfig, run_experiment
from hyperbo.gp import KernelParams, PoolPosterior, gp_fit, se_kernel_matrix, standardize
from hyperbo.monotonic import FittedMonotonicGP, MonotonicWorkspace, fit_monotonic_gp
from hyperbo.tasks import ContinuousTask, DiscreteTask, make_goldstein_price_task, make_gp_sample_task

from ep_oracle import joint_ep_fit


def grid_indices(space):
    """Every grid point of a ModelSpace as an index row, in lexicographic (C) order."""
    return np.indices((space.per_dim,) * space.dim).reshape(space.dim, -1).T


def indices(space, thetas):
    """The index rows of a 2-D array of grid thetas, the inverse of space.rows."""
    options = ModelSpace(space.mode, 1).rows(np.arange(space.per_dim)[:, None])  # (per_dim, coords)
    chunks = thetas.reshape(len(thetas), space.dim, 1, -1)
    return (chunks == options).all(axis=3).argmax(axis=2)


def ledger_of(index_rows, scores):
    """A ledger of windows with these theta index rows and scores; window i starts at T = i, gains its score, and is outer iteration i + 1."""
    index_rows = np.atleast_2d(index_rows)
    ledger = new_ledger(len(scores), index_rows.shape[1])
    ledger["index"] = index_rows
    ledger["outer"] = np.arange(1, len(scores) + 1)
    ledger["start_T"] = np.arange(len(scores))
    ledger["gain"] = scores
    ledger["score"] = scores
    return ledger


class BatchPredictions:
    """A fitted model whose predict_candidates goes through its predict_batch at the active rows.

    The refit oracle of the inner loop's caches, which answer from their own
    pool blocks; every other attribute is the model's.
    """

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def predict_candidates(self, candidates):
        return self.model.predict_batch(candidates.points[candidates.active_indices])


def make_toy_task(values, n_initial=2, dim=1):
    values = np.asarray(values, dtype=float)
    n = len(values)
    X = np.linspace(0, 1, n).reshape(-1, 1) if dim == 1 else np.tile(np.linspace(0, 1, n)[:, None], (1, dim))
    return DiscreteTask(
        name="toy",
        dim=dim,
        optimum=float(values.max()),
        X=X,
        y=values,
        feature_names=tuple(f"x{i}" for i in range(dim)),
        n_initial=n_initial,
    )


class TestModelTheta:
    @pytest.mark.parametrize(
        "mode, values, valid",
        [
            (LENGTH_SCALE, LENGTH_SCALE_GRID, True),
            (MONOTONICITY, tuple(itertools.chain(*MONOTONICITY_PAIRS)), True),
            (LENGTH_SCALE, (0.1, 0.35, 0.6), True),
            (LENGTH_SCALE, (0.3,), True),
            (MONOTONICITY, (-6.0, 0.0, 0.0, -6.0), True),
            (MONOTONICITY, (0, -6, -3, -1), True),
            (LENGTH_SCALE, (0.12,), False),
            (LENGTH_SCALE, (0.65,), False),
            (MONOTONICITY, (-2.5, 0.0, 0.0, -6.0), False),
            (MONOTONICITY, (-7.0, 0.0), False),
            (MONOTONICITY, (0.5, 0.0), False),
            (MONOTONICITY, (-6.0, -6.0), False),
            (MONOTONICITY, (0.0, -6.0, -6.0, -6.0), False),
            (MONOTONICITY, (-6.0, 0.0, 0.0), False),
            (MONOTONICITY, (), False),
            (LENGTH_SCALE, (), False),
            ("nonsense", (0.3,), False),
        ],
        ids=[
            "ls-every-option",
            "mono-every-option",
            "ls-on-grid",
            "ls-1d",
            "mono-on-grid",
            "mono-ints",
            "ls-off-grid",
            "ls-out-of-range",
            "mono-off-grid",
            "mono-below-range",
            "mono-above-range",
            "mono-double-strict",
            "mono-double-strict-dim2",
            "mono-odd-length",
            "mono-empty",
            "ls-empty",
            "unknown-mode",
        ],
    )
    def test_grid_rule(self, mode, values, valid):
        # A theta is valid when each per-dimension chunk is a row of its mode's option table.
        d = max(len(values) // (2 if mode == MONOTONICITY else 1), 1)
        if valid:
            assert tuple(ModelSpace(mode, d).theta(values)) == tuple(float(v) for v in values)
        else:
            with pytest.raises(ValueError):
                ModelSpace(mode, d).theta(values)


class TestModelSpace:
    def test_length_scale_1d_enumeration(self):
        space = ModelSpace(LENGTH_SCALE, 1)
        thetas = space.rows(grid_indices(space))
        assert len(thetas) == 11
        assert sorted(t[0] for t in thetas) == list(LENGTH_SCALE_GRID)

    def test_monotonicity_sizes(self):
        assert len(MONOTONICITY_PAIRS) == 48
        assert ModelSpace(MONOTONICITY, 1).size == 48
        space2 = ModelSpace(MONOTONICITY, 2)
        assert space2.size == 2304
        assert len(grid_indices(space2)) == 2304

    def test_large_spaces_report_size_without_enumeration(self):
        space = ModelSpace(LENGTH_SCALE, 8)
        assert space.size == 11**8

    def test_sampling_stays_on_grid(self, rng):
        for mode, d in ((LENGTH_SCALE, 3), (MONOTONICITY, 2)):
            space = ModelSpace(mode, d)
            for _ in range(50):
                theta = space.rows(space.sample(rng))
                assert tuple(space.theta(theta)) == tuple(theta)

    def test_theta_checks_the_space_dimension(self):
        space = ModelSpace(MONOTONICITY, 2)
        assert tuple(space.theta([-6, 0, 0, -6])) == (-6.0, 0.0, 0.0, -6.0)
        for values in ([-6, 0], [-6, 0, 0, -6, 0, 0], [-2.5, 0, 0, -6]):
            with pytest.raises(ValueError):
                space.theta(values)
        with pytest.raises(ValueError):
            ModelSpace("nonsense", 1)

    def test_index_rows_match_per_theta_construction(self):
        # Outer pools are index arrays drawn in one call: they must equal one
        # scalar draw per coordinate (same values, same generator state after)
        # and map to the validated thetas they stand for.
        for mode, options in ((LENGTH_SCALE, LENGTH_SCALE_GRID), (MONOTONICITY, MONOTONICITY_PAIRS)):
            space = ModelSpace(mode, 2)
            batch, scalar = np.random.default_rng(3), np.random.default_rng(3)
            indices = batch.integers(0, space.per_dim, size=(25, 2))
            one_by_one = [[int(scalar.integers(0, len(options))) for _ in range(2)] for _ in range(25)]
            np.testing.assert_array_equal(indices, one_by_one)
            assert batch.bit_generator.state == scalar.bit_generator.state
            thetas = np.vstack([space.theta(space.rows(row)) for row in indices])
            np.testing.assert_array_equal(space.rows(indices), thetas)
        grid = grid_indices(ModelSpace(LENGTH_SCALE, 2))
        assert [tuple(row) for row in grid] == list(itertools.product(range(11), repeat=2))

    def test_unit_mapping(self):
        ls = ModelSpace(LENGTH_SCALE, 1)
        np.testing.assert_allclose(ls.to_unit(np.array([0.1, 0.6])), [0.0, 1.0])
        mono = ModelSpace(MONOTONICITY, 1)
        np.testing.assert_allclose(mono.to_unit(np.array([-6.0, 0.0])), [0.0, 1.0])


class TestRunConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RunConfig(mode="length_scale", m=0)
        with pytest.raises(ValueError):
            RunConfig(mode="length_scale", K=0)
        with pytest.raises(ValueError):
            RunConfig(mode="length_scale", m=5, R=4)
        with pytest.raises(ValueError):
            RunConfig(mode="nonsense")


class TestBestRecord:
    def test_best_breaks_ties_earliest(self, monkeypatch):
        # Beyond the enumeration limit the incumbent, the last candidate, is the
        # best-scored window of the ledger.
        import hyperbo.engine as eng

        space = ModelSpace(MONOTONICITY, 4)
        ledger = ledger_of(np.arange(16).reshape(4, 4), [1.0, 2.0, 2.0, 0.5])
        seen = []

        def first_candidate(model, candidates, rng):
            seen.append(candidates.points)
            return 0, candidates.points[0]

        monkeypatch.setattr(eng, "thompson_select", first_candidate)
        hyperbo_step(ledger, space, np.random.default_rng(0))
        best = np.flatnonzero((space.to_unit(space.rows(ledger["index"])) == seen[0][-1]).all(axis=1))
        assert ledger["outer"][best].tolist() == [2]  # first of the tied windows

    def test_empty_best_raises(self):
        with pytest.raises(ValueError):
            hyperbo_step(new_ledger(0, 1), ModelSpace(LENGTH_SCALE, 1), np.random.default_rng(0))


class TestModelScoreWindow:
    def test_counting_contract(self):
        # 5-point task, 2 initially observed, K=3: exactly 3 new observations.
        task = make_toy_task([0.0, 1.0, 2.0, 3.0, 4.0], n_initial=2)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=3, R=1, seed=0)
        state = _init_state(task, config)
        theta = np.array([0.3])
        window, exhausted = model_score_window(task, state, config, theta)
        assert len(state.y) == 5
        assert len(state.y) - state.n0 == 3
        assert window is not None and not exhausted

    def test_no_improvement_scores_zero(self):
        # Initial design holds the maximum row: the window cannot improve.
        task = make_toy_task([5.0, 5.0, 1.0], n_initial=2)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=1, R=1, seed=1)
        state = _init_state(task, config)
        # Seeded design must contain the max; find a seed where it does.
        assert state.y.max() == 5.0
        (_, gain, score), _ = model_score_window(task, state, config, np.array([0.3]))
        assert gain == 0.0
        assert score == 0.0

    def test_exhaustion_ends_window_early(self):
        task = make_toy_task([0.0, 1.0, 2.0, 3.0], n_initial=2)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=5, R=1, seed=0)
        state = _init_state(task, config)
        window, exhausted = model_score_window(task, state, config, np.array([0.3]))
        assert exhausted
        assert len(state.y) == 4  # only 2 rows were left to sample
        assert window is not None


class TestHyperboStep:
    def ledger_with(self, space, pairs):
        thetas, scores = zip(*pairs)
        return ledger_of(indices(space, np.vstack(thetas)), scores)

    def test_single_record_explores_broadly(self):
        space = ModelSpace(LENGTH_SCALE, 1)
        ledger = self.ledger_with(space, [(np.array([0.35]), 1.0)])
        counts = np.zeros(11)
        grid = {v: i for i, v in enumerate(LENGTH_SCALE_GRID)}
        for seed in range(1000):
            theta = space.rows(hyperbo_step(ledger, space, np.random.default_rng(seed)))
            counts[grid[theta[0]]] += 1
        freq = counts / counts.sum()
        entropy = -np.sum(freq[freq > 0] * np.log(freq[freq > 0]))
        assert entropy > 0.8 * np.log(11)

    def test_separated_scores_prefer_better_theta(self):
        space = ModelSpace(LENGTH_SCALE, 1)
        good, bad = (0.6,), (0.1,)
        ledger = self.ledger_with(space, [(np.array(good), 10.0), (np.array(bad), 0.0)] * 5)
        picks = Counter(tuple(space.rows(hyperbo_step(ledger, space, np.random.default_rng(seed)))) for seed in range(1000))
        # The whole grid competes: the better-scored theta is the most frequent
        # pick, and the worse-scored one comes up at most 1/20 as often.
        assert picks.most_common(1)[0][0] == good
        assert picks[bad] <= 0.05 * picks[good]

    def test_fixed_seed_deterministic(self):
        space = ModelSpace(MONOTONICITY, 2)
        theta = np.array([-3.0, 0.0, 0.0, -3.0])
        ledger = self.ledger_with(space, [(theta, 1.0), (np.array([0.0, 0.0, 0.0, 0.0]), 0.2)])
        picks = {tuple(hyperbo_step(ledger, space, np.random.default_rng(11))) for _ in range(5)}
        assert len(picks) == 1

    @pytest.mark.parametrize("dim, enumerated", [(3, True), (4, False)])
    def test_either_side_of_the_enumeration_limit(self, dim, enumerated):
        # 48^3 thetas take the exact whole-grid draw, 48^4 the subsample branch;
        # both return a grid theta, the same one for the same seed.
        space = ModelSpace(MONOTONICITY, dim)
        assert (space.size <= ENUMERATION_LIMIT) == enumerated
        rng = np.random.default_rng(4)
        ledger = self.ledger_with(space, [(space.rows(space.sample(rng)), float(rng.exponential())) for _ in range(12)])
        picks = [space.rows(hyperbo_step(ledger, space, np.random.default_rng(seed))) for seed in (5, 5, 6)]
        for theta in picks:
            np.testing.assert_array_equal(space.theta(theta), theta)
        np.testing.assert_array_equal(picks[0], picks[1])

    def test_theta_gp_params_are_built_once_per_space(self):
        space = ModelSpace(MONOTONICITY, 2)
        varied, tied = np.array([1.0, -1.0]), np.zeros(2)
        assert space.theta_gp_params(varied) is space.theta_gp_params(varied.copy())
        assert space.theta_gp_params(varied).signal_variance == 1.0
        assert space.theta_gp_params(tied).signal_variance == 1e-6
        assert space.theta_gp_params(tied).length_scales == (THETA_GP_LS_FRACTION,) * space.theta_dim

    @pytest.mark.parametrize("mode", [LENGTH_SCALE, MONOTONICITY])
    def test_per_dimension_prior_factorizes_without_jitter(self, mode):
        space = ModelSpace(mode, 2)
        unit = space.to_unit(ModelSpace(mode, 1).rows(np.arange(space.per_dim)[:, None]))
        table = se_kernel_matrix(unit, unit, KernelParams(1.0, (THETA_GP_LS_FRACTION,) * unit.shape[1]))
        assert np.linalg.eigvalsh(table).min() > 0
        k1, chol = space.option_prior
        assert np.array_equal(k1, table) and np.array_equal(chol, np.linalg.cholesky(table))
        assert space.option_prior is space.option_prior  # factored once per space

    @pytest.mark.slow
    @pytest.mark.parametrize("mode, dim", [(LENGTH_SCALE, 2), (MONOTONICITY, 1)])
    def test_pathwise_draw_matches_joint_sampling(self, mode, dim):
        """Whole-grid selection frequencies of the pathwise draw match argmaxes of
        joint draws from FittedGP.predict_joint over the grid, within 0.015 each."""
        space = ModelSpace(mode, dim)
        rng = np.random.default_rng(17)
        ledger = np.vstack([space.sample(rng) for _ in range(10)])
        z, _ = standardize(rng.exponential(size=len(ledger)))
        model = gp_fit(space.to_unit(space.rows(ledger)), z, space.theta_gp_params(z))
        grid = grid_indices(space)
        means, cov = model.predict_joint(space.to_unit(space.rows(grid)))
        n = 20_000
        joint_rng, path_rng = np.random.default_rng(1), np.random.default_rng(2)
        joint = np.bincount([thompson_sample_argmax(means, cov, joint_rng) for _ in range(n)], minlength=space.size)
        flat = [np.ravel_multi_index(_pathwise_argmax(model, space, ledger, path_rng), (space.per_dim,) * dim) for _ in range(n)]
        pathwise = np.bincount(flat, minlength=space.size)
        assert np.count_nonzero(joint) > 5  # the draw is not trivially concentrated
        assert np.abs(joint - pathwise).max() / n < 0.015


class TestRunFramework:
    def test_phase_boundary_r_equals_m(self):
        task = make_toy_task(np.linspace(0, 10, 40), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, m=3, K=2, R=3, seed=5)
        result = run_framework(task, config)
        assert len(result.ledger) == 3
        assert result.n_samples == 6

    def test_sample_counting_contract(self):
        task = make_toy_task(np.linspace(0, 10, 60), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, m=2, K=3, R=5, seed=2)
        result = run_framework(task, config)
        assert result.n_samples == 5 * 3
        assert len(result.best_values) == result.n_samples + 1

    def test_five_virtual_locations_per_dimension(self):
        task = make_goldstein_price_task(pool_size=40)
        config = RunConfig(mode=MONOTONICITY, seed=3)
        state = _init_state(task, config)
        assert _inner_step(task, state, config, np.array([-6.0, 0.0, 0.0, -6.0]))
        locations = state.monotonic.locations
        assert locations.shape == (10, 2)
        assert np.all(locations >= 0) and np.all(locations <= 1)

    def test_bit_reproducible(self):
        task = make_toy_task(np.sin(np.linspace(0, 6, 30)), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, m=2, K=2, R=4, seed=9)
        a = run_framework(task, config)
        b = run_framework(task, config)
        np.testing.assert_array_equal(a.best_values, b.best_values)
        assert np.array_equal(a.best_theta, b.best_theta)
        assert a.ledger["score"].tolist() == b.ledger["score"].tolist()

    def test_every_scored_theta_is_on_grid(self):
        task = make_toy_task(np.cos(np.linspace(0, 5, 50)), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, m=3, K=2, R=6, seed=4)
        result = run_framework(task, config)
        space = ModelSpace(LENGTH_SCALE, 1)
        assert all(np.array_equal(space.theta(theta), theta) for theta in space.rows(result.ledger["index"]))

    def test_regret_trace_invariants(self):
        task = make_toy_task(np.linspace(-5, 3, 25), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, m=2, K=2, R=4, seed=1)
        result = run_framework(task, config)
        assert np.all(result.regrets >= 0)
        assert np.all(np.diff(result.regrets) <= 0)

    def test_exhaustion_flagged(self):
        task = make_toy_task([0.0, 1.0, 2.0, 3.0, 4.0], n_initial=2)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=4, R=3, seed=0)
        result = run_framework(task, config)
        assert result.exhausted
        assert result.n_samples == 3  # only 3 unobserved rows existed

    def test_a_window_that_finds_the_pool_empty_scores_nothing(self):
        # Two full windows take the 4 unobserved rows; the third finds none and ends the run unscored.
        task = make_toy_task([0.0, 1.0, 2.0, 3.0, 4.0], n_initial=1)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=2, R=3, seed=0)
        result = run_framework(task, config)
        assert result.ledger["outer"].tolist() == [1, 2]
        assert result.ledger["start_T"].tolist() == [0, 2]
        assert result.exhausted
        assert result.n_samples == 4

    def test_best_theta_has_highest_score(self):
        task = make_toy_task(np.linspace(0, 1, 50) ** 2, n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, m=3, K=2, R=5, seed=8)
        result = run_framework(task, config)
        scores = result.ledger["score"]
        best_records = result.ledger[scores == max(scores)]
        assert np.array_equal(result.best_theta, ModelSpace(LENGTH_SCALE, 1).rows(best_records[0]["index"]))

    def test_manual_trace_oracle(self):
        """Replay the documented operation order step by step and compare everything."""
        from hyperbo.acquisition import ucb_beta as beta_fn, ucb_select
        from hyperbo.gp import KernelParams, gp_fit

        values = np.array([0.0, 3.0, 1.0, 5.0, 2.0, 4.0])
        task = make_toy_task(values, n_initial=2)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=2, R=2, seed=123)
        result = run_framework(task, config)

        # Independent replay.
        seq = np.random.SeedSequence(123)
        init_child, _virtual_child, run_child = seq.spawn(3)
        init_rng = np.random.default_rng(init_child)
        run_rng = np.random.default_rng(run_child)
        idx0 = init_rng.choice(6, size=2, replace=False)
        X = np.linspace(0, 1, 6).reshape(-1, 1)
        obs_idx = [int(i) for i in idx0]
        ys = [values[i] for i in obs_idx]
        xs = [X[i] for i in obs_idx]
        scale = np.std(ys)
        scale = scale if scale > 1e-12 else 1.0
        lam = 1.0 / 0.6  # 1 / (largest length scale * d)
        space = ModelSpace(LENGTH_SCALE, 1)

        traced_best = [max(ys)]
        ledger_scores = []
        inner_t = 0
        thetas = []
        for outer in (1, 2):
            if outer == 1:
                theta = space.rows(space.sample(run_rng))
            else:
                ledger = ledger_of(indices(space, np.vstack(thetas)), ledger_scores)
                theta = space.rows(hyperbo_step(ledger, space, run_rng))
            thetas.append(theta)
            y_plus = max(ys)
            for _ in range(2):
                z = (np.array(ys) - np.mean(ys)) / (np.std(ys) if np.std(ys) > 1e-12 else 1.0)
                model = gp_fit(np.vstack(xs), z, KernelParams(1.0, theta, 1e-6))
                mask = np.zeros(6, dtype=bool)
                mask[obs_idx] = True
                from hyperbo.acquisition import CandidateSet

                cands = CandidateSet(X, excluded=mask)
                beta = beta_fn(inner_t + 1, int((~mask).sum()), 0.1)
                pick, x_pick = ucb_select(BatchPredictions(model), cands, beta)
                obs_idx.append(pick)
                xs.append(X[pick])
                ys.append(values[pick])
                inner_t += 1
                traced_best.append(max(ys))
            gain = (max(ys) - y_plus) / scale
            # Closed form at d = 1: gain / sqrt(ln(T)^2 / T) * (1 - lam * ||theta||); zero gain scores zero.
            T = max(inner_t, 2)
            score = gain / np.sqrt(np.log(T) ** 2 / T) * (1.0 - lam * np.linalg.norm(theta))
            ledger_scores.append(score if gain > 0 else 0.0)

        assert [tuple(t) for t in space.rows(result.ledger["index"])] == [tuple(t) for t in thetas]
        np.testing.assert_allclose(result.best_values, traced_best, atol=0)
        np.testing.assert_allclose(result.ledger["score"], ledger_scores, atol=0)


class TestRerunWithBestTheta:
    def test_zero_budget_trace_is_initial_best(self):
        task = make_toy_task(np.linspace(0, 4, 12), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, seed=7)
        result = rerun_with_best_theta(task, np.array([0.3]), 0, config)
        assert len(result.best_values) == 1
        assert result.n_samples == 0

    def test_default_theta_equals_explicit_default_kernel(self):
        # theta None (baseline) and an explicit grid theta at the default length
        # scale must produce identical traces: equivalence by construction.
        task = make_toy_task(np.sin(np.linspace(0, 7, 30)), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, seed=13)
        a = rerun_with_best_theta(task, None, 10, config)
        b = rerun_with_best_theta(task, np.array([0.3]), 10, config)
        np.testing.assert_array_equal(a.best_values, b.best_values)

    @pytest.mark.parametrize("seed", range(4))
    def test_best_is_earliest_of_tied_maxima(self, seed):
        # Three rows tie at the maximum; the budget samples every row.
        task = make_toy_task([1.0, 3.0, 0.0, 3.0, 2.0, 3.0], n_initial=1)
        order = []
        observe = task.observe
        task.observe = lambda index, x: order.append(index) or observe(index, x)
        result = rerun_with_best_theta(task, None, 5, RunConfig(mode=LENGTH_SCALE, seed=seed))
        initial = (set(range(6)) - set(order)).pop()
        earliest = next(i for i in [initial] + order if task.y[i] == 3.0)
        np.testing.assert_array_equal(result.best_x, task.X[earliest])
        assert result.best_y == result.best_values[-1] == 3.0

    def test_same_seed_shares_initial_design_with_framework(self):
        task = make_toy_task(np.linspace(0, 9, 40), n_initial=3)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=2, R=1, seed=21)
        run_a = run_framework(task, config)
        run_b = rerun_with_best_theta(task, None, 2, config)
        assert run_a.best_values[0] == run_b.best_values[0]

    @pytest.mark.parametrize("delta", [1e-308, float("nan")])
    def test_a_ucb_delta_without_a_finite_beta_is_refused(self, delta):
        # Run as is, UCB took beta nan or inf, and with it the lowest active index, for every sample.
        task = make_gp_sample_task(dim=1, length_scale=0.3, n_points=20, seed=1)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=2, R=2, seed=0, ucb_delta=delta)
        with pytest.raises(ValueError, match="finite"):
            rerun_with_best_theta(task, None, 4, config)

    def test_monotonicity_rerun_on_goldstein(self):
        task = make_goldstein_price_task(pool_size=100)
        config = RunConfig(mode=MONOTONICITY, seed=2)
        theta = np.array([-6.0, 0.0, 0.0, -6.0])
        result = rerun_with_best_theta(task, theta, 4, config)
        assert result.n_samples == 4
        assert np.all(result.regrets >= 0)
        assert np.all(np.diff(result.regrets) <= 0)


def make_sine_task(dim, pool_size=200):
    """A continuous task: initial design off the pool, a fresh uniform pool per trial."""
    return ContinuousTask(
        name="sines",
        dim=dim,
        optimum=float(dim),
        fn=lambda x: np.sin(5.0 * np.asarray(x) + 1.0).sum(axis=-1),
        pool_size=pool_size,
    )


class TestPoolPosteriorInTheEngine:
    """The plain-GP inner steps grow one pool posterior; gp_fit + predict_batch is their oracle."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_predictions_match_a_refit_every_step(self, dim, kind):
        task = make_gp_sample_task(dim, 0.2, n_points=200, seed=dim) if kind == "discrete" else make_sine_task(dim)
        config = RunConfig(mode=LENGTH_SCALE, seed=dim)
        state = _init_state(task, config)
        for step in range(50):
            # Alternate the default kernel and a length-scale theta in blocks,
            # so the run both extends and rebuilds its posterior.
            theta = None if (step // 10) % 2 == 0 else np.full(dim, 0.2)
            model = _fit_window_model(state, theta)
            assert isinstance(model, PoolPosterior) and model.n == len(state.y)
            candidates = CandidateSet(state.pool, excluded=state.sampled)
            means, variances = model.predict_candidates(candidates)
            oracle = gp_fit(state.X, standardize(state.y)[0], model.params)
            want_means, want_variances = oracle.predict_batch(state.pool[candidates.active_indices])
            np.testing.assert_allclose(means, want_means, rtol=0, atol=1e-8)
            np.testing.assert_allclose(variances, want_variances, rtol=0, atol=1e-8)
            assert _inner_step(task, state, config, theta)

    def test_same_theta_extends_and_a_new_theta_rebuilds(self):
        task = make_gp_sample_task(2, 0.2, n_points=100, seed=3)
        config = RunConfig(mode=LENGTH_SCALE, seed=3)
        state = _init_state(task, config)
        first, second = np.array([0.2, 0.3]), np.array([0.4, 0.3])
        _inner_step(task, state, config, first)
        posterior = state.posterior
        _inner_step(task, state, config, first)
        assert state.posterior is posterior and posterior.n == len(state.y) - 1
        _inner_step(task, state, config, second)
        assert state.posterior is not posterior
        assert state.posterior.params.length_scales == (0.4, 0.3)
        z, _ = standardize(state.y[:-1])
        oracle = gp_fit(state.X[:-1], z, state.posterior.params)
        assert np.array_equal(state.posterior.chol, oracle.chol)

    def test_default_kernel_and_its_explicit_theta_share_one_posterior(self):
        task = make_gp_sample_task(1, 0.2, n_points=60, seed=4)
        config = RunConfig(mode=LENGTH_SCALE, seed=4)
        state = _init_state(task, config)
        _inner_step(task, state, config, None)
        posterior = state.posterior
        _inner_step(task, state, config, np.array([0.3]))
        assert state.posterior is posterior and posterior.n == len(state.y) - 1

    def test_plain_and_monotonic_steps_share_one_posterior(self, monkeypatch):
        import hyperbo.engine as engine

        builds = []

        def counting_posterior(*args):
            builds.append(PoolPosterior(*args))
            return builds[-1]

        monkeypatch.setattr(engine, "PoolPosterior", counting_posterior)
        task = make_goldstein_price_task(pool_size=60)
        config = RunConfig(mode=MONOTONICITY, seed=2)
        state = _init_state(task, config)
        for theta in (None, np.array([-6.0, 0.0, 0.0, -6.0])) * 3:
            assert _inner_step(task, state, config, theta)
            if theta is not None:
                workspace = state.monotonic
                assert workspace.posterior is state.posterior
        assert builds == [state.posterior] and state.ep_fits == 3

    def test_exhaustion_ends_a_plain_bo_run(self):
        task = make_toy_task([0.0, 1.0, 2.0, 3.0, 4.0], n_initial=2)
        result = rerun_with_best_theta(task, None, 10, RunConfig(mode=LENGTH_SCALE, seed=0))
        assert result.exhausted
        assert result.n_samples == 3
        assert result.best_y == 4.0


class TestRunBuffers:
    """A run writes its samples into buffers, excludes them from its one candidate set and grows its posterior in place."""

    def test_the_buffers_hold_the_run_and_no_more_than_the_pool(self):
        task = make_toy_task(np.arange(6.0), n_initial=2)
        config = RunConfig(mode=LENGTH_SCALE, m=1, K=3, R=1, seed=0)
        assert _init_state(task, config).inputs.shape == (2 + 3, 1)  # R windows of K
        assert _init_state(task, config, 2).outputs.shape == (2 + 2,)
        assert _init_state(task, config, 10**12).inputs.shape == (6, 1)  # 4 pool rows left to sample
        result = rerun_with_best_theta(task, None, 10**12, config)
        assert result.exhausted and result.n_samples == 4

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mode", [LENGTH_SCALE, MONOTONICITY])
    def test_every_step_equals_the_copying_forms(self, monkeypatch, mode, dim):
        # The references are the stacked, appended and recomputed forms of
        # the run's rows, its mask's active indices and its posterior's factor.
        task = make_gp_sample_task(dim, 0.2, n_points=80, seed=dim)
        config = RunConfig(mode=mode, m=1, K=12, R=1, seed=dim)
        theta = np.full(dim, 0.2) if mode == LENGTH_SCALE else np.tile([-6.0, 0.0], dim)
        observed, extended = [], []
        observe, extend = task.observe, PoolPosterior.extend

        def recording_observe(index, x):
            observed.append((index, x.copy(), observe(index, x)))
            return observed[-1][2]

        def recording_extend(posterior, rows):
            extended.append(len(np.array(rows, ndmin=2)))
            return extend(posterior, rows)

        monkeypatch.setattr(task, "observe", recording_observe)
        monkeypatch.setattr(PoolPosterior, "extend", recording_extend)
        state = _init_state(task, config)
        X, y, sampled, previous = state.X.copy(), state.y.copy(), state.sampled.copy(), None
        for step in range(12):
            if step == 6:
                # A negative jitter fails the next pivot, so that extend refactors from scratch.
                state.posterior.jitter = -1.0
            factorizations = state.posterior.factorizations if state.posterior else 1
            assert _inner_step(task, state, config, theta)
            index, x, value = observed[-1]
            X, y = np.vstack((X, x)), np.append(y, value)
            sampled[index] = True
            assert np.array_equal(state.X, X) and np.array_equal(state.y, y)
            assert state.candidates.excluded is state.sampled and np.array_equal(state.sampled, sampled)
            assert np.array_equal(state.candidates.active_indices, np.flatnonzero(~sampled))
            assert all(extended) and len(extended) == min(step, 1)  # a new posterior, then one row a step
            extended.clear()
            posterior = state.posterior
            L, alpha, V, sums = posterior.factors()
            assert np.array_equal(posterior.X, X[:-1]) and np.array_equal(np.triu(L, 1), np.zeros_like(L))
            if step == 6:
                assert posterior.factorizations == factorizations + 1
                whole = PoolPosterior(X[:-1], state.pool, posterior.params)
                whole.set_outputs(standardize(y[:-1])[0])
                assert posterior.jitter == whole.jitter >= 0.0
                assert all(map(np.array_equal, posterior.factors(), whole.factors()))
            else:
                assert posterior.factorizations == factorizations
            if previous is not None and step != 6:
                t = len(previous[0])
                assert np.array_equal(L[:t, :t], previous[0]) and np.array_equal(V[:t], previous[1])
            previous = L.copy(), V.copy()
            extend(posterior, X[:0])
            after = posterior.factors()
            assert after[0] is L and after[1] is alpha and after[3] is sums and np.array_equal(after[2], V)
            assert posterior.factorizations == factorizations + (step == 6)


class TestMonotonicWorkspaceInTheEngine:
    """The monotonic inner steps of a run share one workspace over its pool."""

    def test_one_workspace_serves_every_monotonic_step_of_a_run(self):
        task = make_goldstein_price_task(pool_size=80)
        config = RunConfig(mode=MONOTONICITY, seed=5)
        state = _init_state(task, config)
        thetas = [np.array([-6.0, 0.0, 0.0, -6.0]), None, np.array([0.0, -2.0, -1.0, 0.0])]
        workspace = None
        for theta in thetas * 2:
            assert _inner_step(task, state, config, theta)
            if theta is not None:
                workspace = workspace or state.monotonic
                assert state.monotonic is workspace and workspace.posterior.pool is state.pool
                assert np.array_equal(workspace.posterior.X, state.X[:-1])
        assert state.ep_fits == 4
        assert _init_state(task, config).monotonic is None

    def test_an_unpickled_task_keeps_one_pool_object(self, monkeypatch):
        # A pooled worker runs an unpickled task, whose pool array a
        # CandidateSet would otherwise wrap in a new view at every step.
        task = pickle.loads(pickle.dumps(make_gp_sample_task(2, 0.2, n_points=80, seed=6)))
        config = RunConfig(mode=MONOTONICITY, m=2, K=2, R=3, seed=6)
        state = _init_state(task, config)
        assert CandidateSet(state.pool).points is state.pool
        monkeypatch.setattr(FittedMonotonicGP, "predict_batch", lambda model, X: pytest.fail("predict_batch was called"))
        for theta in (np.array([-6.0, 0.0, 0.0, -6.0]), np.array([0.0, -2.0, -1.0, 0.0])):
            assert _inner_step(task, state, config, theta)
        assert state.monotonic.posterior.pool is state.pool and state.ep_fits == 2
        result = run_framework(task, config)
        assert result.ep_fits == 6 and result.n_samples == 6

    def test_every_strategy_of_a_seed_draws_the_same_locations(self, monkeypatch):
        # The locations come from the seed's own stream, whichever strictness
        # step of whichever strategy builds the workspace; plain BO builds none.
        import hyperbo.engine as engine

        built = []

        def recording_workspace(posterior, locations):
            built.append(MonotonicWorkspace(posterior, locations))
            return built[-1]

        monkeypatch.setattr(engine, "MonotonicWorkspace", recording_workspace)
        task = make_goldstein_price_task(pool_size=60)
        config = RunConfig(mode=MONOTONICITY, m=2, K=1, R=3, seed=11)
        hyperbo = run_framework(task, config)
        rerun_with_best_theta(task, hyperbo.best_theta, 3, config)  # best_theta_rerun
        rerun_with_best_theta(task, np.array([-6.0, 0.0, 0.0, -6.0]), 3, config)  # gold_standard_theta
        want = np.random.default_rng(np.random.SeedSequence(11).spawn(3)[1]).uniform(0.0, 1.0, size=(10, 2))
        assert len(built) == 3
        assert all(np.array_equal(workspace.locations, want) for workspace in built)
        rerun_with_best_theta(task, None, 3, config)  # standard_bo
        assert len(built) == 3

    @pytest.mark.parametrize("mode", [LENGTH_SCALE, MONOTONICITY])
    def test_plain_gp_steps_build_no_workspace(self, mode):
        task = make_goldstein_price_task(pool_size=60)
        config = RunConfig(mode=mode, seed=2)
        state = _init_state(task, config)
        for theta in (None, np.array([0.2, 0.3]) if mode == LENGTH_SCALE else None):
            assert _inner_step(task, state, config, theta)
        assert state.monotonic is None and state.posterior is not None


class TestWarmStartInTheEngine:
    """A monotonic step starts EP from the previous monotonic fit's sites when it keeps that fit's strictness."""

    @staticmethod
    def warm_steps(monkeypatch, run):
        """Run under a spy on engine.fit_monotonic_gp; per fit after the first, whether it was warm-started.

        Checks the contract at every fit: start is None at the run's first
        fit and wherever the strictness changed, else the previous fit's sites.
        """
        import hyperbo.engine as engine

        calls = []

        def recording_fit(workspace, y, strictness, start=None):
            model = fit_monotonic_gp(workspace, y, strictness, start)
            calls.append((strictness.copy(), start, model))
            return model

        with monkeypatch.context() as patch:
            patch.setattr(engine, "fit_monotonic_gp", recording_fit)
            run()
        assert calls and calls[0][1] is None
        warm = []
        for (previous, _, previous_model), (strictness, start, _) in zip(calls, calls[1:]):
            if np.array_equal(strictness, previous):
                assert start is previous_model.sites
            else:
                assert start is None
            warm.append(start is not None)
        return warm, [strictness for strictness, _, _ in calls]

    def test_a_fixed_theta_rerun_warm_starts_after_its_first_step(self, monkeypatch):
        task = make_goldstein_price_task(pool_size=120)
        config = RunConfig(mode=MONOTONICITY, seed=3)
        theta = np.array([-6.0, 0.0, 0.0, -6.0])
        warm, _ = self.warm_steps(monkeypatch, lambda: rerun_with_best_theta(task, theta, 10, config))
        assert warm == [True] * 9
        # Another run at the same theta starts cold: nothing outlives a run.
        warm, _ = self.warm_steps(monkeypatch, lambda: rerun_with_best_theta(task, theta, 3, config))
        assert warm == [True] * 2

    def test_a_k1_run_warm_starts_only_where_thompson_repeats_a_theta(self, monkeypatch):
        # One dimension: 48 thetas, so the outer loop repeats some.
        task = make_gp_sample_task(1, 0.2, n_points=80, seed=4)
        config = RunConfig(mode=MONOTONICITY, m=3, K=1, R=20, seed=4)
        warm, thetas = self.warm_steps(monkeypatch, lambda: run_framework(task, config))
        assert len(thetas) == 20
        assert warm == [np.array_equal(a, b) for a, b in zip(thetas, thetas[1:])]
        assert any(warm) and not all(warm)

    def test_steps_after_the_first_of_a_window_warm_start(self, monkeypatch):
        task = make_goldstein_price_task(pool_size=120)
        config = RunConfig(mode=MONOTONICITY, m=2, K=3, R=4, seed=8)
        warm, thetas = self.warm_steps(monkeypatch, lambda: run_framework(task, config))
        assert len(thetas) == 12
        for step in range(1, 12):
            if step % 3:
                assert warm[step - 1]
            else:
                assert warm[step - 1] == np.array_equal(thetas[step], thetas[step - 1])


def _selections(monkeypatch, run, refit):
    """The pool indices one run selects, through the pool posterior or, with refit, through gp_fit.

    With refit, also the smallest gap between the two best UCB scores of any
    step and the largest difference between the two paths' scores.
    """
    import hyperbo.engine as engine

    picks, margins, differences = [], [], []
    posterior_model = _fit_window_model

    def refit_model(state, theta):
        model = posterior_model(state, theta)
        if isinstance(model, PoolPosterior):
            refit_model.posterior = model
            return BatchPredictions(gp_fit(state.X, standardize(state.y)[0], model.params))
        return model

    def recording_ucb(model, candidates, beta):
        index, x = ucb_select(model, candidates, beta)
        picks.append(int(index))
        if refit:
            def scores(m):
                means, variances = m.predict_candidates(candidates)
                return means + np.sqrt(beta) * np.sqrt(np.maximum(variances, 0.0))

            ours = scores(model)
            top = np.sort(ours)[-2:]
            margins.append(top[1] - top[0] if len(ours) > 1 else np.inf)
            differences.append(np.abs(ours - scores(refit_model.posterior)).max())
        return index, x

    with monkeypatch.context() as patch:
        patch.setattr(engine, "ucb_select", recording_ucb)
        if refit:
            patch.setattr(engine, "_fit_window_model", refit_model)
        run()
    return picks, margins, differences


@pytest.mark.slow
def test_pool_posterior_selects_as_refits_over_a_seed_panel(monkeypatch):
    # The shipped length-scale and Goldstein-Price configs, 10 trial seeds each:
    # plain BO under the default kernel, and length-scale hyperbo (a new theta
    # at almost every step, so mostly rebuilds).
    gp_task = make_gp_sample_task(2, 0.2, n_points=300, seed=42)
    goldstein = make_goldstein_price_task(pool_size=500)
    runs = []
    for seed in range(10):
        ls = RunConfig(mode=LENGTH_SCALE, m=5, K=1, R=50, seed=9000 + seed, ucb_delta=5.0)
        mono = RunConfig(mode=MONOTONICITY, m=5, K=1, R=50, seed=7000 + seed)
        runs.append(lambda c=ls: rerun_with_best_theta(gp_task, None, 50, c))
        runs.append(lambda c=ls: run_framework(gp_task, c))
        runs.append(lambda c=mono: rerun_with_best_theta(goldstein, None, 50, c))
        runs.append(lambda s=seed: run_framework(goldstein, RunConfig(mode=LENGTH_SCALE, m=5, K=5, R=10, seed=s)))
    margins, differences = [], []
    for run in runs:
        ours, _, _ = _selections(monkeypatch, run, refit=False)
        oracle, run_margins, run_differences = _selections(monkeypatch, run, refit=True)
        assert ours == oracle
        margins += run_margins
        differences += run_differences
    print(
        f"POOL POSTERIOR: {len(runs)} runs, {len(margins)} steps, identical selections; "
        f"smallest top-2 UCB margin {min(margins):.2e}, largest score difference from a refit {max(differences):.2e}"
    )


@pytest.mark.slow
def test_monotonic_workspace_leaves_artifacts_as_fresh_fits_over_a_seed_panel(tmp_path, monkeypatch):
    # Goldstein-Price trial seeds 7000-7009, a d=3 GP draw and a d=4 one,
    # whose theta grid is above ENUMERATION_LIMIT, so its outer proposals
    # take the subsampled path.  The fresh path fits every step with the
    # joint EP oracle (the joint prior computed whole, the observations as
    # fixed sites), from zero sites, and predicts through predict_batch, as
    # monotonic steps did before the workspace, the warm start and the
    # conditioning on the observations.  Only the manifests' EP sweep counts
    # may differ, and the warm start takes fewer.
    import hyperbo.engine as engine

    panels = {
        "goldstein": dict(task={"kind": "goldstein_price", "pool_size": 500}, trials=10, budget=30, seed=7000),
        "gp-d3": dict(
            task={"kind": "gp_sample", "dim": 3, "length_scale": 0.2, "n_points": 300, "seed": 3},
            trials=2,
            budget=20,
            seed=500,
        ),
        "gp-d4": dict(
            task={"kind": "gp_sample", "dim": 4, "length_scale": 0.3, "n_points": 300, "seed": 4},
            trials=2,
            budget=15,
            seed=600,
        ),
    }

    def fresh_fit(workspace, y, strictness, start=None):
        posterior = workspace.posterior
        return BatchPredictions(joint_ep_fit(posterior.X, y, posterior.params, strictness, workspace.locations))

    for name, panel in panels.items():
        outputs, sweeps = {}, {}
        for path in ("workspace", "fresh"):
            config = ExperimentConfig(
                mode=MONOTONICITY,
                m=5,
                K=1,
                strategies=("standard_bo", "hyperbo", "best_theta_rerun"),
                output_dir=str(tmp_path / name / path),
                **panel,
            )
            with monkeypatch.context() as patch:
                if path == "fresh":
                    patch.setattr(engine, "fit_monotonic_gp", fresh_fit)
                outcome = run_experiment(config)
            assert outcome.ok
            outputs[path] = {p.name: p.read_bytes() for p in sorted(Path(outcome.output_dir).iterdir())}
            manifest = outputs[path]["manifest.json"] = json.loads(outputs[path]["manifest.json"])
            runs = [run for trial in manifest["trials"] for run in trial["strategies"].values()]
            sweeps[path] = sum(run.pop("ep_sweeps") for run in runs)
        assert outputs["workspace"] == outputs["fresh"]
        assert sweeps["workspace"] < sweeps["fresh"]
        print(f"WARM START {name}: {sweeps['fresh']} EP sweeps cold, {sweeps['workspace']} warm")
        assert sum(n.startswith("trace_") for n in outputs["workspace"]) == 3 * panel["trials"]
