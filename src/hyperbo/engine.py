"""The nested-optimization engine.

An inner GP-UCB loop acquires task samples in windows of K iterations, each
window driven by one candidate model theta (a length-scale vector or a
monotonicity strictness vector).  A completed window scores its gain over
sqrt((ln T)^(d+1) / T), the shape of the average GP-UCB regret bound at T
samples, so windows of different stages compare, times a norm regularizer set
by the grid; an outer Thompson-sampling loop over the model grid proposes the
next theta from a GP fit to the ledger of scores.  The first m windows use
uniformly random thetas to seed the ledger.  Proposals are index rows of the
model grid, and the ledger is one structured array filled window by window:
each row holds a window's index row, outer iteration, start T, gain and
score.  The inner steps of a run share
one pool array and two caches over it, the only source of their predictions:
a pool posterior for plain-GP steps and a workspace for monotonic fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hyperbo.acquisition import CandidateSet, thompson_select, ucb_beta, ucb_select
from hyperbo.gp import FittedGP, KernelParams, PoolPosterior, _cho_solve_lower, gp_fit, se_kernel_matrix, standardize
from hyperbo.monotonic import MonotonicWorkspace, fit_monotonic_gp
from hyperbo.tasks import Task, regret_trace

__all__ = [
    "LENGTH_SCALE",
    "MONOTONICITY",
    "MODES",
    "regret_normalizer",
    "LENGTH_SCALE_GRID",
    "MONOTONICITY_LEVELS",
    "ModelSpace",
    "RunConfig",
    "new_ledger",
    "RunResult",
    "model_score_window",
    "hyperbo_step",
    "run_framework",
    "rerun_with_best_theta",
]

LENGTH_SCALE = "length_scale"
MONOTONICITY = "monotonicity"
MODES = (LENGTH_SCALE, MONOTONICITY)

LENGTH_SCALE_GRID = tuple(round(0.10 + 0.05 * i, 2) for i in range(11))  # 0.10 .. 0.60
MONOTONICITY_LEVELS = tuple(float(v) for v in range(-6, 1))  # -6 .. 0

# All (theta_minus, theta_plus) integer pairs except the doubly-strict (-6, -6).
MONOTONICITY_PAIRS = tuple(
    (a, b) for a in MONOTONICITY_LEVELS for b in MONOTONICITY_LEVELS if not (a == -6.0 and b == -6.0)
)

# Per mode: the per-dimension option table, one row per option (a length scale,
# or a (theta_minus, theta_plus) strictness pair), and the sign of the score's
# norm regularizer: long length scales are penalized, strictness rewarded.
_OPTIONS = {
    LENGTH_SCALE: (tuple((v,) for v in LENGTH_SCALE_GRID), -1.0),
    MONOTONICITY: (MONOTONICITY_PAIRS, 1.0),
}

# Outer proposal: grids up to ENUMERATION_LIMIT thetas (monotonicity up to d=3,
# length scales up to d=5) compete whole through one exact posterior draw,
# larger ones through THOMPSON_SUBSAMPLE uniform draws plus the incumbent.  The
# GP over scored thetas has this noise and a length scale of this fraction of
# the unit cube per coordinate.
ENUMERATION_LIMIT = 200_000
THOMPSON_SUBSAMPLE = 500
THETA_GP_NOISE = 1e-4
THETA_GP_LS_FRACTION = 0.2

# Inner surrogate on standardized outputs: unit signal variance, this noise,
# and this length scale per dimension wherever theta does not set one.
SIGNAL_VARIANCE = 1.0
NOISE_VARIANCE = 1e-6
DEFAULT_LENGTH_SCALE = 0.3


def regret_normalizer(T: int, d: int) -> float:
    """sqrt((ln T)^(d+1) / T); requires T >= 2 so the numerator is positive."""
    if T < 2:
        raise ValueError(f"cumulative sample count must be >= 2, got {T}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return float(np.sqrt(np.log(T) ** (d + 1) / T))


class ModelSpace:
    """The discretized grid of candidate thetas, possibly too large to enumerate.

    A theta is a 1-D float array: each per-dimension chunk of its values is a
    row of the mode's option table, one length scale per dimension or one
    (theta_minus, theta_plus) pair per dimension with nu = 10^theta.  A grid
    point is a row of per-dimension option indices, which `rows` maps to its
    theta and `unit_rows` to the theta's unit coordinates.  lam, the score's
    regularization weight, is 1 / (max |option| * theta_dim).
    """

    def __init__(self, mode: str, dim: int):
        if mode not in _OPTIONS:
            raise ValueError(f"unknown mode {mode!r}")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.mode = mode
        self.dim = dim
        options, self._sign = _OPTIONS[mode]
        self._options = np.asarray(options, dtype=float)  # (per_dim, coords)
        self._unit_options = self.to_unit(self._options)
        self.lam = 1.0 / (float(np.abs(self._options).max()) * self.theta_dim)
        # The theta GP's kernels for tied scores (z all zero) and for z-scored scores of unit variance.
        scales = (THETA_GP_LS_FRACTION,) * self.theta_dim
        self._theta_gp_params = (KernelParams(1e-6, scales, THETA_GP_NOISE), KernelParams(1.0, scales, THETA_GP_NOISE))

    @property
    def per_dim(self) -> int:
        return self._options.shape[0]

    @property
    def size(self) -> int:
        return self.per_dim**self.dim

    @property
    def theta_dim(self) -> int:
        return self.dim * self._options.shape[1]

    def to_unit(self, theta_array: np.ndarray) -> np.ndarray:
        """Affine map of theta coordinates onto [0, 1] for the model-space GP."""
        lo, hi = self._options.min(), self._options.max()
        return (np.asarray(theta_array, dtype=float) - lo) / (hi - lo)

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """The thetas of index rows: one theta for a 1-D row, one theta per row of a 2-D array."""
        return self._options[indices].reshape(*indices.shape[:-1], self.theta_dim)

    def unit_rows(self, indices: np.ndarray) -> np.ndarray:
        """to_unit(rows(indices)), gathered from the option table in unit coordinates."""
        return self._unit_options[indices].reshape(*indices.shape[:-1], self.theta_dim)

    @cached_property
    def option_prior(self) -> tuple[np.ndarray, np.ndarray]:
        """K_1, the theta GP's unit-variance prior covariance among one dimension's options, and its Cholesky factor.

        Computed once per space.  K_1's smallest eigenvalue (3.8e-4 for
        monotonicity, 7.4e-6 for length scales) lets it factorize without jitter.
        """
        unit = self._unit_options
        k1 = se_kernel_matrix(unit, unit, KernelParams(1.0, (THETA_GP_LS_FRACTION,) * unit.shape[1]))
        return k1, np.linalg.cholesky(k1)

    def theta_gp_params(self, z: np.ndarray) -> KernelParams:
        """The theta GP's kernel for z-scored scores z: unit signal variance, or 1e-6 when the scores tie and z is all zero."""
        return self._theta_gp_params[bool(z.any())]

    def theta(self, values) -> np.ndarray:
        """values from outside the engine as a theta of this space.

        ValueError unless there are theta_dim values and every per-dimension
        chunk is a row of the option table.
        """
        theta = np.asarray(values, dtype=float)
        if theta.shape != (self.theta_dim,):
            raise ValueError(
                f"a {self.mode} theta of a {self.dim}-D task has {self.theta_dim} values, got shape {theta.shape}"
            )
        chunks = theta.reshape(self.dim, 1, -1)
        off = np.flatnonzero(~(chunks == self._options).all(axis=2).any(axis=1))
        if off.size:
            raise ValueError(f"{self.mode} theta {theta.tolist()} is off the grid in dimensions {off.tolist()}")
        return theta

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random index row."""
        return rng.integers(0, self.per_dim, size=self.dim)

    def score(self, gain: float, T: int, theta) -> float:
        """gain / regret_normalizer(T, dim) * (1 -/+ lam * ||theta||); zero gain scores zero at any T.

        gain is the window's best-so-far improvement in standardized units, never negative.
        """
        if gain < -1e-12:
            raise ValueError(f"gain must be non-negative (best-so-far is monotone), got {gain}")
        if gain <= 0.0:
            return 0.0
        base = gain / regret_normalizer(T, self.dim)
        return base * (1.0 + self._sign * self.lam * float(np.linalg.norm(theta)))


@dataclass
class RunConfig:
    """Parameters of one optimization run.

    m random windows seed the ledger, then the outer loop proposes thetas until
    R windows have completed; each window runs K inner UCB iterations.
    """

    mode: str
    m: int = 5
    K: int = 5
    R: int = 10
    seed: int = 0
    ucb_delta: float = 0.1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.m < 1 or self.K < 1:
            raise ValueError("m and K must be >= 1")
        if self.R < self.m:
            raise ValueError(f"R ({self.R}) must be >= m ({self.m})")


def new_ledger(size: int, dim: int) -> np.ndarray:
    """A zeroed ledger of `size` scored windows of a dim-D task, one structured row per window.

    Fields: "index", the window theta's index row; "outer", its outer
    iteration; "start_T", the inner sample count when it began; "gain" and
    "score".  The best window is the first argmax of "score".
    """
    fields = [("index", np.intp, (dim,)), ("outer", np.intp), ("start_T", np.intp), ("gain", float), ("score", float)]
    return np.zeros(size, dtype=fields)


@dataclass
class RunResult:
    """Outcome of a run: best observation, best model, ledger, regret trace and EP health.

    ep_fits counts the monotonic EP fits of the inner steps, ep_sweeps their
    EP sweeps in total, ep_nonconverged those that stopped at max_sweeps.
    """

    best_x: np.ndarray
    best_y: float
    best_theta: np.ndarray | None
    ledger: np.ndarray | None  # a `new_ledger` array, one row per scored window
    best_values: np.ndarray  # index 0 is the initial-design best
    regrets: np.ndarray
    exhausted: bool
    n_samples: int
    ep_fits: int
    ep_sweeps: int
    ep_nonconverged: int


@dataclass
class _RunState:
    X: np.ndarray  # observed inputs, one row per sample; the first n0 are the initial design
    y: np.ndarray
    n0: int
    pool: np.ndarray
    sampled: np.ndarray  # pool rows already observed
    rng: np.random.Generator
    locations: np.ndarray | None  # virtual derivative locations of a monotonicity run
    trial_scale: float
    posterior: PoolPosterior | None = None  # the plain-GP posterior over the pool, with its kernel
    monotonic: MonotonicWorkspace | None = None  # the monotonic fits' prior blocks, from the first monotonic step
    ep_start: tuple[np.ndarray, np.ndarray] | None = None  # the last monotonic fit's strictness and final sites
    ep_fits: int = 0
    ep_sweeps: int = 0
    ep_nonconverged: int = 0


def _fit_window_model(state: _RunState, config: RunConfig, theta: np.ndarray | None):
    """The inner surrogate on standardized outputs for the current theta.

    theta None means the fixed default kernel (the plain-BO baseline); the
    run's mode says what a theta's values are.  A plain GP (theta None, or a
    length-scale theta) is the run's pool posterior, rebuilt when theta
    changed its kernel.  A monotonic fit keeps the default kernel, so one
    workspace serves every monotonic step of the run, and the fit's EP health
    is counted here.  A monotonic step whose strictness is the previous
    monotonic step's starts EP from that fit's sites: every step after the
    first of a fixed-theta rerun, steps 2..K of a window, and a window whose
    theta repeats the one before it.  Every other monotonic step starts from
    zero sites.  Either cache is first extended by the rows observed
    since it last saw them.  UCB selection is invariant to the output
    standardization, so predictions are consumed in standardized units.
    """
    z, _ = standardize(state.y)
    monotonic = theta is not None and config.mode == MONOTONICITY
    scales = (DEFAULT_LENGTH_SCALE,) * state.X.shape[1] if monotonic or theta is None else tuple(theta.tolist())
    if monotonic:
        if state.monotonic is None:
            params = KernelParams(SIGNAL_VARIANCE, scales, NOISE_VARIANCE)
            state.monotonic = MonotonicWorkspace(params, state.locations, state.pool)
        cache = state.monotonic
    else:
        if state.posterior is None or state.posterior.params.length_scales != scales:
            params = KernelParams(SIGNAL_VARIANCE, scales, NOISE_VARIANCE)
            state.posterior = PoolPosterior(state.X, state.pool, params)
        cache = state.posterior
    cache.extend(state.X[cache.n :])
    if not monotonic:
        cache.set_outputs(z)
        return cache
    warm = state.ep_start is not None and np.array_equal(state.ep_start[0], theta)
    model = fit_monotonic_gp(cache, z, theta, start=state.ep_start[1] if warm else None)
    state.ep_start = (theta, model.sites)
    state.ep_fits += 1
    state.ep_sweeps += model.sweeps
    state.ep_nonconverged += not model.converged
    return model


def _inner_step(task: Task, state: _RunState, config: RunConfig, theta: np.ndarray | None) -> bool:
    """One UCB acquisition; returns False when the pool is exhausted."""
    candidates = CandidateSet(state.pool, excluded=state.sampled)
    n_active = candidates.active_indices.size
    if n_active == 0:
        return False
    model = _fit_window_model(state, config, theta)
    beta = ucb_beta(len(state.y) - state.n0 + 1, n_active, config.ucb_delta)
    index, x = ucb_select(model, candidates, beta)
    y = task.observe(index, x)
    state.X = np.vstack((state.X, x))
    state.y = np.append(state.y, y)
    state.sampled[index] = True
    return True


def model_score_window(
    task: Task,
    state: _RunState,
    config: RunConfig,
    space: ModelSpace,
    theta: np.ndarray,
) -> tuple[tuple[int, float, float] | None, bool]:
    """Run up to K inner iterations under theta and score the window.

    Returns ((start_T, gain, score), exhausted), the window's ledger fields.
    The first is None when the space was exhausted before any step completed.
    """
    start_T = len(state.y) - state.n0
    y_plus = float(np.max(state.y))
    completed = 0
    exhausted = False
    for _ in range(config.K):
        if not _inner_step(task, state, config, theta):
            exhausted = True
            break
        completed += 1
    if completed == 0:
        return None, exhausted
    f_plus = float(np.max(state.y))
    gain = (f_plus - y_plus) / state.trial_scale
    # T counts every inner sample so far; a one-sample first window would make
    # the normalizer degenerate.
    T = max(len(state.y) - state.n0, 2)
    return (start_T, gain, space.score(gain, T, theta)), exhausted


def hyperbo_step(ledger: np.ndarray, space: ModelSpace, rng: np.random.Generator) -> np.ndarray:
    """Propose the index row of the next theta: Thompson sampling on a GP over ledger scores.

    Scores are standardized before fitting; previously scored thetas stay in
    the candidate pool since window scores are noisy and re-scoring is
    informative.  A grid of up to ENUMERATION_LIMIT thetas competes whole
    through one exact posterior draw; a larger one through a uniform subsample
    plus the incumbent, the first of the best-scored windows.
    """
    if not len(ledger):
        raise ValueError("hyperbo_step needs at least one scored window")
    z, _ = standardize(ledger["score"])
    indices = ledger["index"]
    model = gp_fit(space.unit_rows(indices), z, space.theta_gp_params(z))
    if space.size <= ENUMERATION_LIMIT:
        return _pathwise_argmax(model, space, indices, rng)
    drawn = rng.integers(0, space.per_dim, size=(THOMPSON_SUBSAMPLE, space.dim))
    rows = np.vstack([drawn, indices[np.argmax(ledger["score"])]])
    index, _ = thompson_select(model, CandidateSet(space.unit_rows(rows)), rng)
    return rows[index].copy()


def _pathwise_argmax(model: FittedGP, space: ModelSpace, ledger: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The index row of the grid point where one exact posterior draw of model peaks.

    model is the theta GP fitted at the grid points whose index rows are
    ledger.  Matheron's rule (Wilson et al., ICML 2020): with f a prior draw
    over the grid and eps ~ N(0, noise I),
    f + K(grid, ledger) (K_ll + noise I)^-1 (z - f[ledger] - eps) is a
    posterior draw.  The SE kernel is a product over dimensions and the grid a
    product of option tables, so the prior covariance is the signal variance
    times a Kronecker product of one per-dimension table K_1 = L L^T
    (`ModelSpace.option_prior`).  f applies L along each axis of a
    standard-normal tensor, and K(grid, ledger) w contracts one dimension at a
    time without forming the grid-by-ledger matrix.
    """
    per_dim, dim, n = space.per_dim, space.dim, len(ledger)
    k1, chol = space.option_prior
    f = rng.standard_normal(space.size)
    for _ in range(dim):
        # Transform the leading axis, then rotate it to the back: after dim
        # steps every axis is transformed once and back in its place.
        f = (chol @ f.reshape(per_dim, -1)).T
    f = np.sqrt(model.params.signal_variance) * f.reshape(-1)
    at_ledger = f[np.ravel_multi_index(ledger.T, (per_dim,) * dim)]
    eps = np.sqrt(model.params.noise_variance) * rng.standard_normal(n)
    w = model.weights - _cho_solve_lower(model.chol, at_ledger + eps)
    cols = [k1[:, ledger[:, j]] for j in range(dim)]  # (per_dim, n) each
    lead = np.ones((1, n))
    for col in cols[:-1]:
        lead = (lead[:, None, :] * col[None, :, :]).reshape(-1, n)
    f += model.params.signal_variance * (lead @ (w[:, None] * cols[-1].T)).reshape(-1)
    return np.array(np.unravel_index(int(np.argmax(f)), (per_dim,) * dim))


def _init_state(task: Task, config: RunConfig) -> _RunState:
    seq = np.random.SeedSequence(config.seed)
    init_child, virtual_child, run_child = seq.spawn(3)
    init_rng = np.random.default_rng(init_child)
    indices, X0, y0 = task.initial_design(init_rng)
    # The one pool object of the run: every CandidateSet over it and both
    # inner-loop caches hold this very array (an unpickled task's array would
    # otherwise be wrapped in a fresh view by each CandidateSet).
    pool = np.asarray(task.build_pool(init_rng), dtype=float)
    # Initial-design entries that are pool members (dataset rows) are excluded
    # from re-sampling; synthetic designs live off-pool and flag nothing.
    sampled = np.zeros(pool.shape[0], dtype=bool)
    sampled[[i for i in indices if i >= 0]] = True
    locations = None
    if config.mode == MONOTONICITY:
        locations = np.random.default_rng(virtual_child).uniform(0.0, 1.0, size=(5 * task.dim, task.dim))
    return _RunState(
        X=np.array(X0, dtype=float),
        y=np.array(y0, dtype=float),
        n0=len(y0),
        pool=pool,
        sampled=sampled,
        rng=np.random.default_rng(run_child),
        locations=locations,
        trial_scale=standardize(y0)[1],
    )


def _result_from_state(task: Task, state: _RunState, best_theta, ledger, exhausted: bool) -> RunResult:
    # Iteration 0 is the initial-design best; ties keep the earliest sample.
    best_values = np.maximum.accumulate(state.y)[state.n0 - 1 :]
    best = int(np.argmax(state.y))
    return RunResult(
        best_x=state.X[best].copy(),
        best_y=float(state.y[best]),
        best_theta=best_theta,
        ledger=ledger,
        best_values=best_values,
        regrets=regret_trace(best_values, task.optimum),
        exhausted=exhausted,
        n_samples=len(state.y) - state.n0,
        ep_fits=state.ep_fits,
        ep_sweeps=state.ep_sweeps,
        ep_nonconverged=state.ep_nonconverged,
    )


def run_framework(task: Task, config: RunConfig) -> RunResult:
    """Full nested run: m random windows, then outer-proposed windows until R.

    Deterministic for a fixed (task, config): the seed drives the initial
    design, the virtual derivative locations, and every subsequent draw.
    """
    space = ModelSpace(config.mode, task.dim)
    state = _init_state(task, config)
    ledger = new_ledger(config.R, task.dim)
    n = 0
    exhausted = False

    for outer in range(1, config.R + 1):
        if outer <= config.m:
            index = space.sample(state.rng)
        else:
            index = hyperbo_step(ledger[:n], space, state.rng)
        window, hit_end = model_score_window(task, state, config, space, space.rows(index))
        if window is not None:
            ledger[n] = (index, outer, *window)
            n += 1
        if hit_end:
            exhausted = True
            break

    ledger = ledger[:n]
    best_theta = space.rows(ledger["index"][np.argmax(ledger["score"])]) if n else None
    return _result_from_state(task, state, best_theta, ledger, exhausted)


def rerun_with_best_theta(task: Task, theta: np.ndarray | None, budget: int, config: RunConfig) -> RunResult:
    """Plain inner BO with theta held fixed for `budget` iterations.

    theta None runs the fixed-default-kernel baseline.  Seeding matches
    run_framework, so runs with the same seed share the initial design and
    virtual derivative locations.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    state = _init_state(task, config)
    exhausted = False
    for _ in range(budget):
        if not _inner_step(task, state, config, theta):
            exhausted = True
            break
    return _result_from_state(task, state, theta, None, exhausted)
