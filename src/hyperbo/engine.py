"""The nested-optimization engine.

An inner GP-UCB loop acquires task samples in windows of K iterations, each
window driven by one candidate model theta (a length-scale vector or a
monotonicity strictness vector).  Completed windows are scored by
regret-normalized gain and appended to a ledger; an outer Thompson-sampling
loop over the discretized model grid proposes the next theta from a GP fit to
the ledger.  The first m windows use uniformly random thetas to seed the
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hyperbo.acquisition import CandidateSet, ExhaustedSearchSpaceError, thompson_select, ucb_beta, ucb_select
from hyperbo.gp import KernelParams, gp_fit, standardize
from hyperbo.monotonic import FittedMonotonicGP, VirtualDerivativeSet, fit_monotonic_gp
from hyperbo.scoring import LENGTH_SCALE, MODES, MONOTONICITY, default_lambda, score_model
from hyperbo.tasks import Task, regret_trace

__all__ = [
    "LENGTH_SCALE_GRID",
    "MONOTONICITY_LEVELS",
    "ModelTheta",
    "ModelSpace",
    "RunConfig",
    "LedgerRecord",
    "best_record",
    "RunResult",
    "model_score_window",
    "hyperbo_step",
    "run_framework",
    "rerun_with_best_theta",
]

LENGTH_SCALE_GRID = tuple(round(0.10 + 0.05 * i, 2) for i in range(11))  # 0.10 .. 0.60
MONOTONICITY_LEVELS = tuple(float(v) for v in range(-6, 1))  # -6 .. 0

# All (theta_minus, theta_plus) integer pairs except the doubly-strict (-6, -6).
MONOTONICITY_PAIRS = tuple(
    (a, b) for a in MONOTONICITY_LEVELS for b in MONOTONICITY_LEVELS if not (a == -6.0 and b == -6.0)
)

# Per-dimension option tables, one row per option: a length scale, or a
# (theta_minus, theta_plus) strictness pair.
_OPTIONS = {
    LENGTH_SCALE: tuple((v,) for v in LENGTH_SCALE_GRID),
    MONOTONICITY: MONOTONICITY_PAIRS,
}

# Outer proposal: grids up to THOMPSON_THRESHOLD thetas compete whole, larger
# ones through THOMPSON_SUBSAMPLE uniform draws plus the incumbent.  The GP over
# scored thetas has this noise and a length scale of this fraction of the
# unit cube per coordinate.
THOMPSON_THRESHOLD = 2000
THOMPSON_SUBSAMPLE = 500
THETA_GP_NOISE = 1e-4
THETA_GP_LS_FRACTION = 0.2


def _option_table(mode: str) -> tuple[tuple[float, ...], ...]:
    """The rows of a mode's per-dimension option table."""
    if mode not in _OPTIONS:
        raise ValueError(f"unknown mode {mode!r}")
    return _OPTIONS[mode]


@dataclass(frozen=True)
class ModelTheta:
    """One point of the model grid: length scales, or strictness exponents.

    A theta is valid when every per-dimension chunk of its values is a row of
    its mode's option table: one length scale per dimension, or one
    (theta_minus, theta_plus) pair per dimension with nu = 10^theta.
    """

    mode: str
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        options = _option_table(self.mode)
        width = len(options[0])
        if not values or len(values) % width:
            raise ValueError(f"a {self.mode} theta has {width} value(s) per dimension, got {len(values)} values")
        off = [g for g in range(len(values) // width) if values[g * width : (g + 1) * width] not in options]
        if off:
            raise ValueError(f"{self.mode} theta {values} is off the grid in dimensions {off}")
        object.__setattr__(self, "values", values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


class ModelSpace:
    """The discretized grid of candidate thetas, possibly too large to enumerate.

    A grid point is a row of per-dimension option indices; a validated
    ModelTheta is built only for the thetas a run actually scores.
    """

    def __init__(self, mode: str, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.mode = mode
        self.dim = dim
        self._options = np.asarray(_option_table(mode), dtype=float)  # (per_dim, coords)
        self._unit = self.to_unit(self._options)
        self._grid = None

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

    def grid_indices(self) -> np.ndarray:
        """Every grid point as an index row, in lexicographic order (cached).

        Only grids of at most THOMPSON_THRESHOLD points are enumerated.
        """
        if self._grid is None:
            self._grid = np.indices((self.per_dim,) * self.dim).reshape(self.dim, -1).T
        return self._grid

    def unit_points(self, indices: np.ndarray) -> np.ndarray:
        """Unit-cube coordinates of index rows, one row per grid point."""
        return self._unit[indices].reshape(len(indices), self.theta_dim)

    def theta_at(self, index_row) -> ModelTheta:
        return ModelTheta(self.mode, tuple(self._options[index_row].ravel()))

    def theta(self, values) -> ModelTheta:
        """values as a grid point of this space; ValueError if off the grid or of another dimension."""
        theta = ModelTheta(self.mode, values)
        if len(theta.values) != self.theta_dim:
            raise ValueError(
                f"a {self.mode} theta of a {self.dim}-D task has {self.theta_dim} values, got {len(theta.values)}"
            )
        return theta

    def sample(self, rng: np.random.Generator) -> ModelTheta:
        return self.theta_at(rng.integers(0, self.per_dim, size=self.dim))


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
    regularization: float | None = None  # defaults to the per-mode formula
    default_length_scale: float = 0.3
    signal_variance: float = 1.0
    noise_variance: float = 1e-6
    ucb_delta: float = 0.1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.m < 1 or self.K < 1:
            raise ValueError("m and K must be >= 1")
        if self.R < self.m:
            raise ValueError(f"R ({self.R}) must be >= m ({self.m})")

    def resolve_lambda(self, dim: int) -> float:
        if self.regularization is not None:
            return self.regularization
        return default_lambda(self.mode, dim)


@dataclass(frozen=True)
class LedgerRecord:
    theta: ModelTheta
    score: float
    window_start_T: int
    window_gain: float
    outer_index: int


def best_record(ledger: list[LedgerRecord]) -> LedgerRecord:
    """The highest-scoring window; ties keep the earliest.  ValueError when empty."""
    return max(ledger, key=lambda rec: rec.score)


@dataclass
class RunResult:
    """Outcome of a run: best observation, best model, ledger, regret trace and EP health.

    ep_fits counts the monotonic EP fits of the inner steps, ep_sweeps their
    EP sweeps in total, ep_nonconverged those that stopped at max_sweeps.
    """

    best_x: np.ndarray
    best_y: float
    best_theta: ModelTheta | None
    ledger: list[LedgerRecord] | None
    best_values: np.ndarray  # index 0 is the initial-design best
    regrets: np.ndarray
    exhausted: bool
    n_samples: int
    ep_fits: int
    ep_sweeps: int
    ep_nonconverged: int


@dataclass
class _RunState:
    X: np.ndarray  # observed inputs, one row per sample
    y: np.ndarray
    pool: np.ndarray
    observed: set
    rng: np.random.Generator
    virtual: VirtualDerivativeSet | None
    trial_scale: float
    initial_best: float = -np.inf
    inner_t: int = 0
    best_values: list = field(default_factory=list)
    best_x: np.ndarray = None
    best_y: float = -np.inf
    ep_fits: int = 0
    ep_sweeps: int = 0
    ep_nonconverged: int = 0

    def candidate_set(self) -> CandidateSet:
        mask = np.zeros(self.pool.shape[0], dtype=bool)
        if self.observed:
            mask[list(self.observed)] = True
        return CandidateSet(self.pool, excluded=mask)

    def record(self, x, y: float) -> None:
        if y > self.best_y:
            self.best_y = y
            self.best_x = np.asarray(x, dtype=float).copy()
        self.best_values.append(self.best_y)


def _fit_window_model(state: _RunState, config: RunConfig, theta: ModelTheta | None):
    """Fit the inner surrogate on standardized outputs for the current theta.

    theta None means the fixed default kernel (the plain-BO baseline).  UCB
    selection is invariant to the output standardization, so predictions are
    consumed in standardized units.
    """
    z, _ = standardize(state.y)
    if theta is not None and theta.mode == LENGTH_SCALE:
        params = KernelParams(config.signal_variance, theta.values, config.noise_variance)
        return gp_fit(state.X, z, params)
    params = KernelParams(
        config.signal_variance,
        tuple([config.default_length_scale] * state.X.shape[1]),
        config.noise_variance,
    )
    if theta is None:
        return gp_fit(state.X, z, params)
    return fit_monotonic_gp(state.X, z, params, theta.as_array(), state.virtual)


def _inner_step(task: Task, state: _RunState, config: RunConfig, theta: ModelTheta | None) -> bool:
    """One UCB acquisition; returns False when the pool is exhausted."""
    candidates = state.candidate_set()
    n_active = candidates.active_indices.size
    if n_active == 0:
        return False
    model = _fit_window_model(state, config, theta)
    if isinstance(model, FittedMonotonicGP):
        state.ep_fits += 1
        state.ep_sweeps += model.sweeps
        state.ep_nonconverged += not model.converged
    beta = ucb_beta(state.inner_t + 1, n_active, config.ucb_delta)
    try:
        index, x = ucb_select(model, candidates, beta)
    except ExhaustedSearchSpaceError:
        return False
    y = task.observe(index, x)
    state.X = np.vstack((state.X, x))
    state.y = np.append(state.y, y)
    state.observed.add(index)
    state.inner_t += 1
    state.record(x, y)
    return True


def model_score_window(
    task: Task,
    state: _RunState,
    config: RunConfig,
    theta: ModelTheta,
    outer_index: int,
    lam: float,
) -> tuple[LedgerRecord | None, bool]:
    """Run up to K inner iterations under theta and score the window.

    Returns (record, exhausted). The record is None when the space was
    exhausted before any step completed.
    """
    start_T = state.inner_t
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
    T = max(state.inner_t, 2)
    score = score_model(gain, T, task.dim, theta.values, lam, config.mode)
    record = LedgerRecord(
        theta=theta,
        score=score,
        window_start_T=start_T,
        window_gain=gain,
        outer_index=outer_index,
    )
    return record, exhausted


def hyperbo_step(ledger: list[LedgerRecord], space: ModelSpace, rng: np.random.Generator) -> ModelTheta:
    """Propose the next theta: Thompson sampling on a GP over ledger scores.

    Scores are standardized before fitting; previously scored thetas stay in
    the candidate pool since window scores are noisy and re-scoring is
    informative.  The whole grid competes, subsampled when very large.
    """
    if not ledger:
        raise ValueError("hyperbo_step needs at least one scored window")
    thetas = np.vstack([rec.theta.as_array() for rec in ledger])
    z, _ = standardize([rec.score for rec in ledger])
    params = KernelParams(
        max(float(np.var(z)), 1e-6),
        (THETA_GP_LS_FRACTION,) * space.theta_dim,
        THETA_GP_NOISE,
    )
    model = gp_fit(space.to_unit(thetas), z, params)
    incumbent = best_record(ledger).theta
    if space.size <= THOMPSON_THRESHOLD:
        grid = space.grid_indices()
        points = space.unit_points(grid)
    else:
        grid = rng.integers(0, space.per_dim, size=(THOMPSON_SUBSAMPLE, space.dim))
        points = np.vstack([space.unit_points(grid), space.to_unit(incumbent.as_array())])
    index, _ = thompson_select(model, CandidateSet(points), rng)
    return incumbent if index == len(grid) else space.theta_at(grid[index])


def _init_state(task: Task, config: RunConfig) -> _RunState:
    seq = np.random.SeedSequence(config.seed)
    init_child, virtual_child, run_child = seq.spawn(3)
    init_rng = np.random.default_rng(init_child)
    indices, X0, y0 = task.initial_design(init_rng)
    pool = task.build_pool(init_rng)
    # Initial-design entries that are pool members (dataset rows) are excluded
    # from re-sampling; synthetic designs live off-pool and flag nothing.
    observed = set(i for i in indices if i >= 0)
    virtual = None
    if config.mode == MONOTONICITY:
        virtual = VirtualDerivativeSet.sample(task.dim, np.random.default_rng(virtual_child))
    state = _RunState(
        X=np.array(X0, dtype=float),
        y=np.array(y0, dtype=float),
        pool=pool,
        observed=observed,
        rng=np.random.default_rng(run_child),
        virtual=virtual,
        trial_scale=standardize(y0)[1],
    )
    best_idx = int(np.argmax(y0))
    state.best_y = float(y0[best_idx])
    state.best_x = np.asarray(X0[best_idx], dtype=float).copy()
    state.initial_best = state.best_y
    return state


def _result_from_state(task: Task, state: _RunState, best_theta, ledger, exhausted: bool) -> RunResult:
    best_values = np.concatenate([[state.initial_best], state.best_values])
    return RunResult(
        best_x=state.best_x,
        best_y=state.best_y,
        best_theta=best_theta,
        ledger=ledger,
        best_values=best_values,
        regrets=regret_trace(best_values, task.optimum),
        exhausted=exhausted,
        n_samples=state.inner_t,
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
    lam = config.resolve_lambda(task.dim)
    state = _init_state(task, config)
    ledger: list[LedgerRecord] = []
    exhausted = False

    for outer in range(1, config.R + 1):
        if outer <= config.m:
            theta = space.sample(state.rng)
        else:
            theta = hyperbo_step(ledger, space, state.rng)
        record, hit_end = model_score_window(task, state, config, theta, outer, lam)
        if record is not None:
            ledger.append(record)
        if hit_end:
            exhausted = True
            break

    best_theta = best_record(ledger).theta if ledger else None
    return _result_from_state(task, state, best_theta, ledger, exhausted)


def rerun_with_best_theta(task: Task, theta: ModelTheta | None, budget: int, config: RunConfig) -> RunResult:
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
