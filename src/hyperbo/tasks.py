"""Optimization tasks: synthetic test functions and dataset-backed discrete lookups.

All task inputs are normalized to the unit hypercube.  Discrete tasks treat the
retained rows of a tabular dataset as the search space (queries are exact
lookups, sampled without replacement); continuous tasks draw a fresh random
candidate pool for each trial.  A task knows its own optimum so runs can emit
simple-regret traces.
"""

from __future__ import annotations

import csv
import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DatasetError",
    "Task",
    "DiscreteTask",
    "ContinuousTask",
    "goldstein_price_native",
    "goldstein_price",
    "GOLDSTEIN_PRICE_MAXIMUM",
    "make_goldstein_price_task",
    "make_gp_sample_task",
    "load_dataset",
    "latin_hypercube",
    "pearson_correlation",
    "monotonicity_report",
    "regret_trace",
]


class DatasetError(ValueError):
    """Raised when a dataset file cannot be parsed into a task."""


def latin_hypercube(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n stratified points in [0,1]^dim, one per row/stratum per dimension."""
    out = np.empty((n, dim))
    for g in range(dim):
        strata = (rng.permutation(n) + rng.uniform(0, 1, size=n)) / n
        out[:, g] = strata
    return out


@dataclass
class Task:
    """Common task surface used by the optimization loops.

    A run draws one candidate pool per trial (dataset rows, or a random grid
    for continuous tasks) and samples it without replacement.
    """

    name: str
    dim: int
    optimum: float

    def initial_design(self, rng: np.random.Generator) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The pool rows among the design's points (none for an off-pool design), its points and their values."""
        raise NotImplementedError

    def build_pool(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def observe(self, index: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def correlation_sample(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


@dataclass
class DiscreteTask(Task):
    """Lookup task over the rows of a dataset, normalized to [0,1] per column."""

    X: np.ndarray = None
    y: np.ndarray = None
    feature_names: tuple[str, ...] = ()
    n_initial: int = 3

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("row/target count mismatch")
        if not np.all((self.X >= 0.0) & (self.X <= 1.0)):  # NaN is refused too
            raise ValueError("task rows must lie in the unit hypercube")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def initial_design(self, rng: np.random.Generator):
        n0 = min(self.n_initial, self.n_rows)
        idx = rng.choice(self.n_rows, size=n0, replace=False)
        return list(int(i) for i in idx), self.X[idx], self.y[idx]

    def build_pool(self, rng: np.random.Generator) -> np.ndarray:
        return self.X

    def observe(self, index: int, x: np.ndarray) -> float:
        return float(self.y[index])

    def correlation_sample(self) -> tuple[np.ndarray, np.ndarray]:
        return self.X, self.y


@dataclass
class ContinuousTask(Task):
    """Synthetic function searched over a per-trial random grid of pool_size points.

    fn maps a point to its value and an (n, dim) array to its n row values.
    """

    fn: object = None
    pool_size: int = 500

    def initial_design(self, rng: np.random.Generator):
        X = latin_hypercube(3 * self.dim, self.dim, rng)
        y = self.fn(X)
        return [], X, y

    def build_pool(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=(self.pool_size, self.dim))

    def observe(self, index: int, x: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def correlation_sample(self) -> tuple[np.ndarray, np.ndarray]:
        axes = [np.linspace(0, 1, 64)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
        return X, self.fn(X)


def goldstein_price_native(z):
    """Goldstein-Price at a point of the native [-2, 2]^2 domain, or at each column of a (2, n) array.

    The squares go through pow, as Python's float ** 2 does; numpy's array ** 2
    multiplies instead and differs in the last bit at about 0.1% of points.
    """
    x, y = np.asarray(z, dtype=float)
    a = 1.0 + np.float_power(x + y + 1.0, 2) * (19 - 14 * x + 3 * x * x - 14 * y + 6 * x * y + 3 * y * y)
    b = 30.0 + np.float_power(2 * x - 3 * y, 2) * (18 - 32 * x + 12 * x * x + 48 * y - 36 * x * y + 27 * y * y)
    return a * b


def goldstein_price(x01):
    """Goldstein-Price at a unit-square point, or at each row of an (n, 2) array (affine map to [-2, 2]^2)."""
    x01 = np.asarray(x01, dtype=float)
    if x01.ndim not in (1, 2) or x01.shape[-1] != 2:
        raise ValueError("Goldstein-Price takes a 2-vector or an (n, 2) array")
    if np.any(x01 < -1e-12) or np.any(x01 > 1 + 1e-12):
        raise ValueError("input must lie in the unit square")
    values = goldstein_price_native((4.0 * x01 - 2.0).T)
    return float(values) if x01.ndim == 1 else values


# Global maximum over [-2, 2]^2, from a dense grid scan polished by L-BFGS
# (tests/test_tasks.py recomputes it).
GOLDSTEIN_PRICE_MAXIMUM = 1015690.271798059


def make_goldstein_price_task(pool_size: int = 500) -> ContinuousTask:
    """Maximization of Goldstein-Price over the unit square."""
    return ContinuousTask(
        name="goldstein_price",
        dim=2,
        optimum=GOLDSTEIN_PRICE_MAXIMUM,
        fn=goldstein_price,
        pool_size=pool_size,
    )


def make_gp_sample_task(
    dim: int,
    length_scale: float,
    n_points: int = 300,
    seed: int = 0,
) -> DiscreteTask:
    """Discrete task whose targets are one draw from a unit-variance GP prior with known length scales.

    Useful as a ground-truth benchmark for length-scale recovery.
    """
    from hyperbo.gp import KernelParams, se_kernel_matrix

    rng = np.random.default_rng(seed)
    X = latin_hypercube(n_points, dim, rng)
    params = KernelParams(1.0, tuple([length_scale] * dim))
    K = se_kernel_matrix(X, X, params) + 1e-10 * np.eye(n_points)
    y = np.linalg.cholesky(K) @ rng.standard_normal(n_points)
    return DiscreteTask(
        name=f"gp_sample_ls{length_scale:g}_d{dim}",
        dim=dim,
        optimum=float(y.max()),
        X=X,
        y=y,
        feature_names=tuple(f"x{g + 1}" for g in range(dim)),
    )


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------


def _parse_rows(path: str, target: str, features) -> tuple[list[str], np.ndarray, np.ndarray]:
    names = isinstance(features, (list, tuple)) and all(isinstance(f, str) for f in features)
    if features is not None and not names:
        raise DatasetError(f"features must be a list of column names, got {reprlib.repr(features)}")
    # utf-8-sig drops the byte-order mark that a spreadsheet's "CSV UTF-8" export starts with.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target not in header:
            raise DatasetError(f"{path}: target column {reprlib.repr(target)} not in header {reprlib.repr(header)}")
        if features is None:
            features = [h for h in header if h != target]
        missing = [f for f in features if f not in header]
        if missing:
            raise DatasetError(f"{path}: missing feature columns {reprlib.repr(missing)}")
        if not features:
            raise DatasetError(f"{path}: no feature columns besides the target {reprlib.repr(target)}")
        columns = [*features, target]
        # A column loaded twice would be one search dimension twice, or the target a search input.
        for column in columns:
            if columns.count(column) > 1 or header.count(column) > 1:
                where = "header" if header.count(column) > 1 else "features and target"
                raise DatasetError(f"{path}: column {reprlib.repr(column)} is named more than once in the {where}")
        col_idx = [header.index(c) for c in columns]
        X_rows, y_rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values = [float(row[i]) for i in col_idx]
            except (ValueError, IndexError) as exc:
                raise DatasetError(f"{path}: line {line_no}: non-numeric or short row ({exc})") from None
            # float() also reads nan and inf, which no kernel or regret takes.
            for column, i, value in zip(columns, col_idx, values):
                if not math.isfinite(value):
                    cell = reprlib.repr(row[i])
                    raise DatasetError(f"{path}: line {line_no}: column {reprlib.repr(column)} holds {cell}, not a finite number")
            X_rows.append(values[:-1])
            y_rows.append(values[-1])
    if not X_rows:
        raise DatasetError(f"{path}: no data rows")
    return list(features), np.asarray(X_rows), np.asarray(y_rows)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number other than a bool, NaN, an infinity (Python's json reads those too) or an int past float range."""
    return (_is_int(value) and abs(value) <= sys.float_info.max) or (isinstance(value, float) and math.isfinite(value))


# The keys a filter object of each type takes.
_FILTER_KEYS = {
    "keep_first_max_only": ("type",),
    "drop_max_target_in_low_quantile": ("type", "column", "quantile"),
}


def _apply_filter(spec: dict, features: list[str], X: np.ndarray, y: np.ndarray):
    if not isinstance(spec, dict):
        raise DatasetError(f"a filter must be an object, got {reprlib.repr(spec)}")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _FILTER_KEYS:
        raise DatasetError(f"unknown filter type {reprlib.repr(kind)}; valid: {list(_FILTER_KEYS)}")
    unknown = [k for k in spec if k not in _FILTER_KEYS[kind]]
    if unknown:
        raise DatasetError(f"unknown keys {reprlib.repr(unknown)} in a {kind!r} filter; it takes {list(_FILTER_KEYS[kind])}")
    if kind == "keep_first_max_only":
        # Multiple rows attaining the maximum target: keep the first occurrence.
        at_max = np.flatnonzero(y == y.max())
        drop = set(int(i) for i in at_max[1:])
        keep = [i for i in range(len(y)) if i not in drop]
        return X[keep], y[keep]
    # drop_max_target_in_low_quantile, an outlier rule: among rows in the
    # lowest quantile of `column`, drop the single row with the highest target.
    if "column" not in spec:
        raise DatasetError(f"a {kind!r} filter needs the key 'column'")
    column = spec["column"]
    quantile = spec.get("quantile", 0.1)
    if not (_is_number(quantile) and 0 <= quantile <= 1):
        raise DatasetError(f"filter quantile must be a number in [0, 1], got {reprlib.repr(quantile)}")
    if column not in features:
        raise DatasetError(f"filter column {reprlib.repr(column)} is not a loaded feature")
    col = X[:, features.index(column)]
    threshold = np.quantile(col, quantile)
    in_q = np.flatnonzero(col <= threshold)
    drop = int(in_q[np.argmax(y[in_q])])
    keep = [i for i in range(len(y)) if i != drop]
    return X[keep], y[keep]


def load_dataset(
    path: str,
    target: str,
    features=None,
    filters: tuple[dict, ...] = (),
    n_initial: int = 3,
    name: str | None = None,
) -> DiscreteTask:
    """Parse a delimited text file into a discrete lookup task.

    Columns named in `features` (default: all but the target) become the
    normalized search dimensions; `filters` run in order before normalization;
    the task optimum is the retained maximum target.
    """
    features, X, y = _parse_rows(path, target, features)
    for spec in filters:
        X, y = _apply_filter(spec, features, X, y)
        if len(y) == 0:
            raise DatasetError(f"{path}: no rows left after filter {spec.get('type')!r}")
    mins = X.min(axis=0)
    with np.errstate(over="ignore"):  # a range past float range is refused below
        ranges = X.max(axis=0) - mins
    for column, span in zip(features, ranges):
        if not np.isfinite(span):
            raise DatasetError(f"{path}: column {reprlib.repr(column)} has a range past float range, so it cannot be normalized")
    ranges = np.where(ranges > 0, ranges, 1.0)  # constant columns map to 0
    X01 = (X - mins) / ranges
    return DiscreteTask(
        name=name or path,
        dim=X.shape[1],
        optimum=float(y.max()),
        X=X01,
        y=y,
        feature_names=tuple(features),
        n_initial=n_initial,
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def pearson_correlation(x, y) -> float | None:
    """Standard product-moment correlation; None where it is undefined, below two rows or for a constant column."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError("column lengths differ")
    if x.shape[0] < 2:
        return None
    xd = x - x.mean()
    yd = y - y.mean()
    sxx = float(np.dot(xd, xd))
    syy = float(np.dot(yd, yd))
    if sxx == 0.0 or syy == 0.0:
        return None
    return float(np.dot(xd, yd) / math.sqrt(sxx * syy))


@dataclass(frozen=True)
class MonotonicityRow:
    """One row of report.csv; the fields are its columns, in order."""

    dimension: int
    feature: str
    correlation: float | None
    mean_theta_minus: float
    mean_theta_plus: float
    net: float
    direction: str
    matches_correlation: bool | None


def monotonicity_report(
    best_thetas,
    feature_names=None,
    correlations=None,
) -> list[MonotonicityRow]:
    """Per-dimension summary of the monotonicity directions found across trials.

    best_thetas is an (n, 2d) array, one trial's strictness exponents
    [theta_1_minus, theta_1_plus, ...] per row.  net = mean(theta_minus) -
    mean(theta_plus): a stricter (more negative) increasing-direction
    strictness than decreasing-direction yields net > 0, reported as
    "increasing".  The direction is flagged against the sign of the
    provided correlation coefficient where it is defined (not None or NaN).
    """
    stacked = np.asarray(best_thetas, dtype=float)
    if stacked.ndim != 2 or stacked.shape[0] == 0:
        raise ValueError("monotonicity_report needs an (n, 2d) array with at least one trial")
    d = stacked.shape[1] // 2
    rows = []
    for g in range(d):
        minus = float(stacked[:, 2 * g].mean())
        plus = float(stacked[:, 2 * g + 1].mean())
        net = minus - plus
        direction = "increasing" if net > 0 else ("decreasing" if net < 0 else "none")
        corr = None if correlations is None else correlations[g]
        corr = None if corr is None or math.isnan(corr) else float(corr)
        match = None
        if corr is not None and direction != "none":
            match = (corr > 0) == (direction == "increasing")
        name = feature_names[g] if feature_names else f"x{g + 1}"
        rows.append(
            MonotonicityRow(
                dimension=g,
                feature=name,
                mean_theta_minus=minus,
                mean_theta_plus=plus,
                net=net,
                direction=direction,
                correlation=corr,
                matches_correlation=match,
            )
        )
    return rows


def regret_trace(best_values, optimum: float) -> np.ndarray:
    """Simple regret per iteration: optimum minus best observation so far.

    Sub-micro negative slack (an observation numerically grazing a refined
    continuous optimum) is clamped to zero; anything more negative indicates a
    mis-stated optimum and raises.
    """
    trace = optimum - np.asarray(best_values, dtype=float)
    floor = -1e-6 * max(1.0, abs(optimum))
    if np.any(trace < floor):
        raise ValueError(f"observation exceeds the stated optimum {optimum} by more than slack")
    return np.maximum(trace, 0.0)
