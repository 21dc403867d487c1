"""Task construction, dataset ingestion, correlation, and monotonicity reporting."""

import os

import numpy as np
import pytest

from hyperbo.tasks import (
    GOLDSTEIN_PRICE_MAXIMUM,
    DatasetError,
    DiscreteTask,
    UndefinedCorrelationError,
    goldstein_price,
    goldstein_price_native,
    latin_hypercube,
    load_dataset,
    make_goldstein_price_task,
    make_gp_sample_task,
    monotonicity_report,
    pearson_correlation,
    regret_trace,
)


def goldstein_price_oracle(x, y):
    """Independent arrangement of the Goldstein-Price polynomial (Horner-style)."""
    t1 = x + y + 1.0
    p1 = 19.0 + x * (-14.0 + 3.0 * x + 6.0 * y) + y * (-14.0 + 3.0 * y)
    t2 = 2.0 * x - 3.0 * y
    p2 = 18.0 + x * (-32.0 + 12.0 * x - 36.0 * y) + y * (48.0 + 27.0 * y)
    return (1.0 + t1 * t1 * p1) * (30.0 + t2 * t2 * p2)


class TestGoldsteinPrice:
    def test_known_values(self):
        assert goldstein_price_native((0.0, -1.0)) == pytest.approx(3.0, abs=1e-9)
        assert goldstein_price_native((0.0, 0.0)) == pytest.approx(600.0, abs=1e-9)

    def test_unit_square_mapping(self):
        # (0.5, 0.25) maps to native (0, -1), the global minimum.
        assert goldstein_price((0.5, 0.25)) == pytest.approx(3.0, abs=1e-9)

    def test_matches_independent_oracle(self, rng):
        for _ in range(1000):
            u = rng.uniform(0, 1, size=2)
            z = 4.0 * u - 2.0
            assert goldstein_price(u) == pytest.approx(
                goldstein_price_oracle(z[0], z[1]), rel=1e-9, abs=1e-9
            )

    def test_trend_signs_near_maximum_region(self):
        # Average slope over the quadrant containing the maximizer: the value
        # falls along x1 and rises along x2 on the way to the optimum.
        h = 1e-5
        g1 = np.linspace(0.0, 0.5, 50)
        g2 = np.linspace(0.5, 1.0, 50)
        s1, s2 = [], []
        for a in g1:
            for b in g2:
                ap, am = min(a + h, 1.0), max(a - h, 0.0)
                bp, bm = min(b + h, 1.0), max(b - h, 0.0)
                s1.append((goldstein_price((ap, b)) - goldstein_price((am, b))) / (ap - am))
                s2.append((goldstein_price((a, bp)) - goldstein_price((a, bm))) / (bp - bm))
        assert np.mean(s1) < 0
        assert np.mean(s2) > 0

    def test_task_optimum_dominates_samples(self, rng):
        task = make_goldstein_price_task()
        for _ in range(2000):
            assert task.optimum >= goldstein_price(rng.uniform(0, 1, size=2))

    def test_rejects_out_of_square(self):
        with pytest.raises(ValueError):
            goldstein_price((1.2, 0.0))

    def test_hard_coded_maximum_matches_scan(self):
        # Dense grid scan over [-2, 2]^2, then L-BFGS from the five best grid points.
        from scipy.optimize import minimize

        axis = np.linspace(-2.0, 2.0, 401)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        values = goldstein_price_oracle(xx, yy)
        best = float(values.max())
        for k in np.argsort(values.ravel())[-5:]:
            i, j = np.unravel_index(k, values.shape)
            res = minimize(
                lambda z: -goldstein_price_native(z),
                x0=np.array([axis[i], axis[j]]),
                bounds=[(-2.0, 2.0), (-2.0, 2.0)],
                method="L-BFGS-B",
            )
            best = max(best, float(-res.fun))
        assert GOLDSTEIN_PRICE_MAXIMUM == pytest.approx(best, rel=1e-12)
        assert make_goldstein_price_task().optimum == GOLDSTEIN_PRICE_MAXIMUM


class TestDiscreteTask:
    def test_rejects_out_of_range_inputs(self):
        for bad in (1.5, -0.2):
            with pytest.raises(ValueError, match="unit hypercube"):
                DiscreteTask(name="t", dim=2, optimum=1.0, X=[[bad, 0.0], [0.5, 0.5]], y=[0.0, 1.0])
        DiscreteTask(name="t", dim=2, optimum=1.0, X=[[0.0, 1.0], [0.5, 0.5]], y=[0.0, 1.0])


class TestLatinHypercube:
    def test_stratification(self, rng):
        X = latin_hypercube(10, 3, rng)
        assert X.shape == (10, 3)
        for g in range(3):
            strata = np.floor(X[:, g] * 10).astype(int)
            assert sorted(strata) == list(range(10))


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture
def simple_csv(tmp_path):
    path = tmp_path / "simple.csv"
    write_csv(
        path,
        ["a", "b", "target"],
        [[0.0, 10.0, 1.0], [2.0, 30.0, 5.0], [4.0, 20.0, 3.0], [1.0, 40.0, 2.0]],
    )
    return str(path)


class TestLoadDataset:
    def test_basic_load_and_normalization(self, simple_csv):
        task = load_dataset(simple_csv, target="target")
        assert task.dim == 2
        assert task.n_rows == 4
        assert task.optimum == 5.0
        assert np.all(task.X >= 0) and np.all(task.X <= 1)
        # Column-wise min-max: a ranges over [0,4], b over [10,40].
        np.testing.assert_allclose(task.X[:, 0], [0.0, 0.5, 1.0, 0.25], atol=1e-15)

    def test_normalization_round_trip(self, simple_csv):
        task = load_dataset(simple_csv, target="target")
        raw = np.array([[0.0, 10.0], [2.0, 30.0], [4.0, 20.0], [1.0, 40.0]])
        np.testing.assert_allclose(task.denormalize(task.X), raw, atol=1e-12)

    def test_feature_subset(self, simple_csv):
        task = load_dataset(simple_csv, target="target", features=["b"])
        assert task.dim == 1
        assert task.feature_names == ("b",)

    def test_lookup_is_pure(self, simple_csv):
        task = load_dataset(simple_csv, target="target")
        assert task.observe(1, task.X[1]) == task.observe(1, task.X[1]) == 5.0

    def test_missing_target_column(self, simple_csv):
        with pytest.raises(DatasetError, match="not in header"):
            load_dataset(simple_csv, target="nope")

    def test_missing_feature_column(self, simple_csv):
        with pytest.raises(DatasetError, match="missing feature"):
            load_dataset(simple_csv, target="target", features=["a", "zzz"])

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["a", "target"], [[1.0, 2.0], ["oops", 3.0]])
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(str(path), target="target")

    def test_keep_first_max_only_filter(self, tmp_path):
        path = tmp_path / "dupmax.csv"
        write_csv(path, ["a", "target"], [[0.0, 9.0], [1.0, 9.0], [2.0, 5.0], [3.0, 9.0]])
        task = load_dataset(str(path), target="target", filters=({"type": "keep_first_max_only"},))
        assert task.n_rows == 2  # rows 1 and 3 dropped
        assert np.sum(task.y == 9.0) == 1

    def test_drop_max_target_in_low_quantile_filter(self, tmp_path):
        path = tmp_path / "outlier.csv"
        # Young rows: ages 1..3; the young row with target 99 is the outlier.
        rows = [[1.0, 99.0], [2.0, 4.0], [3.0, 5.0]] + [[age, 10.0] for age in range(10, 40)]
        write_csv(path, ["AGE", "target"], rows)
        task = load_dataset(
            str(path),
            target="target",
            filters=({"type": "drop_max_target_in_low_quantile", "column": "AGE", "quantile": 0.1},),
        )
        assert task.n_rows == len(rows) - 1
        assert 99.0 not in task.y

    def test_unknown_filter_rejected(self, simple_csv):
        with pytest.raises(DatasetError, match="unknown filter"):
            load_dataset(simple_csv, target="target", filters=({"type": "bogus"},))


REAL_DATASETS = [
    ("data/concrete.csv", 8, 1030),
    ("data/power_plant.csv", 4, 9568),
    ("data/fish_toxicity.csv", 6, 908),
]


@pytest.mark.parametrize("path,dim,rows", REAL_DATASETS)
def test_real_dataset_shapes(path, dim, rows):
    # These ship separately; the canonical row/column counts are asserted when present.
    if not os.path.exists(path):
        pytest.skip(f"{path} not present")
    task = load_dataset(path, target=open(path).readline().strip().split(",")[-1])
    assert task.dim == dim
    assert task.n_rows == rows


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_textbook_formula(self, rng):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        n = 100
        num = n * np.sum(x * y) - np.sum(x) * np.sum(y)
        den = np.sqrt(n * np.sum(x * x) - np.sum(x) ** 2) * np.sqrt(n * np.sum(y * y) - np.sum(y) ** 2)
        assert pearson_correlation(x, y) == pytest.approx(num / den, abs=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson_correlation(np.ones(5), np.arange(5.0))


class TestMonotonicityReport:
    def test_symmetric_thetas_report_none(self):
        thetas = np.array([(-3.0, -3.0, -1.0, -1.0)] * 4)
        rows = monotonicity_report(thetas)
        assert all(r.direction == "none" for r in rows)

    def test_strict_increasing_dimension(self):
        rows = monotonicity_report(np.array([(0.0, -6.0, -1.0, -1.0)]))
        assert rows[0].direction == "increasing"
        assert rows[0].net == pytest.approx(6.0)
        assert rows[1].direction == "none"

    def test_strict_decreasing_dimension(self):
        rows = monotonicity_report(np.array([(-6.0, 0.0)]))
        assert rows[0].direction == "decreasing"
        assert rows[0].net == pytest.approx(-6.0)

    def test_match_flags_against_correlations(self):
        thetas = np.array([(0.0, -6.0, -6.0, 0.0)])
        rows = monotonicity_report(thetas, correlations=[0.8, 0.5])
        assert rows[0].matches_correlation is True  # increasing vs corr > 0
        assert rows[1].matches_correlation is False  # decreasing vs corr > 0

    def test_averages_across_trials(self):
        thetas = np.array([(-4.0, 0.0), (-2.0, 0.0)])
        rows = monotonicity_report(thetas)
        assert rows[0].mean_theta_minus == pytest.approx(-3.0)
        assert rows[0].net == pytest.approx(-3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_report(np.empty((0, 2)))


class TestGpSampleTask:
    def test_deterministic_and_consistent(self):
        a = make_gp_sample_task(2, 0.2, n_points=50, seed=3)
        b = make_gp_sample_task(2, 0.2, n_points=50, seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.optimum == a.y.max()


class TestRegretTrace:
    def test_non_negative_and_non_increasing_for_best_so_far(self, rng):
        task = make_gp_sample_task(2, 0.3, n_points=40, seed=1)
        values = task.y[rng.choice(40, size=10, replace=False)]
        best = np.maximum.accumulate(values)
        trace = regret_trace(best, task.optimum)
        assert np.all(trace >= 0)
        assert np.all(np.diff(trace) <= 0)
