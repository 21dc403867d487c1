"""Small end-to-end demo: a 5-trial monotonicity search on Goldstein-Price.

Runs in well under a minute and prints the per-trial best strictness vectors
plus the aggregated direction report.  For the full 50-trial protocol use the
CLI with scripts/goldstein_monotonicity.json.
"""

import numpy as np

from hyperbo.engine import RunConfig, run_framework
from hyperbo.tasks import make_goldstein_price_task, monotonicity_report


def main():
    task = make_goldstein_price_task(pool_size=500)
    best = []
    for trial in range(5):
        config = RunConfig(mode="monotonicity", m=5, K=1, R=50, seed=7000 + trial)
        result = run_framework(task, config)
        best.append(result.best_theta)
        print(
            f"trial {trial}: best_theta={result.best_theta} "
            f"best_value={result.best_y:,.0f} final_regret={result.regrets[-1]:,.0f}"
        )
    print()
    for row in monotonicity_report(np.array(best)):
        print(
            f"x{row.dimension + 1}: mean strictness (dec {row.mean_theta_minus:+.2f} / inc {row.mean_theta_plus:+.2f}) "
            f"net {row.net:+.2f} -> {row.direction}"
        )
    print("\nExpected directions: x1 decreasing, x2 increasing (means stabilize at 50 trials).")


if __name__ == "__main__":
    main()
