"""How fast the shared host runs right now, from a fixed probe.

The host's speed drifts by up to 1.5x over minutes, in process CPU time as
much as in wall time (see NOTES.md), and so does the time of identical
work.  `probe` times a fixed mix of the program's three kinds of work: a
pure-Python loop, a Python loop over small numpy operations and dense
Cholesky factorizations.  A time measured between two probes is corrected
to the reference speed with `corrected`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the probe's time when the 2-CPU Xeon host this benchmark was first
# run on is in its fast state (one BLAS thread); corrected times read as
# seconds there.
REFERENCE_S = 0.03
ROUNDS = 3  # a probe is the median of this many rounds of the mix

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((300, 300))
_SPD = _A @ _A.T + 300.0 * np.eye(300)
_V = _rng.standard_normal(64)


def _round() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    x = _V.copy()
    for i in range(3_000):
        x = 0.5 * x + np.sqrt(np.abs(x[i % 64])) * _V
    for _ in range(8):
        np.linalg.cholesky(_SPD)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of the fixed mix now: the median of ROUNDS rounds."""
    return statistics.median(_round() for _ in range(ROUNDS))


def corrected(seconds: float, before: float, after: float) -> float:
    """A time measured between probes `before` and `after`, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
