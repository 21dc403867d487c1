"""Acquisition rules: UCB over a discrete candidate set and Thompson sampling.

Both selectors are pure functions of a fitted model's predictions, a
candidate set, and (for Thompson) an explicit generator, so trials can run in
parallel with independent streams.  Callers pass at least one unexcluded
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "CandidateSet",
    "ucb_beta",
    "ucb_select",
    "thompson_sample_argmax",
    "thompson_select",
]

_THOMPSON_JITTER = 1e-9


@dataclass
class CandidateSet:
    """Candidate points with an exclusion mask for already-sampled entries.

    A 2-D float array of points is held as is, not copied or viewed, so a set
    over a pool array holds that very object.  The active indices are
    computed once, at first use: change the mask before that or build a new
    set.
    """

    points: np.ndarray
    excluded: np.ndarray = field(default=None)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.excluded is None:
            self.excluded = np.zeros(self.points.shape[0], dtype=bool)
        else:
            self.excluded = np.asarray(self.excluded, dtype=bool).reshape(-1)
            if self.excluded.shape[0] != self.points.shape[0]:
                raise ValueError("exclusion mask length does not match candidate count")

    @cached_property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.excluded)


def ucb_beta(t: int, n_candidates: int, delta: float) -> float:
    """Confidence-width schedule beta_t = 2 * ln(n * t^2 * pi^2 / (6 * delta))."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if n_candidates < 1:
        raise ValueError("candidate count must be positive")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return 2.0 * np.log(n_candidates * t * t * np.pi**2 / (6.0 * delta))


def ucb_select(model, candidates: CandidateSet, beta: float) -> tuple[int, np.ndarray]:
    """Index and point maximizing mean + sqrt(beta) * std over active candidates.

    Ties break toward the lowest candidate index.  The model only needs a
    predict_candidates(candidates) -> (means, variances) method that answers
    for the rows of candidates.active_indices.  The engine's models (a
    gp.PoolPosterior or a monotonic fit) answer only for sets whose points are
    their own pool array, and raise ValueError for any other.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    active = candidates.active_indices
    means, variances = model.predict_candidates(candidates)
    scores = means + np.sqrt(beta) * np.sqrt(np.maximum(variances, 0.0))
    best = active[int(np.argmax(scores))]
    return best, candidates.points[best]


def thompson_sample_argmax(means: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> int:
    """Argmax of one joint Gaussian sample N(means, cov + jitter * I)."""
    means = np.asarray(means, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    chol = np.linalg.cholesky(cov + _THOMPSON_JITTER * np.eye(len(means)))
    draw = means + chol @ rng.standard_normal(len(means))
    return int(np.argmax(draw))


def thompson_select(model, candidates: CandidateSet, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """One posterior sample over the active candidates; returns its argmax.

    The model needs a predict_joint(X) -> (mean vector, covariance matrix)
    method; the sample is drawn jointly so correlated candidates compete
    coherently.
    """
    active = candidates.active_indices
    means, cov = model.predict_joint(candidates.points[active])
    best = active[thompson_sample_argmax(means, cov, rng)]
    return best, candidates.points[best]
