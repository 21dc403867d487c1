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
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass
class CandidateSet:
    """Candidate points with an exclusion mask for already-sampled entries.

    A 2-D float array of points and a 1-D bool mask are held as they are, not
    copied or viewed, so a set over a pool array holds that very object and
    a caller's mask stays the set's own.  The active indices are computed
    once, at first use; change the mask only through `exclude`, which keeps
    them current.
    """

    points: np.ndarray
    excluded: np.ndarray = field(default=None)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.excluded is None:
            self.excluded = np.zeros(self.points.shape[0], dtype=bool)
        else:
            self.excluded = np.asarray(self.excluded, dtype=bool)
            if self.excluded.shape != self.points.shape[:1]:
                raise ValueError("exclusion mask length does not match candidate count")

    @cached_property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.excluded)

    def exclude(self, index: int) -> None:
        """Exclude the active candidate at index: set its mask entry and drop it from the active indices.

        The active indices become a new array, so one read before stays as it
        was.  ValueError for a candidate already excluded, IndexError for an
        index outside the points.
        """
        index = range(len(self.excluded))[index]
        if self.excluded[index]:
            raise ValueError(f"candidate {index} is already excluded")
        self.excluded[index] = True
        active = self.__dict__.get("active_indices")
        if active is not None:
            at = active.searchsorted(index)
            self.active_indices = np.concatenate((active[:at], active[at + 1 :]))


def ucb_beta(t: int, n_candidates: int, delta: float) -> float:
    """Confidence-width schedule beta_t = 2 * ln(n * t^2 * pi^2 / (6 * delta)).

    ValueError unless delta is a positive finite float and beta comes out
    finite: a tiny delta takes the ratio to inf, a huge one to 0.  beta is at
    or below 0 from delta = n * t^2 * pi^2 / 6 on; ucb_select rejects a
    negative one.
    """
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if n_candidates < 1:
        raise ValueError("candidate count must be positive")
    if not 0 < delta <= _FLOAT_MAX:  # exact for a Python int past float range too
        raise ValueError(f"delta must be a positive finite float, got {delta}")
    # In Python floats, which overflow to inf and underflow to 0 without a warning.
    ratio = float(n_candidates * t * t) * np.pi**2 / (6.0 * float(delta))
    if not 0.0 < ratio < np.inf:
        raise ValueError(f"the UCB beta at step {t} over {n_candidates} candidates is not finite for delta {delta}")
    return 2.0 * np.log(ratio)


def ucb_select(model, candidates: CandidateSet, beta: float) -> tuple[int, np.ndarray]:
    """Index and point maximizing mean + sqrt(beta) * std over active candidates.

    Ties break toward the lowest candidate index.  The model only needs a
    predict_candidates(candidates) -> (means, variances) method that answers
    for the rows of candidates.active_indices with two new float arrays: the
    scores are formed in them, in place.  The engine's models (a
    gp.PoolPosterior or a monotonic fit) answer only for sets whose points are
    their own pool array, and raise ValueError for any other.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    active = candidates.active_indices
    means, variances = model.predict_candidates(candidates)
    spread = np.sqrt(np.maximum(variances, 0.0, out=variances), out=variances)
    spread *= np.sqrt(beta)
    best = active[int(np.argmax(np.add(means, spread, out=means)))]
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
