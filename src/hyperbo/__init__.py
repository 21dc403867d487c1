"""Bayesian optimization with an outer model-search BO over GP hyperparameters.

An inner GP-UCB loop optimizes a black-box task while an outer Thompson-sampling
loop searches the space of GP models (length scales, or per-dimension
monotonicity strictness enforced via virtual derivative observations), scoring
each model by the regret-normalized gain it produced over a short window.
The layers live in their own modules (gp, monotonic, acquisition, engine,
tasks, bench, cli); importing the package loads none of them, nor numpy.
"""

__version__ = "0.1.0"

# A process that runs trials runs one BLAS thread: on a shared host, BLAS threads of
# several workers contend, and one d=8 EP fit took 7.3 s instead of 0.11 s.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
