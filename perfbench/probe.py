"""Layer probe: the per-layer timing table (Gaussian kernel, d = 2,
n in {115, 500, 1000}) measured through public functions.

Results are named by role, not by the function that currently plays it, so
that the names survive a refactor of the training internals.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from dilgp import gp, kernels, train

PROBE_NS = (115, 500, 1000)
SIGMA2 = 0.3      # the synthetic_2d calibrated noise, standardized units
ETA1, ETA2, LAM = 0.1, 0.001, 0.01
MIN_REPEATS, MAX_REPEATS, BUDGET_S = 3, 9, 0.3


def _problem(seed: int, n: int):
    rng = np.random.default_rng([seed, n])
    X = rng.standard_normal((n, 2))
    y = np.sin(3.0 * X[:, 0]) + 0.5 * np.cos(2.0 * X[:, 1]) + 0.3 * rng.standard_normal(n)
    y = (y - y.mean()) / y.std()
    logits = train.DomainLogits(0.1 * rng.standard_normal(n))
    return X, y, logits


def _calls(seed: int, n: int) -> dict:
    kind, params, noise = kernels.KernelKind.GAUSSIAN, kernels.KernelParams(), gp.NoiseSpec(SIGMA2)
    X, y, logits = _problem(seed, n)
    state = train.TrainState(kind, params, noise, X, y)
    return {
        "factor_s": lambda: gp.fit_posterior(kind, params, noise, X, y),
        "lml_grad_s": lambda: gp.lml_value_and_grad(kind, params, noise, X, y),
        "round_state_s": lambda: train.TrainState(kind, params, noise, X, y),
        "ascent_step_s": lambda: train.inner_ascent_step(logits, state, ETA1),
        "descent_step_s": lambda: train.outer_descent_step(params, logits, state, ETA2, LAM),
        "kernel_grads_s": lambda: kernels.kernel_grads(kind, params, X),
    }


def _median_time(fn) -> float:
    times = []
    spent = perf_counter()
    while len(times) < MIN_REPEATS or (len(times) < MAX_REPEATS
                                       and perf_counter() - spent < BUDGET_S):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(seed: int) -> dict[str, float]:
    """Median seconds per call, keyed 'probe.<role>.n<N>'."""
    for fn in _calls(seed, PROBE_NS[0]).values():   # first-call costs stay out of the table
        fn()
    return {f"probe.{role}.n{n}": _median_time(fn)
            for n in PROBE_NS for role, fn in _calls(seed, n).items()}
