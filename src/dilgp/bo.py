"""Bayesian optimization with a domain-invariant GP surrogate.

The loop minimizes a black-box objective over a box: fit the surrogate on
everything queried so far, minimize an acquisition over a random candidate
batch, query, repeat. Each step is recorded once, as it finishes, in one
plain dict holding the query and the diagnostics that the GP-UCB style
analysis uses: the beta_t schedule, cumulative information gain, and the
resulting regret bound. train.to_jsonl writes those records as they are.

The surrogate is the train.Fit of fit_model. Swapping the invariant
surrogate for a plain GP changes only the spec's model; proposal, logging
and diagnostics are the same code path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                         ObjectiveFailure)
from .gp import GPPosterior
from .rng import rng_for
from .train import MIN_SPLIT_POINTS, Fit, ModelSpec, fit_model, learns_partition

N_GLOBAL_CANDIDATES = 1024
N_LOCAL_CANDIDATES = 64
LOCAL_STD_FRACTION = 0.05
# Confidence parameter delta of the beta_t schedule.
BETA_DELTA = 0.1


@dataclass(frozen=True)
class SearchSpace:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch(f"bounds shapes differ: {lo.shape} vs {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise NonFiniteInput("bounds contain NaN or infinity")
        if not np.all(lo < hi):
            raise ValueError("lower must be < upper elementwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def k(self) -> int:
        return self.lower.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, (n, self.k))

    def clip(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.lower, self.upper)


@dataclass
class BOState:
    """Everything queried so far, in query order (the initial design, then
    one row per surrogate-driven step), and the steps whose first query was
    non-finite. The incumbent is derived from the rows."""

    queried_x: np.ndarray
    queried_f: np.ndarray
    failed_steps: list[int] = field(default_factory=list)

    @property
    def incumbent_x(self) -> np.ndarray:
        """The row with the lowest value (the first such row); empty if none."""
        if not self.queried_f.size:
            return np.array([])
        return self.queried_x[int(np.argmin(self.queried_f))]

    @property
    def incumbent_f(self) -> float:
        return float(np.min(self.queried_f)) if self.queried_f.size else math.inf

    def add(self, x: np.ndarray, f: float):
        self.queried_x = np.vstack([self.queried_x, x])
        self.queried_f = np.append(self.queried_f, f)


def acquisition_ucb(mean, std, beta_t: float):
    """Lower-confidence score mean - sqrt(beta_t) * std (loop minimizes)."""
    return np.asarray(mean) - math.sqrt(beta_t) * np.asarray(std)


def acquisition_ei(mean, std, best_f: float):
    """Negated expected improvement below best_f (so argmin picks the best).
    Only this acquisition loads scipy.special, for its normal cdf."""
    from scipy.special import ndtr

    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improve = best_f - mean
    safe = np.where(std > 0, std, 1.0)
    z = improve / safe
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    ei = np.where(std > 0, improve * ndtr(z) + std * pdf, np.maximum(improve, 0.0))
    return -ei


def beta_schedule(bound_b: float, sigma: float, gamma_prev: float, delta: float) -> float:
    """Exploration coefficient B + sigma * sqrt(2 (gamma_{t-1} + 1 + log(4/delta)))."""
    # log(4/delta) must stay positive; values up to 4 keep the radicand sane.
    if not 0.0 < delta < 4.0:
        raise ValueError(f"delta must be in (0, 4), got {delta!r}")
    if gamma_prev < 0:
        raise ValueError(f"gamma_prev must be >= 0, got {gamma_prev!r}")
    return bound_b + sigma * math.sqrt(2.0 * (gamma_prev + 1.0 + math.log(4.0 / delta)))


def information_gain_step(sigma2_noise: float, sigma_pred: float) -> float:
    """Gain from one observation: 1/2 log(1 + sigma_pred^2 / sigma2_noise)."""
    if sigma2_noise <= 0:
        raise ValueError("sigma2_noise must be > 0")
    return 0.5 * math.log1p(sigma_pred ** 2 / sigma2_noise)


def regret_bound(beta_t: float, gamma_t: float, t: int, sigma2_noise: float) -> float:
    """beta_T sqrt(C1 T gamma_T) with C1 = 8 / log(1 + 1/sigma^2)."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t!r}")
    c1 = 8.0 / math.log1p(1.0 / sigma2_noise)
    return beta_t * math.sqrt(c1 * t * gamma_t)


def propose_next(fit: Fit, state: BOState, space: SearchSpace, acq, rng) -> np.ndarray:
    """Minimize the acquisition of fit's mean and std (model units) over 1024
    uniform candidates plus 64 Gaussian perturbations of state's incumbent
    (std = 5% of box width, clipped)."""
    cand_global = space.uniform(rng, N_GLOBAL_CANDIDATES)
    local = state.incumbent_x + rng.standard_normal((N_LOCAL_CANDIDATES, space.k)) \
        * (LOCAL_STD_FRACTION * space.width)
    cand = np.vstack([cand_global, space.clip(local)])
    mean, var = fit.predict(cand)
    scores = np.asarray(acq(mean, np.sqrt(var)), dtype=float)
    scores = np.where(np.isfinite(scores), scores, np.inf)
    return cand[int(np.argmin(scores))].copy()


def _initial_info_gain(post: GPPosterior, sigma2: float) -> float:
    """1/2 log det(I + K / sigma^2) over the fitted points, from the factor:
    log det(K + sigma^2 I) = 2 sum log diag L."""
    n = post.train_x.shape[0]
    return float(np.sum(np.log(np.diag(post.chol))) - 0.5 * n * math.log(sigma2))


def _query(objective, x: np.ndarray, redraw, state: BOState, where: str,
           step: int | None = None) -> tuple[np.ndarray, float]:
    """The objective at x. A non-finite value marks the step (if any) failed
    in state and retries once at redraw(); a second non-finite value raises
    ObjectiveFailure carrying state."""
    val = float(objective(x))
    if not math.isfinite(val):
        if step is not None:
            state.failed_steps.append(step)
        x = redraw()
        val = float(objective(x))
        if not math.isfinite(val):
            raise ObjectiveFailure(f"objective non-finite twice in a row at {where}",
                                   state=state)
    return x, val


def bo_run(objective, space: SearchSpace, spec: ModelSpec,
           acq: str, t_bo: int, n_init: int = 5, seed: int = 0,
           f_star: float | None = None) -> tuple[BOState, list[dict]]:
    """Sequential minimization loop; returns (state, steps).

    Samples n_init uniform points, then for t = 1..t_bo refits the surrogate
    on everything queried, proposes the acquisition minimizer and evaluates
    the objective. A non-finite objective value is retried once: an initial
    point is redrawn uniformly, and a step is marked failed and re-proposed
    with a fresh candidate batch. A second consecutive failure raises
    ObjectiveFailure carrying the state so far. A surrogate that learns a
    partition needs n_init >= train.MIN_SPLIT_POINTS, checked before the
    objective is called.

    steps holds one record per step, built when the step finishes: step (1
    to t_bo), x (a list), f, incumbent_f (lowest f so far, initial design
    included), sigma_pred (the surrogate's predictive std at x), beta,
    info_gain (cumulative), regret_bound and, when f_star is given,
    cum_regret (the sum of f - f_star over the steps so far).

    The cumulative information gain starts from the batch gain of the initial
    design (computed at the step-1 surrogate), so that with a fixed kernel
    the streaming total equals the batch log-det over all queried points.
    """
    if t_bo < 1 or n_init < 1:
        raise InvalidSetting(f"t_bo and n_init must be >= 1, got {t_bo} and {n_init}")
    if acq not in ("ucb", "ei"):
        raise InvalidSetting(f"acq must be 'ucb' or 'ei', got {acq!r}")
    if learns_partition(spec) and n_init < MIN_SPLIT_POINTS:
        raise InvalidSetting(f"n_init must be >= {MIN_SPLIT_POINTS} for {spec.model}, whose "
                             f"first fit splits the initial design, got {n_init}")
    rng_init = rng_for(seed, "bo-init")
    rng_cand = rng_for(seed, "bo-candidates")

    state = BOState(np.empty((0, space.k)), np.empty(0))
    for i, x in enumerate(space.uniform(rng_init, n_init)):
        state.add(*_query(objective, x, lambda: space.uniform(rng_init, 1)[0], state,
                          f"initial point {i}"))

    sigma2 = spec.sigma2
    sigma = math.sqrt(sigma2)
    steps = []
    cum_regret = 0.0

    for t in range(1, t_bo + 1):
        fit = fit_model(spec, Dataset(state.queried_x, state.queried_f),
                        rng_for(seed, "surrogate", t).integers(2 ** 31).item())
        if t == 1:
            cum_gain = _initial_info_gain(fit.post, sigma2)
        beta_t = beta_schedule(float(np.max(np.abs(state.queried_f))), sigma, cum_gain,
                               BETA_DELTA)
        if acq == "ucb":
            acq_fn = functools.partial(acquisition_ucb, beta_t=beta_t)
        else:
            acq_fn = functools.partial(acquisition_ei,
                                       best_f=fit.scaler.transform_y(state.incumbent_f))
        propose = functools.partial(propose_next, fit, state, space, acq_fn, rng_cand)
        x_t, val = _query(objective, propose(), propose, state, f"step {t}", step=t)
        sigma_t = float(np.sqrt(fit.predict(x_t[None, :])[1][0]))

        state.add(x_t, val)
        cum_gain += information_gain_step(sigma2, sigma_t)
        rec = {"step": t, "x": x_t.tolist(), "f": val, "incumbent_f": state.incumbent_f,
               "sigma_pred": sigma_t, "beta": beta_t, "info_gain": cum_gain,
               "regret_bound": regret_bound(beta_t, cum_gain, t, sigma2)}
        if f_star is not None:
            cum_regret += val - f_star
            rec["cum_regret"] = cum_regret
        steps.append(rec)
    return state, steps
