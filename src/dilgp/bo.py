"""Bayesian optimization with a domain-invariant GP surrogate.

The loop minimizes a black-box objective over a box: fit the surrogate on
everything queried so far, minimize an acquisition over a random candidate
batch, query, repeat. Alongside the loop it maintains the diagnostics that
the GP-UCB style analysis uses: the beta_t schedule, cumulative information
gain, and the resulting regret bound, reported per step.

Swapping the invariant surrogate for a plain GP changes only the fitting
call; proposal, logging and diagnostics are the same code path.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .data import Dataset, Standardizer
from .exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                         ObjectiveFailure)
from .gp import GPPosterior, predict
from .rng import rng_for
from .train import ModelSpec, fit_model

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
    """Everything queried so far, in query order: the n_init initial points,
    then one row per surrogate-driven step, whose pre-query predictive std
    is in sigma_history. The incumbent is derived from the rows."""

    queried_x: np.ndarray
    queried_f: np.ndarray
    n_init: int = 0
    sigma_history: list[float] = field(default_factory=list)
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


@dataclass
class RegretDiagnostics:
    beta: np.ndarray
    info_gain: np.ndarray        # cumulative, includes the initial design's gain
    regret_bound: np.ndarray
    cum_regret: np.ndarray | None = None


def acquisition_ucb(mean, std, beta_t: float):
    """Lower-confidence score mean - sqrt(beta_t) * std (loop minimizes)."""
    return np.asarray(mean) - math.sqrt(beta_t) * np.asarray(std)


def acquisition_ei(mean, std, best_f: float):
    """Negated expected improvement below best_f (so argmin picks the best)."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improve = best_f - mean
    safe = np.where(std > 0, std, 1.0)
    z = improve / safe
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    ei = np.where(std > 0, improve * ndtr(z) + std * pdf, np.maximum(improve, 0.0))
    return -ei


def beta_schedule(t: int, bound_b: float, sigma: float, gamma_prev: float,
                  delta: float) -> float:
    """Exploration coefficient B + sigma * sqrt(2 (gamma_{t-1} + 1 + log(4/delta)))."""
    # log(4/delta) must stay positive; values up to 4 keep the radicand sane.
    if not 0.0 < delta < 4.0:
        raise ValueError(f"delta must be in (0, 4), got {delta!r}")
    if gamma_prev < 0:
        raise ValueError(f"gamma_prev must be >= 0, got {gamma_prev!r}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t!r}")
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


class Surrogate:
    """Fitted model over raw inputs; predictions are in the units the model
    was trained in (standardized y unless the spec turns that off)."""

    def __init__(self, post: GPPosterior, scaler: Standardizer, incumbent_x: np.ndarray):
        self.post = post
        self.scaler = scaler
        self.incumbent_x = incumbent_x

    def predict(self, X_raw) -> tuple[np.ndarray, np.ndarray]:
        mean, var = predict(self.post, self.scaler.transform_x(X_raw))
        return mean, np.sqrt(var)


def fit_surrogate(spec: ModelSpec, state: BOState, refit_seed: int) -> Surrogate:
    """Fit spec's model on everything queried so far (see fit_model)."""
    post, scaler, _ = fit_model(spec, Dataset(state.queried_x, state.queried_f), refit_seed)
    return Surrogate(post, scaler, state.incumbent_x)


def propose_next(surrogate: Surrogate, space: SearchSpace, acq, rng) -> np.ndarray:
    """Minimize the acquisition over 1024 uniform candidates plus 64 Gaussian
    perturbations of the incumbent (std = 5% of box width, clipped)."""
    cand_global = space.uniform(rng, N_GLOBAL_CANDIDATES)
    local = surrogate.incumbent_x + rng.standard_normal((N_LOCAL_CANDIDATES, space.k)) \
        * (LOCAL_STD_FRACTION * space.width)
    cand = np.vstack([cand_global, space.clip(local)])
    mean, std = surrogate.predict(cand)
    scores = np.asarray(acq(mean, std), dtype=float)
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
           f_star: float | None = None
           ) -> tuple[BOState, RegretDiagnostics]:
    """Sequential minimization loop with per-step regret diagnostics.

    Samples n_init uniform points, then for t = 1..t_bo refits the surrogate
    on everything queried, proposes the acquisition minimizer, evaluates the
    objective and records the predictive std at the queried point. A
    non-finite objective value is retried once: an initial point is redrawn
    uniformly, and a step is marked failed and re-proposed with a fresh
    candidate batch. A second consecutive failure raises ObjectiveFailure
    carrying the state so far.

    The cumulative information gain starts from the batch gain of the initial
    design (computed at the step-1 surrogate), so that with a fixed kernel
    the streaming total equals the batch log-det over all queried points.
    """
    if t_bo < 1 or n_init < 1:
        raise InvalidSetting(f"t_bo and n_init must be >= 1, got {t_bo} and {n_init}")
    if acq not in ("ucb", "ei"):
        raise InvalidSetting(f"acq must be 'ucb' or 'ei', got {acq!r}")
    rng_init = rng_for(seed, "bo-init")
    rng_cand = rng_for(seed, "bo-candidates")

    state = BOState(np.empty((0, space.k)), np.empty(0), n_init)
    for i, x in enumerate(space.uniform(rng_init, n_init)):
        state.add(*_query(objective, x, lambda: space.uniform(rng_init, 1)[0], state,
                          f"initial point {i}"))

    sigma2 = spec.sigma2
    sigma = math.sqrt(sigma2)
    betas, gains, bounds, cregs = [], [], [], []
    cum_gain = 0.0
    cum_regret = 0.0

    for t in range(1, t_bo + 1):
        sur = fit_surrogate(spec, state, rng_for(seed, "surrogate", t).integers(2 ** 31).item())
        if t == 1:
            cum_gain = _initial_info_gain(sur.post, sigma2)
        beta_t = beta_schedule(t, float(np.max(np.abs(state.queried_f))), sigma, cum_gain,
                               BETA_DELTA)
        if acq == "ucb":
            acq_fn = functools.partial(acquisition_ucb, beta_t=beta_t)
        else:
            acq_fn = functools.partial(acquisition_ei,
                                       best_f=sur.scaler.transform_y(state.incumbent_f))
        propose = functools.partial(propose_next, sur, space, acq_fn, rng_cand)
        x_t, val = _query(objective, propose(), propose, state, f"step {t}", step=t)
        _, std_t = sur.predict(x_t[None, :])
        sigma_t = float(std_t[0])

        state.add(x_t, val)
        state.sigma_history.append(sigma_t)
        cum_gain += information_gain_step(sigma2, sigma_t)
        betas.append(beta_t)
        gains.append(cum_gain)
        bounds.append(regret_bound(beta_t, cum_gain, t, sigma2))
        if f_star is not None:
            cum_regret += val - f_star
            cregs.append(cum_regret)

    diag = RegretDiagnostics(np.array(betas), np.array(gains), np.array(bounds),
                             np.array(cregs) if f_star is not None else None)
    return state, diag


def history_jsonl(state: BOState, diag: RegretDiagnostics) -> str:
    """One JSON record per surrogate-driven step."""
    lines = []
    t_bo = len(state.sigma_history)
    for t in range(t_bo):
        i = state.n_init + t
        best_so_far = float(np.min(state.queried_f[:i + 1]))
        rec = {
            "step": t + 1,
            "x": state.queried_x[i].tolist(),
            "f": float(state.queried_f[i]),
            "incumbent_f": best_so_far,
            "sigma_pred": state.sigma_history[t],
            "beta": float(diag.beta[t]),
            "info_gain": float(diag.info_gain[t]),
            "regret_bound": float(diag.regret_bound[t]),
        }
        if diag.cum_regret is not None:
            rec["cum_regret"] = float(diag.cum_regret[t])
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
