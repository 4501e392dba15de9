"""End-to-end experiment harnesses shared by the CLI and the test suite:
fit/evaluate on a dataset, multi-seed sweeps with mean and max-deviation
aggregation, and PID-gain tuning on the simulator with a held-out wind
regime.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .bo import SearchSpace, bo_run
from .data import Dataset, EvalReport, coverage_rate, rmse
from .exceptions import InvalidSetting
from .quad import (TrajectoryKind, WIND_DOMAIN_HELDOUT, WIND_DOMAIN_TRAIN,
                   PIDGains, pid_objective)
from .rng import rng_for
from .train import ModelSpec, fit_model


# Per-dataset settings, selected from the sweep grids
# lam in {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 1.5, 2, 3} and
# lr in {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5}.
# sigma2 is in standardized-output units and is shared by both models.
# ModelSpec() is the synthetic_1d calibration, so only the datasets whose
# calibration differs from it are listed.
DATASET_DEFAULTS = {
    "synthetic_2d": {"eta1": 0.1, "eta2": 0.001, "lam": 0.01, "sigma2": 0.3},
}


def settings_for(dataset: str, model: str, **overrides) -> ModelSpec:
    """ModelSpec() with the dataset's calibrated values and then overrides."""
    return ModelSpec(model=model, **{**DATASET_DEFAULTS.get(dataset, {}), **overrides})


def fit_eval(train: Dataset, test: Dataset, settings: ModelSpec, seed: int = 0):
    """Fit with fit_model, predict the test rows, score in raw units.

    Coverage uses the observation-level predictive std sqrt(var + sigma^2)
    mapped back to raw units. Returns (EvalReport, TrainTrace).
    """
    fit = fit_model(settings, train, seed)
    mean_s, var_s = fit.predict(test.x)
    mean = fit.scaler.inverse_y(mean_s)
    std = fit.scaler.scale_y(np.sqrt(var_s + settings.sigma2))
    report = EvalReport(rmse=rmse(mean, test.y), n_test=test.n,
                        coverage_rate=coverage_rate(mean, std, test.y))
    if test.domain_tag is not None:
        report.per_domain_rmse = {
            int(tag): rmse(mean[test.domain_tag == tag], test.y[test.domain_tag == tag])
            for tag in np.unique(test.domain_tag)
        }
    return report, fit.trace


def sweep_seeds(load: Callable[[int], tuple[Dataset, Dataset]],
                settings: ModelSpec, seeds):
    """Refit across seeds: per seed, load(seed) gives (train, test), and the
    fit takes that training seed.

    Returns (reports, summary) where summary reports mean and max absolute
    deviation from the mean, the convention used for multi-run tables.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvalidSetting("a sweep needs at least one seed")
    reports = [fit_eval(*load(s), settings, seed=s)[0] for s in seeds]
    rmses = np.array([r.rmse for r in reports])
    covers = np.array([r.coverage_rate for r in reports])
    summary = {
        "rmse_mean": float(rmses.mean()),
        "rmse_max_dev": float(np.max(np.abs(rmses - rmses.mean()))),
        "coverage_mean": float(covers.mean()),
        "coverage_max_dev": float(np.max(np.abs(covers - covers.mean()))),
        "seeds": seeds,
    }
    return reports, summary


# Built-in BO test objective: known optimum at 0.3 with value 0.
QUADRATIC_SPACE = SearchSpace(np.array([0.0]), np.array([1.0]))
QUADRATIC_OPTIMUM = 0.3


def quadratic_objective(x) -> float:
    return float((np.asarray(x, dtype=float)[0] - QUADRATIC_OPTIMUM) ** 2)


PID_SPACE = SearchSpace(np.array([0.0, 0.0, 0.0]), np.array([5.0, 5.0, 5.0]))

# Simulator seeds per objective evaluation (training regime) and per held-out
# scoring. More held-out seeds stabilize the comparison between tuners.
N_TRAIN_SIM_SEEDS = 2
N_HELDOUT_SIM_SEEDS = 5


# Surrogate preset of the BO runs (the CLI's bo defaults too): a smaller
# budget than a one-off fit, since the surrogate is refit every step, with
# rates and noise calibrated on the PID-tuning objective.
BO_SPEC = ModelSpec(t1=30, t2=5, eta1=0.1, eta2=0.005, lam=0.01, sigma2=0.1)


def quad_surrogate_config(model: str, **overrides) -> ModelSpec:
    return replace(BO_SPEC, model=model, **overrides)


def quad_bo_experiment(kind: TrajectoryKind, model: str, experiment_seed: int,
                       t_bo: int = 50, n_init: int = 5, acq: str = "ucb",
                       surrogate: ModelSpec | None = None) -> dict:
    """Tune PID gains on the training wind regime, score on the held-out one.

    The simulator seeds for training evaluations and for held-out scoring are
    derived from experiment_seed, so two tuners given the same seed face the
    same disturbances. A surrogate spec must name model, the model reported.
    """
    cfg = surrogate if surrogate is not None else quad_surrogate_config(model)
    if cfg.model != model:
        raise InvalidSetting(f"surrogate trains {cfg.model!r} but the run reports {model!r}")
    train_seeds = [int(v) for v in
                   rng_for(experiment_seed, "sim-train").integers(2 ** 31, size=N_TRAIN_SIM_SEEDS)]
    heldout_seeds = [int(v) for v in
                     rng_for(experiment_seed, "sim-heldout").integers(2 ** 31, size=N_HELDOUT_SIM_SEEDS)]

    def objective(x):
        gains = PIDGains.from_array(x)
        return pid_objective(gains, WIND_DOMAIN_TRAIN, [kind], train_seeds)

    state, steps = bo_run(objective, PID_SPACE, cfg, acq, t_bo,
                          n_init=n_init, seed=experiment_seed)
    gains = PIDGains.from_array(state.incumbent_x)
    heldout = pid_objective(gains, WIND_DOMAIN_HELDOUT, [kind], heldout_seeds)
    return {
        "trajectory": kind.value,
        "model": model,
        "experiment_seed": experiment_seed,
        "gains": {"kp": gains.kp, "ki": gains.ki, "kd": gains.kd},
        "train_ace": state.incumbent_f,
        "heldout_ace": heldout,
        "heldout_seeds": heldout_seeds,
        "state": state,
        "steps": steps,
    }


def _first_divergent_step(a: list[dict], b: list[dict]) -> int | None:
    """The first BO step whose queries differ, None when all agree."""
    return next((ra["step"] for ra, rb in zip(a, b) if ra["x"] != rb["x"]), None)


def compare_tuners(kind: TrajectoryKind, experiment_seeds=(0, 1, 2, 3, 4)) -> dict:
    """Run the DIL-vs-plain-GP tuning comparison over several seeds.

    Each row holds both held-out ACE values, the strict outcome of dil_gp
    against gp_gaussian (win, tie or loss), dil_wins (dil <= gp: a tie
    counts as a win) and the first BO step whose queries differ (None when
    all agree); the result's dil_wins counts the rows where it holds."""
    rows = []
    for s in experiment_seeds:
        dil = quad_bo_experiment(kind, "dil_gp", s)
        gp = quad_bo_experiment(kind, "gp_gaussian", s)
        d, g = dil["heldout_ace"], gp["heldout_ace"]
        rows.append({"seed": s, "dil_heldout": d, "gp_heldout": g, "dil_wins": d <= g,
                     "outcome": "win" if d < g else "tie" if d == g else "loss",
                     "first_divergent_step": _first_divergent_step(dil["steps"], gp["steps"])})
    return {"trajectory": kind.value, "rows": rows,
            "dil_wins": sum(r["dil_wins"] for r in rows), "n_seeds": len(rows)}
