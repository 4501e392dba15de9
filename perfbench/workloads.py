"""The benchmark's workloads: inputs derived from the workload seed, one
warm-up call, and the job list that one pass runs.

Every job calls the public API through module attributes looked up at call
time (`experiments.fit_eval`, `bo.bo_run`, `quad.pid_objective`), so the
same job list runs traced or untraced.

- fit_paper: the criteria 4/5 traffic. `fit_eval` on synthetic_1d and
  synthetic_2d (115 train / 80 test rows) at their calibrated settings with
  both models. Small matrices: per-call Python overhead and BLAS threading
  dominate.
- fit_large: four stacked synthetic_1d draws (460 train / 320 test rows,
  same two-cluster shift) at the synthetic_1d settings with t1=20. The
  O(n^3) factorizations and dense inverses of each round dominate.
- bo_pid: PID tuning on fig8 with both models (t_bo=50, n_init=5,
  `quad_surrogate_config`). Many small refits (n 5-55) and predictions over
  1,088 candidates per step; the simulator takes a large share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable

import numpy as np

from dilgp import bo, data, experiments, quad
from dilgp.rng import rng_for

MODELS = ("dil_gp", "gp_gaussian")
FIT_PAPER_DATASETS = ("synthetic_1d", "synthetic_2d")
BO_TRAJECTORY = quad.TrajectoryKind.FIG8
# Outputs of a job that the benchmark checks: finite, and equal across passes.
OUTPUT_KEYS = ("quality", "coverage", "incumbent_f")


@dataclass(frozen=True)
class Sizes:
    """Workload sizes. The defaults are the benchmark's; tests shrink them.
    None keeps the library's own budget for that knob."""

    fit_t1: int | None = None
    large_t1: int = 20
    large_draws: int = 4
    t_bo: int = 50
    n_init: int = 5
    bo_t1: int | None = None


FULL = Sizes()
TINY = Sizes(fit_t1=2, large_t1=1, large_draws=2, t_bo=3, n_init=4, bo_t1=2)


@dataclass
class Job:
    model: str
    label: str
    run: Callable[[], dict]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmup: Callable[[], dict]
    # Extra output check over one pass's outcomes (by job label), if any.
    check: Callable[[dict], list[str]] | None = None


def _budget(t1):
    return {} if t1 is None else {"t1": t1}


def _fit_job(train, test, settings, seed) -> dict:
    report, _ = experiments.fit_eval(train, test, settings, seed=seed)
    return {"quality": report.rmse, "coverage": report.coverage_rate}


def _stack(parts):
    return data.Dataset(np.vstack([p.x for p in parts]),
                        np.concatenate([p.y for p in parts]),
                        np.concatenate([p.domain_tag for p in parts]))


def fit_paper(seed: int, sizes: Sizes = FULL) -> Workload:
    jobs, warm = [], None
    for ds in FIT_PAPER_DATASETS:
        train, test = data.GENERATORS[ds](seed)
        for model in MODELS:
            settings = experiments.settings_for(ds, model, **_budget(sizes.fit_t1))
            jobs.append(Job(model, f"{ds}/{model}", partial(_fit_job, train, test, settings, seed)))
        if warm is None:
            warm = partial(_fit_job, train, test,
                           experiments.settings_for(ds, "dil_gp", t1=1), seed)
    return Workload("fit_paper", jobs, warm)


def fit_large(seed: int, sizes: Sizes = FULL) -> Workload:
    draws = [data.gen_synthetic_1d(seed * sizes.large_draws + k)
             for k in range(sizes.large_draws)]
    train = _stack([d[0] for d in draws])
    test = _stack([d[1] for d in draws])
    jobs = [Job(model, f"synthetic_1d_x{sizes.large_draws}/{model}",
                partial(_fit_job, train, test,
                        experiments.settings_for("synthetic_1d", model, t1=sizes.large_t1), seed))
            for model in MODELS]
    warm = partial(_fit_job, train, test, experiments.settings_for("synthetic_1d", "dil_gp", t1=1),
                   seed)
    return Workload("fit_large", jobs, warm)


def sim_seeds(seed: int) -> tuple[list[int], list[int]]:
    """Training and held-out simulator seeds, derived as quad_bo_experiment does."""
    train = rng_for(seed, "sim-train").integers(2 ** 31, size=experiments.N_TRAIN_SIM_SEEDS)
    heldout = rng_for(seed, "sim-heldout").integers(2 ** 31, size=experiments.N_HELDOUT_SIM_SEEDS)
    return [int(v) for v in train], [int(v) for v in heldout]


def step_times(calls, n_init: int) -> list[float]:
    """Surrogate-side time of each BO step from the objective calls' spans.

    `calls` holds (start, end, value) per objective call in order. The
    initial design takes calls until n_init finite values (a non-finite one
    is redrawn); each step then takes calls until one finite value (a
    non-finite one is re-proposed). A step's time is every gap between
    objective calls that falls inside it.
    """
    steps, i, finite = [], 0, 0
    while finite < n_init:
        finite += math.isfinite(calls[i][2])
        i += 1
    prev_end = calls[i - 1][1]
    while i < len(calls):
        gap = 0.0
        while True:
            start, end, value = calls[i]
            gap += start - prev_end
            prev_end = end
            i += 1
            if math.isfinite(value):
                break
        steps.append(gap)
    return steps


def _bo_job(model: str, seed: int, sizes: Sizes) -> dict:
    cfg = experiments.quad_surrogate_config(model, **_budget(sizes.bo_t1))
    train_seeds, heldout_seeds = sim_seeds(seed)
    calls = []

    def objective(x):
        start = perf_counter()
        value = quad.pid_objective(quad.PIDGains.from_array(x), quad.WIND_DOMAIN_TRAIN,
                                   [BO_TRAJECTORY], train_seeds)
        calls.append((start, perf_counter(), value))
        return value

    state, _ = bo.bo_run(objective, experiments.PID_SPACE, cfg, "ucb", sizes.t_bo,
                         n_init=sizes.n_init, seed=seed)
    heldout = quad.pid_objective(quad.PIDGains.from_array(state.incumbent_x),
                                 quad.WIND_DOMAIN_HELDOUT, [BO_TRAJECTORY], heldout_seeds)
    return {"quality": heldout, "incumbent_f": state.incumbent_f,
            "steps": step_times(calls, sizes.n_init),
            "failed_steps": len(state.failed_steps), "t_bo": sizes.t_bo}


def bo_equivalence(seed: int, sizes: Sizes, outcomes: dict) -> list[str]:
    """The outside-driven loop must reproduce quad_bo_experiment bit for bit."""
    problems = []
    for model in MODELS:
        ref = experiments.quad_bo_experiment(
            BO_TRAJECTORY, model, seed, sizes.t_bo, sizes.n_init,
            surrogate=experiments.quad_surrogate_config(model, **_budget(sizes.bo_t1)))
        got = outcomes[f"{BO_TRAJECTORY.value}/{model}"]["quality"]
        if ref["heldout_ace"] != got:
            problems.append(f"bo_pid {model}: heldout_ace {got!r} != "
                            f"quad_bo_experiment {ref['heldout_ace']!r}")
    return problems


def bo_pid(seed: int, sizes: Sizes = FULL) -> Workload:
    jobs = [Job(model, f"{BO_TRAJECTORY.value}/{model}", partial(_bo_job, model, seed, sizes))
            for model in MODELS]
    warm_sizes = Sizes(t_bo=1, n_init=4, bo_t1=2)   # dil_gp needs 4 points
    return Workload("bo_pid", jobs, partial(_bo_job, "dil_gp", seed, warm_sizes),
                    partial(bo_equivalence, seed, sizes))


WORKLOADS = {"fit_paper": fit_paper, "fit_large": fit_large, "bo_pid": bo_pid}


def output_problems(outcome: dict) -> list[str]:
    """Every fit returns a finite RMSE and coverage; every BO run a finite
    incumbent and held-out score."""
    return [f"{k} = {outcome[k]!r} is not finite" for k in OUTPUT_KEYS
            if k in outcome and not (outcome[k] is not None and math.isfinite(outcome[k]))]
