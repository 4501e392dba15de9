"""Domain-invariant Gaussian-process regression and Bayesian optimization.

The package trains a GP whose kernel parameters are penalized for fitting an
adversarially chosen soft split of the training data unevenly, which helps
when test data come from a shifted distribution. A BO loop, synthetic
shifted-cluster datasets and a PID-tuning flight simulator exercise it.
"""

from .bo import (BOState, RegretDiagnostics, SearchSpace,
                 acquisition_ei, acquisition_ucb, beta_schedule, bo_run,
                 information_gain_step, propose_next, regret_bound)
from .data import (Dataset, EvalReport, Standardizer, coverage_rate,
                   gen_synthetic_1d, gen_synthetic_2d, load_csv, rmse)
from .exceptions import (DilgpError, DimensionMismatch, InvalidSetting,
                         NonFiniteInput, NotPositiveDefinite, ObjectiveFailure,
                         TrainingAbort)
from .gp import (GPPosterior, NoiseSpec, env_log_likelihood, fit_posterior,
                 log_marginal_likelihood, predict, reset_variance_clamp_count,
                 variance_clamp_count)
from .kernels import KernelKind, KernelParams, kernel_matrix
from .quad import (PIDGains, SimResult, TrajectoryKind, WindDomainSpec,
                   dryden_wind, pid_objective, reference_trajectory, simulate)
from .train import (MODEL_KINDS, DomainLogits, ModelSpec, PenaltyReport,
                    TrainState, TrainTrace, env_masks, fit_model,
                    inner_ascent_step, irm_penalty, outer_descent_step,
                    train_dil_gp, train_vanilla_gp)

__version__ = "0.1.0"

__all__ = [
    "BOState", "RegretDiagnostics", "SearchSpace",
    "acquisition_ei", "acquisition_ucb", "beta_schedule", "bo_run",
    "information_gain_step", "propose_next", "regret_bound",
    "Dataset", "EvalReport", "Standardizer", "coverage_rate",
    "gen_synthetic_1d", "gen_synthetic_2d", "load_csv", "rmse",
    "DilgpError", "DimensionMismatch", "InvalidSetting", "NonFiniteInput",
    "NotPositiveDefinite",
    "ObjectiveFailure", "TrainingAbort",
    "GPPosterior", "NoiseSpec", "env_log_likelihood", "fit_posterior",
    "log_marginal_likelihood", "predict", "reset_variance_clamp_count",
    "variance_clamp_count",
    "KernelKind", "KernelParams", "kernel_matrix",
    "PIDGains", "SimResult", "TrajectoryKind", "WindDomainSpec",
    "dryden_wind", "pid_objective", "reference_trajectory", "simulate",
    "MODEL_KINDS", "DomainLogits", "ModelSpec", "PenaltyReport", "TrainState",
    "TrainTrace", "env_masks", "fit_model", "inner_ascent_step", "irm_penalty",
    "outer_descent_step", "train_dil_gp", "train_vanilla_gp",
    "__version__",
]
