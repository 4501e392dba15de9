"""Adversarial environment inference, invariance-penalized GP training,
and the one fit path every caller uses.

Training alternates two moves. Per-point logits q_tilde define soft
assignments to two environments; gradient ascent on the invariance penalty
pushes the logits toward the split on which the kernel generalizes worst.
The kernel log-parameters then take one descent step on

    objective(theta) = -log marginal likelihood + lam * penalty

where the penalty sums, over both environments, the squared derivative of
the masked environment likelihood under a common rescaling of the
exponentiated parameters. At a parameterization that fits both environments
equally well those derivatives vanish, so the penalty rewards invariance.

All gradients are closed form except the theta-derivative of the penalty,
which is central finite differences.

`ModelSpec` holds every setting of one model, and `fit_model` is the single
standardize -> train -> factorize path shared by fit-eval, BO and the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import expit

from .data import Dataset, Standardizer, fit_standardizer
from .exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                         NotPositiveDefinite, TrainingAbort)
from .gp import (GPPosterior, NoiseSpec, _factor, _gaussian_quad_ll, _validate_xy,
                 fit_posterior, lml_value_and_grad)
from .kernels import (ACTIVE_PARAMS, PARAM_NAMES, KernelKind, KernelParams,
                      kernel_scale_direction)
from .rng import rng_for

# Central-difference step in the log-parameters for the penalty's theta-gradient.
_H_THETA = 1e-4
_MAX_HALVINGS = 8

# Model names accepted across the package; gp_* are plain GPs with the named
# kernel, dil_gp is the invariance-trained model.
MODEL_KINDS = {
    "dil_gp": KernelKind.GAUSSIAN,
    "gp_gaussian": KernelKind.GAUSSIAN,
    "gp_rq": KernelKind.RATIONAL_QUADRATIC,
    "gp_dp": KernelKind.DOT_PRODUCT,
}
# ModelSpec fields that only the invariance-trained model reads.
DIL_ONLY_FIELDS = ("t2", "eta1", "lam")


@dataclass(frozen=True)
class ModelSpec:
    """Every setting of one model fit.

    t1 is the number of outer descent steps (kernel parameters, rate eta2);
    t2, eta1 and lam drive the partition ascent and the penalty, and only
    dil_gp reads them. sigma2 is the observation noise variance in the units
    the model is trained in (standardized units when standardize is set).
    Training always starts from KernelParams().
    """

    model: str = "dil_gp"
    t1: int = 100
    t2: int = 10
    eta1: float = 0.1
    eta2: float = 0.05
    lam: float = 1.0
    sigma2: float = 0.01
    standardize: bool = True

    def __post_init__(self):
        for f in fields(self):
            value, want = getattr(self, f.name), type(f.default)
            ok = isinstance(value, (int, float) if want is float else want)
            if not ok or (isinstance(value, bool) and want is not bool):
                raise InvalidSetting(f"{f.name} must be of type {want.__name__}, got {value!r}")
        if self.model not in MODEL_KINDS:
            raise InvalidSetting(
                f"model must be one of {sorted(MODEL_KINDS)}, got {self.model!r}")
        min_t1 = 1 if self.model == "dil_gp" else 0
        if self.t1 < min_t1:
            raise InvalidSetting(f"t1 must be >= {min_t1} for {self.model}, got {self.t1}")
        if self.t2 < 0:
            raise InvalidSetting(f"t2 must be >= 0, got {self.t2}")
        for name in ("eta1", "eta2", "sigma2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidSetting(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidSetting(f"lam must be finite and >= 0, got {self.lam!r}")

    @property
    def kind(self) -> KernelKind:
        return MODEL_KINDS[self.model]

    @property
    def noise(self) -> NoiseSpec:
        return NoiseSpec(self.sigma2)


@dataclass
class DomainLogits:
    """Per-point logits of membership in environment 0."""

    q_tilde: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_tilde, dtype=float)
        if q.ndim != 1:
            raise DimensionMismatch(f"logits must be 1-D, got shape {q.shape}", q.shape, None)
        if not np.all(np.isfinite(q)):
            raise NonFiniteInput("logits contain NaN or infinity")
        self.q_tilde = q


def env_masks(logits: DomainLogits) -> tuple[np.ndarray, np.ndarray]:
    """Soft membership masks (m0, m1) = (sigmoid(q_tilde), 1 - sigmoid(q_tilde)).

    Computed through sigmoid(|q|), whose complement against 1 is exact in
    floating point, so that negating the logits swaps the two masks
    bit-for-bit and m0 + m1 == 1 holds exactly.
    """
    q = logits.q_tilde
    p = expit(np.abs(q))
    m0 = np.where(q >= 0, p, 1.0 - p)
    return m0, 1.0 - m0


@dataclass(frozen=True)
class PenaltyReport:
    penalty: float
    per_env_grad: tuple[float, float]


@dataclass
class TraceRecord:
    step: int
    objective: float
    penalty: float
    per_env_grad: tuple[float, float]
    params: KernelParams
    noise_sigma2: float

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "objective": self.objective,
            "penalty": self.penalty,
            "per_env_grad": list(self.per_env_grad),
            "params": self.params.to_dict(),
            "noise_sigma2": self.noise_sigma2,
        }


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    aborted: bool = False

    def __len__(self):
        return len(self.records)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in self.records)


class TrainState:
    """Data and factorizations cached at the current parameters.

    The parameters are fixed while the logits move, so the pieces the ascent
    needs repeatedly are computed once here: the sandwich matrix
    M = A^-1 C A^-1 (A = K + sigma^2 I, C = sum_p dK/dlog theta_p) and
    tr(A^-1 C). One ascent step then costs O(n^2).
    """

    def __init__(self, kind: KernelKind, params: KernelParams, noise: NoiseSpec, X, y):
        X, y = _validate_xy(X, y)
        self.kind = kind
        self.noise = noise
        self.X = X
        self.y = y
        n = X.shape[0]
        L, _ = _factor(kind, params, noise, X)
        A_inv = cho_solve((L, True), np.eye(n), check_finite=False)
        C = kernel_scale_direction(kind, params, X)
        self.M = A_inv @ C @ A_inv
        self.tr_AinvC = float(np.einsum("ij,ij->", A_inv, C))

    def per_env_scale_grads(self, m0: np.ndarray, m1: np.ndarray) -> tuple[float, float]:
        """d/dw of each environment's masked likelihood at w = 1."""
        g0, g1 = (float(0.5 * (v @ self.M @ v) - 0.5 * self.tr_AinvC)
                  for v in (self.y * m0, self.y * m1))
        return g0, g1

    def penalty(self, logits: DomainLogits) -> PenaltyReport:
        m0, m1 = env_masks(logits)
        g0, g1 = self.per_env_scale_grads(m0, m1)
        return PenaltyReport(g0 * g0 + g1 * g1, (g0, g1))

    def grad_q(self, logits: DomainLogits) -> np.ndarray:
        """Gradient of the penalty in the logits."""
        m0, m1 = env_masks(logits)
        g0, g1 = self.per_env_scale_grads(m0, m1)
        v0 = self.y * m0
        v1 = self.y * m1
        sig_prime = m0 * m1
        return 2.0 * self.y * sig_prime * (g0 * (self.M @ v0) - g1 * (self.M @ v1))


def irm_penalty(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                X, y, logits: DomainLogits) -> PenaltyReport:
    """Invariance penalty g0^2 + g1^2 with the per-environment derivatives.

    g_e is the derivative, at w = 1, of the environment-masked likelihood
    when every exponentiated kernel parameter is multiplied by the scalar w.
    """
    return TrainState(kind, params, noise, X, y).penalty(logits)


def inner_ascent_step(logits: DomainLogits, state: TrainState, eta1: float) -> DomainLogits:
    """One gradient-ascent step on the penalty in the logits."""
    g = state.grad_q(logits)
    if not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise TrainingAbort(f"non-finite logit gradient at coordinate {bad}")
    return DomainLogits(logits.q_tilde + eta1 * g)


def _penalty_at(kind: KernelKind, X, y, params: KernelParams, noise: NoiseSpec,
                m0: np.ndarray, m1: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Penalty for fixed masks at arbitrary parameters."""
    n = X.shape[0]
    L, _ = _factor(kind, params, noise, X)
    A_inv = cho_solve((L, True), np.eye(n), check_finite=False)
    C = kernel_scale_direction(kind, params, X)
    tr = float(np.einsum("ij,ij->", A_inv, C))
    gs = []
    for m in (m0, m1):
        am = cho_solve((L, True), y * m, check_finite=False)
        gs.append(float(0.5 * (am @ C @ am) - 0.5 * tr))
    g0, g1 = gs
    return g0 * g0 + g1 * g1, (g0, g1)


def _penalty_theta_grad(kind: KernelKind, X, y, params: KernelParams, noise: NoiseSpec,
                        m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Central finite differences of the penalty in the log-parameters."""
    g = np.zeros(4)
    for p_idx, name in enumerate(PARAM_NAMES):
        # Parameters the kernel never reads leave the penalty unchanged.
        if name not in ACTIVE_PARAMS[kind]:
            continue
        pp, _ = _penalty_at(kind, X, y, params.shifted(name, _H_THETA), noise, m0, m1)
        pm, _ = _penalty_at(kind, X, y, params.shifted(name, -_H_THETA), noise, m0, m1)
        g[p_idx] = (pp - pm) / (2.0 * _H_THETA)
    return g


def _descent_step(kind: KernelKind, X, y, params: KernelParams, noise: NoiseSpec,
                  m0, m1, eta2: float, lam: float):
    """One descent step on NLL + lam * penalty with step-halving on failure.

    A trial step whose objective is non-finite (or whose covariance cannot be
    factorized) is rejected and the step size halved, up to _MAX_HALVINGS
    times; after that the step aborts. With lam = 0 the masks are not read.
    """
    _, lml_grad = lml_value_and_grad(kind, params, noise, X, y)
    g = -lml_grad
    if lam != 0.0:
        g = g + lam * _penalty_theta_grad(kind, X, y, params, noise, m0, m1)
    theta = params.as_array()
    eta = float(eta2)
    for _ in range(_MAX_HALVINGS + 1):
        try:
            p2 = KernelParams.from_array(theta - eta * g)
            L, _ = _factor(kind, p2, noise, X)
            obj2 = -_gaussian_quad_ll(L, y)
            if lam != 0.0:
                pen2, per_env2 = _penalty_at(kind, X, y, p2, noise, m0, m1)
                obj2 = obj2 + lam * pen2
            else:
                pen2, per_env2 = 0.0, (0.0, 0.0)
        except (NonFiniteInput, NotPositiveDefinite, OverflowError):
            obj2 = math.inf
        if math.isfinite(obj2):
            return p2, {"objective": obj2, "penalty": pen2, "per_env_grad": per_env2}
        eta *= 0.5
    raise TrainingAbort(
        f"objective stayed non-finite after {_MAX_HALVINGS} step halvings "
        f"(initial step {eta2:g})")


def outer_descent_step(params: KernelParams, logits: DomainLogits, state: TrainState,
                       eta2: float, lam: float) -> KernelParams:
    """One parameter update on NLL + lam * penalty at fixed logits."""
    m0, m1 = env_masks(logits)
    p2, _ = _descent_step(state.kind, state.X, state.y, params, state.noise,
                          m0, m1, eta2, lam)
    return p2


def init_logits(n: int, seed: int) -> DomainLogits:
    """Small random logits: near-equal starting environments, but not the
    exactly symmetric point, where the penalty gradient can vanish."""
    rng = rng_for(seed, "domain-logits")
    return DomainLogits(0.1 * rng.standard_normal(n))


def train_dil_gp(spec: ModelSpec, X, y, seed: int
                 ) -> tuple[KernelParams, DomainLogits, TrainTrace]:
    """Alternating min-max training from KernelParams().

    Each of the spec.t1 rounds runs spec.t2 ascent steps on the logits
    (warm-started from the previous round), then one descent step on the
    kernel parameters. The trace holds one record per completed round, with
    objective, penalty and per-environment derivatives evaluated at the
    updated parameters. On abort the partial trace is attached to the raised
    TrainingAbort. With lam = 0 and t2 = 0 the parameter trajectory is
    bit-identical to train_vanilla_gp's.
    """
    X, y = _validate_xy(X, y)
    n = X.shape[0]
    if n < 4:
        raise DimensionMismatch(f"need at least 4 training points to split, got {n}",
                                (n,), None)
    kind, noise = spec.kind, spec.noise
    logits = init_logits(n, seed)
    params = KernelParams()
    trace = TrainTrace()
    for t in range(1, spec.t1 + 1):
        try:
            state = TrainState(kind, params, noise, X, y)
            for _ in range(spec.t2):
                logits = inner_ascent_step(logits, state, spec.eta1)
            m0, m1 = env_masks(logits)
            params, info = _descent_step(kind, X, y, params, noise, m0, m1,
                                         spec.eta2, spec.lam)
        except TrainingAbort as exc:
            trace.aborted = True
            exc.trace = trace
            raise
        if spec.lam != 0.0:
            pen, per_env = info["penalty"], info["per_env_grad"]
        else:
            pen, per_env = _penalty_at(kind, X, y, params, noise, m0, m1)
        trace.records.append(TraceRecord(t, info["objective"], pen, per_env,
                                         params, noise.sigma2))
    return params, logits, trace


def train_vanilla_gp(spec: ModelSpec, X, y) -> tuple[KernelParams, TrainTrace]:
    """Plain maximum-likelihood training from KernelParams(): spec.t1
    descent steps on the NLL alone at rate spec.eta2, sharing the step
    routine with train_dil_gp."""
    X, y = _validate_xy(X, y)
    kind, noise = spec.kind, spec.noise
    params = KernelParams()
    trace = TrainTrace()
    for t in range(1, spec.t1 + 1):
        try:
            params, info = _descent_step(kind, X, y, params, noise, None, None,
                                         spec.eta2, 0.0)
        except TrainingAbort as exc:
            trace.aborted = True
            exc.trace = trace
            raise
        trace.records.append(TraceRecord(t, info["objective"], 0.0, (0.0, 0.0),
                                         params, noise.sigma2))
    return params, trace


def fit_model(spec: ModelSpec, train: Dataset, seed: int
              ) -> tuple[GPPosterior, Standardizer | None, TrainTrace]:
    """Standardize (if spec.standardize), train spec.model, and factorize.

    The posterior lives in the units the model was trained in; the returned
    standardizer (None without standardization) maps between those units and
    the raw ones. seed drives the initial partition logits of dil_gp.
    """
    scaler = fit_standardizer(train) if spec.standardize else None
    ds = scaler.transform(train) if scaler is not None else train
    if spec.model == "dil_gp":
        params, _, trace = train_dil_gp(spec, ds.x, ds.y, seed)
    else:
        params, trace = train_vanilla_gp(spec, ds.x, ds.y)
    return fit_posterior(spec.kind, params, spec.noise, ds.x, ds.y), scaler, trace
