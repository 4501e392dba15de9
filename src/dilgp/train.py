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

Every gradient is closed form. Each parameter point is factorized once, by
gp.fit_posterior, into the TrainState that all quantities of a training
round read, and the state of the last accepted step holds the posterior
that prediction uses.

`ModelSpec` holds every setting of one model, and `fit_model` is the single
standardize -> train path shared by fit-eval, BO and the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cache, cached_property
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
from scipy.special import expit

from .data import Dataset, Standardizer, fit_standardizer
from .exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                         NotPositiveDefinite, TrainingAbort)
from .blas import one_thread
from .gp import (GPPosterior, NoiseSpec, _lml_grad, _validate_xy, cho_inverse,
                 fit_posterior)
from .kernels import KernelKind, KernelParams, kernel_grads, kernel_scale_direction_grads
from .rng import rng_for

_MAX_HALVINGS = 8

# Model names accepted across the package; gp_* are plain GPs with the named
# kernel, dil_gp is the invariance-trained model.
MODEL_KINDS = {
    "dil_gp": KernelKind.GAUSSIAN,
    "gp_gaussian": KernelKind.GAUSSIAN,
    "gp_rq": KernelKind.RATIONAL_QUADRATIC,
    "gp_dp": KernelKind.DOT_PRODUCT,
}


def setting(default, help=None, *, choices=None, minimum=None, when=None):
    """A dataclass field declaring one setting: the help of its flag, the
    bounds check_fields applies, and when(owner), true if a run reads it."""
    return field(default=default, metadata={"help": help, "choices": choices,
                                            "min": minimum, "when": when})


def check_fields(obj) -> None:
    """Raise InvalidSetting unless every field of the dataclass obj holds its
    annotated type, one of its choices and no less than its minimum. Nothing
    is converted: a str is not a bool, a bool or a float is not an int."""
    for f in fields(obj):
        value, want = getattr(obj, f.name), _field_types(type(obj))[f.name]
        if not _has_type(value, want):
            raise InvalidSetting(f"{f.name} must be of type "
                                 f"{getattr(want, '__name__', want)}, got {value!r}")
        choices, minimum = f.metadata.get("choices"), f.metadata.get("min")
        if value is not None and choices is not None and value not in choices:
            raise InvalidSetting(f"{f.name} must be one of {sorted(choices)}, got {value!r}")
        if value is not None and minimum is not None and value < minimum:
            raise InvalidSetting(f"{f.name} must be >= {minimum}, got {value!r}")


_field_types = cache(get_type_hints)


def _has_type(value, want) -> bool:
    if get_origin(want) is UnionType:
        return any(_has_type(value, t) for t in get_args(want))
    if get_origin(want) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(want)[0]) for v in value)
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, (int, float) if want is float else want)


def learns_partition(spec: ModelSpec) -> bool:
    """Whether the model infers a partition (only dil_gp does); only such a
    model reads the seed, t2, eta1 and lam."""
    return spec.model == "dil_gp"


@dataclass(frozen=True)
class ModelSpec:
    """Every setting of one model fit.

    t1 is the number of outer descent steps (kernel parameters, rate eta2);
    t2, eta1 and lam drive the partition ascent and the penalty, and only a
    model that learns_partition reads them. sigma2 is the observation noise
    variance in the units the model is trained in (standardized units when
    standardize is set). Training always starts from KernelParams(). The
    defaults are the synthetic_1d calibration.
    """

    model: str = setting("dil_gp", choices=MODEL_KINDS)
    t1: int = setting(100, "outer training steps")
    t2: int = setting(10, "inner partition-ascent steps", minimum=0, when=learns_partition)
    eta1: float = setting(0.1, "partition learning rate", when=learns_partition)
    eta2: float = setting(0.005, "parameter learning rate")
    lam: float = setting(0.01, "invariance penalty coefficient", when=learns_partition)
    sigma2: float = setting(0.4, "observation noise variance")
    standardize: bool = True

    def __post_init__(self):
        check_fields(self)
        min_t1 = 1 if learns_partition(self) else 0
        if self.t1 < min_t1:
            raise InvalidSetting(f"t1 must be >= {min_t1} for {self.model}, got {self.t1}")
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
            raise DimensionMismatch(f"logits must be 1-D, got shape {q.shape}")
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


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in self.records)


class TrainState:
    """Everything training reads at one parameter point, built on its posterior.

    With A = K + sigma^2 I, the posterior (the one factorization of A) holds
    the log marginal likelihood and alpha = A^-1 y. The dense A^-1, the stack
    K_p = dK/dlog theta_p, C = sum_p K_p and tr(A^-1 C) are formed once each,
    on first use, so a plain-GP round never builds C. dC/dlog theta_p and
    M = A^-1 C A^-1 live only in the call that reads them; an ascent step
    takes M v as A^-1 (C (A^-1 v)) in O(n^2).
    """

    def __init__(self, kind: KernelKind, params: KernelParams, noise: NoiseSpec, X, y):
        X, y = _validate_xy(X, y)
        self.post = fit_posterior(kind, params, noise, X, y)
        self.kind, self.params, self.noise, self.X, self.y = kind, params, noise, X, y

    @cached_property
    def A_inv(self) -> np.ndarray:
        return cho_inverse(self.post.chol)

    @cached_property
    def Kp(self) -> np.ndarray:
        return kernel_grads(self.kind, self.params, self.X)

    @cached_property
    def C(self) -> np.ndarray:
        return self.Kp.sum(axis=0)

    @cached_property
    def tr_AinvC(self) -> float:
        return float(np.einsum("ij,ij->", self.A_inv, self.C))

    def _env_terms(self, m0: np.ndarray, m1: np.ndarray):
        """Per environment e: g_e = 1/2 a^T C a - 1/2 tr(A^-1 C), the derivative
        at w = 1 of its masked likelihood, with a = A^-1 (y m_e) and C a."""
        out = []
        for m in (m0, m1):
            a = self.A_inv @ (self.y * m)
            Ca = self.C @ a
            out.append((float(0.5 * (a @ Ca) - 0.5 * self.tr_AinvC), a, Ca))
        return out

    def penalty(self, m0: np.ndarray, m1: np.ndarray) -> PenaltyReport:
        g0, g1 = (g for g, _, _ in self._env_terms(m0, m1))
        return PenaltyReport(g0 * g0 + g1 * g1, (g0, g1))

    def grad_q(self, logits: DomainLogits) -> np.ndarray:
        """Gradient of the penalty in the logits."""
        m0, m1 = env_masks(logits)
        (g0, _, Ca0), (g1, _, Ca1) = self._env_terms(m0, m1)
        return 2.0 * self.y * (m0 * m1) * (self.A_inv @ (g0 * Ca0 - g1 * Ca1))

    def objective_grad(self, masks, lam: float) -> np.ndarray:
        """Gradient of -LML + lam * penalty in the four log-parameters at fixed
        masks (m0, m1). With lam = 0 the masks are not read."""
        g = -_lml_grad(self.Kp, self.post.alpha_vec, self.A_inv)
        if lam != 0.0:
            g = g + lam * self._penalty_theta_grad(*masks)
        return g

    def _penalty_theta_grad(self, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
        """The penalty's gradient in the log-parameters, from the trace identity
        applied to g_e (dA/dlog theta_p = K_p, dC/dlog theta_p = D_p):

            dg_e/dtheta_p = -a^T K_p A^-1 C a + 1/2 a^T D_p a
                            + 1/2 tr(K_p M) - 1/2 tr(A^-1 D_p).
        """
        A_inv, Kp = self.A_inv, self.Kp
        D = kernel_scale_direction_grads(self.kind, self.params, self.X)
        shared = -0.5 * np.einsum("pij,ij->p", D, A_inv)
        shared += 0.5 * np.einsum("pij,ij->p", Kp, A_inv @ self.C @ A_inv)
        grad = np.zeros(4)
        for g, a, Ca in self._env_terms(m0, m1):
            dg = -(Kp @ (A_inv @ Ca)) @ a + 0.5 * (D @ a) @ a + shared
            grad += 2.0 * g * dg
        return grad


def irm_penalty(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                X, y, logits: DomainLogits) -> PenaltyReport:
    """Invariance penalty g0^2 + g1^2 with the per-environment derivatives.

    g_e is the derivative, at w = 1, of the environment-masked likelihood
    when every exponentiated kernel parameter is multiplied by the scalar w.
    """
    return TrainState(kind, params, noise, X, y).penalty(*env_masks(logits))


def inner_ascent_step(logits: DomainLogits, state: TrainState, eta1: float) -> DomainLogits:
    """One gradient-ascent step on the penalty in the logits."""
    g = state.grad_q(logits)
    if not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise TrainingAbort(f"non-finite logit gradient at coordinate {bad}")
    return DomainLogits(logits.q_tilde + eta1 * g)


def _descend(kind: KernelKind, noise: NoiseSpec, X, y, theta: np.ndarray,
             g: np.ndarray, eta2: float, lam: float, masks
             ) -> tuple[TrainState, float, PenaltyReport]:
    """The state, objective -LML + lam * penalty and penalty at the masks
    (zero without masks) after one step from theta along -g. A trial point
    whose objective is non-finite (or whose covariance cannot be factorized)
    is rejected and the step halved, up to _MAX_HALVINGS times; then the
    step aborts."""
    eta = float(eta2)
    for _ in range(_MAX_HALVINGS + 1):
        try:
            state = TrainState(kind, KernelParams.from_array(theta - eta * g), noise, X, y)
            pen = state.penalty(*masks) if masks else PenaltyReport(0.0, (0.0, 0.0))
            obj = -state.post.lml
            if lam != 0.0:
                obj += lam * pen.penalty
        except (NonFiniteInput, NotPositiveDefinite, OverflowError):
            obj = math.inf
        if math.isfinite(obj):
            return state, obj, pen
        eta *= 0.5
    raise TrainingAbort(
        f"objective stayed non-finite after {_MAX_HALVINGS} step halvings "
        f"(initial step {eta2:g})")


def outer_descent_step(params: KernelParams, logits: DomainLogits, state: TrainState,
                       eta2: float, lam: float) -> KernelParams:
    """One parameter update on NLL + lam * penalty at fixed logits, from the
    state built at params."""
    masks = env_masks(logits)
    g = state.objective_grad(masks, lam)
    new, _, _ = _descend(state.kind, state.noise, state.X, state.y, params.as_array(),
                         g, eta2, lam, masks)
    return new.params


def init_logits(n: int, seed: int) -> DomainLogits:
    """Small random logits: near-equal starting environments, but not the
    exactly symmetric point, where the penalty gradient can vanish."""
    rng = rng_for(seed, "domain-logits")
    return DomainLogits(0.1 * rng.standard_normal(n))


def _train(spec: ModelSpec, X, y, seed: int
           ) -> tuple[TrainState, DomainLogits | None, TrainTrace]:
    """spec.t1 training rounds from KernelParams(). When the spec learns a
    partition, the logits start from init_logits(seed) and each round first
    ascends on them spec.t2 times; a plain GP ignores the seed and descends
    on the -LML alone. Each round reads one TrainState, and the state of the
    accepted step becomes the next round's, so t1 rounds factorize t1 + 1
    times (plus one per step halving). Returns the last state, whose
    posterior is the fitted model, the logits (None for a plain GP) and the
    trace of completed rounds, which on abort rides on the TrainingAbort."""
    X, y = _validate_xy(X, y)
    n, partition = X.shape[0], learns_partition(spec)
    if partition and n < 4:
        raise DimensionMismatch(f"need at least 4 training points to split, got {n}")
    logits = init_logits(n, seed) if partition else None
    kind, noise = spec.kind, spec.noise
    lam = spec.lam if partition else 0.0
    masks = None
    trace = TrainTrace()
    state = TrainState(kind, KernelParams(), noise, X, y)
    for t in range(1, spec.t1 + 1):
        try:
            if partition:
                for _ in range(spec.t2):
                    logits = inner_ascent_step(logits, state, spec.eta1)
                masks = env_masks(logits)
            g = state.objective_grad(masks, lam)
            theta = state.params.as_array()
            # Release this point's state before the trial one is built.
            del state
            state, obj, pen = _descend(kind, noise, X, y, theta, g, spec.eta2, lam, masks)
        except TrainingAbort as exc:
            exc.trace = trace
            raise
        trace.records.append(TraceRecord(t, obj, pen.penalty, pen.per_env_grad,
                                         state.params, noise.sigma2))
    return state, logits, trace


@one_thread()
def fit_model(spec: ModelSpec, train: Dataset, seed: int
              ) -> tuple[GPPosterior, Standardizer, TrainTrace]:
    """Standardize and train spec.model at one BLAS thread; the posterior is
    that of the last training state, so nothing is factorized after training.

    The posterior lives in the units the model was trained in; the returned
    standardizer maps between those units and the raw ones. It holds the
    training statistics, or is Standardizer.identity when spec.standardize
    is off. seed drives the initial partition logits of a model that learns
    one; a plain GP does not read it.
    """
    scaler = fit_standardizer(train) if spec.standardize else Standardizer.identity(train.d)
    ds = scaler.transform(train)
    state, _, trace = _train(spec, ds.x, ds.y, seed)
    return state.post, scaler, trace
