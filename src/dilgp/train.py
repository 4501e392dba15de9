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

Every gradient is closed form. A fit builds the kernel's base matrix once.
Each parameter point is factorized once, by gp.gram_posterior, into the
TrainState that all quantities of a training round read, and the states of
a fit share one Workspace of n x n buffers. The state of the last accepted
step holds the posterior that prediction uses.

`ModelSpec` holds every setting of one model, and `fit_model` is the single
standardize -> train path shared by fit-eval, BO and the CLI. It returns a
`Fit`, whose predict is the one prediction at raw inputs.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import cache
from types import UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .data import Dataset, Standardizer, check_xy, fit_standardizer
from .exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                         NotPositiveDefinite, TrainingAbort)
from .blas import one_thread
from .gp import GPPosterior, NoiseSpec, _lml_grad, cho_inverse, gram_posterior, predict
from .kernels import (ACTIVE_PARAMS, PARAM_NAMES, KernelKind, KernelParams, base_matrix,
                      gaussian_scale_direction, grad_stack)
from .rng import rng_for

_MAX_HALVINGS = 8

# Fewest training points a model that learns a partition trains on: each of
# the two environments needs points to weigh.
MIN_SPLIT_POINTS = 4

# Training size from which a round forms B = A^-1 C on a helper thread while
# its partition ascent and the rest of its gradient run. The measured
# crossover, as the change in a 10-round dil_gp fit's time with the helper
# on against off on a 2-core host (medians of 11 or 15 alternating pairs):
# +15 % at n = 115, +9 % at 150, +0.5 to +2.4 % at 200, -3 to -3.5 % at
# 215, -3.5 % at 230, -5 to -7 % at 250, -11 % at 300, -14 % at 345, -17 %
# at 400 and -20 % at 460.
_OVERLAP_N = 250

# Byte boundary of each Workspace buffer. np.empty guarantees only 16, and
# at n = 460 cho_inverse takes 2.82 ms instead of 2.58 ms, and a gemv 21-22
# instead of 17 us, on buffers at 16 mod 32.
_ALIGN = 64

# Positions of each kernel's active log-parameters among PARAM_NAMES.
_ACTIVE_INDEX = {kind: tuple(PARAM_NAMES.index(name) for name in names)
                 for kind, names in ACTIVE_PARAMS.items()}

# Model names accepted across the package; gp_* are plain GPs with the named
# kernel, dil_gp is the invariance-trained model. A model that learns_partition
# trains with the penalty, whose gradient is the Gaussian kernel's alone.
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
        if not np.isfinite(q).all():
            raise NonFiniteInput("logits contain NaN or infinity")
        self.q_tilde = q


def env_masks(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Soft membership masks (m0, m1) = (sigmoid(q), 1 - sigmoid(q)) of the
    raw logits q.

    Computed through sigmoid(|q|), whose complement against 1 is exact, so
    negating q swaps the masks bit for bit and m0 + m1 == 1 holds exactly.

    m0 = 1/2 + copysign(p - 1/2, q) is where(q >= 0, p, 1 - p) bit for bit:
    for p = sigmoid(|q|) in [1/2, 1], p - 1/2 and 1 - p are exact (Sterbenz)
    and so are both sums; at q = -0.0, where p = 1/2, both give 1/2.
    """
    p = 1.0 / (1.0 + np.exp(-np.abs(q)))
    m0 = 0.5 + np.copysign(p - 0.5, q)
    return m0, 1.0 - m0


@dataclass
class TrainTrace:
    """One plain dict per completed round, built by _train: step, objective,
    penalty, per_env_grad, params (log-parameters by name), noise_sigma2,
    jitter (the accepted factor's) and halvings (of the round's step)."""

    records: list[dict] = field(default_factory=list)

    def __len__(self):
        return len(self.records)


def to_jsonl(records: list[dict]) -> str:
    """One JSON line per record, keys sorted: how the CLI writes a trace's
    rounds and the BO loop's steps."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _aligned(shape: tuple[int, ...], order: str = "C") -> np.ndarray:
    """An uninitialized float64 array of shape and order in an allocation of
    its own that starts on an _ALIGN-byte boundary."""
    nbytes = 8 * math.prod(shape)
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes].view(np.float64).reshape(shape, order=order)


class Workspace:
    """The n x n buffers that the TrainStates of one fit of kind on X write
    into: the base_matrix of X, built once, the K_p stack, the factor, A^-1
    and potri's copy of the factor, and C. Each state overwrites the
    previous one's, so at most one state of a workspace is live at a time.
    The base is read-only: every state of the fit reads it. potri's buffer
    is free once A^-1 is formed, so its row-major transpose is the scratch
    that holds a round's D_l and then, in a serial round, B = A^-1 C. The
    helper thread of an overlapped round forms B in the factor instead, so
    only such a round's state loses its factor. Each buffer is _aligned in
    an allocation of its own, so the factor that a posterior keeps holds no
    other buffer alive."""

    def __init__(self, kind: KernelKind, X: np.ndarray):
        n, p = X.shape[0], len(ACTIVE_PARAMS[kind])
        self.base = base_matrix(kind, X, X, out=_aligned((n, n)))
        self.base.flags.writeable = False
        self.Kp = _aligned((p, n, n))
        self.factor, self.A_inv, self.C = (_aligned((n, n)) for _ in range(3))
        self.potri = _aligned((n, n), order="F")
        self.scratch = self.potri.T


class _once:
    """A method read as an attribute, computed on first read and then stored
    in the instance, where later reads find it: functools.cached_property
    without the class-wide lock that Python 3.11 and older take on every
    first read. A TrainState is read from one thread."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class TrainState:
    """Everything training reads at one parameter point, from one kernel
    evaluation and one factorization, written into the Workspace ws (a
    fresh one when None). X and y are taken as data.check_xy returns them.

    The base_matrix is built once per fit, with the workspace. The stack
    K_p = dK/dlog theta_p over the kernel's active parameters is formed from
    it, and its log s slice, K itself, is what gp.gram_posterior factorizes
    into A = K + tau I (tau is sigma^2 plus the factor's jitter); the
    posterior holds the log marginal likelihood and alpha = A^-1 y. The
    dense A^-1, C = sum_p K_p and tr(A^-1 C) are formed once each, on first
    use, so a plain-GP round never builds C; so are C alpha and A^-1 C alpha,
    which every environment term shares. B = A^-1 C and the Gaussian
    kernel's D_l = dC/dlog l live only in the call that reads them, in the
    workspace's scratch; only start_B's B goes into the factor. Both
    environments' terms come from these and one difference
    d = A^-1 (y (m0 - m1)), so env_terms takes two O(n^2) products and an
    ascent step three. ascend takes all of a round's ascent steps in one
    loop that reads these once. After construction a state changes only by
    forming A^-1, C and _shared: the terms of a pair of masks, and
    start_B's pending B, are values that its caller passes on.
    """

    def __init__(self, kind: KernelKind, params: KernelParams, noise: NoiseSpec, X, y,
                 ws: Workspace | None = None):
        self.ws = Workspace(kind, X) if ws is None else ws
        self.Kp = grad_stack(kind, params, self.ws.base, out=self.ws.Kp)
        self.post = gram_posterior(kind, params, noise, X, y, self.Kp[0], out=self.ws.factor)
        self.kind, self.params, self.noise, self.X, self.y = kind, params, noise, X, y

    @_once
    def A_inv(self) -> np.ndarray:
        return cho_inverse(self.post.chol, out=self.ws.A_inv, work=self.ws.potri)

    @_once
    def C(self) -> np.ndarray:
        Kp, out = self.Kp, self.ws.C
        # a two-slice sum along axis 0 is one addition per entry
        return np.add(Kp[0], Kp[1], out=out) if len(Kp) == 2 else Kp.sum(axis=0, out=out)

    @_once
    def _shared(self) -> tuple:
        """(A^-1, C, y, alpha, C alpha, A^-1 C alpha, alpha^T C alpha,
        tr(A^-1 C) / 2): what every environment term at this point reads."""
        A_inv, C, alpha = self.A_inv, self.C, self.post.alpha_vec
        C_alpha = C.dot(alpha)
        return (A_inv, C, self.y, alpha, C_alpha, A_inv.dot(C_alpha), float(alpha.dot(C_alpha)),
                0.5 * float(np.einsum("ij,ij->", A_inv, C)))

    def env_terms(self, masks) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(g0, g1, d, C d) at the masks (m0, m1); the penalty is
        g0^2 + g1^2. g_e = 1/2 a_e^T C a_e - 1/2 tr(A^-1 C) is the
        derivative at w = 1 of environment e's masked likelihood, with
        a_e = A^-1 (y m_e). As m0 + m1 = 1, a_e = (alpha +- d) / 2 with
        d = A^-1 (y (m0 - m1)), and as C is symmetric

            g_e = (alpha^T C alpha + d^T C d) / 8 - tr(A^-1 C) / 2 +- alpha^T C d / 4.

        Swapping the masks negates d exactly, so it swaps g0 and g1 bit for bit.
        """
        A_inv, C, y, alpha, _, _, aCa, half_tr = self._shared
        m0, m1 = masks
        d = A_inv.dot(y * (m0 - m1))
        Cd = C.dot(d)
        shared = (aCa + float(d.dot(Cd))) / 8.0 - half_tr
        split = float(alpha.dot(Cd)) / 4.0
        return shared + split, shared - split, d, Cd

    def ascend(self, q: np.ndarray, t2: int, eta1: float, masks, terms) -> tuple:
        """t2 gradient-ascent steps q <- q + eta1 g on the raw finite logits
        q, with everything the steps share read once; g is the penalty's
        logit gradient 2 y m0 m1 A^-1 (g0 C a0 - g1 C a1), from the terms
        env_terms(masks) at the masks (m0, m1) = env_masks(q). Each step
        forms the masks and terms of its new logits. Returns (q, masks,
        terms), the given objects when t2 = 0. TrainingAbort names the first
        coordinate of a non-finite gradient. A step that leaves a logit
        non-finite (eta1 g can overflow) raises DomainLogits' NonFiniteInput,
        so the logits returned are valid ones."""
        if t2 == 0:
            return q, masks, terms
        A_inv, _, y, _, _, Ainv_C_alpha, _, _ = self._shared
        for _ in range(t2):
            m0, m1 = masks
            g0, g1, _, Cd = terms
            g = y * (m0 * m1) * ((g0 - g1) * Ainv_C_alpha + (g0 + g1) * A_inv.dot(Cd))
            q = q + eta1 * g
            # a finite sum has finite terms; one that overflows is checked entry by entry
            if not math.isfinite(q.sum()):
                if not np.isfinite(g).all():
                    bad = int(np.flatnonzero(~np.isfinite(g))[0])
                    raise TrainingAbort(f"non-finite logit gradient at coordinate {bad}")
                DomainLogits(q)     # NonFiniteInput if the step overflowed a logit
            masks = env_masks(q)
            terms = self.env_terms(masks)
        return q, masks, terms

    def objective_grad(self, terms, lam: float, B=None) -> list[float]:
        """Gradient of -LML + lam * penalty in the four log-parameters at the
        env_terms of fixed masks, as Python floats in PARAM_NAMES order, zero
        for those the kernel does not read. With lam = 0 the terms are not
        read. B is start_B's future, if any."""
        g = [-v for v in _lml_grad(self.Kp, self.post.alpha_vec, self.A_inv)]
        if lam != 0.0:
            g = [v + lam * p for v, p in zip(g, self._penalty_theta_grad(terms, B))]
        out = [0.0] * len(PARAM_NAMES)
        for i, v in zip(_ACTIVE_INDEX[self.kind], g):
            out[i] = v
        return out

    def _penalty_theta_grad(self, terms, B) -> tuple[float, float]:
        """The penalty's gradient in (log s, log l) of the Gaussian kernel, the
        one kernel trained with the penalty (InvalidSetting for any other, with
        no buffer written), from the trace identity applied to g_e
        (dA/dlog theta_p = K_p, dC/dlog theta_p = D_p):

            dg_e/dtheta_p = -a^T K_p A^-1 C a + 1/2 a^T D_p a
                            + 1/2 tr(K_p M) - 1/2 tr(A^-1 D_p).

        D_s = C, so for log s the D_p terms add up to g_e itself. Every term
        but tr(K_p M) is formed first, and trace_Kp_M, the one reader of
        B = A^-1 C, comes last, so the B that start_B submitted has until then.
        D_l goes into the scratch, potri's buffer, which is free once A^-1 is
        formed; a serial round's B lands there after D_l's last read, and the
        factor stays the state's. The two-entry vectors are Python floats,
        whose arithmetic is numpy's elementwise arithmetic entry by entry.
        """
        if self.kind is not KernelKind.GAUSSIAN:
            raise InvalidSetting("the penalty's parameter gradient is derived for the "
                                 f"gaussian kernel only, not {self.kind.value}")
        A_inv = self.A_inv      # formed through potri's buffer before D_l is written there
        D = gaussian_scale_direction(self.params, self.ws.base, self.Kp[1], out=self.ws.scratch)
        tr_AD = float(np.einsum("ij,ij->", D, A_inv))
        g0, g1, d, Cd = terms
        alpha, C_alpha = self.post.alpha_vec, self._shared[4]
        env0 = self._env_theta_terms(0.5 * (alpha + d), 0.5 * (C_alpha + Cd), D)
        env1 = self._env_theta_terms(0.5 * (alpha - d), 0.5 * (C_alpha - Cd), D)
        tr_K, tr_Kl = self.trace_Kp_M(B)
        shared_s = 0.5 * tr_K
        shared_l = 0.5 * tr_Kl - 0.5 * tr_AD
        grad_s = grad_l = 0.0
        for g, (dg_s, dg_l, aDa) in ((g0, env0), (g1, env1)):
            twice_g = 2.0 * g
            grad_s += twice_g * ((dg_s + shared_s) + g)
            grad_l += twice_g * ((dg_l + shared_l) + aDa)
        return grad_s, grad_l

    def _env_theta_terms(self, a: np.ndarray, Ca: np.ndarray, D: np.ndarray
                         ) -> tuple[float, float, float]:
        """(-a^T K_s A^-1 C a, -a^T K_l A^-1 C a, 1/2 a^T D_l a) for one
        environment's a = a_e and Ca = C a_e: its terms of the penalty's
        parameter gradient that do not read B."""
        dg_s, dg_l = (-(self.Kp @ (self.A_inv @ Ca)) @ a).tolist()
        return dg_s, dg_l, float(0.5 * (D @ a) @ a)

    def start_B(self, helper):
        """Submit B = A^-1 C to the executor helper and return its future,
        for trace_Kp_M to wait for. A^-1 and C are formed here, so the factor
        is free and B goes into it: the state no longer predicts. The helper
        makes that one numpy call and nothing else, and until it is waited
        for nothing may write A^-1 or C or touch the factor."""
        return helper.submit(np.matmul, self.A_inv, self.C, out=self.ws.factor)

    def trace_Kp_M(self, pending=None) -> tuple[float, float]:
        """tr(K_p M) for log s and log l of the Gaussian kernel from the one
        dense product B = A^-1 C, formed here, in the scratch, or waited for
        on start_B's future pending.

        A^-1 K = I - tau A^-1, so tr(K M) = tr(B) - tau tr(A^-1 B). As
        C = K + K_l, tr(C M) = tr(B B) leaves tr(K_l M). A^-1 is symmetric,
        so tr(A^-1 B) = <A^-1, B>.
        """
        A_inv = self.A_inv
        B = np.matmul(A_inv, self.C, out=self.ws.scratch) if pending is None else pending.result()
        tau = self.noise.sigma2 + self.post.jitter
        tr_K = float(B.trace() - tau * np.einsum("ij,ij->", A_inv, B))
        return tr_K, float(np.einsum("ij,ji->", B, B)) - tr_K


def inner_ascent_step(logits: DomainLogits, state: TrainState, eta1: float) -> DomainLogits:
    """One gradient-ascent step on the penalty in the logits."""
    masks = env_masks(logits.q_tilde)
    return DomainLogits(state.ascend(logits.q_tilde, 1, eta1, masks, state.env_terms(masks))[0])


def _descend(kind: KernelKind, noise: NoiseSpec, X, y, params: KernelParams,
             g: list[float], eta2: float, lam: float, masks, ws: Workspace | None = None
             ) -> tuple[TrainState, float, tuple | None, int]:
    """The state, objective -LML + lam * penalty, env_terms at the masks (None
    without masks) and step halvings after one step from params along -g,
    built in ws. The trial point theta - eta g is formed in Python floats,
    entry by entry in PARAM_NAMES order: float64 arithmetic, so the bits of
    KernelParams.from_array(params.as_array() - eta * np.array(g)). A trial
    point whose objective is non-finite (or whose KernelParams or factor
    cannot be formed) is rejected and the step halved, up to _MAX_HALVINGS
    times; then the step aborts."""
    theta = (params.log_s, params.log_l, params.log_alpha, params.log_sigma_dp)
    eta = float(eta2)
    for halvings in range(_MAX_HALVINGS + 1):
        try:
            trial = KernelParams(*[t - eta * v for t, v in zip(theta, g)])
            state = TrainState(kind, trial, noise, X, y, ws)
            terms = None if masks is None else state.env_terms(masks)
            obj = -state.post.lml
            if lam != 0.0:
                obj += lam * (terms[0] * terms[0] + terms[1] * terms[1])
        except (NonFiniteInput, NotPositiveDefinite):
            obj = math.inf
        if math.isfinite(obj):
            return state, obj, terms, halvings
        eta *= 0.5
    raise TrainingAbort(
        f"objective stayed non-finite after {_MAX_HALVINGS} step halvings "
        f"(initial step {eta2:g})")


def outer_descent_step(params: KernelParams, logits: DomainLogits, state: TrainState,
                       eta2: float, lam: float) -> KernelParams:
    """One parameter update on NLL + lam * penalty at fixed logits, from the
    state built at params."""
    masks = env_masks(logits.q_tilde)
    g = state.objective_grad(state.env_terms(masks), lam)
    new = _descend(state.kind, state.noise, state.X, state.y, params, g, eta2, lam, masks)[0]
    return new.params


def init_logits(n: int, seed: int) -> DomainLogits:
    """Small random logits: near-equal starting environments, but not the
    exactly symmetric point, where the penalty gradient can vanish."""
    rng = rng_for(seed, "domain-logits")
    return DomainLogits(0.1 * rng.standard_normal(n))


@one_thread()
def _train(spec: ModelSpec, X, y, seed: int
           ) -> tuple[TrainState, DomainLogits | None, TrainTrace]:
    """spec.t1 training rounds from KernelParams(), at one BLAS thread. When
    the spec learns a partition, the logits start from init_logits(seed),
    whose masks and environment terms at the first state are evaluated
    once, and each round first ascends on them spec.t2 times, on the raw
    array, whose every step ascend checks; a plain GP ignores the seed and
    descends on the -LML alone. Each round reads one TrainState, and the
    state of the accepted step becomes the next round's, so t1 rounds
    factorize t1 + 1 times (plus one per step halving). The terms that
    accept a state are at the round's masks; the next round's ascent and
    gradient start from them, so t1 rounds of t2 ascent steps evaluate the
    masks t1 t2 + 1 times and the environment terms t1 (t2 + 1) + 1 times
    (plus those of rejected trial points). Returns the last state, whose
    posterior is the fitted model, the logits (None for a plain GP) and the
    trace of completed rounds, which on abort rides on the TrainingAbort.
    All states of the fit write into one Workspace.

    From _OVERLAP_N training points, a fit with a penalty (lam != 0) forms
    each round's B = A^-1 C on one helper thread of its own while the round
    ascends and forms every other term of its gradient: the same numpy call
    on the same buffers, so every output keeps its bits. The helper runs no
    dilgp code. It writes B over the factor of the round's state, which the
    round then drops; no round starts from the state returned."""
    X, y = check_xy(X, y)
    n, partition = X.shape[0], learns_partition(spec)
    if partition and n < MIN_SPLIT_POINTS:
        raise DimensionMismatch(f"need at least {MIN_SPLIT_POINTS} training points to split, "
                                f"got {n}")
    q = init_logits(n, seed).q_tilde if partition else None
    masks = env_masks(q) if partition else None
    kind, noise = spec.kind, spec.noise
    lam = spec.lam if partition else 0.0
    trace = TrainTrace()
    ws = Workspace(kind, X)
    state = TrainState(kind, KernelParams(), noise, X, y, ws)
    terms = state.env_terms(masks) if partition else None
    if lam != 0.0 and n >= _OVERLAP_N:
        # imported here, so that a small fit imports and starts nothing
        from concurrent.futures import ThreadPoolExecutor
        helper = ThreadPoolExecutor(max_workers=1)
    else:
        helper = nullcontext()
    # Leaving the block, by return or by exception, joins the helper.
    with helper as pool:
        for t in range(1, spec.t1 + 1):
            try:
                B = None if pool is None else state.start_B(pool)
                if partition:
                    q, masks, terms = state.ascend(q, spec.t2, spec.eta1, masks, terms)
                # with lam != 0 this waits for B last, so the helper is idle below
                g = state.objective_grad(terms, lam, B)
                params = state.params
                # Release this point's state: the trial one overwrites its buffers.
                del state
                state, obj, terms, halvings = _descend(kind, noise, X, y, params, g, spec.eta2,
                                                       lam, masks, ws)
            except TrainingAbort as exc:
                exc.trace = trace
                raise
            g0, g1 = terms[:2] if partition else (0.0, 0.0)
            trace.records.append({"step": t, "objective": obj, "penalty": g0 * g0 + g1 * g1,
                                  "per_env_grad": (g0, g1),
                                  "params": dict(vars(state.params)),
                                  "noise_sigma2": noise.sigma2,
                                  "jitter": float(state.post.jitter), "halvings": halvings})
    return state, (DomainLogits(q) if partition else None), trace


class Fit(NamedTuple):
    """What fit_model learned: the posterior, in the units the model was
    trained in, the standardizer that maps between those units and the raw
    ones, and the trace of the training rounds."""

    post: GPPosterior
    scaler: Standardizer
    trace: TrainTrace

    def predict(self, X_raw) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at raw inputs, in model units."""
        return predict(self.post, self.scaler.transform_x(X_raw))


def fit_model(spec: ModelSpec, train: Dataset, seed: int) -> Fit:
    """Standardize and train spec.model (_train pins one BLAS thread); the
    posterior is that of the last training state, so nothing is factorized
    after training.

    The standardizer holds the training statistics, or is
    Standardizer.identity when spec.standardize is off. seed drives the
    initial partition logits of a model that learns one; a plain GP does not
    read it.
    """
    scaler = fit_standardizer(train) if spec.standardize else Standardizer.identity(train.d)
    state, _, trace = _train(spec, scaler.transform_x(train.x), scaler.transform_y(train.y), seed)
    return Fit(state.post, scaler, trace)
