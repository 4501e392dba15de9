"""Covariance kernels and their log-space parameter derivatives.

Three stationary/linear kernels are supported:

    gaussian            k(x, y) = s * exp(-||x - y||^2 / (2 l^2))
    rational_quadratic  k(x, y) = s * (1 + ||x - y||^2 / (2 a l^2))^(-a)
    dot_product         k(x, y) = s * (x . y + sigma_dp^2)

All hyperparameters are stored in log-space so unconstrained gradient steps
keep the exponentiated values strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import DimensionMismatch, NonFiniteInput


class KernelKind(Enum):
    GAUSSIAN = "gaussian"
    RATIONAL_QUADRATIC = "rational_quadratic"
    DOT_PRODUCT = "dot_product"


# Order of log-space coordinates in gradient vectors.
PARAM_NAMES = ("log_s", "log_l", "log_alpha", "log_sigma_dp")

# Parameters each kernel actually reads; the rest have zero gradient.
ACTIVE_PARAMS = {
    KernelKind.GAUSSIAN: ("log_s", "log_l"),
    KernelKind.RATIONAL_QUADRATIC: ("log_s", "log_l", "log_alpha"),
    KernelKind.DOT_PRODUCT: ("log_s", "log_sigma_dp"),
}


@dataclass(frozen=True)
class KernelParams:
    """Kernel hyperparameters in log-space.

    ``log_alpha`` is only used by the rational-quadratic kernel and
    ``log_sigma_dp`` only by the dot-product kernel; both are carried along
    regardless so parameter vectors have a fixed layout.
    """

    log_s: float = 0.0
    log_l: float = 0.0
    log_alpha: float = 0.0
    log_sigma_dp: float = 0.0

    def __post_init__(self):
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise NonFiniteInput(f"{name}={v!r} is not finite")
            if not math.isfinite(math.exp(v)):
                raise NonFiniteInput(f"exp({name})={math.exp(v)!r} overflows")

    @property
    def s(self) -> float:
        return math.exp(self.log_s)

    @property
    def l(self) -> float:
        return math.exp(self.log_l)

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)

    @property
    def sigma_dp(self) -> float:
        return math.exp(self.log_sigma_dp)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES], dtype=float)

    @classmethod
    def from_array(cls, v) -> "KernelParams":
        v = np.asarray(v, dtype=float)
        if v.shape != (4,):
            raise DimensionMismatch(f"expected 4 log-parameters, got shape {v.shape}", v.shape, (4,))
        return cls(*(float(x) for x in v))

    def scaled(self, w: float) -> "KernelParams":
        """Multiply every exponentiated parameter by ``w`` (> 0)."""
        lw = math.log(w)
        return KernelParams(self.log_s + lw, self.log_l + lw,
                            self.log_alpha + lw, self.log_sigma_dp + lw)

    def shifted(self, name: str, delta: float) -> "KernelParams":
        return replace(self, **{name: getattr(self, name) + delta})

    def to_dict(self) -> dict:
        return {n: getattr(self, n) for n in PARAM_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelParams":
        return cls(**{n: float(d[n]) for n in PARAM_NAMES})


def _check_inputs(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise DimensionMismatch(
            f"inputs must be 2-D (n, d) matrices, got shapes {X.shape} and {Y.shape}",
            X.shape, Y.shape)
    if X.shape[1] != Y.shape[1] or X.shape[1] < 1:
        raise DimensionMismatch(
            f"column counts differ or are empty: X has shape {X.shape}, Y has shape {Y.shape}",
            X.shape, Y.shape)
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
        raise NonFiniteInput("kernel inputs contain NaN or infinity")
    return X, Y


def kernel_matrix(kind: KernelKind, params: KernelParams,
                  X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix K[i, j] = k(X[i], Y[j])."""
    X, Y = _check_inputs(X, Y)
    s = params.s
    if kind is KernelKind.GAUSSIAN:
        d2 = cdist(X, Y, metric="sqeuclidean")
        return s * np.exp(-d2 / (2.0 * params.l ** 2))
    if kind is KernelKind.RATIONAL_QUADRATIC:
        d2 = cdist(X, Y, metric="sqeuclidean")
        a = params.alpha
        u = d2 / (2.0 * a * params.l ** 2)
        return s * np.exp(-a * np.log1p(u))
    if kind is KernelKind.DOT_PRODUCT:
        return s * (X @ Y.T + params.sigma_dp ** 2)
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_diag(kind: KernelKind, params: KernelParams, X: np.ndarray) -> np.ndarray:
    """Diagonal of kernel_matrix(kind, params, X, X) without the full matrix."""
    X, _ = _check_inputs(X, X)
    n = X.shape[0]
    if kind is KernelKind.DOT_PRODUCT:
        return params.s * (np.einsum("ij,ij->i", X, X) + params.sigma_dp ** 2)
    # Stationary kernels: k(x, x) = s.
    return np.full(n, params.s)


def kernel_grads(kind: KernelKind, params: KernelParams, X: np.ndarray) -> np.ndarray:
    """Derivatives of the Gram matrix with respect to each log-parameter.

    Returns an array of shape (4, n, n) ordered as PARAM_NAMES; entries for
    parameters the kernel does not read are zero.
    """
    X, _ = _check_inputs(X, X)
    out = np.zeros((4, X.shape[0], X.shape[0]))
    K = kernel_matrix(kind, params, X, X)
    out[0] = K  # d/dlog s = K for every kernel (k is linear in s)
    if kind is KernelKind.GAUSSIAN:
        d2 = cdist(X, X, metric="sqeuclidean")
        out[1] = K * d2 / params.l ** 2
    elif kind is KernelKind.RATIONAL_QUADRATIC:
        d2 = cdist(X, X, metric="sqeuclidean")
        a = params.alpha
        u = d2 / (2.0 * a * params.l ** 2)
        out[1] = K * d2 / (params.l ** 2 * (1.0 + u))
        out[2] = K * a * (u / (1.0 + u) - np.log1p(u))
    elif kind is KernelKind.DOT_PRODUCT:
        out[3] = 2.0 * params.s * params.sigma_dp ** 2
    return out


def kernel_scale_direction(kind: KernelKind, params: KernelParams, X: np.ndarray) -> np.ndarray:
    """d/dw K(w * theta) at w = 1, where w multiplies the exponentiated parameters.

    By the chain rule this is the sum of the log-space derivative matrices.
    """
    return kernel_grads(kind, params, X).sum(axis=0)


def kernel_scale_direction_grads(kind: KernelKind, params: KernelParams,
                                 X: np.ndarray) -> np.ndarray:
    """D_p = dC/dlog theta_p for C = kernel_scale_direction, shape (4, n, n)
    ordered as PARAM_NAMES (zero for parameters the kernel does not read).
    C is linear in s, so D_s = C for every kernel."""
    X, _ = _check_inputs(X, X)
    out = np.zeros((4, X.shape[0], X.shape[0]))
    K = kernel_matrix(kind, params, X, X)
    if kind is KernelKind.GAUSSIAN:
        # C = K (1 + r) with r = d^2 / l^2, and dr/dlog l = -2 r.
        r = cdist(X, X, metric="sqeuclidean") / params.l ** 2
        out[0], out[1] = K * (1.0 + r), K * r * (r - 1.0)
    elif kind is KernelKind.RATIONAL_QUADRATIC:
        # C = K c with c = 1 + a (3 f - log(1 + u)) and f = u / (1 + u);
        # dlog u = -2 dlog l - dlog a, and u dc/du = a f (2 - u) / (1 + u).
        a = params.alpha
        u = cdist(X, X, metric="sqeuclidean") / (2.0 * a * params.l ** 2)
        f, lg = u / (1.0 + u), np.log1p(u)
        c, u_dc_du = 1.0 + a * (3.0 * f - lg), a * f * (2.0 - u) / (1.0 + u)
        out[0] = K * c
        out[1] = K * (2.0 * a * f * c - 2.0 * u_dc_du)
        out[2] = K * (a * (f - lg) * c + a * (3.0 * f - lg) - u_dc_du)
    elif kind is KernelKind.DOT_PRODUCT:
        # C = K + 2 s sigma_dp^2, whose offset grows as s sigma_dp^2.
        offset = 2.0 * params.s * params.sigma_dp ** 2
        out[0], out[3] = K + offset, 3.0 * offset
    return out
