"""Covariance kernels and their log-space parameter derivatives.

Three stationary/linear kernels are supported:

    gaussian            k(x, y) = s * exp(-||x - y||^2 / (2 l^2))
    rational_quadratic  k(x, y) = s * (1 + ||x - y||^2 / (2 a l^2))^(-a)
    dot_product         k(x, y) = s * (x . y + sigma_dp^2)

All hyperparameters are stored in log-space so unconstrained gradient steps
keep the exponentiated values strictly positive.

Each kernel reads its inputs through one base_matrix: X Y^T for the dot
product, squared distances for the stationary kernels, summed over the columns
in cdist's order so that numpy gives cdist's bits. The kernel matrix and its
derivatives are elementwise in it, so a caller that needs several of them
builds the base once. grad_stack holds only the parameters the kernel reads
(ACTIVE_PARAMS); gaussian_scale_direction serves the invariance penalty, which
only a Gaussian kernel trains with. All three write into a caller's out
buffer; grad_stack allocates one when it is None, with the same operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

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
    regardless so parameter vectors have a fixed layout. Each exponential,
    and the squares of l and sigma_dp that the kernels form, must be finite.
    """

    log_s: float = 0.0
    log_l: float = 0.0
    log_alpha: float = 0.0
    log_sigma_dp: float = 0.0

    def __post_init__(self):
        # One chained test of ranges inside the ones checked below, where
        # each exponential and square is finite (exp overflows above 709.78,
        # its square above 354.89); NaN fails every comparison. Only a point
        # outside them is checked field by field, which names the field.
        if (-1e300 < self.log_s < 709.0 and -1e300 < self.log_l < 354.0
                and -1e300 < self.log_alpha < 709.0 and -1e300 < self.log_sigma_dp < 354.0):
            return
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise NonFiniteInput(f"{name}={v!r} is not finite")
            power = 2 if name in ("log_l", "log_sigma_dp") else 1
            try:
                math.exp(v) ** power
            except OverflowError:
                raise NonFiniteInput(f"exp({name}) ** {power} overflows at {name}={v!r}") from None

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
            raise DimensionMismatch(f"expected 4 log-parameters, got shape {v.shape}")
        return cls(*v.tolist())

    def scaled(self, w: float) -> "KernelParams":
        """Multiply every exponentiated parameter by ``w`` (> 0)."""
        lw = math.log(w)
        return KernelParams(self.log_s + lw, self.log_l + lw,
                            self.log_alpha + lw, self.log_sigma_dp + lw)

    def shifted(self, name: str, delta: float) -> "KernelParams":
        return replace(self, **{name: getattr(self, name) + delta})


def _check_inputs(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise DimensionMismatch(
            f"inputs must be 2-D (n, d) matrices, got shapes {X.shape} and {Y.shape}")
    if X.shape[1] != Y.shape[1] or X.shape[1] < 1:
        raise DimensionMismatch(
            f"column counts differ or are empty: X has shape {X.shape}, Y has shape {Y.shape}")
    if not np.isfinite(X).all() or not np.isfinite(Y).all():
        raise NonFiniteInput("kernel inputs contain NaN or infinity")
    return X, Y


def _sq_distances(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """||X[i] - Y[j]||^2 summed over the columns from column 0 without FMA,
    as cdist's sqeuclidean sums them, in one n x m output (out, allocated
    when None) and one scratch.
    Each column's differences X[i, k] - Y[j, k] are formed by filling the
    buffer with the X column and subtracting the Y row from it in place:
    the same subtractions as np.subtract.outer, at a contiguous 2-D
    subtract's cost."""
    out = np.empty((X.shape[0], Y.shape[0])) if out is None else out
    diff = np.empty_like(out) if X.shape[1] > 1 else None
    for k in range(X.shape[1]):
        buf = diff if k else out
        buf[...] = X[:, k, None]
        np.square(np.subtract(buf, Y[:, k], out=buf), out=buf)
        if k:
            np.add(out, buf, out=out)
    return out


def base_matrix(kind: KernelKind, X: np.ndarray, Y: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """The one O(n m d) product of a kernel evaluation: X Y^T for the dot
    product, squared distances ||X[i] - Y[j]||^2 (summed over the columns in
    cdist's order) for the stationary kernels, written into out (allocated
    when None). The rest is elementwise in it."""
    X, Y = _check_inputs(X, Y)
    if kind is KernelKind.DOT_PRODUCT:
        return np.matmul(X, Y.T, out=out)
    return _sq_distances(X, Y, out)


def gram(kind: KernelKind, params: KernelParams, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The kernel matrix from its base_matrix, written into out (which may
    be base itself) one ufunc at a time. The Gaussian exponent is
    base / (-2 l^2): IEEE division is sign-symmetric, so it has the bits of
    -base / (2 l^2) with one ufunc fewer."""
    if kind is KernelKind.GAUSSIAN:
        np.exp(np.divide(base, -2.0 * params.l ** 2, out=out), out=out)
    elif kind is KernelKind.RATIONAL_QUADRATIC:
        a = params.alpha
        np.log1p(np.divide(base, 2.0 * a * params.l ** 2, out=out), out=out)
        np.exp(np.multiply(-a, out, out=out), out=out)
    elif kind is KernelKind.DOT_PRODUCT:
        np.add(base, params.sigma_dp ** 2, out=out)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return np.multiply(params.s, out, out=out)


def kernel_matrix(kind: KernelKind, params: KernelParams,
                  X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix K[i, j] = k(X[i], Y[j]), evaluated in place in
    its freshly built base_matrix."""
    base = base_matrix(kind, X, Y)
    return gram(kind, params, base, out=base)


def _diag(kind: KernelKind, params: KernelParams, X: np.ndarray) -> np.ndarray:
    """Diagonal of kernel_matrix(kind, params, X, X) of an X that _check_inputs passed."""
    if kind is KernelKind.DOT_PRODUCT:
        return params.s * (np.einsum("ij,ij->i", X, X) + params.sigma_dp ** 2)
    # Stationary kernels: k(x, x) = s.
    return np.full(X.shape[0], params.s)


def grad_stack(kind: KernelKind, params: KernelParams, base: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """K_p = dK/dlog theta_p from the Gram matrix's base_matrix, shape
    (len(ACTIVE_PARAMS[kind]), n, n) ordered as ACTIVE_PARAMS[kind], written
    into out (allocated when None). Slice 0 is K itself: dK/dlog s = K for
    every kernel, as k is linear in s."""
    out = np.empty((len(ACTIVE_PARAMS[kind]),) + base.shape) if out is None else out
    K = gram(kind, params, base, out=out[0])
    if kind is KernelKind.GAUSSIAN:
        np.divide(np.multiply(K, base, out=out[1]), params.l ** 2, out=out[1])
    elif kind is KernelKind.RATIONAL_QUADRATIC:
        a = params.alpha
        u = base / (2.0 * a * params.l ** 2)
        out[1] = K * base / (params.l ** 2 * (1.0 + u))
        out[2] = K * a * (u / (1.0 + u) - np.log1p(u))
    else:
        out[1] = 2.0 * params.s * params.sigma_dp ** 2
    return out


def kernel_grads(kind: KernelKind, params: KernelParams, X: np.ndarray) -> np.ndarray:
    """grad_stack of the Gram matrix of X."""
    return grad_stack(kind, params, base_matrix(kind, X, X))


def gaussian_scale_direction(params: KernelParams, base: np.ndarray, K_l: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
    """D_l = dC/dlog l of the Gaussian kernel from its base_matrix and
    K_l = dK/dlog l, written into out.
    C = d/dw K(w * theta) at w = 1, with w multiplying every exponentiated
    parameter, is K + K_l, so D_s = C. With r = d^2 / l^2, K_l = K r and
    dr/dlog l = -2 r, so D_l = K_l (r - 1)."""
    np.subtract(np.divide(base, params.l ** 2, out=out), 1.0, out=out)
    return np.multiply(K_l, out, out=out)
