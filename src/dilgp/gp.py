"""Exact Gaussian-process regression via Cholesky factorization.

Everything here works on a fixed kernel. fit_posterior is the only place
K + sigma^2 I is factorized: the posterior it returns carries the factor,
alpha = (K + sigma^2 I)^-1 y and the log marginal likelihood, and
prediction, the likelihood and its gradient read them (so does training,
through train.TrainState). Per-environment likelihoods mask the residual
inside both quadratic-form factors while keeping the full-data
log-determinant and normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri

from .blas import one_thread
from .exceptions import DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from .kernels import KernelKind, KernelParams, kernel_diag, kernel_grads, kernel_matrix

LOG_2PI = math.log(2.0 * math.pi)

# Relative jitter ladder tried when the Cholesky factorization fails.
_JITTER_START = 1e-10
_JITTER_STOP = 1e-4


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise variance sigma^2 added to the Gram diagonal."""

    sigma2: float = 0.01

    def __post_init__(self):
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise NonFiniteInput(f"sigma2 must be finite and >= 0, got {self.sigma2!r}")


def _validate_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"y must have shape ({X.shape[0]},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("targets contain NaN or infinity")
    return X, y


def _factor(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
            X: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + sigma^2 I, with adaptive diagonal jitter.

    Returns (L, jitter). Jitter starts at 1e-10 * mean diagonal and grows
    tenfold until the factorization succeeds or 1e-4 * mean diagonal is
    exceeded, at which point NotPositiveDefinite is raised.
    """
    K = kernel_matrix(kind, params, X, X)
    n = X.shape[0]
    A = K + noise.sigma2 * np.eye(n)
    if not np.all(np.isfinite(A)):
        raise NonFiniteInput("kernel matrix contains non-finite entries")
    scale = max(np.trace(A) / n, np.finfo(float).tiny)
    jitter = 0.0
    while True:
        try:
            L = cholesky(A + jitter * np.eye(n) if jitter else A,
                         lower=True, check_finite=False)
            return L, jitter
        except LinAlgError:
            jitter = _JITTER_START * scale if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_STOP * scale:
                raise NotPositiveDefinite(
                    f"covariance not positive definite after jitter up to "
                    f"{_JITTER_STOP * scale:g}", params=params) from None


@dataclass(frozen=True)
class GPPosterior:
    """Immutable fitted state shared by predict and likelihood evaluations."""

    kind: KernelKind
    params: KernelParams
    noise: NoiseSpec
    train_x: np.ndarray
    chol: np.ndarray          # lower triangular L with L L^T = K + sigma^2 I (+ jitter)
    alpha_vec: np.ndarray     # (K + sigma^2 I)^-1 y
    jitter: float
    lml: float                # log marginal likelihood of y


def fit_posterior(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                  X, y) -> GPPosterior:
    """Zero-mean posterior; callers standardize y when its mean matters.

    The posterior keeps a read-only view of X, so the caller's array stays
    writeable."""
    X, y = _validate_xy(X, y)
    if X.shape[0] < 1:
        raise DimensionMismatch("need at least one training point")
    L, jitter = _factor(kind, params, noise, X)
    lml, alpha = _gaussian_quad_ll(L, y)
    X = X.view()
    for a in (X, L, alpha):
        a.flags.writeable = False
    return GPPosterior(kind, params, noise, X, L, alpha, jitter, lml)


@one_thread()
def predict(post: GPPosterior, Xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at query points, at one BLAS thread.

    Negative variances produced by round-off are clamped to zero.
    """
    Kxs = kernel_matrix(post.kind, post.params, post.train_x, Xs)
    mean = Kxs.T @ post.alpha_vec
    v = solve_triangular(post.chol, Kxs, lower=True, check_finite=False)
    var = kernel_diag(post.kind, post.params, np.asarray(Xs, dtype=float)) - np.einsum("ij,ij->j", v, v)
    return mean, np.where(var < 0.0, 0.0, var)


def cho_inverse(L: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 from the lower Cholesky factor L, by LAPACK potri, made
    exactly symmetric from its lower triangle. potri writes only that
    triangle and L is zero above its diagonal, so the copy's upper triangle
    is zero and adding the transpose mirrors the lower one."""
    inv, info = dpotri(L, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"potri could not invert the factor (info={info})")
    out = inv + inv.T
    np.fill_diagonal(out, inv.diagonal())
    return out


def _gaussian_quad_ll(L: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """-1/2 r^T (L L^T)^-1 r - sum(log diag L) - n/2 log(2 pi), and (L L^T)^-1 r."""
    alpha = cho_solve((L, True), r, check_finite=False)
    n = r.shape[0]
    return float(-0.5 * (r @ alpha) - np.sum(np.log(np.diag(L))) - 0.5 * n * LOG_2PI), alpha


def log_marginal_likelihood(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                            X, y) -> float:
    return fit_posterior(kind, params, noise, X, y).lml


def env_log_likelihood(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                       X, y, mask) -> float:
    """Log-likelihood with the residual soft-masked by per-point weights.

    The mask multiplies the residual in both factors of the quadratic form;
    the log-determinant and the normalizer stay those of the full data, so an
    all-ones mask recovers log_marginal_likelihood exactly.
    """
    X, y = _validate_xy(X, y)
    mask = np.asarray(mask, dtype=float)
    if mask.shape != y.shape:
        raise DimensionMismatch(f"mask shape {mask.shape} != y shape {y.shape}")
    if not np.all(np.isfinite(mask)) or np.any(mask < 0.0) or np.any(mask > 1.0):
        raise NonFiniteInput("mask entries must lie in [0, 1]")
    post = fit_posterior(kind, params, noise, X, y)
    return _gaussian_quad_ll(post.chol, y * mask)[0]


def _lml_grad(grads: np.ndarray, alpha: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """Gradient of the log marginal likelihood from the trace identity
    d LML / dp = 1/2 (alpha^T K_p alpha - tr(A^-1 K_p)), where grads stacks
    the K_p, A = K + sigma^2 I and alpha = A^-1 y."""
    return np.array([0.5 * (alpha @ Kp @ alpha - np.einsum("ij,ij->", A_inv, Kp))
                     for Kp in grads])


def lml_value_and_grad(kind: KernelKind, params: KernelParams, noise: NoiseSpec, X, y):
    """Log marginal likelihood and its gradient in the four log-parameters."""
    post = fit_posterior(kind, params, noise, X, y)
    return post.lml, _lml_grad(kernel_grads(kind, params, post.train_x), post.alpha_vec,
                               cho_inverse(post.chol))
