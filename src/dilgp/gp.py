"""Exact Gaussian-process regression via Cholesky factorization.

Everything here works on a fixed kernel. gram_posterior is the only place
K + sigma^2 I is factorized, from a Gram matrix K its caller built:
fit_posterior builds K from X, while lml_value_and_grad and
train.TrainState pass the log s slice of their K_p stack, so each parameter
point evaluates its kernel once; the factor and the dense inverse may be
formed in buffers the caller owns. X and y are checked by data.check_xy,
which gram_posterior's callers have run. The factorization, the solves and
the inverse are blas's potrf, potrs, trtrs and potri: scipy.linalg.lapack's
own routines, loaded without importing scipy.linalg. The posterior carries
the factor, alpha = (K + sigma^2 I)^-1 y and the log marginal likelihood,
and prediction, the likelihood and its gradient read them. Per-environment
likelihoods mask the residual inside both quadratic-form factors while
keeping the full-data log-determinant and normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from . import blas
from .data import check_xy
from .exceptions import DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from .kernels import KernelKind, KernelParams, _diag, base_matrix, grad_stack, kernel_matrix

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


def _factor(K: np.ndarray, noise: NoiseSpec, params: KernelParams,
            out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + sigma^2 I, with adaptive diagonal jitter.

    sigma^2 and any jitter go on the diagonal of a copy of the Gram matrix K
    in out (a C-contiguous n x n buffer, allocated when None), which potrf
    factorizes in place; K is never written. potrf reads out.T, the
    column-major view of the symmetric copy, and returns L as that view.
    Returns (L, jitter). Jitter starts at
    1e-10 * mean diagonal and grows tenfold until the factorization succeeds
    or 1e-4 * mean diagonal is exceeded, at which point NotPositiveDefinite
    is raised with the kernel params. A failed potrf (info > 0: a leading
    minor is not positive) leaves out partly factorized, so each rung copies
    K again. The ladder's diagonal and scale are built from K, only once a
    factorization has failed.
    """
    n = K.shape[0]
    A = np.empty_like(K, order="C") if out is None else out
    np.copyto(A, K)
    A.ravel()[::n + 1] += noise.sigma2      # a view of the diagonal, as A is C-contiguous
    # a finite sum has finite terms; one that overflows is checked entry by entry
    if not math.isfinite(A.sum()) and not np.isfinite(A).all():
        raise NonFiniteInput("kernel matrix contains non-finite entries")
    jitter = 0.0
    while True:
        L, info = blas.potrf(A.T, lower=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        if jitter == 0.0:
            diag = K.diagonal() + noise.sigma2
            scale = max(diag.sum() / n, np.finfo(float).tiny)
        jitter = _JITTER_START * scale if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_STOP * scale:
            raise NotPositiveDefinite(
                f"covariance not positive definite after jitter up to "
                f"{_JITTER_STOP * scale:g}", params=params)
        np.copyto(A, K)
        np.fill_diagonal(A, diag + jitter)


@dataclass(frozen=True)
class GPPosterior:
    """Immutable fitted state shared by predict and likelihood evaluations."""

    kind: KernelKind
    params: KernelParams
    train_x: np.ndarray
    chol: np.ndarray          # lower triangular L with L L^T = K + sigma^2 I (+ jitter)
    alpha_vec: np.ndarray     # (K + sigma^2 I)^-1 y
    jitter: float
    lml: float                # log marginal likelihood of y


def fit_posterior(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                  X, y) -> GPPosterior:
    """Zero-mean posterior; callers standardize y when its mean matters."""
    X, y = check_xy(X, y)
    return gram_posterior(kind, params, noise, X, y, kernel_matrix(kind, params, X, X))


def gram_posterior(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                   X: np.ndarray, y: np.ndarray, K: np.ndarray,
                   out: np.ndarray | None = None) -> GPPosterior:
    """fit_posterior from the Gram matrix K = kernel_matrix(kind, params, X, X)
    of X and y as data.check_xy returns them. K is read, never written; the
    factor is formed in out (allocated when None).

    The posterior keeps read-only views of X and of the factor, so the
    caller's arrays stay writeable."""
    L, jitter = _factor(K, noise, params, out)
    lml, alpha = _gaussian_quad_ll(L, y)
    X = X.view()
    for a in (X, L, alpha):
        a.flags.writeable = False
    return GPPosterior(kind, params, X, L, alpha, jitter, lml)


@blas.one_thread()
def predict(post: GPPosterior, Xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at query points, at one BLAS thread; the
    query points are checked once, by kernel_matrix.

    The variance subtracts |v|^2 with L v = K(X, Xs), solved by trtrs;
    negative variances produced by round-off are clamped to zero.
    """
    Kxs = kernel_matrix(post.kind, post.params, post.train_x, Xs)
    mean = Kxs.T @ post.alpha_vec
    v, info = blas.trtrs(post.chol, Kxs, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"trtrs met a zero on the factor's diagonal (info={info})")
    var = _diag(post.kind, post.params, np.asarray(Xs, dtype=float)) - np.einsum("ij,ij->j", v, v)
    return mean, np.where(var < 0.0, 0.0, var)


def cho_inverse(L: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """(L L^T)^-1 from the lower Cholesky factor L, by LAPACK potri, made
    exactly symmetric from its lower triangle into out. potri inverts a
    copy of L in the column-major n x n work in place, and out is a
    C-contiguous n x n buffer (both are allocated when None). potri writes
    only the lower triangle and L is zero above its diagonal, so the copy's
    upper triangle is zero and adding the transpose mirrors the lower one."""
    n = L.shape[0]
    work = np.empty_like(L, order="F") if work is None else work
    np.copyto(work, L)
    inv, info = blas.potri(work, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite(f"potri could not invert the factor (info={info})")
    out = np.add(inv, inv.T, out=np.empty((n, n)) if out is None else out)
    out.ravel()[:: n + 1] = inv.diagonal()
    return out


def _gaussian_quad_ll(L: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """-1/2 r^T (L L^T)^-1 r - sum(log diag L) - n/2 log(2 pi), in Python
    floats, and (L L^T)^-1 r, solved by potrs."""
    alpha = blas.potrs(L, r, lower=1)[0]
    n = r.shape[0]
    return (-0.5 * float(r.dot(alpha)) - float(np.log(L.diagonal()).sum())
            - 0.5 * n * LOG_2PI), alpha


def env_log_likelihood(kind: KernelKind, params: KernelParams, noise: NoiseSpec,
                       X, y, mask) -> float:
    """Log-likelihood with the residual soft-masked by per-point weights.

    The mask multiplies the residual in both factors of the quadratic form;
    the log-determinant and the normalizer stay those of the full data, so an
    all-ones mask recovers fit_posterior's lml exactly.
    """
    post = fit_posterior(kind, params, noise, X, y)
    mask = np.asarray(mask, dtype=float)
    if mask.shape != post.alpha_vec.shape:
        raise DimensionMismatch(f"mask shape {mask.shape} != y shape {post.alpha_vec.shape}")
    if not np.isfinite(mask).all() or np.any(mask < 0.0) or np.any(mask > 1.0):
        raise NonFiniteInput("mask entries must lie in [0, 1]")
    return _gaussian_quad_ll(post.chol, np.asarray(y, dtype=float) * mask)[0]


def _lml_grad(grads: np.ndarray, alpha: np.ndarray, A_inv: np.ndarray) -> list[float]:
    """Gradient of the log marginal likelihood from the trace identity
    d LML / dp = 1/2 (alpha^T K_p alpha - tr(A^-1 K_p)), where grads stacks
    the K_p, A = K + sigma^2 I and alpha = A^-1 y, as Python floats."""
    return (0.5 * ((grads @ alpha) @ alpha - np.einsum("pij,ij->p", grads, A_inv))).tolist()


def lml_value_and_grad(kind: KernelKind, params: KernelParams, noise: NoiseSpec, X, y):
    """Log marginal likelihood and its gradient in the log-parameters the
    kernel reads, ordered as ACTIVE_PARAMS[kind]."""
    X, y = check_xy(X, y)
    Kp = grad_stack(kind, params, base_matrix(kind, X, X))
    post = gram_posterior(kind, params, noise, X, y, Kp[0])
    return post.lml, np.array(_lml_grad(Kp, post.alpha_vec, cho_inverse(post.chol)))
