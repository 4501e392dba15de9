import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from dilgp.exceptions import NotPositiveDefinite
from dilgp.gp import (NoiseSpec, env_log_likelihood, fit_posterior,
                      log_marginal_likelihood, predict)
from dilgp.kernels import KernelKind, KernelParams, kernel_diag, kernel_matrix

LOG_2PI = math.log(2.0 * math.pi)


def _dense_oracle(kind, params, sigma2, X, y, Xs):
    """Textbook posterior and likelihood via explicit matrix inverse."""
    K = kernel_matrix(kind, params, X, X)
    A = K + sigma2 * np.eye(len(y))
    Ainv = np.linalg.inv(A)
    Ks = kernel_matrix(kind, params, Xs, X)
    Kss = kernel_matrix(kind, params, Xs, Xs)
    mean = Ks @ Ainv @ y
    var = np.diag(Kss - Ks @ Ainv @ Ks.T)
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    lml = -0.5 * y @ Ainv @ y - 0.5 * logdet - 0.5 * len(y) * LOG_2PI
    return mean, var, lml


def test_posterior_matches_dense_inverse():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        Xs = rng.normal(size=(3, 2))
        p = KernelParams(log_s=rng.normal() * 0.2, log_l=rng.normal() * 0.2)
        post = fit_posterior(KernelKind.GAUSSIAN, p, NoiseSpec(0.3), X, y)
        mean, var = predict(post, Xs)
        omean, ovar, olml = _dense_oracle(KernelKind.GAUSSIAN, p, 0.3, X, y, Xs)
        assert_allclose(mean, omean, atol=1e-8)
        assert_allclose(var, ovar, atol=1e-8)
        lml = log_marginal_likelihood(KernelKind.GAUSSIAN, p, NoiseSpec(0.3), X, y)
        assert_allclose(lml, olml, atol=1e-8)


def test_single_point_zero_residual():
    X = np.zeros((1, 1))
    y = np.zeros(1)
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.0), X, y)
    assert_allclose(post.alpha_vec, [0.0], atol=1e-12)
    lml = log_marginal_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.0), X, y)
    assert_allclose(lml, -0.5 * LOG_2PI, atol=1e-9)


def test_single_point_unit_noise():
    # scalar case: -1/2 log 2 - 1/2 log 2pi
    X = np.zeros((1, 1))
    y = np.zeros(1)
    lml = log_marginal_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(1.0), X, y)
    assert_allclose(lml, -0.5 * math.log(2.0) - 0.5 * LOG_2PI, atol=1e-12)
    assert_allclose(lml, -1.26551, atol=5e-6)


def test_two_orthogonal_points_alpha():
    # points so distant the Gram is numerically the identity: A = 2 I
    X = np.array([[0.0], [1e9]])
    y = np.array([2.0, 4.0])
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(1.0), X, y)
    assert_allclose(post.alpha_vec, [1.0, 2.0], atol=1e-10)


def test_chol_reconstructs_gram():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    for kind in KernelKind:
        post = fit_posterior(kind, KernelParams(), NoiseSpec(0.25), X, y)
        A = kernel_matrix(kind, KernelParams(), X, X) + (0.25 + post.jitter) * np.eye(8)
        rec = post.chol @ post.chol.T
        assert np.linalg.norm(rec - A) / np.linalg.norm(A) < 1e-8


def test_noiseless_interpolation():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 1))
    y = rng.normal(size=6)
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.0), X, y)
    mean, var = predict(post, X)
    assert_allclose(mean, y, atol=1e-6)
    assert np.all(var <= 1e-6)


def test_prior_reversion_far_away():
    X = np.zeros((3, 1))
    X[:, 0] = [0.0, 0.5, 1.0]
    y = np.array([1.0, 2.0, 3.0])
    p = KernelParams(log_s=np.log(2.5))
    post = fit_posterior(KernelKind.GAUSSIAN, p, NoiseSpec(0.1), X, y)
    mean, var = predict(post, np.array([[1e6]]))
    assert_allclose(mean, [0.0], atol=1e-10)
    assert_allclose(var, [2.5], atol=1e-10)


def test_variance_clamped_nonnegative():
    # halving the Cholesky factor quadruples the explained variance, so the
    # raw posterior variance goes negative at the training points and the
    # clamp must fire there
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 1))
    y = rng.normal(size=12)
    kind, params = KernelKind.GAUSSIAN, KernelParams()
    post = fit_posterior(kind, params, NoiseSpec(0.01), X, y)
    post = dataclasses.replace(post, chol=0.5 * post.chol)
    Xs = np.vstack([X, rng.normal(size=(8, 1)), [[50.0]]])
    v = solve_triangular(post.chol, kernel_matrix(kind, params, X, Xs), lower=True)
    raw = kernel_diag(kind, params, Xs) - np.einsum("ij,ij->j", v, v)
    n_negative = int(np.count_nonzero(raw < 0.0))
    assert n_negative >= len(X)
    _, var = predict(post, Xs)
    assert np.all(var >= 0.0)
    assert_allclose(var, np.maximum(raw, 0.0), rtol=1e-12, atol=1e-12)


def test_not_positive_definite_carries_params(monkeypatch):
    # jitter ladder exhausted on a matrix that is not PSD at any small jitter
    import dilgp.gp as gp_mod

    def bad_kernel(kind, params, X, Y):
        n = X.shape[0]
        K = -np.eye(n)
        return K

    monkeypatch.setattr(gp_mod, "kernel_matrix", bad_kernel)
    p = KernelParams()
    with pytest.raises(NotPositiveDefinite) as exc:
        fit_posterior(KernelKind.GAUSSIAN, p, NoiseSpec(0.0), np.zeros((3, 1)), np.zeros(3))
    assert exc.value.params == p


def test_jitter_rescues_duplicate_rows():
    X = np.zeros((5, 1))
    y = np.ones(5)
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.0), X, y)
    assert post.jitter > 0.0
    mean, var = predict(post, X)
    assert np.all(np.isfinite(mean))


def test_env_ll_ones_mask_is_lml_bitwise():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        p = KernelParams(log_s=0.1 * rng.normal(), log_l=0.1 * rng.normal())
        lml = log_marginal_likelihood(KernelKind.GAUSSIAN, p, NoiseSpec(0.2), X, y)
        ell = env_log_likelihood(KernelKind.GAUSSIAN, p, NoiseSpec(0.2), X, y, np.ones(n))
        assert ell == lml


def test_env_ll_zero_mask_is_logdet_term():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 1))
    y = rng.normal(size=5)
    ell = env_log_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.5), X, y,
                             np.zeros(5))
    A = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, X) + 0.5 * np.eye(5)
    _, logdet = np.linalg.slogdet(A)
    assert_allclose(ell, -0.5 * logdet - 2.5 * LOG_2PI, atol=1e-10)


def test_env_ll_partial_mask_matches_direct():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(3, 1))
    y = rng.normal(size=3)
    mask = np.array([1.0, 0.0, 1.0])
    ell = env_log_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.3), X, y, mask)
    A = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, X) + 0.3 * np.eye(3)
    rm = y * mask
    _, logdet = np.linalg.slogdet(A)
    want = -0.5 * rm @ np.linalg.inv(A) @ rm - 0.5 * logdet - 1.5 * LOG_2PI
    assert_allclose(ell, want, atol=1e-10)


def test_env_ll_rejects_bad_mask():
    X = np.zeros((2, 1))
    y = np.zeros(2)
    with pytest.raises(Exception):
        env_log_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.1), X, y,
                           np.array([0.5, 1.5]))


def test_noise_spec_validation():
    with pytest.raises(Exception):
        NoiseSpec(-0.1)
    with pytest.raises(Exception):
        NoiseSpec(np.nan)


def test_posterior_arrays_immutable():
    X = np.zeros((2, 1))
    X[1, 0] = 1.0
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.1), X,
                         np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        post.alpha_vec[0] = 5.0
