import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri

from dilgp import gp as gp_mod
from dilgp.data import check_xy
from dilgp.exceptions import DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from dilgp.gp import (NoiseSpec, _factor, cho_inverse, env_log_likelihood, fit_posterior,
                      lml_value_and_grad, predict)
from dilgp.kernels import ACTIVE_PARAMS, PARAM_NAMES, KernelKind, KernelParams, _diag, kernel_matrix
from dilgp.train import TrainState

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
        assert_allclose(post.lml, olml, atol=1e-8)


def test_single_point_zero_residual():
    X = np.zeros((1, 1))
    y = np.zeros(1)
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.0), X, y)
    assert_allclose(post.alpha_vec, [0.0], atol=1e-12)
    assert_allclose(post.lml, -0.5 * LOG_2PI, atol=1e-9)


def test_single_point_unit_noise():
    # scalar case: -1/2 log 2 - 1/2 log 2pi
    X = np.zeros((1, 1))
    y = np.zeros(1)
    lml = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(1.0), X, y).lml
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
    raw = _diag(kind, params, Xs) - np.einsum("ij,ij->j", v, v)
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


@pytest.mark.parametrize("in_place", [False, True], ids=["allocating", "in-place"])
def test_jitter_ladder_restarts_from_gram(in_place):
    # potrf overwrites its buffer when it fails, so each rung must factor a
    # fresh copy of K: the result is the plain factor of K + jitter I, with
    # or without a caller's buffer, and K itself is never written
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 1))
    X[1] = X[2] = X[0]
    K = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(log_s=0.7), X, X)
    K0 = K.copy()
    out = np.empty_like(K) if in_place else None
    L, jitter = _factor(K, NoiseSpec(0.0), KernelParams(), out)
    assert jitter > 0.0 and np.array_equal(K, K0)
    A = K.copy()
    np.fill_diagonal(A, K.diagonal() + jitter)
    assert np.array_equal(L, cholesky(A, lower=True))
    if in_place:
        assert np.shares_memory(L, out)
    # the partial factor of a failed rung is positive definite, K is not
    # at any jitter on the ladder
    with pytest.raises(NotPositiveDefinite):
        _factor(np.array([[4.0, 6.0], [6.0, 4.0]]), NoiseSpec(0.0), KernelParams(),
                np.empty((2, 2)) if in_place else None)


@pytest.mark.parametrize("n", [1, 4, 55, 115, 460])
def test_factor_solves_and_prediction_keep_scipy_linalg_bits(n):
    # gp calls scipy.linalg.lapack's own potrf, potrs and trtrs, so the
    # factor the jitter ladder ends at, alpha and the prediction are bit for
    # bit those of cholesky, cho_solve and solve_triangular.
    # Three equal rows (n >= 4) make K + 0 I singular, so the ladder is taken
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 1))
    X[1:3] = X[0]
    y, Xs = rng.normal(size=n), rng.normal(size=(7, 1))
    kind, params = KernelKind.GAUSSIAN, KernelParams(log_s=0.3)
    post = fit_posterior(kind, params, NoiseSpec(0.0), X, y)
    assert (post.jitter > 0.0) == (n > 1)
    A = kernel_matrix(kind, params, X, X)
    np.fill_diagonal(A, A.diagonal() + post.jitter)
    L = cholesky(A, lower=True)
    assert np.array_equal(post.chol, L)
    assert np.array_equal(post.alpha_vec, cho_solve((L, True), y))
    mean, var = predict(post, Xs)
    Kxs = kernel_matrix(kind, params, X, Xs)
    v = solve_triangular(L, Kxs, lower=True)
    raw = _diag(kind, params, Xs) - np.einsum("ij,ij->j", v, v)
    assert np.array_equal(mean, Kxs.T @ post.alpha_vec)
    assert np.array_equal(var, np.where(raw < 0.0, 0.0, raw))


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
        lml = fit_posterior(KernelKind.GAUSSIAN, p, NoiseSpec(0.2), X, y).lml
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


def test_env_ll_checks_xy_once(monkeypatch):
    # the posterior is built from the arrays the one check returned
    calls = []

    def counting_check(X, y):
        calls.append(len(y))
        return check_xy(X, y)

    monkeypatch.setattr(gp_mod, "check_xy", counting_check)
    X, y = np.array([[0.0], [1.0], [2.0]]), np.array([0.5, -0.2, 0.1])
    env_log_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.3), X, y,
                       np.array([1.0, 0.5, 0.0]))
    assert calls == [3]


def test_env_ll_rejects_bad_mask():
    X = np.zeros((2, 1))
    y = np.zeros(2)
    with pytest.raises(Exception):
        env_log_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.1), X, y,
                           np.array([0.5, 1.5]))
    with pytest.raises(DimensionMismatch, match="mask shape"):
        env_log_likelihood(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.1), X, y,
                           np.ones(3))


@pytest.mark.parametrize("X, y, match", [
    (np.zeros(3), np.zeros(3), "X must be 2-D"),
    (np.zeros((3, 1)), np.zeros(2), "y must have shape"),
    (np.zeros((0, 1)), np.zeros(0), "at least one training point"),
    (np.zeros((2, 1)), np.array([0.0, np.nan]), "targets"),
    (np.array([[0.0], [np.inf]]), np.zeros(2), "inputs contain"),
], ids=["x-1d", "y-length", "no-points", "y-nan", "x-inf"])
def test_fit_posterior_validates_inputs(X, y, match):
    err = NonFiniteInput if match in ("targets", "inputs contain") else DimensionMismatch
    with pytest.raises(err, match=match):
        fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.1), X, y)


@pytest.mark.parametrize("kind, name", [
    (KernelKind.GAUSSIAN, "log_l"),
    (KernelKind.RATIONAL_QUADRATIC, "log_l"),
    (KernelKind.DOT_PRODUCT, "log_sigma_dp"),
])
def test_fit_posterior_rejects_params_whose_square_overflows(kind, name):
    # the kernel squares l (sigma_dp) as a Python float, which raised a bare
    # OverflowError; the parameters now refuse such a point, naming the field
    X = np.array([[0.0], [1.0]])
    with pytest.raises(NonFiniteInput, match=name):
        fit_posterior(kind, KernelParams(**{name: 400.0}), NoiseSpec(0.1), X, np.zeros(2))


def test_factor_rejects_non_finite_gram():
    K = np.eye(3)
    K[0, 2] = K[2, 0] = np.inf
    with pytest.raises(NonFiniteInput, match="non-finite"):
        _factor(K, NoiseSpec(0.1), KernelParams())
    assert K[0, 2] == np.inf and K[0, 0] == 1.0     # K itself is never written


@pytest.mark.parametrize("kind", list(KernelKind))
def test_lml_value_and_grad_matches_fit_and_train_state(kind):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    params = KernelParams(log_s=0.2, log_l=-0.3, log_alpha=0.4, log_sigma_dp=-0.1)
    noise = NoiseSpec(0.2)
    lml, grad = lml_value_and_grad(kind, params, noise, X, y)
    assert lml == fit_posterior(kind, params, noise, X, y).lml
    active = [PARAM_NAMES.index(name) for name in ACTIVE_PARAMS[kind]]
    want = -np.array(TrainState(kind, params, noise, X, y).objective_grad(None, 0.0))[active]
    assert np.array_equal(grad, want)
    h = 1e-5
    fd = [(fit_posterior(kind, params.shifted(name, h), noise, X, y).lml
           - fit_posterior(kind, params.shifted(name, -h), noise, X, y).lml) / (2 * h)
          for name in ACTIVE_PARAMS[kind]]
    assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)


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


@pytest.mark.parametrize("n", [1, 4, 5, 55, 115, 300, 460])
def test_cho_inverse_matches_solve_and_dense_inverse(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 2))
    noise = NoiseSpec(0.3)
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), noise, X, rng.normal(size=n))
    A_inv = cho_inverse(post.chol)
    assert np.array_equal(A_inv, A_inv.T)
    # bit for bit scipy.linalg.lapack's potri, mirrored from its lower triangle
    inv, info = dpotri(post.chol, lower=1)
    assert info == 0
    assert np.array_equal(A_inv, np.tril(inv) + np.tril(inv, -1).T)
    A = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, X) + noise.sigma2 * np.eye(n)
    for want in (cho_solve((post.chol, True), np.eye(n)), np.linalg.inv(A)):
        assert np.max(np.abs(A_inv - want)) <= 1e-12 * np.max(np.abs(want))


def test_cho_inverse_singular_factor_raises():
    L = np.eye(3)
    L[1, 1] = 0.0
    with pytest.raises(NotPositiveDefinite):
        cho_inverse(L)


def test_predict_singular_factor_raises():
    # trtrs reports a zero on the factor's diagonal instead of solving
    X = np.array([[0.0], [1.0], [2.0]])
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.1), X, np.zeros(3))
    L = np.array(post.chol, order="F")
    L[1, 1] = 0.0
    with pytest.raises(NotPositiveDefinite, match="diagonal"):
        predict(dataclasses.replace(post, chol=L), X)


# ---------------------------------------------------------------- exact rewrites

@pytest.mark.parametrize("n", [1, 2, 30, 115])
def test_ravel_diagonal_add_matches_flat(n):
    # _factor adds sigma^2 to the diagonal, and cho_inverse writes it,
    # through a view of the raveled buffer: the bits of .flat and of
    # np.fill_diagonal
    rng = np.random.default_rng(n)
    K = rng.normal(size=(n, n))
    for sigma2 in (0.0, 0.3, 1e-20, 1e10):
        want, got = K.copy(), K.copy()
        want.flat[::n + 1] += sigma2
        got.ravel()[::n + 1] += sigma2
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    diag = rng.normal(size=n)
    want, got = K.copy(), K.copy()
    np.fill_diagonal(want, diag)
    got.ravel()[::n + 1] = diag
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [1, 30, 115])
def test_log_determinant_from_the_diagonal_view(n):
    # _gaussian_quad_ll sums log L.diagonal() with the array method, as
    # np.sum(np.log(np.diag(L))) does
    rng = np.random.default_rng(n)
    X, y = rng.normal(size=(n, 2)), rng.normal(size=n)
    post = fit_posterior(KernelKind.GAUSSIAN, KernelParams(), NoiseSpec(0.2), X, y)
    L = post.chol
    want = float(-0.5 * (y @ cho_solve((L, True), y)) - np.sum(np.log(np.diag(L)))
                 - 0.5 * n * LOG_2PI)
    assert post.lml == want


def test_predict_checks_the_query_rows_once(monkeypatch):
    from dilgp import kernels as kernels_mod
    calls = []
    real_check = kernels_mod._check_inputs

    def counting_check(X, Y):
        calls.append((len(X), len(Y)))
        return real_check(X, Y)

    rng = np.random.default_rng(2)
    X, y, Xs = rng.normal(size=(6, 2)), rng.normal(size=6), rng.normal(size=(9, 2))
    for kind in KernelKind:
        post = fit_posterior(kind, KernelParams(), NoiseSpec(0.1), X, y)
        want = predict(post, Xs)
        monkeypatch.setattr(kernels_mod, "_check_inputs", counting_check)
        calls.clear()
        got = predict(post, Xs.tolist())
        monkeypatch.undo()
        assert calls == [(6, 9)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    with pytest.raises(NonFiniteInput):
        predict(post, np.full((2, 2), np.inf))
