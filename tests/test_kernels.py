import numpy as np
import pytest
from numpy.testing import assert_allclose

from dilgp.exceptions import DimensionMismatch, NonFiniteInput
from dilgp.kernels import (ACTIVE_PARAMS, PARAM_NAMES, KernelKind,
                           KernelParams, kernel_diag, kernel_grads,
                           kernel_matrix, kernel_scale_direction_grads)

ALL_KINDS = list(KernelKind)


def test_gaussian_zero_distance_unit():
    X = np.array([[0.7, -1.2]])
    K = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, X)
    assert K.shape == (1, 1)
    assert K[0, 0] == 1.0


def test_gaussian_known_value():
    # squared distance 2 with s=1, l=1 gives exp(-1)
    X = np.array([[0.0, 0.0]])
    Y = np.array([[1.0, 1.0]])
    K = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, Y)
    assert_allclose(K[0, 0], np.exp(-1.0), rtol=1e-12)


def test_rq_large_alpha_approaches_gaussian():
    p = KernelParams(log_alpha=np.log(1e6))
    X = np.array([[0.0]])
    Y = np.array([[1.0]])
    k_rq = kernel_matrix(KernelKind.RATIONAL_QUADRATIC, p, X, Y)[0, 0]
    k_g = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, Y)[0, 0]
    assert abs(k_rq - k_g) < 1e-4


def test_rq_matches_closed_form():
    # s (1 + d^2/(2 alpha l^2))^-alpha evaluated directly
    p = KernelParams(log_s=np.log(2.0), log_l=np.log(0.7), log_alpha=np.log(1.5))
    X = np.array([[0.3, -0.4]])
    Y = np.array([[1.1, 0.2]])
    d2 = np.sum((X[0] - Y[0]) ** 2)
    want = 2.0 * (1.0 + d2 / (2.0 * 1.5 * 0.7 ** 2)) ** (-1.5)
    got = kernel_matrix(KernelKind.RATIONAL_QUADRATIC, p, X, Y)[0, 0]
    assert_allclose(got, want, rtol=1e-12)


def test_dot_product_known_value():
    p = KernelParams(log_sigma_dp=-745.0)  # sigma_dp underflows to 0
    X = np.array([[1.0, 2.0]])
    Y = np.array([[3.0, 4.0]])
    K = kernel_matrix(KernelKind.DOT_PRODUCT, p, X, Y)
    assert_allclose(K[0, 0], 11.0, rtol=1e-12)


def test_dot_product_offset():
    p = KernelParams(log_s=np.log(2.0), log_sigma_dp=np.log(3.0))
    X = np.array([[1.0]])
    Y = np.array([[5.0]])
    K = kernel_matrix(KernelKind.DOT_PRODUCT, p, X, Y)
    assert_allclose(K[0, 0], 2.0 * (5.0 + 9.0), rtol=1e-12)


def test_gram_symmetry():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 3))
    for kind in ALL_KINDS:
        K = kernel_matrix(kind, KernelParams(log_s=0.4, log_l=-0.3), X, X)
        assert np.max(np.abs(K - K.T)) < 1e-12


def test_gram_psd_with_jitter():
    rng = np.random.default_rng(1)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 2))
        for kind in (KernelKind.GAUSSIAN, KernelKind.RATIONAL_QUADRATIC):
            K = kernel_matrix(kind, KernelParams(), X, X)
            w = np.linalg.eigvalsh(K + 1e-10 * np.eye(20))
            assert w.min() >= -1e-8


def test_dimension_mismatch_rejected():
    X = np.array([[1.0, 2.0]])
    Y = np.array([[1.0, 2.0, 3.0]])
    with pytest.raises(DimensionMismatch):
        kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, Y)
    with pytest.raises(DimensionMismatch):
        kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X.ravel(), X.ravel())


def test_nonfinite_rejected():
    X = np.array([[np.nan, 1.0]])
    with pytest.raises(NonFiniteInput):
        kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), X, X)
    with pytest.raises(NonFiniteInput):
        kernel_matrix(KernelKind.GAUSSIAN, KernelParams(), np.ones((2, 1)),
                      np.array([[np.inf]]))


def test_params_validation():
    with pytest.raises(Exception):
        KernelParams(log_s=np.inf)
    with pytest.raises(Exception):
        KernelParams(log_l=np.nan)
    with pytest.raises(Exception):
        KernelParams(log_s=1e4)  # exp overflows


def test_params_roundtrip_bit_exact():
    p = KernelParams(log_s=0.123456789012345, log_l=-2.71828,
                     log_alpha=0.333, log_sigma_dp=-0.125)
    r = KernelParams.from_array(p.as_array())
    assert np.array_equal(r.as_array(), p.as_array())


def test_params_scaled_shifts_all_logs():
    p = KernelParams(log_s=0.5, log_l=-0.25)
    q = p.scaled(2.0)
    for name in PARAM_NAMES:
        assert_allclose(getattr(q, name), getattr(p, name) + np.log(2.0), rtol=1e-15)


def test_kernel_diag_matches_full_matrix():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(9, 2))
    p = KernelParams(log_s=0.3, log_l=0.1, log_alpha=-0.2, log_sigma_dp=0.4)
    for kind in ALL_KINDS:
        want = np.diag(kernel_matrix(kind, p, X, X))
        got = kernel_diag(kind, p, X)
        assert_allclose(got, want, rtol=1e-12)


def _fd_param_grad(matrix, params, name, h=1e-6):
    return (matrix(params.shifted(name, h)) - matrix(params.shifted(name, -h))) / (2 * h)


def test_kernel_grads_match_finite_differences():
    # independent FD oracle over every active log-parameter, for the Gram
    # matrix K and for the scale direction C = sum_p dK/dlog theta_p
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 2))
        p = KernelParams(log_s=rng.normal() * 0.3, log_l=rng.normal() * 0.3,
                         log_alpha=rng.normal() * 0.3, log_sigma_dp=rng.normal() * 0.3)
        for kind in ALL_KINDS:
            grads = kernel_grads(kind, p, X)
            D = kernel_scale_direction_grads(kind, p, X)
            assert grads.shape == D.shape == (4, 6, 6)
            for i, name in enumerate(PARAM_NAMES):
                if name in ACTIVE_PARAMS[kind]:
                    fd = _fd_param_grad(lambda q: kernel_matrix(kind, q, X, X), p, name)
                    assert_allclose(grads[i], fd, rtol=2e-5, atol=1e-8)
                    fd = _fd_param_grad(lambda q: kernel_grads(kind, q, X).sum(0), p, name)
                    assert_allclose(D[i], fd, rtol=2e-5, atol=1e-8)
                elif name != "log_s":
                    assert np.all(grads[i] == 0.0) and np.all(D[i] == 0.0)


def test_scale_direction_is_dK_dw():
    # C = d/dw K(w * theta) at w=1, central FD in the shared scalar w
    h = 1e-6
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(5, 3))
        p = KernelParams(log_s=0.2, log_l=-0.1, log_alpha=0.15, log_sigma_dp=0.1)
        for kind in ALL_KINDS:
            C = kernel_grads(kind, p, X).sum(0)
            fd = (kernel_matrix(kind, p.scaled(1 + h), X, X)
                  - kernel_matrix(kind, p.scaled(1 - h), X, X)) / (2 * h)
            assert_allclose(C, fd, rtol=5e-6, atol=1e-9)


def test_cross_matrix_shape():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 2))
    Y = rng.normal(size=(7, 2))
    for kind in ALL_KINDS:
        K = kernel_matrix(kind, KernelParams(), X, Y)
        assert K.shape == (4, 7)
