import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dilgp.exceptions import DimensionMismatch, NonFiniteInput
from dilgp.kernels import (ACTIVE_PARAMS, PARAM_NAMES, KernelKind,
                           KernelParams, base_matrix, gaussian_scale_direction,
                           _diag, gram, grad_stack, kernel_grads, kernel_matrix)

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
    with pytest.raises(NonFiniteInput, match="log_s"):
        KernelParams(log_s=np.inf)
    with pytest.raises(NonFiniteInput, match="log_l"):
        KernelParams(log_l=np.nan)
    with pytest.raises(NonFiniteInput, match="log_s"):
        KernelParams(log_s=1e4)  # exp overflows
    with pytest.raises(NonFiniteInput, match="log_alpha"):
        KernelParams(log_alpha=1000.0)
    with pytest.raises(NonFiniteInput, match="log_sigma_dp"):
        KernelParams.from_array([0.0, 0.0, 0.0, 710.0])
    # the kernels square l and sigma_dp, which overflows past log 354.89
    for name in ("log_l", "log_sigma_dp"):
        with pytest.raises(NonFiniteInput, match=name):
            KernelParams(**{name: 709.0})
        with pytest.raises(NonFiniteInput, match=name):
            KernelParams(**{name: 355.0})
        assert math.isfinite(getattr(KernelParams(**{name: 354.0}), name[4:]) ** 2)
    for shape in [(3,), (5,), (1, 4), (4, 1), ()]:
        with pytest.raises(DimensionMismatch, match="4 log-parameters"):
            KernelParams.from_array(np.zeros(shape))


def test_gram_rejects_unknown_kind():
    base = base_matrix(KernelKind.GAUSSIAN, np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="unknown kernel kind"):
        gram("gaussian", KernelParams(), base, np.empty_like(base))


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
        got = _diag(kind, p, X)
        assert_allclose(got, want, rtol=1e-12)


def _fd_param_grad(matrix, params, name, h=1e-6):
    return (matrix(params.shifted(name, h)) - matrix(params.shifted(name, -h))) / (2 * h)


def test_kernel_grads_match_finite_differences():
    # independent FD oracle over every active log-parameter for the Gram
    # matrix K, and in log l for the Gaussian kernel's scale direction
    # C = sum_p dK/dlog theta_p, the one the invariance penalty differentiates
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 2))
        p = KernelParams(log_s=rng.normal() * 0.3, log_l=rng.normal() * 0.3,
                         log_alpha=rng.normal() * 0.3, log_sigma_dp=rng.normal() * 0.3)
        for kind in ALL_KINDS:
            grads = kernel_grads(kind, p, X)
            # the stack holds the active parameters only; the zero gradient of
            # the others is checked by the training tests
            assert grads.shape == (len(ACTIVE_PARAMS[kind]), 6, 6)
            for i, name in enumerate(ACTIVE_PARAMS[kind]):
                fd = _fd_param_grad(lambda q: kernel_matrix(kind, q, X, X), p, name)
                assert_allclose(grads[i], fd, rtol=2e-5, atol=1e-8)
        base = base_matrix(KernelKind.GAUSSIAN, X, X)
        D = gaussian_scale_direction(p, base, grad_stack(KernelKind.GAUSSIAN, p, base)[1],
                                     np.empty_like(base))
        fd = _fd_param_grad(lambda q: kernel_grads(KernelKind.GAUSSIAN, q, X).sum(0), p, "log_l")
        assert_allclose(D, fd, rtol=2e-5, atol=1e-8)


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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_squared_distances_equal_cdist(d, scale):
    # the stationary kernels' base sums the columns in cdist's sqeuclidean
    # order, so it equals cdist bit for bit; the package itself does not
    # import scipy.spatial
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(d)
    for n, m in [(1, 1), (1, 40), (40, 1), (37, 53), (120, 120)]:
        X = scale * (rng.normal(size=(n, d)) + rng.normal(size=d))
        Y = scale * (rng.normal(size=(m, d)) + rng.normal(size=d))
        for A, B in [(X, X), (X, Y), (Y, X)]:
            want = cdist(A, B, "sqeuclidean")
            for kind in (KernelKind.GAUSSIAN, KernelKind.RATIONAL_QUADRATIC):
                assert np.array_equal(base_matrix(kind, A, B), want), (n, m, kind)


# ---------------------------------------------------------------- exact rewrites

def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_gaussian_single_divide_keeps_negate_then_divide_bits():
    # gram divides the base by -2 l^2; as IEEE division is sign-symmetric,
    # negating the base and dividing by 2 l^2 gives every entry the same
    # bits, signed zeros and infinities included
    rng = np.random.default_rng(0)
    base = np.concatenate([[0.0, np.inf, 5e-324, 1e-300, 1e300, np.finfo(float).max],
                           rng.exponential(size=200), 1e3 * rng.exponential(size=50)])
    for log_l in (-3.0, -0.7, 0.0, 0.4, 2.5, 300.0):
        l2 = math.exp(log_l) ** 2
        params = KernelParams(log_s=0.3, log_l=log_l)
        with np.errstate(over="ignore", under="ignore"):
            want = np.divide(np.negative(base), 2.0 * l2)
            got = np.divide(base, -2.0 * l2)
            K = gram(KernelKind.GAUSSIAN, params, base, np.empty_like(base))
        assert np.array_equal(_bits(got), _bits(want)), log_l
        assert np.array_equal(_bits(K), _bits(params.s * np.exp(want))), log_l


def _sq_distances_outer(X, Y):
    # the reference: each column's differences from np.subtract.outer
    out = np.square(np.subtract.outer(X[:, 0], Y[:, 0]))
    for k in range(1, X.shape[1]):
        out = out + np.square(np.subtract.outer(X[:, k], Y[:, k]))
    return out


@pytest.mark.parametrize("n,m,d", [(1, 1, 1), (30, 1088, 3), (55, 1088, 3), (115, 115, 1),
                                   (115, 80, 2), (7, 3, 8)])
def test_fill_then_subtract_keeps_subtract_outer_bits(n, m, d):
    rng = np.random.default_rng([n, m, d])
    X, Y = rng.normal(size=(n, d)), 10.0 * rng.normal(size=(m, d))
    for kind in (KernelKind.GAUSSIAN, KernelKind.RATIONAL_QUADRATIC):
        assert np.array_equal(_bits(base_matrix(kind, X, Y)), _bits(_sq_distances_outer(X, Y)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kernel_matrix_in_place_keeps_the_bits_of_a_second_buffer(kind):
    # kernel_matrix evaluates the kernel in its own base; gram into a fresh
    # buffer leaves the base as it was and gives the same matrix
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(9, 2)), rng.normal(size=(13, 2))
    params = KernelParams(0.2, -0.4, 0.3, 0.1)
    base = base_matrix(kind, X, Y)
    base0 = base.copy()
    K = gram(kind, params, base, np.empty_like(base))
    assert np.array_equal(base, base0) and not np.shares_memory(K, base)
    assert np.array_equal(_bits(kernel_matrix(kind, params, X, Y)), _bits(K))


def test_from_array_tolist_is_float_of_each_entry():
    rng = np.random.default_rng(6)
    for v in [rng.normal(size=4), np.array([0.0, -0.0, 5e-324, -700.0]),
              np.array([1, 2, 3, 4], dtype=np.int32)]:
        p = KernelParams.from_array(v)
        want = [float(x) for x in np.asarray(v, dtype=float)]
        got = [getattr(p, name) for name in PARAM_NAMES]
        assert all(type(g) is float for g in got)
        assert np.array_equal(_bits(got), _bits(want))


def _per_field_check(values: dict):
    """KernelParams' check field by field, with no range test first: the
    error it raises, or None."""
    for name in PARAM_NAMES:
        v = values[name]
        if not math.isfinite(v):
            return NonFiniteInput(f"{name}={v!r} is not finite")
        power = 2 if name in ("log_l", "log_sigma_dp") else 1
        try:
            math.exp(v) ** power
        except OverflowError:
            return NonFiniteInput(f"exp({name}) ** {power} overflows at {name}={v!r}")
    return None


def test_params_range_test_is_the_per_field_check():
    # the chained range test that lets most points skip the loop accepts
    # and rejects exactly what the loop does, with the same error, for each
    # edge value in each field and in pairs of fields
    edges = [math.nan, math.inf, -math.inf, -1e300, -1.5e300, -1e308, 0.0, -0.0,
             354.0, 354.8, 354.9, 355.0, 709.0, 709.7, 709.8, 1e300]
    rng = np.random.default_rng(9)
    points = [{name: v} for name in PARAM_NAMES for v in edges]
    points += [dict(zip(rng.choice(PARAM_NAMES, 2, replace=False), rng.choice(edges, 2)))
               for _ in range(200)]
    for point in points:
        values = {name: point.get(name, 0.0) for name in PARAM_NAMES}
        want = _per_field_check(values)
        if want is None:
            p = KernelParams(**values)
            assert np.array_equal(_bits(p.as_array()), _bits([values[n] for n in PARAM_NAMES]))
        else:
            with pytest.raises(NonFiniteInput) as err:
                KernelParams(**values)
            assert str(err.value) == str(want), values
