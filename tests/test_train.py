"""Tests for the min-max training loop: the soft environment masks, the
invariance penalty and its gradients (checked against finite-difference
oracles computed here), the descent/ascent steps, and the full loop's
reduction, determinism and abort behavior."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from dilgp import data as data_mod
from dilgp import gp as gp_mod
from dilgp import kernels as kernels_mod
from dilgp import train as train_mod
from dilgp.data import fit_standardizer, gen_synthetic_1d
from dilgp.exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                              TrainingAbort)
from dilgp.gp import (NoiseSpec, env_log_likelihood, fit_posterior,
                      log_marginal_likelihood, predict)
from dilgp.kernels import (ACTIVE_PARAMS, PARAM_NAMES, KernelKind,
                           KernelParams, kernel_matrix)
from dilgp.rng import rng_for
from dilgp.train import (MODEL_KINDS, DomainLogits, ModelSpec, TrainState, _train,
                         env_masks, fit_model, inner_ascent_step, irm_penalty,
                         learns_partition, outer_descent_step, to_jsonl)

GAUSS = KernelKind.GAUSSIAN


def toy(seed, n=8, d=1):
    rng = rng_for(seed, "train-toy")
    X = rng.uniform(-2.0, 2.0, (n, d))
    y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(n)
    q = rng.standard_normal(n)
    return X, y, DomainLogits(q)


def rand_params(rng):
    return KernelParams(*(0.4 * rng.standard_normal(4)))


# ---------------------------------------------------------------- masks

def test_env_masks_zero_logits():
    m0, m1 = env_masks(DomainLogits(np.zeros(7)))
    assert np.all(m0 == 0.5) and np.all(m1 == 0.5)


def test_env_masks_saturation():
    m0, _ = env_masks(DomainLogits(np.array([20.0, -20.0])))
    assert abs(m0[0] - 1.0) < 1e-8 and abs(m0[1]) < 1e-8


def test_env_masks_complementary_exact():
    rng = rng_for(3, "masks")
    for _ in range(20):
        q = 10.0 * rng.standard_normal(30)
        m0, m1 = env_masks(DomainLogits(q))
        assert np.all(m0 + m1 == 1.0)
        # strictly interior while the logistic is unsaturated
        mod = np.clip(q, -30.0, 30.0)
        s0, _ = env_masks(DomainLogits(mod))
        assert np.all((s0 > 0) & (s0 < 1))


def test_env_masks_negation_swaps_bitwise():
    q = rng_for(4, "masks").standard_normal(25) * 3.0
    m0, m1 = env_masks(DomainLogits(q))
    n0, n1 = env_masks(DomainLogits(-q))
    assert np.array_equal(m0, n1) and np.array_equal(m1, n0)


def test_env_masks_keep_expit_bits():
    # the masks were sigmoid(|q|) by scipy.special.expit; they keep its bits
    # at zero, subnormal, saturating and underflowing |q| and on a random
    # grid, where numpy's exp of a real array differs in the last bit
    from scipy.special import expit

    edges = np.array([0.0, 5e-324, 1e-300, 36.8, 709.7, 745.0, 800.0])
    grid = rng_for(0, "expit-grid").standard_normal(100_000) * np.logspace(-3, 2.5, 100_000)
    q = np.concatenate([edges, -edges, grid])
    p = expit(np.abs(q))
    want = np.where(q >= 0, p, 1.0 - p)
    m0, m1 = env_masks(DomainLogits(q))
    assert m0.tobytes() == want.tobytes() and m1.tobytes() == (1.0 - want).tobytes()


def test_domain_logits_validation():
    with pytest.raises(NonFiniteInput):
        DomainLogits(np.array([0.0, np.nan]))
    with pytest.raises(DimensionMismatch):
        DomainLogits(np.zeros((3, 2)))


# ---------------------------------------------------------------- config

def test_model_spec_validation():
    for bad in ({"t1": 0}, {"t2": -1}, {"eta1": 0.0}, {"lam": -0.5}, {"sigma2": 0.0},
                {"model": "forest"}, {"model": "gp_gaussian", "eta2": -0.5},
                {"model": "gp_gaussian", "t1": -1}, {"eta2": float("nan")},
                {"t1": 30.0}, {"t2": True}, {"lam": "1"}, {"standardize": 1}):
        with pytest.raises(InvalidSetting):
            ModelSpec(**bad)
    # a plain GP may keep the default kernel; the min-max loop needs a round
    assert ModelSpec(model="gp_gaussian", t1=0).t1 == 0


# ---------------------------------------------------------------- penalty

def test_penalty_symmetric_masks_equal_grads():
    X, y, _ = toy(0)
    rep = irm_penalty(GAUSS, KernelParams(), NoiseSpec(0.1), X, y,
                      DomainLogits(np.zeros(len(y))))
    assert abs(rep.per_env_grad[0] - rep.per_env_grad[1]) < 1e-6
    assert rep.penalty >= 0.0


def test_penalty_matches_scale_derivative_fd():
    # oracle: central difference of the masked likelihood in the common
    # rescaling w of the exponentiated parameters, h = 1e-5
    h = 1e-5
    for seed in range(10):
        rng = rng_for(seed, "pen-fd")
        X, y, logits = toy(seed)
        params = rand_params(rng)
        noise = NoiseSpec(0.2)
        m0, m1 = env_masks(logits)
        rep = irm_penalty(GAUSS, params, noise, X, y, logits)
        for g, mask in zip(rep.per_env_grad, (m0, m1)):
            lp = env_log_likelihood(GAUSS, params.scaled(1.0 + h), noise, X, y, mask)
            lm = env_log_likelihood(GAUSS, params.scaled(1.0 - h), noise, X, y, mask)
            want = (lp - lm) / (2.0 * h)
            assert abs(g - want) <= 1e-4 * max(1.0, abs(want))
        assert rep.penalty == pytest.approx(
            rep.per_env_grad[0] ** 2 + rep.per_env_grad[1] ** 2, rel=1e-12)


def test_penalty_label_swap_exact():
    X, y, logits = toy(2)
    params = rand_params(rng_for(2, "pen-swap"))
    a = irm_penalty(GAUSS, params, NoiseSpec(0.1), X, y, logits)
    b = irm_penalty(GAUSS, params, NoiseSpec(0.1), X, y, DomainLogits(-logits.q_tilde))
    assert a.penalty == b.penalty
    assert a.per_env_grad == (b.per_env_grad[1], b.per_env_grad[0])
    state = TrainState(GAUSS, params, NoiseSpec(0.1), X, y)
    assert np.array_equal(state.grad_q(DomainLogits(-logits.q_tilde)), -state.grad_q(logits))


def test_penalty_nonnegative_across_seeds():
    for seed in range(12):
        rng = rng_for(seed, "pen-nonneg")
        X, y, logits = toy(seed, n=6)
        rep = irm_penalty(GAUSS, rand_params(rng), NoiseSpec(0.3), X, y, logits)
        assert rep.penalty >= 0.0


# ---------------------------------------------------------------- logit ascent

def test_grad_q_matches_fd():
    h = 1e-4
    for seed in range(6):
        rng = rng_for(seed, "gradq")
        X, y, logits = toy(seed)
        params = rand_params(rng)
        noise = NoiseSpec(0.2)
        state = TrainState(GAUSS, params, noise, X, y)
        got = state.grad_q(logits)
        want = np.zeros_like(got)
        for i in range(len(want)):
            for sign in (1.0, -1.0):
                q2 = logits.q_tilde.copy()
                q2[i] += sign * h
                want[i] += sign * irm_penalty(GAUSS, params, noise, X, y,
                                              DomainLogits(q2)).penalty
        want /= 2.0 * h
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-3 * scale


def test_inner_ascent_zero_rate_is_identity():
    X, y, logits = toy(1)
    state = TrainState(GAUSS, KernelParams(), NoiseSpec(0.1), X, y)
    out = inner_ascent_step(logits, state, 0.0)
    assert np.array_equal(out.q_tilde, logits.q_tilde)


def test_inner_ascent_nonfinite_gradient_aborts_with_coordinate():
    # the 1e200 targets overflow on purpose
    X = rng_for(0, "abort-q").uniform(-1, 1, (8, 1))
    y = np.full(8, 1e200)
    logits = DomainLogits(0.1 * rng_for(0, "abort-q2").standard_normal(8))
    with np.errstate(over="ignore", invalid="ignore"):
        state = TrainState(GAUSS, KernelParams(), NoiseSpec(0.1), X, y)
        with pytest.raises(TrainingAbort, match="coordinate"):
            inner_ascent_step(logits, state, 0.1)


def test_partition_discovery_on_shifted_clusters():
    # after full training at the calibrated settings, the soft masks should
    # tell the two generating clusters apart on most seeds
    hits = 0
    for s in range(5):
        train, _ = gen_synthetic_1d(s)
        sz = fit_standardizer(train)
        tr = replace(train, x=sz.transform_x(train.x), y=sz.transform_y(train.y))
        spec = ModelSpec(t1=100, t2=10, eta1=0.1, eta2=0.005, lam=0.01, sigma2=0.4)
        _, logits, _ = _train(spec, tr.x, tr.y, s)
        m0, _ = env_masks(logits)
        tags = tr.domain_tag
        gap = abs(float(m0[tags == 1].mean()) - float(m0[tags == 0].mean()))
        hits += gap >= 0.05
    assert hits >= 3


# ---------------------------------------------------------------- theta descent

def test_outer_step_improves_likelihood_without_penalty():
    rng = rng_for(0, "outer-toy")
    X = rng.uniform(-1.0, 1.0, (3, 1))
    y = np.array([0.3, -0.2, 0.8])
    noise = NoiseSpec(0.1)
    init = KernelParams()
    state = TrainState(GAUSS, init, noise, X, y)
    logits = DomainLogits(np.zeros(3))
    after = outer_descent_step(init, logits, state, 0.01, 0.0)
    l0 = log_marginal_likelihood(GAUSS, init, noise, X, y)
    l1 = log_marginal_likelihood(GAUSS, after, noise, X, y)
    assert l1 > l0


def test_outer_step_zero_rate_keeps_params():
    X, y, logits = toy(3)
    init = KernelParams(0.1, -0.2, 0.0, 0.0)
    state = TrainState(GAUSS, init, NoiseSpec(0.1), X, y)
    after = outer_descent_step(init, logits, state, 0.0, 0.5)
    assert np.array_equal(after.as_array(), init.as_array())


def test_combined_objective_gradient_matches_fd():
    # implied gradient from one descent step at rate eta, against a central
    # difference of -lml + lam * penalty computed from public evaluators;
    # -lml alone (lam = 0) is what the other kernels train on
    h = 1e-4
    eta = 1e-4
    for kind, seed in itertools.product(KernelKind, range(6)):
        lam = 0.7 if kind is GAUSS else 0.0
        rng = rng_for(seed, "outer-fd")
        X, y, logits = toy(seed)
        params = rand_params(rng)
        noise = NoiseSpec(0.25)
        state = TrainState(kind, params, noise, X, y)
        after = outer_descent_step(params, logits, state, eta, lam)
        implied = (params.as_array() - after.as_array()) / eta

        def objective(p):
            nll = -log_marginal_likelihood(kind, p, noise, X, y)
            return nll + lam * irm_penalty(kind, p, noise, X, y, logits).penalty

        for idx, name in enumerate(PARAM_NAMES):
            if name not in ACTIVE_PARAMS[kind]:
                assert implied[idx] == 0.0
                continue
            want = (objective(params.shifted(name, h))
                    - objective(params.shifted(name, -h))) / (2.0 * h)
            assert abs(implied[idx] - want) <= 1e-3 * max(1.0, abs(want)), (kind, seed, name)


def test_partition_models_use_the_gaussian_kernel():
    # the penalty's parameter gradient exists for the Gaussian kernel only
    partition = [m for m in MODEL_KINDS if learns_partition(ModelSpec(model=m))]
    assert partition
    assert all(MODEL_KINDS[m] is GAUSS for m in partition)


@pytest.mark.parametrize("kind", [KernelKind.RATIONAL_QUADRATIC, KernelKind.DOT_PRODUCT],
                         ids=lambda k: k.value)
def test_penalty_step_needs_the_gaussian_kernel(kind):
    X, y, logits = toy(4)
    params = rand_params(rng_for(4, "gauss-only"))
    state = TrainState(kind, params, NoiseSpec(0.25), X, y)
    with pytest.raises(InvalidSetting, match=kind.value):
        outer_descent_step(params, logits, state, 0.01, 0.5)
    after = outer_descent_step(params, logits, state, 0.01, 0.0)
    assert not np.array_equal(after.as_array(), params.as_array())


def test_trace_from_one_product_matches_dense_oracle(monkeypatch):
    # tr(K_p M) from B = A^-1 C alone, against the explicit M = A^-1 C A^-1
    params = KernelParams(0.2, -0.3, 0.1, -0.2)

    def check(X, y, sigma2):
        state = TrainState(GAUSS, params, NoiseSpec(sigma2), X, y)
        want = np.einsum("pij,ij->p", state.Kp, state.A_inv @ state.C @ state.A_inv)
        np.testing.assert_allclose(state.trace_Kp_M(), want, rtol=1e-10, atol=0)
        return state

    for n in (5, 115):
        X, y, _ = toy(n, n=n, d=2)
        check(X, y, 0.3)
    # A triplicated row at sigma2 = 0 makes the factor add jitter, so tau is
    # the jitter alone. The ladder starts at 1e-3 of the mean diagonal here:
    # its default first rung, 1e-10, leaves A with a condition number near
    # 1e10, at which both sides carry rounding errors near 1e-6 relative.
    monkeypatch.setattr(gp_mod, "_JITTER_START", 1e-3)
    monkeypatch.setattr(gp_mod, "_JITTER_STOP", 1e-1)
    X, y, _ = toy(0, n=5)
    X[1] = X[2] = X[0]
    assert check(X, y, 0.0).post.jitter > 0.0


def test_label_swap_leaves_outer_step_unchanged():
    X, y, logits = toy(5)
    params = rand_params(rng_for(5, "swap-outer"))
    state = TrainState(GAUSS, params, NoiseSpec(0.2), X, y)
    a = outer_descent_step(params, logits, state, 0.01, 1.0)
    b = outer_descent_step(params, DomainLogits(-logits.q_tilde), state, 0.01, 1.0)
    assert np.allclose(a.as_array(), b.as_array(), atol=1e-10, rtol=0)


# ---------------------------------------------------------------- full loop

def test_lambda_zero_no_inner_reduces_to_vanilla_bitwise():
    X, y, _ = toy(7, n=12)
    spec = ModelSpec(t1=25, t2=0, eta1=0.1, eta2=0.02, lam=0.0, sigma2=0.1)
    dil, _, trace = _train(spec, X, y, 3)
    van, _, van_trace = _train(replace(spec, model="gp_gaussian"), X, y, 3)
    assert np.array_equal(dil.params.as_array(), van.params.as_array())
    assert len(trace) == len(van_trace) == 25


def test_trace_length_and_determinism():
    X, y, _ = toy(8, n=10)
    spec = ModelSpec(t1=7, t2=3, eta1=0.1, eta2=0.01, lam=0.5, sigma2=0.2)
    out1 = _train(spec, X, y, 11)
    out2 = _train(spec, X, y, 11)
    assert len(out1[2]) == 7
    assert np.array_equal(out1[0].params.as_array(), out2[0].params.as_array())
    assert np.array_equal(out1[1].q_tilde, out2[1].q_tilde)
    for a, b in zip(out1[2].records, out2[2].records):
        assert a["objective"] == b["objective"] and a["penalty"] == b["penalty"]


def test_trace_serializes_to_jsonl():
    import json
    X, y, _ = toy(9, n=8)
    spec = ModelSpec(t1=3, t2=2, eta1=0.1, eta2=0.01, lam=0.1, sigma2=0.2)
    _, _, trace = _train(spec, X, y, 0)
    lines = to_jsonl(trace.records).strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "objective", "penalty", "per_env_grad", "params",
                        "noise_sigma2", "jitter", "halvings"}
    assert rec["jitter"] == 0.0 and rec["halvings"] == 0


def test_trace_records_step_halvings():
    # at eta2 = 300 the first trial puts log l near 530, where l^2 overflows;
    # the record holds the halved step that was accepted
    X, y, _ = toy(10)
    spec = ModelSpec(model="gp_gaussian", t1=2, eta2=300.0, sigma2=0.1)
    g = TrainState(GAUSS, KernelParams(), spec.noise, X, y).objective_grad(None, 0.0)
    with pytest.raises(NonFiniteInput, match="log_l"):
        KernelParams.from_array(-spec.eta2 * g)
    _, _, trace = _train(spec, X, y, 0)
    first = trace.records[0]
    assert first["halvings"] >= 1
    assert np.array_equal(KernelParams(**first["params"]).as_array(),
                          -(spec.eta2 / 2 ** first["halvings"]) * g)
    assert all(r["jitter"] == 0.0 for r in trace.records)


def test_trace_records_factor_jitter():
    # duplicated rows make K singular, and sigma2 = 1e-20 is too small to
    # factorize K + sigma2 I without jitter
    X, y, _ = toy(10)
    X, y = np.repeat(X[:4], 2, axis=0), np.repeat(y[:4], 2)
    spec = ModelSpec(model="gp_gaussian", t1=2, eta2=1e-6, sigma2=1e-20)
    _, _, trace = _train(spec, X, y, 0)
    assert all(r["jitter"] > 0.0 and type(r["jitter"]) is float for r in trace.records)
    assert [r["halvings"] for r in trace.records] == [0, 0]


def test_one_factorization_per_round(monkeypatch):
    # the state of each accepted step is the next round's, and the last one
    # holds the posterior: a whole fit factorizes t1 + 1 times when no step
    # is halved
    calls = []
    real_factor = gp_mod._factor

    def counting_factor(K, noise, params, out=None):
        calls.append(params)
        return real_factor(K, noise, params, out)

    monkeypatch.setattr(gp_mod, "_factor", counting_factor)
    train, _ = gen_synthetic_1d(0)
    for model in ("dil_gp", "gp_gaussian"):
        calls.clear()
        spec = ModelSpec(model=model, t1=7, t2=3, eta2=0.005, lam=0.01, sigma2=0.4)
        post, _, trace = fit_model(spec, train, seed=11)
        assert len(trace) == 7 and len(calls) == spec.t1 + 1
        assert calls[0] == KernelParams() and calls[-1] == post.params


@pytest.mark.parametrize("model", ["dil_gp", "gp_gaussian"])
def test_xy_checks_per_fit_do_not_grow_with_t1(model, monkeypatch):
    # fit_model hands the standardized arrays straight to _train, and the
    # training states take X and y as its check returned them, so a fit
    # checks once at any t1
    calls = []
    real_check = data_mod.check_xy

    def counting_check(X, y):
        calls.append(len(y))
        return real_check(X, y)

    for mod in (data_mod, gp_mod, train_mod):
        monkeypatch.setattr(mod, "check_xy", counting_check)
    train, _ = gen_synthetic_1d(0)
    counts = []
    for t1 in (3, 7):
        calls.clear()
        fit_model(ModelSpec(model=model, t1=t1, t2=2), train, seed=11)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_fit_predict_is_the_posterior_at_standardized_inputs():
    train, test = gen_synthetic_1d(0)
    for model in ("dil_gp", "gp_gaussian"):
        fit = fit_model(ModelSpec(model=model, t1=3, t2=2), train, seed=11)
        mean, var = fit.predict(test.x)
        want_mean, want_var = predict(fit.post, fit.scaler.transform_x(test.x))
        assert np.array_equal(mean, want_mean) and np.array_equal(var, want_var)


def test_one_kernel_evaluation_per_point(monkeypatch):
    # K, the K_p stack, the penalty's D_p stack and its trace term of every
    # parameter point come from one squared-distance matrix per fit
    calls = []
    real_sq_distances = kernels_mod._sq_distances

    def counting_sq_distances(*args):
        calls.append(args)
        return real_sq_distances(*args)

    monkeypatch.setattr(kernels_mod, "_sq_distances", counting_sq_distances)
    train, _ = gen_synthetic_1d(0)
    for model in ("dil_gp", "gp_gaussian"):
        calls.clear()
        spec = ModelSpec(model=model, t1=7, t2=3, eta2=0.005, lam=0.01, sigma2=0.4)
        _, _, trace = fit_model(spec, train, seed=11)
        assert len(trace) == 7 and len(calls) == 1, model


@pytest.mark.parametrize("model", sorted(MODEL_KINDS))
def test_one_workspace_per_fit(model, monkeypatch):
    # every state of a fit writes its K_p stack, factor and A^-1 into the
    # buffers of the first, and the posterior's factor stays read-only
    states = []

    class RecordingState(TrainState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(train_mod, "TrainState", RecordingState)
    train, _ = gen_synthetic_1d(0)
    spec = ModelSpec(model=model, t1=5, t2=2)
    post, _, _ = fit_model(spec, train, seed=11)
    first = states[0]
    assert len(states) >= spec.t1 + 1 and post is states[-1].post
    for state in states:
        assert np.shares_memory(state.Kp, first.Kp)
        assert np.shares_memory(state.post.chol, first.post.chol)
    inverted = [s for s in states if "A_inv" in vars(s)]
    assert len(inverted) >= spec.t1
    assert all(np.shares_memory(s.A_inv, first.A_inv) for s in inverted)
    assert not post.chol.flags.writeable


@pytest.mark.parametrize("model,standardize", [
    pytest.param(m, s, id=m if s else f"{m}-identity")
    for m in sorted(MODEL_KINDS) for s in (True, False)])
def test_fit_model_posterior_is_fit_posterior_at_trained_params(model, standardize):
    train, test = gen_synthetic_1d(1)
    spec = ModelSpec(model=model, t1=6, t2=2, standardize=standardize)
    post, scaler, _ = fit_model(spec, train, seed=3)
    ds = replace(train, x=scaler.transform_x(train.x), y=scaler.transform_y(train.y))
    want = fit_posterior(spec.kind, post.params, spec.noise, ds.x, ds.y)
    assert np.array_equal(post.chol, want.chol)
    assert np.array_equal(post.alpha_vec, want.alpha_vec)
    assert post.jitter == want.jitter and post.lml == want.lml
    if not standardize:
        # the identity standardizer maps x, y and predictions bit for bit
        mean, var = predict(post, test.x)
        assert np.array_equal(ds.x, train.x) and np.array_equal(ds.y, train.y)
        assert np.array_equal(scaler.transform_x(test.x), test.x)
        assert np.array_equal(scaler.inverse_y(mean), mean)
        assert np.array_equal(scaler.scale_y(np.sqrt(var)), np.sqrt(var))


def test_too_few_points_rejected():
    X = np.zeros((3, 1))
    y = np.zeros(3)
    spec = ModelSpec(t1=1, t2=0, eta1=0.1, eta2=0.01, lam=0.0, sigma2=0.1)
    with pytest.raises(DimensionMismatch):
        _train(spec, X, y, 0)


def test_descent_abort_carries_partial_trace():
    # enormous targets make the likelihood gradient so large that every
    # halved step still overflows the log-parameters
    rng = rng_for(1, "abort-theta")
    X = rng.uniform(-1, 1, (8, 1))
    y = 1e12 * np.ones(8)
    spec = ModelSpec(t1=10, t2=0, eta1=0.1, eta2=0.5, lam=0.0, sigma2=1e-6)
    with pytest.raises(TrainingAbort) as exc:
        _train(spec, X, y, 0)
    assert "halvings" in str(exc.value)
    assert len(exc.value.trace) < spec.t1


# ---------------------------------------------------------------- vanilla

def test_vanilla_zero_steps_returns_init():
    X, y, _ = toy(10)
    state, _, trace = _train(ModelSpec(model="gp_gaussian", t1=0, sigma2=0.1), X, y, 0)
    assert np.array_equal(state.params.as_array(), KernelParams().as_array())
    assert len(trace) == 0


def test_plain_gp_ignores_the_seed():
    # only a model that learns a partition reads the seed: a plain GP has no
    # logits, and any two seeds give the same trained model bit for bit
    X, y, _ = toy(11, n=12)
    spec = ModelSpec(model="gp_gaussian", t1=10, eta2=0.02, sigma2=0.1)
    (s0, q0, tr0), (s1, q1, tr1) = (_train(spec, X, y, seed) for seed in (0, 1))
    assert q0 is None and q1 is None
    assert np.array_equal(s0.params.as_array(), s1.params.as_array())
    assert len(tr0) == 10 and to_jsonl(tr0.records) == to_jsonl(tr1.records)
    train, _ = gen_synthetic_1d(0)
    p0, p1 = (fit_model(replace(spec, t1=5), train, seed)[0] for seed in (0, 1))
    assert np.array_equal(p0.chol, p1.chol)
    assert np.array_equal(p0.alpha_vec, p1.alpha_vec)


def test_vanilla_recovers_generating_params():
    # sample a function exactly from a known kernel and check the trained
    # log-parameters land near the truth
    true = KernelParams(log_s=np.log(2.0), log_l=np.log(0.8))
    sig2 = 0.05
    for seed in (2, 6, 7):
        rng = rng_for(seed, "gp-recovery")
        X = rng.uniform(-3.0, 3.0, (40, 1))
        K = kernel_matrix(GAUSS, true, X, X)
        y = rng.multivariate_normal(np.zeros(40), K + sig2 * np.eye(40))
        spec = ModelSpec(model="gp_gaussian", t1=200, eta2=0.05, sigma2=sig2)
        p = _train(spec, X, y, 0)[0].params
        assert abs(p.log_s - true.log_s) < 0.5
        assert abs(p.log_l - true.log_l) < 0.5


def test_vanilla_final_likelihood_not_worse():
    noise = NoiseSpec(0.1)
    for seed in range(6):
        rng = rng_for(seed, "mono")
        X = rng.uniform(-2.0, 2.0, (20, 1))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(20)
        l0 = log_marginal_likelihood(GAUSS, KernelParams(), noise, X, y)
        spec = ModelSpec(model="gp_gaussian", t1=50, eta2=0.05, sigma2=noise.sigma2)
        p = _train(spec, X, y, 0)[0].params
        assert log_marginal_likelihood(GAUSS, p, noise, X, y) >= l0


def test_dil_beats_vanilla_on_shifted_1d():
    # held-out RMSE comparison at the calibrated settings, lower is better
    from dilgp.experiments import fit_eval, settings_for
    wins = 0
    for s in range(5):
        train, test = gen_synthetic_1d(s)
        dil, _ = fit_eval(train, test, settings_for("synthetic_1d", "dil_gp"), seed=s)
        van, _ = fit_eval(train, test, settings_for("synthetic_1d", "gp_gaussian"), seed=s)
        wins += dil.rmse < van.rmse
    assert wins >= 4
