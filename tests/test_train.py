"""Tests for the min-max training loop: the soft environment masks, the
invariance penalty and its gradients (checked against finite-difference
oracles computed here), the descent/ascent steps, and the full loop's
reduction, determinism and abort behavior."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from dilgp import gp as gp_mod
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
                         outer_descent_step)

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
        tr = fit_standardizer(train).transform(train)
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
    # difference of -lml + lam * penalty computed from public evaluators
    h = 1e-4
    lam = 0.7
    eta = 1e-4
    for kind, seed in itertools.product(KernelKind, range(6)):
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
        assert a.objective == b.objective and a.penalty == b.penalty


def test_trace_serializes_to_jsonl():
    import json
    X, y, _ = toy(9, n=8)
    spec = ModelSpec(t1=3, t2=2, eta1=0.1, eta2=0.01, lam=0.1, sigma2=0.2)
    _, _, trace = _train(spec, X, y, 0)
    lines = trace.to_jsonl().strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) >= {"step", "objective", "penalty", "per_env_grad", "params"}


def test_one_factorization_per_round(monkeypatch):
    # the state of each accepted step is the next round's, and the last one
    # holds the posterior: a whole fit factorizes t1 + 1 times when no step
    # is halved
    calls = []
    real_factor = gp_mod._factor

    def counting_factor(*args):
        calls.append(args[1])
        return real_factor(*args)

    monkeypatch.setattr(gp_mod, "_factor", counting_factor)
    train, _ = gen_synthetic_1d(0)
    for model in ("dil_gp", "gp_gaussian"):
        calls.clear()
        spec = ModelSpec(model=model, t1=7, t2=3, eta2=0.005, lam=0.01, sigma2=0.4)
        post, _, trace = fit_model(spec, train, seed=11)
        assert len(trace) == 7 and len(calls) == spec.t1 + 1
        assert calls[0] == KernelParams() and calls[-1] == post.params


@pytest.mark.parametrize("model,standardize", [
    pytest.param(m, s, id=m if s else f"{m}-identity")
    for m in sorted(MODEL_KINDS) for s in (True, False)])
def test_fit_model_posterior_is_fit_posterior_at_trained_params(model, standardize):
    train, test = gen_synthetic_1d(1)
    spec = ModelSpec(model=model, t1=6, t2=2, standardize=standardize)
    post, scaler, _ = fit_model(spec, train, seed=3)
    ds = scaler.transform(train)
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
    assert len(tr0) == 10 and tr0.to_jsonl() == tr1.to_jsonl()
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
