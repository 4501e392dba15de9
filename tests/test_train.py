"""Tests for the min-max training loop: the soft environment masks, the
invariance penalty and its gradients (checked against finite-difference
oracles computed here), the descent/ascent steps, and the full loop's
reduction, determinism and abort behavior."""

import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

from dilgp import blas
from dilgp import data as data_mod
from dilgp import gp as gp_mod
from dilgp import kernels as kernels_mod
from dilgp import train as train_mod
from dilgp.data import fit_standardizer, gen_synthetic_1d
from dilgp.exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                              TrainingAbort)
from dilgp.gp import NoiseSpec, env_log_likelihood, fit_posterior, predict
from dilgp.kernels import (ACTIVE_PARAMS, PARAM_NAMES, KernelKind,
                           KernelParams, kernel_matrix)
from dilgp.rng import rng_for
from dilgp.train import (MODEL_KINDS, DomainLogits, ModelSpec, TrainState, _train,
                         env_masks, fit_model, inner_ascent_step, learns_partition,
                         outer_descent_step, to_jsonl)

GAUSS = KernelKind.GAUSSIAN


def toy(seed, n=8, d=1):
    rng = rng_for(seed, "train-toy")
    X = rng.uniform(-2.0, 2.0, (n, d))
    y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(n)
    q = rng.standard_normal(n)
    return X, y, DomainLogits(q)


def rand_params(rng):
    return KernelParams(*(0.4 * rng.standard_normal(4)))


def penalty(kind, params, noise, X, y, q):
    """(g0^2 + g1^2, (g0, g1)): the penalty at the masks of q and its two
    per-environment derivatives."""
    g0, g1, _, _ = TrainState(kind, params, noise, X, y).env_terms(env_masks(q))
    return g0 * g0 + g1 * g1, (g0, g1)


def ascend(state, q, t2, eta1):
    """state.ascend from the masks of q and their terms."""
    masks = env_masks(q)
    return state.ascend(q, t2, eta1, masks, state.env_terms(masks))


# ---------------------------------------------------------------- masks

def test_env_masks_zero_logits():
    m0, m1 = env_masks(np.zeros(7))
    assert np.all(m0 == 0.5) and np.all(m1 == 0.5)


def test_env_masks_saturation():
    m0, _ = env_masks(np.array([20.0, -20.0]))
    assert abs(m0[0] - 1.0) < 1e-8 and abs(m0[1]) < 1e-8


def test_env_masks_complementary_exact():
    rng = rng_for(3, "masks")
    for _ in range(20):
        q = 10.0 * rng.standard_normal(30)
        m0, m1 = env_masks(q)
        assert np.all(m0 + m1 == 1.0)
        # strictly interior while the logistic is unsaturated
        mod = np.clip(q, -30.0, 30.0)
        s0, _ = env_masks(mod)
        assert np.all((s0 > 0) & (s0 < 1))


def test_env_masks_negation_swaps_bitwise():
    q = rng_for(4, "masks").standard_normal(25) * 3.0
    m0, m1 = env_masks(q)
    n0, n1 = env_masks(-q)
    assert np.array_equal(m0, n1) and np.array_equal(m1, n0)


def test_env_masks_are_within_two_ulp_of_expit():
    # sigmoid(|q|) from numpy's exp is within 2 ulp of scipy.special.expit at
    # zero, subnormal, saturating, underflowing and infinite |q| and on a
    # random grid, each mask within one eps of expit's; on that grid too,
    # negation swaps the masks bit for bit and they sum to exactly 1
    from scipy.special import expit

    edges = np.array([0.0, 5e-324, 1e-300, 36.8, 709.7, 745.0, 800.0, np.inf])
    grid = rng_for(0, "expit-grid").standard_normal(100_000) * np.logspace(-3, 2.5, 100_000)
    q = np.concatenate([edges, -edges, grid])
    p = expit(np.abs(q))
    m0, m1 = env_masks(q)
    assert np.all(np.abs(np.where(q >= 0, m0, m1) - p) <= 2 * np.spacing(p))
    want = np.where(q >= 0, p, 1.0 - p)
    eps = np.finfo(float).eps
    assert np.abs(m0 - want).max() <= eps and np.abs(m1 - (1.0 - want)).max() <= eps
    n0, n1 = env_masks(-q)
    assert m0.tobytes() == n1.tobytes() and m1.tobytes() == n0.tobytes()
    assert np.all(m0 + m1 == 1.0)


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
    pen, per_env_grad = penalty(GAUSS, KernelParams(), NoiseSpec(0.1), X, y, np.zeros(len(y)))
    assert abs(per_env_grad[0] - per_env_grad[1]) < 1e-6
    assert pen >= 0.0


def test_penalty_matches_scale_derivative_fd():
    # oracle: central difference of the masked likelihood in the common
    # rescaling w of the exponentiated parameters, h = 1e-5
    h = 1e-5
    for seed in range(10):
        rng = rng_for(seed, "pen-fd")
        X, y, logits = toy(seed)
        params = rand_params(rng)
        noise = NoiseSpec(0.2)
        m0, m1 = env_masks(logits.q_tilde)
        pen, per_env_grad = penalty(GAUSS, params, noise, X, y, logits.q_tilde)
        for g, mask in zip(per_env_grad, (m0, m1)):
            lp = env_log_likelihood(GAUSS, params.scaled(1.0 + h), noise, X, y, mask)
            lm = env_log_likelihood(GAUSS, params.scaled(1.0 - h), noise, X, y, mask)
            want = (lp - lm) / (2.0 * h)
            assert abs(g - want) <= 1e-4 * max(1.0, abs(want))
        assert pen == pytest.approx(per_env_grad[0] ** 2 + per_env_grad[1] ** 2, rel=1e-12)


def test_penalty_label_swap_exact():
    X, y, logits = toy(2)
    q = logits.q_tilde
    params = rand_params(rng_for(2, "pen-swap"))
    pen_a, grads_a = penalty(GAUSS, params, NoiseSpec(0.1), X, y, q)
    pen_b, grads_b = penalty(GAUSS, params, NoiseSpec(0.1), X, y, -q)
    assert pen_a == pen_b
    assert grads_a == (grads_b[1], grads_b[0])
    state = TrainState(GAUSS, params, NoiseSpec(0.1), X, y)
    assert np.array_equal(ascend(state, -q, 1, 0.5)[0], -ascend(state, q, 1, 0.5)[0])


def test_penalty_nonnegative_across_seeds():
    for seed in range(12):
        rng = rng_for(seed, "pen-nonneg")
        X, y, logits = toy(seed, n=6)
        pen, _ = penalty(GAUSS, rand_params(rng), NoiseSpec(0.3), X, y, logits.q_tilde)
        assert pen >= 0.0


# ---------------------------------------------------------------- logit ascent

def test_grad_q_matches_fd():
    # the logit gradient implied by one ascent step at rate 1
    h = 1e-4
    for seed in range(6):
        rng = rng_for(seed, "gradq")
        X, y, logits = toy(seed)
        q = logits.q_tilde
        params = rand_params(rng)
        noise = NoiseSpec(0.2)
        state = TrainState(GAUSS, params, noise, X, y)
        got = ascend(state, q, 1, 1.0)[0] - q
        want = np.zeros_like(got)
        for i in range(len(want)):
            for sign in (1.0, -1.0):
                q2 = q.copy()
                q2[i] += sign * h
                want[i] += sign * penalty(GAUSS, params, noise, X, y, q2)[0]
        want /= 2.0 * h
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-3 * scale


def test_inner_ascent_zero_rate_is_identity():
    X, y, logits = toy(1)
    state = TrainState(GAUSS, KernelParams(), NoiseSpec(0.1), X, y)
    out = inner_ascent_step(logits, state, 0.0)
    assert np.array_equal(out.q_tilde, logits.q_tilde)
    assert ascend(state, logits.q_tilde, 0, 0.3)[0] is logits.q_tilde


@pytest.mark.parametrize("t2", [1, 3])
def test_ascend_returns_the_masks_of_its_logits(t2):
    X, y, logits = toy(5)
    q = logits.q_tilde
    state = TrainState(GAUSS, rand_params(rng_for(5, "ascend-masks")), NoiseSpec(0.2), X, y)
    got, masks, terms = ascend(state, q, t2, 0.5)
    assert not np.array_equal(got, q)
    for m, want in zip(masks, env_masks(got), strict=True):
        assert np.array_equal(_bits(m), _bits(want))
    # and the terms of those masks
    for value, want in zip(terms, state.env_terms(masks), strict=True):
        assert np.array_equal(_bits(value), _bits(want))


def test_ascend_without_steps_returns_its_arguments(monkeypatch):
    # t2 = 0 hands back the logits, masks and terms it was given and forms
    # no A^-1
    X, y, logits = toy(6)
    state = TrainState(GAUSS, KernelParams(), NoiseSpec(0.1), X, y)
    inverses = []
    monkeypatch.setattr(train_mod, "cho_inverse", lambda *args, **kw: inverses.append(args))
    masks, terms = env_masks(logits.q_tilde), (0.0, 0.0, None, None)
    q, got, got_terms = state.ascend(logits.q_tilde, 0, 0.3, masks, terms)
    assert q is logits.q_tilde and got is masks and got_terms is terms
    assert inverses == []


def test_inner_ascent_nonfinite_gradient_aborts_with_coordinate():
    # the 1e200 targets overflow on purpose
    X = rng_for(0, "abort-q").uniform(-1, 1, (8, 1))
    y = np.full(8, 1e200)
    logits = DomainLogits(0.1 * rng_for(0, "abort-q2").standard_normal(8))
    with np.errstate(over="ignore", invalid="ignore"):
        state = TrainState(GAUSS, KernelParams(), NoiseSpec(0.1), X, y)
        with pytest.raises(TrainingAbort, match="coordinate"):
            inner_ascent_step(logits, state, 0.1)


def test_ascent_step_that_overflows_a_logit_is_rejected():
    # a finite gradient times an enormous rate overflows some logits: the
    # round stops with DomainLogits' error. Finite logits whose sum
    # overflows are valid, and saturated ones do not move.
    X, y, _ = toy(6)
    spec = ModelSpec(t1=2, t2=3, eta1=1e308, sigma2=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteInput, match="logits contain NaN or infinity"):
            _train(spec, X, 10.0 * y, 0)
        state = TrainState(GAUSS, KernelParams(), NoiseSpec(0.1), X, y)
        big = np.full(len(y), 1e308)
        q = ascend(state, big, 2, 0.1)[0]
    assert np.array_equal(q, big)


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
        m0, _ = env_masks(logits.q_tilde)
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
    assert (fit_posterior(GAUSS, after, noise, X, y).lml
            > fit_posterior(GAUSS, init, noise, X, y).lml)


def test_outer_step_zero_rate_keeps_params():
    X, y, logits = toy(3)
    init = KernelParams(0.1, -0.2, 0.0, 0.0)
    state = TrainState(GAUSS, init, NoiseSpec(0.1), X, y)
    after = outer_descent_step(init, logits, state, 0.0, 0.5)
    assert np.array_equal(after.as_array(), init.as_array())


def test_penalized_step_keeps_the_state_predicting():
    # D_l and a serial round's B go into the workspace's scratch, so the
    # state a penalized step is taken from keeps its factor, byte for byte
    X, y, logits = toy(7, n=20)
    params = rand_params(rng_for(7, "keeps-factor"))
    state = TrainState(GAUSS, params, NoiseSpec(0.2), X, y)
    mean, var = predict(state.post, X)
    factor = state.ws.factor.copy()
    outer_descent_step(params, logits, state, 0.01, 0.5)
    assert np.array_equal(_bits(state.ws.factor), _bits(factor))
    got_mean, got_var = predict(state.post, X)
    assert np.array_equal(_bits(got_mean), _bits(mean))
    assert np.array_equal(_bits(got_var), _bits(var))


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
            return (-fit_posterior(kind, p, noise, X, y).lml
                    + lam * penalty(kind, p, noise, X, y, logits.q_tilde)[0])

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
    factor = state.ws.factor.copy()
    with pytest.raises(InvalidSetting, match=kind.value):
        outer_descent_step(params, logits, state, 0.01, 0.5)
    # the kind is checked before D_l or B is written anywhere
    assert np.array_equal(_bits(state.ws.factor), _bits(factor))
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
    g = np.array(TrainState(GAUSS, KernelParams(), spec.noise, X, y).objective_grad(None, 0.0))
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
def test_each_state_inverts_only_when_read(model, monkeypatch):
    # A^-1 and C are formed on first use. A dil_gp fit reads every state's
    # penalty or logit gradient, so its t1 + 1 states invert once each; a
    # plain GP reads the gradient of its first t1 states only, and never
    # forms C
    calls = {"inverse": 0, "C": 0}
    real_inverse, real_C = train_mod.cho_inverse, TrainState.__dict__["C"].func

    def counting_inverse(L, out=None, work=None):
        calls["inverse"] += 1
        return real_inverse(L, out, work)

    def counting_C(self):
        calls["C"] += 1
        return real_C(self)

    monkeypatch.setattr(train_mod, "cho_inverse", counting_inverse)
    monkeypatch.setattr(TrainState.__dict__["C"], "func", counting_C)
    spec = ModelSpec(model=model, t1=7, t2=3, eta2=0.005, lam=0.01, sigma2=0.4)
    _, _, trace = fit_model(spec, gen_synthetic_1d(0)[0], seed=0)
    assert [r["halvings"] for r in trace.records] == [0] * spec.t1
    partition = learns_partition(spec)
    assert calls == {"inverse": spec.t1 + partition, "C": spec.t1 + 1 if partition else 0}


def test_each_state_keeps_its_environment_terms_for_the_next_ascent(monkeypatch):
    # the terms that accept a state are at the round's masks, and the next
    # round's ascent and gradient start from them: t1 rounds of t2 steps
    # evaluate the masks t1 t2 + 1 times (not t1 (t2 + 1)) and the
    # environment terms t1 (t2 + 1) + 1 times (not t1 (t2 + 2)), and the fit
    # keeps the bits of a loop that rebuilds everything in every round
    counts = {"masks": 0, "env_terms": 0}
    real_masks, real_env_terms = train_mod.env_masks, TrainState.env_terms

    def counting_masks(q):
        counts["masks"] += 1
        return real_masks(q)

    def counting_env_terms(self, masks):
        counts["env_terms"] += 1
        return real_env_terms(self, masks)

    monkeypatch.setattr(train_mod, "env_masks", counting_masks)
    monkeypatch.setattr(TrainState, "env_terms", counting_env_terms)
    train, _ = gen_synthetic_1d(0)
    spec = ModelSpec(model="dil_gp", t1=7, t2=3, eta2=0.005, lam=0.01, sigma2=0.4)
    post, scaler, trace = fit_model(spec, train, seed=0)
    assert [r["halvings"] for r in trace.records] == [0] * spec.t1
    assert counts == {"masks": 22, "env_terms": 29}
    monkeypatch.undo()

    X, y = scaler.transform_x(train.x), scaler.transform_y(train.y)
    logits, params, records = train_mod.init_logits(len(y), 0), KernelParams(), []
    with blas.one_thread():
        for step in range(1, spec.t1 + 1):
            for _ in range(spec.t2):
                state = TrainState(GAUSS, params, spec.noise, X, y)
                logits = inner_ascent_step(logits, state, spec.eta1)
            masks = env_masks(logits.q_tilde)
            state = TrainState(GAUSS, params, spec.noise, X, y)
            g = np.array(state.objective_grad(state.env_terms(masks), spec.lam))
            params = KernelParams.from_array(params.as_array() - spec.eta2 * g)
            state = TrainState(GAUSS, params, spec.noise, X, y)
            g0, g1, _, _ = state.env_terms(masks)
            pen = g0 * g0 + g1 * g1
            records.append({"step": step, "objective": -state.post.lml + spec.lam * pen,
                            "penalty": pen, "per_env_grad": (g0, g1),
                            "params": dict(vars(params)), "noise_sigma2": spec.sigma2,
                            "jitter": float(state.post.jitter), "halvings": 0})
    assert np.array_equal(post.alpha_vec, state.post.alpha_vec)
    assert trace.records == records


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
        l0 = fit_posterior(GAUSS, KernelParams(), noise, X, y).lml
        spec = ModelSpec(model="gp_gaussian", t1=50, eta2=0.05, sigma2=noise.sigma2)
        p = _train(spec, X, y, 0)[0].params
        assert fit_posterior(GAUSS, p, noise, X, y).lml >= l0


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


# ---------------------------------------------------------------- exact rewrites
# Each reference below is the literal form of what training computes with
# its one ascent loop, .dot products and Python-float 2-vectors: @
# products, the stack sum for C and numpy 2-vectors. Equality is bit for
# bit.

def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _standardized(dataset, n):
    train, _ = data_mod.GENERATORS[dataset](0)
    part = data_mod.Dataset(train.x[:n], train.y[:n], None)
    scaler = fit_standardizer(part)
    return scaler.transform_x(part.x), scaler.transform_y(part.y)


def _reference_terms(state, m0, m1):
    A_inv, y, alpha = state.A_inv, state.y, state.post.alpha_vec
    C = state.Kp.sum(axis=0)
    C_alpha = C @ alpha
    d = A_inv @ (y * (m0 - m1))
    Cd = C @ d
    shared = ((float(alpha @ C_alpha) + float(d @ Cd)) / 8.0
              - 0.5 * float(np.einsum("ij,ij->", A_inv, C)))
    split = float(alpha @ Cd) / 4.0
    return shared + split, shared - split, d, Cd, C, C_alpha


def _reference_ascent_step(state, q, eta1):
    m0, m1 = env_masks(q)
    g0, g1, _, Cd, _, C_alpha = _reference_terms(state, m0, m1)
    A_inv = state.A_inv
    g = state.y * (m0 * m1) * ((g0 - g1) * (A_inv @ C_alpha) + (g0 + g1) * (A_inv @ Cd))
    return q + eta1 * g


def _reference_objective_grad(state, masks, lam):
    A_inv, Kp, alpha = state.A_inv, state.Kp, state.post.alpha_vec
    g = -0.5 * ((Kp @ alpha) @ alpha - np.einsum("pij,ij->p", Kp, A_inv))
    if lam != 0.0:
        g0, g1, d, Cd, C, C_alpha = _reference_terms(state, *masks)
        B = A_inv @ C
        tau = state.noise.sigma2 + state.post.jitter
        tr_K = np.trace(B) - tau * np.einsum("ij,ij->", A_inv, B)
        shared = 0.5 * np.array([tr_K, np.einsum("ij,ji->", B, B) - tr_K])
        D = kernels_mod.gaussian_scale_direction(state.params, state.ws.base, Kp[1],
                                                 np.empty_like(B))
        shared[1] -= 0.5 * np.einsum("ij,ij->", D, A_inv)
        pen = np.zeros(len(Kp))
        for ge, a, Ca in ((g0, 0.5 * (alpha + d), 0.5 * (C_alpha + Cd)),
                          (g1, 0.5 * (alpha - d), 0.5 * (C_alpha - Cd))):
            dg = -(Kp @ (A_inv @ Ca)) @ a + shared
            dg[0] += ge
            dg[1] += 0.5 * (D @ a) @ a
            pen += 2.0 * ge * dg
        g = g + lam * pen
    out = np.zeros(len(PARAM_NAMES))
    out[[PARAM_NAMES.index(name) for name in ACTIVE_PARAMS[state.kind]]] = g
    return out


@pytest.mark.parametrize("dataset", ["synthetic_1d", "synthetic_2d"])
@pytest.mark.parametrize("n", [30, 115])
def test_ascend_is_t2_inner_ascent_steps(dataset, n):
    # one loop over a round's t2 steps gives the logits of t2 separate
    # steps, and the same logits again from the same masks and terms
    from dilgp.experiments import settings_for
    spec = settings_for(dataset, "dil_gp")
    X, y = _standardized(dataset, n)
    q0 = train_mod.init_logits(n, 0).q_tilde
    for params in (KernelParams(), KernelParams(0.3, -0.5)):
        with blas.one_thread():
            state = TrainState(GAUSS, params, spec.noise, X, y)
            masks = env_masks(q0)
            terms = state.env_terms(masks)      # as the descent that accepts a state forms them
            got = state.ascend(q0, spec.t2, spec.eta1, masks, terms)[0]
            logits, want = DomainLogits(q0), q0
            for _ in range(spec.t2):
                logits = inner_ascent_step(logits, state, spec.eta1)
                want = _reference_ascent_step(state, want, spec.eta1)
            again = state.ascend(q0, spec.t2, spec.eta1, masks, terms)[0]
        assert not np.array_equal(got, q0)
        for other in (logits.q_tilde, want, again):
            assert np.array_equal(_bits(got), _bits(other)), params


@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
def test_float_objective_gradient_is_the_numpy_vector_one(kind):
    # the 2-vector arithmetic of the penalty's parameter gradient and of the
    # objective gradient is done in Python floats, entry by entry as numpy
    # does it; C is one addition of the two K_p slices
    rng = rng_for(13, "float-grad")
    for n in (8, 30):
        X, y, logits = toy(n, n=n, d=2)
        state = TrainState(kind, rand_params(rng), NoiseSpec(0.3), X, y)
        assert np.array_equal(_bits(state.C), _bits(state.Kp.sum(axis=0)))
        masks = env_masks(logits.q_tilde)
        for lam in ((0.0, 0.01, 1.0) if kind is GAUSS else (0.0,)):
            got = state.objective_grad(state.env_terms(masks), lam)
            assert np.array_equal(_bits(got), _bits(_reference_objective_grad(state, masks, lam)))


def test_float_step_is_the_numpy_vector_step():
    # _descend forms theta - eta g in Python floats from the four fields and
    # the gradient's list: the bits of from_array(as_array() - eta * g), at
    # every halving, for parameters, gradients and rates across magnitudes
    rng = rng_for(17, "float-step")
    X, y, _ = toy(15, n=12, d=2)
    noise = NoiseSpec(0.2)
    for _ in range(200):
        theta = rng.standard_normal(4) * 10.0 ** rng.uniform(-8, 1, 4)
        g = (rng.standard_normal(4) * 10.0 ** rng.uniform(-12, 3, 4)).tolist()
        eta = float(10.0 ** rng.uniform(-6, 0))
        params = KernelParams.from_array(theta)
        state, _, _, halvings = train_mod._descend(GAUSS, noise, X, y, params, g, eta, 0.0, None)
        want = KernelParams.from_array(theta - (eta / 2 ** halvings) * np.array(g))
        assert all(type(getattr(state.params, name)) is float for name in PARAM_NAMES)
        assert np.array_equal(_bits(state.params.as_array()), _bits(want.as_array()))


def test_objective_gradient_is_a_list_of_floats():
    # training and outer_descent_step read the one float list
    X, y, logits = toy(16, n=10)
    masks = env_masks(logits.q_tilde)
    for kind in KernelKind:
        state = TrainState(kind, KernelParams(0.1, -0.2, 0.3, -0.1), NoiseSpec(0.2), X, y)
        for lam in ((0.0, 0.5) if kind is GAUSS else (0.0,)):
            g = state.objective_grad(state.env_terms(masks), lam)
            assert type(g) is list and len(g) == len(PARAM_NAMES)
            assert all(type(v) is float for v in g)


def test_workspace_base_is_read_only():
    # every state of a fit reads the one base; none may write it
    X, y, _ = toy(14, n=10)
    ws = train_mod.Workspace(GAUSS, X)
    base = ws.base.copy()
    assert not ws.base.flags.writeable
    state = TrainState(GAUSS, KernelParams(0.2, 0.1), NoiseSpec(0.2), X, y, ws)
    state.objective_grad(state.env_terms(env_masks(np.linspace(-1.0, 1.0, 10))), 0.5)
    assert np.array_equal(ws.base, base)


@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
def test_workspace_buffers_are_aligned_with_their_layouts(kind):
    # each buffer starts on a 64-byte boundary in an allocation of its own,
    # potri's column-major and the others row-major; the scratch is potri's
    # buffer, which is free once A^-1 is formed
    n = 13
    X, _, _ = toy(15, n=n, d=2)
    ws = train_mod.Workspace(kind, X)
    p = len(ACTIVE_PARAMS[kind])
    buffers = {"base": (n, n), "Kp": (p, n, n), "factor": (n, n), "A_inv": (n, n),
               "C": (n, n), "potri": (n, n)}
    for name, shape in buffers.items():
        buf = getattr(ws, name)
        assert buf.shape == shape and buf.dtype == np.float64, name
        assert buf.ctypes.data % 64 == 0, name
        assert buf.flags.f_contiguous != buf.flags.c_contiguous, name
        assert buf.flags.f_contiguous == (name == "potri"), name
    for a, b in itertools.combinations(buffers, 2):
        assert not np.shares_memory(getattr(ws, a), getattr(ws, b)), (a, b)
    assert ws.scratch.ctypes.data == ws.potri.ctypes.data and ws.scratch.flags.c_contiguous
    assert ws.scratch.shape == (n, n)
    assert not ws.base.flags.writeable
    assert np.array_equal(ws.base, kernels_mod.base_matrix(kind, X, X))


# ---------------------------------------------------------------- overlap
# From train._OVERLAP_N points a penalized fit forms B = A^-1 C on a helper
# thread while the partition ascent runs. The tests lower the threshold to
# take that path at a small n.

def _counting_start_B(monkeypatch):
    calls = []
    start_B = TrainState.start_B

    def counting(self, helper):
        calls.append(threading.active_count())
        return start_B(self, helper)

    monkeypatch.setattr(TrainState, "start_B", counting)
    return calls


def _assert_same_fit(a, b):
    assert to_jsonl(a.trace.records) == to_jsonl(b.trace.records)
    for name in ("alpha_vec", "chol"):
        assert np.array_equal(_bits(getattr(a.post, name)), _bits(getattr(b.post, name))), name


@pytest.mark.parametrize("dataset", ["synthetic_1d", "synthetic_2d"])
def test_overlapped_fit_is_the_serial_fit_bitwise(dataset, monkeypatch):
    from dilgp.experiments import settings_for
    train, _ = data_mod.GENERATORS[dataset](0)
    spec = settings_for(dataset, "dil_gp", t1=8)
    calls = _counting_start_B(monkeypatch)
    serial = fit_model(spec, train, seed=3)
    assert calls == []
    monkeypatch.setattr(train_mod, "_OVERLAP_N", 4)
    before = threading.active_count()
    overlapped = fit_model(spec, train, seed=3)
    # one start per round, with the helper thread alive from the second on
    assert len(calls) == spec.t1 and calls[1:] == [before + 1] * (spec.t1 - 1)
    assert threading.active_count() == before
    _assert_same_fit(overlapped, serial)


def test_rounds_leave_each_state_its_constructor_attributes_and_matrices(monkeypatch):
    # the terms of a pair of masks and a pending B are values that a round
    # passes on: after serial and overlapped rounds, an ascent and a gradient,
    # a state holds its constructor's attributes and A^-1, C and _shared only
    X, y, logits = toy(18, n=12, d=2)
    built = set(vars(TrainState(GAUSS, KernelParams(), NoiseSpec(0.2), X, y)))
    states = []

    class RecordingState(TrainState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(train_mod, "TrainState", RecordingState)
    calls = _counting_start_B(monkeypatch)
    spec = ModelSpec(t1=3, t2=2, lam=0.5, sigma2=0.2)
    _train(spec, X, y, 0)
    assert calls == []
    monkeypatch.setattr(train_mod, "_OVERLAP_N", 4)
    state = _train(spec, X, y, 0)[0]
    assert len(calls) == spec.t1
    masks = env_masks(logits.q_tilde)
    state.ascend(logits.q_tilde, 2, 0.1, masks, state.env_terms(masks))
    state.objective_grad(state.env_terms(masks), spec.lam)
    assert len(states) >= 2 * (spec.t1 + 1)
    for s in states:
        assert set(vars(s)) == built | {"A_inv", "C", "_shared"}


def test_bo_sized_fit_starts_no_thread(monkeypatch):
    from dilgp.experiments import BO_SPEC
    calls = _counting_start_B(monkeypatch)
    counts = []
    ascend = TrainState.ascend

    def counting_ascend(self, *args):
        counts.append(threading.active_count())
        return ascend(self, *args)

    monkeypatch.setattr(TrainState, "ascend", counting_ascend)
    X, y, _ = toy(16, n=55, d=3)
    before = threading.active_count()
    fit_model(BO_SPEC, data_mod.Dataset(X, y, None), seed=0)
    assert calls == [] and counts == [before] * BO_SPEC.t1
    assert threading.active_count() == before


def test_abort_in_an_overlapped_round_joins_the_helper(monkeypatch):
    # the 1e200 targets make the first ascent step non-finite while the
    # helper forms B; the abort must return and leave no thread behind
    monkeypatch.setattr(train_mod, "_OVERLAP_N", 4)
    calls = _counting_start_B(monkeypatch)
    X = rng_for(0, "abort-q").uniform(-1, 1, (40, 1))
    y = np.full(40, 1e200)
    spec = ModelSpec(t1=5, t2=3, lam=0.5)
    raised = []

    def fit():
        with np.errstate(over="ignore", invalid="ignore"), blas.one_thread():
            try:
                _train(spec, X, y, 0)
            except TrainingAbort as exc:
                raised.append(exc)

    before = threading.active_count()
    worker = threading.Thread(target=fit)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(calls) == 1 and len(raised) == 1
    assert "coordinate" in str(raised[0]) and len(raised[0].trace) == 0
    assert threading.active_count() == before


def test_overlapped_round_forms_every_term_without_B_before_the_wait(monkeypatch):
    # D_l and both environments' products do not read B = A^-1 C, so each
    # round forms them while the helper still forms B, and waits for B last
    from concurrent.futures import Future
    from dilgp.experiments import settings_for
    log = []

    def logged(name, fn):
        def call(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(train_mod, "_OVERLAP_N", 4)
    monkeypatch.setattr(TrainState, "start_B", logged("start", TrainState.start_B))
    monkeypatch.setattr(train_mod, "gaussian_scale_direction",
                        logged("D_l", train_mod.gaussian_scale_direction))
    monkeypatch.setattr(TrainState, "_env_theta_terms",
                        logged("env", TrainState._env_theta_terms))
    monkeypatch.setattr(Future, "result", logged("wait", Future.result))
    train, _ = data_mod.GENERATORS["synthetic_1d"](0)
    spec = settings_for("synthetic_1d", "dil_gp", t1=4)
    fit_model(spec, train, seed=3)
    assert log == ["start", "D_l", "env", "env", "wait"] * spec.t1


def test_overlap_at_its_threshold_is_the_serial_fit_bitwise(monkeypatch):
    # a real-size overlapped fit against the serial one; the returned
    # factor must still be the fit's own, as each round's B is written
    # over the factor of a state that is not returned
    from dilgp.experiments import settings_for
    n = train_mod._OVERLAP_N
    # the first n rows of four stacked synthetic_1d draws (460 rows)
    draws = [gen_synthetic_1d(seed)[0] for seed in range(4)]
    train = data_mod.Dataset(np.vstack([d.x for d in draws])[:n],
                             np.concatenate([d.y for d in draws])[:n], None)
    spec = settings_for("synthetic_1d", "dil_gp", t1=2)
    calls = _counting_start_B(monkeypatch)
    overlapped = fit_model(spec, train, seed=0)
    assert len(calls) == spec.t1
    monkeypatch.setattr(train_mod, "_OVERLAP_N", n + 1)
    serial = fit_model(spec, train, seed=0)
    assert len(calls) == spec.t1
    _assert_same_fit(overlapped, serial)
    post = overlapped.post
    K = kernel_matrix(GAUSS, post.params, post.train_x, post.train_x)
    np.testing.assert_allclose(post.chol @ post.chol.T,
                               K + (spec.sigma2 + post.jitter) * np.eye(n), rtol=0, atol=1e-12)
