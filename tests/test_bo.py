"""Bayesian-optimization loop: acquisition functions, the exploration
schedule and regret accounting (including the streaming-equals-batch
information-gain identity for a fixed kernel), proposal generation, and
bo_run's failure contract."""

import json
import math

import numpy as np
import pytest

from dilgp.bo import (BOState, SearchSpace,
                      acquisition_ei, acquisition_ucb, beta_schedule, bo_run,
                      information_gain_step, propose_next, regret_bound)
from dilgp.data import Dataset
from dilgp.exceptions import (DimensionMismatch, InvalidSetting, NonFiniteInput,
                              ObjectiveFailure)
from dilgp.experiments import quad_bo_experiment, quad_surrogate_config
from dilgp.kernels import KernelKind, KernelParams, kernel_matrix
from dilgp.quad import TrajectoryKind
from dilgp.rng import rng_for
from dilgp.train import MIN_SPLIT_POINTS, ModelSpec, fit_model, to_jsonl

SPACE = SearchSpace(np.array([0.0]), np.array([1.0]))


def quadratic(x):
    return float(np.sum((np.asarray(x) - 0.3) ** 2))


def fixed_kernel_cfg(sigma2=0.25):
    # t1 = 0 leaves the default kernel untouched: fully deterministic posterior
    return ModelSpec(model="gp_gaussian", t1=0, standardize=False, sigma2=sigma2)


# ---------------------------------------------------------------- acquisitions

def test_ucb_closed_form():
    assert acquisition_ucb(1.0, 2.0, 4.0) == -3.0
    got = acquisition_ucb(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 9.0)
    assert np.array_equal(got, [-3.0, 1.0])


def test_ei_closed_forms():
    # at mean == best with unit std the score is -phi(0)
    assert acquisition_ei(np.array([2.0]), np.array([1.0]), 2.0)[0] == \
        pytest.approx(-1.0 / math.sqrt(2.0 * math.pi))
    # zero std degenerates to negated plain improvement
    assert acquisition_ei(np.array([1.0]), np.array([0.0]), 3.0)[0] == -2.0
    assert acquisition_ei(np.array([5.0]), np.array([0.0]), 3.0)[0] == 0.0


def test_ei_rewards_uncertainty():
    scores = acquisition_ei(np.full(4, 1.0), np.array([0.1, 0.5, 1.0, 2.0]), 0.0)
    assert np.all(np.diff(scores) < 0)
    assert np.all(scores < 0)


# ---------------------------------------------------------------- schedule

def test_beta_schedule_closed_forms():
    assert beta_schedule(1.0, 0.0, 0.0, 0.1) == 1.0
    assert beta_schedule(0.0, 1.0, 0.0, 4.0 / math.e) == pytest.approx(2.0)
    b1 = beta_schedule(1.0, 0.5, 1.0, 0.1)
    b2 = beta_schedule(1.0, 0.5, 4.0, 0.1)
    assert b2 > b1


def test_beta_schedule_validation():
    for bad_delta in (0.0, 4.0, -1.0, 5.0):
        with pytest.raises(ValueError):
            beta_schedule(1.0, 1.0, 0.0, bad_delta)
    with pytest.raises(ValueError):
        beta_schedule(1.0, 1.0, -0.1, 0.1)


def test_information_gain_step_values():
    assert information_gain_step(1.0, 0.0) == 0.0
    assert information_gain_step(0.5, math.sqrt(0.5)) == pytest.approx(0.5 * math.log(2.0))
    assert information_gain_step(0.1, 0.3) == pytest.approx(0.5 * math.log1p(0.09 / 0.1))
    with pytest.raises(ValueError):
        information_gain_step(0.0, 1.0)


def test_regret_bound_values():
    assert regret_bound(2.0, 0.0, 5, 1.0) == 0.0
    c1 = 8.0 / math.log(2.0)
    assert regret_bound(2.0, 3.0, 4, 1.0) == pytest.approx(2.0 * math.sqrt(c1 * 4 * 3.0))
    assert regret_bound(1.0, 1.0, 9, 0.5) > regret_bound(1.0, 1.0, 4, 0.5)
    with pytest.raises(ValueError):
        regret_bound(1.0, 1.0, 0, 0.5)


# ---------------------------------------------------------------- containers

def test_search_space_validation_and_sampling():
    with pytest.raises(DimensionMismatch):
        SearchSpace(np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        SearchSpace(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(NonFiniteInput):
        SearchSpace(np.array([0.0]), np.array([np.inf]))
    sp = SearchSpace(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert sp.k == 2 and np.array_equal(sp.width, [2.0, 2.0])
    pts = sp.uniform(rng_for(0, "sp"), 50)
    assert pts.shape == (50, 2)
    assert np.all(pts >= sp.lower) and np.all(pts <= sp.upper)
    assert np.array_equal(sp.clip(np.array([[5.0, -7.0]])), [[2.0, -1.0]])


def test_surrogate_config_validation():
    with pytest.raises(ValueError):
        quad_surrogate_config("forest")
    with pytest.raises(ValueError):
        quad_surrogate_config("gp_gaussian", t1=-1)
    assert quad_surrogate_config("dil_gp").kind is KernelKind.GAUSSIAN
    assert quad_surrogate_config("gp_rq").kind is KernelKind.RATIONAL_QUADRATIC


def test_quad_bo_experiment_reports_the_model_it_trains():
    # a surrogate spec of another model would be trained but reported as model
    with pytest.raises(InvalidSetting, match="dil_gp"):
        quad_bo_experiment(TrajectoryKind.HOVER, "gp_gaussian", 0, t_bo=1, n_init=2,
                           surrogate=quad_surrogate_config("dil_gp"))


# ---------------------------------------------------------------- proposals

def _toy_surrogate():
    """A fit on six queries and the BO state it was fitted on."""
    rng = rng_for(0, "sur-toy")
    X = rng.uniform(0.0, 1.0, (6, 1))
    state = BOState(X, np.array([quadratic(x) for x in X]))
    return fit_model(fixed_kernel_cfg(), Dataset(state.queried_x, state.queried_f), 0), state


def test_propose_next_deterministic():
    fit, state = _toy_surrogate()
    acq = lambda m, s: acquisition_ucb(m, s, 2.0)
    a = propose_next(fit, state, SPACE, acq, rng_for(5, "cand"))
    b = propose_next(fit, state, SPACE, acq, rng_for(5, "cand"))
    assert np.array_equal(a, b)
    assert SPACE.lower[0] <= a[0] <= SPACE.upper[0]


def test_propose_next_constant_scores_take_first_candidate():
    fit, state = _toy_surrogate()
    flat = lambda m, s: np.zeros(len(np.asarray(m)))
    got = propose_next(fit, state, SPACE, flat, rng_for(9, "cand"))
    first_global = SPACE.uniform(rng_for(9, "cand"), 1024)[0]
    assert np.array_equal(got, first_global)


def test_propose_next_ignores_nonfinite_scores():
    fit, state = _toy_surrogate()

    def spiky(m, s):
        out = np.full(len(np.asarray(m)), np.nan)
        out[7] = -1.0
        return out

    got = propose_next(fit, state, SPACE, spiky, rng_for(2, "cand"))
    want = SPACE.uniform(rng_for(2, "cand"), 1024)[7]
    assert np.array_equal(got, want)


# ---------------------------------------------------------------- loop

def test_bo_run_shapes_and_bookkeeping():
    state, steps = bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ucb",
                          t_bo=6, n_init=4, seed=1)
    assert state.queried_f.shape == (10,)
    assert state.queried_x.shape == (10, 1)
    assert [rec["step"] for rec in steps] == [1, 2, 3, 4, 5, 6]
    assert state.incumbent_f == np.min(state.queried_f)
    i = int(np.argmin(state.queried_f))
    assert np.array_equal(state.incumbent_x, state.queried_x[i])
    # each record holds the row its step queried and the running minimum
    for t, rec in enumerate(steps, start=1):
        assert rec["x"] == state.queried_x[3 + t].tolist()
        assert rec["f"] == state.queried_f[3 + t]
        assert rec["incumbent_f"] == np.min(state.queried_f[:4 + t])
        assert rec["sigma_pred"] > 0.0
    assert np.all(np.diff([rec["info_gain"] for rec in steps]) >= 0)
    assert all(rec["regret_bound"] >= 0 for rec in steps)


def test_bo_run_deterministic():
    a = bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ei", t_bo=4, n_init=3, seed=7)
    b = bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ei", t_bo=4, n_init=3, seed=7)
    assert np.array_equal(a[0].queried_x, b[0].queried_x)
    assert a[1] == b[1]


def test_bo_run_validation():
    with pytest.raises(ValueError):
        bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ucb", t_bo=0)
    with pytest.raises(ValueError):
        bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ucb", t_bo=3, n_init=0)
    with pytest.raises(ValueError):
        bo_run(quadratic, SPACE, fixed_kernel_cfg(), "pi", t_bo=3)


def test_partition_surrogate_with_a_small_design_fails_before_any_query():
    # a dil_gp surrogate cannot split fewer than MIN_SPLIT_POINTS points, so
    # bo_run refuses the run before it spends an objective call
    calls = []

    def counting(x):
        calls.append(x)
        return quadratic(x)

    spec = quad_surrogate_config("dil_gp")
    with pytest.raises(InvalidSetting, match="n_init must be >= 4 for dil_gp"):
        bo_run(counting, SPACE, spec, "ucb", t_bo=2, n_init=MIN_SPLIT_POINTS - 1)
    assert calls == []
    bo_run(counting, SPACE, quad_surrogate_config("gp_gaussian", t1=1), "ucb", t_bo=1,
           n_init=MIN_SPLIT_POINTS - 1)
    assert len(calls) == MIN_SPLIT_POINTS


def test_bo_run_cum_regret_against_known_optimum():
    state, steps = bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ucb",
                          t_bo=5, n_init=3, seed=0, f_star=0.0)
    want = np.cumsum(state.queried_f[3:])
    assert np.allclose([rec["cum_regret"] for rec in steps], want, rtol=1e-12)
    _, none_steps = bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ucb",
                           t_bo=2, n_init=3, seed=0)
    assert not any("cum_regret" in rec for rec in none_steps)


def test_bo_run_single_failure_retries():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] == 4:          # first surrogate proposal after 3 inits
            return math.nan
        return quadratic(x)

    state, _ = bo_run(flaky, SPACE, fixed_kernel_cfg(), "ucb",
                      t_bo=3, n_init=3, seed=2)
    assert state.failed_steps == [1]
    assert state.queried_f.shape == (6,)
    assert np.all(np.isfinite(state.queried_f))


def test_bo_run_double_failure_raises_with_state():
    calls = {"n": 0}

    def broken(x):
        calls["n"] += 1
        return quadratic(x) if calls["n"] <= 3 else math.nan

    with pytest.raises(ObjectiveFailure) as exc:
        bo_run(broken, SPACE, fixed_kernel_cfg(), "ucb", t_bo=2, n_init=3, seed=2)
    state = exc.value.state
    assert isinstance(state, BOState)
    assert state.queried_f.shape == (3,)
    assert state.failed_steps == [1]
    i = int(np.argmin(state.queried_f))
    assert state.incumbent_f == state.queried_f[i]
    assert np.array_equal(state.incumbent_x, state.queried_x[i])


def test_bo_run_initial_point_redraw_and_failure():
    calls = {"n": 0}

    def first_bad(x):
        calls["n"] += 1
        return math.inf if calls["n"] == 1 else quadratic(x)

    state, _ = bo_run(first_bad, SPACE, fixed_kernel_cfg(), "ucb",
                      t_bo=1, n_init=2, seed=3)
    assert np.all(np.isfinite(state.queried_f))
    assert state.failed_steps == []

    # failing at the first initial point carries an empty state
    with pytest.raises(ObjectiveFailure) as exc:
        bo_run(lambda x: math.nan, SPACE, fixed_kernel_cfg(), "ucb",
               t_bo=1, n_init=2, seed=3)
    state = exc.value.state
    assert state.queried_x.shape == (0, 1) and state.queried_f.shape == (0,)
    assert state.incumbent_f == math.inf and state.incumbent_x.size == 0
    assert state.failed_steps == []


def test_streaming_gain_matches_batch_logdet():
    # with a fixed kernel the per-step gains telescope into the batch
    # 1/2 log det(I + K / sigma2) over everything queried
    sigma2 = 0.25
    for seed in range(10):
        state, steps = bo_run(quadratic, SPACE, fixed_kernel_cfg(sigma2), "ucb",
                              t_bo=8, n_init=3, seed=seed)
        K = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(),
                          state.queried_x, state.queried_x)
        _, logdet = np.linalg.slogdet(np.eye(len(K)) + K / sigma2)
        assert steps[-1]["info_gain"] == pytest.approx(0.5 * logdet, abs=1e-6)


def test_history_jsonl_schema():
    _, steps = bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ucb",
                      t_bo=5, n_init=3, seed=4, f_star=0.0)
    lines = to_jsonl(steps).strip().split("\n")
    assert len(lines) == 5
    incumbents = []
    for t, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["step"] == t
        assert set(rec) == {"step", "x", "f", "incumbent_f", "sigma_pred",
                            "beta", "info_gain", "regret_bound", "cum_regret"}
        incumbents.append(rec["incumbent_f"])
    assert np.all(np.diff(incumbents) <= 0)

    _, steps2 = bo_run(quadratic, SPACE, fixed_kernel_cfg(), "ucb",
                       t_bo=2, n_init=3, seed=4)
    rec = json.loads(to_jsonl(steps2).strip().split("\n")[0])
    assert "cum_regret" not in rec


@pytest.mark.parametrize("acq,f_star", [("ucb", 0.0), ("ei", None)])
def test_history_jsonl_writes_records_as_recorded(acq, f_star):
    _, steps = bo_run(quadratic, SPACE, fixed_kernel_cfg(), acq,
                      t_bo=4, n_init=3, seed=6, f_star=f_star)
    text = to_jsonl(steps)
    assert text.endswith("\n")
    assert [json.loads(line) for line in text.splitlines()] == steps
    assert to_jsonl([]) == ""
