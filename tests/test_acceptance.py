"""Acceptance gate.

One test per shipped guarantee, each asserting its stated tolerance and
runtime budget and printing a single summary line with the measured numbers
(visible in the short test summary via -rA, or with -s).
"""

import hashlib
import json
from time import perf_counter

import numpy as np
import pytest

from dilgp.bo import bo_run
from dilgp.cli import main as cli_main
from dilgp.data import GENERATORS
from dilgp.experiments import (QUADRATIC_OPTIMUM, QUADRATIC_SPACE,
                               compare_tuners, quadratic_objective,
                               settings_for, sweep_seeds)
from dilgp.gp import NoiseSpec, env_log_likelihood, fit_posterior, predict
from dilgp.kernels import (ACTIVE_PARAMS, PARAM_NAMES, KernelKind,
                           KernelParams, kernel_matrix)
from dilgp.quad import TrajectoryKind
from dilgp.rng import rng_for
from dilgp.train import (DomainLogits, ModelSpec, TrainState, env_masks,
                         outer_descent_step)


# The seeds that criteria 4 and 5 sweep.
GATED_SEEDS = (0, 1, 2, 3, 4)


def emit(line: str):
    print(line)


def rand_instance(seed: int, n: int, d: int = 1):
    rng = rng_for(seed, "acceptance")
    X = rng.uniform(-2.0, 2.0, (n, d))
    y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(n)
    params = KernelParams(*(0.3 * rng.standard_normal(4)))
    noise = NoiseSpec(0.1 + 0.05 * (seed % 3))
    return X, y, params, noise, rng


# ---------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def synth_1d_runs():
    t0 = perf_counter()
    _, dil = sweep_seeds(GENERATORS["synthetic_1d"], settings_for("synthetic_1d", "dil_gp"),
                         GATED_SEEDS)
    _, gp = sweep_seeds(GENERATORS["synthetic_1d"], settings_for("synthetic_1d", "gp_gaussian"),
                        GATED_SEEDS)
    return dil, gp, perf_counter() - t0


@pytest.fixture(scope="module")
def synth_2d_runs():
    t0 = perf_counter()
    _, dil = sweep_seeds(GENERATORS["synthetic_2d"], settings_for("synthetic_2d", "dil_gp"),
                         GATED_SEEDS)
    _, gp = sweep_seeds(GENERATORS["synthetic_2d"], settings_for("synthetic_2d", "gp_gaussian"),
                        GATED_SEEDS)
    return dil, gp, perf_counter() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_01_posterior_matches_dense_inverse():
    t0 = perf_counter()
    kinds = list(KernelKind)
    worst = 0.0
    for seed in range(20):
        n = 3 + seed % 4
        X, y, params, noise, rng = rand_instance(seed, n, d=1 + seed % 2)
        kind = kinds[seed % len(kinds)]
        Xs = rng.uniform(-2.0, 2.0, (4, X.shape[1]))

        post = fit_posterior(kind, params, noise, X, y)
        mean, var = predict(post, Xs)
        lml = post.lml

        A = kernel_matrix(kind, params, X, X) + noise.sigma2 * np.eye(n)
        Ainv = np.linalg.inv(A)
        Ks = kernel_matrix(kind, params, Xs, X)
        want_mean = Ks @ Ainv @ y
        want_var = np.diag(kernel_matrix(kind, params, Xs, Xs) - Ks @ Ainv @ Ks.T)
        _, logdet = np.linalg.slogdet(A)
        want_lml = -0.5 * y @ Ainv @ y - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)

        worst = max(worst,
                    float(np.max(np.abs(mean - want_mean))),
                    float(np.max(np.abs(var - want_var))),
                    abs(lml - want_lml))
    elapsed = perf_counter() - t0
    emit(f"criterion 1: max deviation from dense-inverse oracle {worst:.3g} "
         f"(tol 1e-8), {elapsed:.2f}s (limit 1s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_unit_mask_reduces_to_marginal_likelihood():
    worst_equal = True
    for seed in range(20):
        n = 3 + seed % 5
        X, y, params, noise, _ = rand_instance(seed, n)
        kind = list(KernelKind)[seed % 3]
        a = env_log_likelihood(kind, params, noise, X, y, np.ones(n))
        b = fit_posterior(kind, params, noise, X, y).lml
        worst_equal = worst_equal and (a == b)
    emit("criterion 2: all-ones mask reproduces the marginal likelihood "
         f"exactly on 20 instances: {worst_equal}")
    assert worst_equal


def test_criterion_03_gradient_suite_matches_finite_differences():
    t0 = perf_counter()
    h_theta, h_q, h_w = 1e-4, 1e-4, 1e-5
    lam, eta = 0.7, 1e-4
    worst = 0.0
    kind = KernelKind.GAUSSIAN
    for seed in range(20):
        X, y, params, noise, rng = rand_instance(seed, 8)
        logits = DomainLogits(rng.standard_normal(8))
        q = logits.q_tilde
        state = TrainState(kind, params, noise, X, y)

        # parameter gradient of NLL + lam * penalty, via the implied step
        after = outer_descent_step(params, logits, state, eta, lam)
        implied = (params.as_array() - after.as_array()) / eta

        def penalty(p, q_at):
            """(g0^2 + g1^2, (g0, g1)) at the masks of q_at."""
            g0, g1, _, _ = TrainState(kind, p, noise, X, y).env_terms(env_masks(q_at))
            return g0 * g0 + g1 * g1, (g0, g1)

        def objective(p):
            return -fit_posterior(kind, p, noise, X, y).lml + lam * penalty(p, q)[0]

        for idx, name in enumerate(PARAM_NAMES):
            if name not in ACTIVE_PARAMS[kind]:
                continue
            want = (objective(params.shifted(name, h_theta))
                    - objective(params.shifted(name, -h_theta))) / (2 * h_theta)
            worst = max(worst, abs(implied[idx] - want) / max(1.0, abs(want)))

        # partition gradient of the penalty, via one ascent step at rate 1
        masks = env_masks(q)
        got_q = state.ascend(q, 1, 1.0, masks, state.env_terms(masks))[0] - q
        for i in range(8):
            qp, qm = q.copy(), q.copy()
            qp[i] += h_q
            qm[i] -= h_q
            want = (penalty(params, qp)[0] - penalty(params, qm)[0]) / (2 * h_q)
            worst = max(worst, abs(got_q[i] - want) / max(1.0, abs(want)))

        # per-environment derivative in the common rescaling of the
        # exponentiated parameters
        _, per_env_grad = penalty(params, q)
        for g, mask in zip(per_env_grad, env_masks(q)):
            want = (env_log_likelihood(kind, params.scaled(1 + h_w), noise, X, y, mask)
                    - env_log_likelihood(kind, params.scaled(1 - h_w), noise, X, y, mask)
                    ) / (2 * h_w)
            worst = max(worst, abs(g - want) / max(1.0, abs(want)))
    elapsed = perf_counter() - t0
    emit(f"criterion 3: worst relative gradient error {worst:.3g} (tol 1e-3), "
         f"{elapsed:.2f}s (limit 10s)")
    assert worst <= 1e-3
    assert elapsed < 10.0


def test_criterion_04_shifted_1d_benchmark(synth_1d_runs):
    dil, gp, elapsed = synth_1d_runs
    emit(f"criterion 4: 1-D rmse dil {dil['rmse_mean']:.4f} vs gp "
         f"{gp['rmse_mean']:.4f}, coverage {dil['coverage_mean']:.4f}, "
         f"{elapsed:.1f}s (limit 300s)")
    assert dil["rmse_mean"] < gp["rmse_mean"]
    assert 0.25 <= dil["rmse_mean"] <= 0.45
    assert dil["coverage_mean"] >= 0.85
    assert elapsed < 300.0


def test_criterion_05_shifted_2d_benchmark(synth_2d_runs):
    dil, gp, elapsed = synth_2d_runs
    ratio = dil["rmse_mean"] / gp["rmse_mean"]
    emit(f"criterion 5: 2-D rmse dil {dil['rmse_mean']:.4f} vs gp "
         f"{gp['rmse_mean']:.4f} (ratio {ratio:.3f}, need <= 0.9), "
         f"{elapsed:.1f}s (limit 300s)")
    assert dil["rmse_mean"] <= 0.9 * gp["rmse_mean"]
    assert elapsed < 300.0


def test_criterion_06_streaming_info_gain_matches_batch():
    sigma2 = 0.25
    cfg = ModelSpec(model="gp_gaussian", t1=0, standardize=False, sigma2=sigma2)
    worst = 0.0
    for seed in range(10):
        state, steps = bo_run(quadratic_objective, QUADRATIC_SPACE, cfg, "ucb",
                              t_bo=8, n_init=3, seed=seed)
        K = kernel_matrix(KernelKind.GAUSSIAN, KernelParams(),
                          state.queried_x, state.queried_x)
        _, logdet = np.linalg.slogdet(np.eye(len(K)) + K / sigma2)
        worst = max(worst, abs(steps[-1]["info_gain"] - 0.5 * logdet))
    emit(f"criterion 6: max |streaming - batch| info gain {worst:.3g} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_07_bo_convergence_with_diagnostics():
    t0 = perf_counter()
    cfg = ModelSpec(model="dil_gp", sigma2=0.1, t1=30, t2=5,
                    eta1=0.1, eta2=0.005, lam=0.01)
    hits = 0
    dists = []
    for seed in range(5):
        state, steps = bo_run(quadratic_objective, QUADRATIC_SPACE, cfg, "ucb",
                              t_bo=30, n_init=5, seed=seed, f_star=0.0)
        assert [rec["step"] for rec in steps] == list(range(1, 31))
        assert all(rec["cum_regret"] <= rec["regret_bound"] for rec in steps)
        d = abs(float(state.incumbent_x[0]) - QUADRATIC_OPTIMUM)
        dists.append(round(d, 4))
        hits += d <= 0.05
    elapsed = perf_counter() - t0
    emit(f"criterion 7: incumbent within 0.05 on {hits}/5 seeds (need >= 4), "
         f"distances {dists}, regret below bound at every step, "
         f"{elapsed:.1f}s (limit 120s)")
    assert hits >= 4
    assert elapsed < 120.0


def test_criterion_08_pid_tuning_heldout_comparison():
    t0 = perf_counter()
    wins, strict = {}, {}
    for kind in TrajectoryKind:
        # a one-shot iterator of seeds must still count every seed
        result = compare_tuners(kind, experiment_seeds=(s for s in range(5)))
        assert result["n_seeds"] == len(result["rows"]) == 5
        outcomes = [row["outcome"] for row in result["rows"]]
        assert result["dil_wins"] == sum(o != "loss" for o in outcomes)
        wins[kind.value] = result["dil_wins"]
        strict[kind.value] = "/".join(str(outcomes.count(o)) for o in ("win", "tie", "loss"))
    elapsed = perf_counter() - t0
    fig8_ok = wins["fig8"] >= 4
    others = [wins[k] >= 4 for k in ("hover", "sin_forward", "spiral_up")]
    emit(f"criterion 8: held-out wins per trajectory {wins} "
         f"(need fig8 >= 4/5 and >= 4/5 on 2 of the other 3), "
         f"strict wins/ties/losses {strict}, {elapsed:.0f}s (limit 900s)")
    assert fig8_ok
    assert sum(others) >= 2
    assert elapsed < 900.0


def test_criterion_09_manifest_reruns_byte_identical(tmp_path):
    specs = [
        ("generate", ["generate", "--generator", "synthetic_1d", "--seed", "0"]),
        ("fit-eval", ["fit-eval", "--dataset", "synthetic_1d", "--seed", "1",
                      "--t1", "30"]),
        ("bo", ["bo", "--objective", "quadratic", "--t-bo", "3"]),
    ]
    for name, argv in specs:
        first = tmp_path / f"{name}-a"
        second = tmp_path / f"{name}-b"
        assert cli_main(argv + ["--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert cli_main([argv[0], "--config", str(first / "config.json"),
                         "--out", str(second)]) == 0
        for fname, digest in manifest["outputs"].items():
            got = hashlib.sha256((second / fname).read_bytes()).hexdigest()
            assert got == digest, f"{name}: {fname} differs on re-run"
    emit("criterion 9: generate / fit-eval / bo re-runs reproduce every "
         "output byte for byte (3 spot checks)")


def test_criterion_10_ood_risk_shadow(synth_1d_runs, synth_2d_runs):
    # the distribution-shift guarantee has no direct test; its observable
    # consequence is the held-out risk ordering already measured above
    dil1, gp1, _ = synth_1d_runs
    dil2, gp2, _ = synth_2d_runs
    emit("criterion 10: covered by criteria 4-5 (held-out risk ordering on "
         "both synthetic shifts)")
    assert dil1["rmse_mean"] < gp1["rmse_mean"]
    assert dil2["rmse_mean"] < gp2["rmse_mean"]
