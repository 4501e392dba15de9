"""The one-thread BLAS pin: its scope around fit_model and predict, and
outputs that do not depend on the BLAS thread count; and the LAPACK
routines' fallback to scipy.linalg.lapack, which keeps the bits."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dilgp import blas, gp, train
from dilgp.data import gen_synthetic_1d
from dilgp.exceptions import TrainingAbort
from dilgp.kernels import KernelKind, KernelParams
from dilgp.train import ModelSpec, fit_model

needs_openblas = pytest.mark.skipif(not blas.LIBRARIES, reason="no OpenBLAS found")


def threads():
    return [lib.get() for lib in blas.LIBRARIES]


@pytest.fixture
def two_threads():
    """Every library at 2 threads for the test, then back at its own count."""
    before = threads()
    for lib in blas.LIBRARIES:
        lib.set(2)
    yield
    for lib, n in zip(blas.LIBRARIES, before):
        lib.set(n)


def recording(fn, seen):
    def inner(*args, **kwargs):
        seen.append(threads())
        return fn(*args, **kwargs)
    return inner


@needs_openblas
def test_fit_model_and_predict_run_at_one_thread(two_threads, monkeypatch):
    seen = []
    monkeypatch.setattr(train, "_train", recording(train._train, seen))
    monkeypatch.setattr(gp, "kernel_matrix", recording(gp.kernel_matrix, seen))
    data, test = gen_synthetic_1d(0)
    post, scaler, _ = fit_model(ModelSpec(t1=2), data, seed=0)
    assert threads() == [2] * len(blas.LIBRARIES)
    n_fit = len(seen)
    gp.predict(post, scaler.transform_x(test.x))
    assert len(seen) > n_fit >= 1
    assert seen == [[1] * len(blas.LIBRARIES)] * len(seen)
    assert threads() == [2] * len(blas.LIBRARIES)


@needs_openblas
def test_pin_restored_when_training_aborts(two_threads, monkeypatch):
    seen = []

    def abort(*args):
        seen.append(threads())
        raise TrainingAbort("stop")

    monkeypatch.setattr(train, "_train", abort)
    with pytest.raises(TrainingAbort):
        fit_model(ModelSpec(t1=2), gen_synthetic_1d(0)[0], seed=0)
    assert seen == [[1] * len(blas.LIBRARIES)]
    assert threads() == [2] * len(blas.LIBRARIES)


@needs_openblas
def test_nested_pins_restore_the_outer_count(two_threads):
    with blas.one_thread():
        with blas.one_thread():
            assert threads() == [1] * len(blas.LIBRARIES)
        assert threads() == [1] * len(blas.LIBRARIES)
    assert threads() == [2] * len(blas.LIBRARIES)


def test_pin_without_libraries_is_a_no_op(two_threads, monkeypatch):
    real, before = list(blas.LIBRARIES), threads()
    monkeypatch.setattr(blas, "LIBRARIES", [])
    with blas.one_thread():
        assert [lib.get() for lib in real] == before
    assert [lib.get() for lib in real] == before


def test_fit_eval_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Without the pin, 1 and 2 OpenBLAS threads give this fit a different
    trace from step 10 and a different rmse by step 20."""
    outputs = []
    for name, threads_env in (("default", None), ("one", "1")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads_env is not None:
            env["OPENBLAS_NUM_THREADS"] = threads_env
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "dilgp", "fit-eval", "--dataset", "synthetic_1d",
                        "--seed", "0", "--t1", "20", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append([(out / f).read_bytes() for f in ("report.json", "trace.jsonl")])
    assert outputs[0] == outputs[1]
    assert np.isfinite(json.loads(outputs[0][0])["rmse"])


def test_scipy_lapack_fallback_keeps_the_bits(monkeypatch):
    """Without scipy's OpenBLAS, blas's four routines are scipy.linalg.lapack's,
    which call the same LAPACK of the same library: a fit, a jittered
    factorization and their predictions keep their bits."""
    from scipy.linalg import lapack

    data, test = gen_synthetic_1d(0)
    X = np.zeros((4, 1))

    def run():
        fit = fit_model(ModelSpec(t1=4, t2=2), data, seed=0)
        post = gp.fit_posterior(KernelKind.GAUSSIAN, KernelParams(), gp.NoiseSpec(0.0),
                                X, np.ones(4))
        arrays = (fit.post.chol, fit.post.alpha_vec, gp.cho_inverse(fit.post.chol),
                  *fit.predict(test.x), post.chol, *gp.predict(post, test.x[:5]))
        return [fit.trace.to_jsonl(), post.jitter] + [a.tobytes() for a in arrays]

    ours = run()
    for name in ("potrf", "potrs", "potri", "trtrs"):
        monkeypatch.setattr(blas, name, getattr(lapack, "d" + name))
    assert run() == ours
