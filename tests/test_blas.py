"""The one-thread BLAS pin: its scope around training and predict, and
outputs that do not depend on the BLAS thread count; and the LAPACK
routines, which are scipy.linalg.lapack's own without importing
scipy.linalg."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dilgp import blas, gp, train
from dilgp.data import gen_synthetic_1d
from dilgp.exceptions import TrainingAbort
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
    monkeypatch.setattr(train, "gram_posterior", recording(train.gram_posterior, seen))
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
def test_each_library_names_its_build():
    # the build string names the kernels a DYNAMIC_ARCH build picked here
    for lib in blas.LIBRARIES:
        assert lib.config.startswith("OpenBLAS "), lib


@needs_openblas
def test_pin_restored_when_training_aborts(two_threads, monkeypatch):
    seen = []

    def abort(*args):
        seen.append(threads())
        raise TrainingAbort("stop")

    monkeypatch.setattr(train, "Workspace", abort)
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


def outputs_at_default_and_one_thread(tmp_path, args, files):
    """The bytes of files that the CLI command args writes with
    OPENBLAS_NUM_THREADS unset and set to 1."""
    outputs = []
    for name, threads_env in (("default", None), ("one", "1")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads_env is not None:
            env["OPENBLAS_NUM_THREADS"] = threads_env
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "dilgp", *args, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append([(out / f).read_bytes() for f in files])
    return outputs


def test_fit_eval_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Without the pin, 1 and 2 OpenBLAS threads give this fit a different
    trace from step 10 and a different rmse by step 20."""
    outputs = outputs_at_default_and_one_thread(
        tmp_path, ["fit-eval", "--dataset", "synthetic_1d", "--seed", "0", "--t1", "20"],
        ["report.json", "trace.jsonl"])
    assert outputs[0] == outputs[1]
    assert np.isfinite(json.loads(outputs[0][0])["rmse"])


def test_pid_tuning_outputs_do_not_depend_on_blas_threads(tmp_path):
    """A short PID tuning run refits its surrogate, proposes and flies at each
    step; its summary, history and flown trajectory are the same bytes at
    either thread count."""
    outputs = outputs_at_default_and_one_thread(
        tmp_path, ["bo", "--objective", "quad_pid", "--trajectory", "fig8", "--t-bo", "3"],
        ["summary.json", "history.jsonl", "trajectory.csv"])
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) == 3


def test_lapack_routines_are_scipy_linalg_lapacks_own():
    """A fit and a prediction load scipy.linalg._flapack but neither
    scipy.linalg nor scipy.special; a later import of scipy.linalg reuses
    that module, so blas's four routines are scipy.linalg.lapack's objects
    and give scipy.linalg.cholesky's bits."""
    code = ("import sys, numpy as np, dilgp.cli\n"
            "from dilgp import blas\n"
            "from dilgp.data import gen_synthetic_1d\n"
            "from dilgp.train import ModelSpec, fit_model\n"
            "train, test = gen_synthetic_1d(0)\n"
            "fit_model(ModelSpec(t1=2, t2=1), train, seed=0).predict(test.x)\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.special', 'scipy.linalg._flapack')\n"
            "             if m in sys.modules))\n"
            "import scipy.linalg, scipy.linalg.lapack as lapack\n"
            "print([getattr(blas, n) is getattr(lapack, 'd' + n)\n"
            "       for n in ('potrf', 'potrs', 'potri', 'trtrs')])\n"
            "a = np.random.default_rng(0).normal(size=(6, 6))\n"
            "a = a @ a.T + 6.0 * np.eye(6)\n"
            "L, info = blas.potrf(a, lower=1)\n"
            "print(info == 0 and np.array_equal(scipy.linalg.cholesky(a, lower=True), L))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines() == ["['scipy.linalg._flapack']", "[True, True, True, True]",
                                        "True"]


def test_missing_lapack_wrappers_raise_import_error_naming_the_path(tmp_path, monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        blas._flapack()
