"""The one-thread BLAS pin: its scope around training and predict, and
outputs that do not depend on the BLAS thread count; and the LAPACK
routines, which come from numpy's OpenBLAS, or from scipy's compiled
wrappers where numpy's library lacks them."""

import json
import os
import re
import subprocess
import sys
import threading

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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_fit_and_predict_map_one_openblas_and_no_scipy_linalg():
    """A fit and a prediction call LAPACK from numpy's OpenBLAS, so the
    process maps that one OpenBLAS file and loads no scipy.linalg module:
    neither scipy.linalg's package nor its compiled _flapack wrappers."""
    code = ("import sys, dilgp.cli\n"
            "from dilgp.data import gen_synthetic_1d\n"
            "from dilgp.train import ModelSpec, fit_model\n"
            "train, test = gen_synthetic_1d(0)\n"
            "fit_model(ModelSpec(t1=2, t2=1), train, seed=0).predict(test.x)\n"
            "maps = open('/proc/self/maps').read().split()\n"
            "print(json.dumps([sorted({p for p in maps if 'openblas' in p.rsplit('/', 1)[-1]}),\n"
            "                  sorted(m for m in sys.modules if m.startswith('scipy.linalg'))]))")
    proc = subprocess.run([sys.executable, "-c", "import json\n" + code], capture_output=True,
                          text=True, check=True)
    mapped, linalg = json.loads(proc.stdout)
    assert len(mapped) == 1 and linalg == [], proc.stdout
    if blas.LIBRARIES:
        assert mapped[0].endswith(blas.LIBRARIES[0].name)


def test_without_numpys_lapack_the_routines_are_flapacks(tmp_path, monkeypatch):
    """Where numpy's OpenBLAS lacks the LAPACK symbols, the four routines are
    scipy.linalg._flapack's and the pin covers scipy's OpenBLAS too; with no
    _flapack either, the ImportError names the paths it looked for."""
    import scipy
    import scipy.linalg._flapack as flapack

    find = blas._find
    monkeypatch.setattr(blas, "_find", lambda *pkgs: (
        [(object(), openblas) for _, openblas in find(*pkgs)] if pkgs == (np,) else find(*pkgs)))
    libraries, routines = blas._load()
    assert routines == (flapack.dpotrf, flapack.dpotrs, flapack.dpotri, flapack.dtrtrs)
    assert [lib.name for lib in libraries] == [lib.name for _, lib in find(np, scipy)]

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        blas._load()


def test_routines_called_from_several_threads_keep_their_results():
    """The routines' integer arguments are per thread, so threads factoring
    and solving matrices of different orders at once each get the result a
    lone call gives."""
    rng = np.random.default_rng(0)
    cases = []
    for n in (3, 17, 30, 55):
        a = rng.normal(size=(n, n))
        a = a @ a.T + n * np.eye(n)
        b = rng.normal(size=n)
        c = blas.potrf(a, lower=1)[0]
        cases.append((a, b, c, blas.potrs(c, b, lower=1)[0]))
    wrong = []

    def work(a, b, c, x):
        for _ in range(300):
            c1, info = blas.potrf(a, lower=1)
            x1 = blas.potrs(c1, b, lower=1)[0]
            if info or not (np.array_equal(c1, c) and np.array_equal(x1, x)):
                wrong.append(a.shape[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=case) for case in cases * 2]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []
