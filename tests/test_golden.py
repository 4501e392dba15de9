"""Every output keeps its bits: SHA-256 digests of the canonical outputs,
computed in-process, against the ones recorded in tests/golden.json.

The cases are fit-eval's report and trace on synthetic_1d and synthetic_2d
for both models at their calibrated settings and on synthetic_1d for the
rational-quadratic and dot-product plain GPs, a three-seed sweep_seeds
(the CLI's --sweep 3), the quadratic BO run with UCB and with EI, one
PID-tuning experiment per model on fig8, and a fit the
size of the benchmark's fit_large (four stacked synthetic_1d draws, t1 = 20,
which forms B = A^-1 C on the helper thread): its trace, alpha, factor and
prediction.

The bits hold for one build: the numpy and scipy versions (EI's normal cdf
is scipy.special's ndtr) and the build string of each library in
blas.LIBRARIES, numpy's OpenBLAS, whose products and LAPACK every fit
calls; it names the kernels a DYNAMIC_ARCH build picked on this CPU. On
another fingerprint the test skips and names the one it found. A change that moves bits on purpose
rewrites the file, and says so; the script prints each case whose digest
changed and the count left unchanged:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from dilgp import blas
from dilgp.bo import bo_run
from dilgp.data import GENERATORS, Dataset
from dilgp.experiments import (QUADRATIC_SPACE, fit_eval,
                               quad_bo_experiment, quad_surrogate_config,
                               quadratic_objective, settings_for, sweep_seeds)
from dilgp.quad import TrajectoryKind
from dilgp.train import fit_model, to_jsonl

GOLDEN = Path(__file__).with_name("golden.json")
MODELS = ("dil_gp", "gp_gaussian")


def fingerprint() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_config": [lib.config for lib in blas.LIBRARIES]}


def _digest(*parts) -> str:
    """SHA-256 over the parts in order: an array as its dtype, shape and
    bytes, anything else as its sorted-key JSON (floats as their repr, which
    round-trips every bit)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _fit_eval(dataset, model):
    report, trace = fit_eval(*GENERATORS[dataset](0), settings_for(dataset, model), seed=0)
    return _digest(report.to_json_dict(), to_jsonl(trace.records))


def _sweep(dataset, model, n_seeds):
    reports, summary = sweep_seeds(GENERATORS[dataset], settings_for(dataset, model),
                                   range(n_seeds))
    return _digest([r.to_json_dict() for r in reports], summary)


def _quadratic_bo(acq):
    state, steps = bo_run(quadratic_objective, QUADRATIC_SPACE, quad_surrogate_config("dil_gp"),
                          acq, t_bo=5, seed=0, f_star=0.0)
    return _digest(state.queried_x, state.queried_f, state.failed_steps, to_jsonl(steps))


def _pid_experiment(model):
    run = quad_bo_experiment(TrajectoryKind.FIG8, model, 0, t_bo=10)
    state = run.pop("state")
    run["steps"] = to_jsonl(run["steps"])
    return _digest(state.queried_x, state.queried_f, state.failed_steps, run)


def _large_fit():
    draws = [GENERATORS["synthetic_1d"](k) for k in range(4)]
    train, test = (Dataset(np.vstack([d[i].x for d in draws]),
                           np.concatenate([d[i].y for d in draws])) for i in (0, 1))
    fit = fit_model(replace(settings_for("synthetic_1d", "dil_gp"), t1=20), train, 0)
    mean, var = fit.predict(test.x)
    return _digest(to_jsonl(fit.trace.records), fit.post.alpha_vec, fit.post.chol, mean, var)


CASES = {
    **{f"fit_eval/{ds}/{model}": (_fit_eval, ds, model)
       for ds in ("synthetic_1d", "synthetic_2d") for model in MODELS},
    # the plain GPs whose likelihood gradient reads three and two K_p slices
    **{f"fit_eval/synthetic_1d/{model}": (_fit_eval, "synthetic_1d", model)
       for model in ("gp_rq", "gp_dp")},
    "sweep3/synthetic_1d/dil_gp": (_sweep, "synthetic_1d", "dil_gp", 3),
    **{f"bo_quadratic/{acq}": (_quadratic_bo, acq) for acq in ("ucb", "ei")},
    **{f"pid_fig8/{model}": (_pid_experiment, model) for model in MODELS},
    "fit_large_sized/dil_gp": (_large_fit,),
}


def compute(name: str) -> str:
    func, *args = CASES[name]
    return func(*args)


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    if recorded["fingerprint"] != fingerprint():
        pytest.skip(f"the digests are for {recorded['fingerprint']}, "
                    f"this build is {fingerprint()}")
    return recorded["digests"]


def test_golden_file_names_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_keeps_its_bits(golden, name):
    assert compute(name) == golden[name], f"{name} moved a bit"


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if recorded and recorded["fingerprint"] != fingerprint():
        print(f"the old digests are for another build, {recorded['fingerprint']}")
    old = recorded.get("digests", {})
    new = {name: compute(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(), "digests": new},
                                 indent=2, sort_keys=True) + "\n")
    changed = [name for name in new if old.get(name) != new[name]]
    for name in changed:
        print(f"changed: {name}")
    print(f"wrote {len(new)} digests to {GOLDEN}: {len(changed)} changed, "
          f"{len(new) - len(changed)} unchanged")
