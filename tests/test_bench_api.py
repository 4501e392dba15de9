"""The benchmark's calls into dilgp, made once each: every role of the layer
probe, and the round count that span tracing reads from a fit. A change to
the package that breaks them fails here, not only in perfbench's own tests
or in a traced benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

from dilgp.data import gen_synthetic_1d
from dilgp.train import ModelSpec, fit_model

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_runs_every_role_the_benchmark_reports():
    calls = _load("probe")._calls(0, 12)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(calls) == {m["name"].split(".")[1] for m in declared
                          if m["name"].startswith("probe.")}
    for role, fn in calls.items():
        fn()


@pytest.mark.parametrize("model", ["dil_gp", "gp_gaussian"])
def test_tracing_reads_the_rounds_of_a_fit(model):
    tracing = _load("tracing")
    train, _ = gen_synthetic_1d(0)
    fit = fit_model(ModelSpec(model=model, t1=4, t2=2), train, seed=0)
    assert tracing._train_trace_len(fit) == 4
