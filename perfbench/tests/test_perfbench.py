"""Tests of the benchmark itself, at tiny sizes. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg

import tracing
import worker
import workloads
from conftest import ROOT


def _span(name, start, end, parent, ok=True, note=None):
    return (name, start, end, parent, ok, note)


def test_self_times_on_hand_built_tree():
    spans = [
        _span("bench.pass", 0.0, 10.0, -1),
        _span("gp.fit", 1.0, 4.0, 0),
        _span("kernels.matrix", 2.0, 3.0, 1),
        _span("gp.predict", 5.0, 9.0, 0),
        _span("gp.cholesky", 5.5, 6.0, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.5, 0.5]
    layers = tracing.by_layer(spans)
    assert layers == {"bench": 3.0, "gp": 6.0, "kernels": 1.0}
    assert sum(layers.values()) == 10.0
    names = tracing.by_name(spans)
    assert names["gp.predict"] == {"calls": 1, "self_s": 3.5, "failed": 0}


def test_training_counts_on_hand_built_tree():
    spans = [
        _span("bench.pass", 0, 20, -1),
        _span(tracing.JOB_SPAN_PREFIX + "dil_gp", 0, 10, 0),
        _span("train.outer", 1, 8, 1, note=2),        # returned a 2-round trace
        _span("train.inner", 1, 7, 2, note=2),        # nested: rounds not double counted
        _span("gp.cholesky", 2, 3, 3),
        _span("gp.cholesky", 3, 4, 3, ok=False),      # a jitter retry
        _span("gp.cholesky", 4, 5, 3),
        _span("gp.dense_solve", 5, 6, 3),
        _span("gp.cholesky", 8, 9, 1),                # posterior after training
        _span(tracing.JOB_SPAN_PREFIX + "gp_gaussian", 10, 20, 0),
        _span("train.outer", 11, 15, 9, note=1),
        _span("gp.cholesky", 12, 13, 10),
    ]
    counts = tracing.training_counts(spans)
    assert counts["dil_gp"] == {"cholesky": 2, "dense_solve": 1, "rounds": 2, "calls": 1}
    assert counts["gp_gaussian"] == {"cholesky": 1, "dense_solve": 0, "rounds": 1, "calls": 1}


def test_step_times_merge_reproposals():
    nan = math.nan
    calls = [(0, 1, 1.0), (1, 2, nan), (2, 3, 1.0),     # initial design, one redraw
             (5, 6, 1.0),                                # step 1: 2 s of surrogate work
             (7, 8, nan), (9, 10, 1.0)]                  # step 2: failed, re-proposed
    assert workloads.step_times(calls, n_init=2) == [2, 2]


def test_fit_medians_are_taken_per_job():
    def run(label, seconds):
        return {"label": label, "model": "dil_gp", "seconds": seconds,
                "outcome": {"quality": 1.0}, "error": None}

    # Three passes over a fast and a slow job: the per-job medians are 1 and
    # 10; the pooled median would be (2 + 9) / 2.
    runs = [run("small", 1.0), run("big", 9.0), run("small", 2.0), run("big", 10.0),
            run("small", 0.5), run("big", 11.0)]
    m = worker.model_metrics(runs)
    assert m["dil_fit_s.p50"] == 5.5
    assert m["dil_fit_s.samples"] == 6


def _traced_pass(wl):
    tracer = tracing.LayerTracer()
    with tracer, tracer.span("bench.pass"):
        _, results = worker.run_pass(wl.jobs, tracer)
    return tracer.spans, results


@pytest.mark.parametrize("name", ["fit_paper", "bo_pid"])
def test_two_traced_passes_give_identical_counts(name):
    wl = workloads.WORKLOADS[name](0, workloads.TINY)
    first, res1 = _traced_pass(wl)
    second, res2 = _traced_pass(wl)
    calls = [{k: v["calls"] for k, v in tracing.by_name(s).items()} for s in (first, second)]
    assert calls[0] == calls[1]
    assert tracing.training_counts(first) == tracing.training_counts(second)
    assert [r["outcome"]["quality"] for r in res1] == [r["outcome"]["quality"] for r in res2]
    assert scipy.linalg.cholesky is sys.modules["dilgp.gp"].cholesky   # wrappers removed


def test_factorizations_per_round():
    spans, _ = _traced_pass(workloads.fit_paper(0, workloads.TINY))
    m = worker.layer_metrics(spans, [], untraced_s=0.0)
    assert (m["gp.cholesky.per_round.dil"], m["gp.dense_solve.per_round.dil"]) == (9, 8)
    assert (m["gp.cholesky.per_round.gp"], m["gp.dense_solve.per_round.gp"]) == (3, 2)
    assert m["train.rounds.dil"] == m["train.rounds.gp"] == workloads.TINY.fit_t1
    assert m["bench.residual_share"] <= worker.RESIDUAL_LIMIT


def test_bo_pid_matches_quad_bo_experiment():
    wl = workloads.bo_pid(0, workloads.TINY)
    _, results = worker.run_pass(wl.jobs)
    outcomes = {r["label"]: r["outcome"] for r in results}
    assert all(len(o["steps"]) == workloads.TINY.t_bo for o in outcomes.values())
    assert wl.check(outcomes) == []
    outcomes["fig8/dil_gp"]["quality"] += 1e-12
    assert len(wl.check(outcomes)) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "fit_paper", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
