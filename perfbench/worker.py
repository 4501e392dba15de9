"""One workload process of the benchmark.

Started by run.py with the BLAS thread variables removed from its
environment. It imports dilgp, builds the workload's inputs from the seed,
makes one warm-up call, and then, by --mode:

- setup:   stops there;
- measure: runs untraced passes of the job list for --seconds;
- trace:   runs one untraced and one traced pass, the output checks and the
           layer probe, and writes the spans;
- probe:   runs only the layer probe.

The last line of its standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import envinfo
import probe
import tracing
import workloads
from dilgp.exceptions import DilgpError

ROOT = Path.cwd()
RESULTS = Path(__file__).resolve().parent / "results"
MODEL_KEYS = {"dil_gp": "dil", "gp_gaussian": "gp"}
# Self time not attributed to any layer (the benchmark's own code) may be at
# most this share of the traced pass.
RESIDUAL_LIMIT = 0.02
NAMED_SPANS = ("gp.cholesky", "gp.dense_solve", "gp.predict", "gp.fit_posterior",
               "gp.lml_value_and_grad", "kernels.kernel_matrix", "kernels.kernel_grads",
               "train.inner_ascent_step", "bo.fit_surrogate", "bo.propose_next",
               "quad.simulate")


def run_pass(jobs, tracer=None):
    """Run every job once; returns (seconds, one record per job)."""
    results = []
    start = perf_counter()
    for job in jobs:
        t0 = perf_counter()
        try:
            with tracer.span(tracing.JOB_SPAN_PREFIX + job.model) if tracer else nullcontext():
                outcome, error = job.run(), None
        except DilgpError as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"label": job.label, "model": job.model,
                        "seconds": perf_counter() - t0, "outcome": outcome, "error": error})
    return perf_counter() - start, results


def job_problems(res, ref=None) -> list[str]:
    """Output checks of one job run; with ref, its quality numbers must equal
    those of the reference run bit for bit."""
    if res["error"]:
        return [f"{res['label']}: {res['error']}"]
    out = res["outcome"]
    probs = workloads.output_problems(out)
    if ref is not None and ref["outcome"] is not None:
        probs += [f"{k} {out[k]!r} != {ref['outcome'][k]!r} of the reference pass"
                  for k in workloads.OUTPUT_KEYS if k in out and out[k] != ref["outcome"][k]]
    return [f"{res['label']}: {p}" for p in probs]


def samples(res) -> list[float]:
    """Timed units of one job run: the fit call itself, or each BO step."""
    return res["outcome"].get("steps", [res["seconds"]])


def model_metrics(runs) -> dict:
    """Per model: the mean over its jobs of each job's median (and p90) time
    per unit, pooled across passes. Jobs of one model differ in size (the two
    datasets of fit_paper), so their samples are not pooled together."""
    out = {}
    ok = [r for r in runs if r["outcome"] is not None]
    for model, key in MODEL_KEYS.items():
        mine = [r for r in ok if r["model"] == model]
        by_label = {}
        for r in mine:
            by_label.setdefault(r["label"], []).extend(samples(r))
        if not by_label:
            continue
        out[f"{key}_fit_s.p50"] = statistics.fmean(statistics.median(t)
                                                   for t in by_label.values())
        out[f"{key}_fit_s.p90"] = statistics.fmean(float(np.percentile(t, 90))
                                                   for t in by_label.values())
        out[f"{key}_fit_s.samples"] = sum(len(t) for t in by_label.values())
        # One outcome per job: repeated passes must agree (job_problems checks).
        outcomes = {r["label"]: r["outcome"] for r in mine}.values()
        out[f"quality.{key}"] = statistics.fmean(o["quality"] for o in outcomes)
        covers = [o["coverage"] for o in outcomes if "coverage" in o]
        if covers:
            out[f"coverage.{key}"] = statistics.fmean(covers)
    return out


def measure(wl, seconds: float) -> dict:
    passes, runs = [], []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 + statistics.median(passes) <= seconds:
        dt, res = run_pass(wl.jobs)
        passes.append(dt)
        runs += res
    first = {r["label"]: r for r in runs[:len(wl.jobs)]}
    per_run = [job_problems(r, first[r["label"]]) for r in runs]
    metrics = {"run_s": statistics.median(passes), "passes": len(passes)}
    metrics.update(model_metrics(runs))
    return {"metrics": metrics, "pass_s": passes, "attempted": len(runs),
            "failed": sum(bool(p) for p in per_run),
            "problems": [p for ps in per_run for p in ps]}


def layer_metrics(spans, traced, untraced_s: float) -> dict:
    own = tracing.self_times(spans)
    names = tracing.by_name(spans, own)
    layers = tracing.by_layer(spans, own)
    run_s = spans[0][tracing.END] - spans[0][tracing.START]
    m = {"traced_run_s": run_s, "trace_overhead_s": run_s - untraced_s}
    for name in NAMED_SPANS:
        rec = names.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        m[f"{name}.calls"] = rec["calls"]
        m[f"{name}.self_s"] = rec["self_s"]
        m[f"{name}.self_share"] = rec["self_s"] / run_s
    chol = names.get("gp.cholesky", {"calls": 0, "failed": 0})
    m["gp.cholesky.retry_ratio"] = chol["failed"] / chol["calls"] if chol["calls"] else 0.0
    counts = tracing.training_counts(spans)
    for model, key in MODEL_KEYS.items():
        c = counts.get(model, {"cholesky": 0, "dense_solve": 0, "rounds": 0, "calls": 0})
        rounds = c["rounds"] or 1
        m[f"gp.cholesky.per_round.{key}"] = c["cholesky"] / rounds
        m[f"gp.dense_solve.per_round.{key}"] = c["dense_solve"] / rounds
        m[f"train.rounds.{key}"] = c["rounds"] / c["calls"] if c["calls"] else 0.0
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
        m[f"{layer}.self_share"] = layers.get(layer, 0.0) / run_s
    m["bench.residual_share"] = layers.get("bench", 0.0) / run_s
    bo_runs = [r["outcome"] for r in traced if r["outcome"] and "t_bo" in r["outcome"]]
    steps = sum(o["t_bo"] for o in bo_runs)
    m["bo.failed_step_ratio"] = sum(o["failed_steps"] for o in bo_runs) / steps if steps else 0.0
    sims = [s for s in spans if s[tracing.NAME] == "quad.simulate"]
    m["quad.diverged_ratio"] = sum(bool(s[tracing.NOTE]) for s in sims) / len(sims) if sims else 0.0
    return m


def write_spans(path: Path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][tracing.START]
    with gzip.open(path, "wt") as fh:
        fh.write('["name","start_s","end_s","parent","ok","note"]\n')
        for name, start, end, parent, ok, note in spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent, ok, note]) + "\n")


def trace(wl, seed: int) -> dict:
    untraced_s, base = run_pass(wl.jobs)
    tracer = tracing.LayerTracer()
    with tracer, tracer.span("bench.pass"):
        _, traced = run_pass(wl.jobs, tracer)
    spans = tracer.spans
    per_run = [job_problems(r) for r in base]
    per_run += [job_problems(r, ref) for r, ref in zip(traced, base)]
    checks = [wl.check({r["label"]: r["outcome"] for r in base})] if wl.check else []
    metrics = layer_metrics(spans, traced, untraced_s)
    metrics.update({k: v for k, v in model_metrics(base).items() if k.startswith("quality.")})
    residual = metrics["bench.residual_share"]
    checks.append([] if residual <= RESIDUAL_LIMIT else
                  [f"unattributed self time {residual:.4f} of the traced pass "
                   f"exceeds {RESIDUAL_LIMIT}"])
    metrics.update({f"{k}.tdefault": v for k, v in probe.run(seed).items()})
    write_spans(RESULTS / f"spans-{wl.name}-seed{seed}.jsonl.gz", spans)
    problems = [p for ps in per_run + checks for p in ps]
    return {"metrics": metrics, "attempted": len(per_run) + len(checks),
            "failed": sum(bool(p) for p in per_run + checks), "problems": problems}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "probe"))
    args = ap.parse_args(argv)
    if args.mode == "probe":
        out = {"metrics": {f"{k}.t1": v for k, v in probe.run(args.seed).items()}}
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.warmup()
        ready = time.monotonic()
        if args.mode == "setup":
            out = {}
        elif args.mode == "measure":
            out = measure(wl, args.seconds)
        else:
            out = trace(wl, args.seed)
        out["ready"] = ready
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode != "setup":
        out["env"] = envinfo.fingerprint(ROOT)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
