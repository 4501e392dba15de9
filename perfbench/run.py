"""dilgp benchmark: one command for the fit_paper, fit_large and bo_pid workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fit_paper --seed 0 --seconds 30 --trace 0

Each workload runs in its own process (perfbench/worker.py) with the BLAS
thread variables removed, so the library's own default thread count
applies. Set-up (process start through import, input generation and one
warm-up call) is measured in the measuring process and in SETUPS_AROUND
set-up-only processes before it and as many after it, so that the samples
span the run, and reported as the median.

With --trace 0 the measuring process runs untraced passes for --seconds and
the end-to-end metrics are reported; with --trace 1 it runs one untraced and
one traced pass plus the layer probe, a second process repeats the probe
with one BLAS thread, and the per-layer metrics are reported. Metric names
and units come from BENCHMARK.json. Every line but the last is for people;
the last line is one JSON object with the keys correct, attempted, failed and
metrics. The full result, with the environment fingerprint, is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit_paper", "fit_large", "bo_pid")
SETUPS_AROUND = 2
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env(root: Path, blas_threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(root: Path, deadline: float, args: list[str], env: dict) -> dict:
    """Run one worker process to completion; returns its JSON line plus
    setup_s, the time from spawn to the worker's ready mark."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in out:
        out["setup_s"] = out["ready"] - t0
    return out


def collect(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    env = worker_env(root)

    def setup_s():
        return spawn(root, deadline, common + ["--mode", "setup"], env)["setup_s"]

    setups = [setup_s() for _ in range(SETUPS_AROUND)]
    main = spawn(root, deadline, common + ["--mode", "trace" if trace else "measure",
                                           "--seconds", str(seconds)], env)
    setups += [main["setup_s"]] + [setup_s() for _ in range(SETUPS_AROUND)]
    metrics = dict(main["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    metrics["env.blas_threads"] = main["env"]["blas_threads"]
    metrics["env.src_dilgp_lines"] = main["env"]["src_dilgp_lines"]
    metrics["error_rate"] = main["failed"] / main["attempted"]
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "attempted": main["attempted"], "failed": main["failed"],
              "problems": main["problems"], "setup_samples_s": setups,
              "pass_s": main.get("pass_s"),
              "env": main["env"], "metrics": metrics}
    if trace:
        single = spawn(root, deadline, common + ["--mode", "probe"], worker_env(root, 1))
        metrics.update(single["metrics"])
        result["env_single_thread"] = single["env"]
    return result


def final_line(result: dict, spec: dict) -> dict:
    wanted = spec["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} was not measured (got {value!r})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# Units of the figures printed next to the BENCHMARK.json metrics.
INFO_UNITS = {"error_rate": "ratio", "passes": "count", "dil_fit_s.p90": "s",
              "gp_fit_s.p90": "s", "dil_fit_s.samples": "count", "gp_fit_s.samples": "count",
              "coverage.dil": "ratio", "coverage.gp": "ratio"}


def units(spec: dict) -> dict:
    return {**INFO_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if not (root / "src" / "dilgp" / "__init__.py").is_file():
            raise BenchError(f"no dilgp sources under {root / 'src'}; "
                             "run from the repository root")
        result = collect(root, args.workload, args.seed, args.seconds, bool(args.trace))
        line = final_line(result, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    known = units(spec)
    print("env " + json.dumps(result["env"], sort_keys=True))
    for p in result["problems"]:
        print(f"check failed: {p}")
    for name, value in sorted(result["metrics"].items()):
        print(f"{name} = {value:.6g} {known.get(name, '')}".rstrip())
    print(f"result written to {os.path.relpath(path, root)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
