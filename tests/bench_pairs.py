"""Alternating parent/change benchmark pairs, written as a BENCH_*.json file.

Exports a parent revision with `git archive` into a temporary directory
(removed afterwards) and, for each workload, runs `perfbench/worker.py --mode
measure` once from the parent's tree and once from this working tree per
pair. Each side runs from its own tree, as the working directory and on
PYTHONPATH, with the BLAS thread variables removed as `perfbench/run.py`
removes them. Pair i runs seed `--seed` + i on both sides, and the side
that runs first alternates from pair to pair. `setup_s` is the time from
spawn to the worker's ready mark, as `perfbench/run.py` measures it, from
the measuring process alone.

For each end-to-end metric that BENCHMARK.json names, the file holds both
sides' samples, their medians and the relative change, the pairs each side
won (ties count for neither), the parent's interquartile range and whether
the medians differ by more than it, and the metric's bound, which the
script reads and never changes. It also holds the environment fingerprint
and both trees' `src/dilgp` line counts. It refuses to run when the two
trees' `perfbench/` or BENCHMARK.json differ, since then the two sides
would not run the same benchmark. pytest does not collect it. From the
repository root, with `--out` naming the file (BENCH_<n>.json by
convention, at the root):

    PYTHONPATH=src python tests/bench_pairs.py --parent HEAD~1 --workload bo_pid \\
        --pairs 8 --seconds 12 --seed 7 --out BENCH_1.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
SIDES = ("parent", "change")


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, relative change, wins and the parent's IQR of paired samples
    (parent[i] and change[i] are pair i) of a metric where `better` is
    "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (p_med - c_med)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent_iqr": q3 - q1,
        "exceeds_parent_iqr": abs(c_med - p_med) > q3 - q1,
        "direction": "better" if gain > 0 else "worse" if gain < 0 else "same",
    }


def _bench_files(tree: Path) -> dict[str, bytes]:
    """The files of the benchmark itself: BENCHMARK.json and perfbench/,
    less its results and caches."""
    files = {"BENCHMARK.json": (tree / "BENCHMARK.json").read_bytes()}
    for path in (tree / "perfbench").rglob("*"):
        rel = path.relative_to(tree)
        if path.is_file() and not {"results", "__pycache__", ".pytest_cache"} & set(rel.parts):
            files[rel.as_posix()] = path.read_bytes()
    return files


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def measure(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--mode measure` worker run from `tree`: its end-to-end metrics,
    its failed and attempted job counts and its environment fingerprint."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "worker.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--mode", "measure"], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=3 * seconds + 300)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"worker in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {**out["metrics"], "setup_s": out["ready"] - t0, "peak_rss_mb": out["peak_rss_mb"]}
    return {"metrics": metrics, "failed": out["failed"], "attempted": out["attempted"],
            "env": out["env"]}


def run_pairs(trees: dict[str, Path], spec: dict, workload: str, pairs: int, seed: int,
              seconds: float) -> tuple[dict, dict]:
    """The workload's pairs: the per-metric comparison, and each side's
    environment fingerprint."""
    runs = {side: [] for side in SIDES}
    order = []
    for i in range(pairs):
        first = SIDES[i % 2]
        order.append(first)
        for side in (first, SIDES[1 - i % 2]):
            runs[side].append(measure(trees[side], workload, seed + i, seconds))
        print(f"{workload} pair {i + 1}/{pairs} (seed {seed + i}, {first} first) done",
              flush=True)
    result = {"seeds": [seed + i for i in range(pairs)], "first": order,
              "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
              "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
              "metrics": {}}
    for m in spec["end_to_end"]:
        samples = {side: [r["metrics"][m["name"]] for r in runs[side]] for side in SIDES}
        result["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                        "bound": m["bound"], **samples,
                                        **compare(samples["parent"], samples["change"],
                                                  m["better"])}
    return result, {side: runs[side][0]["env"] for side in SIDES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare this working tree with")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name; repeat for several")
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True, help="file to write, relative to the repository root")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: an IQR needs two samples")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    if set(args.workload) - known:
        ap.error(f"unknown workload(s) {sorted(set(args.workload) - known)}; known: {sorted(known)}")
    parent_commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_commit],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        if _bench_files(parent_tree) != _bench_files(ROOT):
            raise SystemExit("perfbench/ or BENCHMARK.json differ between the parent and "
                             "this tree; the two sides would not run the same benchmark")
        trees = {"parent": parent_tree, "change": ROOT}
        workloads = {}
        for name in args.workload:
            workloads[name], envs = run_pairs(trees, spec, name, args.pairs, args.seed,
                                              args.seconds)
    tree_keys = ("git_commit", "src_modified", "src_dilgp_lines")
    # the exported tree has no repository, so its commit is the one exported
    envs["parent"].update(git_commit=parent_commit, src_modified=False)
    report = {
        "parent": {"rev": args.parent, **{k: envs["parent"][k] for k in tree_keys}},
        "change": {k: envs["change"][k] for k in tree_keys},
        "env": {k: v for k, v in envs["change"].items() if k not in tree_keys},
        "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
        "workloads": workloads,
    }
    out = ROOT / args.out
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, wl in workloads.items():
        for metric, r in wl["metrics"].items():
            rel = r["relative_change"]
            print(f"{name:9s} {metric:14s} {r['parent_median']:.6g} -> {r['change_median']:.6g} "
                  f"{'' if rel is None else f'{rel:+.1%}'} wins {r['change_wins']}/{r['pairs']} "
                  f"(parent {r['parent_wins']}) {r['direction']}"
                  f"{', beyond parent IQR' if r['exceeds_parent_iqr'] else ''}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
