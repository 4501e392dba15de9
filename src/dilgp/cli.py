"""Command-line entry point.

Three subcommands: `generate` writes a synthetic dataset to CSV, `fit-eval`
trains a model and reports held-out metrics, `bo` runs the Bayesian
optimization loop on a built-in objective or the PID-tuning simulator.

Every run writes a fully resolved config.json next to its outputs plus a
manifest.json with per-file checksums; re-running with `--config config.json`
reproduces the output files byte for byte. The output directory is given
only on the command line (never stored in config.json) so reproductions can
target a fresh directory. Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .bo import bo_run, history_jsonl
from .data import GENERATORS, load_csv
from .exceptions import DilgpError, InvalidSetting
from .experiments import (BO_SPEC, DATASET_DEFAULTS, QUADRATIC_OPTIMUM,
                          QUADRATIC_SPACE, fit_eval, heldout_trajectory,
                          quad_bo_experiment, quadratic_objective, sweep_seeds)
from .quad import PIDGains, TrajectoryKind
from .train import DIL_ONLY_FIELDS, MODEL_KINDS, ModelSpec

TRAJECTORIES = {k.value: k for k in TrajectoryKind}

# config.json key (and flag destination) of each ModelSpec field, per
# command, where it differs from the field name: "lambda" for lam, and the
# bo model is its "surrogate".
SPEC_KEY_ALIASES = {
    "fit-eval": {"lam": "lambda"},
    "bo": {"lam": "lambda", "model": "surrogate"},
}

SPEC_FLAG_HELP = {
    "t1": "outer training steps",
    "t2": "inner partition-ascent steps",
    "eta1": "partition learning rate",
    "eta2": "parameter learning rate",
    "lam": "invariance penalty coefficient",
    "sigma2": "observation noise variance",
}


def spec_keys(command: str) -> dict[str, str]:
    """ModelSpec field name -> config.json key for one command."""
    aliases = SPEC_KEY_ALIASES[command]
    return {f.name: aliases.get(f.name, f.name) for f in fields(ModelSpec)}


def spec_config(spec: ModelSpec, command: str) -> dict:
    """The config.json entries of a spec."""
    return {key: getattr(spec, name) for name, key in spec_keys(command).items()}


def spec_from_config(config: dict, command: str) -> ModelSpec:
    return ModelSpec(**{name: config[key] for name, key in spec_keys(command).items()})


GENERATE_DEFAULTS = {
    "generator": "synthetic_1d",
    "seed": 0,
    "noise_as_std": False,
}

FIT_EVAL_DEFAULTS = {
    "dataset": None,
    "train_csv": None,
    "test_csv": None,
    "target_column": "y",
    "feature_columns": None,
    "domain_column": None,
    "noise_as_std": False,
    "seed": 0,
    "sweep": None,
    **spec_config(ModelSpec(), "fit-eval"),
}

BO_DEFAULTS = {
    "objective": "quadratic",
    "trajectory": "fig8",
    "acq": "ucb",
    "t_bo": 100,
    "n_init": 5,
    "seed": 0,
    **spec_config(BO_SPEC, "bo"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dilgp",
                                     description="Domain-invariant GP regression and BO runner")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sup = argparse.SUPPRESS

    gen = sub.add_parser("generate", help="write a synthetic dataset as train/test CSV")
    gen.add_argument("--generator", choices=sorted(GENERATORS), default=sup)
    gen.add_argument("--seed", type=int, default=sup)
    gen.add_argument("--noise-as-std", action="store_true", default=sup,
                     help="read noise levels as std instead of variance")

    fit = sub.add_parser("fit-eval", help="train a model and report held-out metrics")
    fit.add_argument("--dataset", choices=sorted(GENERATORS), default=sup,
                     help="built-in generator (alternative to --train-csv/--test-csv)")
    fit.add_argument("--train-csv", default=sup)
    fit.add_argument("--test-csv", default=sup)
    fit.add_argument("--target-column", default=sup)
    fit.add_argument("--feature-columns", default=sup,
                     help="comma-separated names; default: all non-target columns")
    fit.add_argument("--domain-column", default=sup,
                     help="tag column for per-domain RMSE reporting")
    fit.add_argument("--noise-as-std", action="store_true", default=sup)
    fit.add_argument("--seed", type=int, default=sup)
    fit.add_argument("--sweep", type=int, default=sup,
                     help="run seeds 0..N-1 and report mean with max deviation")
    _add_spec_flags(fit, "fit-eval", sup)

    bo = sub.add_parser("bo", help="run Bayesian optimization")
    bo.add_argument("--objective", choices=["quadratic", "quad_pid"], default=sup)
    bo.add_argument("--trajectory", choices=sorted(TRAJECTORIES), default=sup)
    bo.add_argument("--acq", choices=["ucb", "ei"], default=sup)
    bo.add_argument("--t-bo", type=int, default=sup)
    bo.add_argument("--n-init", type=int, default=sup)
    bo.add_argument("--seed", type=int, default=sup)
    _add_spec_flags(bo, "bo", sup)

    for p in (gen, fit, bo):
        p.add_argument("--config", default=None,
                       help="JSON config from a previous run's config.json")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def _add_spec_flags(p, command: str, sup):
    """One flag per ModelSpec field, storing under the field's config key.

    Flags are named after the field, except the model flag, which is named
    after its key (--model, or --surrogate for bo); a boolean field becomes
    a --no-<field> switch.
    """
    for f in fields(ModelSpec):
        key = spec_keys(command)[f.name]
        if f.name == "model":
            p.add_argument(f"--{key}", dest=key, choices=sorted(MODEL_KINDS), default=sup)
        elif isinstance(f.default, bool):
            p.add_argument(f"--no-{f.name}", dest=key, action="store_false", default=sup)
        else:
            p.add_argument(f"--{f.name}", dest=key, type=type(f.default), default=sup,
                           help=SPEC_FLAG_HELP.get(f.name))


def _explicit(defaults: dict, args: argparse.Namespace) -> dict:
    """The settings given by the config file and the flags (flags win)."""
    given = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        given.pop("command", None)
        unknown = sorted(set(given) - set(defaults))
        if unknown:
            raise DilgpError(f"config has unknown keys for this command: {unknown}")
    given.update((key, val) for key, val in vars(args).items() if key in defaults)
    return given


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, in increasing precedence."""
    return {**defaults, **_explicit(defaults, args)}


def _write_outputs(outdir: Path, config: dict, t0: float):
    """Write config.json, checksum every output file, write manifest.json."""
    cfg_text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    (outdir / "config.json").write_text(cfg_text)
    checksums = {}
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or p.is_dir():
            continue
        checksums[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    manifest = {
        "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest(),
        "seed": config.get("seed"),
        "version": __version__,
        "wall_clock_s": round(time.time() - t0, 3),
        "outputs": checksums,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_generate(args) -> int:
    t0 = time.time()
    config = _resolve(GENERATE_DEFAULTS, args)
    config["command"] = "generate"
    train, test = GENERATORS[config["generator"]](config["seed"],
                                                  noise_as_std=config["noise_as_std"])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    train.to_csv(outdir / "train.csv")
    test.to_csv(outdir / "test.csv")
    _write_outputs(outdir, config, t0)
    print(f"wrote {train.n} train rows and {test.n} test rows to {outdir}")
    return 0


def _load_dataset(config: dict, seed: int):
    if config["dataset"] is not None:
        if config["train_csv"] or config["test_csv"]:
            raise DilgpError("give either --dataset or --train-csv/--test-csv, not both")
        return GENERATORS[config["dataset"]](seed, noise_as_std=config["noise_as_std"])
    if not (config["train_csv"] and config["test_csv"]):
        raise DilgpError("need --dataset, or both --train-csv and --test-csv")
    cols = config["feature_columns"]
    if isinstance(cols, str):
        cols = [c.strip() for c in cols.split(",") if c.strip()]
    train = load_csv(config["train_csv"], config["target_column"], cols,
                     config["domain_column"])
    test = load_csv(config["test_csv"], config["target_column"], cols,
                    config["domain_column"])
    return train, test


def _prune_model_keys(config: dict, command: str):
    """Drop the settings the chosen model never reads."""
    keys = spec_keys(command)
    if config[keys["model"]] != "dil_gp":
        for name in DIL_ONLY_FIELDS:
            config.pop(keys[name])


def cmd_fit_eval(args) -> int:
    t0 = time.time()
    explicit = _explicit(FIT_EVAL_DEFAULTS, args)
    # Calibrated per-dataset settings sit under whatever the user set.
    keys = spec_keys("fit-eval")
    overlay = {keys[name]: val
               for name, val in DATASET_DEFAULTS.get(explicit.get("dataset"), {}).items()}
    full = {**FIT_EVAL_DEFAULTS, **overlay, **explicit}
    settings = spec_from_config(full, "fit-eval")
    config = dict(full, command="fit-eval")
    if config["dataset"] is not None:
        for key in ("train_csv", "test_csv", "target_column", "feature_columns",
                    "domain_column"):
            config.pop(key)
    else:
        config.pop("noise_as_std")
    _prune_model_keys(config, "fit-eval")
    outdir = Path(args.out)
    if config["sweep"] is None:
        config.pop("sweep")
        train, test = _load_dataset(full, config["seed"])
        report, trace = fit_eval(train, test, settings, seed=config["seed"])
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
        (outdir / "trace.jsonl").write_text(trace.to_jsonl())
        print(f"rmse={report.rmse:.4f} coverage={report.coverage_rate:.4f}")
    else:
        if full["dataset"] is None and settings.model != "dil_gp":
            raise InvalidSetting(f"--sweep on CSV input refits the same rows, and {settings.model} "
                                 "never reads the seed, so every seed would give the same fit")
        config.pop("seed")
        reports, summary = sweep_seeds(lambda s: _load_dataset(full, s), settings,
                                       range(config["sweep"]))
        payload = {"per_seed": [r.to_json_dict() for r in reports], "summary": summary}
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"rmse mean={summary['rmse_mean']:.4f} "
              f"± {summary['rmse_max_dev']:.4f} (max dev, {len(reports)} seeds)")
    _write_outputs(outdir, config, t0)
    return 0


def cmd_bo(args) -> int:
    t0 = time.time()
    full = _resolve(BO_DEFAULTS, args)
    surrogate = spec_from_config(full, "bo")
    config = dict(full, command="bo")
    if config["objective"] != "quad_pid":
        config.pop("trajectory")
    _prune_model_keys(config, "bo")
    outdir = Path(args.out)
    if config["objective"] == "quadratic":
        state, diag = bo_run(quadratic_objective, QUADRATIC_SPACE, surrogate,
                             config["acq"], config["t_bo"], config["n_init"],
                             config["seed"], f_star=0.0)
        outdir.mkdir(parents=True, exist_ok=True)
        summary = {
            "objective": "quadratic",
            "incumbent_x": state.incumbent_x.tolist(),
            "incumbent_f": state.incumbent_f,
            "distance_to_optimum": abs(float(state.incumbent_x[0]) - QUADRATIC_OPTIMUM),
            "failed_steps": state.failed_steps,
            "final_regret_bound": float(diag.regret_bound[-1]),
            "final_cum_regret": float(diag.cum_regret[-1]),
        }
    else:
        kind = TRAJECTORIES[config["trajectory"]]
        result = quad_bo_experiment(kind, config["surrogate"], config["seed"],
                                    t_bo=config["t_bo"], n_init=config["n_init"],
                                    acq=config["acq"], surrogate=surrogate)
        state, diag = result["state"], result["diagnostics"]
        gains = PIDGains(**result["gains"])
        flight = heldout_trajectory(gains, kind, result["heldout_seeds"][0])
        outdir.mkdir(parents=True, exist_ok=True)
        flight.export_csv(outdir / "trajectory.csv")
        summary = {
            "objective": "quad_pid",
            "trajectory": config["trajectory"],
            "gains": result["gains"],
            "train_ace": result["train_ace"],
            "heldout_ace": result["heldout_ace"],
            "failed_steps": state.failed_steps,
            "final_regret_bound": float(diag.regret_bound[-1]),
        }
    (outdir / "history.jsonl").write_text(history_jsonl(state, diag))
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_outputs(outdir, config, t0)
    print(f"incumbent f={state.incumbent_f:.6g} after {config['t_bo']} steps")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "fit-eval":
            return cmd_fit_eval(args)
        if args.command == "bo":
            return cmd_bo(args)
        parser.error(f"unknown command {args.command!r}")
    except DilgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
