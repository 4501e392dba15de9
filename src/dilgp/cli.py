"""Command-line entry point.

Three subcommands: `generate` writes a synthetic dataset to CSV, `fit-eval`
trains a model and reports held-out metrics, `bo` runs the Bayesian
optimization loop on a built-in objective or the PID-tuning simulator.

Each command declares its settings once, as a frozen dataclass of
`train.setting` fields; the fields of its nested `ModelSpec` are settings
too. The flags and the keys `--config` accepts come from that declaration,
and its `__post_init__` checks every value, from a flag or a file alike, for
exact type, choices and range. Precedence: defaults <- per-dataset
calibration <- config file <- flags. config.json is the validated config
less the keys the run never reads, next to a manifest.json of per-file
checksums and the numpy/scipy/OpenBLAS environment; re-running with `--config config.json` reproduces the output
files byte for byte. The output directory is given only on the command line
so reproductions can target a fresh directory. Environment variables are
never consulted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy
import scipy

from . import __version__, blas
from .bo import bo_run, history_jsonl
from .data import GENERATORS, load_csv
from .exceptions import DilgpError, InvalidSetting
from .experiments import (BO_SPEC, QUADRATIC_OPTIMUM, QUADRATIC_SPACE, fit_eval,
                          quad_bo_experiment, quadratic_objective, settings_for, sweep_seeds)
from .quad import WIND_DOMAIN_HELDOUT, PIDGains, TrajectoryKind, simulate
from .train import ModelSpec, check_fields, learns_partition, setting


def _from_csv(run) -> bool:
    return run.dataset is None


@dataclass(frozen=True)
class GenerateConfig:
    generator: str = setting("synthetic_1d", choices=GENERATORS)
    seed: int = 0
    noise_as_std: bool = setting(False, "read noise levels as std instead of variance")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class FitEvalConfig:
    """Settings of fit-eval: a built-in dataset or a pair of CSV files, and
    one seed or a sweep over seeds 0..sweep-1."""

    dataset: str | None = setting(
        None, "built-in generator (alternative to --train-csv/--test-csv)", choices=GENERATORS)
    train_csv: str | None = setting(None, when=_from_csv)
    test_csv: str | None = setting(None, when=_from_csv)
    target_column: str = setting("y", when=_from_csv)
    feature_columns: list[str] | None = setting(
        None, "comma-separated names; default: all non-target columns", when=_from_csv)
    domain_column: str | None = setting(
        None, "tag column for per-domain RMSE reporting", when=_from_csv)
    noise_as_std: bool = setting(False, "read noise levels as std instead of variance",
                                 when=lambda run: run.dataset is not None)
    seed: int = setting(0, when=lambda run: run.sweep is None)
    sweep: int | None = setting(None, "run seeds 0..N-1 and report mean with max deviation",
                                minimum=1, when=lambda run: run.sweep is not None)
    spec: ModelSpec = ModelSpec()

    def __post_init__(self):
        check_fields(self)
        if self.feature_columns == []:
            raise InvalidSetting("feature_columns must name at least one column")
        if self.dataset is not None and (self.train_csv or self.test_csv):
            raise InvalidSetting("give either --dataset or --train-csv/--test-csv, not both")
        if self.dataset is None and not (self.train_csv and self.test_csv):
            raise InvalidSetting("need --dataset, or both --train-csv and --test-csv")
        if self.dataset is None and self.sweep is not None and not learns_partition(self.spec):
            raise InvalidSetting(f"--sweep on CSV input refits the same rows, and "
                                 f"{self.spec.model} never reads the seed, so every seed "
                                 "would give the same fit")

    def spec_with(self, given: dict) -> ModelSpec:
        """The dataset's calibrated spec under the given model settings."""
        return settings_for(self.dataset, **{"model": self.spec.model, **given})


@dataclass(frozen=True)
class BoConfig:
    objective: str = setting("quadratic", choices=("quadratic", "quad_pid"))
    trajectory: str = setting("fig8", choices=[k.value for k in TrajectoryKind],
                              when=lambda run: run.objective == "quad_pid")
    acq: str = setting("ucb", choices=("ucb", "ei"))
    t_bo: int = setting(100, minimum=1)
    n_init: int = setting(5, minimum=1)
    seed: int = 0
    spec: ModelSpec = BO_SPEC

    def __post_init__(self):
        check_fields(self)

    def spec_with(self, given: dict) -> ModelSpec:
        return replace(self.spec, **given)


def declared(cls):
    """(field, annotated type) of every setting of a command: its own fields,
    with the fields of a nested settings dataclass in place of that field."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        want = hints[f.name]
        if is_dataclass(want):
            yield from declared(want)
        else:
            yield f, want


def _names(text: str) -> list[str]:
    return [c.strip() for c in text.split(",") if c.strip()]


def _add_flags(p, cls):
    """One flag per declared setting; a bool setting is a switch away from its default."""
    for f, want in declared(cls):
        if get_origin(want) is UnionType:       # X | None: the None default means unset
            want = get_args(want)[0]
        meta, flag = f.metadata, f.name.replace("_", "-")
        kwargs = {"dest": f.name, "default": argparse.SUPPRESS, "help": meta.get("help")}
        if want is bool:
            p.add_argument(f"--no-{flag}" if f.default else f"--{flag}",
                           action="store_false" if f.default else "store_true", **kwargs)
        else:
            choices = meta.get("choices")
            p.add_argument(f"--{flag}", type=_names if get_origin(want) is list else want,
                           choices=sorted(choices) if choices else None, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dilgp",
                                     description="Domain-invariant GP regression and BO runner")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (cls, _, about) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        _add_flags(p, cls)
        p.add_argument("--config", default=None,
                       help="JSON config from a previous run's config.json")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def build_config(cls, given: dict):
    """The validated config of the given settings over the command's defaults
    and, for the model settings, the per-dataset calibration."""
    own = {f.name for f in fields(cls)}
    run = cls(**{key: val for key, val in given.items() if key in own})
    if "spec" not in own:
        return run
    return replace(run, spec=run.spec_with({k: v for k, v in given.items() if k not in own}))


def load_config(cls, args: argparse.Namespace):
    """The config of the --config file and the flags (flags win)."""
    keys = {f.name for f, _ in declared(cls)}
    given = {}
    if args.config:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except (OSError, ValueError) as exc:   # unreadable file, or not JSON
            raise DilgpError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(given, dict):
            raise DilgpError(f"{args.config}: config must be a JSON object, "
                             f"got {type(given).__name__}")
        given.pop("command", None)
        unknown = sorted(set(given) - keys)
        if unknown:
            raise DilgpError(f"config has unknown keys for this command: {unknown}")
    given.update((key, val) for key, val in vars(args).items() if key in keys)
    return build_config(cls, given)


def config_json(run) -> dict:
    """The settings of a config that its run reads, as config.json holds them."""
    out = {}
    for f in fields(run):
        value, when = getattr(run, f.name), f.metadata.get("when")
        if is_dataclass(value):
            out.update(config_json(value))
        elif when is None or when(run):
            out[f.name] = value
    return out


def _write_outputs(outdir: Path, config: dict, t0: float):
    """Write config.json, checksum every output file, write manifest.json
    with the library versions and the BLAS thread count of the fits."""
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
        "environment": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                        "openblas": [lib.name for lib in blas.LIBRARIES],
                        "blas_threads": 1 if blas.LIBRARIES else None},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _make_outdir(outdir: Path):
    """Create the output directory once the inputs are read, so that a bad
    input writes nothing; an unusable path is a DilgpError naming it."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DilgpError(f"cannot create output directory {outdir}: {exc.strerror}") from None


def cmd_generate(run: GenerateConfig, outdir: Path):
    train, test = GENERATORS[run.generator](run.seed, noise_as_std=run.noise_as_std)
    _make_outdir(outdir)
    train.to_csv(outdir / "train.csv")
    test.to_csv(outdir / "test.csv")
    print(f"wrote {train.n} train rows and {test.n} test rows to {outdir}")


def cmd_fit_eval(run: FitEvalConfig, outdir: Path):
    if run.dataset is None:
        # CSV rows do not depend on the seed, so a sweep refits this one pair
        pair = tuple(load_csv(path, run.target_column, run.feature_columns, run.domain_column)
                     for path in (run.train_csv, run.test_csv))
        load = lambda seed: pair
    else:
        load = partial(GENERATORS[run.dataset], noise_as_std=run.noise_as_std)
    if run.sweep is None:
        report, trace = fit_eval(*load(run.seed), run.spec, seed=run.seed)
        payload = report.to_json_dict()
        print(f"rmse={report.rmse:.4f} coverage={report.coverage_rate:.4f}")
    else:
        reports, summary = sweep_seeds(load, run.spec, range(run.sweep))
        payload = {"per_seed": [r.to_json_dict() for r in reports], "summary": summary}
        print(f"rmse mean={summary['rmse_mean']:.4f} "
              f"± {summary['rmse_max_dev']:.4f} (max dev, {len(reports)} seeds)")
    if run.dataset is None:
        dropped = payload["dropped_rows"] = {"train": pair[0].dropped_rows,
                                             "test": pair[1].dropped_rows}
        if any(dropped.values()):
            print(f"dropped {dropped['train']} train and {dropped['test']} test rows "
                  "with an unparseable or non-finite cell")
    _make_outdir(outdir)
    (outdir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if run.sweep is None:
        (outdir / "trace.jsonl").write_text(trace.to_jsonl())


def cmd_bo(run: BoConfig, outdir: Path):
    if run.objective == "quadratic":
        state, diag = bo_run(quadratic_objective, QUADRATIC_SPACE, run.spec, run.acq,
                             run.t_bo, run.n_init, run.seed, f_star=0.0)
        _make_outdir(outdir)
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
        kind = TrajectoryKind(run.trajectory)
        result = quad_bo_experiment(kind, run.spec.model, run.seed, t_bo=run.t_bo,
                                    n_init=run.n_init, acq=run.acq, surrogate=run.spec)
        state, diag = result["state"], result["diagnostics"]
        gains = PIDGains(**result["gains"])
        flight = simulate(gains, kind, WIND_DOMAIN_HELDOUT, result["heldout_seeds"][0])
        _make_outdir(outdir)
        flight.export_csv(outdir / "trajectory.csv")
        summary = {
            "objective": "quad_pid",
            "trajectory": run.trajectory,
            "gains": result["gains"],
            "train_ace": result["train_ace"],
            "heldout_ace": result["heldout_ace"],
            "failed_steps": state.failed_steps,
            "final_regret_bound": float(diag.regret_bound[-1]),
        }
    (outdir / "history.jsonl").write_text(history_jsonl(state, diag))
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"incumbent f={state.incumbent_f:.6g} after {run.t_bo} steps")


COMMANDS = {
    "generate": (GenerateConfig, cmd_generate, "write a synthetic dataset as train/test CSV"),
    "fit-eval": (FitEvalConfig, cmd_fit_eval, "train a model and report held-out metrics"),
    "bo": (BoConfig, cmd_bo, "run Bayesian optimization"),
}


def main(argv=None) -> int:
    t0 = time.time()
    args = build_parser().parse_args(argv)
    cls, command, _ = COMMANDS[args.command]
    try:
        run = load_config(cls, args)
        outdir = Path(args.out)
        command(run, outdir)
        _write_outputs(outdir, {"command": args.command, **config_json(run)}, t0)
    except DilgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
