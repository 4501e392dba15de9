"""End-to-end command-line behavior: argument resolution and per-dataset
defaults, output files, manifests, and byte-exact reproduction from a saved
config.json."""

import argparse
import hashlib
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from dilgp import blas
from dilgp.cli import (COMMANDS, FitEvalConfig, build_parser, declared, load_config,
                       main)
from dilgp.experiments import settings_for
from dilgp.train import ModelSpec


def run_ok(argv):
    assert main(argv) == 0


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- generate

@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    run_ok(["generate", "--generator", "synthetic_1d", "--seed", "0",
            "--out", str(out)])
    return out


def test_generate_writes_dataset(gen_dir):
    train_lines = (gen_dir / "train.csv").read_text().strip().split("\n")
    test_lines = (gen_dir / "test.csv").read_text().strip().split("\n")
    assert len(train_lines) == 116 and len(test_lines) == 81
    assert train_lines[0] == "x0,y,domain"


def test_generate_manifest_checksums(gen_dir):
    manifest = read_json(gen_dir / "manifest.json")
    assert manifest["outputs"]["train.csv"] == sha(gen_dir / "train.csv")
    assert manifest["outputs"]["config.json"] == sha(gen_dir / "config.json")
    assert manifest["seed"] == 0
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert env["openblas"] == [lib.name for lib in blas.LIBRARIES]
    assert env["blas_threads"] == (1 if blas.LIBRARIES else None)
    cfg = read_json(gen_dir / "config.json")
    assert cfg["command"] == "generate"
    assert "out" not in cfg


def test_generate_rerun_is_byte_identical(gen_dir, tmp_path):
    out2 = tmp_path / "again"
    run_ok(["generate", "--generator", "synthetic_1d", "--seed", "0",
            "--out", str(out2)])
    assert (out2 / "train.csv").read_bytes() == (gen_dir / "train.csv").read_bytes()
    assert (out2 / "test.csv").read_bytes() == (gen_dir / "test.csv").read_bytes()


def test_generate_rejects_unknown_generator(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "--generator", "mystery", "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------- fit-eval

@pytest.fixture(scope="module")
def fit1d_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit1d")
    run_ok(["fit-eval", "--dataset", "synthetic_1d", "--seed", "0",
            "--out", str(out)])
    return out


def test_fit_eval_report_and_trace(fit1d_dir):
    report = read_json(fit1d_dir / "report.json")
    assert 0.0 < report["rmse"] < 2.0
    assert 0.0 <= report["coverage_rate"] <= 1.0
    assert report["n_test"] == 80
    lines = (fit1d_dir / "trace.jsonl").read_text().strip().split("\n")
    assert len(lines) == 100          # one record per outer step
    first = json.loads(lines[0])
    assert {"step", "objective", "penalty", "params"} <= set(first)


def test_fit_eval_dataset_defaults_recorded(fit1d_dir):
    # the 1-D calibration, which is also ModelSpec()'s default
    cfg = read_json(fit1d_dir / "config.json")
    assert cfg["sigma2"] == 0.4
    assert cfg["lam"] == 0.01
    assert cfg["eta2"] == 0.005
    assert cfg["model"] == "dil_gp"


def test_fit_eval_flag_overrides_dataset_default(tmp_path):
    out = tmp_path / "o"
    run_ok(["fit-eval", "--dataset", "synthetic_1d", "--sigma2", "0.2",
            "--t1", "5", "--out", str(out)])
    assert read_json(out / "config.json")["sigma2"] == 0.2


def test_fit_eval_prunes_partition_keys_for_plain_gp(tmp_path):
    out = tmp_path / "gp"
    run_ok(["fit-eval", "--dataset", "synthetic_1d", "--model", "gp_gaussian",
            "--t1", "10", "--out", str(out)])
    cfg = read_json(out / "config.json")
    for key in ("t2", "eta1", "lam"):
        assert key not in cfg
    assert cfg["sigma2"] == 0.4       # dataset default still applies


def test_fit_eval_sweep_summary(tmp_path):
    out = tmp_path / "sweep"
    run_ok(["fit-eval", "--dataset", "synthetic_1d", "--sweep", "2",
            "--t1", "15", "--out", str(out)])
    report = read_json(out / "report.json")
    assert len(report["per_seed"]) == 2
    summary = report["summary"]
    assert summary["seeds"] == [0, 1]
    assert set(summary) == {"seeds", "rmse_mean", "rmse_max_dev",
                            "coverage_mean", "coverage_max_dev"}
    rmses = [r["rmse"] for r in report["per_seed"]]
    assert summary["rmse_mean"] == pytest.approx(np.mean(rmses))
    assert summary["rmse_max_dev"] == pytest.approx(
        max(abs(r - np.mean(rmses)) for r in rmses))


def test_fit_eval_from_csv_with_domain_column(gen_dir, tmp_path, capsys):
    # one unparseable row, which is dropped and reported
    train_csv = tmp_path / "train.csv"
    train_csv.write_text((gen_dir / "train.csv").read_text() + "1.0,oops,0\n")
    out = tmp_path / "csvfit"
    run_ok(["fit-eval", "--train-csv", str(train_csv),
            "--test-csv", str(gen_dir / "test.csv"), "--domain-column", "domain",
            "--model", "gp_gaussian", "--t1", "20", "--sigma2", "0.4",
            "--out", str(out)])
    report = read_json(out / "report.json")
    assert "per_domain_rmse" in report
    assert "1" in report["per_domain_rmse"]
    assert report["dropped_rows"] == {"train": 1, "test": 0}
    assert "dropped 1 train and 0 test rows" in capsys.readouterr().out


def test_fit_eval_from_csv_with_default_settings(gen_dir, tmp_path):
    # no model flags: the ModelSpec() defaults must train dil_gp on the
    # package's own generated data
    out = tmp_path / "csvdefault"
    run_ok(["fit-eval", "--train-csv", str(gen_dir / "train.csv"),
            "--test-csv", str(gen_dir / "test.csv"), "--out", str(out)])
    assert read_json(out / "config.json")["model"] == "dil_gp"
    assert np.isfinite(read_json(out / "report.json")["rmse"])


def test_fit_eval_config_round_trip_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_ok(["fit-eval", "--dataset", "synthetic_1d", "--seed", "1",
            "--t1", "30", "--out", str(a)])
    run_ok(["fit-eval", "--config", str(a / "config.json"), "--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()
    ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
    assert ma["outputs"] == mb["outputs"]
    assert ma["config_sha256"] == mb["config_sha256"]


def test_unknown_config_keys_rejected(tmp_path, capsys):
    # grad_mode is a setting of older versions, gone with its finite-difference mode
    for key, val in (("bogus", 1), ("grad_mode", "analytic_fd_hybrid")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": "synthetic_1d", key: val}))
        code = main(["fit-eval", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown keys" in err and key in err


def test_config_model_keys_are_model_spec_fields(gen_dir, fit1d_dir, tmp_path):
    cfg = read_json(fit1d_dir / "config.json")
    spec_keys = {f.name for f in fields(ModelSpec)}
    run_keys = {f.name for f in fields(FitEvalConfig)} - {"spec"}
    assert set(cfg) - run_keys - {"command"} == spec_keys
    # every command reproduces its run config from its own config.json
    bo_dir = tmp_path / "bo"
    run_ok(["bo", "--t-bo", "2", "--out", str(bo_dir)])
    runs = {"generate": (["--generator", "synthetic_1d", "--seed", "0"], gen_dir),
            "fit-eval": (["--dataset", "synthetic_1d", "--seed", "0"], fit1d_dir),
            "bo": (["--t-bo", "2"], bo_dir)}
    parser = build_parser()
    for command, (argv, out) in runs.items():
        cls = COMMANDS[command][0]
        flags = parser.parse_args([command, *argv, "--out", str(out)])
        again = parser.parse_args([command, "--config", str(out / "config.json"),
                                   "--out", str(out)])
        assert load_config(cls, again) == load_config(cls, flags)
    saved = parser.parse_args(["fit-eval", "--config", str(fit1d_dir / "config.json"),
                               "--out", str(fit1d_dir)])
    assert load_config(FitEvalConfig, saved).spec == settings_for("synthetic_1d", "dil_gp")


def test_model_flags_are_generated_from_spec_fields():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, (cls, _, _) in COMMANDS.items():
        keys = [f.name for f, _ in declared(cls)]
        if command != "generate":
            assert {f.name for f in fields(ModelSpec)} <= set(keys)
        dests = [a.dest for a in sub.choices[command]._actions]
        assert sorted(set(dests) - {"help", "config", "out"}) == sorted(keys)
        assert all(dests.count(key) == 1 for key in keys)


@pytest.mark.parametrize("key, argv, config", [
    pytest.param("t1", ["fit-eval", "--dataset", "synthetic_1d", "--t1", "0"], None, id="t1"),
    pytest.param("t2", ["fit-eval", "--dataset", "synthetic_1d", "--t2", "-1"], None, id="t2"),
    pytest.param("sweep", ["fit-eval", "--dataset", "synthetic_1d", "--sweep", "0"], None,
                 id="sweep"),
    pytest.param("eta2", ["fit-eval", "--dataset", "synthetic_1d", "--model", "gp_gaussian",
                          "--eta2", "-0.5"], None, id="eta2"),
    pytest.param("t_bo", ["bo", "--t-bo", "0"], None, id="t_bo"),
    pytest.param("sigma2", ["bo", "--sigma2", "0"], None, id="sigma2"),
    pytest.param("sweep", ["fit-eval", "--train-csv", "train.csv", "--test-csv", "test.csv",
                           "--model", "gp_gaussian", "--sweep", "3"], None, id="csv_sweep"),
    # values from a --config file are checked like flags: no conversion, no truthiness
    pytest.param("seed", ["fit-eval"], {"dataset": "synthetic_1d", "seed": "a"}, id="seed_str"),
    pytest.param("seed", ["fit-eval"], {"dataset": "synthetic_1d", "seed": 1.5},
                 id="seed_float"),
    pytest.param("dataset", ["fit-eval"], {"dataset": ["synthetic_1d"]}, id="dataset_list"),
    pytest.param("dataset", ["fit-eval"], {"dataset": "synthetic_9d"}, id="dataset_unknown"),
    pytest.param("generator", ["generate"], {"generator": "synthetic_9d"},
                 id="generator_unknown"),
    pytest.param("noise_as_std", ["fit-eval"], {"dataset": "synthetic_1d", "noise_as_std": "no"},
                 id="noise_as_std_str"),
    pytest.param("trajectory", ["bo"], {"objective": "quad_pid", "trajectory": "loop"},
                 id="trajectory_unknown"),
    pytest.param("objective", ["bo"], {"objective": "nope"}, id="objective_unknown"),
    pytest.param("t_bo", ["bo"], {"t_bo": "2"}, id="t_bo_str"),
    pytest.param("feature_columns", ["fit-eval", "--train-csv", "train.csv", "--test-csv",
                                     "test.csv", "--feature-columns", ","], None,
                 id="feature_columns_flag_empty"),
    pytest.param("feature_columns", ["fit-eval"], {"train_csv": "train.csv",
                                                   "test_csv": "test.csv",
                                                   "feature_columns": []},
                 id="feature_columns_config_empty"),
])
def test_invalid_settings_report_error(key, argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing_config", "list_config", "malformed_config",
                                  "missing_train_csv", "inf_domain_tags"])
def test_bad_input_files_report_error(case, gen_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    test_csv = str(gen_dir / "test.csv")
    argv = {
        "missing_config": ["fit-eval", "--config", str(bad)],
        "list_config": ["fit-eval", "--config", str(bad)],
        "malformed_config": ["bo", "--config", str(bad)],
        "missing_train_csv": ["fit-eval", "--train-csv", str(bad), "--test-csv", test_csv],
        # every row dropped: int(float("inf")) overflows
        "inf_domain_tags": ["fit-eval", "--train-csv", str(bad), "--test-csv", test_csv,
                            "--domain-column", "domain"],
    }[case]
    contents = {"list_config": "[1, 2]", "malformed_config": "{\"seed\": ",
                "inf_domain_tags": "x0,y,domain\n1.0,2.0,inf\n3.0,4.0,-inf\n"}
    if case in contents:
        bad.write_text(contents[case])
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("argv,out", [
    (["generate"], "file"),
    (["fit-eval", "--dataset", "synthetic_1d", "--t1", "2"], "file/sub"),
], ids=["generate-out-is-a-file", "fit-eval-out-under-a-file"])
def test_unusable_out_reports_error(argv, out, tmp_path, capsys):
    (tmp_path / "file").write_text("kept\n")
    assert main(argv + ["--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / out) in err
    assert (tmp_path / "file").read_text() == "kept\n"


def test_dataset_and_csv_are_mutually_exclusive(tmp_path, capsys):
    code = main(["fit-eval", "--dataset", "synthetic_1d", "--train-csv", "t.csv",
                 "--test-csv", "t.csv", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "either" in capsys.readouterr().err


# ---------------------------------------------------------------- bo

def test_bo_quadratic_outputs(tmp_path):
    out = tmp_path / "boq"
    run_ok(["bo", "--objective", "quadratic", "--t-bo", "5", "--out", str(out)])
    summary = read_json(out / "summary.json")
    assert summary["objective"] == "quadratic"
    assert summary["distance_to_optimum"] >= 0.0
    assert "final_regret_bound" in summary and "final_cum_regret" in summary
    lines = (out / "history.jsonl").read_text().strip().split("\n")
    assert len(lines) == 5
    rec = json.loads(lines[-1])
    assert {"step", "beta", "info_gain", "regret_bound", "cum_regret"} <= set(rec)
    cfg = read_json(out / "config.json")
    assert "trajectory" not in cfg     # only meaningful for quad_pid


def test_bo_quadratic_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_ok(["bo", "--objective", "quadratic", "--t-bo", "3", "--seed", "5",
                "--out", str(out)])
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "history.jsonl").read_bytes() == (b / "history.jsonl").read_bytes()


def test_bo_quad_pid_outputs(tmp_path):
    out = tmp_path / "bopid"
    run_ok(["bo", "--objective", "quad_pid", "--trajectory", "hover",
            "--t-bo", "2", "--out", str(out)])
    summary = read_json(out / "summary.json")
    assert summary["objective"] == "quad_pid"
    assert summary["trajectory"] == "hover"
    assert set(summary["gains"]) == {"kp", "ki", "kd"}
    assert summary["heldout_ace"] > 0.0
    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    assert traj[0] == "t,x,y,z,ref_x,ref_y,ref_z"
    assert len(traj) == 2001


# ---------------------------------------------------------------- process

def test_module_invocation_help():
    proc = subprocess.run([sys.executable, "-m", "dilgp", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "fit-eval" in proc.stdout


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])
