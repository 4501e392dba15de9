"""Quadrotor tracking simulator: reference trajectories, the colored gust
model, closed-loop tracking scores and the averaged objective."""

import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from dilgp.exceptions import NonFiniteInput
from dilgp.quad import (DT, DURATION, N_STEPS, WIND_DOMAIN_HELDOUT,
                        WIND_DOMAIN_TRAIN, PIDGains, SimResult, TrajectoryKind,
                        WindDomainSpec, dryden_wind, pid_objective,
                        reference_trajectory, simulate)

CALM = WindDomainSpec(0.0, 0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------- references

def test_reference_pinned_points():
    assert np.allclose(reference_trajectory(TrajectoryKind.HOVER, 13.7), [0, 0, 1])
    assert np.allclose(reference_trajectory(TrajectoryKind.FIG8, 0.0), [0, 0, 1])
    # quarter period of the 10 s loop
    assert np.allclose(reference_trajectory(TrajectoryKind.FIG8, 2.5), [1, 0, 1], atol=1e-12)
    assert np.allclose(reference_trajectory(TrajectoryKind.SIN_FORWARD, 5.0),
                       [1.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(reference_trajectory(TrajectoryKind.SPIRAL_UP, 10.0),
                       [1.0, 0.0, 1.0], atol=1e-12)


def test_reference_vectorized_and_range_checked():
    t = np.linspace(0.0, DURATION, 50)
    out = reference_trajectory(TrajectoryKind.SPIRAL_UP, t)
    assert out.shape == (50, 3)
    assert np.all(np.diff(out[:, 2]) > 0)        # climbs monotonically
    with pytest.raises(ValueError):
        reference_trajectory(TrajectoryKind.HOVER, -0.1)
    with pytest.raises(ValueError):
        reference_trajectory(TrajectoryKind.HOVER, DURATION + 1e-9)


# ---------------------------------------------------------------- gusts

def test_dryden_zero_variance_is_constant_mean():
    spec = WindDomainSpec(3.0, 1.0, 0.0, 0.0, 2.0)
    h, v = dryden_wind(spec, 0, DT, 200)
    assert h.shape == (200, 2) and v.shape == (200,)
    assert np.allclose(h, 3.0, rtol=1e-12)
    assert np.allclose(v, 1.0, rtol=1e-12)


def test_dryden_long_run_statistics():
    h, v = dryden_wind(WIND_DOMAIN_TRAIN, 0, DT, 100_000)
    assert abs(h[:, 0].mean()) < 0.15 and abs(h[:, 1].mean()) < 0.15
    assert h[:, 0].var() == pytest.approx(WIND_DOMAIN_TRAIN.var_h, rel=0.12)
    assert v.var() == pytest.approx(WIND_DOMAIN_TRAIN.var_v, rel=0.12)
    hh, vv = dryden_wind(WIND_DOMAIN_HELDOUT, 1, DT, 100_000)
    assert hh[:, 0].mean() == pytest.approx(WIND_DOMAIN_HELDOUT.mean_h, abs=0.3)
    assert vv.mean() == pytest.approx(WIND_DOMAIN_HELDOUT.mean_v, abs=0.3)


def test_dryden_deterministic_and_validated():
    a = dryden_wind(WIND_DOMAIN_TRAIN, 5, DT, 100)
    b = dryden_wind(WIND_DOMAIN_TRAIN, 5, DT, 100)
    c = dryden_wind(WIND_DOMAIN_TRAIN, 6, DT, 100)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])
    with pytest.raises(ValueError):
        dryden_wind(WIND_DOMAIN_TRAIN, 0, 0.0, 10)


# ---------------------------------------------------------------- containers

def test_gains_validation():
    with pytest.raises(NonFiniteInput):
        PIDGains(-0.1, 0.0, 0.0)
    with pytest.raises(NonFiniteInput):
        PIDGains(1.0, math.nan, 0.0)
    g = PIDGains.from_array(np.array([1.0, 2.0, 3.0]))
    assert (g.kp, g.ki, g.kd) == (1.0, 2.0, 3.0)


def test_wind_spec_validation():
    with pytest.raises(ValueError):
        WindDomainSpec(0.0, 0.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        WindDomainSpec(0.0, 0.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------- simulation

def test_hover_in_calm_air_is_perfect():
    res = simulate(PIDGains(4.0, 0.5, 2.0), TrajectoryKind.HOVER, CALM, 0)
    assert res.ace < 1e-12 and not res.diverged
    assert res.positions.shape == (N_STEPS, 3)
    assert res.reference.shape == (N_STEPS, 3)


def test_uncontrolled_offset_gives_exact_error():
    # no gains, no wind, no velocity: the craft just sits 0.5 m off in x
    res = simulate(PIDGains(0, 0, 0), TrajectoryKind.HOVER, CALM, 0,
                   start_offset=(0.5, 0.0, 0.0))
    assert res.ace == 0.25
    assert np.all(res.positions == res.positions[0])


def test_control_beats_no_control_under_wind():
    off = simulate(PIDGains(0, 0, 0), TrajectoryKind.HOVER, WIND_DOMAIN_TRAIN, 3)
    on = simulate(PIDGains(2.0, 0.5, 1.0), TrajectoryKind.HOVER, WIND_DOMAIN_TRAIN, 3)
    assert on.ace < off.ace
    assert not on.diverged


def test_simulate_deterministic_and_consistent():
    a = simulate(PIDGains(2.0, 0.5, 1.0), TrajectoryKind.FIG8, WIND_DOMAIN_TRAIN, 11)
    b = simulate(PIDGains(2.0, 0.5, 1.0), TrajectoryKind.FIG8, WIND_DOMAIN_TRAIN, 11)
    assert a.ace == b.ace
    assert np.array_equal(a.positions, b.positions)
    err = a.positions - a.reference
    assert a.ace == pytest.approx(float(np.mean(np.sum(err * err, axis=1))), abs=1e-12)


def test_nonfinite_state_hits_divergence_sentinel():
    res = simulate(PIDGains(1.0, 0.0, 0.0), TrajectoryKind.HOVER, CALM, 0,
                   start_offset=(math.inf, 0.0, 0.0))
    assert res.ace == math.inf and res.diverged
    assert res.positions.shape[0] < N_STEPS


def test_export_csv(tmp_path):
    res = simulate(PIDGains(2.0, 0.5, 1.0), TrajectoryKind.HOVER, CALM, 0)
    path = tmp_path / "traj.csv"
    res.export_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "z", "ref_x", "ref_y", "ref_z"]
    assert len(rows) == N_STEPS + 1
    assert float(rows[1][0]) == 0.0
    assert [float(v) for v in rows[1][4:]] == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------- objective

def test_objective_single_pair_equals_simulate():
    g = PIDGains(2.0, 0.5, 1.0)
    direct = simulate(g, TrajectoryKind.FIG8, WIND_DOMAIN_TRAIN, 4).ace
    assert pid_objective(g, WIND_DOMAIN_TRAIN, [TrajectoryKind.FIG8], [4]) == direct


def test_objective_averages_over_seeds():
    g = PIDGains(2.0, 0.5, 1.0)
    a = simulate(g, TrajectoryKind.HOVER, WIND_DOMAIN_TRAIN, 1).ace
    b = simulate(g, TrajectoryKind.HOVER, WIND_DOMAIN_TRAIN, 2).ace
    got = pid_objective(g, WIND_DOMAIN_TRAIN, [TrajectoryKind.HOVER], [1, 2])
    assert got == pytest.approx((a + b) / 2.0, rel=1e-15)


def test_objective_order_insensitive_in_kinds():
    g = np.array([2.0, 0.5, 1.0])
    kinds_a = [TrajectoryKind.SPIRAL_UP, TrajectoryKind.HOVER]
    kinds_b = [TrajectoryKind.HOVER, TrajectoryKind.SPIRAL_UP]
    assert pid_objective(g, WIND_DOMAIN_TRAIN, kinds_a, [0]) == \
        pid_objective(g, WIND_DOMAIN_TRAIN, kinds_b, [0])


def test_objective_validation():
    with pytest.raises(ValueError):
        pid_objective(PIDGains(1, 0, 0), WIND_DOMAIN_TRAIN, [], [0])
    with pytest.raises(ValueError):
        pid_objective(PIDGains(1, 0, 0), WIND_DOMAIN_TRAIN, [TrajectoryKind.HOVER], [])


# ---------------------------------------------------------------- imports

def test_scipy_signal_loads_on_first_simulation():
    # scipy.signal costs about a second to import and only the gust filter
    # needs it, so the CLI and the experiments import without it
    code = ("import sys, dilgp.cli, dilgp.experiments; from dilgp import quad\n"
            "before = 'scipy.signal' in sys.modules\n"
            "quad.simulate(quad.PIDGains(1.0, 0.1, 0.5), quad.TrajectoryKind.HOVER,\n"
            "              quad.WIND_DOMAIN_TRAIN, 0)\n"
            "print(before, 'scipy.signal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["False", "True"]
