"""Quadrotor tracking simulator: reference trajectories, the colored gust
model, closed-loop tracking scores and the averaged objective."""

import csv
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from dilgp import quad
from dilgp.exceptions import DimensionMismatch, InvalidSetting, NonFiniteInput
from dilgp.quad import (ACCEL_LIMIT, DT, DURATION, INTEGRAL_LIMIT, N_STEPS,
                        WIND_DOMAIN_HELDOUT, WIND_DOMAIN_TRAIN, PIDGains, SimResult,
                        TrajectoryKind, WindDomainSpec, dryden_wind, pid_objective,
                        reference_trajectory, simulate)
from dilgp.rng import rng_for

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
    for t in (math.nan, [0.0, math.nan]):        # nan < 0 and nan > DURATION are False
        with pytest.raises(ValueError):
            reference_trajectory(TrajectoryKind.FIG8, t)
    with pytest.raises(ValueError, match="unknown trajectory"):
        reference_trajectory("hover", 1.0)


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
    with pytest.raises(ValueError):
        dryden_wind(WIND_DOMAIN_TRAIN, 0, math.nan, 10)
    # the filter's pole 1 - dt/tau leaves the unit circle at dt = 2 tau
    tau = WIND_DOMAIN_TRAIN.correlation_time
    with pytest.raises(ValueError):
        dryden_wind(WIND_DOMAIN_TRAIN, 0, 2.0 * tau, 10)
    with pytest.raises(ValueError):
        dryden_wind(WIND_DOMAIN_TRAIN, 0, 3.0 * tau, 10)
    h, v = dryden_wind(WIND_DOMAIN_TRAIN, 0, 1.9 * tau, 10)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(v))


@pytest.mark.parametrize("spec", [WIND_DOMAIN_TRAIN, WIND_DOMAIN_HELDOUT])
def test_dryden_matches_lfilter(spec):
    # the gusts are the first-order filter 1 / (1 - c z^-1) of the drive,
    # started from c mu, with c = 1 - dt/tau; scipy is the oracle only here
    from scipy.signal import lfilter
    a = DT / spec.correlation_time
    c = 1.0 - a
    for seed in (0, 1, 7, 42):
        for n in (1, 2, 2000):
            h, v = dryden_wind(spec, seed, DT, n)
            u = rng_for(seed, "dryden-wind").uniform(-math.sqrt(3.0), math.sqrt(3.0), (n, 3))
            for j, (mu, var, got) in enumerate([(spec.mean_h, spec.var_h, h[:, 0]),
                                                (spec.mean_h, spec.var_h, h[:, 1]),
                                                (spec.mean_v, spec.var_v, v)]):
                drive = mu * a + math.sqrt(2.0 * var * a) * u[:, j]
                want, _ = lfilter([1.0], [1.0, -c], drive, zi=[c * mu])
                assert np.array_equal(got, want), (seed, n, j)


# ---------------------------------------------------------------- containers

def test_gains_validation():
    with pytest.raises(NonFiniteInput):
        PIDGains(-0.1, 0.0, 0.0)
    with pytest.raises(NonFiniteInput):
        PIDGains(1.0, math.nan, 0.0)
    g = PIDGains.from_array(np.array([1.0, 2.0, 3.0]))
    assert (g.kp, g.ki, g.kd) == (1.0, 2.0, 3.0)
    assert PIDGains.from_array([[1.0], [2.0], [3.0]]) == g


@pytest.mark.parametrize("v", [[2.0, 0.5], [2.0, 0.5, 1.0, 7.0]])
def test_gains_need_exactly_three_entries(v):
    # a longer vector must not lose its tail without a word
    with pytest.raises(DimensionMismatch):
        PIDGains.from_array(v)
    with pytest.raises(DimensionMismatch):
        pid_objective(v, WIND_DOMAIN_TRAIN, [TrajectoryKind.HOVER], [0])


def test_gains_store_python_floats():
    # numpy scalars would run every step of a flight in numpy arithmetic
    g = PIDGains(*np.array([2.0, 0.5, 1.0]))
    assert all(type(x) is float for x in (g.kp, g.ki, g.kd))
    want = simulate(PIDGains(2.0, 0.5, 1.0), TrajectoryKind.FIG8, WIND_DOMAIN_TRAIN, 4)
    got = simulate(g, TrajectoryKind.FIG8, WIND_DOMAIN_TRAIN, 4)
    assert got.ace == want.ace and np.array_equal(got.positions, want.positions)


def test_wind_spec_validation():
    with pytest.raises(ValueError):
        WindDomainSpec(0.0, 0.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        WindDomainSpec(0.0, 0.0, 1.0, 1.0, 0.0)
    # nan < 0 is False, so a plain sign check would let these through
    for bad in ([math.nan, 0, 1, 1, 1], [0, math.inf, 1, 1, 1], [0, 0, math.nan, 1, 1],
                [0, 0, 1, math.inf, 1], [0, 0, 1, 1, math.nan], [0, 0, 1, 1, math.inf]):
        with pytest.raises(ValueError):
            WindDomainSpec(*bad)


# ---------------------------------------------------------------- simulation

def test_hover_in_calm_air_is_perfect():
    res = simulate(PIDGains(4.0, 0.5, 2.0), TrajectoryKind.HOVER, CALM, 0)
    assert res.ace < 1e-12 and not res.diverged
    assert res.positions.shape == (N_STEPS, 3)
    assert res.reference.shape == (N_STEPS, 3)


def test_uncontrolled_offset_gives_exact_error():
    # no gains, no wind, no velocity: an axis started 0.5 m off just sits there
    ref, ref_cols = quad._reference(TrajectoryKind.HOVER)
    x = quad._track_axis(ref_cols[0], [0.0] * N_STEPS, 0.0, 0.0, 0.0, 0.5)
    assert x == [0.5] * N_STEPS
    assert np.mean((np.array(x) - ref[:, 0]) ** 2) == 0.25


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


def _fly_axis(ref, wind, gains, p0, binds):
    # the PID loop of one axis, fed a precomputed gust sequence; adds to binds
    # each (clamp, sign of the clamped value) that binds
    p, v, integral, e_prev, out = p0, 0.0, 0.0, ref[0] - p0, []
    for r, w in zip(ref, wind):
        out.append(p)
        e = r - p
        raw = integral + e * DT
        integral = max(-INTEGRAL_LIMIT, min(INTEGRAL_LIMIT, raw))
        deriv = (e - e_prev) / DT
        e_prev = e
        raw_cmd = gains.kp * e + gains.ki * integral + gains.kd * deriv
        cmd = max(-ACCEL_LIMIT, min(ACCEL_LIMIT, raw_cmd))
        if integral != raw:
            binds.add(("integral", raw > 0))
        if cmd != raw_cmd:
            binds.add(("accel", raw_cmd > 0))
        v += (cmd + w) * DT
        p += v * DT
    return out


def _oracle_positions(kind, spec, seed, gains, binds=None):
    h, v = dryden_wind(spec, seed, DT, N_STEPS)
    ref = reference_trajectory(kind, np.arange(N_STEPS) * DT)
    binds = set() if binds is None else binds
    return np.column_stack([_fly_axis(ref[:, j].tolist(), w.tolist(), gains,
                                      float(ref[0, j]), binds)
                            for j, w in enumerate([h[:, 0], h[:, 1], v])])


# gains of test_flight_flies_dryden_gusts that bind a clamp at both signs
BINDS_AT_BOTH_SIGNS = {PIDGains(100.0, 0.0, 0.0): "accel", PIDGains(20.0, 1.0, 0.5): "accel",
                       PIDGains(0.3, 0.05, 0.8): "integral",
                       PIDGains(0.2, 0.1, 0.3): "integral"}


@pytest.mark.parametrize("kind,spec,seed,gains", [
    (TrajectoryKind.FIG8, WIND_DOMAIN_TRAIN, 11, PIDGains(2.0, 0.5, 1.0)),
    (TrajectoryKind.SPIRAL_UP, WIND_DOMAIN_HELDOUT, 3, PIDGains(9.0, 3.0, 0.2)),
    (TrajectoryKind.HOVER, WIND_DOMAIN_TRAIN, 0, PIDGains(30.0, 20.0, 0.0)),
    (TrajectoryKind.FIG8, WIND_DOMAIN_HELDOUT, 1, PIDGains(100.0, 0.0, 0.0)),
    (TrajectoryKind.SIN_FORWARD, WIND_DOMAIN_TRAIN, 1, PIDGains(20.0, 1.0, 0.5)),
    (TrajectoryKind.SPIRAL_UP, WIND_DOMAIN_TRAIN, 1, PIDGains(0.3, 0.05, 0.8)),
    (TrajectoryKind.HOVER, WIND_DOMAIN_HELDOUT, 1, PIDGains(0.2, 0.1, 0.3)),
    (TrajectoryKind.SIN_FORWARD, WIND_DOMAIN_HELDOUT, 1, PIDGains(0.2, 0.1, 0.3)),
])
def test_flight_flies_dryden_gusts(kind, spec, seed, gains):
    # simulate reads the gusts dryden_wind makes; its positions must be those
    # of a flight through that sequence, bit for bit, and on the flights that
    # bind a clamp its ACE is the mean squared (N, 3) error's, bit for bit
    res = simulate(gains, kind, spec, seed)
    assert not res.diverged
    binds = set()
    assert np.array_equal(res.positions, _oracle_positions(kind, spec, seed, gains, binds=binds))
    if gains in BINDS_AT_BOTH_SIGNS:
        clamp = BINDS_AT_BOTH_SIGNS[gains]
        assert {(clamp, True), (clamp, False)} <= binds, binds
        assert res.ace == np.mean(np.sum((res.positions - res.reference) ** 2, axis=1))


def test_flights_share_read_only_inputs_and_keep_their_bits():
    # more (regime, seed) keys than the gust cache holds evict the first key,
    # which is then rebuilt with the same bits; what a flight returns cannot
    # reach the shared reference or gusts
    g, kind = PIDGains(2.0, 0.5, 1.0), TrajectoryKind.SIN_FORWARD
    first = simulate(g, kind, WIND_DOMAIN_TRAIN, 0)
    want_ace, want_pos, want_ref = first.ace, first.positions.copy(), first.reference.copy()
    ref, _ = quad._reference(kind)
    assert not ref.flags.writeable
    assert not quad._gusts(WIND_DOMAIN_TRAIN, 0).flags.writeable
    with pytest.raises(ValueError):
        first.reference[0, 0] = 9.0
    with pytest.raises(ValueError):
        first.reference.flags.writeable = True
    first.positions[:] = 9.0
    for seed in range(1, quad._gusts.cache_info().maxsize + 1):
        simulate(g, kind, WIND_DOMAIN_HELDOUT, seed)
    misses = quad._gusts.cache_info().misses
    again = simulate(g, kind, WIND_DOMAIN_TRAIN, 0)
    assert quad._gusts.cache_info().misses == misses + 1       # evicted and rebuilt
    assert again.ace == want_ace
    assert np.array_equal(again.positions, want_pos) and np.array_equal(again.reference, want_ref)


@pytest.mark.parametrize("seed", [1.7, 1.0, -1, 2 ** 64, True, "1", np.float64(1.0), None])
def test_seed_must_be_an_integer_in_the_64_bit_range(seed):
    # 1.7 would fly seed 1's gusts, and -1 those of 2**64 - 1
    for fly in (lambda: simulate(PIDGains(1, 0, 0), TrajectoryKind.HOVER, CALM, seed),
                lambda: pid_objective(PIDGains(1, 0, 0), CALM, [TrajectoryKind.HOVER], [seed])):
        with pytest.raises(InvalidSetting, match=f"seed must be .*got {re.escape(repr(seed))}"):
            fly()


def test_numpy_integer_seeds_share_the_cache_entry_of_their_int():
    g, seed = PIDGains(2.0, 0.5, 1.0), 987654321
    want = simulate(g, TrajectoryKind.HOVER, WIND_DOMAIN_TRAIN, seed)
    misses = quad._gusts.cache_info().misses
    for same in (np.int64(seed), np.uint64(seed), np.int32(seed)):
        got = simulate(g, TrajectoryKind.HOVER, WIND_DOMAIN_TRAIN, same)
        assert got.ace == want.ace and np.array_equal(got.positions, want.positions)
    assert quad._gusts.cache_info().misses == misses
    assert simulate(g, TrajectoryKind.HOVER, CALM, np.uint64(2 ** 64 - 1)).ace < 1e-12


@pytest.mark.parametrize("spec", [CALM, WIND_DOMAIN_TRAIN])
def test_nan_command_clamps_to_positive_limit(spec):
    # kp e + kd de/dt overflows to inf - inf = NaN on tens of steps of this
    # axis, started 5 m off; max(-L, min(L, NaN)) is +L, which keeps it
    # finite, where a clamp that lets NaN through goes non-finite near step 19
    gains = PIDGains(1e308, 0.0, 1e308)
    _, ref_cols = quad._reference(TrajectoryKind.HOVER)
    gust = dryden_wind(spec, 0, DT, N_STEPS)[0][:, 0].tolist()
    x = quad._track_axis(ref_cols[0], gust, gains.kp, gains.ki, gains.kd, 5.0)
    assert np.isfinite(x).all() and x == _fly_axis(ref_cols[0], gust, gains, 5.0, set())


def test_nonfinite_state_hits_divergence_sentinel():
    # gusts near the float range push the state past it (the clamps bound only
    # the command); the flight keeps the rows before its first non-finite one
    gains, spec = PIDGains(1.0, 0.0, 0.0), WindDomainSpec(1.7e308, 0.0, 1.0, 1.0, 0.5)
    res = simulate(gains, TrajectoryKind.HOVER, spec, 0)
    assert res.ace == math.inf and res.diverged
    want = _oracle_positions(TrajectoryKind.HOVER, spec, 0, gains)
    m = int(np.flatnonzero(~np.isfinite(want).all(axis=1))[0])
    assert m == 106 and res.reference.shape == (m, 3)
    assert np.array_equal(res.positions, want[:m])


def test_overflowing_error_hits_divergence_sentinel():
    # a finite flight whose squared error overflows keeps the whole flight
    res = simulate(PIDGains(1.0, 0.0, 0.0), TrajectoryKind.HOVER,
                   WindDomainSpec(1e300, 0.0, 1.0, 1.0, 0.5), 0)
    assert res.ace == math.inf and res.diverged and np.isfinite(res.positions).all()
    assert res.positions.shape == (N_STEPS, 3) and res.reference.shape == (N_STEPS, 3)


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
    # an entry that is not a TrajectoryKind is named, not dropped
    with pytest.raises(ValueError, match="'hover'"):
        pid_objective(PIDGains(1, 0, 0), WIND_DOMAIN_TRAIN, [TrajectoryKind.FIG8, "hover"], [0])
    with pytest.raises(ValueError, match="'fig8'"):
        pid_objective(PIDGains(1, 0, 0), WIND_DOMAIN_TRAIN, ["fig8"], [0])


# ---------------------------------------------------------------- imports

def test_simulation_path_imports_no_scipy_signal():
    # scipy.signal (and the scipy.stats it pulls in) costs about a second and
    # 37 MiB to import; the CLI, the experiments and a flight need neither
    code = ("import sys, dilgp.cli, dilgp.experiments; from dilgp import quad\n"
            "g = quad.PIDGains(1.0, 0.1, 0.5)\n"
            "quad.simulate(g, quad.TrajectoryKind.HOVER, quad.WIND_DOMAIN_TRAIN, 0)\n"
            "quad.pid_objective(g, quad.WIND_DOMAIN_TRAIN, [quad.TrajectoryKind.FIG8], [1])\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_fit_and_predict_import_no_scipy_spatial():
    # the kernels' squared distances come from numpy, so the CLI, the
    # experiments, a fit and a prediction load neither scipy.spatial nor the
    # scipy.sparse and scipy.constants it pulls in (66 modules, about 5.6 MiB);
    # LAPACK is called from scipy's OpenBLAS and the masks' exp from numpy, so
    # they load neither scipy.linalg nor scipy.special (about 320 modules)
    code = ("import sys, numpy as np, dilgp.cli, dilgp.experiments\n"
            "from dilgp.data import gen_synthetic_1d\n"
            "from dilgp.gp import predict\n"
            "from dilgp.train import ModelSpec, fit_model\n"
            "train, test = gen_synthetic_1d(0)\n"
            "post, scaler, _ = fit_model(ModelSpec(t1=2, t2=1), train, seed=0)\n"
            "predict(post, scaler.transform_x(test.x))\n"
            "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse', 'scipy.constants',\n"
            "                          'scipy.linalg', 'scipy.special') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
