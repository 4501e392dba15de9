"""Desk-scale quadrotor tracking simulator: 3-DOF point mass, per-axis PID
acceleration commands, and colored gust noise with distinct train/held-out
wind regimes. Exposes the averaged control error (ACE) that the optimizer
tunes PID gains against.

The vehicle is a unit point mass with gravity already compensated, so the
commanded acceleration acts directly on each axis and wind enters as an
additive acceleration. This keeps the tuning problem (gains -> tracking
error under stochastic disturbance, with regime shift between domains)
while avoiding any rigid-body attitude model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .exceptions import DimensionMismatch, InvalidSetting, NonFiniteInput
from .rng import rng_for

DT = 0.01                 # s
DURATION = 20.0           # s
N_STEPS = 2000
AMPLITUDE = 1.0           # m
OMEGA = 2.0 * math.pi / 10.0   # rad/s
FORWARD_SPEED = 0.2       # m/s
CLIMB_RATE = 0.05         # m/s
ACCEL_LIMIT = 10.0        # m/s^2 per axis
INTEGRAL_LIMIT = 5.0      # clamp on the accumulated error integral


class TrajectoryKind(Enum):
    HOVER = "hover"
    FIG8 = "fig8"
    SIN_FORWARD = "sin_forward"
    SPIRAL_UP = "spiral_up"


@dataclass(frozen=True)
class PIDGains:
    """One (kp, ki, kd) triple shared by the three position axes."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise NonFiniteInput(f"{name} must be finite and >= 0, got {v!r}")
            # exact; a numpy scalar would run every step in numpy arithmetic
            object.__setattr__(self, name, float(v))

    @classmethod
    def from_array(cls, v) -> "PIDGains":
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape != (3,):
            raise DimensionMismatch(f"expected 3 gains (kp, ki, kd), got {v.size} entries")
        return cls(*v)


@dataclass(frozen=True)
class WindDomainSpec:
    """Gust statistics: mean/variance for the two horizontal axes and the
    vertical axis, plus the correlation time of the coloring filter."""

    mean_h: float
    mean_v: float
    var_h: float
    var_v: float
    correlation_time: float

    def __post_init__(self):
        for name in ("mean_h", "mean_v", "var_h", "var_v", "correlation_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.var_h < 0 or self.var_v < 0:
            raise ValueError("variances must be >= 0")
        if not self.correlation_time > 0:
            raise ValueError("correlation_time must be > 0")


# Training regime: zero-mean, strong, rapidly changing gusts. Held-out
# regime: biased, weaker, slowly varying gusts.
WIND_DOMAIN_TRAIN = WindDomainSpec(0.0, 0.0, 5.0, 2.5, 0.5)
WIND_DOMAIN_HELDOUT = WindDomainSpec(3.0, 1.0, 2.0, 1.0, 2.0)


def reference_trajectory(kind: TrajectoryKind, t) -> np.ndarray:
    """Reference position at time t (seconds, in [0, DURATION]).

    Accepts a scalar or a 1-D array of times; returns shape (3,) or (n, 3).
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0) & (t_arr <= DURATION)):     # NaN fails both
        raise ValueError(f"t must lie in [0, {DURATION}], got {t!r}")
    wt = OMEGA * t_arr
    one = np.ones_like(t_arr)
    if kind is TrajectoryKind.HOVER:
        ref = (0.0 * one, 0.0 * one, one)
    elif kind is TrajectoryKind.FIG8:
        ref = (AMPLITUDE * np.sin(wt), AMPLITUDE * np.sin(wt) * np.cos(wt), one)
    elif kind is TrajectoryKind.SIN_FORWARD:
        ref = (FORWARD_SPEED * t_arr, AMPLITUDE * np.sin(wt), one)
    elif kind is TrajectoryKind.SPIRAL_UP:
        ref = (AMPLITUDE * np.cos(wt), AMPLITUDE * np.sin(wt), 0.5 + CLIMB_RATE * t_arr)
    else:
        raise ValueError(f"unknown trajectory {kind!r}")
    return np.stack(ref, axis=-1)


def dryden_wind(spec: WindDomainSpec, seed: int, dt: float, n_steps: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Colored gust sequences: (horizontal (n, 2), vertical (n,)).

    Each axis follows the first-order recursion
        w_{k+1} = w_k + (mu - w_k) dt/tau + sqrt(2 var dt/tau) u_k
    with u_k uniform on [-sqrt(3), sqrt(3)] (unit variance) and w_0 = mu, so
    the long-run mean and variance converge to the values in ``spec``. It runs
    as w_k = c w_{k-1} + x_k from w_{-1} = mu, with c = 1 - dt/tau and drive
    x = mu dt/tau + sqrt(2 var dt/tau) u. Requires dt < 2 tau for stability.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    a = dt / spec.correlation_time
    if not a < 2.0:
        raise ValueError(f"dt must be < 2 * correlation_time for a stable filter, got {dt!r}")
    u = rng_for(seed, "dryden-wind").uniform(-math.sqrt(3.0), math.sqrt(3.0), (n_steps, 3))
    c = 1.0 - a
    out = np.empty((n_steps, 3))
    for j, (mu, var) in enumerate([(spec.mean_h, spec.var_h), (spec.mean_h, spec.var_h),
                                   (spec.mean_v, spec.var_v)]):
        drive = (mu * a + math.sqrt(2.0 * var * a) * u[:, j]).tolist()
        out[:, j] = list(accumulate(drive, lambda w, x: w * c + x, initial=mu))[1:]
    return out[:, :2], out[:, 2]


# Each reference is built once per kind, each gust sequence once per (regime,
# seed), and both are kept read-only. 8 gust entries (bo_pid flies 7 keys) hold
# 384 kB as arrays; as lists they would take about 4 times that.
@lru_cache(maxsize=len(TrajectoryKind))
def _reference(kind: TrajectoryKind) -> tuple[np.ndarray, list[list]]:
    ref = reference_trajectory(kind, np.arange(N_STEPS) * DT)
    ref.flags.writeable = False
    return ref, [ref[:, j].tolist() for j in range(3)]


@lru_cache(maxsize=8)
def _gusts(spec: WindDomainSpec, seed: int) -> np.ndarray:
    """dryden_wind's gusts of one flight as a read-only (3, N_STEPS) array."""
    h, v = dryden_wind(spec, seed, DT, N_STEPS)
    gusts = np.stack([h[:, 0], h[:, 1], v])
    gusts.flags.writeable = False
    return gusts


@dataclass
class SimResult:
    ace: float
    positions: np.ndarray    # (m, 3) flown positions
    reference: np.ndarray    # (m, 3) reference at the same times (read-only, shared)
    diverged: bool = False

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "z", "ref_x", "ref_y", "ref_z"])
            for k in range(self.positions.shape[0]):
                row = [repr(k * DT)]
                row += [repr(float(v)) for v in self.positions[k]]
                row += [repr(float(v)) for v in self.reference[k]]
                writer.writerow(row)


def _track_axis(ref: list, gust, kp: float, ki: float, kd: float, p0: float) -> list:
    """Integrate one axis through a gust sequence (an iterable of floats);
    returns the position at every step. The clamps map NaN to +limit, as
    max(-L, min(L, x)) does; simulate truncates the flight where a position
    stops being finite."""
    dt, i_hi, i_lo, a_hi, a_lo = DT, INTEGRAL_LIMIT, -INTEGRAL_LIMIT, ACCEL_LIMIT, -ACCEL_LIMIT
    p, v = p0, 0.0
    integral = 0.0
    e_prev = ref[0] - p0
    out = []
    append = out.append
    for r, w in zip(ref, gust):
        append(p)
        e = r - p
        integral = integral + e * dt
        if not integral <= i_hi:
            integral = i_hi
        elif integral < i_lo:
            integral = i_lo
        cmd = kp * e + ki * integral + kd * ((e - e_prev) / dt)
        e_prev = e
        if not cmd <= a_hi:
            cmd = a_hi
        elif cmd < a_lo:
            cmd = a_lo
        v += (cmd + w) * dt
        p += v * dt
    return out


def simulate(gains: PIDGains, kind: TrajectoryKind, wind_spec: WindDomainSpec,
             seed: int) -> SimResult:
    """Fly one 20 s trajectory from the reference's initial point at zero
    velocity and score the mean squared position error.

    seed is an integer in [0, 2**64) (a numpy integer too); anything else
    raises InvalidSetting. The clamps bound the command but not the gusts,
    so a regime whose gusts near the float range diverges: the run is cut
    before its first non-finite step (or kept whole if only its ACE
    overflows), and ace is the +inf sentinel with diverged set. The returned
    reference is a read-only view of the array all flights of the kind share.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= int(seed) < 2 ** 64:
        raise InvalidSetting(f"seed must be an integer in [0, 2**64), got {seed!r}")
    ref, ref_cols = _reference(kind)
    ref = ref.view()      # unlike the shared array, a view cannot be made writeable
    gusts = _gusts(wind_spec, int(seed))
    # a memoryview yields the cached row's floats without the copy .tolist() makes
    axes = np.array([_track_axis(ref_cols[j], memoryview(gusts[j]), gains.kp, gains.ki,
                                 gains.kd, ref_cols[j][0]) for j in range(3)], dtype=float)
    positions = axes.T
    if not np.isfinite(axes).all():
        m = int(np.isfinite(axes).all(axis=0).argmin())
        return SimResult(math.inf, positions[:m], ref[:m], diverged=True)
    # each step's squared errors added in axis order, as np.sum(err * err,
    # axis=1) adds them for the (N, 3) error err, so ACE keeps those bits
    e0, e1, e2 = axes - ref.T
    with np.errstate(over="ignore"):
        ace = float(np.mean(e0 * e0 + e1 * e1 + e2 * e2))
    if not math.isfinite(ace):
        return SimResult(math.inf, positions, ref, diverged=True)
    return SimResult(ace, positions, ref)


def pid_objective(gains: PIDGains, train_spec: WindDomainSpec,
                  kinds, seeds) -> float:
    """Mean ACE over every (trajectory, seed) pair under one wind regime.

    Iterates trajectories in enum order and seeds in the order given, so the
    average is reproducible; a diverged run makes the result +inf.
    """
    if not isinstance(gains, PIDGains):
        gains = PIDGains.from_array(gains)
    kinds = list(kinds)
    bad = [k for k in kinds if not isinstance(k, TrajectoryKind)]
    if bad:
        raise ValueError(f"not a TrajectoryKind: {bad[0]!r}")
    ordered = [k for k in TrajectoryKind if k in kinds]
    seeds = list(seeds)
    if not ordered or not seeds:
        raise ValueError("kinds and seeds must be nonempty")
    total = 0.0
    for kind in ordered:
        for s in seeds:
            total += simulate(gains, kind, train_spec, s).ace
    return total / (len(ordered) * len(seeds))
