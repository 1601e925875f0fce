"""Second-order mechanical system with Dahl friction.

State: displacement x1, velocity x2 and friction force x3 (the slope-1 Dahl
output driven by x1).  Dynamics:

    x1' = x2
    x2' = -(k x1 + d x2 + x3) / m
    x3' = rho (1 - x3/fc) max(x2, 0) + rho (1 + x3/fc) min(x2, 0)

The energy function V = k x1^2 / 2 + m x2^2 / 2 + H(x3), with H the
closed-form clockwise storage of the friction element (|x3| < fc),

    H(x3) = (fc^2 / rho) log(fc / (fc + |x3|)) + (fc / rho) |x3|,

decays along trajectories at rate at most -d x2^2; `simulate_mech`
evaluates V at every sample, and `lyapunov_check` certifies the sampled
version of that bound.  The "feedback" mode reinterprets the same vector
field with k = 0 as a mass under the applied force F = -d x2: the
trajectory is identical, only the power bookkeeping changes, which
`passivity_port_check` exercises.

The switching term in x3' is only piecewise smooth, so integration runs in
time with fixed-step RK4 and any step whose velocity changes sign is redone
once as two half steps to keep the local error near the switching plane in
check.  A friction force that is NaN or not inside (-fc, fc) ends it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainExitError
from .report import VerificationReport, _check_positive, _write_csv, worst_point
from .signals import _readonly

__all__ = [
    "MAX_MECH_STEPS",
    "MechParams",
    "MechState",
    "MechSeries",
    "simulate_mech",
    "lyapunov_check",
    "passivity_port_check",
]


# largest step count simulate_mech accepts: its five float series of
# MAX_MECH_STEPS + 1 samples take 400 MB, and the march takes about 100
# times as long as the default run's 10^5 steps
MAX_MECH_STEPS = 10_000_000


@dataclass(frozen=True)
class MechParams:
    """Mass-spring-damper parameters plus the Dahl friction pair.

    Raises ValueError unless m, d, k, rho and fc are finite, m, rho and fc
    positive and d and k nonnegative.
    """

    m: float = 1.0
    d: float = 0.5
    k: float = 1.0
    rho: float = 1.5
    fc: float = 0.75
    mode: str = "free"

    def __post_init__(self):
        for name in ("m", "d", "k", "rho", "fc"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.m <= 0.0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.d < 0.0:
            raise ValueError(f"damping must be nonnegative, got {self.d}")
        if self.k < 0.0:
            raise ValueError(f"stiffness must be nonnegative, got {self.k}")
        if self.rho <= 0.0 or self.fc <= 0.0:
            raise ValueError("rho and fc must be positive")
        if self.mode not in ("free", "feedback"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "feedback" and self.k != 0.0:
            raise ValueError("feedback mode models a pure mass; it requires k = 0")


@dataclass(frozen=True)
class MechState:
    """Initial condition (displacement, velocity, friction force)."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class MechSeries:
    """Sampled trajectory with the energy function evaluated per sample."""

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    v: np.ndarray
    params: MechParams

    def __post_init__(self):
        for name in ("t", "x1", "x2", "x3", "v"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        n = self.t.size
        if not all(getattr(self, name).size == n for name in ("x1", "x2", "x3", "v")):
            raise ValueError("inconsistent series lengths")

    def to_csv(self, path: str) -> None:
        _write_csv(path, "t,x1,x2,x3,V", self.t, self.x1, self.x2, self.x3, self.v)


def _rk4_mech(m, d, k, rho, fc, x1, x2, x3, h):
    """One RK4 step of the coupled system in Python floats.

    The four stages are written out with no per-call closure or tuples, and
    every stage expression keeps the operand order of the field
    (x2, -(k x1 + d x2 + x3) / m, rho (1 -+ x3/fc) x2); hh = 0.5 * h is the
    factor that 0.5 * h * k evaluates first anyway, so the step's bits do
    not depend on the layout.
    """
    hh = 0.5 * h
    # stage 1 at (x1, x2, x3)
    b1 = -(k * x1 + d * x2 + x3) / m
    if x2 >= 0.0:
        c1 = rho * (1.0 - x3 / fc) * x2
    else:
        c1 = rho * (1.0 + x3 / fc) * x2
    # stage 2 at the half step along stage 1
    p1 = x1 + hh * x2
    a2 = x2 + hh * b1
    p3 = x3 + hh * c1
    b2 = -(k * p1 + d * a2 + p3) / m
    if a2 >= 0.0:
        c2 = rho * (1.0 - p3 / fc) * a2
    else:
        c2 = rho * (1.0 + p3 / fc) * a2
    # stage 3 at the half step along stage 2
    p1 = x1 + hh * a2
    a3 = x2 + hh * b2
    p3 = x3 + hh * c2
    b3 = -(k * p1 + d * a3 + p3) / m
    if a3 >= 0.0:
        c3 = rho * (1.0 - p3 / fc) * a3
    else:
        c3 = rho * (1.0 + p3 / fc) * a3
    # stage 4 at the full step along stage 3
    p1 = x1 + h * a3
    a4 = x2 + h * b3
    p3 = x3 + h * c3
    b4 = -(k * p1 + d * a4 + p3) / m
    if a4 >= 0.0:
        c4 = rho * (1.0 - p3 / fc) * a4
    else:
        c4 = rho * (1.0 + p3 / fc) * a4
    s = h / 6.0
    return (
        x1 + s * (x2 + 2.0 * a2 + 2.0 * a3 + a4),
        x2 + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
        x3 + s * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
    )


def simulate_mech(
    params: MechParams,
    init: MechState,
    horizon: float,
    step: float = 1e-3,
) -> MechSeries:
    """Fixed-step RK4 integration of the mechanical system over [0, horizon].

    A step whose velocity crosses zero is redone once as two half steps (the
    friction slope switches with the sign of x2, so the plain step would
    integrate through a kink).  Raises DomainExitError, with its own message
    for each, at a friction force that is NaN or not inside its confinement
    band (-fc, fc), and ValueError, before allocating, if horizon / step
    exceeds MAX_MECH_STEPS.
    """
    _check_positive("horizon", horizon)
    _check_positive("step", step)
    if not horizon / step <= MAX_MECH_STEPS:
        raise ValueError(
            f"horizon / step = {horizon / step:.6g} is more than "
            f"{MAX_MECH_STEPS} steps"
        )
    fc = params.fc
    if abs(init.x3) >= fc:
        raise ValueError(f"|x3(0)| = {abs(init.x3)} must lie inside (-{fc}, {fc})")

    n = max(1, int(round(horizon / step)))
    h = horizon / n
    m, d, k, rho = params.m, params.d, params.k, params.rho

    t = np.linspace(0.0, horizon, n + 1)
    x1 = np.empty(n + 1)
    x2 = np.empty(n + 1)
    x3 = np.empty(n + 1)
    x1[0], x2[0], x3[0] = init.x1, init.x2, init.x3

    a, b, c = float(init.x1), float(init.x2), float(init.x3)
    for j in range(1, n + 1):
        na, nb, nc = _rk4_mech(m, d, k, rho, fc, a, b, c, h)
        if nb * b < 0.0:
            ha, hb, hc = _rk4_mech(m, d, k, rho, fc, a, b, c, 0.5 * h)
            na, nb, nc = _rk4_mech(m, d, k, rho, fc, ha, hb, hc, 0.5 * h)
        if not abs(nc) < fc:
            reason = "became NaN" if math.isnan(nc) else "reached the band boundary"
            raise DomainExitError(
                t=float(t[j]), u=na, y=nc,
                message=f"friction force {reason} at t={t[j]:.6g}",
            )
        a, b, c = na, nb, nc
        x1[j], x2[j], x3[j] = a, b, c

    # H(x3) of the module docstring; the march kept |x3| < fc
    ax3 = np.abs(x3)
    h_fric = (fc * fc / rho) * np.log(fc / (fc + ax3)) + (fc / rho) * ax3
    v = 0.5 * k * x1**2 + 0.5 * m * x2**2 + h_fric
    return MechSeries(t=t, x1=x1, x2=x2, x3=x3, v=v, params=params)


def lyapunov_check(
    series: MechSeries,
    params: MechParams,
    tol: float = 1e-4,
) -> VerificationReport:
    """Sampled decay certificate for the energy function.

    Checks the forward-difference rate bound dV/dt <= -d x2^2 + tol at
    every interior sample and, on top of it, that V never increases by more
    than tol * max(V) across a step.  worst_violation is the larger of the
    rate excess and the normalized monotonicity excess, both of which the
    same tol bounds.  Raises ValueError unless tol is positive and finite.
    """
    _check_positive("tol", tol)
    dt = np.diff(series.t)
    dv = np.diff(series.v)
    rate = dv / dt + params.d * series.x2[:-1] ** 2
    vmax = float(series.v.max())
    mono = dv / vmax if vmax > 0.0 else dv
    # the worst of the (rate, monotonicity) rows, row by row: the first
    # maximum of each row, then of the two
    (k_rate,), worst_rate = worst_point(rate)
    (k_mono,), worst_mono = worst_point(mono)
    (row,), worst = worst_point([worst_rate, worst_mono])
    k = (k_rate, k_mono)[row]
    return VerificationReport(
        name="lyapunov-decay",
        worst_violation=worst,
        worst_location=(series.t[k], series.x2[k], series.x3[k]),
        tolerance=tol,
        samples_checked=rate.size,
        details={
            "rate_violation": worst_rate,
            "monotonicity_violation": worst_mono,
            "v_initial": float(series.v[0]),
            "v_final": float(series.v[-1]),
            "mode": params.mode,
        },
    )


def passivity_port_check(
    series: MechSeries,
    params: MechParams,
    tol: float = 1e-4,
) -> VerificationReport:
    """Stored energy never exceeds the energy supplied through the force port.

    In feedback mode the applied force is F = -d x2, so the supplied energy
    is W(T) = int F x2 dt; passivity requires V(T) - V(0) <= W(T) + tol at
    every sample time T (trapezoid quadrature for W).  Raises ValueError
    unless tol is positive and finite.
    """
    _check_positive("tol", tol)
    if params.mode != "feedback":
        raise ValueError("port bookkeeping is defined for feedback mode only")
    power = -params.d * series.x2**2
    w = np.concatenate(
        [[0.0], np.cumsum(0.5 * (power[:-1] + power[1:]) * np.diff(series.t))]
    )
    excess = (series.v - series.v[0]) - w
    (k,), worst = worst_point(excess)
    return VerificationReport(
        name="passivity-port",
        worst_violation=worst,
        worst_location=(series.t[k], series.x2[k], series.x3[k]),
        tolerance=tol,
        samples_checked=excess.size,
        details={
            "supplied_total": float(w[-1]),
            "stored_change": float(series.v[-1] - series.v[0]),
            "mode": params.mode,
        },
    )
