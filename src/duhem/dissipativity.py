"""Dissipativity checks against the clockwise supply rate.

A counterclockwise-damping sign structure puts F = (f1 - f2)/2 on the side
of zero that makes hysteresis loops in the input-output plane run clockwise;
`check_assumption_A` certifies the sign structure on a grid.  The central
check, `verify_dissipation_battery`, simulates the operator along each input
of a battery, builds the clockwise storage at every sample with one storage
ride over all their samples and tests the sampled dissipation inequality

    dH/dt <= y * du/dt

one-sidedly: the forward report compares forward differences of H with the
right input rate, the backward report uses left rates;
`verify_dissipation_pair` is its one-input call.  `loop_orientation`
classifies the final closed input cycle by the sign of its signed loop area
(positive area means clockwise traversal), `loop_areas` decomposes a
trajectory into the successive closed loops at its starting level, and
`cycle_stabilization` reports whether those loop areas have settled.  Both
loop functions integrate y du by the cubic Hermite rule on the branch slopes
that `simulate` keeps, fourth order in the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DuhemModel, Trajectory, simulate
from .curves import _CERTIFICATE_GRID, _certificate_grid
from .integrate import hermite_integral, hermite_partial_integral
from .report import VerificationReport, worst_point
from .signals import InputSignal, _readonly
from .storage import storage_cw_batch

__all__ = [
    "SupplySeries",
    "LoopClassification",
    "check_assumption_A",
    "verify_dissipation_pair",
    "verify_dissipation_battery",
    "cw_supply_integral",
    "loop_orientation",
    "loop_orientation_report",
    "loop_areas",
    "cycle_stabilization",
]


def check_assumption_A(
    model: DuhemModel,
    region: tuple[tuple[float, float], tuple[float, float]],
) -> VerificationReport:
    """Grid certificate of the damping sign structure.

    Requires F >= 0 at and below the anhysteresis curve and F <= 0 above it
    on a 200 x 200 grid of the rectangle region = ((sigma_lo, sigma_hi),
    (xi_lo, xi_hi)).  The violation at a grid point is the amount F sticks
    out on the wrong side, NaN where F or f_an is; a 1e-12 tolerance absorbs
    roundoff at points that sit exactly on the curve.
    """
    sig, xiv, fan = _certificate_grid(model, region)

    S = sig[:, None]
    X = np.broadcast_to(xiv[None, :], _CERTIFICATE_GRID)
    F = np.asarray(model.F(S, X), dtype=float)
    upper = S > fan[None, :]

    viol = np.where(upper, F, -F)
    viol[:, np.isnan(fan)] = math.nan
    (i, j), worst = worst_point(viol)
    return VerificationReport.from_violation(
        name="damping-sign-structure",
        worst_violation=worst,
        worst_location=(float(sig[i]), float(xiv[j])),
        tolerance=1e-12,
        samples_checked=int(viol.size),
        details={
            "grid": list(_CERTIFICATE_GRID),
            "side": "above" if bool(upper[i, j]) else "below",
            "model": model.name,
        },
    )


def verify_dissipation_battery(
    model: DuhemModel,
    signals: Sequence[InputSignal],
    y0: float,
    *,
    tol: float | None = None,
    step: float = 5e-3,
    ride_step: float | None = None,
) -> list[tuple[VerificationReport, VerificationReport]]:
    """Forward and backward dissipation reports of each input of a battery.

    Simulates every signal from y0, evaluates the clockwise storage H at all
    samples of all signals in one `storage_cw_batch` ride and splits it back
    per signal.  Each report checks the sampled inequality dH/dt <= y du/dt
    between consecutive samples, with dH/dt a forward difference: the
    forward report against the right input rate and the sample's own output,
    the backward report against the left rate and the next sample's output.
    The default tolerance 1e-6 + 10 * step covers the first-order sampling
    error of the difference quotients at unit input rate.  A lane's storage
    does not depend on the batch it rides in, so each signal's pair equals
    its `verify_dissipation_pair` reports.
    """
    if tol is None:
        tol = 1e-6 + 10.0 * step
    ride_step = ride_step or step
    trajs = [simulate(model, sig, y0, step=step) for sig in signals]
    if not trajs:
        return []
    batch = storage_cw_batch(
        model,
        np.concatenate([traj.y for traj in trajs]),
        np.concatenate([traj.u for traj in trajs]),
        step=ride_step,
    )
    ends = np.cumsum([traj.n_samples for traj in trajs])
    H_all = np.split(batch.value, ends[:-1])
    out = []
    for traj, H in zip(trajs, H_all):
        dt = np.diff(traj.t)
        du = np.diff(traj.u)
        dH = np.diff(H)
        pair = []
        for direction, supply in (
            ("forward", traj.y[:-1] * du),
            ("backward", traj.y[1:] * du),
        ):
            viol = (dH - supply) / dt
            (k,), worst = worst_point(viol)
            pair.append(
                VerificationReport.from_violation(
                    name=f"dissipation-{direction}",
                    worst_violation=worst,
                    worst_location=(
                        float(traj.t[k]), float(traj.u[k]), float(traj.y[k])
                    ),
                    tolerance=float(tol),
                    samples_checked=int(viol.size),
                    details={
                        "model": model.name,
                        "step": float(step),
                        "ride_step": float(ride_step),
                        "y0": float(y0),
                        "max_storage": float(H.max()),
                    },
                )
            )
        out.append((pair[0], pair[1]))
    return out


def verify_dissipation_pair(
    model: DuhemModel,
    signal: InputSignal,
    y0: float,
    *,
    tol: float | None = None,
    step: float = 5e-3,
    ride_step: float | None = None,
) -> tuple[VerificationReport, VerificationReport]:
    """Forward and backward dissipation reports sharing one storage pass:
    a battery of one signal (`verify_dissipation_battery`)."""
    return verify_dissipation_battery(
        model, [signal], y0, tol=tol, step=step, ride_step=ride_step
    )[0]


@dataclass(frozen=True, eq=False)
class SupplySeries:
    """Cumulative supply integral W(t) = int y du along a trajectory."""

    t: np.ndarray
    values: np.ndarray
    running_min: np.ndarray

    def __post_init__(self):
        for name in ("t", "values", "running_min"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if not (self.t.size == self.values.size == self.running_min.size):
            raise ValueError("inconsistent series lengths")


def cw_supply_integral(traj: Trajectory) -> SupplySeries:
    """Trapezoid cumulative supply along a simulated trajectory."""
    inc = 0.5 * (traj.y[:-1] + traj.y[1:]) * np.diff(traj.u)
    w = np.concatenate([[0.0], np.cumsum(inc)])
    return SupplySeries(t=traj.t, values=w, running_min=np.minimum.accumulate(w))


@dataclass(frozen=True)
class LoopClassification:
    """Orientation of the final closed input cycle."""

    label: str
    area: float
    t_close: float


def _final_direction(u: np.ndarray) -> float:
    du = np.diff(u)
    nz = np.nonzero(du)[0]
    if nz.size == 0:
        raise ValueError("constant input carries no loop")
    return math.copysign(1.0, du[nz[-1]])


# signed loop area beyond which a loop counts as clockwise (counterclockwise
# below its negative); the loop-orientation report of `duhem verify` reads
# the same threshold
LOOP_AREA_TOL = 1e-9


def _interval_integrals(
    traj: Trajectory, start: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integral of y du over each sample interval from the one leaving
    sample `start` on by the cubic Hermite rule, with both end slopes on the
    interval's own branch (`Trajectory.interval_slopes`), and those slopes.
    A held interval adds -0.0, the exact identity of +.  With the secant
    slopes of a trajectory built by hand the rule is the trapezoid rule."""
    u, y = traj.u[start:], traj.y[start:]
    f_left, f_right = traj.interval_slopes(start)
    whole = hermite_integral(u[:-1], u[1:], y[:-1], y[1:], f_left, f_right)
    return np.where(u[:-1] == u[1:], -0.0, whole), f_left, f_right


def _split_at_level(lvl, u, y, f_left, f_right, c):
    """The integrals of y du over intervals c from their left end up to the
    level (closing) and from the level to their right end (opening), each
    from its own end of the interval's Hermite cubic, so that a level on an
    interval end adds exactly 0 to the part beyond it."""
    closing = hermite_partial_integral(
        lvl, u[c], u[c + 1], y[c], y[c + 1], f_left[c], f_right[c]
    )
    opening = -hermite_partial_integral(
        lvl, u[c + 1], u[c], y[c + 1], y[c], f_right[c], f_left[c]
    )
    return closing, opening


def loop_orientation(traj: Trajectory) -> LoopClassification:
    """Classify the last closed cycle of the input by its signed loop area.

    Scans backward for the previous time the input crossed its final level
    moving in the same direction; the signed area of y du over that stretch
    is positive for clockwise loops, and |area| <= LOOP_AREA_TOL is
    degenerate.  When no such crossing exists but the input starts at its
    final level, the whole path is the loop.  y du is integrated by the
    cubic Hermite rule on each sample interval, with the interval's branch
    slopes at both ends (fourth order on a simulated trajectory, the
    trapezoid rule on one built by hand); the crossing splits its interval's
    cubic.  The crossing is found from u alone, and only the intervals from
    it on are integrated.  Raises ValueError when the input never closes a
    cycle at its final level.
    """
    u, t = traj.u, traj.t
    ue = float(u[-1])
    d_end = _final_direction(u)
    n = u.size

    def classify(area: float, t_star: float) -> LoopClassification:
        if area > LOOP_AREA_TOL:
            label = "clockwise"
        elif area < -LOOP_AREA_TOL:
            label = "counterclockwise"
        else:
            label = "degenerate"
        return LoopClassification(label=label, area=float(area), t_close=float(t_star))

    # the last j <= n - 3 where the input moves in the final direction and
    # reaches or crosses the final level
    du = np.diff(u)[: n - 2]
    same = (du != 0.0) & (np.copysign(1.0, du) == d_end)
    same &= ~((u[: n - 2] - ue) * (u[1 : n - 1] - ue) > 0.0)
    hits = np.flatnonzero(same)
    if hits.size:
        j = int(hits[-1])
        frac = (ue - u[j]) / du[j]
        t_star = t[j] + frac * (t[j + 1] - t[j])
        whole, f_left, f_right = _interval_integrals(traj, j)
        _, area = _split_at_level(ue, u[j:], traj.y[j:], f_left, f_right, 0)
        area += float(np.sum(whole[1:]))
        return classify(area, t_star)
    # no interior same-direction crossing: the path itself may close a loop
    if u[0] == ue:
        return classify(float(np.sum(_interval_integrals(traj)[0])), float(t[0]))
    raise ValueError("input never closes a cycle at its final level")


def loop_orientation_report(cls: LoopClassification) -> VerificationReport:
    """Report that the loop of `loop_orientation` runs clockwise: the
    violation LOOP_AREA_TOL - area is positive unless its area exceeds the
    threshold."""
    return VerificationReport.from_violation(
        name="loop-orientation",
        worst_violation=LOOP_AREA_TOL - cls.area,
        worst_location=(cls.t_close,),
        tolerance=0.0,
        samples_checked=1,
        details={"label": cls.label, "area": cls.area},
    )


def loop_areas(traj: Trajectory, *, level: float | None = None):
    """Signed areas of the successive closed loops at a reference input level.

    The level defaults to the starting input value; a loop closes each time
    the input returns to the level moving in its original departure
    direction.  Each area integrates y du by the cubic Hermite rule on each
    sample interval, with the interval's branch slopes at both ends, and
    splits the cubic of an interval that the level crosses (as
    `loop_orientation`).  Returns (close_times, areas) as float arrays; both
    are empty when no loop closes.
    """
    u, y, t = traj.u, traj.y, traj.t
    lvl = float(u[0]) if level is None else float(level)
    du = np.diff(u)
    nz = np.nonzero(du)[0]
    if nz.size == 0:
        return np.zeros(0), np.zeros(0)
    d0 = math.copysign(1.0, du[nz[0]])
    whole, f_left, f_right = _interval_integrals(traj)

    a, b = u[:-1], u[1:]
    # a half-open crossing convention (strictly from the approach side, onto
    # or past the level) counts each return exactly once even when samples
    # land on the level
    if d0 > 0:
        c = np.flatnonzero((a < lvl) & (lvl <= b))
    else:
        c = np.flatnonzero((a > lvl) & (lvl >= b))
    frac = (lvl - a[c]) / du[c]
    t_star = t[c] + frac * (t[c + 1] - t[c])
    closing, opening = _split_at_level(lvl, u, y, f_left, f_right, c)

    # loop k runs from crossing k - 1 (or the start, when it lies on the
    # level) to crossing k; cumsum adds its terms left to right
    first = 0 if u[0] == lvl else 1
    areas = np.empty(max(c.size - first, 0))
    for k in range(first, c.size):
        start, partial = (0, 0.0) if k == 0 else (c[k - 1] + 1, opening[k - 1])
        terms = np.concatenate(([partial], whole[start : c[k]], [closing[k]]))
        areas[k - first] = np.cumsum(terms)[-1]
    return t_star[first:], areas


def cycle_stabilization(times: np.ndarray, areas: np.ndarray) -> VerificationReport:
    """Report on the settling of the loop areas of `loop_areas`.

    The violation is the largest change between successive areas from the
    third loop on, max_k |areas[k + 1] - areas[k]| over k >= 2, and the
    report passes when it is at most 1e-4.  Fewer than four loops cannot
    show settling: the violation is then infinite.  The location is the
    close time of the last loop (0 when none closes).
    """
    if areas.size >= 4:
        settle = float(np.max(np.abs(np.diff(areas[2:]))))
    else:
        settle = math.inf
    return VerificationReport.from_violation(
        name="cycle-stabilization",
        worst_violation=settle,
        worst_location=(float(times[-1]) if times.size else 0.0,),
        tolerance=1e-4,
        samples_checked=max(0, int(areas.size) - 3),
        details={"areas": [float(a) for a in areas]},
    )
