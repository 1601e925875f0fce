"""Dissipativity checks against the clockwise supply rate.

A counterclockwise-damping sign structure puts F = (f1 - f2)/2 on the side
of zero that makes hysteresis loops in the input-output plane run clockwise;
`check_assumption_A` certifies the sign structure on a grid.  The central
check, `verify_dissipation_battery`, simulates the operator along each input
of a battery, builds the clockwise storage at every sample in one call over
all their samples (by quadrature in the output for a xi-free model, by one
storage ride otherwise) and tests the sampled dissipation inequality

    dH/dt <= y * du/dt

one-sidedly: the forward report compares forward differences of H with the
right input rate, the backward report uses left rates;
`verify_dissipation_pair` is its one-input call.  `verify_model` runs the
whole recipe of `duhem verify` on one model: the three grid certificates,
the battery and the loop reports.  `loop_orientation`
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

from .core import DuhemModel, Trajectory, check_existence_conditions, simulate
from .curves import _CERTIFICATE_GRID, _certificate_grid, check_lemma1
from .integrate import hermite_integral, hermite_partial_integral
from .report import VerificationReport, _check_positive, worst_point
from .signals import InputSignal
from .storage import _GAUSS_NODES, storage_cw_batch, storage_output_only

__all__ = [
    "LoopClassification",
    "check_assumption_A",
    "verify_dissipation_pair",
    "verify_dissipation_battery",
    "verify_model",
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
    return VerificationReport(
        name="damping-sign-structure",
        worst_violation=worst,
        worst_location=(sig[i], xiv[j]),
        tolerance=1e-12,
        samples_checked=viol.size,
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
) -> list[tuple[VerificationReport, VerificationReport]]:
    """Forward and backward dissipation reports of each input of a battery.

    Simulates every signal from y0 and evaluates the clockwise storage H at
    all samples of all signals in one call, then splits it back per signal.
    A xi-free model (`DuhemModel.xi_free`) has a storage of the output
    alone, evaluated by Gauss-Legendre quadrature in the output
    (`storage_output_only`); any other model rides all samples to their
    crossings in one `storage_cw_batch` ride at `step`, which the reports
    name as `ride_step`.  Each report checks the
    sampled inequality dH/dt <= y du/dt between consecutive samples, with
    dH/dt a forward difference: the forward report against the right input
    rate and the sample's own output, the backward report against the left
    rate and the next sample's output.  The default tolerance 1e-6 + 10 *
    step covers the first-order sampling error of the difference quotients
    at unit input rate.  A sample's storage does not depend on the batch
    it is evaluated in, so each signal's pair equals its
    `verify_dissipation_pair` reports.  Raises ValueError for a tol that is
    not positive and finite, and for an input with one breakpoint, which
    has no sample interval to check, naming the first by its index.
    """
    if tol is None:
        tol = 1e-6 + 10.0 * step
    else:
        _check_positive("tol", tol)
    for i, sig in enumerate(signals):
        if sig.times.size < 2:
            raise ValueError(f"battery input {i} has one breakpoint and no sample interval")
    trajs = [simulate(model, sig, y0, step=step) for sig in signals]
    if not trajs:
        return []
    y_all = np.concatenate([traj.y for traj in trajs])
    if model.xi_free:
        H_flat = storage_output_only(model, y_all)
        route = {"gauss_nodes": _GAUSS_NODES}
    else:
        u_all = np.concatenate([traj.u for traj in trajs])
        H_flat = storage_cw_batch(model, y_all, u_all, step=step).value
        route = {"ride_step": float(step)}
    ends = np.cumsum([traj.n_samples for traj in trajs])
    H_all = np.split(H_flat, ends[:-1])
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
                VerificationReport(
                    name=f"dissipation-{direction}",
                    worst_violation=worst,
                    worst_location=(traj.t[k], traj.u[k], traj.y[k]),
                    tolerance=tol,
                    samples_checked=viol.size,
                    details={
                        "model": model.name,
                        "step": float(step),
                        **route,
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
) -> tuple[VerificationReport, VerificationReport]:
    """Forward and backward dissipation reports sharing one storage pass:
    a battery of one signal (`verify_dissipation_battery`)."""
    return verify_dissipation_battery(model, [signal], y0, tol=tol, step=step)[0]


def _aggregate(name: str, reports: list[VerificationReport]) -> VerificationReport:
    """One report of many runs of a check: the worst run by its excess over
    its own tolerance (the first of a tie, a NaN first of all), with the
    samples of all runs."""
    (k,), _ = worst_point([r.worst_violation - r.tolerance for r in reports])
    worst = reports[k]
    return VerificationReport(
        name=name,
        worst_violation=worst.worst_violation,
        worst_location=worst.worst_location,
        tolerance=worst.tolerance,
        samples_checked=sum(r.samples_checked for r in reports),
        details={
            "runs": len(reports),
            "failed_runs": sum(0 if r.passed else 1 for r in reports),
        },
    )


def verify_model(
    model: DuhemModel,
    region: tuple[tuple[float, float], tuple[float, float]],
    epsilon: float,
    lam_bound: float,
    battery: Sequence[InputSignal],
    loop_input: InputSignal,
    *,
    y0: float,
    step: float,
    tol: float | None,
) -> tuple[list[VerificationReport], np.ndarray, np.ndarray]:
    """The seven reports of `duhem verify` on one model, and its loop series.

    On region = ((sigma_lo, sigma_hi), (xi_lo, xi_hi)): the existence
    conditions with bound lam_bound on a 60 x 9 grid, the damping sign
    structure (`check_assumption_A`) and the Lemma 1 margin epsilon
    (`check_lemma1`).  Then the forward and backward dissipation reports of
    the battery (a nonempty sequence of inputs) from y0 at `step`, each the
    worst of its runs, with `tol` as in `verify_dissipation_battery` (None:
    its default); and the loop orientation and cycle stabilization of
    loop_input, simulated from y0 at `step`.  Returns (reports, times,
    areas), where times and areas are the closed loops of `loop_areas`.
    Raises ValueError for an empty battery, before any check.
    """
    if not battery:
        raise ValueError("battery must hold at least one input")
    (s_lo, s_hi), (x_lo, x_hi) = region
    reports = [
        check_existence_conditions(
            model, (np.linspace(s_lo, s_hi, 60), np.linspace(x_lo, x_hi, 9)), lam_bound
        ),
        check_assumption_A(model, region),
        check_lemma1(model, region, epsilon),
    ]
    pairs = verify_dissipation_battery(model, battery, y0, tol=tol, step=step)
    reports.append(_aggregate("dissipation-forward-battery", [f for f, _ in pairs]))
    reports.append(_aggregate("dissipation-backward-battery", [b for _, b in pairs]))
    traj = simulate(model, loop_input, y0, step=step)
    reports.append(loop_orientation_report(loop_orientation(traj)))
    times, areas = loop_areas(traj)
    reports.append(cycle_stabilization(times, areas))
    return reports, times, areas


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
    interval's own branch (`Trajectory.slope_left` and `slope_right`), and
    views of those slopes.  A held interval adds -0.0, the exact identity
    of +.  With the secant slopes of a trajectory built by hand the rule is
    the trapezoid rule."""
    u, y = traj.u[start:], traj.y[start:]
    f_left, f_right = traj.slope_left[start:], traj.slope_right[start:]
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
    return VerificationReport(
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
    return VerificationReport(
        name="cycle-stabilization",
        worst_violation=settle,
        worst_location=(times[-1] if times.size else 0.0,),
        tolerance=1e-4,
        samples_checked=max(0, areas.size - 3),
        details={"areas": [float(a) for a in areas]},
    )
