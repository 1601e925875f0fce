"""Piecewise-linear input signals and time reparameterization.

An InputSignal is an ordered breakpoint list (t_i, u_i) starting at t_0 = 0,
interpreted by linear interpolation between breakpoints.  Piecewise-linear
inputs are closed under time warping, which is what the rate-independence
checks exercise: warping the clock changes when values are visited but not
the traversed u-path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "InputSignal",
    "ramp",
    "triangle",
    "sine_sampled",
    "random_piecewise_linear",
    "rate_reparameterize",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_count(name: str, value) -> None:
    """ValueError unless value is an integer to `operator.index`."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_breakpoint_range(value) -> tuple[int, int]:
    """(lo, hi) of a range of breakpoint counts, or ValueError naming the
    bound unless value is a pair of ints (not bools) with 2 <= lo <= hi."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        lo = hi = None
    if not (type(lo) is type(hi) is int and 2 <= lo <= hi):
        raise ValueError(f"bad breakpoint range {value!r}: need integers 2 <= lo <= hi")
    return lo, hi


@dataclass(frozen=True, eq=False)
class InputSignal:
    """Piecewise-linear input defined by breakpoints (times, values).

    Invariants enforced at construction: at least one breakpoint, times
    strictly increasing with times[0] == 0, all entries finite.  Evaluation
    outside [0, end_time] raises ValueError rather than extrapolating.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _readonly(self.times)
        u = _readonly(self.values)
        if t.ndim != 1 or u.ndim != 1 or t.size != u.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size == 0:
            raise ValueError("signal needs at least one breakpoint")
        if not (np.isfinite(t).all() and np.isfinite(u).all()):
            raise ValueError("breakpoints must be finite")
        if t[0] != 0.0:
            raise ValueError(f"first breakpoint time must be 0, got {t[0]}")
        if t.size > 1 and not (np.diff(t) > 0.0).all():
            raise ValueError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", u)

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def value(self, t):
        """u(t) by linear interpolation; t may be a scalar or array."""
        t_arr = np.asarray(t, dtype=float)
        if (t_arr < 0.0).any() or (t_arr > self.end_time).any():
            raise ValueError(
                f"evaluation outside signal domain [0, {self.end_time}]"
            )
        out = np.interp(t_arr, self.times, self.values)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def segments(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield (t0, t1, u0, u1) for each breakpoint interval."""
        t, u = self.times, self.values
        for i in range(t.size - 1):
            yield float(t[i]), float(t[i + 1]), float(u[i]), float(u[i + 1])


def ramp(u0: float, u1: float, duration: float) -> InputSignal:
    """Single monotone segment from u0 to u1 over [0, duration]."""
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    return InputSignal(np.array([0.0, duration]), np.array([u0, u1]))


def triangle(amplitude: float, cycles: int, period: float | None = None) -> InputSignal:
    """Symmetric triangle wave 0 -> A -> -A -> 0, repeated `cycles` times.

    Default period 4*amplitude gives unit input rate on every segment.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    _check_count("cycles", cycles)
    if cycles < 1:
        raise ValueError("need at least one cycle")
    p = 4.0 * amplitude if period is None else float(period)
    if p <= 0.0:
        raise ValueError("period must be positive")
    times = [0.0]
    values = [0.0]
    for c in range(cycles):
        t0 = c * p
        times += [t0 + 0.25 * p, t0 + 0.75 * p, t0 + p]
        values += [amplitude, -amplitude, 0.0]
    return InputSignal(np.array(times), np.array(values))


def sine_sampled(
    amplitude: float,
    periods: int = 1,
    period: float = 1.0,
    n_per_period: int = 256,
    offset: float = 0.0,
) -> InputSignal:
    """Sinusoid sampled as a piecewise-linear chord sequence.

    256 segments per period keeps the chordal u-path within O(1e-4 * A) of
    the smooth curve, adequate for loop reproduction.
    """
    _check_count("periods", periods)
    _check_count("n_per_period", n_per_period)
    if amplitude <= 0.0 or period <= 0.0 or periods < 1 or n_per_period < 4:
        raise ValueError("invalid sine parameters")
    n = periods * n_per_period
    t = np.linspace(0.0, periods * period, n + 1)
    u = offset + amplitude * np.sin(2.0 * np.pi * t / period)
    return InputSignal(t, u)


def random_piecewise_linear(
    rng: np.random.Generator,
    u_start: float = 0.0,
    span: float = 3.0,
    n_breakpoints: tuple[int, int] = (3, 10),
    min_dwell: float = 0.01,
) -> InputSignal:
    """Random test signal starting at u_start with values in u_start +/- span.

    Segment durations equal the segment |du| (floored at min_dwell), so the
    input rate magnitude is at most 1; verification tolerances that scale
    with the input rate stay meaningful across the whole family.  The
    breakpoint count is drawn from n_breakpoints = (lo, hi), which must be
    ints (not bools) with 2 <= lo <= hi (ValueError otherwise).
    """
    lo, hi = _check_breakpoint_range(n_breakpoints)
    k = int(rng.integers(lo, hi + 1))
    vals = np.empty(k)
    vals[0] = u_start
    vals[1:] = u_start + span * (2.0 * rng.random(k - 1) - 1.0)
    dur = np.maximum(np.abs(np.diff(vals)), min_dwell)
    times = np.concatenate([[0.0], np.cumsum(dur)])
    return InputSignal(times, vals)


def rate_reparameterize(signal: InputSignal, warp: InputSignal) -> InputSignal:
    """Compose a signal with a strictly increasing piecewise-linear time warp.

    `warp` maps original time to new time: breakpoints (tau_j, w_j) with
    strictly increasing w_j, w(0) = 0, covering [0, signal.end_time].  The
    result is the exact composition u(warp^-1(s)): its breakpoints are the
    warped original breakpoints plus the images of interior warp knots, so
    the returned signal traverses the identical u-path on a different clock.
    """
    tau, w = warp.times, warp.values
    if tau.size < 2:
        raise ValueError("warp needs at least two breakpoints")
    if not (np.diff(w) > 0.0).all():
        raise ValueError("warp values must be strictly increasing")
    if w[0] != 0.0:
        raise ValueError("warp must map 0 to 0")
    if tau[-1] < signal.end_time:
        raise ValueError("warp domain must cover the signal domain")

    interior = tau[(tau > 0.0) & (tau < signal.end_time)]
    knots = np.union1d(signal.times, interior)
    new_times = np.interp(knots, tau, w)
    new_values = np.interp(knots, signal.times, signal.values)
    # union1d sorts; strict monotonicity of the warp keeps times strict
    return InputSignal(new_times, new_values)
