"""Duhem hysteresis operators and rate-independent simulation.

A Duhem operator evolves its output y along an absolutely continuous input u
through

    dy/dt = f1(y, u) * max(0, du/dt) + f2(y, u) * min(0, du/dt),  y(0) = y0.

The response is rate independent: on any stretch where u moves monotonically,
y solves dy/du = f1(y, u) (u increasing) or dy/du = f2(y, u) (u decreasing),
and the traversed (u, y) path does not depend on the clock.  simulate()
therefore integrates in input arc length segment by segment, which makes the
fixed-step error budget a function of the u-resolution alone.
"""

from __future__ import annotations

import inspect
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .integrate import rk4_step
from .report import VerificationReport, worst_point
from .signals import InputSignal, _readonly

__all__ = [
    "Domain",
    "WHOLE_PLANE",
    "DuhemModel",
    "Trajectory",
    "DomainExitError",
    "simulate",
    "check_existence_conditions",
]


class DomainExitError(RuntimeError):
    """The integration left the model's validity region.

    Carries the first offending sample so callers can report where the
    state escaped.
    """

    def __init__(self, t: float, u: float, y: float, message: str | None = None):
        self.t = t
        self.u = u
        self.y = y
        super().__init__(
            message
            or f"state left the model domain at t={t:.6g} (u={u:.6g}, y={y:.6g})"
        )


@dataclass(frozen=True)
class Domain:
    """Open band sigma_min < y < sigma_max, unrestricted in the input.

    Covers the built-in catalog: the whole plane (default limits) and the
    open band (-Fc, Fc) x R used by Dahl-type friction models.
    """

    sigma_min: float = -math.inf
    sigma_max: float = math.inf

    def __post_init__(self):
        if not self.sigma_min < self.sigma_max:
            raise ValueError("domain requires sigma_min < sigma_max")

    def contains(self, sigma):
        """Elementwise membership test of outputs sigma (any input is in)."""
        return (np.asarray(sigma) > self.sigma_min) & (
            np.asarray(sigma) < self.sigma_max
        )

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.sigma_min) or math.isfinite(self.sigma_max)


WHOLE_PLANE = Domain()

# probe grid of a declared odd symmetry: outputs as fractions of the domain's
# half-width (of 2 on an unbounded domain), and inputs
_ODD_PROBE_SIGMA = np.array([-0.93, -0.61, -0.27, 0.0, 0.18, 0.52, 0.86])
_ODD_PROBE_XI = np.array([-2.3, -0.7, 0.0, 0.4, 1.9])


@dataclass(frozen=True, eq=False)
class DuhemModel:
    """Duhem operator defined by its two slope fields.

    f1 and f2 map (sigma, xi) to the output slope dy/du on increasing and
    decreasing input stretches; both must accept floats and numpy arrays
    elementwise.  For float arguments they should return a Python float:
    float64 numpy scalars and 0-d arrays give the same bits, but the scalar
    marches (`simulate`, traversing curves, single-point rides) do not
    convert them and then run numpy-scalar arithmetic, 2-4x slower.
    f_an, when given, is the explicit anhysteresis function (the sigma
    solving f1(sigma, xi) = f2(sigma, xi)); models without a closed form
    leave it None and the curve operations solve for it.

    odd declares the point symmetry of the operator: f2(sigma, xi) equals
    f1(-sigma, -xi) bit for bit on arrays, f_an(-xi) == -f_an(xi) if f_an
    is declared, and the domain is symmetric about 0.  A falling stretch,
    or a ride from above the anhysteresis curve, is then a rising one
    reflected through the origin, and the supply march
    (`storage._supply_running_min`) and the crossing ride
    (`curves.ride_to_crossing`) march every lane on f1 alone.  The
    declaration is checked on a small grid of points when the model is
    built; a mismatch there, or an asymmetric domain, raises ValueError.
    Dahl, Bouc-Wen and the exponential example are odd.
    """

    name: str
    f1: Callable
    f2: Callable
    params: Mapping[str, float] = field(default_factory=dict)
    domain: Domain = WHOLE_PLANE
    f_an: Callable | None = None
    odd: bool = False

    def __post_init__(self):
        if not callable(self.f1) or not callable(self.f2):
            raise ValueError("f1 and f2 must be callable")
        object.__setattr__(self, "params", dict(self.params))
        if self.odd:
            self._check_odd()

    def _check_odd(self):
        """Raise ValueError unless the domain is symmetric about 0 and the
        odd symmetries of f1, f2 and f_an (if declared) hold on the probe
        grid."""
        lo, hi = self.domain.sigma_min, self.domain.sigma_max
        if lo != -hi:
            raise ValueError(
                f"odd model {self.name!r} needs a domain symmetric about 0, "
                f"got ({lo}, {hi})"
            )
        scale = hi if math.isfinite(hi) else 2.0
        sigma, xi = (
            a.ravel() for a in np.meshgrid(scale * _ODD_PROBE_SIGMA, _ODD_PROBE_XI)
        )
        # The probe calls the functions under any functools.wraps layers, so
        # a wrapper that counts or times field calls sees only the calls of
        # the numerics, not the check of a declaration.
        f1, f2 = inspect.unwrap(self.f1), inspect.unwrap(self.f2)
        with np.errstate(all="ignore"):
            pairs = [("f2(sigma, xi)", f2(sigma, xi), "f1(-sigma, -xi)", f1(-sigma, -xi))]
            if self.f_an is not None:
                f_an = inspect.unwrap(self.f_an)
                pairs.append(("f_an(-xi)", f_an(-xi), "-f_an(xi)", -f_an(xi)))
        for lhs, a, rhs, b in pairs:
            a, b = (np.broadcast_to(np.asarray(v, dtype=float), sigma.shape) for v in (a, b))
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            if not same.all():
                k = int(np.argmin(same))
                raise ValueError(
                    f"odd model {self.name!r}: {lhs} = {float(a[k])!r} but "
                    f"{rhs} = {float(b[k])!r} at sigma={sigma[k]:.6g}, xi={xi[k]:.6g}"
                )

    def F(self, sigma, xi):
        """Half-difference of the slope fields; zero exactly on the
        anhysteresis curve."""
        return 0.5 * (self.f1(sigma, xi) - self.f2(sigma, xi))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled response: arrays t, u, y of equal length plus run metadata.

    A simulated trajectory also carries the branch slopes dy/du that its
    march computed, one float per sample plus two per segment: slope[k] is
    the slope at sample k on the branch of the interval that leaves it
    (where a held stretch or nothing leaves it, of the one that enters it;
    NaN where neither moves), and end_slope[i] the slope at sample
    end_index[i], the last sample of a segment, on that segment's branch.
    Both ends of every moving interval thus have their own branch's slope.
    A trajectory built by hand has none (slope None); `interval_slopes` then
    gives each interval its secant slope.
    """

    t: np.ndarray
    u: np.ndarray
    y: np.ndarray
    model_name: str = ""
    y0: float = math.nan
    step: float = math.nan
    slope: np.ndarray | None = None
    end_index: np.ndarray = ()
    end_slope: np.ndarray = ()

    def __post_init__(self):
        t, u, y = _readonly(self.t), _readonly(self.u), _readonly(self.y)
        if not (t.size == u.size == y.size) or t.ndim != 1:
            raise ValueError("t, u, y must be 1-d arrays of equal length")
        if t.size > 1 and not (np.diff(t) > 0.0).all():
            raise ValueError("sample times must be strictly increasing")
        end_index = np.asarray(self.end_index, dtype=np.intp)
        end_index.setflags(write=False)
        end_slope = _readonly(self.end_slope)
        if end_index.shape != end_slope.shape or end_index.ndim != 1:
            raise ValueError("end_index and end_slope must be 1-d arrays of equal length")
        if end_index.size and not (1 <= end_index.min() and end_index.max() < t.size):
            raise ValueError("end_index must name samples 1 .. n - 1")
        if self.slope is not None:
            slope = _readonly(self.slope)
            if slope.shape != t.shape:
                raise ValueError("slope must have one entry per sample")
            object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "end_index", end_index)
        object.__setattr__(self, "end_slope", end_slope)

    def interval_slopes(self, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Slopes dy/du at the left and right end of each sample interval
        from the one leaving sample `start` on, both on the interval's own
        branch: the marched slopes, or the secant slope at both ends (0 on a
        held interval) when slope is None."""
        if self.slope is None:
            du = np.diff(self.u[start:])
            dy = np.diff(self.y[start:])
            secant = np.divide(dy, du, out=np.zeros_like(du), where=du != 0.0)
            return secant, secant
        right = self.slope[start + 1 :].copy()
        after = self.end_index > start
        right[self.end_index[after] - 1 - start] = self.end_slope[after]
        return self.slope[start:-1], right

    @property
    def n_samples(self) -> int:
        return int(self.t.size)

    def to_csv(self, path) -> None:
        """Write samples as CSV with header t,u,y at full float precision."""
        with open(path, "w", newline="") as fh:
            fh.write("t,u,y\n")
            for ti, ui, yi in zip(self.t, self.u, self.y):
                fh.write(f"{ti:.17g},{ui:.17g},{yi:.17g}\n")


def _segment_substeps(du: float, step: float | None) -> int:
    # default step: segment u-length / 1000, capped at 1e-3
    if step is None:
        step = min(abs(du) / 1000.0, 1e-3)
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return max(1, int(math.ceil(abs(du) / step)))


def _substep_sample(sig: InputSignal, j: int, k: int, step: float | None):
    """Time and input after substep k of segment j, as `simulate` samples
    them."""
    t0, t1 = float(sig.times[j]), float(sig.times[j + 1])
    ua, ub = float(sig.values[j]), float(sig.values[j + 1])
    du = ub - ua
    n = _segment_substeps(du, step)
    u = ua + k * (du / n) if k < n else ub
    t = t1 if k == n else t0 + (u - ua) * ((t1 - t0) / du)
    return t, u


def _march_segment(f, y, ua, ub, n, lo, hi):
    """March dy/du = f from (y, ua) to ub in n RK4 substeps of h = (ub - ua)/n
    to the nodes u_k = ua + k h, with u_n = ub exactly.

    Returns the nodes (an array), outputs and node slopes f(y_k, u_k) (each
    the next substep's k1) from the start node on, and the output of the
    first substep outside lo < y < hi (a non-finite one is), where the march
    stops, or None.  The nodes and stage inputs u_k + h/2, u_k + h are
    array operations, with the bits of the same float operations.
    """
    h = (ub - ua) / n
    half, sixth = 0.5 * h, h / 6.0
    nodes = ua + np.arange(n + 1) * h
    nodes[0], nodes[n] = ua, ub
    k1 = f(y, ua)
    ys, ks = [y], [k1]
    xms, xhs = (nodes[:-1] + half).tolist(), (nodes[:-1] + h).tolist()
    for xm, xh, u in zip(xms, xhs, nodes[1:].tolist()):
        y = rk4_step(f, y, k1, xm, xh, half, h, sixth)
        if not lo < y < hi:
            return nodes[: len(ys)], ys, ks, y
        k1 = f(y, u)
        ys.append(y)
        ks.append(k1)
    return nodes, ys, ks, None


def simulate(
    model: DuhemModel,
    signal: InputSignal,
    y0: float,
    step: float | None = None,
) -> Trajectory:
    """Drive the operator along a piecewise-linear input.

    Each monotone segment is integrated in u by `_march_segment` (RK4,
    substep at most `step`; default: segment u-length / 1000, capped at
    1e-3).  A segment that repeats an earlier one of the same call from the
    same output, bit for bit (a periodic input on its periodic orbit),
    reuses its outputs.  Samples are emitted at every breakpoint and uniform
    substep, with sample times linearly interpolated inside segments.
    Segments with zero u-change hold y exactly.  The trajectory keeps the
    branch slope f(y_k, u_k) the march computed at every node (each
    substep's first RK4 stage, and each segment's end slope), so the loop
    areas of `dissipativity` integrate y du by the cubic Hermite rule with
    no further field evaluation.  If a substep is not finite
    or lands outside the model domain, a DomainExitError carrying the first
    exit point is raised; no clamping is applied.

    Parameters
    ----------
    model : DuhemModel
    signal : InputSignal
    y0 : float
        Initial output; (y0, u(0)) must lie inside the model domain.
    step : float, optional
        Maximum u-substep.

    Returns
    -------
    Trajectory
        With `slope`, `end_index` and `end_slope` set from the march.
    """
    y0 = float(y0)
    if not np.isfinite(y0):
        raise ValueError(f"y0 must be finite, got {y0}")
    u_first = float(signal.values[0])
    if not bool(model.domain.contains(y0)):
        raise DomainExitError(0.0, u_first, y0, "initial state outside model domain")

    ts = [np.array([float(signal.times[0])])]
    us = [np.array([u_first])]
    ys = [np.array([y0])]
    # slopes on the branch leaving each sample, the march's own node slopes;
    # a segment's first slope belongs to the sample before it
    held = np.array([math.nan])
    fs = [held]
    starts, start_slopes, ends = [], [], []
    n_samples = 1
    y = y0
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    # _march_segment is a pure function of (f, y, ua, ub, n): its results
    # keyed on the bits of those, for this call only
    marched = {}

    for j, (t0, t1, ua, ub) in enumerate(signal.segments()):
        du = ub - ua
        if du == 0.0:
            ts.append(np.array([t1]))
            us.append(np.array([ub]))
            ys.append(np.array([y]))
            fs.append(held)
            n_samples += 1
            continue
        n = _segment_substeps(du, step)
        f = model.f1 if du > 0.0 else model.f2
        key = (f, struct.pack("3d", y, ua, ub), n)
        if key not in marched:
            nodes, outs, ks, y_exit = _march_segment(f, y, ua, ub, n, lo, hi)
            if y_exit is not None:
                t, u = _substep_sample(signal, j, len(outs), step)
                raise DomainExitError(t, u, y_exit)
            marched[key] = (
                nodes[1:], np.array(outs[1:], dtype=float),
                ks[0], np.array(ks[1:], dtype=float), outs[-1],
            )
        u, y_seg, k_start, f_seg, y = marched[key]
        starts.append(n_samples - 1)
        start_slopes.append(k_start)
        n_samples += n
        ends.append(n_samples - 1)
        inv_rate = (t1 - t0) / du
        t = t0 + (u - ua) * inv_rate
        t[-1] = t1
        ts.append(t)
        us.append(u)
        ys.append(y_seg)
        fs.append(f_seg)

    slope = np.concatenate(fs)
    end_slope = slope[ends]
    slope[starts] = start_slopes
    return Trajectory(
        np.concatenate(ts),
        np.concatenate(us),
        np.concatenate(ys),
        model_name=model.name,
        y0=y0,
        step=float(step) if step is not None else math.nan,
        slope=slope,
        end_index=ends,
        end_slope=end_slope,
    )


def check_existence_conditions(
    model: DuhemModel,
    grid: tuple[np.ndarray, np.ndarray],
    lambda_bound: float,
) -> VerificationReport:
    """Grid test of the one-sided Lipschitz inequalities behind well-posedness.

    For every pair sigma1 != sigma2 at each xi the difference quotients

        q1 = (f1(sigma1, xi) - f1(sigma2, xi)) / (sigma1 - sigma2)
        q2 = (f2(sigma1, xi) - f2(sigma2, xi)) / (sigma1 - sigma2)

    must satisfy q1 <= lambda_bound and q2 >= -lambda_bound.  The report's
    worst_violation is the largest excess over the bound (negative when the
    inequalities hold with margin, NaN when a field value is).  The excesses
    are one array of 2 * n_xi * n_sigma^2 floats.

    Parameters
    ----------
    grid : (sigma_values, xi_values)
        Rectangular evaluation grid; every sigma must lie inside the model
        domain.
    lambda_bound : float
        Common nonnegative bound for both inequalities.
    """
    if lambda_bound < 0.0:
        raise ValueError("lambda_bound must be nonnegative")
    sig = np.asarray(grid[0], dtype=float)
    xiv = np.asarray(grid[1], dtype=float)
    if sig.size < 2 or xiv.size < 1:
        raise ValueError("grid needs at least two sigma values and one xi value")
    if not model.domain.contains(sig).all():
        raise ValueError("sigma grid extends outside the model domain")

    # fields on the whole (xi, sigma) grid, and the excesses q1 - lambda and
    # -lambda - q2 as one (xi, branch, sigma1, sigma2) array, made in place
    S, X = np.meshgrid(sig, xiv)
    v = np.stack((model.f1(S, X), model.f2(S, X)), axis=1)
    excess = v[..., :, None] - v[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        excess /= sig[:, None] - sig[None, :]
    excess[:, 0] -= lambda_bound
    np.subtract(-lambda_bound, excess[:, 1], out=excess[:, 1])
    excess[..., np.eye(sig.size, dtype=bool)] = -math.inf
    (k, b, i, j), worst = worst_point(excess)
    return VerificationReport.from_violation(
        name="existence-conditions",
        worst_violation=worst,
        worst_location=(sig[i], sig[j], xiv[k]),
        tolerance=0.0,
        samples_checked=int(xiv.size * sig.size * (sig.size - 1)),
        details={
            "lambda_bound": float(lambda_bound),
            "worst_branch": ("increasing-branch", "decreasing-branch")[b],
            "model": model.name,
        },
    )

