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
from .report import VerificationReport, _check_positive, _write_csv, worst_point
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

    Carries the first sample not strictly inside the domain band (a NaN or
    +-inf output is not), so callers can report where the state escaped.
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
    open band (-Fc, Fc) x R used by Dahl-type friction models.  NaN and
    +-inf lie outside every band, the whole plane included, and every
    march ends at its first output outside its band.
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


WHOLE_PLANE = Domain()

# probe grid of the declared properties (odd, xi_free): outputs as fractions
# of the domain's half-width (of 2 on an unbounded domain), and inputs
_PROBE_SIGMA = np.array([-0.93, -0.61, -0.27, 0.0, 0.18, 0.52, 0.86])
_PROBE_XI = np.array([-2.3, -0.7, 0.0, 0.4, 1.9])


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

    xi_free declares that f1 and f2 ignore the input and that f_an is
    declared and identically 0.  A traversing curve is then the autonomous
    ODE dy/dtau = f(y), and the storage at (sigma, xi) is the integral of
    s / f(s) from 0 to sigma, f the branch that the ride from the point
    takes (f1 below the curve, f2 above): a function of the output alone,
    which `verify_dissipation_battery` evaluates by quadrature
    (`storage.storage_output_only`) instead of riding every sample to its
    crossing; the supply march (`storage._supply_running_min`) calls the
    fields at the input 0.0 and carries no input.  The declaration is
    checked on the same probe grid: f1 and f2 must return the same bits at
    every probe input as at xi = 0, and f_an must be 0 there; a mismatch,
    or no f_an, raises ValueError.  Dahl and Bouc-Wen with zeta != 0 are
    xi-free; the exponential example is not.
    """

    name: str
    f1: Callable
    f2: Callable
    params: Mapping[str, float] = field(default_factory=dict)
    domain: Domain = WHOLE_PLANE
    f_an: Callable | None = None
    odd: bool = False
    xi_free: bool = False

    def __post_init__(self):
        if not callable(self.f1) or not callable(self.f2):
            raise ValueError("f1 and f2 must be callable")
        object.__setattr__(self, "params", dict(self.params))
        if self.odd:
            self._check_odd()
        if self.xi_free:
            self._check_xi_free()

    def _probe(self):
        """The probe grid, flattened: `_PROBE_SIGMA` as fractions of the
        domain's half-width about its midpoint (a half-width of 2, beside
        the finite limit, on an unbounded side), against `_PROBE_XI`; and
        f1, f2 and f_an under any functools.wraps layers, so that a wrapper
        that counts or times field calls sees only the calls of the
        numerics, not the checks of the declarations."""
        lo, hi = self.domain.sigma_min, self.domain.sigma_max
        if math.isfinite(lo) and math.isfinite(hi):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        else:
            mid = lo + 2.0 if math.isfinite(lo) else hi - 2.0 if math.isfinite(hi) else 0.0
            half = 2.0
        sigma, xi = (
            a.ravel() for a in np.meshgrid(mid + half * _PROBE_SIGMA, _PROBE_XI)
        )
        f_an = None if self.f_an is None else inspect.unwrap(self.f_an)
        return sigma, xi, inspect.unwrap(self.f1), inspect.unwrap(self.f2), f_an

    def _check_probe_pairs(self, what: str, sigma, xi, pairs):
        """Raise ValueError at the first probe point where the two sides of
        a pair (lhs, a, rhs, b) differ (two NaNs agree)."""
        for lhs, a, rhs, b in pairs:
            a, b = (np.broadcast_to(np.asarray(v, dtype=float), sigma.shape) for v in (a, b))
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            if not same.all():
                k = int(np.argmin(same))
                raise ValueError(
                    f"{what} {self.name!r}: {lhs} = {float(a[k])!r} but "
                    f"{rhs} = {float(b[k])!r} at sigma={sigma[k]:.6g}, xi={xi[k]:.6g}"
                )

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
        sigma, xi, f1, f2, f_an = self._probe()
        with np.errstate(all="ignore"):
            pairs = [("f2(sigma, xi)", f2(sigma, xi), "f1(-sigma, -xi)", f1(-sigma, -xi))]
            if f_an is not None:
                pairs.append(("f_an(-xi)", f_an(-xi), "-f_an(xi)", -f_an(xi)))
        self._check_probe_pairs("odd model", sigma, xi, pairs)

    def _check_xi_free(self):
        """Raise ValueError unless f_an is declared and 0 on the probe grid
        and f1 and f2 return there the bits they return at xi = 0."""
        if self.f_an is None:
            raise ValueError(
                f"xi-free model {self.name!r} must declare f_an (identically 0)"
            )
        sigma, xi, f1, f2, f_an = self._probe()
        at_0 = np.zeros_like(xi)
        with np.errstate(all="ignore"):
            pairs = [
                ("f1(sigma, xi)", f1(sigma, xi), "f1(sigma, 0)", f1(sigma, at_0)),
                ("f2(sigma, xi)", f2(sigma, xi), "f2(sigma, 0)", f2(sigma, at_0)),
                ("f_an(xi)", f_an(xi), "0", 0.0),
            ]
        self._check_probe_pairs("xi-free model", sigma, xi, pairs)

    def F(self, sigma, xi):
        """Half-difference of the slope fields; zero exactly on the
        anhysteresis curve."""
        return 0.5 * (self.f1(sigma, xi) - self.f2(sigma, xi))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled response: arrays t, u, y of equal length plus run metadata.

    slope_left[k] and slope_right[k] are the slopes dy/du at the left and
    right end of sample interval k (from sample k to k + 1), both on that
    interval's own branch, so a turning point has one slope on each side;
    a held interval has 0.0 in both.  A simulated trajectory holds the
    branch slopes its march computed.  A trajectory built without them
    gets each interval's secant slope in both fields, as one array.
    """

    t: np.ndarray
    u: np.ndarray
    y: np.ndarray
    model_name: str = ""
    y0: float = math.nan
    slope_left: np.ndarray | None = None
    slope_right: np.ndarray | None = None

    def __post_init__(self):
        t, u, y = _readonly(self.t), _readonly(self.u), _readonly(self.y)
        if not (t.size == u.size == y.size) or t.ndim != 1:
            raise ValueError("t, u, y must be 1-d arrays of equal length")
        if t.size > 1 and not (np.diff(t) > 0.0).all():
            raise ValueError("sample times must be strictly increasing")
        if (self.slope_left is None) != (self.slope_right is None):
            raise ValueError("give both slope_left and slope_right, or neither")
        if self.slope_left is None:
            du = np.diff(u)
            secant = np.divide(np.diff(y), du, out=np.zeros_like(du), where=du != 0.0)
            left = right = _readonly(secant)
        else:
            left, right = _readonly(self.slope_left), _readonly(self.slope_right)
            if not left.shape == right.shape == (max(t.size - 1, 0),):
                raise ValueError(
                    "slope_left and slope_right must have one entry per sample interval"
                )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "slope_left", left)
        object.__setattr__(self, "slope_right", right)

    @property
    def n_samples(self) -> int:
        return int(self.t.size)

    def to_csv(self, path) -> None:
        """Write samples as CSV with header t,u,y at full float precision."""
        _write_csv(path, "t,u,y", self.t, self.u, self.y)


def _segment_substeps(du: float, step: float | None) -> int:
    # default step: segment u-length / 1000, capped at 1e-3
    if step is None:
        step = min(abs(du) / 1000.0, 1e-3)
    return max(1, int(math.ceil(abs(du) / _check_positive("step", step))))


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
    branch slope f(y_k, u_k) the march computed at both ends of every
    substep (its first RK4 stage, and the next one's or the segment's end
    slope), so the loop areas of `dissipativity` integrate y du by the
    cubic Hermite rule with no further field evaluation.  A held segment
    gets slope 0.0 at both ends.  If a substep is not finite or lands
    outside the model domain, a DomainExitError carrying the first exit
    point is raised; no clamping is applied.

    Parameters
    ----------
    model : DuhemModel
    signal : InputSignal
    y0 : float
        Initial output; (y0, u(0)) must lie inside the model domain.
    step : float, optional
        Maximum u-substep; ValueError unless it is positive and finite.

    Returns
    -------
    Trajectory
        With `slope_left` and `slope_right` set from the march.
    """
    y0 = float(y0)
    if not np.isfinite(y0):
        raise ValueError(f"y0 must be finite, got {y0}")
    # checked before the first segment: an input that never moves marches none
    if step is not None:
        _check_positive("step", step)
    u_first = float(signal.values[0])
    if not bool(model.domain.contains(y0)):
        raise DomainExitError(0.0, u_first, y0, "initial state outside model domain")

    ts = [np.array([float(signal.times[0])])]
    us = [np.array([u_first])]
    ys = [np.array([y0])]
    # the march's node slopes at the left and right end of each interval
    held = np.zeros(1)
    lefts, rights = [np.zeros(0)], [np.zeros(0)]
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
            lefts.append(held)
            rights.append(held)
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
                np.array(ks, dtype=float), outs[-1],
            )
        u, y_seg, ks, y = marched[key]
        inv_rate = (t1 - t0) / du
        t = t0 + (u - ua) * inv_rate
        t[-1] = t1
        ts.append(t)
        us.append(u)
        ys.append(y_seg)
        lefts.append(ks[:-1])
        rights.append(ks[1:])

    return Trajectory(
        np.concatenate(ts),
        np.concatenate(us),
        np.concatenate(ys),
        model_name=model.name,
        y0=y0,
        slope_left=np.concatenate(lefts),
        slope_right=np.concatenate(rights),
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
        Common bound for both inequalities; ValueError unless it is
        nonnegative and finite (an infinite bound passes every model).
    """
    if not 0.0 <= lambda_bound < math.inf:
        raise ValueError(
            f"lambda_bound must be nonnegative and finite, got {lambda_bound!r}"
        )
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
    return VerificationReport(
        name="existence-conditions",
        worst_violation=worst,
        worst_location=(sig[i], sig[j], xiv[k]),
        tolerance=0.0,
        samples_checked=xiv.size * sig.size * (sig.size - 1),
        details={
            "lambda_bound": float(lambda_bound),
            "worst_branch": ("increasing-branch", "decreasing-branch")[b],
            "model": model.name,
        },
    )

