"""Anhysteresis and traversing-curve machinery.

The anhysteresis curve of a Duhem operator is the locus where the increasing
and decreasing slope fields agree (F = (f1 - f2)/2 = 0).  Through any phase
point (sigma, xi) runs a traversing curve: the solution of dy/dtau = f1 to
the right of xi and dy/dtau = f2 to the left.  Under a transversality margin
(the slope fields strictly dominate the anhysteresis slope on the relevant
side) each traversing curve meets the anhysteresis curve exactly once; the
intersection abscissa is what the storage construction integrates to.

The crossing search reads the sign of the side residual f_an - y (F when
f_an is not declared) at the start point, which by the sign structure says
which branch the point rides and which way.  It marches that branch with the
simulator's RK4 step until the residual reaches the other side, and sets
aside each lane's bracketing step.  Once every lane has crossed, one vector
root finder on the brackets' cubic Hermite models refines all crossings at
once (event location on dense output): `_REFINE_PASSES` = 8 passes of
Illinois regula falsi (`integrate.bisect_on_interval_vec`).  Their
crossings lie within a few ulps of the bracket scale |lam| + step (more
where F cancels) of those of a 60-halving bisection, the tests' reference,
and leave no larger side residual.  `ride_to_crossing` marches a whole
trajectory's worth of phase points in lockstep.  Single-point queries
(`intersect_lambda`, `storage.storage_cw`) take the same steps in Python
floats, since a batch-of-one numpy march costs many times as much, share the
batch ride's set-up, accumulate the branch integral as it does and refine
their one bracket with the batch's passes in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DuhemModel, _march_segment, _segment_substeps
from .integrate import (
    BracketError,
    bisect,
    bisect_on_interval_vec,
    expand_bracket,
    hermite_eval,
    hermite_integral,
    hermite_partial_integral,
    rk4_step,
)
from .report import VerificationReport, _check_positive, worst_point
from .signals import _readonly

__all__ = [
    "PhasePoint",
    "TraversingCurve",
    "CrossingSearchError",
    "anhysteresis",
    "anhysteresis_values",
    "traversing_curve",
    "intersect_lambda",
    "ride_to_crossing",
    "check_lemma1",
]


class CrossingSearchError(RuntimeError):
    """The traversing branch never met the anhysteresis curve within budget.

    Raised when the search exhausts its expansion budget or leaves the model
    domain (an output NaN, +-inf or not strictly inside its band); both
    indicate the transversality hypotheses fail along the ride.
    Also raised for a NaN side residual at a start point and for a crossing
    more than 1e-9 (or NaN) off the anhysteresis curve.
    """


@dataclass(frozen=True)
class PhasePoint:
    """Point (sigma, xi) in the output x input plane."""

    sigma: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.xi)):
            raise ValueError("phase point coordinates must be finite")


def _domain_search_limits(model: DuhemModel) -> tuple[float, float]:
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    if math.isfinite(lo):
        lo = lo + 1e-9 * (1.0 + abs(lo))
    if math.isfinite(hi):
        hi = hi - 1e-9 * (1.0 + abs(hi))
    return lo, hi


def anhysteresis(model: DuhemModel, xi: float) -> float:
    """Output value sigma* at which f1(sigma*, xi) = f2(sigma*, xi).

    Uses the model's declared anhysteresis function when present; otherwise
    brackets the root of F(., xi) by geometric expansion from sigma = 0
    (clipped to the model domain) and bisects until |F| <= 1e-10.  Raises
    ValueError when the residual |F(sigma*, xi)| exceeds 1e-9 or is NaN.
    """
    xi = float(xi)
    if model.f_an is not None:
        sigma = float(model.f_an(xi))
    else:
        g = lambda s: float(model.F(s, xi))
        lo, hi = _domain_search_limits(model)
        a, b = expand_bracket(g, 0.0, 1.0 + abs(xi), lo_limit=lo, hi_limit=hi)
        sigma = a if a == b else bisect(g, a, b, ftol=1e-10)
    res = abs(float(model.F(sigma, xi)))
    # written so that a NaN residual fails too
    if not res <= 1e-9:
        raise ValueError(
            f"anhysteresis residual {res:.3e} exceeds tolerance at xi={xi}"
        )
    return sigma


def anhysteresis_values(model: DuhemModel, xi: np.ndarray) -> np.ndarray:
    """Vectorized anhysteresis evaluation used by grid checks and rides.

    Without a declared f_an, each root of F(., xi) is bracketed by doubling
    a window around sigma = 0 (at most 60 times) and refined by 80 passes
    of the crossing refinement's root finder (`bisect_on_interval_vec`).
    A xi where F(0, xi) is NaN gets NaN, with no expansion, as a NaN
    declared f_an gives.  A window end where F is NaN stops moving outward:
    from then on that end is the midpoint of its last finite probe and its
    nearest NaN probe, so the search closes in on the finite part.  A xi
    with no bracket after the last doubling gets NaN if a NaN probe stopped
    one of its ends, and raises BracketError otherwise.
    """
    xi = np.asarray(xi, dtype=float)
    if model.f_an is not None:
        return np.broadcast_to(
            np.asarray(model.f_an(xi), dtype=float), xi.shape
        ).copy()
    lo_lim, hi_lim = _domain_search_limits(model)
    w = 1.0 + np.abs(xi)
    g = lambda s: np.asarray(model.F(s, xi), dtype=float)
    zero = np.zeros_like(xi)
    gc = g(zero)
    nan = np.isnan(gc)
    lo = np.maximum(-w, lo_lim)
    hi = np.minimum(w, hi_lim)
    # per end: its last finite probe and its nearest NaN probe (inf: none)
    fin_lo, fin_hi = zero, zero
    cap_lo, cap_hi = np.full_like(xi, -math.inf), np.full_like(xi, math.inf)
    for _ in range(61):
        glo = g(lo)
        ghi = g(hi)
        ok = (glo * gc <= 0.0) | (ghi * gc <= 0.0) | (gc == 0.0) | nan
        if ok.all():
            break
        w = np.where(ok, w, 2.0 * w)
        nan_lo, nan_hi = np.isnan(glo), np.isnan(ghi)
        fin_lo, cap_lo = np.where(nan_lo, fin_lo, lo), np.where(nan_lo, lo, cap_lo)
        fin_hi, cap_hi = np.where(nan_hi, fin_hi, hi), np.where(nan_hi, hi, cap_hi)
        lo = np.where(ok, lo, np.where(
            np.isinf(cap_lo), np.maximum(-w, lo_lim), 0.5 * (fin_lo + cap_lo)))
        hi = np.where(ok, hi, np.where(
            np.isinf(cap_hi), np.minimum(w, hi_lim), 0.5 * (fin_hi + cap_hi)))
    else:
        stuck = ~ok
        if (stuck & np.isinf(cap_lo) & np.isinf(cap_hi)).any():
            raise BracketError("anhysteresis bracket expansion budget exhausted")
        nan = nan | stuck
    # pick the side of 0 that brackets the sign change
    use_lo = g(lo) * gc <= 0.0
    a = np.where(gc == 0.0, zero, np.where(use_lo, lo, zero))
    b = np.where(gc == 0.0, zero, np.where(use_lo, zero, hi))
    a[nan] = b[nan] = math.nan
    return bisect_on_interval_vec(g, a, b, iters=80)


@dataclass(frozen=True, eq=False)
class TraversingCurve:
    """Sampled traversing curve through `origin` with C^1 interpolation.

    Node arrays run in ascending tau and include the origin; dydtau holds
    the branch slope at each node (f2 left of the origin, f1 at and right
    of it).  Calling the object evaluates the piecewise cubic Hermite
    interpolant; on the interval that ends at the origin it takes the left
    branch's slope there, `origin_left_slope`, when one is given.  The
    truncation flags record that a branch stopped early because it reached
    the domain boundary.
    """

    origin: PhasePoint
    tau: np.ndarray
    y: np.ndarray
    dydtau: np.ndarray
    left_truncated: bool = False
    right_truncated: bool = False
    origin_left_slope: float | None = None

    def __post_init__(self):
        for name in ("tau", "y", "dydtau"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if self.tau.size < 1 or self.tau.size != self.y.size:
            raise ValueError("inconsistent node arrays")
        if self.tau.size > 1 and not (np.diff(self.tau) > 0.0).all():
            raise ValueError("tau nodes must be strictly increasing")

    def __call__(self, tau):
        t = np.asarray(tau, dtype=float)
        if (t < self.tau[0]).any() or (t > self.tau[-1]).any():
            raise ValueError(
                f"evaluation outside sampled range [{self.tau[0]}, {self.tau[-1]}]"
            )
        if self.tau.size == 1:
            out = np.full_like(t, self.y[0])
            return float(out) if t.ndim == 0 else out
        i = np.clip(np.searchsorted(self.tau, t, side="right") - 1, 0, self.tau.size - 2)
        f_right = self.dydtau[i + 1]
        if self.origin_left_slope is not None:
            to_origin = self.tau[i + 1] == self.origin.xi
            f_right = np.where(to_origin, self.origin_left_slope, f_right)
        out = hermite_eval(
            t,
            self.tau[i],
            self.tau[i + 1],
            self.y[i],
            self.y[i + 1],
            self.dydtau[i],
            f_right,
        )
        return float(out) if t.ndim == 0 else out


def _march_branch(
    model: DuhemModel,
    f: Callable,
    sigma: float,
    xi: float,
    tau_stop: float,
    step: float,
):
    """`_march_segment` of one branch to tau_stop with `simulate`'s substep
    rule (substeps at most `step`, which must be positive and finite);
    flags a domain exit, keeping the nodes before it."""
    span = tau_stop - xi
    if span == 0.0:
        return (
            np.array([xi]),
            np.array([sigma]),
            np.array([float(f(sigma, xi))]),
            False,
        )
    n = _segment_substeps(span, step)
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    taus, ys, fs, y_exit = _march_segment(f, sigma, xi, tau_stop, n, lo, hi)
    return taus, np.array(ys, dtype=float), np.array(fs, dtype=float), y_exit is not None


def traversing_curve(
    model: DuhemModel,
    p: PhasePoint,
    tau_min: float,
    tau_max: float,
    step: float = 1e-3,
) -> TraversingCurve:
    """Sample the traversing curve through p over [tau_min, tau_max].

    The right branch solves dy/dtau = f1 on [p.xi, tau_max], the left branch
    dy/dtau = f2 on [tau_min, p.xi]; both start from (p.sigma, p.xi), so the
    two branches are continuous at the origin by construction.  A branch
    that reaches the domain boundary is truncated and flagged rather than
    extrapolated.  A step that is not positive and finite, or a tau_min or
    tau_max that is not finite, raises ValueError, also where neither
    branch moves.
    """
    _check_positive("step", step)
    if not (tau_min <= p.xi <= tau_max):
        raise ValueError("need tau_min <= p.xi <= tau_max")
    if not (math.isfinite(tau_min) and math.isfinite(tau_max)):
        raise ValueError(f"tau_min and tau_max must be finite, got {tau_min} and {tau_max}")
    if not bool(model.domain.contains(p.sigma)):
        raise ValueError(f"phase point {p} outside model domain")
    t_r, y_r, f_r, trunc_r = _march_branch(model, model.f1, p.sigma, p.xi, tau_max, step)
    t_l, y_l, f_l, trunc_l = _march_branch(model, model.f2, p.sigma, p.xi, tau_min, step)
    # left branch was marched outward (descending tau); flip and drop the
    # duplicated origin node
    tau = np.concatenate([t_l[:0:-1], t_r])
    yv = np.concatenate([y_l[:0:-1], y_r])
    fv = np.concatenate([f_l[:0:-1], f_r])
    return TraversingCurve(
        origin=p,
        tau=tau,
        y=yv,
        dydtau=fv,
        left_truncated=trunc_l,
        right_truncated=trunc_r,
        origin_left_slope=float(f_l[0]),
    )


@dataclass(frozen=True, eq=False)
class CrossingResult:
    """Batch result of riding traversing branches to the anhysteresis curve."""

    lam: np.ndarray       # intersection abscissa per point
    y_at: np.ndarray      # branch value at the intersection
    integral: np.ndarray  # signed integral of the branch from xi to lam
    steps: np.ndarray     # RK4 steps used per point


# regula falsi passes on each crossing bracket, one count for every ride
# (batch and single-point)
_REFINE_PASSES = 8


def _side_residual(model: DuhemModel) -> Callable:
    """f_an(tau) - y, or F when f_an is not declared.  F has the same sign
    under assumption A but cancels near the curve: on Bouc-Wen (alpha = beta
    = zeta = 1) f1 = 1 - 2 y^n rounds to 1, so F = 0 for |y| < 2^(-54/n)."""
    if model.f_an is None:
        return model.F
    return lambda y, tau: model.f_an(tau) - y


def _domain_exit_error(count: int, tau) -> CrossingSearchError:
    return CrossingSearchError(
        f"{count} traversing branch(es) left the domain before meeting the "
        f"anhysteresis curve (first at tau={tau:.6g})"
    )


def _budget_error(count: int, max_steps: int, h: float) -> CrossingSearchError:
    return CrossingSearchError(
        f"{count} traversing branch(es) did not meet the anhysteresis curve "
        f"within {max_steps} steps of size {abs(h):.3g} "
        "(transversality hypotheses violated or budget too small)"
    )


def _refine_crossings(side: Callable, tA, tB, yA, yB, fA, fB, acc):
    """Crossing abscissas in the brackets [tA, tB] (arrays, one per lane),
    the branch values there and acc plus the branch integrals from tA: one
    vector root finder (`bisect_on_interval_vec`, `_REFINE_PASSES` Illinois
    regula falsi passes) on the brackets' cubic Hermite models."""

    def residual(s):
        return np.asarray(
            side(hermite_eval(s, tA, tB, yA, yB, fA, fB), s), dtype=float
        )

    lam = bisect_on_interval_vec(residual, tA, tB, iters=_REFINE_PASSES)
    y_at = hermite_eval(lam, tA, tB, yA, yB, fA, fB)
    return lam, y_at, acc + hermite_partial_integral(lam, tA, tB, yA, yB, fA, fB)


def _refine_point(side: Callable, tA, tB, yA, yB, fA, fB, acc):
    """`_refine_crossings` for one bracket, in Python floats, bit for bit:
    the crossing abscissa, the branch value there and acc plus the branch
    integral from tA.

    It runs the `_REFINE_PASSES` passes of `bisect_on_interval_vec` with
    the same operations in the same order: r and p start at tA and tB, a
    secant point that is not strictly inside the bracket (or whose residual
    difference is 0, where Python would raise and numpy gives inf or NaN)
    becomes the midpoint, and an exact zero collapses the bracket.  It runs
    every pass: the vector finder stops early only where the later passes
    would change nothing.
    """
    if tA == tB:
        # a step too short to move tau (|tau| far above the step): Python
        # would raise on the Hermite models' 0 / 0, numpy gives the NaNs of
        # the batch lane
        bracket = (np.array([v]) for v in (tA, tB, yA, yB, fA, fB, acc))
        return tuple(float(v[0]) for v in _refine_crossings(side, *bracket))
    r, p = tA, tB
    gr = fr = float(side(hermite_eval(r, tA, tB, yA, yB, fA, fB), r))
    gp = float(side(hermite_eval(p, tA, tB, yA, yB, fA, fB), p))
    for _ in range(_REFINE_PASSES):
        d = gp - fr
        x = p - gp * (p - r) / d if d != 0.0 else math.nan
        if not min(r, p) < x < max(r, p):
            x = 0.5 * (r + p)
        gx = float(side(hermite_eval(x, tA, tB, yA, yB, fA, fB), x))
        if gx == 0.0:
            r, gr, fr = x, gx, gx
        elif gp * gx <= 0.0:
            r, gr, fr = p, gp, gp
        else:
            fr = 0.5 * fr
        p, gp = x, gx
    lam = p if abs(gp) < abs(gr) else r
    return (
        lam,
        hermite_eval(lam, tA, tB, yA, yB, fA, fB),
        acc + hermite_partial_integral(lam, tA, tB, yA, yB, fA, fB),
    )


def _march_to_crossing(
    model: DuhemModel,
    f: Callable,
    sign: np.ndarray,
    y0: np.ndarray,
    tau0: np.ndarray,
    h: float,
    max_steps: int,
):
    """March dy/dtau = f from (y0, tau0) with signed step h, lane k in the
    frame z = s y, v = s tau of s = sign[k] = +-1, until each lane's side
    residual (`_side_residual`) reaches <= 0 (h > 0: the lanes start below
    the curve) or >= 0 (h < 0: above it); returns per-element crossing
    data, unreflected (the branch integral int z dv is int y dtau).

    The march only detects crossings: each lane's bracketing step and the
    integral accumulated before it are set aside, and after the march all
    brackets are refined together in one vector root finder on their cubic
    Hermite models (`_refine_crossings`).  Every operation is elementwise,
    so a lane's result does not depend on which other lanes share the batch.
    An output NaN, +-inf or outside the band ends it (CrossingSearchError).
    """
    n = y0.size
    idx = np.arange(n)
    y = sign * y0
    tau = sign * tau0
    fcur = np.asarray(f(y, tau), dtype=float)
    acc = np.zeros(n)
    steps = np.zeros(n, dtype=int)
    # per crossing step: lane indices, bracket (tA, tB, yA, yB, fA, fB), acc
    stash = []

    side = _side_residual(model)
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    half, sixth = 0.5 * h, h / 6.0

    for it in range(1, max_steps + 1):
        if idx.size == 0:
            break
        tau_new = tau + h
        y_new = rk4_step(f, y, fcur, tau + half, tau_new, half, h, sixth)
        if not (lo < y_new.min() and y_new.max() < hi):
            bad = ~((y_new > lo) & (y_new < hi))
            raise _domain_exit_error(int(bad.sum()), (sign[idx] * tau_new)[bad][0])
        f_new = np.asarray(f(y_new, tau_new), dtype=float)
        c_new = np.asarray(side(y_new, tau_new), dtype=float)
        crossed = (c_new >= 0.0) if h < 0.0 else (c_new <= 0.0)
        # every lane's step integral, the crossed lanes' too: one elementwise
        # pass costs less than gathering its six inputs
        acc_new = acc + hermite_integral(tau, tau_new, y, y_new, fcur, f_new)

        if crossed.any():
            steps[idx[crossed]] = it
            stash.append(
                (
                    idx[crossed],
                    tau[crossed],
                    tau_new[crossed],
                    y[crossed],
                    y_new[crossed],
                    fcur[crossed],
                    f_new[crossed],
                    acc[crossed],
                )
            )
            keep = ~crossed
            idx, acc_new = idx[keep], acc_new[keep]
            y_new, tau_new, f_new = y_new[keep], tau_new[keep], f_new[keep]

        acc, y, tau, fcur = acc_new, y_new, tau_new, f_new

    if idx.size:
        raise _budget_error(idx.size, max_steps, h)

    hit, *bracket = (np.concatenate(a) for a in zip(*stash))
    lam = np.empty(n)
    y_at = np.empty(n)
    integral = np.empty(n)
    lam[hit], y_at[hit], integral[hit] = _refine_crossings(side, *bracket)
    return sign * lam, sign * y_at, integral, steps


def _ride_setup(model: DuhemModel, sigma, xi, step: float, max_doublings: int):
    """Checks, start sides and step budget of a ride from (sigma_k, xi_k).

    The side residual c0 = `_side_residual`(sigma, xi) alone decides the
    side: by the sign structure (F >= 0 below the anhysteresis curve, <= 0
    above it) a point with c0 < 0 lies above the curve and rides f2
    leftward, one with c0 > 0 lies below it and rides f1 rightward, and one
    with c0 == 0 is on the curve.  A point outside the model domain or with
    a xi that is not finite raises ValueError, and a NaN c0 then
    CrossingSearchError, each naming the count and the first such point.
    Returns sigma and xi as 1-d float arrays, the masks of the points that
    ride f2 leftward and f1 rightward, and the step budget: a span of
    (1 + max |xi|) doubled min(max_doublings, 21) times, at most 2**21
    steps.
    """
    _check_positive("step", step)
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if sigma.shape != xi.shape or sigma.ndim != 1:
        raise ValueError("sigma and xi must be 1-d arrays of equal length")

    def points(mask, what):
        k = int(np.argmax(mask))
        return (
            f"{int(mask.sum())} phase point(s) {what} "
            f"(first at sigma={sigma[k]:.6g}, xi={xi[k]:.6g})"
        )

    outside = ~model.domain.contains(sigma)
    if outside.any():
        raise ValueError(points(outside, "outside the model domain"))
    unbounded = ~np.isfinite(xi)
    if unbounded.any():
        raise ValueError(points(unbounded, "whose xi is not finite"))
    c0 = np.asarray(_side_residual(model)(sigma, xi), dtype=float)
    if np.isnan(c0).any():
        raise CrossingSearchError(points(np.isnan(c0), "have a NaN side residual"))

    span_limit = (1.0 + float(np.abs(xi).max(initial=0.0))) * 2.0 ** min(max_doublings, 21)
    max_steps = int(min(math.ceil(span_limit / step), 2**21))
    return sigma, xi, c0 < 0.0, c0 > 0.0, max_steps


def ride_to_crossing(
    model: DuhemModel,
    sigma: np.ndarray,
    xi: np.ndarray,
    *,
    step: float = 1e-3,
    max_doublings: int = 60,
) -> CrossingResult:
    """Ride traversing branches from (sigma_k, xi_k) to the anhysteresis curve.

    The sign of the side residual at each point decides its ride
    (`_ride_setup`): points above the curve ride the decreasing branch (f2)
    leftward, points below ride the increasing branch (f1) rightward, the
    directions in which the intersection is guaranteed to lie, and points
    on the curve stay where they are.  Returns the intersection abscissas,
    branch values there (equal to the anhysteresis value up to refinement
    error) and the signed branch integrals from xi to the intersection.

    An odd model (`DuhemModel.odd`) rides all lanes in one march on f1
    rightward, those above the curve in the frame reflected through the
    origin, where f2 is f1 and the side residual (f_an or F is odd) changes
    sign.  Negation is exact and round-to-nearest symmetric under it, so a
    reflected lane is its f2 march negated bit for bit, up to the sign of
    an exact zero.  Other models march the two sides apart.

    The search budget is geometric in spirit: the ride may extend to a span
    of (1 + |xi|) doubled up to `max_doublings` times, subject to a hard cap
    of 2**21 steps, after which a CrossingSearchError is raised.  So is a
    point whose side residual is NaN, and a ride whose crossings do not all
    satisfy |y_at - f_an(lam)| <= 1e-9 (`intersect_lambda`'s check, against
    `anhysteresis_values`), naming the count and the first such point.
    """
    sigma, xi, above, below, max_steps = _ride_setup(
        model, sigma, xi, step, max_doublings
    )
    n = sigma.size
    lam = xi.copy()
    y_at = sigma.copy()
    integral = np.zeros(n)
    steps = np.zeros(n, dtype=int)

    sign = np.where(above & model.odd, -1.0, 1.0)
    rides = ((above, model.f2, -1.0), (below, model.f1, 1.0))
    if model.odd:
        rides = ((above | below, model.f1, 1.0),)
    for mask, f, direction in rides:
        if not mask.any():
            continue
        res = _march_to_crossing(
            model, f, sign[mask], sigma[mask], xi[mask], direction * step, max_steps
        )
        lam[mask], y_at[mask], integral[mask], steps[mask] = res

    mismatch = np.abs(y_at - anhysteresis_values(model, lam))
    # written so that a NaN residual fails too
    stalled = ~(mismatch <= 1e-9)
    if stalled.any():
        k = int(np.argmax(stalled))
        raise CrossingSearchError(
            f"crossing refinement stalled on {int(stalled.sum())} lane(s): "
            f"|omega - f_an| = {mismatch[k]:.3e} > 1.0e-09 at u* = {lam[k]:.6g} "
            f"(first from sigma={sigma[k]:.6g}, xi={xi[k]:.6g})"
        )
    return CrossingResult(lam=lam, y_at=y_at, integral=integral, steps=steps)


def _ride_point(
    model: DuhemModel, p: PhasePoint, *, step: float, max_doublings: int
) -> tuple[float, float, float]:
    """The crossing abscissa, branch value and branch integral of p's
    `ride_to_crossing` lane, marched in Python floats: (lam, y_at, integral).

    It takes the batch lane's steps (same set-up and frame, tau advanced by
    tau + h, same side test, guard and errors), adds each step's
    `hermite_integral` as `_march_to_crossing` does, and refines its bracket
    with `_refine_point`, the float twin of `_refine_crossings`, so it
    returns the lane's bits wherever the model's fields return the same
    bits for floats as for arrays.  Batch-of-one numpy steps cost many times
    the float arithmetic.
    """
    sigma, xi, above, below, max_steps = _ride_setup(
        model, p.sigma, p.xi, step, max_doublings
    )
    y, tau = float(sigma[0]), float(xi[0])
    if not (above[0] or below[0]):
        return tau, y, 0.0
    s = -1.0 if above[0] and model.odd else 1.0
    f, h = (model.f2, -step) if above[0] and not model.odd else (model.f1, step)
    y, tau = s * y, s * tau
    side = _side_residual(model)
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    half, sixth = 0.5 * h, h / 6.0

    fcur = f(y, tau)
    acc = 0.0
    for _ in range(max_steps):
        tau_new = tau + h
        y_new = rk4_step(f, y, fcur, tau + half, tau_new, half, h, sixth)
        if not lo < y_new < hi:
            raise _domain_exit_error(1, s * tau_new)
        f_new = f(y_new, tau_new)
        c_new = side(y_new, tau_new)
        if (c_new >= 0.0) if h < 0.0 else (c_new <= 0.0):
            lam, y_at, integral = _refine_point(side, tau, tau_new, y, y_new, fcur, f_new, acc)
            return s * lam, s * y_at, integral
        acc = acc + hermite_integral(tau, tau_new, y, y_new, fcur, f_new)
        y, tau, fcur = y_new, tau_new, f_new
    raise _budget_error(1, max_steps, h)


def _intersect(
    model: DuhemModel, p: PhasePoint, *, step: float, max_doublings: int = 60
) -> tuple[float, float]:
    """`_ride_point`'s crossing abscissa and branch integral, (lam,
    integral), once its branch value lies within 1e-9 of f_an(lam) (scalar
    `anhysteresis`); CrossingSearchError otherwise, a NaN residual too.
    The one ride and check of `intersect_lambda` and `storage.storage_cw`.
    """
    lam, y_at, integral = _ride_point(model, p, step=step, max_doublings=max_doublings)
    mismatch = abs(y_at - anhysteresis(model, lam))
    # written so that a NaN residual fails too
    if not mismatch <= 1e-9:
        raise CrossingSearchError(
            f"crossing refinement stalled: |omega - f_an| = {mismatch:.3e} "
            f"> 1.0e-09 at u* = {lam:.6g}"
        )
    return lam, integral


def intersect_lambda(
    model: DuhemModel,
    p: PhasePoint,
    *,
    step: float = 1e-3,
    max_doublings: int = 60,
) -> float:
    """Abscissa where the traversing curve through p meets the anhysteresis
    curve.

    The search direction follows the sign of the side residual at p
    (`_ride_setup`): above the curve the intersection lies at u* < xi,
    below it at u* > xi, and on it u* = xi.  The ride and its crossing
    refinement run in Python floats (`_ride_point`, `_refine_point`); u* is
    the `ride_to_crossing` abscissa of p bit for bit wherever the model's
    slope fields return the same bits for float arguments as for arrays
    (the built-in fields do, except that the float power of Dahl with
    r != 1 may differ in the last bit).  u* satisfies |omega(u*) -
    f_an(u*)| <= 1e-9, where omega is the traversing branch; a
    CrossingSearchError means a NaN side residual at p, no crossing within
    the expansion budget, or a crossing residual that is larger or NaN.
    """
    return _intersect(model, p, step=step, max_doublings=max_doublings)[0]


# grid (sigma lines, xi lines) of the two sign-structure certificates,
# check_lemma1 and dissipativity.check_assumption_A
_CERTIFICATE_GRID = (200, 200)


def _certificate_grid(model: DuhemModel, region):
    """Grid lines sig, xiv of a certificate on region = ((sigma_lo,
    sigma_hi), (xi_lo, xi_hi)) and f_an on the xi lines.

    Raises ValueError on a degenerate region or a sigma range that leaves
    the model domain.
    """
    (s_lo, s_hi), (x_lo, x_hi) = region
    if not (s_lo < s_hi and x_lo < x_hi):
        raise ValueError("degenerate region")
    n_sig, n_xi = _CERTIFICATE_GRID
    sig = np.linspace(s_lo, s_hi, n_sig)
    if not model.domain.contains(sig).all():
        raise ValueError("sigma range extends outside the model domain")
    xiv = np.linspace(x_lo, x_hi, n_xi)
    return sig, xiv, anhysteresis_values(model, xiv)


def check_lemma1(
    model: DuhemModel,
    region: tuple[tuple[float, float], tuple[float, float]],
    epsilon: float,
) -> VerificationReport:
    """Grid certificate for the transversality margin behind the crossing
    construction.

    On a 200 x 200 grid of the rectangle region = ((sigma_lo, sigma_hi),
    (xi_lo, xi_hi)) the check requires f1(sigma, xi) > f_an'(xi) + epsilon
    wherever sigma lies above the anhysteresis curve and f2(sigma, xi) >
    f_an'(xi) + epsilon wherever sigma lies below it; f_an' is estimated by
    central differences with spacing 1e-5 * (1 + |xi|).  worst_violation is
    epsilon minus the smallest observed margin, so the report passes exactly
    when every margin reaches epsilon; a NaN field or f_an value at a grid
    node fails it.  A constant anhysteresis curve (slope below 1e-12
    everywhere, as for Dahl and Bouc-Wen) is flagged in the details.
    ValueError unless epsilon is positive and finite.
    """
    _check_positive("epsilon", epsilon)
    sig, xiv, fan = _certificate_grid(model, region)

    hstep = 1e-5 * (1.0 + np.abs(xiv))
    fan_hi = anhysteresis_values(model, xiv + hstep)
    fan_lo = anhysteresis_values(model, xiv - hstep)
    fan_slope = (fan_hi - fan_lo) / (2.0 * hstep)
    constant_fan = bool(np.all(np.abs(fan_slope) <= 1e-12))

    # margins of both branches as one (branch, sigma, xi) stack: f1 above the
    # curve, f2 below it, inf elsewhere and NaN where f_an is not a number
    S = sig[:, None]
    X = np.broadcast_to(xiv[None, :], _CERTIFICATE_GRID)
    F = np.stack([np.broadcast_to(f(S, X), _CERTIFICATE_GRID) for f in (model.f1, model.f2)])
    sides = np.stack((S > fan, S < fan))
    margin = np.where(sides, F - fan_slope, math.inf)
    nan_fan = np.isnan(fan)
    margin[:, :, nan_fan] = math.nan
    # ranked on -margin, exact, so that no two margins round together
    (b, i, j), _ = worst_point(-margin)
    worst_margin = float(margin[b, i, j])
    return VerificationReport(
        name="transversality-margin",
        worst_violation=epsilon - worst_margin,
        worst_location=(sig[i], xiv[j]),
        tolerance=0.0,
        # the nodes above or below the curve, and those where f_an is NaN
        samples_checked=sides.sum() + nan_fan.sum() * sig.size,
        details={
            "epsilon": float(epsilon),
            "worst_margin": worst_margin,
            "worst_branch": ("increasing", "decreasing")[b],
            "constant_f_an": constant_fan,
            "grid": list(_CERTIFICATE_GRID),
            "model": model.name,
        },
    )
