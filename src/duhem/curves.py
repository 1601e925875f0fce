"""Anhysteresis and traversing-curve machinery.

The anhysteresis curve of a Duhem operator is the locus where the increasing
and decreasing slope fields agree (F = (f1 - f2)/2 = 0).  Through any phase
point (sigma, xi) runs a traversing curve: the solution of dy/dtau = f1 to
the right of xi and dy/dtau = f2 to the left.  Under a transversality margin
(the slope fields strictly dominate the anhysteresis slope on the relevant
side) each traversing curve meets the anhysteresis curve exactly once; the
intersection abscissa is what the storage construction integrates to.

The crossing search marches the branch ODE with the same fixed-step RK4 as
the simulator, watches the sign of F along the ride (F vanishes exactly on
the anhysteresis curve, so no per-step root solve is needed), and sets aside
each lane's bracketing step.  Once every lane has crossed, one vector
bisection on the brackets' cubic Hermite models refines all crossings at
once (event location on dense output).  The march is vectorized so a whole
trajectory's worth of phase points rides in lockstep; scalar operations use
batch size one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import DuhemModel
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
from .report import VerificationReport

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
    domain; both indicate the transversality hypotheses fail along the ride.
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


def anhysteresis(model: DuhemModel, xi: float, *, ftol: float = 1e-10) -> float:
    """Output value sigma* at which f1(sigma*, xi) = f2(sigma*, xi).

    Uses the model's declared anhysteresis function when present; otherwise
    brackets the root of F(., xi) by geometric expansion from sigma = 0
    (clipped to the model domain) and bisects until |F| <= ftol.
    """
    xi = float(xi)
    if model.f_an is not None:
        sigma = float(model.f_an(xi))
    else:
        g = lambda s: float(model.F(s, xi))
        lo, hi = _domain_search_limits(model)
        a, b = expand_bracket(g, 0.0, 1.0 + abs(xi), lo_limit=lo, hi_limit=hi)
        sigma = a if a == b else bisect(g, a, b, ftol=ftol)
    res = abs(float(model.F(sigma, xi)))
    if res > max(ftol, 1e-9):
        raise ValueError(
            f"anhysteresis residual {res:.3e} exceeds tolerance at xi={xi}"
        )
    return sigma


def anhysteresis_values(
    model: DuhemModel,
    xi: np.ndarray,
    *,
    ftol: float = 1e-10,
    max_doublings: int = 60,
) -> np.ndarray:
    """Vectorized anhysteresis evaluation used by grid checks and rides."""
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
    lo = np.maximum(-w, lo_lim)
    hi = np.minimum(w, hi_lim)
    for _ in range(max_doublings + 1):
        glo = g(lo)
        ghi = g(hi)
        ok = (glo * gc <= 0.0) | (ghi * gc <= 0.0) | (gc == 0.0)
        if ok.all():
            break
        w = np.where(ok, w, 2.0 * w)
        lo = np.maximum(-w, lo_lim)
        hi = np.minimum(w, hi_lim)
    else:
        raise BracketError("anhysteresis bracket expansion budget exhausted")
    # pick the side of 0 that brackets the sign change
    use_lo = g(lo) * gc <= 0.0
    a = np.where(gc == 0.0, zero, np.where(use_lo, lo, zero))
    b = np.where(gc == 0.0, zero, np.where(use_lo, zero, hi))
    return bisect_on_interval_vec(g, a, b, iters=80)


@dataclass(frozen=True, eq=False)
class TraversingCurve:
    """Sampled traversing curve through `origin` with C^1 interpolation.

    Node arrays run in ascending tau and include the origin; dydtau holds
    the branch slope at each node (f2 left of the origin, f1 at and right
    of it).  Calling the object evaluates the piecewise cubic Hermite
    interpolant.  The truncation flags record that a branch stopped early
    because it reached the domain boundary.
    """

    origin: PhasePoint
    tau: np.ndarray
    y: np.ndarray
    dydtau: np.ndarray
    left_truncated: bool = False
    right_truncated: bool = False
    model_name: str = ""

    def __post_init__(self):
        for name in ("tau", "y", "dydtau"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.tau.size < 1 or self.tau.size != self.y.size:
            raise ValueError("inconsistent node arrays")
        if self.tau.size > 1 and not (np.diff(self.tau) > 0.0).all():
            raise ValueError("tau nodes must be strictly increasing")

    @property
    def tau_min(self) -> float:
        return float(self.tau[0])

    @property
    def tau_max(self) -> float:
        return float(self.tau[-1])

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
        out = hermite_eval(
            t,
            self.tau[i],
            self.tau[i + 1],
            self.y[i],
            self.y[i + 1],
            self.dydtau[i],
            self.dydtau[i + 1],
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
    """Guarded fixed-step march of one branch; stops at domain exit."""
    span = tau_stop - xi
    if span == 0.0:
        return (
            np.array([xi]),
            np.array([sigma]),
            np.array([float(f(sigma, xi))]),
            False,
        )
    n = max(1, int(math.ceil(abs(span) / step)))
    h = span / n
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    taus = [xi]
    ys = [sigma]
    fs = [float(f(sigma, xi))]
    y = sigma
    truncated = False
    for k in range(1, n + 1):
        t_prev = xi + (k - 1) * h
        y_new = float(rk4_step(f, y, t_prev, h))
        if not (lo < y_new < hi):
            truncated = True
            break
        t_new = tau_stop if k == n else xi + k * h
        taus.append(t_new)
        ys.append(y_new)
        fs.append(float(f(y_new, t_new)))
        y = y_new
    return np.array(taus), np.array(ys), np.array(fs), truncated


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
    extrapolated.
    """
    if not (tau_min <= p.xi <= tau_max):
        raise ValueError("need tau_min <= p.xi <= tau_max")
    if not bool(model.domain.contains(p.sigma, p.xi)):
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
        model_name=model.name,
    )


@dataclass(frozen=True, eq=False)
class CrossingResult:
    """Batch result of riding traversing branches to the anhysteresis curve."""

    lam: np.ndarray       # intersection abscissa per point
    y_at: np.ndarray      # branch value at the intersection
    integral: np.ndarray  # signed integral of the branch from xi to lam
    steps: np.ndarray     # RK4 steps used per point


def _march_to_crossing(
    model: DuhemModel,
    f: Callable,
    y0: np.ndarray,
    tau0: np.ndarray,
    c0: np.ndarray,
    h: float,
    max_steps: int,
    refine_iters: int,
):
    """March dy/dtau = f from (y0, tau0) with signed step h until the sign
    of F flips relative to c0; returns per-element crossing data.

    The march only detects crossings: each lane's bracketing step and the
    integral accumulated before it are set aside, and after the march all
    brackets are refined together in one vector bisection on their cubic
    Hermite models.  Every operation is elementwise, so a lane's result does
    not depend on which other lanes share the batch.
    """
    n = y0.size
    idx = np.arange(n)
    y = y0.astype(float).copy()
    tau = tau0.astype(float).copy()
    c_start = c0.astype(float).copy()
    fcur = np.asarray(f(y, tau), dtype=float)
    acc = np.zeros(n)
    steps = np.zeros(n, dtype=int)
    # per crossing step: lane indices, bracket (tA, tB, yA, yB, fA, fB), acc
    stash = []

    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    guarded = model.domain.bounded

    for it in range(1, max_steps + 1):
        if idx.size == 0:
            break
        k1 = fcur
        k2 = np.asarray(f(y + 0.5 * h * k1, tau + 0.5 * h), dtype=float)
        k3 = np.asarray(f(y + 0.5 * h * k2, tau + 0.5 * h), dtype=float)
        k4 = np.asarray(f(y + h * k3, tau + h), dtype=float)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tau_new = tau + h
        if guarded and not ((y_new > lo) & (y_new < hi)).all():
            bad = ~((y_new > lo) & (y_new < hi))
            raise CrossingSearchError(
                f"{int(bad.sum())} traversing branch(es) left the domain "
                f"before meeting the anhysteresis curve (first at tau="
                f"{tau_new[bad][0]:.6g})"
            )
        f_new = np.asarray(f(y_new, tau_new), dtype=float)
        c_new = np.asarray(model.F(y_new, tau_new), dtype=float)
        crossed = c_new * c_start <= 0.0

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
        acc = acc[keep] + hermite_integral(
            tau[keep], tau_new[keep], y[keep], y_new[keep], fcur[keep], f_new[keep]
        )
        idx = idx[keep]
        y = y_new[keep]
        tau = tau_new[keep]
        fcur = f_new[keep]
        c_start = c_start[keep]

    if idx.size:
        raise CrossingSearchError(
            f"{idx.size} traversing branch(es) did not meet the anhysteresis "
            f"curve within {max_steps} steps of size {abs(h):.3g} "
            "(transversality hypotheses violated or budget too small)"
        )

    hit, tA, tB, yA, yB, fA, fB, acc = (np.concatenate(a) for a in zip(*stash))

    def residual(s):
        return np.asarray(
            model.F(hermite_eval(s, tA, tB, yA, yB, fA, fB), s), dtype=float
        )

    lam_c = bisect_on_interval_vec(residual, tA, tB, iters=refine_iters)
    lam = np.empty(n)
    y_at = np.empty(n)
    integral = np.empty(n)
    lam[hit] = lam_c
    y_at[hit] = hermite_eval(lam_c, tA, tB, yA, yB, fA, fB)
    integral[hit] = acc + hermite_partial_integral(lam_c, tA, tB, yA, yB, fA, fB)
    return lam, y_at, integral, steps


def ride_to_crossing(
    model: DuhemModel,
    sigma: np.ndarray,
    xi: np.ndarray,
    *,
    step: float = 1e-3,
    max_doublings: int = 60,
    refine_iters: int = 60,
) -> CrossingResult:
    """Ride traversing branches from (sigma_k, xi_k) to the anhysteresis curve.

    Points at or above the curve ride the decreasing branch (f2) leftward,
    points below ride the increasing branch (f1) rightward; this matches the
    direction in which the intersection is guaranteed to lie.  Returns the
    intersection abscissas, branch values there (equal to the anhysteresis
    value up to refinement error) and the signed branch integrals from xi to
    the intersection.

    The search budget is geometric in spirit: the ride may extend to a span
    of (1 + |xi|) doubled up to `max_doublings` times, subject to a hard cap
    of 2**21 steps, after which a CrossingSearchError is raised.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if sigma.shape != xi.shape or sigma.ndim != 1:
        raise ValueError("sigma and xi must be 1-d arrays of equal length")
    if not np.asarray(model.domain.contains(sigma, xi)).all():
        raise ValueError("phase points outside model domain")

    n = sigma.size
    lam = xi.copy()
    y_at = sigma.copy()
    integral = np.zeros(n)
    steps = np.zeros(n, dtype=int)

    fan = anhysteresis_values(model, xi)
    c0 = np.asarray(model.F(sigma, xi), dtype=float)
    on_curve = c0 == 0.0
    above = (sigma >= fan) & ~on_curve
    below = (sigma < fan) & ~on_curve

    span_limit = (1.0 + float(np.abs(xi).max())) * 2.0 ** min(max_doublings, 21)
    max_steps = int(min(math.ceil(span_limit / step), 2**21))

    for mask, f, direction in ((above, model.f2, -1.0), (below, model.f1, 1.0)):
        if not mask.any():
            continue
        res = _march_to_crossing(
            model,
            f,
            sigma[mask],
            xi[mask],
            c0[mask],
            direction * step,
            max_steps,
            refine_iters,
        )
        lam[mask], y_at[mask], integral[mask], steps[mask] = res

    return CrossingResult(lam=lam, y_at=y_at, integral=integral, steps=steps)


def intersect_lambda(
    model: DuhemModel,
    p: PhasePoint,
    *,
    step: float = 1e-3,
    residual_tol: float = 1e-9,
    max_doublings: int = 60,
) -> float:
    """Abscissa where the traversing curve through p meets the anhysteresis
    curve.

    The search direction follows the sign of sigma - f_an(xi): at or above
    the curve the intersection lies at u* <= xi, below it at u* > xi.  The
    returned u* satisfies |omega(u*) - f_an(u*)| <= residual_tol, where
    omega is the traversing branch; a CrossingSearchError means no crossing
    was found within the expansion budget.
    """
    res = ride_to_crossing(
        model,
        np.array([p.sigma]),
        np.array([p.xi]),
        step=step,
        max_doublings=max_doublings,
        refine_iters=80,
    )
    lam = float(res.lam[0])
    fan_at = anhysteresis(model, lam)
    mismatch = abs(float(res.y_at[0]) - fan_at)
    if mismatch > residual_tol:
        raise CrossingSearchError(
            f"crossing refinement stalled: |omega - f_an| = {mismatch:.3e} "
            f"> {residual_tol:.1e} at u* = {lam:.6g}"
        )
    return lam


def check_lemma1(
    model: DuhemModel,
    region: tuple[tuple[float, float], tuple[float, float]],
    epsilon: float,
    grid: tuple[int, int] = (200, 200),
) -> VerificationReport:
    """Grid certificate for the transversality margin behind the crossing
    construction.

    On the rectangle region = ((sigma_lo, sigma_hi), (xi_lo, xi_hi)) the
    check requires f1(sigma, xi) > f_an'(xi) + epsilon wherever sigma lies
    above the anhysteresis curve and f2(sigma, xi) > f_an'(xi) + epsilon
    wherever sigma lies below it; f_an' is estimated by central differences
    with spacing 1e-5 * (1 + |xi|).  worst_violation is epsilon minus the
    smallest observed margin, so the report passes exactly when every margin
    reaches epsilon.  A constant anhysteresis curve (slope below 1e-12
    everywhere, as for Dahl and Bouc-Wen) is flagged in the details.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    (s_lo, s_hi), (x_lo, x_hi) = region
    if not (s_lo < s_hi and x_lo < x_hi):
        raise ValueError("degenerate region")
    n_sig, n_xi = grid
    sig = np.linspace(s_lo, s_hi, n_sig)
    if not model.domain.contains(sig).all():
        raise ValueError("sigma range extends outside the model domain")
    xiv = np.linspace(x_lo, x_hi, n_xi)

    hstep = 1e-5 * (1.0 + np.abs(xiv))
    fan = anhysteresis_values(model, xiv)
    fan_hi = anhysteresis_values(model, xiv + hstep)
    fan_lo = anhysteresis_values(model, xiv - hstep)
    fan_slope = (fan_hi - fan_lo) / (2.0 * hstep)
    constant_fan = bool(np.all(np.abs(fan_slope) <= 1e-12))

    S = sig[:, None]
    X = np.broadcast_to(xiv[None, :], (n_sig, n_xi))
    F1 = np.asarray(model.f1(S, X), dtype=float)
    F2 = np.asarray(model.f2(S, X), dtype=float)
    above = S > fan[None, :]
    below = S < fan[None, :]

    margin1 = np.where(above, F1 - fan_slope[None, :], math.inf)
    margin2 = np.where(below, F2 - fan_slope[None, :], math.inf)
    worst_margin = math.inf
    worst_loc = (float(sig[0]), float(xiv[0]))
    worst_branch = ""
    for branch, m in (("increasing", margin1), ("decreasing", margin2)):
        i, j = np.unravel_index(np.argmin(m), m.shape)
        if m[i, j] < worst_margin:
            worst_margin = float(m[i, j])
            worst_loc = (float(sig[i]), float(xiv[j]))
            worst_branch = branch
    return VerificationReport.from_violation(
        name="transversality-margin",
        worst_violation=epsilon - worst_margin,
        worst_location=worst_loc,
        tolerance=0.0,
        samples_checked=int(above.sum() + below.sum()),
        details={
            "epsilon": float(epsilon),
            "worst_margin": worst_margin,
            "worst_branch": worst_branch,
            "constant_f_an": constant_fan,
            "grid": [int(n_sig), int(n_xi)],
            "model": model.name,
        },
    )
