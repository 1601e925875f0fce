"""Closed-form references used as test oracles.

Everything here is derived by hand and kept deliberately independent of the
package implementation, so any agreement with the numeric routines is
evidence, not circularity.

Dahl (r = 1): the affine branch fields

    f1(sigma) = rho * (1 - sigma / fc)      (input rising)
    f2(sigma) = rho * (1 + sigma / fc)      (input falling)

are integrated in closed form (traversing curves, crossing point, storage,
ramp responses and the supply int y du along them).

Bouc-Wen with beta = zeta: the branch that rides toward the anhysteresis
curve y = 0 has slope f2 = alpha - beta sigma^n + zeta sigma^n = alpha above
it and f1 = alpha below it, so the traversing curve is the line
y = sigma + alpha (tau - xi) up to the crossing (boucwen_lambda_exact,
boucwen_storage_exact).

Exponential example: with f1(sigma, xi) = exp(0.5*(-1.2*sigma + xi)) + 0.83
and the anhysteresis curve xi / 1.2 (slope 5/6), the transversality margin
f1 - 5/6 is minimised over a box in closed form (exp_margin_min), and the
rounding that a central-difference estimate of the slope 5/6 picks up is
bounded from the spacing alone (central_slope_rounding).  Its fields depend
on w = xi - 1.2 sigma alone, so its storage is xi^2 / 2.4 plus an integral
in w (exp_storage_exact), taken here by numpy's Gauss-Legendre nodes on
many panels.

Besides the closed forms, earlier forms of the numerical loops are kept here
written out, as oracles of bit-for-bit rewrites: the per-step segment march
(march_per_step, simulate_per_step), the two-march crossing ride
(ride_two_marches), the two crossing refinements (illinois_passes, and
bisect_halvings, the 60 halvings it replaced, as the reference of its
tolerance), the per-xi and per-branch worst-point scans of the existence
and transversality certificates (existence_per_xi_scan,
lemma1_per_branch_scan) and the whole-trajectory loop orientation
(loop_orientation_whole).  The trapezoid supply along a trajectory
(cw_supply_integral) is the reference of the brute-force supply march.
"""

import math
from dataclasses import dataclass

import numpy as np


def traversing_exact(tau, sigma, xi, rho=1.5, fc=0.75):
    """Traversing curve through (sigma, xi) evaluated at tau.

    Right of xi the curve solves dy/dtau = f1(y), left of xi it solves
    dy/dtau = f2(y); both are linear ODEs with explicit exponential
    solutions.
    """
    tau = np.asarray(tau, dtype=float)
    k = rho / fc
    right = fc - (fc - sigma) * np.exp(-k * (tau - xi))
    left = -fc + (fc + sigma) * np.exp(k * (tau - xi))
    return np.where(tau >= xi, right, left)


def lambda_exact(sigma, xi, rho=1.5, fc=0.75):
    # abscissa where the traversing curve hits y = 0
    sigma = np.asarray(sigma, dtype=float)
    return xi + np.sign(sigma) * (fc / rho) * np.log(fc / (fc + np.abs(sigma)))


def storage_exact(sigma, rho=1.5, fc=0.75):
    # minus the branch integral from xi to lambda; u-independent
    sigma = np.asarray(sigma, dtype=float)
    a = np.abs(sigma)
    return (fc * fc / rho) * np.log(fc / (fc + a)) + (fc / rho) * a


def ramp_response_exact(u0, u1, y0, rho=1.5, fc=0.75):
    """Output after a single monotone ramp from u0 to u1 starting at y0."""
    k = rho / fc
    if u1 >= u0:
        return fc - (fc - y0) * math.exp(-k * (u1 - u0))
    return -fc + (fc + y0) * math.exp(k * (u1 - u0))


def branch_integral_exact(u0, u1, y0, rho=1.5, fc=0.75):
    """Exact int y du along one monotone ramp from u0 to u1 starting at y0.

    Rising, y = fc - (fc - y0) exp(-k (u - u0)) with k = rho / fc, so the
    integral is fc du - (fc - y0)(1 - exp(-k du)) / k; falling is its
    mirror, y = -fc + (fc + y0) exp(k (u - u0)), with integral
    -fc du + (fc + y0)(exp(k du) - 1) / k.
    """
    k = rho / fc
    du = u1 - u0
    if du >= 0.0:
        return fc * du + (fc - y0) * math.expm1(-k * du) / k
    return -fc * du + (fc + y0) * math.expm1(k * du) / k


def supply_exact(signal, y0, rho=1.5, fc=0.75):
    """Exact cumulative supply W = int y du of Dahl (r = 1) at every
    breakpoint of a piecewise-linear input, ramp by ramp."""
    y, w = float(y0), 0.0
    out = [w]
    vals = signal.values
    for i in range(len(vals) - 1):
        w += branch_integral_exact(vals[i], vals[i + 1], y, rho, fc)
        y = ramp_response_exact(vals[i], vals[i + 1], y, rho, fc)
        out.append(w)
    return np.array(out)


def extraction_exact(signal, y0, rho=1.5, fc=0.75):
    """Exact max(0, -min W) of Dahl (r = 1) along a piecewise-linear input
    from y0, W = int y du: as dW/du = y, W is smallest at a breakpoint or
    where y crosses 0 inside a ramp, at u0 + du0 with
    (fc - y0) exp(-k du0) = fc rising and (fc + y0) exp(k du0) = fc
    falling."""
    k = rho / fc
    y, w, low = float(y0), 0.0, 0.0
    vals = signal.values
    for u0, u1 in zip(vals[:-1], vals[1:]):
        y1 = ramp_response_exact(u0, u1, y, rho, fc)
        if y * y1 < 0.0:
            du0 = math.log((fc - y) / fc) / k if u1 > u0 else -math.log((fc + y) / fc) / k
            low = min(low, w + branch_integral_exact(u0, u0 + du0, y, rho, fc))
        w += branch_integral_exact(u0, u1, y, rho, fc)
        low = min(low, w)
        y = y1
    return max(0.0, -low)


def dahl_storage_exact(sigma, rho=1.5, fc=0.75, r=1.0):
    """H(sigma) = int_0^|sigma| s / (rho (1 + s / fc)^r) ds of Dahl, for
    r = 1 (`storage_exact`) and r = 3, (fc^2 / 2 rho) (1 - 1 / w)^2 at
    w = 1 + |sigma| / fc."""
    if r == 1.0:
        return storage_exact(sigma, rho, fc)
    assert r == 3.0
    w = 1.0 + np.abs(np.asarray(sigma, dtype=float)) / fc
    return fc * fc / (2.0 * rho) * (1.0 - 1.0 / w) ** 2


def simulate_exact(signal, y0, rho=1.5, fc=0.75):
    """Exact Dahl output at every breakpoint of a piecewise-linear input."""
    y = float(y0)
    out = [y]
    vals = signal.values
    for i in range(len(vals) - 1):
        y = ramp_response_exact(vals[i], vals[i + 1], y, rho, fc)
        out.append(y)
    return np.array(out)


BOUCWEN_FIXED_POINT = 0.5 ** (1.0 / 3.0)  # (alpha/(beta+zeta))^(1/n) at 1,1,1,3


def boucwen_lambda_exact(sigma, xi, alpha=1.0):
    # beta = zeta: the line sigma + alpha (tau - xi) meets y = 0 at
    return xi - sigma / alpha


def boucwen_storage_exact(sigma, alpha=1.0):
    # beta = zeta: minus the integral of that line from xi to lambda
    return sigma * sigma / (2.0 * alpha)


def exp_margin_min(region):
    """Minimum of exp(0.5*(-1.2*sigma + xi)) + 0.83 - 5/6 over a box.

    region = ((sigma_lo, sigma_hi), (xi_lo, xi_hi)).  The exponent falls in
    sigma and rises in xi, so the minimum sits at the corner
    (sigma_hi, xi_lo).  This is the increasing-branch margin f1 - f_an' of
    the exponential example; the corner must lie above the anhysteresis curve
    sigma = xi / 1.2, where that branch is the one certified.  Because
    f2(sigma, xi) = f1(-sigma, -xi), the decreasing branch attains the same
    value at the mirror corner (sigma_lo, xi_hi) when the box is symmetric
    about the origin.  Returns (margin, (sigma_hi, xi_lo)).
    """
    (_, s_hi), (x_lo, _) = region
    if not s_hi > x_lo / 1.2:
        raise ValueError("corner (sigma_hi, xi_lo) is not above the anhysteresis curve")
    margin = math.exp(0.5 * (-1.2 * s_hi + x_lo)) + 0.83 - 5.0 / 6.0
    return margin, (float(s_hi), float(x_lo))


def exp_storage_exact(sigma, xi, panels=16, nodes=24):
    """Storage of the exponential example at (sigma, xi), to rounding.

    With c = 1.2 and w = xi - c y, a traversing curve from (sigma, xi)
    obeys dw/dtau = 1 - c g(w), g the branch it rides: g1(w) = e^(w/2) +
    0.83 from below the curve (w > 0) and g2(w) = e^(-w/2) + 0.83 from above
    (w < 0), e^(|w|/2) + 0.83 on either side.  The ride ends on the curve
    y = tau / c at w = 0.  Substituting y = (tau - w) / c in the branch
    integral, its tau part integrates exactly against the curve's
    Lambda^2 / (2c), which leaves

        H = xi^2 / (2c) + (1/c) integral over [0, w0] of w / (c g(w) - 1) dw,

    w0 = xi - c sigma.  The integrand is analytic, and c g - 1 >= 1.83 c - 1
    > 1.19, so the composite rule of `nodes` Gauss-Legendre nodes
    (numpy.polynomial.legendre.leggauss) on each of `panels` equal panels
    of [0, w0] is at rounding for |w0| up to 10 and more; doubling either
    count moves it by rounding alone.
    """
    c = 1.2
    sigma, xi = np.broadcast_arrays(np.asarray(sigma, float), np.asarray(xi, float))
    w0 = xi - c * sigma
    x, wts = np.polynomial.legendre.leggauss(nodes)
    integral = np.zeros(w0.shape)
    for k in range(panels):
        w = w0[..., None] * ((k + 0.5 * (x + 1.0)) / panels)
        terms = w / (c * (np.exp(0.5 * np.abs(w)) + 0.83) - 1.0)
        integral += w0 * (terms @ (0.5 * wts)) / panels
    return xi * xi / (2.0 * c) + integral / c


def central_slope_rounding(xi):
    """Bound on the error of a margin built from the slope of xi / 1.2
    estimated by central differences with spacing h = 1e-5 * (1 + |xi|).

    The curve is linear, so the difference quotient has no truncation error;
    only rounding is left.  Each sample fl(fl(xi +- h) / 1.2) is off by at
    most ulp(|xi| + h) / (2 * 1.2) from rounding xi +- h plus
    ulp(|xi| + h) / 2 from the division, so by less than ulp(|xi| + h).  The
    two samples have the same sign and lie within a factor of 2 of each
    other for |xi| > 3h, so their difference is exact (Sterbenz), and the
    slope is off by at most 2 * ulp(|xi| + h) / (2h) = ulp(|xi| + h) / h.
    At xi = -5: h = 6e-5, ulp(5.00006) = 8.9e-16, bound 1.48e-11.  The
    remaining operations on either side (exp, + 0.83, - slope, - 5/6,
    epsilon - margin, the division by 2h) act on numbers of size at most 2
    and add less than 8 * ulp(1) = 1.8e-15.
    """
    a = abs(float(xi))
    h = 1e-5 * (1.0 + a)
    if not a > 3.0 * h:
        raise ValueError("bound derived for samples of one sign, |xi| > 3h")
    return math.ulp(a + h) / h + 8.0 * math.ulp(1.0)


# The built-in slope fields as numpy expressions, exactly as the models
# first wrote them.  The fields must return these values bit for bit, as
# Python floats for float arguments and as arrays for array arguments.

def dahl_fields_numpy(rho=1.5, fc=0.75, r=1.0):
    if r == 1.0:
        return (lambda sigma, xi: rho * (1.0 - sigma / fc),
                lambda sigma, xi: rho * (1.0 + sigma / fc))

    def f1(sigma, xi):
        z = 1.0 - sigma / fc
        return rho * np.abs(z) ** r * np.sign(z)

    def f2(sigma, xi):
        z = 1.0 + sigma / fc
        return rho * np.abs(z) ** r * np.sign(z)

    return f1, f2


def boucwen_fields_numpy(alpha=1.0, beta=1.0, zeta=1.0, n=3.0):
    def f1(sigma, xi):
        a = np.abs(sigma)
        return alpha - beta * a**n - zeta * sigma * a ** (n - 1.0)

    def f2(sigma, xi):
        a = np.abs(sigma)
        return alpha - beta * a**n + zeta * sigma * a ** (n - 1.0)

    return f1, f2


def exp_fields_numpy():
    return (lambda sigma, xi: np.exp(0.5 * (-1.2 * sigma + xi)) + 0.83,
            lambda sigma, xi: np.exp(0.5 * (1.2 * sigma - xi)) + 0.83)


def loop_areas_per_sample(model, u, y, t, lvl):
    """The loop decomposition of dissipativity.loop_areas as a per-sample
    loop: a loop closes each time u returns onto or past lvl from its
    departure side, and its area is the sum of y du over the sample
    intervals, added left to right.  Each interval's integral is the cubic
    Hermite rule written out, with the slopes of its branch (f1 rising, f2
    falling) evaluated from the model at both ends; an interval that the
    level crosses is split at the level into the integral of its cubic from
    the left end up to the level and, from the right end, down to it."""
    du = np.diff(u)
    nz = np.nonzero(du)[0]
    if nz.size == 0:
        return np.zeros(0), np.zeros(0)
    d0 = math.copysign(1.0, du[nz[0]])
    times, areas = [], []
    acc = 0.0
    on_level = u[0] == lvl
    for j in range(u.size - 1):
        a, b = float(u[j]), float(u[j + 1])
        if a == b:
            continue
        f = model.f1 if b > a else model.f2
        yl, yr = float(y[j]), float(y[j + 1])
        fl, fr = f(yl, a), f(yr, b)
        if (a < lvl <= b) if d0 > 0 else (a > lvl >= b):
            frac = (lvl - a) / (b - a)
            if on_level:
                times.append(float(t[j] + frac * (t[j + 1] - t[j])))
                areas.append(acc + _hermite_partial_integral(lvl, a, b, yl, yr, fl, fr))
            on_level = True
            acc = -_hermite_partial_integral(lvl, b, a, yr, yl, fr, fl)
        else:
            h = b - a
            acc += 0.5 * h * (yl + yr) + h * h * (fl - fr) / 12.0
    return np.asarray(times, dtype=float), np.asarray(areas, dtype=float)


def loop_orientation_whole(traj):
    """(area, t_close) of dissipativity.loop_orientation as it ran before it
    integrated from the crossing alone: every sample interval's integral of
    y du by the cubic Hermite rule (-0.0 on a held interval), from the
    slopes of the whole trajectory; the last same-direction crossing j of
    the final level splits its interval's cubic, and the area adds np.sum
    of the integrals after it (of all of them, from t[0], when the input
    starts at its final level and no crossing exists)."""
    u, y, t = traj.u, traj.y, traj.t
    f_left, f_right = traj.slope_left, traj.slope_right
    h = u[1:] - u[:-1]
    whole = 0.5 * h * (y[:-1] + y[1:]) + h * h * (f_left - f_right) / 12.0
    whole = np.where(u[:-1] == u[1:], -0.0, whole)
    ue = float(u[-1])
    du = np.diff(u)
    d_end = math.copysign(1.0, du[np.nonzero(du)[0][-1]])
    n = u.size
    hits = [
        j for j in range(n - 2)
        if du[j] != 0.0 and math.copysign(1.0, du[j]) == d_end
        and not (u[j] - ue) * (u[j + 1] - ue) > 0.0
    ]
    if hits:
        j = hits[-1]
        t_star = t[j] + (ue - u[j]) / du[j] * (t[j + 1] - t[j])
        opening = -_hermite_partial_integral(
            ue, u[j + 1], u[j], y[j + 1], y[j], f_right[j], f_left[j]
        )
        return opening + float(np.sum(whole[j + 1 :])), float(t_star)
    assert u[0] == ue
    return float(np.sum(whole)), float(t[0])


@dataclass(frozen=True, eq=False)
class SupplySeries:
    """Cumulative supply integral W(t) = int y du along a trajectory, and
    its running minimum."""

    t: np.ndarray
    values: np.ndarray
    running_min: np.ndarray


def cw_supply_integral(traj):
    """Trapezoid cumulative supply along a simulated trajectory: W starts
    at 0 and adds 0.5 (y_k + y_k+1) (u_k+1 - u_k) in order."""
    inc = 0.5 * (traj.y[:-1] + traj.y[1:]) * np.diff(traj.u)
    w = np.concatenate([[0.0], np.cumsum(inc)])
    return SupplySeries(t=traj.t, values=w, running_min=np.minimum.accumulate(w))


def simulate_mech_closure(params, init, horizon, step):
    """The friction march of mechsim.simulate_mech with its RK4 step built
    from a per-call derivative closure and stage tuples.

    Returns the sample times, the states x1, x2, x3 up to the last sample
    inside the band (-fc, fc) and, when the march leaves the band, the index
    and state (x1, x3) of the first sample outside it; otherwise None.
    """
    m, d, k, rho, fc = params.m, params.d, params.k, params.rho, params.fc

    def rk4(x1, x2, x3, h):
        def deriv(a, b, c):
            db = -(k * a + d * b + c) / m
            if b >= 0.0:
                dc = rho * (1.0 - c / fc) * b
            else:
                dc = rho * (1.0 + c / fc) * b
            return b, db, dc

        k1 = deriv(x1, x2, x3)
        k2 = deriv(x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1], x3 + 0.5 * h * k1[2])
        k3 = deriv(x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1], x3 + 0.5 * h * k2[2])
        k4 = deriv(x1 + h * k3[0], x2 + h * k3[1], x3 + h * k3[2])
        s = h / 6.0
        return (
            x1 + s * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            x2 + s * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            x3 + s * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        )

    n = max(1, int(round(horizon / step)))
    h = horizon / n
    t = np.linspace(0.0, horizon, n + 1)
    states = [(float(init.x1), float(init.x2), float(init.x3))]
    for j in range(1, n + 1):
        a, b, c = states[-1]
        na, nb, nc = rk4(a, b, c, h)
        if nb * b < 0.0:
            ha, hb, hc = rk4(a, b, c, 0.5 * h)
            na, nb, nc = rk4(ha, hb, hc, 0.5 * h)
        if abs(nc) >= fc:
            x1, x2, x3 = (np.array(v) for v in zip(*states))
            return t, x1, x2, x3, (j, na, nc)
        states.append((na, nb, nc))
    x1, x2, x3 = (np.array(v) for v in zip(*states))
    return t, x1, x2, x3, None


def march_per_step(f, y, ua, ub, n, lo, hi):
    """The scalar segment march one node at a time, as core._march_segment
    first wrote it: node u_k = ua + k*h (u_n = ub), the RK4 step written
    out, and every field value and RK4 result passed through float().

    Returns the nodes, outputs and node slopes from the start node on, and
    the output of the first substep outside lo < y < hi, or None.
    """
    h = (ub - ua) / n
    half, sixth = 0.5 * h, h / 6.0
    u = ua
    k1 = float(f(y, u))
    us, ys, ks = [u], [y], [k1]
    for k in range(1, n + 1):
        k2 = float(f(y + half * k1, u + half))
        k3 = float(f(y + half * k2, u + half))
        k4 = float(f(y + h * k3, u + h))
        y = float(y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not lo < y < hi:
            return us, ys, ks, y
        u = ua + k * h if k < n else ub
        k1 = float(f(y, u))
        us.append(u)
        ys.append(y)
        ks.append(k1)
    return us, ys, ks, None


def substeps(du, step):
    """Substep count of a segment of input change du: the simulate rule."""
    return max(1, int(math.ceil(abs(du) / step)))


def simulate_per_step(model, signal, y0, step):
    """core.simulate sample by sample on `march_per_step`: times
    t0 + (u - ua) * inv_rate inside a segment and t1 at its end, a held
    output on segments with no input change.

    Returns (t, u, y) lists and None, or, when a substep leaves the
    domain, the samples before it and the exit (t, u, y) of that substep.
    """
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    ts, us, ys = [float(signal.times[0])], [float(signal.values[0])], [float(y0)]
    for j in range(len(signal.times) - 1):
        t0, t1 = float(signal.times[j]), float(signal.times[j + 1])
        ua, ub = float(signal.values[j]), float(signal.values[j + 1])
        du = ub - ua
        if du == 0.0:
            ts.append(t1)
            us.append(ub)
            ys.append(ys[-1])
            continue
        n = substeps(du, step)
        f = model.f1 if du > 0.0 else model.f2
        nodes, outs, _, y_exit = march_per_step(f, ys[-1], ua, ub, n, lo, hi)
        inv_rate = (t1 - t0) / du
        if y_exit is not None:
            k = len(nodes)
            u = ua + k * (du / n) if k < n else ub
            t = t1 if k == n else t0 + (u - ua) * inv_rate
            return ts, us, ys, (t, u, y_exit)
        ts.extend(t0 + (u - ua) * inv_rate for u in nodes[1:-1])
        ts.append(t1)
        us.extend(nodes[1:])
        ys.extend(outs[1:])
    return ts, us, ys, None


def _hermite_eval(x, xL, xR, yL, yR, fL, fR):
    h = xR - xL
    s = (x - xL) / h
    s2 = s * s
    s3 = s2 * s
    return (yL * (2.0 * s3 - 3.0 * s2 + 1.0) + h * fL * (s3 - 2.0 * s2 + s)
            + yR * (-2.0 * s3 + 3.0 * s2) + h * fR * (s3 - s2))


def _hermite_partial_integral(x, xL, xR, yL, yR, fL, fR):
    h = xR - xL
    s = (x - xL) / h
    s2 = s * s
    s3 = s2 * s
    s4 = s2 * s2
    return h * (yL * (0.5 * s4 - s3 + s) + h * fL * (0.25 * s4 - (2.0 / 3.0) * s3 + 0.5 * s2)
                + yR * (-0.5 * s4 + s3) + h * fR * (0.25 * s4 - s3 / 3.0))


def bisect_halvings(g, a, b, halvings=60):
    """Crossings in brackets [a, b] by `halvings` vector bisections, as the
    crossing refinement ran before its regula falsi: a halving with
    g(a) g(mid) <= 0 moves b, any other moves a; the crossing is the final
    midpoint."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    ga = g(a)
    for _ in range(halvings):
        mid = 0.5 * (a + b)
        gm = g(mid)
        left = ga * gm <= 0.0
        b = np.where(left, mid, b)
        a = np.where(left, a, mid)
        ga = np.where(left, ga, gm)
    return 0.5 * (a + b)


def illinois_passes(g, a, b, passes=8):
    """Crossings in brackets [a, b] by `passes` passes of Illinois regula
    falsi (Dowell and Jarratt 1971), lane by lane on scalars (g is the
    vector residual; lane k reads entry k of g at a constant array).

    The bracket is a retained end r (from a) with its residual gr and its
    Illinois weight wr, and the latest point p (from b).  A pass takes the
    secant point of (r, wr) and (p, g(p)), or the midpoint where that point
    is not strictly inside (r, p) in either order; a zero residual there
    makes it both ends, a residual of the other sign from g(p) (or a zero
    g(p)) makes p the retained end, and otherwise the retained end's weight
    halves.  The crossing is the end with the smaller |residual|, r on a
    tie.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    g_a, g_b = g(a), g(b)
    out = np.empty(a.size)
    with np.errstate(all="ignore"):
        for k in range(a.size):
            lane = lambda s: float(g(np.full(a.size, s))[k])
            r, p, gr, gp = a[k], b[k], g_a[k], g_b[k]
            wr = gr
            for _ in range(passes):
                x = p - gp * (p - r) / (gp - wr)
                lo, hi = (r, p) if r < p else (p, r)
                if not lo < x < hi:
                    x = 0.5 * (r + p)
                gx = lane(x)
                if gx == 0.0:
                    r, gr, wr = x, gx, gx
                elif gp * gx <= 0.0:
                    r, gr, wr = p, gp, gp
                else:
                    wr = 0.5 * wr
                p, gp = x, gx
            out[k] = p if abs(gp) < abs(gr) else r
    return out


def ride_two_marches(model, sigma, xi, step, refine=illinois_passes):
    """The crossing ride of curves.ride_to_crossing as it ran before odd
    models rode one reflected march: the lanes above the anhysteresis curve
    (side residual f_an(xi) - sigma, or F without f_an, below 0) march f2
    leftward with step -step and the lanes below it f1 rightward, each side
    in its own lockstep march until the residual reaches the other side.
    Each lane's crossing step is refined by `refine(g, tA, tB)` on the
    step's cubic Hermite model (8 regula falsi passes, or bisect_halvings
    for the refinement before them), and its integral is the exact integral
    of those models from xi.  RK4, the Hermite pieces and the refinements
    are written out with the operations of the package, without its code.

    Returns lam, y_at, integral and steps per lane; a point on the curve
    keeps lam = xi and y_at = sigma.
    """
    sigma = np.asarray(sigma, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if model.f_an is None:
        side = lambda y, t: 0.5 * (model.f1(y, t) - model.f2(y, t))
    else:
        side = lambda y, t: model.f_an(t) - y
    c0 = side(sigma, xi)
    lam, y_at = xi.copy(), sigma.copy()
    integral = np.zeros(sigma.size)
    steps = np.zeros(sigma.size, dtype=int)
    for lanes, f, h in ((c0 < 0.0, model.f2, -step), (c0 > 0.0, model.f1, step)):
        k = np.flatnonzero(lanes)
        y, t = sigma[k], xi[k]
        fy = f(y, t)
        acc = np.zeros(k.size)
        n_step = 0
        while k.size:
            n_step += 1
            if n_step > 2**21:
                raise RuntimeError("no crossing within 2**21 steps")
            t_new = t + h
            k2 = f(y + 0.5 * h * fy, t + 0.5 * h)
            k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
            k4 = f(y + h * k3, t_new)
            y_new = y + h / 6.0 * (fy + 2.0 * k2 + 2.0 * k3 + k4)
            f_new = f(y_new, t_new)
            c = side(y_new, t_new)
            crossed = (c >= 0.0) if h < 0.0 else (c <= 0.0)
            if crossed.any():
                bracket = [v[crossed] for v in (t, t_new, y, y_new, fy, f_new)]
                g = lambda s: side(_hermite_eval(s, *bracket), s)
                kc = k[crossed]
                lam[kc] = refine(g, bracket[0], bracket[1])
                y_at[kc] = _hermite_eval(lam[kc], *bracket)
                integral[kc] = acc[crossed] + _hermite_partial_integral(lam[kc], *bracket)
                steps[kc] = n_step
            dt = t_new - t
            acc = acc + (0.5 * dt * (y + y_new) + dt * dt * (fy - f_new) / 12.0)
            keep = ~crossed
            k, acc, y, t, fy = k[keep], acc[keep], y_new[keep], t_new[keep], f_new[keep]
    return lam, y_at, integral, steps


def existence_per_xi_scan(model, sig, xiv, lambda_bound):
    """core.check_existence_conditions as it scanned before one array held
    every xi and branch: for each xi in turn, the increasing then the
    decreasing branch, the first largest excess of the (sigma1, sigma2)
    matrix, kept only if it beats the worst so far; the first NaN in this
    order is the worst, as in `report.worst_point`.

    Returns the worst excess, its (sigma1, sigma2, xi) and the branch name.
    """
    ds = sig[:, None] - sig[None, :]
    off = sig[:, None] != sig[None, :]
    worst = -math.inf
    worst_loc = (sig[0], sig[0], xiv[0])
    worst_kind = ""
    for xi in xiv:
        xi_col = np.full_like(sig, xi)
        v1 = np.asarray(model.f1(sig, xi_col), dtype=float)
        v2 = np.asarray(model.f2(sig, xi_col), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            q1 = (v1[:, None] - v1[None, :]) / ds
            q2 = (v2[:, None] - v2[None, :]) / ds
        e1 = np.where(off, q1 - lambda_bound, -math.inf)
        e2 = np.where(off, -lambda_bound - q2, -math.inf)
        for kind, e in (("increasing-branch", e1), ("decreasing-branch", e2)):
            i, j = np.unravel_index(np.argmax(e), e.shape)
            if not math.isnan(worst) and not e[i, j] <= worst:
                worst = float(e[i, j])
                worst_loc = (float(sig[i]), float(sig[j]), float(xi))
                worst_kind = kind
    return worst, worst_loc, worst_kind


def lemma1_per_branch_scan(model, region, epsilon, grid=(200, 200)):
    """curves.check_lemma1 as it scanned before one stack held both
    branches, for a model with a declared f_an: the f1 margins above the
    curve, then the f2 margins below it, each searched for its first
    smallest entry, the second kept only if strictly smaller.

    Returns epsilon minus the worst margin, the worst margin, its
    (sigma, xi), the branch name and the number of points checked.
    """
    (s_lo, s_hi), (x_lo, x_hi) = region
    sig = np.linspace(s_lo, s_hi, grid[0])
    xiv = np.linspace(x_lo, x_hi, grid[1])
    f_an = lambda x: np.broadcast_to(np.asarray(model.f_an(x), dtype=float), x.shape)
    fan = f_an(xiv)
    hstep = 1e-5 * (1.0 + np.abs(xiv))
    fan_slope = (f_an(xiv + hstep) - f_an(xiv - hstep)) / (2.0 * hstep)
    S = sig[:, None]
    X = np.broadcast_to(xiv[None, :], grid)
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
    samples = int(above.sum() + below.sum())
    return epsilon - worst_margin, worst_margin, worst_loc, worst_branch, samples
