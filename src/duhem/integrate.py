"""Shared numerical kernels: fixed-step RK4, cubic Hermite tools, adaptive
Simpson quadrature, the Gauss-Legendre rule, bracketed bisection and a
vector bracketed root finder (Illinois regula falsi).

Everything here is a pure function of its arguments.  The RK4 and Hermite
routines accept either Python floats or numpy arrays and operate elementwise,
which lets the curve/storage machinery run one point or a whole batch of
points through the same code path.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .report import _check_positive

__all__ = [
    "QuadratureError",
    "BracketError",
    "rk4_step",
    "hermite_eval",
    "hermite_integral",
    "hermite_partial_integral",
    "adaptive_simpson",
    "gauss_legendre",
    "bisect",
    "expand_bracket",
    "bisect_on_interval_vec",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within the depth budget."""


class BracketError(RuntimeError):
    """No sign change found within the bracket expansion budget."""


def rk4_step(f, y, k1, xm, xh, half, h, sixth):
    """Classical RK4 step for dy/dx = f(y, x) from (y, x) with start slope
    k1 = f(y, x), given its stage inputs: xm = x + half and xh = x + h at
    half = 0.5 * h, and sixth = h / 6.0.

    The caller computes the stage inputs, so a march that holds h fixed
    computes half and sixth once, and a lockstep march can compute all of
    them for a block of substeps before it runs them.  `h` may be negative
    (backward march) and, in batch use, an array with zero entries for
    frozen elements.
    """
    k2 = f(y + half * k1, xm)
    k3 = f(y + half * k2, xm)
    k4 = f(y + h * k3, xh)
    return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- cubic Hermite pieces ---------------------------------------------------
#
# A node table (x_i, y_i, f_i) with f_i = y'(x_i) defines a C^1 piecewise
# cubic.  With s = (x - xL)/h in [0, 1] the basis is
#   h00 = 2s^3 - 3s^2 + 1,  h10 = s^3 - 2s^2 + s,
#   h01 = -2s^3 + 3s^2,     h11 = s^3 - s^2.


def hermite_eval(x, xL, xR, yL, yR, fL, fR):
    """Evaluate the cubic Hermite interpolant of one interval (elementwise)."""
    h = xR - xL
    s = (x - xL) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return yL * h00 + h * fL * h10 + yR * h01 + h * fR * h11


def hermite_integral(xL, xR, yL, yR, fL, fR):
    """Exact integral of the cubic Hermite interpolant over its interval.

    Equals the trapezoid rule plus the endpoint-slope correction
    h^2 (fL - fR) / 12; the correction makes the rule 4th-order accurate on
    smooth integrands, matching the RK4 node accuracy.
    """
    h = xR - xL
    return 0.5 * h * (yL + yR) + h * h * (fL - fR) / 12.0


def hermite_partial_integral(x, xL, xR, yL, yR, fL, fR):
    """Integral of the cubic Hermite interpolant from xL to x (elementwise)."""
    h = xR - xL
    s = (x - xL) / h
    s2 = s * s
    s3 = s2 * s
    s4 = s2 * s2
    i00 = 0.5 * s4 - s3 + s
    i10 = 0.25 * s4 - (2.0 / 3.0) * s3 + 0.5 * s2
    i01 = -0.5 * s4 + s3
    i11 = 0.25 * s4 - s3 / 3.0
    return h * (yL * i00 + h * fL * i10 + yR * i01 + h * fR * i11)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and weights of the n-point Gauss-Legendre rule on
    [-1, 1], exact for polynomials of degree up to 2n - 1.

    Newton's method on the Legendre polynomial P_n, evaluated by its
    three-term recurrence, from the guesses cos(pi (k - 1/4) / (n + 1/2));
    the weights are 2 / ((1 - x^2) P_n'(x)^2).  Ten passes are more than
    the quadratic convergence from those guesses needs.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, q = x, np.ones(n)  # P_k(x) and P_(k-1)(x), from k = 1
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        dp = n * (x * p - q) / (x * x - 1.0)  # P_n'(x)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def adaptive_simpson(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_depth: int = 40,
) -> float:
    """Adaptive composite Simpson quadrature of g over [a, b].

    `tol` is an absolute tolerance on the whole interval; b < a is allowed
    and flips the sign.  Raises ValueError unless tol is positive and
    finite (an infinite one accepts the first Simpson step), and
    QuadratureError when the recursion depth budget is exhausted before the
    local error estimate falls below the local tolerance share.
    """
    _check_positive("tol", tol)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def simpson(x0, x2, g0, g1, g2):
        return (x2 - x0) / 6.0 * (g0 + 4.0 * g1 + g2)

    def recurse(x0, x2, g0, g1, g2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        gl = float(g(xl))
        gr = float(g(xr))
        left = simpson(x0, xm, g0, gl, g1)
        right = simpson(xm, x2, g1, gr, g2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive Simpson did not converge on [{x0}, {x2}] "
                f"(error estimate {abs(err) / 15.0:.3e} > {tol:.3e})"
            )
        half = 0.5 * tol
        return recurse(x0, xm, g0, gl, g1, left, half, depth + 1) + recurse(
            xm, x2, g1, gr, g2, right, half, depth + 1
        )

    mid = 0.5 * (a + b)
    ga = float(g(a))
    gm = float(g(mid))
    gb = float(g(b))
    whole = simpson(a, b, ga, gm, gb)
    return sign * recurse(a, b, ga, gm, gb, whole, tol, 0)


def bisect(
    g: Callable[[float], float],
    a: float,
    b: float,
    *,
    ftol: float = 0.0,
) -> float:
    """Bisection root of g on [a, b]; the endpoints must bracket a sign change.

    Stops as soon as |g(mid)| <= ftol, at floating-point interval collapse,
    or after 200 halvings.
    """
    ga = float(g(a))
    gb = float(g(b))
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0.0:
        raise BracketError(f"no sign change on [{a}, {b}]: g(a)={ga}, g(b)={gb}")
    for _ in range(200):
        mid = 0.5 * (a + b)
        gm = float(g(mid))
        if abs(gm) <= ftol or mid == a or mid == b:
            return mid
        if ga * gm <= 0.0:
            b, gb = mid, gm
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def expand_bracket(
    g: Callable[[float], float],
    center: float,
    width0: float,
    *,
    lo_limit: float = -math.inf,
    hi_limit: float = math.inf,
):
    """Find [a, b] with a sign change of g by geometric expansion around center.

    The half-width starts at width0 and doubles up to 60 times, clipped to
    (lo_limit, hi_limit).  Returns the bracketing interval.
    """
    gc = float(g(center))
    if gc == 0.0:
        return center, center
    w = width0
    for _ in range(61):
        a = max(center - w, lo_limit)
        b = min(center + w, hi_limit)
        if float(g(a)) * gc <= 0.0:
            return a, center
        if float(g(b)) * gc <= 0.0:
            return center, b
        if a == lo_limit and b == hi_limit:
            break
        w *= 2.0
    raise BracketError(
        f"no sign change within expansion budget around {center} "
        f"(final half-width {w / 2.0:.3e})"
    )


def bisect_on_interval_vec(g, a, b, iters: int):
    """Roots of g in per-element brackets [a_k, b_k] by `iters` passes of
    Illinois-modified regula falsi (Dowell and Jarratt, BIT 11, 1971).

    g maps an array of abscissas to an array of residuals; every bracket
    must hold a sign change (g(a) and g(b) of opposite sign, zeros allowed;
    a and b in either order).  The bracket is kept as its retained end r
    (first a) and its latest point p (first b).  Each pass
      - takes the secant point x of (r, fr) and (p, g(p)), where fr is
        g(r) halved once for every pass in a row that kept r (the Illinois
        modification), or the midpoint where x is not strictly inside;
      - keeps p as the retained end if g(p) g(x) <= 0 and r otherwise, and
        makes x the latest point;
      - collapses the bracket onto x where g(x) is exactly 0.
    Returns the end with the smaller |g| (r on a tie); where every residual
    is NaN (as on a Hermite bracket of zero width) that is a.  A pass that
    leaves every r and p unchanged, bit for bit, ends the passes early: its
    x was a midpoint that rounded to p, so no float lies strictly inside
    any bracket, every later pass takes the same midpoint, and r, p and
    their residuals stay as they are.

    Every operation commutes with negation, so the negated brackets and
    residuals of a ride reflected through the origin give the negated roots
    bit for bit.  `curves._refine_point` is the float twin of one bracket.
    The name stays from the bisection this finder replaced: the crossing
    refinement calls it through the `curves` binding, which
    `perfbench/tracing.py` spans as `curves.refine`.
    """
    r = np.asarray(a, dtype=float)
    p = np.asarray(b, dtype=float)
    gr = fr = np.asarray(g(r), dtype=float)
    gp = np.asarray(g(p), dtype=float)
    # a secant through a vanishing or NaN residual difference gives inf or
    # NaN, which the midpoint replaces
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iters):
            x = p - gp * (p - r) / (gp - fr)
            inside = (np.minimum(r, p) < x) & (x < np.maximum(r, p))
            x = np.where(inside, x, 0.5 * (r + p))
            gx = np.asarray(g(x), dtype=float)
            flip = gp * gx <= 0.0
            zero = gx == 0.0
            r_new = np.where(zero, x, np.where(flip, p, r))
            gr = np.where(zero, gx, np.where(flip, gp, gr))
            fr = np.where(flip | zero, gr, 0.5 * fr)
            fixed = _same_bits(x, p) and _same_bits(r_new, r)
            r, p, gp = r_new, x, gx
            if fixed:
                break
    return np.where(np.abs(gp) < np.abs(gr), p, r)


def _same_bits(x, y) -> bool:
    """Whether two float arrays hold the same bits everywhere (NaN and the
    sign of 0 included)."""
    return bool((x.view(np.int64) == y.view(np.int64)).all())
