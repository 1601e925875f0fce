"""Closed-form references for the slope-1 Dahl model, derived here from the
branch ODEs so the benchmark's correctness checks do not depend on ``src/``.

With k = rho/fc the branches are linear:

    rising input   dy/du = rho (1 - y/fc)  ->  y(u) = fc - (fc - y0) e^{-k (u - u0)}
    falling input  dy/du = rho (1 + y/fc)  ->  y(u) = -fc + (fc + y0) e^{k (u - u0)}

The anhysteresis curve is y = 0.  A point above it rides the falling branch
to the left, a point below it the rising branch to the right; solving y = 0
gives the crossing abscissa, and minus the branch integral from xi to the
crossing gives the clockwise storage.
"""

import math

RHO = 1.5
FC = 0.75


def traversing(tau, sigma, xi, rho=RHO, fc=FC):
    """Traversing curve through (sigma, xi): rising branch for tau >= xi,
    falling branch for tau < xi."""
    k = rho / fc
    if tau >= xi:
        return fc - (fc - sigma) * math.exp(-k * (tau - xi))
    return -fc + (fc + sigma) * math.exp(k * (tau - xi))


def crossing(sigma, xi, rho=RHO, fc=FC):
    """Abscissa where the traversing curve through (sigma, xi) meets y = 0."""
    return xi - math.copysign(1.0, sigma) * (fc / rho) * math.log1p(abs(sigma) / fc)


def storage(sigma, rho=RHO, fc=FC):
    """Clockwise storage: (fc/rho) |sigma| - (fc^2/rho) log(1 + |sigma|/fc)."""
    a = abs(sigma)
    return (fc / rho) * a - (fc * fc / rho) * math.log1p(a / fc)


def breakpoint_outputs(values, y0, rho=RHO, fc=FC):
    """Exact output at every breakpoint of a piecewise-linear input."""
    k = rho / fc
    y = float(y0)
    out = [y]
    for u0, u1 in zip(values[:-1], values[1:]):
        if u1 >= u0:
            y = fc - (fc - y) * math.exp(-k * (u1 - u0))
        else:
            y = -fc + (fc + y) * math.exp(k * (u1 - u0))
        out.append(y)
    return out
