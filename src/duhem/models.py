"""Built-in Duhem model catalog: Dahl, Bouc-Wen, and a smooth exponential
example operator.

All slope fields accept floats or numpy arrays elementwise.  For float
arguments they return a Python float, bit-identical to what the numpy
expression gives on numpy scalars, so the scalar marches (`simulate`,
traversing curves) run in plain float arithmetic; array arguments take the
numpy expressions.  Where Python's float power raises OverflowError, the
fields return inf as numpy does, so a blow-up still surfaces as a non-finite
output and not as an exception.  Dahl's r = 1 fields take their array
branch on float64 0-d copies of their constants: under NumPy 2's promotion
rules (NEP 50) a ufunc call with a Python-float operand costs about 35%
more than one with a float64 0-d array, and the brute-force search calls
these fields on a few hundred lanes at a time (see `dahl`).  Each factory
validates its parameters and declares the model's validity domain, its
odd symmetry (all three are odd: f2(sigma, xi) is f1(-sigma, -xi) bit for
bit, as `DuhemModel.odd` requires), the one reduced coordinate
z = a xi - b sigma its fields depend on, with f_an = a xi / b
(`DuhemModel.reduced_form`: (0, 1), the output alone with f_an
identically 0, for Dahl and Bouc-Wen with zeta != 0; (1, 1.2) for the
exponential example) and, when available in closed form, the
anhysteresis function.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from .core import Domain, DuhemModel, WHOLE_PLANE

__all__ = [
    "dahl",
    "boucwen",
    "exp_example",
    "BUILTIN_MODELS",
    "model_from_config",
]


def _power(a, n):
    """a ** n for a >= 0 (float or array), inf where a float power overflows."""
    try:
        return a**n
    except OverflowError:
        return math.inf


def _finite_floats(**params) -> list[float]:
    """The parameter values as floats, or ValueError naming the first that
    is not finite."""
    values = [float(v) for v in params.values()]
    for name, v in zip(params, values):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return values


def _signed_power_field(rho, fc, r, rising):
    """The Dahl field rho * |z|^r * sgn(z) at z = 1 - sigma/fc (rising, f1)
    or z = 1 + sigma/fc (f2), in one Python call; a Python float for a
    float sigma."""

    def field(sigma, xi):
        z = 1.0 - sigma / fc if rising else 1.0 + sigma / fc
        if isinstance(z, float):
            # the power is guarded inline: a call to _power per field
            # evaluation costs as much as the arithmetic
            try:
                p = abs(z) ** r
            except OverflowError:
                p = math.inf
            # copysign and np.sign disagree only at z = -0.0, which 1 +-
            # sigma/fc never rounds to
            return rho * math.copysign(p, z)
        return rho * np.abs(z) ** r * np.sign(z)

    return field


def _exp_field(rising):
    """The exponential example's field exp(0.5*(-1.2*sigma + xi)) + 0.83
    (rising, f1) or exp(0.5*(1.2*sigma - xi)) + 0.83 (f2), in one Python
    call; a Python float for a float argument.  np.exp is bound once;
    math.exp differs from it in the last bit on some arguments."""
    exp = np.exp

    def field(sigma, xi):
        x = 0.5 * (-1.2 * sigma + xi) if rising else 0.5 * (1.2 * sigma - xi)
        return (float(exp(x)) if isinstance(x, float) else exp(x)) + 0.83

    return field


def dahl(rho: float = 1.5, fc: float = 0.75, r: float = 1.0) -> DuhemModel:
    """Dahl friction operator with stiffness rho, saturation fc, exponent r.

    Slopes on the open band |y| < fc:

        f1(sigma, xi) = rho * |1 - sigma/fc|^r * sgn(1 - sigma/fc)
        f2(sigma, xi) = rho * |1 + sigma/fc|^r * sgn(1 + sigma/fc)

    For r = 1 the fields are affine in sigma and the simulation admits
    closed-form cross-checks.  The anhysteresis curve is identically zero.

    For r = 1 a float sigma takes Python-float arithmetic and returns a
    Python float; any other sigma takes the same operations, in the same
    order, on float64 0-d arrays of 1.0, rho and fc built here once, so
    both give the same bits.  A Python-float operand of a ufunc is a weak
    scalar under NEP 50, and its call costs about 35% more than one with
    a float64 0-d array: at 201 lanes (numpy 2.4.6, 2-core Xeon VM)
    `1.5 * a` took 632 ns against 464 ns and `a / 0.75` 721 ns against
    521 ns.  The exact-map search of `available_storage_bruteforce`
    evaluates these fields at such widths in its RK4 predictor (four calls
    per chunk on 201 lanes), and its supply march, which a Dahl model
    declared without its reduced form takes, four times per substep; there
    per-call overhead dominates.  One consequence: a float32 array, which
    Python-float operands kept in float32, now computes in float64.
    Every library path passes float64.  Each parameter must be finite.
    """
    rho, fc, r = _finite_floats(rho=rho, fc=fc, r=r)
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if fc <= 0.0:
        raise ValueError(f"fc must be positive, got {fc}")
    if r < 1.0:
        raise ValueError(f"exponent r must be >= 1, got {r}")

    if r == 1.0:
        one, rho_a, fc_a = (np.array(v) for v in (1.0, rho, fc))

        def f1(sigma, xi):
            if isinstance(sigma, float):
                return rho * (1.0 - sigma / fc)
            return rho_a * (one - sigma / fc_a)

        def f2(sigma, xi):
            if isinstance(sigma, float):
                return rho * (1.0 + sigma / fc)
            return rho_a * (one + sigma / fc_a)
    else:
        f1 = _signed_power_field(rho, fc, r, rising=True)
        f2 = _signed_power_field(rho, fc, r, rising=False)

    return DuhemModel(
        name="dahl",
        f1=f1,
        f2=f2,
        params={"rho": rho, "fc": fc, "r": r},
        domain=Domain(-fc, fc),
        f_an=lambda xi: 0.0 * xi,
        odd=True,
        reduced_form=(0, 1),
    )


def boucwen(
    alpha: float = 1.0,
    beta: float = 1.0,
    zeta: float = 1.0,
    n: float = 3.0,
) -> DuhemModel:
    """Bouc-Wen operator on the whole plane.

        f1(sigma, xi) = alpha - beta*|sigma|^n - zeta*sigma*|sigma|^(n-1)
        f2(sigma, xi) = alpha - beta*|sigma|^n + zeta*sigma*|sigma|^(n-1)

    zeta (often printed as gamma in the engineering literature) controls the
    loop shape; with zeta > 0 the anhysteresis curve is identically zero.
    Each parameter must be finite.
    """
    alpha, beta, zeta, n = _finite_floats(alpha=alpha, beta=beta, zeta=zeta, n=n)
    if n < 1.0:
        raise ValueError(f"exponent n must be >= 1, got {n}")

    n1 = n - 1.0

    # both powers are tried inline; _power's guard runs only on overflow
    def f1(sigma, xi):
        a = abs(sigma)
        try:
            an, an1 = a**n, a**n1
        except OverflowError:
            an, an1 = _power(a, n), _power(a, n1)
        return alpha - beta * an - zeta * sigma * an1

    def f2(sigma, xi):
        a = abs(sigma)
        try:
            an, an1 = a**n, a**n1
        except OverflowError:
            an, an1 = _power(a, n), _power(a, n1)
        return alpha - beta * an + zeta * sigma * an1

    f_an = (lambda xi: 0.0 * xi) if zeta != 0.0 else None
    return DuhemModel(
        name="boucwen",
        f1=f1,
        f2=f2,
        params={"alpha": alpha, "beta": beta, "zeta": zeta, "n": n},
        domain=WHOLE_PLANE,
        f_an=f_an,
        odd=True,
        reduced_form=None if f_an is None else (0, 1),
    )


def exp_example() -> DuhemModel:
    """Smooth exponential operator with an input-dependent anhysteresis curve.

        f1(sigma, xi) = exp(0.5*(-1.2*sigma + xi)) + 0.83
        f2(sigma, xi) = exp(0.5*( 1.2*sigma - xi)) + 0.83

    f1 - f2 vanishes exactly on sigma = xi / 1.2, so the declared
    anhysteresis function is xi/1.2 (slope 5/6, not the 0.83 additive
    constant appearing in the slope fields).  Both fields depend on
    z = xi - 1.2 sigma alone (-1.2*sigma + xi rounds like xi - 1.2*sigma),
    which the model declares as `DuhemModel.reduced_form` (1, 1.2).
    """
    return DuhemModel(
        name="exp_example",
        f1=_exp_field(rising=True),
        f2=_exp_field(rising=False),
        params={},
        domain=WHOLE_PLANE,
        f_an=lambda xi: xi / 1.2,
        odd=True,
        reduced_form=(1, 1.2),
    )


BUILTIN_MODELS = {
    "dahl": dahl,
    "boucwen": boucwen,
    "exp_example": exp_example,
}


def model_from_config(config: Mapping[str, Any]) -> DuhemModel:
    """Build a catalog model from {"model": name, "params": {...}}.

    Unknown model names and unknown parameter keys are rejected.
    """
    if not isinstance(config, Mapping):
        raise ValueError("model config must be a mapping")
    unknown = set(config) - {"model", "params"}
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    try:
        name = config["model"]
    except KeyError:
        raise ValueError("model config requires a 'model' key") from None
    if name not in BUILTIN_MODELS:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(BUILTIN_MODELS)}"
        )
    params = dict(config.get("params") or {})
    factory = BUILTIN_MODELS[name]
    try:
        return factory(**params)
    except TypeError:
        raise ValueError(
            f"invalid parameters for model {name!r}: {sorted(params)}"
        ) from None
