"""Clockwise storage function and brute-force available storage.

The storage value at a phase point (sigma, xi) is built from the traversing
curve through the point: ride the curve to its anhysteresis intersection at
abscissa Lambda, then

    H(sigma, xi) = integral of f_an from 0 to Lambda
                 - integral of the traversing branch from xi to Lambda.

Both integrals are signed.

Two evaluation routes of the construction are provided on purpose.
`storage_cw` resamples the ride into a C^1 table and integrates it, and
f_an, with adaptive Simpson quadrature to a requested tolerance;
`storage_cw_batch` accumulates the exact integral of the same cubic Hermite
table segment by segment while many points ride in lockstep, and integrates
f_an by a fixed 20-node Gauss-Legendre rule per lane; each takes one path
for every point.  Agreement between the routes is part of the test
surface, so neither should be rewritten in terms of the other: each checks
the other's ride, table and quadrature.

A third route, `storage_output_only`, skips the ride for models whose
fields ignore the input and whose anhysteresis curve is identically zero
(`DuhemModel.xi_free`: Dahl, Bouc-Wen).  There the first term vanishes, the
traversing curve is the autonomous ODE dy/dtau = f(y), and H(sigma) is the
integral of s / f(s) from 0 to sigma, a function of the output alone,
evaluated by the same Gauss-Legendre rule.  It is a cross-check of the two
rides as much as they are of it; the dissipation battery uses it for those
models.  Built on the other branch (f2 below the curve, f1 above) the same
integral is the required supply, which is also a storage function, so only
the agreement with the rides and the closed forms can tell the two apart.

The brute-force search (`available_storage_bruteforce_batch`) marches all
its inputs in lockstep and tracks each one's supply integral.  For odd
models (`DuhemModel.odd`) every lane marches in its frame reflected
through the origin on falling stretches, where it rises on f1, so each RK4
stage evaluates one slope field instead of both.  Negation is exact in
floating point, and rounding to nearest commutes with it, so the
reflected march gives the outputs and supplies of the unreflected one bit
for bit (`_supply_running_min` says where a zero's sign may differ).  The
march runs in blocks of substeps: only the RK4 recurrence runs substep by
substep, and each block's inputs and stage factors, its domain guard and
its supply bookkeeping are array operations over the whole block, with
the bits of a march of one substep at a time.  A lane whose input has
ended leaves the march at the next block boundary.  The lanes of a xi-free
model carry no input track: its fields ignore the input, so each field
call and RK4 stage takes the input 0.0, where the declaration is checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DomainExitError, DuhemModel, _segment_substeps, _substep_sample
from .curves import (
    CrossingSearchError,
    PhasePoint,
    anhysteresis,
    anhysteresis_values,
    intersect_lambda,
    ride_to_crossing,
    traversing_curve,
)
from .integrate import adaptive_simpson, gauss_legendre, rk4_step
from .report import _check_positive
from .signals import InputSignal, _readonly, random_piecewise_linear

__all__ = [
    "StorageEvaluation",
    "StorageBatch",
    "SignalFamily",
    "AvailableStorageResult",
    "storage_cw",
    "storage_cw_batch",
    "storage_output_only",
    "available_storage_bruteforce",
    "available_storage_bruteforce_batch",
]


@dataclass(frozen=True)
class StorageEvaluation:
    """Storage value at one phase point plus the pieces it was built from."""

    point: PhasePoint
    lambda_star: float
    anhysteresis_integral: float
    traverse_integral: float
    value: float

    def to_dict(self) -> dict:
        return {
            "sigma": self.point.sigma,
            "xi": self.point.xi,
            "lambda": self.lambda_star,
            "anhysteresis_integral": self.anhysteresis_integral,
            "traverse_integral": self.traverse_integral,
            "value": self.value,
        }


@dataclass(frozen=True, eq=False)
class StorageBatch:
    """Vectorized storage evaluation result."""

    lam: np.ndarray
    value: np.ndarray


def storage_cw(
    model: DuhemModel,
    p: PhasePoint,
    *,
    quad_tol: float = 1e-8,
    step: float = 1e-3,
) -> StorageEvaluation:
    """Clockwise storage at one phase point via adaptive quadrature.

    The intersection abscissa is `intersect_lambda`'s (the `ride_to_crossing`
    lane of p, ridden in Python floats, with its 1e-9 crossing residual
    check).  The traversing branch from xi to the intersection is then
    resampled at fixed step by `traversing_curve` into a cubic Hermite
    table and integrated with adaptive Simpson to quad_tol, as is
    `anhysteresis` from 0 to the intersection.  Every point takes this path:
    on the curve both integrals span no width and are 0.0, and the integral
    of a zero f_an reads +0.0 on both sides of 0.  Raises CrossingSearchError
    when no intersection is found and ValueError for a point outside the
    model domain or, before any ride, for a quad_tol that is not positive
    and finite.
    """
    _check_positive("quad_tol", quad_tol)
    lam = intersect_lambda(model, p, step=step)
    curve = traversing_curve(model, p, min(lam, p.xi), max(lam, p.xi), step)
    if curve.left_truncated or curve.right_truncated:
        raise CrossingSearchError("traversing branch left the domain while resampling")
    traverse = adaptive_simpson(curve, p.xi, lam, tol=quad_tol)
    fan_int = 0.0 + adaptive_simpson(
        lambda t: anhysteresis(model, t), 0.0, lam, tol=quad_tol
    )
    return StorageEvaluation(
        point=p,
        lambda_star=lam,
        anhysteresis_integral=fan_int,
        traverse_integral=traverse,
        value=fan_int - traverse,
    )


def _anhysteresis_integrals(model: DuhemModel, lam: np.ndarray) -> np.ndarray:
    """Integral of f_an from 0 to each lam, by the Gauss-Legendre rule of
    `_GAUSS_T` and `_GAUSS_W` in blocks of `_GAUSS_BLOCK_ROWS` rows.

    Every batch takes the rule, one `anhysteresis_values` call per block, and
    the integral of a zero f_an reads +0.0 on both sides of 0.  Each row's
    weighted terms are summed by numpy's per-row reduction, whose order
    depends on the row length alone, so a lane's value does not depend on
    the batch it rides in (a BLAS product `fan @ w` sums in an order that
    depends on the row count), nor on the block of rows it is summed in.
    """
    sums = np.empty(lam.size)
    for a in range(0, lam.size, _GAUSS_BLOCK_ROWS):
        nodes = lam[a : a + _GAUSS_BLOCK_ROWS, None] * _GAUSS_T[:-1]
        fan = anhysteresis_values(model, nodes.ravel()).reshape(nodes.shape)
        sums[a : a + _GAUSS_BLOCK_ROWS] = (fan * _GAUSS_W).sum(axis=1)
    return 0.0 + lam * sums


def storage_cw_batch(
    model: DuhemModel,
    sigma: np.ndarray,
    xi: np.ndarray,
    *,
    step: float = 2e-3,
) -> StorageBatch:
    """Clockwise storage at many phase points via lockstep curve rides.

    Uses the exact integral of the ride's cubic Hermite table instead of
    adaptive quadrature; the scalar and batch routes agree to quadrature
    tolerance at matching step sizes.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ride = ride_to_crossing(model, sigma, xi, step=step)
    fan_int = _anhysteresis_integrals(model, ride.lam)
    return StorageBatch(lam=ride.lam, value=fan_int - ride.integral)


# Gauss-Legendre rule on [0, 1]: its nodes, then 1.0 (where
# `storage_output_only` checks the slope at sigma itself), and its weights.
# Both per-lane integrals from 0 take it: f_an in `storage_cw_batch`, and
# s / f(s) in `storage_output_only`.  The output integrand is smooth on
# Dahl and reaches rounding at 10-12 nodes, but Bouc-Wen with a non-integer
# n has |s|^n in it, and there the error falls only algebraically; 20 nodes
# is the smallest count that is at least as accurate as the step-5e-3 ride
# it replaces on every model measured (BENCH_21.json).  On a smooth f_an
# the rule is at rounding.
_GAUSS_NODES = 20
_x, _w = gauss_legendre(_GAUSS_NODES)
_GAUSS_T = np.append(0.5 * (_x + 1.0), 1.0)
_GAUSS_W = 0.5 * _w
del _x, _w
# rows of nodes evaluated at a time, so that each block array (rows x 21
# floats, 84 KiB) stays below glibc's 128 KiB trim threshold at any batch
# size
_GAUSS_BLOCK_ROWS = 512


def storage_output_only(model: DuhemModel, sigma) -> np.ndarray:
    """Clockwise storage of a xi-free model (`DuhemModel.xi_free`) at
    outputs sigma, by a fixed Gauss-Legendre rule in the output.

    Such a model's traversing curve is the autonomous ODE dy/dtau = f(y),
    so the ride's branch integral from xi to the crossing at y = 0 is the
    integral of y / f(y) dy, and

        H(sigma) = integral of s / f(s) ds from 0 to sigma,

    with f the branch that the ride takes: f1 on the lanes with sigma < 0
    (below the curve), f2 on those with sigma > 0; H(0) = 0.  Each branch
    is one field call per block of rows (at xi = 0), on its own lanes, and
    each lane's weighted terms are summed by numpy's per-row reduction, so
    a lane's value does not depend on the batch it is evaluated in.

    Raises ValueError for a model that is not xi-free and for samples
    outside the model domain (or NaN), and CrossingSearchError where the
    branch slope is not finite and positive at a node or at sigma itself,
    where the traversing curve would not reach the anhysteresis curve;
    both name the count and the first such sample.
    """
    if not model.xi_free:
        raise ValueError(f"model {model.name!r} does not declare xi_free")
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))

    def samples(mask, what):
        k = int(np.argmax(mask))
        return f"{int(mask.sum())} sample(s) {what} (first at sigma={sigma[k]:.6g})"

    outside = ~model.domain.contains(sigma)
    if outside.any():
        raise ValueError(samples(outside, "outside the model domain"))
    value = np.zeros(sigma.size)
    bad = np.zeros(sigma.size, dtype=bool)
    for a in range(0, sigma.size, _GAUSS_BLOCK_ROWS):
        block = sigma[a : a + _GAUSS_BLOCK_ROWS]
        for f, side in ((model.f1, block < 0.0), (model.f2, block > 0.0)):
            lanes = a + np.flatnonzero(side)
            if not lanes.size:
                continue
            s = sigma[lanes]
            nodes = s[:, None] * _GAUSS_T
            slope = f(nodes, np.zeros_like(nodes))
            bad[lanes] = ~((slope > 0.0) & (slope < math.inf)).all(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = nodes[:, :-1] / slope[:, :-1]
            value[lanes] = s * (g * _GAUSS_W).sum(axis=1)
    if bad.any():
        raise CrossingSearchError(
            samples(bad, "with a branch slope that is not finite and positive")
        )
    return value


@dataclass(frozen=True)
class SignalFamily:
    """Recipe for the random input family used by the brute-force search.

    Raises ValueError unless n_random and seed are nonnegative ints (not
    bools), breakpoints a pair of ints with 2 <= lo <= hi, and span positive
    and finite."""

    n_random: int = 200
    breakpoints: tuple[int, int] = (3, 10)
    span: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for name, v in (("n_random", self.n_random), ("seed", self.seed)):
            if not (type(v) is int and v >= 0):
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        try:
            lo, hi = self.breakpoints
        except (TypeError, ValueError):
            lo = hi = None
        if not (type(lo) is type(hi) is int and 2 <= lo <= hi):
            raise ValueError(f"bad breakpoint range {self.breakpoints}")
        _check_positive("span", self.span)


@dataclass(frozen=True, eq=False)
class AvailableStorageResult:
    """Outcome of the brute-force available-storage search."""

    value: float
    designed_value: float
    best_index: int
    per_signal: np.ndarray
    n_signals: int

    def __post_init__(self):
        object.__setattr__(self, "per_signal", _readonly(self.per_signal))


def _clip_to_horizon(sig: InputSignal, horizon: float) -> InputSignal:
    if sig.end_time <= horizon:
        return sig
    keep = sig.times < horizon
    times = np.concatenate([sig.times[keep], [horizon]])
    values = np.concatenate([sig.values[keep], [sig.value(horizon)]])
    return InputSignal(times, values)


# substeps per block of the supply march (`_supply_running_min`), whose
# block arrays hold about ten numbers per lane and substep
_SUPPLY_BLOCK = 64


def _supply_running_min(
    model: DuhemModel,
    signals: Sequence[InputSignal],
    y0: float | np.ndarray,
    step: float,
    lane_name: Callable[[int], str] = "signal {}".format,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep simulation of many inputs, lane i from output y0 (a float,
    or one output per signal).

    Each signal walks its own segments with `simulate`'s substep rule, so
    `step` is a per-lane maximum substep: a segment with input change du
    takes n = max(1, ceil(|du| / step)) RK4 substeps of h = du / n starting
    at u = ua + k h, and segments with du == 0 are skipped.  The lanes
    advance one substep per iteration; each lane switches segment at its own
    precomputed iteration, and a lane that has finished marches with h = 0
    to the end of its block.  A lane's (u, y) substeps are therefore those
    of `simulate` on its signal.  A domain exit (an output NaN, +-inf or
    not strictly inside the band) raises DomainExitError at `simulate`'s
    sample, naming the lane by lane_name.

    Each lane marches in a frame z = s y, v = s u with s = -1 on a falling
    substep (h < 0) and +1 otherwise, so that its substep s h = |h| always
    rises.  For an odd model (`DuhemModel.odd`, f2(y, u) = f1(-y, -u)) the
    falling branch in that frame is f1, and every lane takes the RK4 step of
    f1 alone, where the two-branch field would evaluate both fields on all
    lanes and keep one.  At a switch the lanes whose sign turns negate z.
    The reflection is exact: negation is exact and round-to-nearest is
    symmetric under it, so every stage of a reflected step is the negative
    of the unreflected one, bit for bit up to the sign of an exact zero,
    and the supply increment 0.5 (z + z') s h equals 0.5 (y + y') h.  A
    model that is not odd keeps s = +1 and the two-branch field.

    The iterations run in blocks of `_SUPPLY_BLOCK`.  Only the RK4
    recurrence runs substep by substep.  Each block first gathers every
    lane's frame sign, input v and RK4 stage inputs from its current event
    (the event ids forward-filled down the block), and afterwards takes the
    domain guard, the supply increments, their running sum (an in-order
    `np.add.accumulate`) and the running minimum over the whole block.
    Each value is the same elementwise expression as in a march of one
    substep at a time, so the outputs do not depend on the block size; a
    domain exit is reported at its first substep and the substeps computed
    after it are discarded.

    A xi-free model (`DuhemModel.xi_free`) has no input track: its blocks
    gather no event start iteration or start value and compute no v,
    v + h/2 or v + h, and every field call and RK4 stage takes the input
    0.0, the input against which the declaration check compares every
    probe input bit for bit.  Its outputs are those of the same model
    marched with its input; the per-substep cost is what falls.

    At each block boundary the lanes whose end event lies before the block
    leave the march: their running minimum and output are stored by lane,
    and the next block runs on the live lanes alone, in lane order, through
    a lane -> column map.  Such a lane has taken at least one substep of
    h = 0 (z + 0.0 and W + 0.0, which may turn a -0.0 output into +0.0),
    after which further substeps of h = 0 change no bit, so the outputs are
    those of a march that keeps every lane to the last iteration.  A model
    that is not odd takes its branch mask from the block's first row.

    Returns the running minimum of the supply integral W(t) = int y du and
    the final output, per signal.
    """
    m = len(signals)
    # One switch event per moving segment and one per finished lane:
    # (start iteration, lane, segment index, start value u, substep h).
    events = []
    end_k = np.empty(m, dtype=int)  # each lane's end iteration
    for i, s in enumerate(signals):
        v, k = s.values, 0
        for j in np.flatnonzero(np.diff(v)):
            du = float(v[j + 1] - v[j])
            n = _segment_substeps(du, step)
            events.append((k, i, j, v[j], du / n))
            k += n
        events.append((k, i, -1, v[-1], 0.0))
        end_k[i] = k
    ev = np.array(events)
    ev = ev[np.argsort(ev[:, 0], kind="stable")]
    ev_k = ev[:, 0].astype(int)
    ev_lane = ev[:, 1].astype(int)
    n_iter = int(ev_k[-1])
    odd, xi_free = model.odd, model.xi_free
    # each event's frame sign, substep and its stage factors, then (where
    # the fields read the input) its start iteration and start value
    ev_sign = np.where(odd & (ev[:, 4] < 0.0), -1.0, 1.0)
    ev_h = ev_sign * ev[:, 4]
    ev_half = 0.5 * ev_h
    ev_sixth = ev_h / 6.0
    tables = [ev_h, ev_half, ev_sixth, ev_sign]
    if not xi_free:
        tables += [ev[:, 0], ev_sign * ev[:, 3]]

    minW_out = np.zeros(m)
    y_out = np.empty(m)
    # the live lanes, in lane order, and each lane's column among them
    live = np.arange(m)
    column = np.arange(m)
    z = np.empty(m)
    z[:] = y0
    sign = np.ones(m)
    current = np.full(m, -1)  # each live lane's event before the block
    W = np.zeros(m)
    minW = np.zeros(m)
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    # The block arrays live in buffers of the first block's size, allocated
    # once: arrays that shrank with the live lanes in every block made the
    # heap trim and refault them block after block.
    n_rows = min(_SUPPLY_BLOCK, n_iter)
    ids_buf = np.empty(n_rows * m, dtype=int)
    # H, half, sixth, turn and, where the fields read the input, V, XM, XH
    bufs = [np.empty(n_rows * m) for _ in range(4 if xi_free else 7)]
    Z_buf = np.empty((n_rows + 1) * m)

    if odd:
        field = model.f1
    else:
        def field(yv, uv):
            return np.where(up, model.f1(yv, uv), model.f2(yv, uv))

    # every lane has an event at iteration 0, which sets its sign and h
    for k0 in range(0, n_iter, _SUPPLY_BLOCK):
        # a lane whose end event came before the block has taken a substep
        # of h = 0, after which its output and supply no longer change:
        # it leaves the march
        done = end_k[live] < k0
        if done.any():
            minW_out[live[done]] = minW[done]
            y_out[live[done]] = sign[done] * z[done]
            keep = ~done
            live, z, sign, current, W, minW = (
                a[keep] for a in (live, z, sign, current, W, minW)
            )
            column[live] = np.arange(live.size)
        nb = min(_SUPPLY_BLOCK, n_iter - k0)
        e0, e1 = np.searchsorted(ev_k, (k0, k0 + nb))
        rows = ev_k[e0:e1] - k0
        size = nb * live.size
        ids = ids_buf[:size].reshape(nb, -1)
        blocks = [b[:size].reshape(nb, -1) for b in bufs]
        H, half, sixth, turn = blocks[:4]
        ids.fill(-1)
        ids[0] = current
        ids[rows, column[ev_lane[e0:e1]]] = np.arange(e0, e1)
        np.maximum.accumulate(ids, axis=0, out=ids)
        # gathers into the buffers (every id is in range; a mode other than
        # "raise" lets take write to out without a temporary)
        for table, dest in zip(tables, blocks):
            np.take(table, ids, out=dest, mode="wrap")
        if xi_free:
            # the fields read no input: every stage takes 0.0
            inputs = itertools.repeat((0.0, 0.0, 0.0), nb)
        else:
            V, XM, XH = blocks[4:]
            # u = va + (k - k_event) h, the substep count exact in floats
            np.subtract(np.arange(k0, k0 + nb, dtype=float)[:, None], V, out=V)
            V *= H
            V += XM
            np.add(V, half, out=XM)
            np.add(V, H, out=XH)
            inputs = zip(V, XM, XH)
        # z is negated at a switch that turns the lane's sign: factor
        # s_k s_(k-1), which is 1 on every other lane and substep (numpy
        # reads the overlapping rows as they were before the product)
        turn[1:] *= turn[:-1]
        turn[0] *= sign
        switch = np.zeros(nb, dtype=bool)
        switch[rows] = True
        # each lane's branch is the sign of its h, constant between its
        # switches
        up = H[0] >= 0.0

        Z = Z_buf[: size + live.size].reshape(nb + 1, -1)
        Z[0] = z
        for r, (at_switch, (v, xm, xh)) in enumerate(zip(switch.tolist(), inputs)):
            if at_switch:
                z = z * turn[r]
                up = H[r] >= 0.0
            z = rk4_step(field, z, field(z, v), xm, xh, half[r], H[r], sixth[r])
            Z[r + 1] = z

        Z_new = Z[1:]
        if not (lo < Z_new.min() and Z_new.max() < hi):
            out = ~((Z_new > lo) & (Z_new < hi))
            r = int(np.argmax(out.any(axis=1)))
            bad = int(np.argmax(out[r]))
            e = ids[r, bad]
            lane = int(live[bad])
            t, u_exit = _substep_sample(
                signals[lane], int(ev[e, 2]), k0 + r + 1 - int(ev_k[e]), step
            )
            raise DomainExitError(
                t=t,
                u=u_exit,
                y=float(ev_sign[e] * Z_new[r, bad]),
                message=f"{lane_name(lane)} drove the output out of the domain",
            )
        # W += 0.5 * (z + z_new) * h at each substep, in place in turn
        Wk = turn
        Wk *= Z[:-1]
        Wk += Z_new
        Wk *= 0.5
        Wk *= H
        Wk[0] += W
        np.add.accumulate(Wk, axis=0, out=Wk)
        np.minimum(minW, Wk.min(axis=0), out=minW)
        W = Wk[-1].copy()
        current = ids[-1].copy()
        sign = ev_sign[current]
    minW_out[live] = minW
    y_out[live] = sign * z
    return minW_out, y_out


def _search_signals(
    p: PhasePoint, family: SignalFamily, lam: float, horizon: float
) -> list[InputSignal]:
    """The search inputs of one point: the designed ramp from p.xi to lam
    (a held input when p lies on the curve), then the family's random
    inputs from p.xi, all clipped to the horizon."""
    if lam != p.xi:
        signals = [InputSignal(np.array([0.0, abs(lam - p.xi)]), np.array([p.xi, lam]))]
    else:
        signals = [InputSignal(np.array([0.0, 1.0]), np.array([p.xi, p.xi]))]
    rng = np.random.default_rng(family.seed)
    for _ in range(family.n_random):
        signals.append(
            random_piecewise_linear(
                rng,
                u_start=p.xi,
                span=family.span,
                n_breakpoints=family.breakpoints,
            )
        )
    return [_clip_to_horizon(sig, horizon) for sig in signals]


def available_storage_bruteforce_batch(
    model: DuhemModel,
    points: Sequence[PhasePoint],
    families: Sequence[SignalFamily],
    *,
    horizon: float = 10.0,
    step: float = 2e-3,
) -> list[AvailableStorageResult]:
    """`available_storage_bruteforce` at many phase points, point k searched
    with families[k], in one crossing ride and one supply march.

    Every lane of both marches is computed elementwise, so each point's
    result equals its separate `available_storage_bruteforce` call bit for
    bit.  A domain exit names the point and the index of its signal (0 is
    the designed ramp).  Raises ValueError for a horizon that is not
    positive and a step that is not positive and finite.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    _check_positive("step", step)
    points, families = list(points), list(families)
    if len(points) != len(families):
        raise ValueError("need one signal family per phase point")
    if not points:
        return []
    for p, family in zip(points, families):
        if not bool(model.domain.contains(p.sigma)):
            raise ValueError(f"phase point {p} outside model domain")
        lo = min(0.0, p.xi - family.span)
        hi = max(0.0, p.xi + family.span)
        probe = anhysteresis_values(model, np.linspace(lo, hi, 33))
        if not np.max(np.abs(probe)) <= 1e-12:
            raise ValueError(
                "brute-force available storage requires an identically zero "
                "anhysteresis curve on the search range"
            )

    sigma = np.array([p.sigma for p in points])
    ride = ride_to_crossing(model, sigma, np.array([p.xi for p in points]), step=step)
    signals: list[InputSignal] = []
    starts = [0]
    for p, family, lam in zip(points, families, ride.lam):
        signals += _search_signals(p, family, float(lam), horizon)
        starts.append(len(signals))

    def lane_name(i: int) -> str:
        k = int(np.searchsorted(starts, i, side="right")) - 1
        p = points[k]
        return f"point {k} (sigma={p.sigma:.6g}, xi={p.xi:.6g}) signal {i - starts[k]}"

    y0 = np.repeat(sigma, np.diff(starts))
    minW, _ = _supply_running_min(model, signals, y0, step, lane_name)
    out = []
    for a, b in zip(starts[:-1], starts[1:]):
        # 0.0 - minW, not -minW: a signal that extracts nothing reads +0.0
        per_signal = np.maximum(0.0, 0.0 - minW[a:b])
        best = int(np.argmax(per_signal))
        out.append(
            AvailableStorageResult(
                value=float(per_signal[best]),
                designed_value=float(per_signal[0]),
                best_index=best,
                per_signal=per_signal,
                n_signals=b - a,
            )
        )
    return out


def available_storage_bruteforce(
    model: DuhemModel,
    p: PhasePoint,
    family: SignalFamily = SignalFamily(),
    *,
    horizon: float = 10.0,
    step: float = 2e-3,
) -> AvailableStorageResult:
    """Lower estimate of the available storage at a phase point.

    Runs the operator from (p.sigma, p.xi) over one designed input (a unit
    rate ramp to the anhysteresis intersection, where extraction is known to
    stop) and family.n_random random piecewise-linear inputs starting at
    p.xi, all clipped to the horizon.  Each run tracks the running supply
    integral W(t) = int y du; the extractable energy of a run is
    max(0, -min_t W(t)) and the result is the best over the family.  Every
    run marches its own segments with `simulate`'s substep rule, so `step`
    is a per-run maximum u-substep, as in `simulate`.

    Only models with an identically zero anhysteresis curve are accepted:
    for those the supply bookkeeping of the search matches the storage construction
    exactly, so the estimate converges to the storage value from below.
    This is the one-point call of `available_storage_bruteforce_batch`.
    """
    return available_storage_bruteforce_batch(
        model, [p], [family], horizon=horizon, step=step
    )[0]
