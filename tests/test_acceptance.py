"""Release gate: every advertised guarantee checked at its stated tolerance.

Each criterion prints a `[criterion N] PASS/FAIL` line (run with -s to see
them all) and then asserts, so a red test names the exact bound it missed.
"""

import math

import numpy as np
import pytest

from duhem import dahl, simulate
from duhem.cli import PRESETS, _battery_geometry, build_input
from duhem.curves import PhasePoint, check_lemma1, intersect_lambda, traversing_curve
from duhem.dissipativity import (
    check_assumption_A,
    loop_areas,
    loop_orientation,
    verify_dissipation_battery,
)
from duhem.mechsim import MechParams, MechState, lyapunov_check, simulate_mech
from duhem.models import boucwen, exp_example, model_from_config
from duhem.signals import InputSignal, ramp, random_piecewise_linear, rate_reparameterize
from duhem.storage import (
    SignalFamily,
    available_storage_bruteforce_batch,
    storage_cw,
)

from oracles import (
    central_slope_rounding,
    exp_margin_min,
    lambda_exact,
    ramp_response_exact,
    storage_exact,
    traversing_exact,
)

BATTERY_N = 100
BATTERY_STEP = 5e-3
BATTERY_TOL = 1e-6 + 10.0 * BATTERY_STEP


def _line(criterion, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {state}: {detail}")


def _battery_signal(k):
    rng = np.random.default_rng(1000 + k)
    return rng, random_piecewise_linear(rng, span=1.5, n_breakpoints=(3, 6))


def test_criterion_1_dahl_closed_form_suite():
    m = dahl()
    rng = np.random.default_rng(42)
    ys = 0.675 * (2.0 * rng.random(100) - 1.0)  # |y| <= 0.9 Fc
    us = 2.0 * (2.0 * rng.random(100) - 1.0)
    worst_omega = worst_lambda = worst_storage = 0.0
    for y, u in zip(ys, us):
        p = PhasePoint(y, u)
        curve = traversing_curve(m, p, u - 0.5, u + 0.5)
        # +/- 0.5 keeps the evaluation clear of the curve's zero crossing,
        # so the relative error is well defined for every sampled point
        for tau in (u - 0.5, u + 0.5):
            exact = float(traversing_exact(tau, y, u))
            worst_omega = max(worst_omega, abs(curve(tau) - exact) / abs(exact))
        lam = intersect_lambda(m, p)
        worst_lambda = max(worst_lambda, abs(lam - float(lambda_exact(y, u))))
        ev = storage_cw(m, p)
        worst_storage = max(worst_storage, abs(ev.value - float(storage_exact(y))))
    ok = worst_omega <= 1e-6 and worst_lambda <= 1e-6 and worst_storage <= 1e-5
    _line(
        1,
        ok,
        f"traversing rel err {worst_omega:.2e} (tol 1e-06), "
        f"lambda err {worst_lambda:.2e} (tol 1e-06), "
        f"storage err {worst_storage:.2e} (tol 1e-05) over 100 points",
    )
    assert worst_omega <= 1e-6
    assert worst_lambda <= 1e-6
    assert worst_storage <= 1e-5


def test_criterion_2_dissipation_battery():
    results = {}
    violations = 0
    signals = [_battery_signal(k)[1] for k in range(BATTERY_N)]
    for model in (dahl(), boucwen(), exp_example()):
        worst = -math.inf
        pairs = verify_dissipation_battery(model, signals, 0.0, step=BATTERY_STEP)
        for fwd, bwd in pairs:
            worst = max(worst, fwd.worst_violation, bwd.worst_violation)
            violations += (not fwd.passed) + (not bwd.passed)
        results[model.name] = worst
    ok = violations == 0
    summary = ", ".join(f"{name} {w:.2e}" for name, w in results.items())
    _line(
        2,
        ok,
        f"worst rate excess {summary} (tol {BATTERY_TOL:.6g}), "
        f"{violations} violations in {3 * BATTERY_N} inputs x 2 directions",
    )
    assert ok, f"{violations} dissipation violations, worst per model {results}"


def test_criterion_3_available_storage_bruteforce():
    m = dahl()
    rng = np.random.default_rng(7)
    points = []
    for _ in range(20):
        y = 0.675 * (2.0 * rng.random() - 1.0)
        u = 2.0 * (2.0 * rng.random() - 1.0)
        points.append(PhasePoint(y, u))
    families = [SignalFamily(n_random=200, seed=100 + k) for k in range(20)]
    worst_short = 0.0
    worst_over = 0.0
    for p, res in zip(points, available_storage_bruteforce_batch(m, points, families)):
        H = float(storage_exact(p.sigma))
        worst_short = max(worst_short, (H - res.value) / H if H > 0.0 else 0.0)
        worst_over = max(worst_over, res.value - H)
    # approaches from below up to quadrature noise on the random inputs.
    # Dahl declares the reduced form (0, 1), so the search takes exact
    # chunk maps, and its overshoot is rounding: a signal of total
    # variation TV (<= the horizon 10, at input rates <= 1) gathers under
    # 256 eps fc TV in W (tests/test_storage.py,
    # test_chunk_map_search_lanes_are_the_exact_dahl_extraction).
    rounding = 256 * np.finfo(float).eps * 0.75 * 10.0
    ok = worst_short <= 0.02 and worst_over <= 1e-4 and worst_over <= rounding
    _line(
        3,
        ok,
        f"worst shortfall {worst_short:.2%} (tol 2%), "
        f"worst overshoot {worst_over:.2e} (rounding bound {rounding:.2e}, "
        f"noise allowance 1e-04), 20 points",
    )
    assert worst_short <= 0.02
    assert worst_over <= 1e-4
    assert worst_over <= rounding


def test_criterion_4_preset_loops_clockwise_and_stable():
    details = []
    ok = True
    for name in ("fig1", "fig2"):
        preset = PRESETS[name]
        model = model_from_config(
            {"model": preset["model"], "params": preset["params"]}
        )
        # the loop input of `duhem verify`: 5 cycles over the certified xi range
        region, _, _ = _battery_geometry(model)
        loop = build_input({"kind": "triangle", "amplitude": region[1][1], "cycles": 5})
        traj = simulate(model, loop, 0.0, step=1e-3)
        orientation = loop_orientation(traj)
        _, areas = loop_areas(traj)
        settle = float(np.abs(np.diff(areas)[2:]).max())
        ok = ok and orientation.label == "clockwise" and orientation.area > 0.0
        ok = ok and settle < 1e-4
        details.append(
            f"{name} area {orientation.area:.6g} settle {settle:.2e}"
        )
        assert orientation.label == "clockwise"
        assert orientation.area > 0.0
        assert settle < 1e-4, f"{name}: increments still moving by {settle}"
    _line(4, ok, "; ".join(details) + " (settle tol 1e-04 after 3 cycles)")


def test_criterion_5_dahl_band_confinement():
    m = dahl()
    max_abs = 0.0
    for k in range(BATTERY_N):
        rng, sig = _battery_signal(k)
        y0 = float(rng.uniform(-0.674, 0.674))
        traj = simulate(m, sig, y0, step=BATTERY_STEP)
        max_abs = max(max_abs, float(np.abs(traj.y).max()))
    ok = max_abs < 0.75
    _line(
        5,
        ok,
        f"max |y| {max_abs:.6f} < Fc 0.75 over {BATTERY_N} runs with random y0",
    )
    assert max_abs < 0.75


def test_criterion_6_rate_independence():
    m = dahl()
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(500 + k)
        sig = random_piecewise_linear(rng, span=1.5, n_breakpoints=(3, 6))
        T = sig.end_time
        interior = np.unique(rng.random(int(rng.integers(2, 5)))) * T
        tau = np.unique(np.concatenate([[0.0], interior, [T]]))
        incr = rng.random(tau.size - 1) + 0.1
        w = np.concatenate([[0.0], np.cumsum(incr)])
        w *= 2.5 * T / w[-1]
        warped = rate_reparameterize(sig, InputSignal(tau, w))
        base = simulate(m, sig, 0.0, step=1e-3)
        other = simulate(m, warped, 0.0, step=1e-3)
        i = np.searchsorted(base.t, sig.times)
        j = np.searchsorted(other.t, np.interp(sig.times, tau, w))
        worst = max(worst, float(np.abs(base.y[i] - other.y[j]).max()))
    # breakpoint accuracy against the closed form is held to 1e-9 at this
    # step elsewhere in the suite; warping may cost at most ten times that
    tol = 10.0 * 1e-9
    ok = worst <= tol
    _line(6, ok, f"worst warped-path deviation {worst:.2e} (tol {tol:.0e}), 20 warps")
    assert worst <= tol


def test_criterion_7_mechanical_stability():
    p = MechParams(m=1.0, d=0.5, k=1.0, rho=1.5, fc=0.75)
    ser = simulate_mech(p, MechState(1.0, 0.0, 0.0), 100.0, step=1e-3)
    rep = lyapunov_check(ser, p, tol=1e-4)
    rate = rep.details["rate_violation"]
    mono = rep.details["monotonicity_violation"]
    x2_final = abs(float(ser.x2[-1]))
    residual = abs(p.k * float(ser.x1[-1]) + float(ser.x3[-1]))

    pf = MechParams(m=1.0, d=0.5, k=0.0, rho=1.5, fc=0.75, mode="feedback")
    sf = simulate_mech(pf, MechState(1.0, 1.0, 0.0), 100.0, step=1e-3)
    x2_feedback = abs(float(sf.x2[-1]))

    ok = (
        rep.passed
        and mono <= 1e-4
        and rate <= 1e-4
        and x2_final < 1e-3
        and residual < 1e-3
        and x2_feedback < 1e-3
    )
    _line(
        7,
        ok,
        f"V decay: mono {mono:.2e}, rate {rate:.2e} (tol 1e-04); "
        f"|x2(T)| {x2_final:.2e}, |k x1 + x3| {residual:.2e} (tol 1e-03); "
        f"feedback |x2(T)| {x2_feedback:.2e}",
    )
    assert rep.passed
    assert mono <= 1e-4 and rate <= 1e-4
    assert x2_final < 1e-3 and residual < 1e-3
    assert x2_feedback < 1e-3


def test_criterion_8a_damping_sign_structure():
    worst = {}
    for model, region in (
        (dahl(), ((-0.745, 0.745), (-2.0, 2.0))),
        (boucwen(), ((-3.0, 3.0), (-3.0, 3.0))),
    ):
        rep = check_assumption_A(model, region)
        worst[model.name] = rep.worst_violation
        assert rep.passed, f"{model.name}: {rep.worst_violation}"
    _line("8a", True, f"sign structure holds: " + ", ".join(
        f"{n} worst {w:.2e}" for n, w in worst.items()
    ))


def test_criterion_8b_integrator_convergence_order():
    m = dahl()
    exact = ramp_response_exact(0.0, 1.0, 0.0)
    errs = []
    for h in (4e-2, 2e-2, 1e-2, 5e-3):
        traj = simulate(m, ramp(0.0, 1.0, 1.0), 0.0, step=h)
        errs.append(abs(traj.y[-1] - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    ok = min(orders) >= 3.5
    _line("8b", ok, f"step-halving orders {[f'{o:.2f}' for o in orders]} (floor 3.5)")
    assert min(orders) >= 3.5


def test_criterion_8c_transversality_margin_exp():
    # check_lemma1 certifies f1 - f_an' >= epsilon above the anhysteresis
    # curve and f2 - f_an' >= epsilon below it.  For the exponential example
    # on [-5,5]^2 the infimum is the closed form m* = exp(-5.5) + 0.83 - 5/6
    # ~= 7.534e-4 at the corner (5, -5), on the increasing branch; the
    # decreasing branch ties at (-5, 5) and the certificate keeps the branch
    # it scans first.  So the certificate must report m* there, pass at
    # epsilon 5e-4 and reject 1e-3 by 1e-3 - m*.  Tolerance: the slope 5/6 is
    # a central difference with spacing h = 1e-5 * (1 + |xi|) = 6e-5 at
    # xi = -5; its rounding is at most ulp(5.00006) / h ~= 1.48e-11 plus
    # 8 ulp(1) for the other operations (derivation in
    # oracles.central_slope_rounding).
    model = exp_example()
    square = ((-5.0, 5.0), (-5.0, 5.0))
    m_star, corner = exp_margin_min(square)
    tol = central_slope_rounding(corner[1])
    tight = check_lemma1(model, square, 5e-4)
    loose = check_lemma1(model, square, 1e-3)
    margin = tight.details["worst_margin"]

    # 1e-3 is attainable on the geometry `duhem verify --model exp_example`
    # certifies: [-3,3]^2, margin exp(-3.3) + 0.83 - 5/6 ~= 3.355e-2 at (3, -3)
    cli_region, cli_eps, _ = _battery_geometry(model)
    assert (cli_region, cli_eps) == (((-3.0, 3.0), (-3.0, 3.0)), 1e-3)
    m_cli, corner_cli = exp_margin_min(cli_region)
    cli = check_lemma1(model, cli_region, cli_eps)
    cli_margin = cli.details["worst_margin"]

    checks = {
        "margin matches oracle": abs(margin - m_star) <= tol,
        "margin at oracle corner": tight.worst_location == corner,
        "passes 5e-4": tight.passed,
        "rejects 1e-3": not loose.passed,
        "violation is 1e-3 - m*": abs(loose.worst_violation - (1e-3 - m_star)) <= tol,
        "verify square passes": cli.passed,
        "verify margin matches oracle": abs(cli_margin - m_cli)
        <= central_slope_rounding(corner_cli[1]),
        "verify margin at oracle corner": cli.worst_location == corner_cli,
    }
    ok = all(checks.values())
    _line(
        "8c",
        ok,
        f"worst margin {margin:.9e} at {tight.worst_location} vs oracle "
        f"{m_star:.9e} (tol {tol:.2e}); epsilon 5e-04 passed={tight.passed}, "
        f"epsilon 1e-03 passed={loose.passed} (violation "
        f"{loose.worst_violation:.6e}); verify square [-3,3]^2 margin "
        f"{cli_margin:.6e} (oracle {m_cli:.6e}) at epsilon {cli_eps:.0e} "
        f"passed={cli.passed}",
    )
    assert ok, [name for name, held in checks.items() if not held]
