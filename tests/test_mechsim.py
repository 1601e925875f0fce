import math
import tracemalloc

import numpy as np
import pytest

from duhem.core import DomainExitError
from duhem.mechsim import (
    MAX_MECH_STEPS,
    MechParams,
    MechSeries,
    MechState,
    lyapunov_check,
    passivity_port_check,
    simulate_mech,
)
from duhem.storage import storage_dahl_closed_form

from oracles import simulate_mech_closure


@pytest.fixture(scope="module")
def free_run():
    p = MechParams()
    return p, simulate_mech(p, MechState(1.0, 0.0, 0.0), 40.0, step=1e-3)


@pytest.fixture(scope="module")
def feedback_run():
    p = MechParams(k=0.0, mode="feedback")
    return p, simulate_mech(p, MechState(1.0, 1.0, 0.0), 40.0, step=1e-3)


def test_params_validation():
    with pytest.raises(ValueError):
        MechParams(m=0.0)
    with pytest.raises(ValueError):
        MechParams(d=-0.1)
    with pytest.raises(ValueError):
        MechParams(mode="chaotic")
    with pytest.raises(ValueError, match="feedback"):
        MechParams(k=1.0, mode="feedback")


def test_state_validation():
    with pytest.raises(ValueError):
        MechState(np.nan, 0.0, 0.0)


def test_initial_friction_state_must_lie_in_band():
    with pytest.raises(ValueError, match="inside"):
        simulate_mech(MechParams(), MechState(0.0, 0.0, 0.8), 1.0)


def test_energy_decays_along_free_motion(free_run):
    p, ser = free_run
    rep = lyapunov_check(ser, p)
    assert rep.passed
    assert rep.name == "lyapunov-decay"
    assert rep.details["monotonicity_violation"] < 1e-12
    assert rep.details["rate_violation"] < 1e-4
    assert rep.details["v_initial"] == pytest.approx(0.5)
    assert rep.details["v_final"] < rep.details["v_initial"]


def test_free_motion_settles_to_invariant_set(free_run):
    p, ser = free_run
    assert abs(ser.x2[-1]) < 1e-3
    assert abs(p.k * ser.x1[-1] + ser.x3[-1]) < 1e-3


def test_friction_state_confined_to_band(free_run):
    _, ser = free_run
    assert np.abs(ser.x3).max() < 0.75


def test_energy_series_matches_definition(free_run):
    p, ser = free_run
    v = (
        0.5 * p.k * ser.x1**2
        + 0.5 * p.m * ser.x2**2
        + storage_dahl_closed_form(ser.x3, p.rho, p.fc)
    )
    assert np.abs(ser.v - v).max() < 1e-14


def test_zero_viscous_damping_still_dissipates():
    # hysteretic losses alone keep V nonincreasing when d = 0
    p = MechParams(d=0.0)
    ser = simulate_mech(p, MechState(1.0, 0.0, 0.0), 20.0, step=1e-3)
    rep = lyapunov_check(ser, p, tol=1e-8)
    assert rep.passed
    assert rep.worst_violation < 1e-10
    assert ser.v[-1] < ser.v[0]


def test_equilibrium_states_are_fixed():
    # x2 = 0 with spring and friction forces balanced: nothing moves
    p = MechParams()
    ser = simulate_mech(p, MechState(0.4, 0.0, -0.4), 5.0, step=1e-3)
    assert np.abs(ser.x1 - 0.4).max() == 0.0
    assert np.abs(ser.x2).max() == 0.0
    assert np.abs(ser.x3 + 0.4).max() == 0.0


def test_feedback_mode_damps_velocity(feedback_run):
    p, ser = feedback_run
    rep = lyapunov_check(ser, p, tol=1e-3)
    assert rep.passed
    assert rep.details["monotonicity_violation"] < 1e-4
    assert abs(ser.x2[-1]) < 1e-3


def test_feedback_port_balance(feedback_run):
    p, ser = feedback_run
    rep = passivity_port_check(ser, p)
    assert rep.passed
    assert rep.name == "passivity-port"


def _hand_series(v, x2, params):
    t = np.arange(len(v), dtype=float)
    z = np.zeros(len(v))
    return MechSeries(t=t, x1=z, x2=np.array(x2), x3=z, v=np.array(v), params=params)


def test_port_check_fails_a_stored_change_above_the_supplied_energy():
    # x2 = 1 at unit spacing supplies W(t) = -d t < 0; a stored change of
    # 0.75 W exceeds it by 0.25 d t, though it lies below half of W
    p = MechParams(k=0.0, mode="feedback")
    w = -p.d * np.arange(5.0)
    rep = passivity_port_check(_hand_series(1.0 + 0.75 * w, np.ones(5), p), p)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.25 * p.d * 4.0, rel=1e-12)
    assert rep.worst_location[0] == 4.0


def test_lyapunov_tie_goes_to_the_rate_row():
    # rate = dV/dt + d x2^2 = [0.25, 0.5, 0.5] peaks first at t = 1, the
    # monotonicity excess dV / max V = [0.25, 0, 0.5] at t = 2, equally high
    p = MechParams(d=0.5)
    rep = lyapunov_check(_hand_series([0.25, 0.5, 0.5, 1.0], [0.0, 1.0, 0.0, 0.0], p), p)
    assert rep.details["rate_violation"] == rep.details["monotonicity_violation"] == 0.5
    assert rep.worst_violation == 0.5
    assert rep.worst_location[0] == 1.0


def test_lyapunov_check_fails_a_decay_slower_than_the_damping():
    # x2 = 1 at unit spacing: the certificate asks dV/dt <= -d = -0.5, and
    # V falls by 0.25 a step, so the rate excess is 0.25 on every step,
    # although V never rises
    p = MechParams(d=0.5)
    rep = lyapunov_check(_hand_series(10.0 - 0.25 * np.arange(6.0), np.ones(6), p), p)
    assert not rep.passed
    assert rep.details["rate_violation"] == 0.25
    assert rep.details["monotonicity_violation"] < 0.0
    assert rep.worst_violation == 0.25 and rep.worst_location[0] == 0.0


def test_lyapunov_check_fails_a_rise_that_the_rate_row_passes():
    # x2 = 0 and V = 1e-3 rising by 1e-6 across the step from t = 2: the
    # rate excess 1e-6 passes tol = 1e-4, the rise is 1e-3 of max V
    p = MechParams(d=0.5)
    v = np.array([1e-3, 1e-3, 1e-3, 1e-3 + 1e-6, 1e-3 + 1e-6])
    rep = lyapunov_check(_hand_series(v, np.zeros(5), p), p)
    assert rep.details["rate_violation"] <= 1e-4
    assert not rep.passed
    assert rep.worst_violation == rep.details["monotonicity_violation"]
    assert rep.worst_violation == pytest.approx(1e-6 / (1e-3 + 1e-6), rel=1e-9)
    assert rep.worst_location[0] == 2.0


def test_a_nan_in_either_lyapunov_row_fails_the_check(free_run):
    p, ser = free_run
    for name in ("x2", "v"):
        values = {a: getattr(ser, a).copy() for a in ("x1", "x2", "x3", "v")}
        values[name][20_000] = math.nan
        bad = MechSeries(t=ser.t, params=p, **values)
        rep = lyapunov_check(bad, p)
        assert not rep.passed, name
        assert math.isnan(rep.worst_violation)


def test_a_nan_energy_fails_the_port_check(feedback_run):
    p, ser = feedback_run
    v = ser.v.copy()
    v[-1] = math.nan
    bad = MechSeries(t=ser.t, x1=ser.x1, x2=ser.x2, x3=ser.x3, v=v, params=p)
    rep = passivity_port_check(bad, p)
    assert not rep.passed and rep.worst_location[0] == ser.t[-1]


def test_port_check_requires_feedback_mode(free_run):
    p, ser = free_run
    with pytest.raises(ValueError, match="feedback"):
        passivity_port_check(ser, p)


def test_coarse_step_overshoot_raises_domain_exit():
    with pytest.raises(DomainExitError):
        simulate_mech(MechParams(), MechState(0.0, 50.0, 0.7), 2.0, step=0.5)


def test_series_csv_header(tmp_path):
    p = MechParams()
    ser = simulate_mech(p, MechState(1.0, 0.0, 0.0), 0.01, step=1e-3)
    path = tmp_path / "mech.csv"
    ser.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,V"
    assert len(lines) == ser.t.size + 1


def test_series_validation():
    t = np.array([0.0, 1.0])
    z = np.zeros(2)
    with pytest.raises(ValueError):
        MechSeries(t=t, x1=z, x2=z, x3=np.zeros(3), v=z, params=MechParams())


def test_horizon_and_step_validation():
    with pytest.raises(ValueError):
        simulate_mech(MechParams(), MechState(0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        simulate_mech(MechParams(), MechState(0.0, 0.0, 0.0), 1.0, step=0.0)
    # not finite: an infinite horizon used to end in an OverflowError from
    # int(round(inf)), and a NaN step passed the sign test
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            simulate_mech(MechParams(), MechState(1.0, 0.0, 0.0), bad)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            simulate_mech(MechParams(), MechState(1.0, 0.0, 0.0), 1.0, step=bad)


@pytest.mark.parametrize("horizon, step", [(1e300, 1e-300), (1e9, 1e-9), (1e4, 9.9e-4)])
def test_a_step_count_above_the_cap_is_rejected_before_allocating(horizon, step):
    # 1e300 / 1e-300 overflows to inf and used to end in an OverflowError;
    # 1e9 / 1e-9 used to ask numpy for 1e18-sample arrays; the last is just
    # above the cap
    assert horizon / step > MAX_MECH_STEPS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than {MAX_MECH_STEPS} steps"):
            simulate_mech(MechParams(), MechState(1.0, 0.0, 0.0), horizon, step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "params, init, horizon",
    [
        (MechParams(), MechState(1.0, 0.0, 0.0), 25.0),
        (MechParams(d=0.0, k=4.0), MechState(2.0, -1.0, 0.3), 20.0),
        (MechParams(k=0.0, mode="feedback"), MechState(1.0, 1.1, 0.0), 10.0),
    ],
    ids=["free", "free-undamped", "feedback"],
)
def test_friction_march_is_the_closure_kernel_bit_for_bit(params, init, horizon):
    # the flat RK4 step must take the closure kernel's stages in the same
    # operand order, including the half-step redo of a velocity sign change
    ser = simulate_mech(params, init, horizon, step=1e-3)
    t, x1, x2, x3, exit_at = simulate_mech_closure(params, init, horizon, 1e-3)
    assert exit_at is None
    for got, want in ((ser.t, t), (ser.x1, x1), (ser.x2, x2), (ser.x3, x3)):
        assert got.tobytes() == want.tobytes()
    if params.mode == "free":
        assert (x2[1:] * x2[:-1] < 0.0).sum() >= 2


def test_band_exit_is_the_closure_kernel_bit_for_bit():
    params, init = MechParams(), MechState(0.0, 50.0, 0.7)
    t, _, _, _, exit_at = simulate_mech_closure(params, init, 2.0, 0.5)
    j, u, y = exit_at
    with pytest.raises(DomainExitError) as err:
        simulate_mech(params, init, 2.0, step=0.5)
    assert (err.value.t, err.value.u, err.value.y) == (float(t[j]), u, y)
    assert str(err.value) == f"friction force reached the band boundary at t={t[j]:.6g}"


def _mech_peak(n):
    tracemalloc.start()
    try:
        simulate_mech(MechParams(), MechState(1.0, 0.0, 0.0), n * 1e-3, step=1e-3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_friction_march_memory_is_its_five_float_arrays():
    # t, x1, x2, x3 and V are float64 arrays of n + 1 samples; evaluating V
    # holds at most four more array temporaries, so each extra step may cost
    # 9 * 8 bytes.  The states kept in Python lists would cost 32 bytes per
    # entry each (an 8-byte pointer and a 24-byte float), 96 bytes a step for
    # the three lists alone before their arrays are built.
    _mech_peak(1000)
    small = _mech_peak(10_000)
    large = _mech_peak(70_000)
    assert large - small <= 9 * 8 * 60_000
