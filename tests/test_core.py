import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem import simulate
from duhem.core import (
    Domain,
    DomainExitError,
    DuhemModel,
    Trajectory,
    check_existence_conditions,
)
from duhem.signals import InputSignal, ramp, random_piecewise_linear, rate_reparameterize, triangle

from oracles import BOUCWEN_FIXED_POINT, ramp_response_exact, simulate_exact

# 0.75 * (1 - exp(-2)): Dahl r=1 rising from rest over one input unit
RAMP_ORACLE = 0.6484985375725405


def test_rk4_ramp_matches_closed_form(dahl_r1):
    traj = simulate(dahl_r1, ramp(0.0, 1.0, 1.0), 0.0, step=1e-3)
    assert abs(traj.y[-1] - RAMP_ORACLE) < 1e-12
    assert traj.u[-1] == 1.0
    assert traj.t[-1] == 1.0


def test_simulate_lands_exactly_on_breakpoints(dahl_r1):
    sig = triangle(1.3, 2)
    traj = simulate(dahl_r1, sig, 0.0, step=7e-3)
    for t_bp, u_bp in zip(sig.times, sig.values):
        k = np.searchsorted(traj.t, t_bp)
        assert traj.t[k] == t_bp
        assert traj.u[k] == u_bp


def test_simulate_holds_output_on_constant_segments(dahl_r1):
    sig = InputSignal.from_breakpoints([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    traj = simulate(dahl_r1, sig, 0.0, step=1e-3)
    assert traj.y[-1] == traj.y[-2]
    assert traj.u[-1] == 1.0


def test_descending_segment_uses_falling_branch(dahl_r1):
    traj = simulate(dahl_r1, ramp(0.0, -1.0, 1.0), 0.0, step=1e-3)
    exact = ramp_response_exact(0.0, -1.0, 0.0)
    assert traj.y[-1] == pytest.approx(exact, abs=1e-12)
    assert traj.y[-1] < 0.0


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_simulate_matches_exact_breakpoint_map(seed):
    from duhem import dahl

    m = dahl()
    sig = random_piecewise_linear(np.random.default_rng(seed), span=2.0, n_breakpoints=(3, 7))
    traj = simulate(m, sig, 0.0, step=2e-3)
    exact = simulate_exact(sig, 0.0)
    idx = np.searchsorted(traj.t, sig.times)
    assert np.allclose(traj.t[idx], sig.times)
    assert np.abs(traj.y[idx] - exact).max() < 1e-9


def test_dahl_output_confined_to_band(dahl_r1, rng):
    for _ in range(20):
        sig = random_piecewise_linear(rng, span=3.0)
        traj = simulate(dahl_r1, sig, 0.0, step=2e-3)
        assert np.abs(traj.y).max() < 0.75


def test_boucwen_ramp_approaches_fixed_point(bw):
    traj = simulate(bw, ramp(0.0, 12.0, 12.0), 0.0, step=1e-3)
    assert traj.y[-1] == pytest.approx(BOUCWEN_FIXED_POINT, abs=1e-9)
    # fixed point is attracting from above as well
    traj2 = simulate(bw, ramp(0.0, 12.0, 12.0), 0.9, step=1e-3)
    assert traj2.y[-1] == pytest.approx(BOUCWEN_FIXED_POINT, abs=1e-9)


def test_rate_independence_of_sampled_path(dahl_r1):
    sig = triangle(1.0, 2)
    warp = InputSignal.from_breakpoints([(0.0, 0.0), (2.0, 5.0), (sig.end_time, 11.0)])
    fast = simulate(dahl_r1, sig, 0.0, step=1e-3)
    slow = simulate(dahl_r1, rate_reparameterize(sig, warp), 0.0, step=1e-3)
    # same u grid per segment, so outputs agree sample by sample
    i = np.searchsorted(fast.t, sig.times)
    j = np.searchsorted(slow.t, np.interp(sig.times, warp.times, warp.values))
    assert np.allclose(fast.y[i], slow.y[j], atol=1e-12)


def test_convergence_order_exceeds_three_and_a_half(dahl_r1):
    exact = ramp_response_exact(0.0, 1.0, 0.0)
    errs = []
    for h in (4e-2, 2e-2, 1e-2, 5e-3):
        traj = simulate(dahl_r1, ramp(0.0, 1.0, 1.0), 0.0, step=h)
        errs.append(abs(traj.y[-1] - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(orders) > 3.5, f"observed orders {orders}"


def test_domain_exit_raises_with_location():
    m = DuhemModel(
        name="drift",
        f1=lambda s, x: 1.0 + 0.0 * s,
        f2=lambda s, x: 1.0 + 0.0 * s,
        params={},
        domain=Domain(-0.5, 0.5),
    )
    with pytest.raises(DomainExitError) as err:
        simulate(m, ramp(0.0, 1.0, 1.0), 0.0, step=1e-2)
    assert err.value.y > 0.5
    assert 0.4 < err.value.t < 0.6


def test_simulate_raises_when_the_output_blows_up_on_the_whole_plane():
    # dy/du = y^2 from y = 1 blows up at u = 1: an unbounded domain has no
    # band edge to cross, but a non-finite output must still be reported
    sq = lambda s, x: s * s
    m = DuhemModel(name="blowup", f1=sq, f2=sq)
    with pytest.raises(DomainExitError) as err:
        simulate(m, ramp(0.0, 2.0, 1.0), 1.0, step=1e-3)
    assert not math.isfinite(err.value.y)
    assert 1.0 < err.value.u < 1.01
    assert err.value.t == pytest.approx(0.5 * err.value.u, rel=1e-12)


def test_initial_state_outside_domain_rejected(dahl_r1):
    with pytest.raises(DomainExitError, match="initial state"):
        simulate(dahl_r1, ramp(0.0, 1.0, 1.0), 0.8)


def test_simulate_rejects_nonpositive_step(dahl_r1):
    with pytest.raises(ValueError):
        simulate(dahl_r1, ramp(0.0, 1.0, 1.0), 0.0, step=-1e-3)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_trajectory_csv_roundtrip(tmp_path, dahl_r1):
    traj = simulate(dahl_r1, ramp(0.0, 1.0, 1.0), 0.0, step=0.25)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,y"
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back[:, 0], traj.t)
    assert np.array_equal(back[:, 2], traj.y)


def test_domain_membership_grid():
    d = Domain(-1.0, 1.0)
    assert d.bounded
    got = d.contains(np.array([-1.5, 0.0, 0.9999, 1.0]))
    assert got.tolist() == [False, True, True, False]
    with pytest.raises(ValueError):
        Domain(1.0, -1.0)


def test_existence_conditions_affine_margin(dahl_r1):
    # both difference quotients are exactly -/+ rho/fc = -/+ 2
    grid = (np.linspace(-0.7, 0.7, 60), np.linspace(-2.0, 2.0, 9))
    rep = check_existence_conditions(dahl_r1, grid, 3.0)
    assert rep.passed
    assert rep.worst_violation == pytest.approx(-5.0, abs=1e-12)
    assert rep.details["lambda_bound"] == 3.0


def test_existence_conditions_flags_violation():
    m = DuhemModel(
        name="steep",
        f1=lambda s, x: 10.0 * s,
        f2=lambda s, x: -10.0 * s,
        params={},
        domain=Domain(-1.0, 1.0),
    )
    rep = check_existence_conditions(m, (np.linspace(-0.9, 0.9, 20), np.array([0.0])), 1.0)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(9.0, abs=1e-9)


def test_existence_conditions_rejects_bad_inputs(dahl_r1):
    with pytest.raises(ValueError):
        check_existence_conditions(dahl_r1, (np.linspace(-1.0, 1.0, 10), np.array([0.0])), 3.0)
    with pytest.raises(ValueError):
        check_existence_conditions(dahl_r1, (np.linspace(-0.5, 0.5, 10), np.array([0.0])), -1.0)

