import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem import boucwen, core, curves, dahl, exp_example, simulate
from duhem.core import (
    Domain,
    DomainExitError,
    DuhemModel,
    Trajectory,
    check_existence_conditions,
)
from duhem.signals import InputSignal, ramp, random_piecewise_linear, rate_reparameterize, triangle

from oracles import (
    BOUCWEN_FIXED_POINT,
    march_per_step,
    ramp_response_exact,
    simulate_exact,
    simulate_per_step,
    substeps,
)

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
    sig = InputSignal(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
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
    warp = InputSignal(np.array([0.0, 2.0, sig.end_time]), np.array([0.0, 5.0, 11.0]))
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


@pytest.mark.parametrize("step", [math.nan, math.inf])
def test_simulate_rejects_a_step_that_is_not_finite(dahl_r1, step):
    # nan raised "cannot convert float NaN to integer"; inf ran one RK4
    # substep per segment and left the domain at t=3
    with pytest.raises(ValueError, match=f"^step must be positive and finite, got {step}$"):
        simulate(dahl_r1, triangle(1.0, 1), 0.0, step=step)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1e-3])
def test_simulate_checks_the_step_before_the_first_segment(dahl_r1, step):
    # a held input marches no segment: at step = nan it returned its two
    # samples, since only a moving segment's substep count read the step
    held = InputSignal(np.array([0.0, 1.0]), np.array([0.2, 0.2]))
    with pytest.raises(ValueError, match=f"^step must be positive and finite, got {step}$"):
        simulate(dahl_r1, held, 0.0, step=step)
    assert simulate(dahl_r1, held, 0.0).y.tolist() == [0.0, 0.0]


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    t = u = y = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="one entry per sample interval"):
        Trajectory(t, u, y, slope_left=np.ones(3), slope_right=np.ones(3))
    with pytest.raises(ValueError, match="one entry per sample interval"):
        Trajectory(t, u, y, slope_left=np.ones(2), slope_right=np.ones(1))
    with pytest.raises(ValueError, match="or neither"):
        Trajectory(t, u, y, slope_left=np.ones(2))


def test_trajectory_built_by_hand_has_secant_interval_slopes():
    u = np.array([0.0, 0.5, 0.5, 1.5, 1.0])
    y = np.array([0.1, 0.3, 0.3, 0.2, 0.6])
    traj = Trajectory(np.arange(5.0), u, y)
    assert traj.slope_left.size == traj.slope_right.size == 4
    left, right = traj.slope_left, traj.slope_right
    assert left is right
    np.testing.assert_allclose(left, [0.4, 0.0, -0.1, -0.8], rtol=1e-15, atol=0.0)


def test_simulate_of_a_single_breakpoint_is_one_sample_and_no_interval(dahl_r1):
    traj = simulate(dahl_r1, InputSignal(np.array([0.0]), np.array([0.3])), 0.1)
    assert (traj.t.tolist(), traj.u.tolist(), traj.y.tolist()) == ([0.0], [0.3], [0.1])
    assert traj.slope_left.shape == traj.slope_right.shape == (0,)


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
    assert (d.sigma_min, d.sigma_max) == (-1.0, 1.0)
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


def test_existence_conditions_mask_every_pair_of_equal_sigmas(dahl_r1):
    # linspace(0, 5e-324, 3) is [0, 0, 5e-324]: the pair of the two zeros
    # is 0 / 0, masked like the diagonal, and only the 4 pairs of distinct
    # sigmas count; with the diagonal alone masked the report read NaN
    sig = np.linspace(0.0, 5e-324, 3)
    assert sig[0] == sig[1]
    rep = check_existence_conditions(dahl_r1, (sig, np.array([0.0, 1.0])), 0.0)
    assert rep.worst_violation == 0.0 and rep.passed
    assert rep.samples_checked == 2 * 4
    # the verify grid repeats no value: every ordered pair counts
    grid = (np.linspace(-0.7, 0.7, 60), np.linspace(-2.0, 2.0, 9))
    assert check_existence_conditions(dahl_r1, grid, 3.0).samples_checked == 9 * 60 * 59


def test_existence_conditions_rejects_bad_inputs(dahl_r1):
    with pytest.raises(ValueError):
        check_existence_conditions(dahl_r1, (np.linspace(-1.0, 1.0, 10), np.array([0.0])), 3.0)
    with pytest.raises(ValueError):
        check_existence_conditions(dahl_r1, (np.linspace(-0.5, 0.5, 10), np.array([0.0])), -1.0)
    # an infinite bound made every excess -inf, so any model passed, and a
    # NaN got past the test bound < 0
    grid = (np.linspace(-0.5, 0.5, 10), np.array([0.0]))
    for bound in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda_bound must be nonnegative"):
            check_existence_conditions(dahl_r1, grid, bound)


# -- the scalar march against its one-node-at-a-time oracle ------------------


def _numpy_scalar_model():
    """Fields that return numpy float64 scalars (f1) and 0-d arrays (f2)
    for float arguments, arrays for arrays."""
    return DuhemModel(
        name="numpy scalars",
        f1=lambda s, x: np.float64(1.0) - 0.5 * s + 0.1 * np.sin(x),
        f2=lambda s, x: np.asarray(1.0 + 0.5 * s - 0.1 * np.sin(x)),
        domain=Domain(-3.0, 3.0),
    )


_ORACLE_MODELS = {
    "dahl r=1": dahl,
    "dahl r=3": lambda: dahl(r=3.0),
    "boucwen": boucwen,
    "exp_example": exp_example,
    "numpy scalars": _numpy_scalar_model,
}


def _oracle_signals():
    """(signal, step) pairs; a step of None stands for simulate's default,
    which the tests take by omitting the step."""
    rng = np.random.default_rng(41)
    return [
        (triangle(2.0, 2), 1e-3),
        # a held stretch, a short segment of one substep, the default step
        (InputSignal(np.array([0.0, 1.0, 2.0, 2.5, 4.0]),
                     np.array([0.0, 1.3, 1.3, 1.3004, -0.7])), None),
        (random_piecewise_linear(rng, u_start=0.0, span=2.0, n_breakpoints=(3, 8)), 5e-3),
        # ua + n h misses ub on the second segment, t0 + (ub - ua) * inv_rate
        # misses t1 on the first
        (InputSignal(np.array([0.0, 0.7, 1.9]), np.array([0.1, 1.37, -0.29])), 3e-3),
    ]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _simulate(model, signal, y0, step):
    """simulate at step, or at its default where step is None."""
    return simulate(model, signal, y0, **({} if step is None else {"step": step}))


@pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
def test_simulate_defaults_to_a_step_of_1e_3_bit_for_bit(name):
    # the default was |du| / 1000 capped at 1e-3 per segment: at least 1000
    # substeps on a segment however short
    model = _ORACLE_MODELS[name]()
    for signal, _ in _oracle_signals():
        want, got = simulate(model, signal, 0.1, step=1e-3), simulate(model, signal, 0.1)
        for field in ("t", "u", "y", "slope_left", "slope_right"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
def test_simulate_is_the_per_step_march_bit_for_bit(name):
    model = _ORACLE_MODELS[name]()
    for signal, step in _oracle_signals():
        traj = _simulate(model, signal, 0.1, step)
        t, u, y, exit_ = simulate_per_step(model, signal, 0.1, 1e-3 if step is None else step)
        assert exit_ is None
        assert (traj.t.tobytes(), traj.u.tobytes(), traj.y.tobytes()) == (
            _bits(t), _bits(u), _bits(y)
        ), (name, step)


@pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
def test_march_branch_is_the_per_step_march_bit_for_bit(name):
    model = _ORACLE_MODELS[name]()
    lo, hi = model.domain.sigma_min, model.domain.sigma_max
    for f, sigma, xi, tau_stop in (
        (model.f1, 0.2, -0.3, 1.7),
        (model.f2, -0.1, 0.4, -1.35),
        (model.f2, 0.1, 1.37, -0.29),
        # the start node keeps the sign of a zero: -0.0 + 0 h is +0.0
        (model.f1, 0.2, -0.0, 0.5),
        (model.f1, 0.2, 0.4, 0.4),
    ):
        taus, ys, fs, truncated = curves._march_branch(model, f, sigma, xi, tau_stop, 1e-3)
        if tau_stop == xi:
            want = [xi], [sigma], [float(f(sigma, xi))], None
        else:
            want = march_per_step(f, sigma, xi, tau_stop, substeps(tau_stop - xi, 1e-3), lo, hi)
        assert (taus.tobytes(), ys.tobytes(), fs.tobytes()) == tuple(map(_bits, want[:3]))
        assert truncated == (want[3] is not None)


def _tangent_model():
    """dy/du = 1 + y^2 on both branches: y = tan(u - c) leaves the band
    (-1, 1) inside a segment."""
    field = lambda s, x: 1.0 + s * s
    return DuhemModel(name="tangent", f1=field, f2=field, domain=Domain(-1.0, 1.0))


@pytest.mark.parametrize(
    "values", [(0.0, 2.0), (0.0, 0.5, -2.0)], ids=["rising", "falling"]
)
def test_domain_exit_is_the_per_step_march_exit(values):
    model = _tangent_model()
    signal = InputSignal(np.arange(len(values), dtype=float), np.array(values))
    with pytest.raises(DomainExitError) as err:
        simulate(model, signal, 0.0, step=1e-2)
    *_, exit_ = simulate_per_step(model, signal, 0.0, 1e-2)
    got = (err.value.t, err.value.u, err.value.y)
    assert _bits(got) == _bits(exit_), (got, exit_)
    # the exit lies inside the last segment
    assert min(values[-2:]) < err.value.u < max(values[-2:])
    assert len(values) - 2 < err.value.t < len(values) - 1


def test_march_branch_truncation_is_the_per_step_march_exit():
    model = _tangent_model()
    taus, ys, fs, truncated = curves._march_branch(model, model.f1, 0.0, 0.0, 2.0, 1e-2)
    want = march_per_step(model.f1, 0.0, 0.0, 2.0, 200, -1.0, 1.0)
    assert truncated and want[3] is not None
    assert (taus.tobytes(), ys.tobytes(), fs.tobytes()) == tuple(map(_bits, want[:3]))


@pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
def test_simulated_interval_slopes_are_the_branch_fields_at_both_ends_bit_for_bit(name):
    # the slopes the march keeps are f(y_k, u_k) on each interval's own
    # branch at both of its ends: across turning points, held stretches and
    # reused segments; a held interval has 0.0 at both ends
    model = _ORACLE_MODELS[name]()
    for signal, step in _oracle_signals() + [(triangle(1.0, 3), 5e-3)]:
        traj = _simulate(model, signal, 0.1, step)
        left, right = traj.slope_left, traj.slope_right
        u, y = traj.u.tolist(), traj.y.tolist()
        want_left, want_right = [], []
        for k in range(len(u) - 1):
            f = model.f1 if u[k + 1] > u[k] else model.f2
            want_left.append(float(f(y[k], u[k])) if u[k + 1] != u[k] else 0.0)
            want_right.append(float(f(y[k + 1], u[k + 1])) if u[k + 1] != u[k] else 0.0)
        moving = np.diff(traj.u) != 0.0
        assert _bits(left[moving]) == _bits(np.array(want_left)[moving]), (name, step)
        assert _bits(right[moving]) == _bits(np.array(want_right)[moving]), (name, step)
        assert _bits(left) == _bits(np.array(want_left)), (name, step)
        assert _bits(right) == _bits(np.array(want_right)), (name, step)


# -- work counts of the scalar march ------------------------------------------


def _counted(fn, calls):
    @functools.wraps(fn)
    def wrapper(*args):
        calls[0] += 1
        return fn(*args)

    return wrapper


def test_simulate_makes_4n_plus_1_field_calls_per_moving_segment(dahl_r3):
    field_calls = [0]
    model = dataclasses.replace(
        dahl_r3, f1=_counted(dahl_r3.f1, field_calls), f2=_counted(dahl_r3.f2, field_calls)
    )
    field_calls[0] = 0
    values = np.array([0.0, 1.0, 1.0, -0.55, 0.3, 0.3000001])
    signal = InputSignal(np.arange(values.size, dtype=float), values)
    simulate(model, signal, 0.0, step=1e-2)
    moving = [du for du in np.diff(values) if du != 0.0]
    assert field_calls[0] == sum(4 * math.ceil(abs(du) / 1e-2) + 1 for du in moving)


@pytest.mark.parametrize("make", [dahl, boucwen], ids=["dahl", "boucwen"])
def test_periodic_loop_reuses_repeated_segments_bit_for_bit(make):
    # on its periodic orbit a 5-cycle triangle repeats its segments from
    # the same output bits; simulate reuses them, which shows as fewer than
    # 4n + 1 field calls per moving segment, with the per-step march's bits
    field_calls = [0]
    model = make()
    counted = dataclasses.replace(
        model, f1=_counted(model.f1, field_calls), f2=_counted(model.f2, field_calls)
    )
    signal = triangle(2.0, 5)
    traj = simulate(counted, signal, 0.0, step=1e-3)
    t, u, y, exit_ = simulate_per_step(model, signal, 0.0, 1e-3)
    assert exit_ is None
    assert (traj.t.tobytes(), traj.u.tobytes(), traj.y.tobytes()) == (_bits(t), _bits(u), _bits(y))
    moving = [du for du in np.diff(signal.values) if du != 0.0]
    assert field_calls[0] < sum(4 * substeps(du, 1e-3) + 1 for du in moving)


@pytest.mark.parametrize(
    "f1, f2, y0",
    [
        (lambda s, x: math.copysign(1.0, s), lambda s, x: -1.0, -0.0),
        (lambda s, x: 2.0 if s == 0.5 else 1.0, lambda s, x: 1.0, 0.5 + 2.0**-53),
    ],
    ids=["sign of zero", "last bit"],
)
def test_segments_from_starts_that_differ_in_one_bit_are_marched_apart(f1, f2, y0):
    # the input 0 -> 1 -> 0 -> 1 in one substep per segment brings the
    # output back to y0 but for the sign of zero or the last bit, and the
    # field reads that bit, so the third segment's output differs from the
    # first's: reusing the first would show
    model = DuhemModel(name="bits", f1=f1, f2=f2)
    signal = InputSignal(np.arange(4.0), np.array([0.0, 1.0, 0.0, 1.0]))
    traj = simulate(model, signal, y0, step=1.0)
    _, _, y, _ = simulate_per_step(model, signal, y0, 1.0)
    assert traj.y.tobytes() == _bits(y)
    assert _bits([traj.y[2]]) != _bits([y0]) and abs(traj.y[2] - y0) <= math.ulp(y0)
    assert traj.y[3] != traj.y[1]


@pytest.mark.parametrize("n", [1, 2, 37])
def test_march_segment_makes_n_rk4_steps_and_4n_plus_1_field_calls(monkeypatch, exp_model, n):
    rk4_calls, field_calls = [0], [0]
    monkeypatch.setattr(core, "rk4_step", _counted(core.rk4_step, rk4_calls))
    f = _counted(exp_model.f1, field_calls)
    nodes, ys, ks, y_exit = core._march_segment(f, 0.3, -0.2, 0.9, n, -math.inf, math.inf)
    assert y_exit is None and len(nodes) == len(ys) == len(ks) == n + 1
    assert rk4_calls[0] == n
    assert field_calls[0] == 4 * n + 1


@pytest.mark.parametrize("call, msg", [
    (lambda: DuhemModel("m", 1.0, lambda s, xi: s), "f1 and f2 must be callable"),
    (lambda: simulate(dahl(), triangle(1.0, 1), math.nan), "y0 must be finite"),
    (lambda: check_existence_conditions(dahl(), ([0.0], [0.0]), 1.0), "two sigma values"),
], ids=["field-not-callable", "nan-y0", "one-sigma-grid"])
def test_each_core_check_names_what_it_rejects(call, msg):
    with pytest.raises(ValueError, match=msg):
        call()
