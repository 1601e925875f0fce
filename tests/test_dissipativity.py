import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem import boucwen, dahl, exp_example, simulate, triangle
from duhem.core import Domain, DuhemModel, Trajectory
from duhem.dissipativity import (
    LoopClassification,
    check_assumption_A,
    cw_supply_integral,
    cycle_stabilization,
    loop_areas,
    loop_orientation,
    loop_orientation_report,
    verify_dissipation_battery,
    verify_dissipation_pair,
)
from duhem.signals import InputSignal, ramp, random_piecewise_linear
from duhem.storage import storage_cw_batch

from oracles import loop_areas_per_sample, loop_orientation_whole, storage_exact, supply_exact

DAHL_BAND = ((-0.7, 0.7), (-2.0, 2.0))


def test_assumption_A_dahl(dahl_r1):
    rep = check_assumption_A(dahl_r1, DAHL_BAND)
    assert rep.passed
    assert rep.samples_checked == 40000
    assert rep.worst_violation < 0.0


@pytest.mark.parametrize("region", [
    ((-0.7, 0.7), (-2.0, 2.0)),
    ((-3.0, 3.0), (-3.0, 3.0)),
])
def test_assumption_A_boucwen_and_exp(bw, exp_model, region):
    for model in (bw, exp_model):
        rep = check_assumption_A(model, region)
        assert rep.passed, f"{model.name} on {region}: {rep.worst_violation}"


def test_assumption_A_flags_wrong_sign_structure():
    # F = sigma is positive above the declared zero curve: exactly backwards
    m = DuhemModel(
        name="anticlockwise",
        f1=lambda s, x: 1.0 + s,
        f2=lambda s, x: 1.0 - s,
        params={},
        domain=Domain(-1.0, 1.0),
        f_an=lambda xi: 0.0 * xi,
    )
    rep = check_assumption_A(m, ((-0.9, 0.9), (-1.0, 1.0)))
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.9, abs=1e-9)


def test_dissipation_forward_and_backward_on_triangle(dahl_r1):
    fwd, bwd = verify_dissipation_pair(dahl_r1, triangle(1.0, 2), 0.0)
    assert fwd.passed and bwd.passed
    assert fwd.name == "dissipation-forward"
    assert bwd.name == "dissipation-backward"
    # default tolerance tracks the discretisation: 1e-6 + 10 * step
    assert fwd.tolerance == pytest.approx(1e-6 + 10.0 * fwd.details["step"])


def test_backward_report_is_checked_against_the_next_output(dahl_r1):
    # On a triangle the output moves between samples, so the forward supply
    # y_k du_k and the backward supply y_k+1 du_k differ; each report's
    # worst violation is the largest of its own difference quotients,
    # computed here sample by sample.
    step = 0.05
    sig = triangle(1.0, 2)
    fwd, bwd = verify_dissipation_pair(dahl_r1, sig, 0.2, step=step)
    traj = simulate(dahl_r1, sig, 0.2, step=step)
    H = storage_cw_batch(dahl_r1, traj.y, traj.u, step=step).value
    t, u, y = (a.tolist() for a in (traj.t, traj.u, traj.y))
    quotients = {"forward": [], "backward": []}
    for k in range(len(t) - 1):
        dH, du, dt = H[k + 1] - H[k], u[k + 1] - u[k], t[k + 1] - t[k]
        assert y[k + 1] != y[k]
        quotients["forward"].append((dH - y[k] * du) / dt)
        quotients["backward"].append((dH - y[k + 1] * du) / dt)
    assert fwd.worst_violation == max(quotients["forward"])
    assert bwd.worst_violation == max(quotients["backward"])
    assert fwd.worst_violation != bwd.worst_violation


def _report_bits(rep):
    return (
        rep.name,
        rep.passed,
        np.float64(rep.worst_violation).tobytes(),
        np.array(rep.worst_location).tobytes(),
        rep.tolerance,
        rep.samples_checked,
        dict(rep.details),
    )


@pytest.mark.parametrize("model", [dahl(), boucwen(), exp_example()], ids=lambda m: m.name)
def test_dissipation_battery_pairs_are_the_per_signal_pairs(model):
    # inputs of unequal length (a short ramp, random inputs with different
    # breakpoint counts, a triangle), so a misplaced split of the one storage
    # ride over all samples hands a signal another signal's storage
    rng = np.random.default_rng(11)
    signals = [
        ramp(0.0, 0.4, 0.4),
        random_piecewise_linear(rng, span=1.5, n_breakpoints=(3, 3)),
        triangle(1.0, 2),
        random_piecewise_linear(rng, span=2.0, n_breakpoints=(8, 8)),
    ]
    sizes = {simulate(model, sig, 0.1, step=5e-3).n_samples for sig in signals}
    assert len(sizes) == len(signals)
    pairs = verify_dissipation_battery(model, signals, 0.1, ride_step=1e-2)
    assert len(pairs) == len(signals)
    for sig, (fwd, bwd) in zip(signals, pairs):
        lone_fwd, lone_bwd = verify_dissipation_pair(model, sig, 0.1, ride_step=1e-2)
        assert _report_bits(fwd) == _report_bits(lone_fwd)
        assert _report_bits(bwd) == _report_bits(lone_bwd)


def test_dissipation_battery_of_no_signals_is_empty(dahl_r1):
    assert verify_dissipation_battery(dahl_r1, [], 0.0) == []


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_dissipation_holds_on_random_inputs(seed):
    m = dahl()
    sig = random_piecewise_linear(
        np.random.default_rng(seed), span=1.5, n_breakpoints=(3, 5)
    )
    fwd, bwd = verify_dissipation_pair(m, sig, 0.0)
    assert fwd.passed, f"seed {seed}: {fwd.worst_violation} > {fwd.tolerance}"
    assert bwd.passed, f"seed {seed}: {bwd.worst_violation} > {bwd.tolerance}"


def test_supply_integral_bounded_below_by_initial_storage(dahl_r1):
    # W(t) >= H(t) - H(0) >= -H(0) along any clockwise trajectory
    for y0 in (0.0, 0.375, -0.6):
        traj = simulate(dahl_r1, triangle(1.2, 2), y0, step=1e-3)
        sup = cw_supply_integral(traj)
        assert sup.values[0] == 0.0
        assert sup.running_min[-1] >= -storage_exact(y0) - 1e-6
        assert np.all(np.diff(sup.running_min) <= 0.0 + 1e-15)


def test_supply_from_rest_never_goes_negative(dahl_r1):
    traj = simulate(dahl_r1, triangle(1.0, 3), 0.0, step=1e-3)
    sup = cw_supply_integral(traj)
    assert sup.running_min[-1] >= -1e-12


def test_loop_orientation_triangle_is_clockwise(dahl_r1):
    # the third cycle, 0 -> 1 -> -1 -> 0 from t = 8, in closed form
    # (1.553958607145777); the trapezoid rule at this step is 5.5e-7 off
    sig = triangle(1.0, 3)
    traj = simulate(dahl_r1, sig, 0.0, step=1e-3)
    lc = loop_orientation(traj)
    w = supply_exact(sig, 0.0)
    assert lc.label == "clockwise"
    assert lc.area == pytest.approx(w[9] - w[6], abs=1e-9)
    assert lc.t_close == pytest.approx(8.0)


def test_loop_orientation_whole_path_fallback(dahl_r1):
    # single up-down excursion closes only over the full path
    sig = InputSignal.from_breakpoints([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    traj = simulate(dahl_r1, sig, 0.0, step=1e-3)
    lc = loop_orientation(traj)
    assert lc.label == "clockwise"
    # closed form 0.5711345602716437; the trapezoid rule is 3.1e-7 off
    assert lc.area == pytest.approx(supply_exact(sig, 0.0)[-1], abs=1e-12)
    assert lc.t_close == 0.0


@pytest.mark.parametrize(
    "model, amplitude",
    [(dahl(r=3.0), 2.0), (boucwen(), 2.0), (exp_example(), 3.0)],
    ids=["dahl fig1", "boucwen fig2", "exp_example"],
)
def test_readme_loops_at_the_battery_step_lie_within_1e_8_of_a_fine_reference(model, amplitude):
    # the loop input of each README `duhem verify` command: a 5-cycle
    # triangle over the certified xi range, from y0 = 0, at the battery step
    # 5e-3 against step 2.5e-4 (the trapezoid rule at 1e-3 is 2.2e-7 to
    # 1.3e-6 off)
    sig = triangle(amplitude, 5)
    traj, ref = (simulate(model, sig, 0.0, step=h) for h in (5e-3, 2.5e-4))
    times, areas = loop_areas(traj)
    ref_times, ref_areas = loop_areas(ref)
    assert areas.size == 5 and np.array_equal(times, ref_times)
    np.testing.assert_allclose(areas, ref_areas, rtol=0.0, atol=1e-8)
    assert loop_orientation(traj).area == pytest.approx(loop_orientation(ref).area, abs=1e-8)


@pytest.mark.parametrize(
    "model, amplitude",
    [(dahl(r=3.0), 2.0), (boucwen(), 2.0), (exp_example(), 3.0)],
    ids=["dahl fig1", "boucwen fig2", "exp_example"],
)
@pytest.mark.parametrize("step", [5e-3, 1e-3])
def test_loop_orientation_from_the_crossing_is_the_whole_trajectory_sum_bit_for_bit(
    model, amplitude, step
):
    # the README loops: the crossing is found from u alone and only the
    # intervals from it on are integrated, summed by the same np.sum over
    # the same values
    traj = simulate(model, triangle(amplitude, 5), 0.0, step=step)
    cls = loop_orientation(traj)
    area, t_close = loop_orientation_whole(traj)
    assert np.array([cls.area, cls.t_close]).tobytes() == np.array([area, t_close]).tobytes()
    # the last cycle of five, of 4 * amplitude each, closes at 16 * amplitude
    assert cls.t_close == pytest.approx(16.0 * amplitude)


def test_loop_orientation_of_the_whole_path_and_by_hand_is_the_whole_trajectory_sum():
    # no interior crossing: the whole path from t[0]; and secant slopes on
    # a trajectory built by hand, with a crossing inside
    up_down = InputSignal.from_breakpoints([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    trajs = [simulate(dahl(), up_down, 0.0, step=1e-3)]
    t = np.linspace(0.0, 2.0, 4001)
    trajs.append(Trajectory(t, np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t) ** 3))
    for traj in trajs:
        cls = loop_orientation(traj)
        assert (cls.area, cls.t_close) == loop_orientation_whole(traj)
    assert trajs[0].slope is not None and trajs[1].slope is None


def test_a_trajectory_built_by_hand_takes_the_trapezoid_rule():
    # one excursion 0 -> top -> 0 on uneven samples: the whole path is the loop
    rng = np.random.default_rng(5)
    up = np.cumsum(rng.uniform(0.01, 0.1, 20))
    down = up[-1] - np.cumsum(rng.uniform(0.01, 0.1, 30))
    u = np.concatenate([[0.0], up, down[down > 0.0], [0.0]])
    y = rng.uniform(-1.0, 1.0, u.size)
    lc = loop_orientation(Trajectory(np.arange(float(u.size)), u, y))
    trapezoid = np.sum(0.5 * (y[:-1] + y[1:]) * np.diff(u))
    assert lc.area == pytest.approx(trapezoid, rel=1e-13)


def _reflected_dahl():
    """The y -> -y reflection of Dahl r = 1: f1'(s, x) = -f1(-s, x) and
    f2'(s, x) = -f2(-s, x), counterclockwise with Dahl's F."""
    m = dahl()
    return DuhemModel(
        name="dahl reflected",
        f1=lambda s, x: -m.f1(-s, x),
        f2=lambda s, x: -m.f2(-s, x),
        domain=m.domain,
        f_an=m.f_an,
    )


def test_reflected_dahl_is_counterclockwise_and_fails_the_loop_report():
    model = _reflected_dahl()
    cls = loop_orientation(simulate(model, triangle(2.0, 5), 0.0, step=5e-3))
    assert cls.label == "counterclockwise"
    assert cls.area == pytest.approx(-4.501, abs=1e-3)
    rep = loop_orientation_report(cls)
    assert not rep.passed and rep.worst_violation > 4.5
    # Dahl itself passes with the mirror area
    dahl_cls = loop_orientation(simulate(dahl(), triangle(2.0, 5), 0.0, step=5e-3))
    assert loop_orientation_report(dahl_cls).passed
    assert dahl_cls.area == pytest.approx(-cls.area, rel=1e-12)
    # its F equals Dahl's, so the sign-structure certificate cannot tell
    assert check_assumption_A(model, DAHL_BAND).passed


def test_loop_orientation_counterclockwise_parametric():
    t = np.linspace(0.0, 1.0, 2001)
    traj = Trajectory(t, np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t))
    lc = loop_orientation(traj)
    assert lc.label == "counterclockwise"
    assert lc.area == pytest.approx(-np.pi, abs=1e-4)


def test_loop_orientation_degenerate_wiggle(dahl_r1):
    sig = InputSignal.from_breakpoints(
        [(0.0, 0.0), (1.0, 1e-7), (2.0, -1e-7), (3.0, 0.0)]
    )
    traj = simulate(dahl_r1, sig, 0.0, step=1e-3)
    assert loop_orientation(traj).label == "degenerate"


def test_loop_orientation_rejects_constant_input(dahl_r1):
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="constant input"):
        loop_orientation(traj)


def test_loop_orientation_rejects_open_path(dahl_r1):
    sig = InputSignal.from_breakpoints([(0.0, 0.0), (1.0, 1.0), (1.5, 0.5)])
    traj = simulate(dahl_r1, sig, 0.0, step=1e-3)
    with pytest.raises(ValueError, match="never closes"):
        loop_orientation(traj)


def test_loop_areas_converge_cycle_over_cycle(dahl_r1):
    sig = triangle(1.0, 3)
    traj = simulate(dahl_r1, sig, 0.0, step=1e-3)
    times, areas = loop_areas(traj)
    assert np.allclose(times, [4.0, 8.0, 12.0])
    assert (areas > 0.0).all()
    assert np.abs(np.diff(areas))[-1] < 1e-4
    # each cycle's closed form: the supply between the breakpoints at
    # t = 0, 4, 8 and 12
    exact = np.diff(supply_exact(sig, 0.0)[::3])
    np.testing.assert_allclose(areas, exact, rtol=0.0, atol=1e-9)


def test_loop_areas_empty_for_constant_input():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([0.1, 0.1]))
    times, areas = loop_areas(traj)
    assert times.size == 0 and areas.size == 0


def test_loop_areas_custom_level(dahl_r3):
    traj = simulate(dahl_r3, triangle(2.0, 5), 0.0, step=1e-3)
    times, areas = loop_areas(traj, level=0.0)
    assert areas.size == 5
    # per-cycle increments settle after the third cycle
    assert np.abs(np.diff(areas[2:])).max() < 1e-4


@pytest.mark.parametrize("seed", [3, 8])
def test_loop_areas_equal_the_per_sample_sum_bit_for_bit(dahl_r3, seed):
    # held segments and breakpoints on the quarter grid, so samples sit on
    # the levels 0.0 and 0.5 and held samples fall between crossings
    rng = np.random.default_rng(seed)
    vals = np.round(4.0 * rng.uniform(-2.0, 2.0, 16)) / 4.0
    vals[0] = 0.0
    vals = np.repeat(vals, 2)
    times = np.cumsum(np.concatenate([[0.0], np.where(np.diff(vals) == 0.0, 0.1, np.abs(np.diff(vals)))]))
    traj = simulate(dahl_r3, InputSignal(times, vals), 0.1, step=5e-3)
    for level in (None, 0.5, -0.3):
        lvl = float(traj.u[0]) if level is None else level
        got = loop_areas(traj, level=level)
        want = loop_areas_per_sample(dahl_r3, traj.u, traj.y, traj.t, lvl)
        assert want[0].size > 0
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_loop_classification_is_plain_record():
    lc = LoopClassification(label="clockwise", area=1.0, t_close=2.0)
    assert lc == LoopClassification("clockwise", 1.0, 2.0)


def _settling_areas(change, loops=6):
    """Loop areas that change by `change` per loop from the third loop on."""
    return np.concatenate([[1.0, 0.5], 0.3 + change * np.arange(loops - 2)])[:loops]


def test_cycle_stabilization_fails_on_areas_that_settle_only_to_2e4():
    times = np.arange(1.0, 7.0)
    areas = _settling_areas(2e-4)
    rep = cycle_stabilization(times, areas)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(2e-4, rel=1e-9)
    assert rep.tolerance == 1e-4
    assert rep.worst_location == (6.0,)
    assert rep.samples_checked == 3
    assert rep.details == {"areas": [float(a) for a in areas]}
    # the same changes ten times smaller pass
    assert cycle_stabilization(times, _settling_areas(2e-5)).passed


def test_cycle_stabilization_reads_the_change_from_the_third_loop_to_the_fourth():
    # a jump of 2e-4 between loops 3 and 4, flat afterwards: a check that
    # started at the fourth loop would pass
    times = np.arange(1.0, 7.0)
    areas = np.array([1.0, 0.5, 0.3, 0.3002, 0.3002, 0.3002])
    rep = cycle_stabilization(times, areas)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(2e-4, rel=1e-9)


def test_cycle_stabilization_needs_four_loops():
    rep = cycle_stabilization(np.arange(1.0, 4.0), _settling_areas(0.0, loops=3))
    assert not rep.passed and rep.worst_violation == np.inf
    rep = cycle_stabilization(np.zeros(0), np.zeros(0))
    assert not rep.passed and rep.worst_location == (0.0,)
    assert rep.samples_checked == 0

