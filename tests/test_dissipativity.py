import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem import boucwen, dahl, exp_example, simulate, triangle
from duhem.core import Domain, DuhemModel, Trajectory
from duhem.dissipativity import (
    LoopClassification,
    _aggregate,
    check_assumption_A,
    cycle_stabilization,
    loop_areas,
    loop_orientation,
    loop_orientation_report,
    verify_dissipation_battery,
    verify_dissipation_pair,
    verify_model,
)
from duhem.signals import InputSignal, ramp, random_piecewise_linear
from duhem import dissipativity as dissipativity_module
from duhem.report import VerificationReport
from duhem.storage import storage_cw_batch, storage_output_only

from oracles import (
    cw_supply_integral,
    loop_areas_per_sample,
    loop_orientation_whole,
    storage_exact,
    supply_exact,
)
from test_certificates import STEEP_BELOW

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


@pytest.mark.parametrize("reduced", [True, False])
def test_backward_report_is_checked_against_the_next_output(dahl_r1, reduced):
    # On a triangle the output moves between samples, so the forward supply
    # y_k du_k and the backward supply y_k+1 du_k differ; each report's
    # worst violation is the largest of its own difference quotients,
    # computed here sample by sample, on the storage of the battery's route
    # (output quadrature for the reduced form (0, 1), the batch ride
    # otherwise).
    step = 0.05
    sig = triangle(1.0, 2)
    model = dataclasses.replace(dahl_r1, reduced_form=(0, 1) if reduced else None)
    fwd, bwd = verify_dissipation_pair(model, sig, 0.2, step=step)
    traj = simulate(model, sig, 0.2, step=step)
    if reduced:
        H = storage_output_only(model, traj.y, traj.u)
    else:
        H = storage_cw_batch(model, traj.y, traj.u, step=step).value
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


def _battery_signals():
    """Inputs of unequal length: a short ramp, random inputs with different
    breakpoint counts, a triangle."""
    rng = np.random.default_rng(11)
    return [
        ramp(0.0, 0.4, 0.4),
        random_piecewise_linear(rng, span=1.5, n_breakpoints=(3, 3)),
        triangle(1.0, 2),
        random_piecewise_linear(rng, span=2.0, n_breakpoints=(8, 8)),
    ]


@pytest.mark.parametrize("model", [dahl(), boucwen(), exp_example()], ids=lambda m: m.name)
def test_dissipation_battery_pairs_are_the_per_signal_pairs(model):
    # inputs of unequal length, so a misplaced split of the one storage
    # evaluation over all samples hands a signal another signal's storage
    signals = _battery_signals()
    sizes = {simulate(model, sig, 0.1, step=5e-3).n_samples for sig in signals}
    assert len(sizes) == len(signals)
    pairs = verify_dissipation_battery(model, signals, 0.1)
    assert len(pairs) == len(signals)
    for sig, (fwd, bwd) in zip(signals, pairs):
        lone_fwd, lone_bwd = verify_dissipation_pair(model, sig, 0.1)
        assert _report_bits(fwd) == _report_bits(lone_fwd)
        assert _report_bits(bwd) == _report_bits(lone_bwd)


# sha256 of the sorted-key JSON of every report of the battery below, as the
# battery gave them when every model's storage was the `storage_cw_batch`
# ride at the battery step (recorded with Python 3.11.7 and numpy 2.4.6)
RIDE_BATTERY_DIGESTS = {
    "dahl": "cec092bbdf619f7534bb7eb6fefd27987d49c87c4bb8e480aeff58555b105dc7",
    "boucwen": "746101b79b7f4adeb027b9b8983d062957e113491b3b3b53bd4a5593f03cea9e",
    "exp_example": "3c2a640e3b5eae651cb9169f2b5fd56751ac699bb8ea01666249e1d6ca42ca8d",
}
# each catalog model with its reduced form removed
UNDECLARED = {
    "dahl": lambda: dataclasses.replace(dahl(), reduced_form=None),
    "boucwen": lambda: dataclasses.replace(boucwen(), reduced_form=None),
    "exp_example": lambda: dataclasses.replace(exp_example(), reduced_form=None),
}


@pytest.mark.parametrize("name", list(RIDE_BATTERY_DIGESTS))
def test_an_undeclared_model_keeps_the_ride_battery_bit_for_bit(name, monkeypatch):
    model = UNDECLARED[name]()

    def no_quadrature(*args):
        raise AssertionError("storage_output_only called for an undeclared model")

    monkeypatch.setattr(dissipativity_module, "storage_output_only", no_quadrature)
    pairs = verify_dissipation_battery(model, _battery_signals(), 0.1)
    text = json.dumps([[r.to_dict() for r in pair] for pair in pairs], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RIDE_BATTERY_DIGESTS[name]


def _assert_the_battery_takes_the_quadrature_and_no_ride(model, monkeypatch):
    signals = _battery_signals()
    trajs = [simulate(model, sig, 0.1, step=5e-3) for sig in signals]
    H = storage_output_only(
        model, np.concatenate([t.y for t in trajs]), np.concatenate([t.u for t in trajs])
    )

    def no_ride(*args, **kwargs):
        raise AssertionError(f"storage_cw_batch called for {model.name}")

    monkeypatch.setattr(dissipativity_module, "storage_cw_batch", no_ride)
    pairs = verify_dissipation_battery(model, signals, 0.1)
    ends = np.cumsum([t.n_samples for t in trajs])
    for (fwd, bwd), H_sig in zip(pairs, np.split(H, ends[:-1])):
        for rep in (fwd, bwd):
            assert rep.details["gauss_nodes"] == 20 and "ride_step" not in rep.details
            assert rep.details["max_storage"] == float(H_sig.max())


def test_a_sigma_only_battery_takes_the_output_quadrature_and_no_ride(monkeypatch):
    _assert_the_battery_takes_the_quadrature_and_no_ride(dahl(r=3.0), monkeypatch)


def test_a_one_variable_battery_takes_the_quadrature_in_w_and_no_ride(monkeypatch):
    _assert_the_battery_takes_the_quadrature_and_no_ride(exp_example(), monkeypatch)


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
    sig = InputSignal(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
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
    up_down = InputSignal(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
    trajs = [simulate(dahl(), up_down, 0.0, step=1e-3)]
    t = np.linspace(0.0, 2.0, 4001)
    trajs.append(Trajectory(t, np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t) ** 3))
    for traj in trajs:
        cls = loop_orientation(traj)
        assert (cls.area, cls.t_close) == loop_orientation_whole(traj)
    assert trajs[0].slope_left is not trajs[0].slope_right
    assert trajs[1].slope_left is trajs[1].slope_right


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


VERIFY_REPORTS = [
    "existence-conditions",
    "damping-sign-structure",
    "transversality-margin",
    "dissipation-forward-battery",
    "dissipation-backward-battery",
    "loop-orientation",
    "cycle-stabilization",
]


def test_verify_model_passes_a_model_outside_the_catalog_that_is_not_odd():
    # f1 = 1 - s, f2 = 1 + 3 s on the whole plane: clockwise, with its Lemma
    # 1 margin 0.1 at s = -0.3; neither odd nor of a declared reduced form,
    # so its battery storage is the batch ride
    assert not STEEP_BELOW.odd and STEEP_BELOW.reduced_form is None
    rng = np.random.default_rng(3)
    battery = [random_piecewise_linear(rng, span=2.0, n_breakpoints=(3, 8)) for _ in range(4)]
    reports, times, areas = verify_model(
        STEEP_BELOW, ((-0.3, 0.3), (-1.0, 1.0)), 0.05, 4.0, battery, triangle(1.0, 5),
        y0=0.0, step=5e-3, tol=None,
    )
    assert [r.name for r in reports] == VERIFY_REPORTS
    assert all(r.passed for r in reports), [r.to_dict() for r in reports if not r.passed]
    # the battery reports are the worst of the per-signal pairs
    pairs = verify_dissipation_battery(STEEP_BELOW, battery, 0.0, step=5e-3)
    for rep, runs in zip(reports[3:5], zip(*pairs)):
        assert rep == _aggregate(rep.name, list(runs))
    assert reports[3].samples_checked == sum(f.samples_checked for f, _ in pairs)
    assert reports[4].details == {"runs": 4, "failed_runs": 0}
    # the loop series is the loop input's, and its areas have settled
    traj = simulate(STEEP_BELOW, triangle(1.0, 5), 0.0, step=5e-3)
    ref_times, ref_areas = loop_areas(traj)
    assert np.array_equal(times, ref_times) and np.array_equal(areas, ref_areas)
    assert areas.size == 5 and reports[5].details["label"] == "clockwise"


def test_verify_model_rejects_an_empty_battery(dahl_r1, monkeypatch):
    # the certificates ran, and then the battery reports ended in numpy's
    # "attempt to get argmax of an empty sequence"
    monkeypatch.setattr(dissipativity_module, "check_existence_conditions", None)
    with pytest.raises(ValueError, match="^battery must hold at least one input$"):
        verify_model(
            dahl_r1, DAHL_BAND, 0.01, 5.0, [], triangle(1.0, 5), y0=0.0, step=5e-3, tol=None
        )


def test_dissipation_battery_names_its_first_input_with_one_breakpoint(dahl_r1, monkeypatch):
    # a one-sample trajectory has no interval to check, and its reports
    # ended in numpy's "attempt to get argmax of an empty sequence"
    single = InputSignal(np.array([0.0]), np.array([0.0]))
    monkeypatch.setattr(dissipativity_module, "simulate", None)
    want = "^battery input 1 has one breakpoint and no sample interval$"
    with pytest.raises(ValueError, match=want):
        verify_dissipation_battery(dahl_r1, [triangle(1.0, 1), single, single], 0.0)
    with pytest.raises(ValueError, match=want.replace("1", "0", 1)):
        verify_dissipation_pair(dahl_r1, single, 0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_dissipation_battery_rejects_a_tol_that_is_not_positive_and_finite(dahl_r1, tol):
    # an infinite tol would pass any battery
    battery = [triangle(1.0, 2)]
    with pytest.raises(ValueError, match="tol must be positive"):
        verify_dissipation_battery(dahl_r1, battery, 0.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        verify_model(
            dahl_r1, DAHL_BAND, 0.01, 5.0, battery, triangle(1.0, 5), y0=0.0, step=5e-3, tol=tol
        )


def test_verify_model_fails_the_loop_orientation_of_the_reflected_dahl():
    # the battery holds its input at 0, where the output stays on the
    # curve: from a point off it, the storage ride of this counterclockwise
    # model moves away from the curve until its step budget runs out
    held = InputSignal(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    reports, times, areas = verify_model(
        _reflected_dahl(), DAHL_BAND, 0.01, 5.0, [held], triangle(2.0, 5),
        y0=0.0, step=5e-3, tol=None,
    )
    passed = {r.name: r.passed for r in reports}
    assert list(passed) == VERIFY_REPORTS
    assert not passed["loop-orientation"]
    assert reports[5].details["label"] == "counterclockwise"
    assert reports[5].worst_violation > 4.5
    # rising input lowers its output: f1 has no margin above the curve,
    # while the sign structure, its F being Dahl's, cannot tell
    assert not passed["transversality-margin"] and passed["damping-sign-structure"]
    assert areas.size == 5 and np.all(areas < -4.0)


def _report(worst, tol=1.0):
    return VerificationReport(
        name="r", worst_violation=worst, worst_location=(worst,), tolerance=tol,
        samples_checked=3, details={},
    )


def test_aggregate_of_a_failing_and_a_passing_run_is_the_failing_run():
    failing, passing = _report(2.0), _report(0.5)
    for runs in ([failing, passing], [passing, failing]):
        agg = _aggregate("battery", runs)
        assert not agg.passed
        assert (agg.worst_violation, agg.worst_location) == (2.0, (2.0,))
        assert agg.samples_checked == 6
        assert agg.details == {"runs": 2, "failed_runs": 1}


def test_aggregate_with_a_nan_run_fails_wherever_the_run_stands():
    # Python's max once skipped a NaN key that was not first: PASS with
    # failed_runs 1
    passing, nan_run = _report(0.5), _report(math.nan)
    for runs in ([passing, nan_run], [nan_run, passing], [passing, passing, nan_run]):
        agg = _aggregate("battery", runs)
        assert not agg.passed
        assert math.isnan(agg.worst_violation)
        assert agg.details["failed_runs"] == 1


def test_aggregate_tie_goes_to_the_first_run():
    first, second = _report(0.5, tol=1.0), _report(1.5, tol=2.0)
    agg = _aggregate("battery", [first, second])
    assert (agg.worst_violation, agg.tolerance) == (0.5, 1.0)


def test_loop_orientation_counterclockwise_parametric():
    t = np.linspace(0.0, 1.0, 2001)
    traj = Trajectory(t, np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t))
    lc = loop_orientation(traj)
    assert lc.label == "counterclockwise"
    assert lc.area == pytest.approx(-np.pi, abs=1e-4)


def test_loop_orientation_degenerate_wiggle(dahl_r1):
    sig = InputSignal(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1e-7, -1e-7, 0.0]))
    traj = simulate(dahl_r1, sig, 0.0, step=1e-3)
    assert loop_orientation(traj).label == "degenerate"


def test_loop_orientation_rejects_constant_input(dahl_r1):
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="constant input"):
        loop_orientation(traj)


def test_loop_orientation_rejects_open_path(dahl_r1):
    sig = InputSignal(np.array([0.0, 1.0, 1.5]), np.array([0.0, 1.0, 0.5]))
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

