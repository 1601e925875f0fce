import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem import boucwen, curves, dahl, exp_example, simulate
from duhem.core import Domain, DomainExitError, DuhemModel
from duhem.curves import (
    CrossingSearchError,
    PhasePoint,
    _REFINE_PASSES,
    _refine_crossings,
    _refine_point,
    _ride_point,
    _ride_setup,
    _side_residual,
    anhysteresis,
    anhysteresis_values,
    check_lemma1,
    intersect_lambda,
    ride_to_crossing,
    traversing_curve,
)
from duhem.cli import _battery_geometry
from duhem.signals import ramp
from duhem.storage import _anhysteresis_integrals, storage_cw, storage_cw_batch

from oracles import (
    bisect_halvings,
    boucwen_lambda_exact,
    central_slope_rounding,
    exp_margin_min,
    lambda_exact,
    ride_two_marches,
    storage_exact,
    traversing_exact,
)

# intersect_lambda(dahl, (0.375, 1.0)) in closed form:
# 1 + 0.5*log(0.75/1.125)
LAMBDA_ORACLE = 0.7972674459459178
# check_lemma1's margin for exp_example at the corner (5, -5) of [-5,5]^2, as
# computed with its central-difference slope; the closed form
# exp(-5.5) + 0.83 - 5/6 = 7.534381051e-4 lies 5.5e-12 above it (slope rounding)
EXP_CORNER_MARGIN = 0.0007534380996714329


def _strip_f_an(model):
    return DuhemModel(
        name=model.name + "-implicit",
        f1=model.f1,
        f2=model.f2,
        params=model.params,
        domain=model.domain,
        f_an=None,
    )


def test_phase_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        PhasePoint(np.nan, 0.0)
    with pytest.raises(ValueError):
        PhasePoint(0.0, np.inf)


def test_anhysteresis_explicit_route(exp_model):
    assert anhysteresis(exp_model, 1.2) == 1.0
    assert anhysteresis(exp_model, -3.0) == pytest.approx(-2.5)


def test_anhysteresis_implicit_root_matches_explicit(exp_model):
    implicit = _strip_f_an(exp_model)
    for xi in (-2.0, -0.3, 0.0, 1.2, 3.0):
        assert anhysteresis(implicit, xi) == pytest.approx(xi / 1.2, abs=1e-8)


def test_anhysteresis_dahl_is_zero(dahl_r1):
    xi = np.linspace(-3.0, 3.0, 7)
    vals = anhysteresis_values(dahl_r1, xi)
    assert np.allclose(vals, 0.0, atol=1e-12)


def test_anhysteresis_values_vectorized_matches_scalar(exp_model):
    implicit = _strip_f_an(exp_model)
    xi = np.array([-1.5, 0.0, 0.7, 2.4])
    vec = anhysteresis_values(implicit, xi)
    scal = np.array([anhysteresis(implicit, x) for x in xi])
    assert np.abs(vec - scal).max() < 1e-9


def test_traversing_curve_matches_exponential_solution(dahl_r1):
    curve = traversing_curve(dahl_r1, PhasePoint(0.375, 1.0), -1.5, 3.0, step=1e-3)
    taus = np.linspace(-1.5, 3.0, 500)
    assert np.abs(curve(taus) - traversing_exact(taus, 0.375, 1.0)).max() < 1e-11
    # interpolation between nodes stays at solver accuracy
    off = taus[:-1] + 0.00037
    assert np.abs(curve(off) - traversing_exact(off, 0.375, 1.0)).max() < 1e-11


def test_traversing_curve_takes_the_left_branch_slope_just_left_of_the_origin(dahl_r1):
    # the node slope at the origin is f1's; the interval that ends there
    # lies on the f2 branch, whose slope at the origin differs by 1.2
    h = 1e-3
    curve = traversing_curve(dahl_r1, PhasePoint(0.3, 1.0), -2.0, 2.0, step=h)
    assert curve.origin_left_slope == dahl_r1.f2(0.3, 1.0)
    assert curve.dydtau[curve.tau == 1.0] == dahl_r1.f1(0.3, 1.0)
    taus = 1.0 + h * np.array([-1.5, -0.75, -0.5, -0.25, 0.25, 0.5, 1.5])
    assert np.abs(curve(taus) - traversing_exact(taus, 0.3, 1.0)).max() < 1e-13
    for t in taus:
        assert abs(curve(t) - traversing_exact(t, 0.3, 1.0)) < 1e-13


def test_traversing_curve_passes_through_origin(dahl_r1):
    p = PhasePoint(-0.2, 0.6)
    curve = traversing_curve(dahl_r1, p, -1.0, 2.0)
    assert curve(0.6) == -0.2
    assert curve.tau[0] == -1.0 and curve.tau[-1] == 2.0


def test_traversing_curve_rejects_evaluation_outside_range(dahl_r1):
    curve = traversing_curve(dahl_r1, PhasePoint(0.0, 0.0), -1.0, 1.0)
    with pytest.raises(ValueError):
        curve(1.5)


def test_traversing_curve_truncates_at_domain_boundary():
    m = DuhemModel(
        name="drift",
        f1=lambda s, x: 1.0 + 0.0 * s,
        f2=lambda s, x: 1.0 + 0.0 * s,
        params={},
        domain=Domain(-1.0, 1.0),
    )
    curve = traversing_curve(m, PhasePoint(0.0, 0.0), -3.0, 3.0, step=1e-2)
    assert curve.right_truncated
    assert curve.tau[-1] < 3.0
    assert curve.y.max() < 1.0


@pytest.mark.parametrize("model", [dahl(), boucwen(), exp_example()], ids=lambda m: m.name)
def test_traversing_branch_is_the_simulated_ramp(model):
    # both march through core._march_segment: same nodes, same bits
    p = PhasePoint(0.3, 0.4)
    curve = traversing_curve(model, p, p.xi, 1.7, step=3e-3)
    traj = simulate(model, ramp(p.xi, 1.7, 2.0), p.sigma, step=3e-3)
    assert curve.tau.size == traj.u.size > 400
    assert curve.tau.tobytes() == traj.u.tobytes()
    assert curve.y.tobytes() == traj.y.tobytes()


def test_march_branch_makes_four_field_calls_per_step(dahl_r1):
    # the node slope f(y_k, u_k) is the next step's k1, so a step costs three
    # stage evaluations plus one node slope, and the start node one more
    calls = []

    def f(s, x):
        calls.append(x)
        return dahl_r1.f1(s, x)

    taus, _, fs, truncated = curves._march_branch(dahl_r1, f, 0.1, 0.0, 0.37, 1e-2)
    n = taus.size - 1
    assert n == 37 and fs.size == n + 1 and not truncated
    assert len(calls) == 4 * n + 1


def test_traversing_curve_validates_window(dahl_r1):
    with pytest.raises(ValueError):
        traversing_curve(dahl_r1, PhasePoint(0.0, 5.0), -1.0, 1.0)


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_traversing_curve_rejects_a_step_that_is_not_positive(dahl_r1, step):
    with pytest.raises(ValueError, match="step must be positive"):
        traversing_curve(dahl_r1, PhasePoint(0.1, 0.0), -1.0, 1.0, step=step)


def test_single_point_crossings_are_the_batch_ride_bit_for_bit(dahl_r1):
    # the crossing lies 1e-8 right of zero, where a longer refinement than
    # the batch ride's would still move lambda
    p = PhasePoint(0.3, 0.5 * float(np.log1p(0.4)) + 1e-8)
    lam = ride_to_crossing(dahl_r1, [p.sigma], [p.xi]).lam[0]
    assert 0.0 < lam < 2e-8
    assert intersect_lambda(dahl_r1, p) == lam
    assert storage_cw(dahl_r1, p).lambda_star == lam


def _refinement_brackets(rng):
    """(side, bracket) pairs for the crossing refinement; a bracket is
    (tA, tB, yA, yB, fA, fB, acc) with tB - tA one ride step."""
    exp_side = _side_residual(exp_example())
    dahl_side = _side_residual(dahl())
    out = []
    # random Hermite brackets about f_an = tau / 1.2, both directions
    for _ in range(200):
        tA = float(rng.uniform(-3.0, 3.0))
        tB = tA + float(rng.choice([-1.0, 1.0]) * rng.uniform(5e-3, 1e-2))
        dA, dB = (float(v) for v in rng.uniform(1e-6, 1e-2, 2))
        up = float(rng.choice([-1.0, 1.0]))
        fA, fB = (float(v) for v in rng.uniform(0.2, 2.0, 2))
        acc = float(rng.normal())
        out.append((exp_side, (tA, tB, tA / 1.2 + up * dA, tB / 1.2 - up * dB, fA, fB, acc)))
    # the residual exactly 0 at tA, and exactly 0 at tB
    for tA, tB in ((0.7, 0.71), (-1.3, -1.31)):
        out.append((exp_side, (tA, tB, tA / 1.2, tB / 1.2 + 1e-3, 0.9, 1.1, 0.0)))
        out.append((exp_side, (tA, tB, tA / 1.2 - 1e-3, tB / 1.2, 0.9, 1.1, 0.0)))
    # y = tau - r against f_an = 0: near r = 0, 60 halvings leave the
    # interval far wider than the spacing of floats there
    for r in (0.0, 1e-12, -1e-10, 1e-9, 0.25):
        for tA, tB in ((r - 4e-3, r + 6e-3), (r + 6e-3, r - 4e-3)):
            out.append((dahl_side, (tA, tB, tA - r, tB - r, 1.0, 1.0, 0.5)))
    # NaN residuals: everywhere, and on the part of the bracket where tau < 0
    out.append((dahl_side, (0.1, 0.11, math.nan, -0.2, 1.0, 1.0, 0.0)))
    sqrt_side = lambda y, tau: np.sqrt(tau) - y
    out.append((sqrt_side, (-0.004, 0.006, 0.3, -0.2, 1.0, 1.0, 0.0)))
    out.append((sqrt_side, (0.006, -0.004, -0.2, 0.3, 1.0, 1.0, 0.0)))
    # a step that did not move tau
    out.append((dahl_side, (1e17, 1e17, 0.3, -0.1, 1.0, 1.0, 0.0)))
    return out


def test_float_refinement_is_the_vector_refinement_bit_for_bit():
    evaluations = []
    for side, bracket in _refinement_brackets(np.random.default_rng(3)):
        calls = []

        def counted(y, tau):
            calls.append(tau)
            return side(y, tau)

        with np.errstate(all="ignore"):
            one = _refine_point(counted, *bracket)
            vec = _refine_crossings(side, *(np.array([v]) for v in bracket))
        assert np.array(one).tobytes() == np.concatenate(vec).tobytes(), bracket
        if bracket[0] != bracket[1]:
            evaluations.append(len(calls))
    # the residual at both ends, then one per pass: no early stop
    assert set(evaluations) == {_REFINE_PASSES + 2}


def test_single_point_ride_of_a_far_point_is_the_batch_lane_bit_for_bit(dahl_r1):
    # at xi = 1e17 a step of 1e-3 does not move tau, so the crossing bracket
    # has zero width and its Hermite model divides 0 by 0
    p = PhasePoint(0.3, 1e17)
    with np.errstate(all="ignore"):
        sigma, xi, above, _, max_steps = _ride_setup(dahl_r1, p.sigma, p.xi, 1e-3, 60)
        assert above[0]
        # the batch lane: f1 rightward in the frame reflected through 0
        lane = curves._march_to_crossing(
            dahl_r1, dahl_r1.f1, -np.ones(1), sigma, xi, 1e-3, max_steps
        )
        lam, y_at = lane[:2]
        one = _ride_point(dahl_r1, p, step=1e-3, max_doublings=60)
        assert np.array(one).tobytes() == np.concatenate(lane[:3]).tobytes()
        # the batch ride rejects the lane's NaN crossing residual
        with pytest.raises(CrossingSearchError, match="nan"):
            ride_to_crossing(dahl_r1, [p.sigma], [p.xi])
    assert lam[0] == 1e17 and np.isnan(y_at[0])


def test_intersect_lambda_rejects_a_nan_residual(dahl_r1):
    # the far point's branch value at the crossing is NaN, so its residual
    # is NaN; a check written `mismatch > 1e-9` returned 1e17 here
    with np.errstate(all="ignore"):
        with pytest.raises(CrossingSearchError, match="nan"):
            intersect_lambda(dahl_r1, PhasePoint(0.3, 1e17))


def test_anhysteresis_rejects_a_nan_residual():
    # f_an = sqrt(1 - xi) is NaN at xi = 2, and so is F there; a check
    # written `res > 1e-9` returned the NaN.  This f_an is neither odd nor
    # xi / 1.2.
    model = dataclasses.replace(
        exp_example(), f_an=lambda xi: np.sqrt(1.0 - xi), odd=False, reduced_form=None
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="residual nan"):
            anhysteresis(model, 2.0)
    assert math.isfinite(anhysteresis(exp_example(), 2.0))


def _dead_band_model(width):
    """An odd model whose F = (f1 - f2) / 2 is exactly 0 on the band |sigma|
    <= width around its anhysteresis curve sigma = 0, and -(|sigma| - width)
    sgn(sigma) outside it; no f_an is declared."""
    dead = lambda s: np.sign(s) * np.maximum(np.abs(s) - width, 0.0)
    f1 = lambda s, x: 1.0 - dead(s)
    return DuhemModel(name="dead-band", f1=f1, f2=lambda s, x: f1(-s, -x), odd=True)


def test_batch_ride_rejects_crossings_in_a_zero_band_of_F():
    # Without f_an the ride reads the sign of F, which is 0 all across the
    # band: its crossings stop anywhere in it, up to 1e-4 off the solved
    # curve sigma = 0.  The batch ride rejects them, as intersect_lambda
    # does, and names the count and the first point; with the declared
    # curve they pass.
    solver = _dead_band_model(1e-4)
    sigma, xi = [0.3, -0.2, 0.1], [0.4, 0.4, -1.0]
    with pytest.raises(
        CrossingSearchError, match=r"stalled on 3 lane\(s\).*first from sigma=0.3, xi=0.4\)"
    ):
        ride_to_crossing(solver, sigma, xi)
    for s, x in zip(sigma, xi):
        with pytest.raises(CrossingSearchError, match="stalled"):
            intersect_lambda(solver, PhasePoint(s, x))
    declared = dataclasses.replace(solver, f_an=lambda xi: 0.0 * xi)
    ride = ride_to_crossing(declared, sigma, xi)
    assert np.abs(ride.y_at).max() <= 1e-9
    # one failing lane among passing ones (a point on the curve) is named,
    # and counted alone
    with pytest.raises(CrossingSearchError, match=r"stalled on 1 lane\(s\).*sigma=-0.2, xi=0.4\)"):
        ride_to_crossing(solver, [0.0, -0.2], [0.4, 0.4])


def test_storage_cw_fails_the_crossing_residual_check_as_intersect_lambda_does():
    # Bouc-Wen's F rounds to 0 at sigma = 1e-7, so without f_an the point
    # (1e-7, 0.3) counts as on the curve and stays at lam = 0.3, 1e-7 off
    # the solved curve: the one residual check of both single-point calls
    # rejects it with one message.  With the declared curve it rides.
    solver = dataclasses.replace(boucwen(), f_an=None)
    p = PhasePoint(1e-7, 0.3)
    err = _same_failure(
        lambda: intersect_lambda(solver, p), lambda: storage_cw(solver, p)
    )
    assert err.type is CrossingSearchError
    assert str(err.value) == (
        "crossing refinement stalled: |omega - f_an| = 1.000e-07 > 1.0e-09 at u* = 0.3"
    )
    assert storage_cw(boucwen(), p).lambda_star < 0.3


def test_solver_path_crossings_of_boucwen_land_on_the_curve():
    # F of Bouc-Wen cancels to 0 for |sigma| < 3.8e-6 (`_side_residual`),
    # where 60 halvings stopped at the band's edge, 3.8e-6 off the curve.
    # The branch is a line of slope alpha there, so the first secant point
    # lands on the crossing, inside the band, and collapses the bracket.
    # Without f_an the model keeps its reduced form (0, 1): g1(0) == g2(0).
    solver = dataclasses.replace(boucwen(), f_an=None)
    sigma, xi = [0.3, -0.2, 0.1], [0.4, 0.4, -1.0]
    ride = ride_to_crossing(solver, sigma, xi)
    assert np.abs(ride.y_at).max() <= 1e-15
    # lam carries the rounding of tau summed over up to 1,100 steps
    exact = [boucwen_lambda_exact(s, x) for s, x in zip(sigma, xi)]
    assert np.abs(ride.lam - exact).max() <= 1e-13
    for s, x, lam in zip(sigma, xi, ride.lam):
        assert intersect_lambda(solver, PhasePoint(s, x)) == lam


def test_intersect_lambda_matches_closed_form(dahl_r1):
    lam = intersect_lambda(dahl_r1, PhasePoint(0.375, 1.0))
    assert abs(lam - LAMBDA_ORACLE) < 1e-9


def test_intersect_lambda_on_curve_is_identity(dahl_r1):
    assert intersect_lambda(dahl_r1, PhasePoint(0.0, 0.3)) == 0.3


def test_intersect_lambda_below_curve_moves_right(dahl_r1):
    lam = intersect_lambda(dahl_r1, PhasePoint(-0.4, 0.0))
    assert lam > 0.0
    assert lam == pytest.approx(lambda_exact(-0.4, 0.0), abs=1e-9)


@pytest.mark.parametrize("n", [2.0, 3.0])
def test_intersect_lambda_boucwen_matches_closed_form(n):
    # At n >= 2, F = (f1 - f2)/2 is exactly 0 for |y| < 2^(-54/n) because
    # f1 = 1 - 2 y^n rounds to 1, so a crossing located on F stalls up to
    # 3.8e-6 off the curve (n = 3) against intersect_lambda's 1e-9 residual
    # check; the ride locates it on f_an - y instead.
    m = boucwen(n=n)
    sides = np.array([1.7, 0.9, 0.3, 1e-2, 2e-5, 3e-6, 1e-7, 1e-12])
    for sigma in np.concatenate([sides, -sides]):
        for xi in (-1.3, 2.0):
            lam = intersect_lambda(m, PhasePoint(float(sigma), xi))
            assert abs(lam - boucwen_lambda_exact(sigma, xi)) < 1e-9


@given(
    st.floats(min_value=-0.67, max_value=0.67),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_intersect_lambda_closed_form_property(sigma, xi):
    m = dahl()
    lam = intersect_lambda(m, PhasePoint(sigma, xi))
    assert abs(lam - lambda_exact(sigma, xi)) < 1e-8


def test_ride_to_crossing_batch_against_closed_forms(dahl_r1, rng):
    sig = 0.67 * (2.0 * rng.random(40) - 1.0)
    xi = 4.0 * (2.0 * rng.random(40) - 1.0)
    res = ride_to_crossing(dahl_r1, sig, xi)
    assert np.abs(res.lam - lambda_exact(sig, xi)).max() < 1e-9
    assert np.abs(res.y_at).max() < 1e-9
    # branch integral from xi to lambda equals minus the stored energy
    assert np.abs(res.integral + storage_exact(sig)).max() < 1e-9


def test_ride_to_crossing_lands_on_exp_anhysteresis(exp_model):
    res = ride_to_crossing(exp_model, np.array([2.0, -1.0]), np.array([0.5, 0.5]))
    assert np.abs(res.y_at - res.lam / 1.2).max() < 1e-9
    assert res.lam[0] < 0.5 < res.lam[1]


def test_ride_to_crossing_validates_shapes(dahl_r1):
    with pytest.raises(ValueError):
        ride_to_crossing(dahl_r1, np.array([0.1, 0.2]), np.array([0.0]))
    with pytest.raises(ValueError):
        ride_to_crossing(dahl_r1, np.array([0.9]), np.array([0.0]))


def test_crossing_search_budget_exhaustion_raises():
    # falling branch pushes the ride away from the declared curve forever
    m = DuhemModel(
        name="runaway",
        f1=lambda s, x: 0.0 * s,
        f2=lambda s, x: -1.0 + 0.0 * s,
        params={},
        domain=Domain(-np.inf, np.inf),
        f_an=lambda xi: 0.0 * xi,
    )
    with pytest.raises(CrossingSearchError):
        intersect_lambda(m, PhasePoint(0.5, 0.0), step=1e-2, max_doublings=3)


def test_crossing_on_the_last_budgeted_step_is_not_a_budget_error():
    # the Dahl ride from (-0.75(exp(0.995*0.4) - 1), 0) meets the curve at
    # lambda = 0.995, inside step 100 of a budget of exactly 100 steps
    m = dahl(rho=0.3)
    sigma = -0.75 * np.expm1(0.995 * 0.4)
    res = ride_to_crossing(m, [sigma], [0.0], step=0.01, max_doublings=0)
    assert res.steps[0] == 100
    assert res.lam[0] == pytest.approx(0.995, abs=1e-6)
    # a crossing at lambda = 1.005, one step beyond the budget, is a real
    # budget error
    beyond = -0.75 * np.expm1(1.005 * 0.4)
    with pytest.raises(CrossingSearchError, match="^1 traversing branch.* did not meet"):
        ride_to_crossing(m, [beyond], [0.0], step=0.01, max_doublings=0)


def _mixed_lanes(n, sigma_half, xi_half, seed):
    """n random phase points, about half on each side of the anhysteresis
    curve, spread in xi so that they cross at different steps."""
    rng = np.random.default_rng(seed)
    xi = xi_half * (2.0 * rng.random(n) - 1.0)
    sigma = sigma_half * (2.0 * rng.random(n) - 1.0)
    return sigma, xi


@pytest.mark.parametrize(
    "model, sigma_half, xi_half",
    [
        (dahl(), 0.7, 3.0),
        (boucwen(), 1.2, 3.0),
        (exp_example(), 2.5, 2.5),
        (_strip_f_an(exp_example()), 2.5, 2.5),
    ],
    ids=["dahl", "boucwen", "exp", "exp-solver"],
)
def test_ride_to_crossing_batch_is_bitwise_batch_of_one(model, sigma_half, xi_half):
    sigma, xi = _mixed_lanes(24, sigma_half, xi_half, seed=5)
    batch = ride_to_crossing(model, sigma, xi, step=1e-2)
    # both directions, crossing at many different steps
    assert (batch.lam < xi).any() and (batch.lam > xi).any()
    assert np.unique(batch.steps).size >= 10
    for k in range(sigma.size):
        one = ride_to_crossing(model, sigma[k : k + 1], xi[k : k + 1], step=1e-2)
        for name in ("lam", "y_at", "integral", "steps"):
            got = getattr(batch, name)[k : k + 1].tobytes()
            assert got == getattr(one, name).tobytes(), (name, k)


@pytest.mark.parametrize(
    "model, sigma_half, xi_half",
    [
        (dahl(), 0.7, 3.0),
        (dahl(r=3.0), 0.7, 3.0),
        (boucwen(), 1.2, 3.0),
        (exp_example(), 2.5, 2.5),
        (dataclasses.replace(exp_example(), f_an=None), 2.5, 2.5),
    ],
    ids=["dahl", "dahl-r3", "boucwen", "exp", "exp-solver"],
)
def test_reflected_ride_is_the_two_march_ride(model, sigma_half, xi_half):
    # an odd model rides the lanes above the curve on f1 in the frame
    # reflected through the origin, in one march with the lanes below it;
    # negation is exact, so lam, the integral and the steps keep every bit
    # of the two directional marches, and y_at may differ only in the sign
    # of an exact zero
    assert model.odd
    sigma, xi = _mixed_lanes(200, sigma_half, xi_half, seed=17)
    # two lanes on the curve, which stay where they are
    sigma[:2], xi[:2] = 0.0, (0.0, -0.0)
    got = ride_to_crossing(model, sigma, xi, step=1e-2)
    lam, y_at, integral, steps = ride_two_marches(model, sigma, xi, 1e-2)
    assert (lam < xi).any() and (lam > xi).any() and (lam == xi).any()
    assert got.lam.tobytes() == lam.tobytes()
    assert got.integral.tobytes() == integral.tobytes()
    assert got.steps.tobytes() == steps.tobytes()
    assert (got.y_at == y_at).all()


@pytest.mark.parametrize(
    "model, sigma_half, xi_half",
    [
        (dahl(), 0.7, 3.0),
        (dahl(r=3.0), 0.7, 3.0),
        (boucwen(), 1.2, 3.0),
        (exp_example(), 2.5, 2.5),
        (dataclasses.replace(exp_example(), f_an=None), 2.5, 2.5),
    ],
    ids=["dahl", "dahl-r3", "boucwen", "exp", "exp-solver"],
)
def test_regula_falsi_crossings_stay_within_the_tolerance_of_60_halvings(
    model, sigma_half, xi_half
):
    # The refinement's tolerance against the 60 halvings it replaced (the
    # oracle ride with bisect_halvings), on the same brackets.  A crossing
    # is fixed only up to the spacing of tau at the bracket scale |lam| +
    # step, plus the rounding of the side residual over its slope along
    # the branch: the spacing of y for f_an(tau) - y, of |f1| + |f2| for F,
    # which cancels near the curve.  lam lies within 8 of those units of
    # the halvings' lam (measured on the README rides: at most 4.3 ulps of
    # the bracket scale), and no lane's |side residual| at its crossing is
    # larger than the largest one the halvings left.
    sigma, xi = _mixed_lanes(1000, sigma_half, xi_half, seed=29)
    step = 1e-2
    got = ride_to_crossing(model, sigma, xi, step=step)
    lam, y_at, _, steps = ride_two_marches(model, sigma, xi, step, refine=bisect_halvings)
    assert got.steps.tobytes() == steps.tobytes()
    side = _side_residual(model)
    f = np.where(lam > xi, model.f1(y_at, lam), model.f2(y_at, lam))
    d = 1e-6
    slope = np.abs(side(y_at + d * f, lam + d) - side(y_at - d * f, lam - d)) / (2.0 * d)
    if model.f_an is None:
        rounding = np.spacing(np.abs(model.f1(y_at, lam)) + np.abs(model.f2(y_at, lam)))
    else:
        rounding = np.spacing(np.abs(y_at))
    units = np.spacing(np.abs(lam) + step) + rounding / slope
    assert (np.abs(got.lam - lam) <= 8.0 * units).all()
    halvings_worst = np.abs(side(y_at, lam)).max()
    assert np.abs(side(got.y_at, got.lam)).max() <= halvings_worst


def _odd_band_exit():
    """Unit slope on both branches in the band (-1, 1) around the curve
    xi / 10, declared odd: the leftward ride from (0, -15) would meet the
    curve at sigma = -5/3, beyond the band."""
    f1 = lambda s, x: 1.0 + 0.0 * s
    return DuhemModel(
        name="odd-band-exit",
        f1=f1,
        f2=lambda s, x: f1(-s, -x),
        domain=Domain(-1.0, 1.0),
        f_an=lambda xi: xi / 10.0,
        odd=True,
    )


def test_reflected_ride_leaving_the_domain_names_the_unreflected_tau():
    m = _odd_band_exit()
    for single in (intersect_lambda, storage_cw):
        err = _same_failure(
            lambda: ride_to_crossing(m, [0.0], [-15.0], step=1e-2),
            lambda: single(m, PhasePoint(0.0, -15.0), step=1e-2),
        )
    assert err.type is CrossingSearchError
    # the two directional marches of the same fields name the same tau, on
    # the leftward side of xi = -15
    with pytest.raises(CrossingSearchError) as two_marches:
        ride_to_crossing(dataclasses.replace(m, odd=False), [0.0], [-15.0], step=1e-2)
    assert str(err.value) == str(two_marches.value) == (
        "1 traversing branch(es) left the domain before meeting the "
        "anhysteresis curve (first at tau=-16)"
    )
    # in one march, lanes leaving the band on both sides are counted together
    with pytest.raises(CrossingSearchError, match=r"^2 traversing .*tau=-16\)$"):
        ride_to_crossing(m, [0.0, -0.5, 0.0], [-15.0, 2.0, 15.0], step=1e-2)
    # lanes that meet the curve inside the band ride on both sides
    ok = ride_to_crossing(m, [0.5, -0.5], [1.0, 2.0], step=1e-2)
    assert ok.lam[0] < 1.0 and ok.lam[1] > 2.0
    assert np.abs(ok.y_at - ok.lam / 10.0).max() < 1e-9


SINGLE_STEP = 1e-2
EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "model, sigma_half, xi_half",
    [
        (dahl(), 0.7, 3.0),
        (boucwen(), 1.2, 3.0),
        (exp_example(), 2.5, 2.5),
        (_strip_f_an(exp_example()), 2.5, 2.5),
    ],
    ids=["dahl", "boucwen", "exp", "exp-solver"],
)
def test_single_point_ride_is_the_batch_lane_bit_for_bit(model, sigma_half, xi_half):
    # these fields return the same bits for floats as for arrays, so the
    # float ride must take the batch lane's steps exactly, and storage_cw
    # is the storage_cw_batch lane: its crossing, both integrals and value
    sigma, xi = _mixed_lanes(24, sigma_half, xi_half, seed=5)
    batch = ride_to_crossing(model, sigma, xi, step=SINGLE_STEP)
    assert (batch.lam < xi).any() and (batch.lam > xi).any()
    storage = storage_cw_batch(model, sigma, xi, step=SINGLE_STEP)
    fan = _anhysteresis_integrals(model, storage.lam)
    for k in range(sigma.size):
        p = PhasePoint(float(sigma[k]), float(xi[k]))
        lane = (batch.lam[k], batch.y_at[k], batch.integral[k])
        one = _ride_point(model, p, step=SINGLE_STEP, max_doublings=60)
        assert np.array(one).tobytes() == np.array(lane).tobytes(), k
        assert intersect_lambda(model, p, step=SINGLE_STEP) == lane[0], k
        ev = storage_cw(model, p, step=SINGLE_STEP)
        got = (ev.lambda_star, ev.traverse_integral, ev.anhysteresis_integral, ev.value)
        want = (storage.lam[k], batch.integral[k], fan[k], storage.value[k])
        assert np.array(got).tobytes() == np.array(want).tobytes(), k


def test_single_point_ride_of_dahl_r3_is_the_batch_lane_within_field_rounding(dahl_r3):
    # Python's float power and numpy's array power may round |z|^3
    # differently in the last bit, so each field value of a step may be off
    # by 2 ulp after scaling by rho.  As in the supply-march test, that moves
    # a step by at most 4 eps (|y| + step max|f|) and the Dahl branches do
    # not expand output differences, so after N steps the nodes differ by at
    # most dy = N 4 eps (Y + step F), with Y = max|y| = |sigma| (the ride runs
    # from sigma to 0) and F = max|f| = max(|f(sigma)|, rho).  A node slope
    # then differs by at most df = L dy + 2 eps F, with L = r (rho/fc) 2^(r-1)
    # the largest |df/dsigma| on the band.  The bracket's Hermite model moves
    # by at most dH = dy + step df (its basis weights on y sum to 1, those on
    # step * f to less than 1).  The model crosses y = 0, where the branch
    # slope is rho and stays above rho/2 within one step, so its root moves
    # by at most 2 dH / rho, plus the 60-halving resolution step 2^-59 and
    # the rounding of lambda.
    # The branch integral adds N step integrals 0.5 h (yL + yR) + h^2 (fL -
    # fR) / 12, each moved by at most h dy + h^2 df / 6, and the crossing
    # bracket's partial integral, moved by at most step dH by its nodes and
    # by tol_lam max|H| <= tol_lam (Y + step F) by its end; the sums of up
    # to N terms of size at most A = N step (Y + step F) round apart by at
    # most 2 N eps A.  f_an is 0, so the f_an integral is +0.0 on both
    # sides and the value 0.0 - integral moves as the integral does.
    model = dahl_r3
    rho, fc, r = (model.params[k] for k in ("rho", "fc", "r"))
    L = r * (rho / fc) * 2.0 ** (r - 1.0)
    h = SINGLE_STEP
    sigma, xi = _mixed_lanes(60, 0.7, 3.0, seed=5)
    batch = ride_to_crossing(model, sigma, xi, step=h)
    assert (batch.lam < xi).any() and (batch.lam > xi).any()
    storage = storage_cw_batch(model, sigma, xi, step=h)
    n_differ = n_integral_differ = 0
    for k in range(sigma.size):
        N = int(batch.steps[k])
        Y = abs(sigma[k])
        f = model.f1 if batch.lam[k] > xi[k] else model.f2
        F = max(abs(float(f(float(sigma[k]), 0.0))), rho)
        dy = N * 4.0 * EPS * (Y + h * F)
        df = L * dy + 2.0 * EPS * F
        dH = dy + h * df
        tol_lam = 2.0 * dH / rho + h * 2.0**-59 + 2.0 * EPS * (1.0 + abs(batch.lam[k]))
        tol_y = dH + F * tol_lam
        A = N * h * (Y + h * F)
        tol_int = (
            N * (h * dy + h * h * df / 6.0) + h * dH + tol_lam * (Y + h * F)
            + 2.0 * N * EPS * A
        )
        p = PhasePoint(float(sigma[k]), float(xi[k]))
        lam, y_at, integral = _ride_point(model, p, step=h, max_doublings=60)
        assert abs(lam - batch.lam[k]) <= tol_lam, k
        assert abs(y_at - batch.y_at[k]) <= tol_y, k
        assert abs(integral - batch.integral[k]) <= tol_int, k
        n_differ += (lam, y_at) != (float(batch.lam[k]), float(batch.y_at[k]))
        ev = storage_cw(model, p, step=h)
        assert ev.traverse_integral == integral, k
        assert np.float64(ev.anhysteresis_integral).tobytes() == np.float64(0.0).tobytes(), k
        assert abs(ev.value - storage.value[k]) <= tol_int, k
        n_integral_differ += ev.value != storage.value[k]
    # the bounds are not vacuous here: some lanes do differ
    assert n_differ > 0 and n_integral_differ > 0


def _same_failure(batch_call, single_call):
    with pytest.raises(Exception) as batch_err:
        batch_call()
    with pytest.raises(Exception) as single_err:
        single_call()
    assert single_err.type is batch_err.type
    assert str(single_err.value) == str(batch_err.value)
    return batch_err


def test_single_point_ride_fails_as_the_batch_ride():
    # budget: the Dahl crossing at lambda = 1.005 lies one step beyond a
    # budget of 100 steps (test_crossing_on_the_last_budgeted_step_...)
    m = dahl(rho=0.3)
    beyond = float(-0.75 * np.expm1(1.005 * 0.4))
    err = _same_failure(
        lambda: ride_to_crossing(m, [beyond], [0.0], step=0.01, max_doublings=0),
        lambda: intersect_lambda(m, PhasePoint(beyond, 0.0), step=0.01, max_doublings=0),
    )
    assert err.type is CrossingSearchError and "did not meet" in str(err.value)
    # ... and the crossing on the last budgeted step is found
    inside = float(-0.75 * np.expm1(0.995 * 0.4))
    lane = ride_to_crossing(m, [inside], [0.0], step=0.01, max_doublings=0).lam[0]
    assert intersect_lambda(m, PhasePoint(inside, 0.0), step=0.01, max_doublings=0) == lane

    # domain exit: the band-exit model's rising branch from (0, 15)
    band = DuhemModel(
        name="band-exit",
        f1=lambda s, x: 1.0 + 0.0 * s,
        f2=lambda s, x: 1.0 - 2.0 * (s - x / 10.0),
        params={},
        domain=Domain(-1.0, 1.0),
        f_an=lambda xi: xi / 10.0,
    )
    err = _same_failure(
        lambda: ride_to_crossing(band, [0.0], [15.0], step=1e-2),
        lambda: storage_cw(band, PhasePoint(0.0, 15.0), step=1e-2),
    )
    assert err.type is CrossingSearchError and "left the domain" in str(err.value)

    # a step that is not positive, and a point outside the domain
    d = dahl()
    for step in (0.0, -1e-3):
        err = _same_failure(
            lambda: ride_to_crossing(d, [0.3], [0.0], step=step),
            lambda: intersect_lambda(d, PhasePoint(0.3, 0.0), step=step),
        )
        assert err.type is ValueError
        assert str(err.value) == f"step must be positive and finite, got {step}"
        _same_failure(
            lambda: ride_to_crossing(d, [0.3], [0.0], step=step),
            lambda: storage_cw(d, PhasePoint(0.3, 0.0), step=step),
        )
    for single in (intersect_lambda, storage_cw):
        err = _same_failure(
            lambda: ride_to_crossing(d, [0.9], [0.0]),
            lambda: single(d, PhasePoint(0.9, 0.0)),
        )
        assert err.type is ValueError and str(err.value) == (
            "1 phase point(s) outside the model domain (first at sigma=0.9, xi=0)"
        )


@pytest.mark.parametrize("step", [math.nan, math.inf])
def test_marches_and_rides_reject_a_step_that_is_not_finite(dahl_r1, step):
    # nan raised "cannot convert float NaN to integer"; inf marched one RK4
    # substep per branch, or gave a ride budget error "within 0 steps"
    want = f"^step must be positive and finite, got {step}$"
    with pytest.raises(ValueError, match=want):
        traversing_curve(dahl_r1, PhasePoint(0.1, 0.0), -1.0, 1.0, step=step)
    with pytest.raises(ValueError, match=want):
        ride_to_crossing(dahl_r1, [0.3], [0.0], step=step)
    with pytest.raises(ValueError, match=want):
        intersect_lambda(dahl_r1, PhasePoint(0.3, 0.0), step=step)
    with pytest.raises(ValueError, match=want):
        storage_cw_batch(dahl_r1, [0.3], [0.0], step=step)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0])
def test_a_traversing_curve_checks_the_step_where_neither_branch_moves(dahl_r1, step):
    # on tau_min = tau_max = xi it returned a one-node curve at step = nan
    p = PhasePoint(0.1, 0.0)
    with pytest.raises(ValueError, match=f"^step must be positive and finite, got {step}$"):
        traversing_curve(dahl_r1, p, 0.0, 0.0, step=step)
    assert traversing_curve(dahl_r1, p, 0.0, 0.0).y.tolist() == [0.1]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_ride_from_an_input_that_is_not_finite_fails_before_any_march(bad):
    # exp_example's side residual f_an(xi) - sigma is +-inf there, and the
    # step budget raised a bare OverflowError from math.ceil; NaN gave a
    # NaN side residual.  Now the set-up names the count and the first
    # such point, before any field call
    calls = []
    model = exp_example()
    f1, f2 = model.f1, model.f2
    model = dataclasses.replace(
        model,
        f1=lambda s, x: calls.append(1) or f1(s, x),
        f2=lambda s, x: calls.append(1) or f2(s, x),
    )
    calls.clear()
    want = rf"^2 phase point\(s\) whose xi is not finite \(first at sigma=0.3, xi={bad}\)$"
    with pytest.raises(ValueError, match=want):
        ride_to_crossing(model, [0.1, 0.3, -0.2, 0.4], [0.0, bad, 0.5, bad])
    with pytest.raises(ValueError, match=want):
        storage_cw_batch(model, [0.1, 0.3, -0.2, 0.4], [0.0, bad, 0.5, bad])
    assert calls == []


@pytest.mark.parametrize("tau_min, tau_max", [(-math.inf, 2.0), (0.0, math.inf), (-math.inf, math.inf)])
def test_a_traversing_curve_requires_finite_tau_bounds(dahl_r1, tau_min, tau_max):
    # an infinite bound asked _segment_substeps for ceil(inf) substeps and
    # raised a bare OverflowError
    with pytest.raises(
        ValueError, match=f"^tau_min and tau_max must be finite, got {tau_min} and {tau_max}$"
    ):
        traversing_curve(dahl_r1, PhasePoint(0.3, 1.0), tau_min, tau_max)


def test_a_ride_from_a_nan_side_residual_fails_at_once():
    # f_an = sqrt(1 - xi) is NaN at xi = 2: the point lies on neither side
    # of the curve and is not on it either, so no ride may start there
    m = DuhemModel(
        name="sqrt-curve",
        f1=lambda s, x: 1.0 + 0.0 * s,
        f2=lambda s, x: 1.0 - 2.0 * s,
        params={},
        domain=Domain(-np.inf, np.inf),
        f_an=lambda xi: np.sqrt(1.0 - xi),
    )
    p = PhasePoint(0.3, 2.0)
    with np.errstate(invalid="ignore"):
        err = _same_failure(
            lambda: ride_to_crossing(m, [p.sigma], [p.xi]),
            lambda: intersect_lambda(m, p),
        )
        assert err.type is CrossingSearchError
        assert str(err.value) == (
            "1 phase point(s) have a NaN side residual (first at sigma=0.3, xi=2)"
        )
        _same_failure(lambda: storage_cw_batch(m, [p.sigma], [p.xi]), lambda: storage_cw(m, p))
        # in a batch the error names the first such point
        with pytest.raises(CrossingSearchError, match=r"^2 phase .* sigma=-0.1, xi=3\)$"):
            ride_to_crossing(m, [0.2, -0.1, 0.3], [0.5, 3.0, 2.0])


@pytest.mark.parametrize("model", [dahl(), boucwen(), exp_example()], ids=lambda m: m.name)
def test_ride_sides_are_the_comparison_with_the_curve(model):
    # on the verify certificate grid, plus one point on the curve per xi
    # line, the side residual's sign puts each point on the side of
    # sigma's comparison with f_an(xi), bit for bit
    sig, xiv, fan = curves._certificate_grid(model, _battery_geometry(model)[0])
    S = np.concatenate([np.broadcast_to(sig[:, None], (sig.size, xiv.size)), fan[None, :]])
    X = np.broadcast_to(xiv[None, :], S.shape)
    _, _, above, below, _ = _ride_setup(model, S.ravel(), X.ravel(), 1e-3, 60)
    F = np.broadcast_to(fan[None, :], S.shape).ravel()
    assert above.tobytes() == (S.ravel() > F).tobytes()
    assert below.tobytes() == (S.ravel() < F).tobytes()
    assert above.any() and below.any() and not (above | below)[-xiv.size :].any()


def test_solver_path_ride_sides_are_the_comparison_with_the_solved_curve():
    # without f_an the sign of F decides; it agrees with the solved curve
    # wherever |F| exceeds the rounding of f1 - f2 (a few ulp of each field,
    # whose exponent argument is rounded too).  Besides the certificate grid
    # the points include the solved curve and its neighbours 1e-9 off it.
    region = _battery_geometry(exp_example())[0]
    model = _strip_f_an(exp_example())
    sig, xiv, fan = curves._certificate_grid(model, region)
    off = 1e-9 * (1.0 + np.abs(fan))
    S = np.concatenate(
        [np.broadcast_to(sig[:, None], (sig.size, xiv.size)), [fan - off, fan, fan + off]]
    ).ravel()
    X = np.broadcast_to(xiv, (sig.size + 3, xiv.size)).ravel()
    F = np.broadcast_to(fan, (sig.size + 3, xiv.size)).ravel()
    _, _, above, below, _ = _ride_setup(model, S, X, 1e-3, 60)
    f1, f2 = model.f1(S, X), model.f2(S, X)
    rounding = 8.0 * EPS * (np.abs(f1) + np.abs(f2)) * (1.0 + 1.2 * np.abs(S) + np.abs(X))
    clear = np.abs(model.F(S, X)) > rounding
    # every point off the curve is clear of rounding
    assert clear[: -2 * xiv.size].all() and clear[-xiv.size :].all()
    assert (above == (S > F))[clear].all()
    assert (below == (S < F))[clear].all()


def test_ride_refines_all_crossings_in_at_most_two_bisections(monkeypatch, exp_model):
    calls = []
    real = curves.bisect_on_interval_vec

    def counting(g, a, b, iters):
        calls.append(np.asarray(a).size)
        return real(g, a, b, iters=iters)

    sigma, xi = _mixed_lanes(60, 2.5, 2.5, seed=11)
    expected = ride_to_crossing(exp_model, sigma, xi, step=1e-2)
    monkeypatch.setattr(curves, "bisect_on_interval_vec", counting)
    res = ride_to_crossing(exp_model, sigma, xi, step=1e-2)
    assert (res.lam < xi).any() and (res.lam > xi).any()
    assert np.unique(res.steps).size >= 20
    assert len(calls) <= 2
    assert sum(calls) == sigma.size
    assert res.lam.tobytes() == expected.lam.tobytes()


def test_batch_ride_leaving_a_bounded_domain_raises():
    # F = sigma - xi/10; the rising branch (slope 1) from (0, 15) would meet
    # the curve at sigma = 5/3, beyond the band (-1, 1), while the other
    # lanes cross inside it
    m = DuhemModel(
        name="band-exit",
        f1=lambda s, x: 1.0 + 0.0 * s,
        f2=lambda s, x: 1.0 - 2.0 * (s - x / 10.0),
        params={},
        domain=Domain(-1.0, 1.0),
        f_an=lambda xi: xi / 10.0,
    )
    ok = ride_to_crossing(m, [0.0, -0.5], [1.0, 2.0], step=1e-2)
    assert np.abs(ok.y_at - ok.lam / 10.0).max() < 1e-9
    with pytest.raises(CrossingSearchError, match="1 traversing branch.* left the domain"):
        ride_to_crossing(m, [0.0, -0.5, 0.0], [1.0, 2.0, 15.0], step=1e-2)


def _sqrt_model(odd):
    # f1 = sqrt(-sigma) + 1 is NaN for sigma > 0, f2(sigma, xi) = f1(-sigma,
    # -xi): on the whole plane, a ride from below the curve f_an = 0 turns
    # NaN in the step whose stages probe sigma > 0
    def f1(s, x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(-s) + 1.0

    return DuhemModel(
        name="sqrt", f1=f1, f2=lambda s, x: f1(-s, -x), f_an=lambda x: 0.0 * x, odd=odd
    )


@pytest.mark.parametrize("odd", [True, False], ids=["odd", "two marches"])
def test_a_whole_plane_ride_that_turns_nan_exits_where_simulate_does(odd):
    # a ride that let the NaN pass would march its whole budget, 2**21
    # steps (43 s) by default: max_doublings=0 keeps it at 20 steps
    m = _sqrt_model(odd)
    with pytest.raises(DomainExitError) as lone:
        simulate(m, ramp(0.0, 1.0, 1.0), -0.5, step=0.05)
    assert math.isnan(lone.value.y)
    assert lone.value.u == pytest.approx(0.35, abs=1e-12)
    want = r"^1 traversing branch\(es\) left the domain before meeting the anhysteresis curve \(first at tau=0\.35\)$"
    with pytest.raises(CrossingSearchError, match=want):
        ride_to_crossing(m, [-0.5], [0.0], step=0.05, max_doublings=0)
    with pytest.raises(CrossingSearchError, match=want):
        intersect_lambda(m, PhasePoint(-0.5, 0.0), step=0.05, max_doublings=0)


def test_lemma_margin_certificate_dahl(dahl_r1):
    rep = check_lemma1(dahl_r1, ((-0.7125, 0.7125), (-2.0, 2.0)), 0.01)
    assert rep.passed
    assert rep.details["constant_f_an"] is True


def test_lemma_margin_certificate_exp_tight_epsilon(exp_model):
    rep = check_lemma1(exp_model, ((-5.0, 5.0), (-5.0, 5.0)), 5e-4)
    assert rep.passed
    assert rep.details["constant_f_an"] is False
    assert rep.details["worst_margin"] == pytest.approx(EXP_CORNER_MARGIN, abs=1e-12)
    assert rep.worst_location == (5.0, -5.0)
    # the pinned literal itself stays within slope rounding of the closed form
    m_star, corner = exp_margin_min(((-5.0, 5.0), (-5.0, 5.0)))
    assert corner == (5.0, -5.0)
    assert abs(EXP_CORNER_MARGIN - m_star) <= central_slope_rounding(corner[1])


def test_lemma_margin_certificate_exp_fails_at_loose_epsilon(exp_model):
    # margin at the far corner undercuts 1e-3, so the certificate must say no
    rep = check_lemma1(exp_model, ((-5.0, 5.0), (-5.0, 5.0)), 1e-3)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(1e-3 - EXP_CORNER_MARGIN, abs=1e-12)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_lemma_check_rejects_an_epsilon_that_is_not_finite(dahl_r1, epsilon):
    # both gave a failing report, with worst NaN or inf
    with pytest.raises(ValueError, match=f"^epsilon must be positive and finite, got {epsilon}$"):
        check_lemma1(dahl_r1, ((-0.7, 0.7), (-1.0, 1.0)), epsilon)


def test_lemma_check_validates_inputs(dahl_r1):
    with pytest.raises(ValueError):
        check_lemma1(dahl_r1, ((-0.7, 0.7), (-1.0, 1.0)), 0.0)
    with pytest.raises(ValueError):
        check_lemma1(dahl_r1, ((0.7, -0.7), (-1.0, 1.0)), 0.01)
    with pytest.raises(ValueError):
        check_lemma1(dahl_r1, ((-1.0, 1.0), (-1.0, 1.0)), 0.01)


def test_a_traversing_curve_rejects_a_point_outside_the_band():
    # Dahl's band is |sigma| < fc = 0.75
    with pytest.raises(ValueError, match="outside model domain"):
        traversing_curve(dahl(), PhasePoint(0.8, 0.0), -1.0, 1.0)


def test_a_curve_on_a_single_node_is_its_phase_point():
    assert traversing_curve(dahl(), PhasePoint(0.3, 0.5), 0.5, 0.5)(0.5) == 0.3


@pytest.mark.parametrize("solve", [
    lambda m: anhysteresis(m, 0.0),
    lambda m: float(anhysteresis_values(m, np.array([0.0]))[0]),
], ids=["scalar", "vector"])
def test_the_anhysteresis_search_on_a_band_stays_inside_its_ends(solve):
    # f1 = 1/(1 - s) and f2 = 2/(1 + s) meet at 1/3 and blow up at the ends
    # of (-1, 1); with no f_an the search must not probe the ends themselves
    band = DuhemModel(
        "band", lambda s, xi: 1.0 / (1.0 - s), lambda s, xi: 2.0 / (1.0 + s),
        domain=Domain(-1.0, 1.0),
    )
    assert solve(band) == pytest.approx(1.0 / 3.0, abs=1e-9)
