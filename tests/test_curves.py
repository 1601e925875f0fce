import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem import boucwen, curves, dahl, exp_example
from duhem.core import Domain, DuhemModel
from duhem.curves import (
    CrossingSearchError,
    PhasePoint,
    anhysteresis,
    anhysteresis_values,
    check_lemma1,
    intersect_lambda,
    ride_to_crossing,
    traversing_curve,
)

from oracles import (
    central_slope_rounding,
    exp_margin_min,
    lambda_exact,
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


def test_traversing_curve_passes_through_origin(dahl_r1):
    p = PhasePoint(-0.2, 0.6)
    curve = traversing_curve(dahl_r1, p, -1.0, 2.0)
    assert curve(0.6) == -0.2
    assert curve.tau_min == -1.0 and curve.tau_max == 2.0


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
    assert curve.tau_max < 3.0
    assert curve.y.max() < 1.0


def test_traversing_curve_validates_window(dahl_r1):
    with pytest.raises(ValueError):
        traversing_curve(dahl_r1, PhasePoint(0.0, 5.0), -1.0, 1.0)


def test_intersect_lambda_matches_closed_form(dahl_r1):
    lam = intersect_lambda(dahl_r1, PhasePoint(0.375, 1.0))
    assert abs(lam - LAMBDA_ORACLE) < 1e-9


def test_intersect_lambda_on_curve_is_identity(dahl_r1):
    assert intersect_lambda(dahl_r1, PhasePoint(0.0, 0.3)) == 0.3


def test_intersect_lambda_below_curve_moves_right(dahl_r1):
    lam = intersect_lambda(dahl_r1, PhasePoint(-0.4, 0.0))
    assert lam > 0.0
    assert lam == pytest.approx(lambda_exact(-0.4, 0.0), abs=1e-9)


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


def test_ride_refines_all_crossings_in_at_most_two_bisections(monkeypatch, exp_model):
    calls = []
    real = curves.bisect_on_interval_vec

    def counting(g, a, b, iters=80):
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


def test_lemma_check_validates_inputs(dahl_r1):
    with pytest.raises(ValueError):
        check_lemma1(dahl_r1, ((-0.7, 0.7), (-1.0, 1.0)), 0.0)
    with pytest.raises(ValueError):
        check_lemma1(dahl_r1, ((0.7, -0.7), (-1.0, 1.0)), 0.01)
    with pytest.raises(ValueError):
        check_lemma1(dahl_r1, ((-1.0, 1.0), (-1.0, 1.0)), 0.01)
