import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem import boucwen, curves, dahl, exp_example, simulate
from duhem import storage as storage_module
from duhem.core import Domain, DomainExitError, DuhemModel
from duhem.curves import (
    CrossingSearchError,
    PhasePoint,
    anhysteresis,
    check_lemma1,
    intersect_lambda,
    ride_to_crossing,
    traversing_curve,
)
from duhem.dissipativity import check_assumption_A
from duhem.integrate import adaptive_simpson
from duhem.mechsim import MechParams, MechState, simulate_mech
from duhem.signals import InputSignal, random_piecewise_linear
from duhem.storage import (
    AvailableStorageResult,
    SignalFamily,
    StorageEvaluation,
    _anhysteresis_integrals,
    _chunk_map_search,
    _chunk_rounds,
    _search_signals,
    _supply_running_min,
    available_storage_bruteforce,
    available_storage_bruteforce_batch,
    storage_cw,
    storage_cw_batch,
    storage_output_only,
)

from oracles import (
    bisect_halvings,
    branch_integral_exact,
    boucwen_lambda_exact,
    boucwen_storage_exact,
    cw_supply_integral,
    dahl_storage_exact,
    exp_storage_exact,
    extraction_exact,
    lambda_exact,
    ride_two_marches,
    storage_exact,
)
from test_models import reduced_form_samples

STORAGE_ORACLE = 0.03545058445943833  # closed form at y = 0.375


def _friction_storage(x3):
    # the friction system's V at rest at the origin is H(x3), the closed
    # form of the slope-1 Dahl storage at the stock rho = 1.5, fc = 0.75
    return simulate_mech(MechParams(), MechState(0.0, 0.0, x3), 1e-3, step=1e-3).v[0]


def test_closed_form_reference_value():
    for y in (0.375, -0.375):
        assert _friction_storage(y) == pytest.approx(STORAGE_ORACLE, abs=1e-16)
        assert _friction_storage(y) == pytest.approx(float(storage_exact(y)), abs=1e-16)


def test_closed_form_is_even_and_zero_at_origin():
    ys = np.linspace(-0.7, 0.7, 15)
    vals = np.array([_friction_storage(y) for y in ys])
    assert np.allclose(vals, vals[::-1])
    assert _friction_storage(0.0) == 0.0
    assert (vals[ys != 0.0] > 0.0).all()


def test_storage_cw_matches_closed_form(dahl_r1):
    for s, x in [(0.375, 1.0), (-0.6, -0.3), (0.1, 2.0), (0.72, 0.0)]:
        ev = storage_cw(dahl_r1, PhasePoint(s, x))
        assert ev.value == pytest.approx(storage_exact(s), abs=1e-8)
        assert ev.lambda_star == pytest.approx(lambda_exact(s, x), abs=1e-8)


def test_storage_cw_is_input_independent_for_dahl(dahl_r1):
    a = storage_cw(dahl_r1, PhasePoint(0.4, -2.0)).value
    b = storage_cw(dahl_r1, PhasePoint(0.4, 3.0)).value
    assert abs(a - b) < 1e-9


def test_storage_cw_vanishes_on_anhysteresis_curve(dahl_r1):
    assert storage_cw(dahl_r1, PhasePoint(0.0, 0.7)).value == 0.0


def test_storage_cw_exp_on_curve_integrates_backbone(exp_model):
    # on sigma = xi/1.2 the traverse term drops out and the value is the
    # backbone integral xi^2 / 2.4, exact for the quadrature on a linear curve
    for xi in (1.2, -2.4, 0.6):
        ev = storage_cw(exp_model, PhasePoint(xi / 1.2, xi))
        assert ev.value == pytest.approx(xi * xi / 2.4, abs=1e-12)
        assert ev.lambda_star == xi


@pytest.mark.parametrize("model", ["dahl_r1", "exp_model"])
def test_an_empty_batch_rides_to_empty_results(model, request):
    # the step budget took the max of no |xi| and raised numpy's "zero-size
    # array to reduction operation maximum"; exp_model's f_an is not zero,
    # so the batch storage integrates it over no lanes
    model = request.getfixturevalue(model)
    empty = np.array([])
    res = ride_to_crossing(model, empty, empty)
    assert [a.shape for a in (res.lam, res.y_at, res.integral, res.steps)] == [(0,)] * 4
    batch = storage_cw_batch(model, empty, empty)
    assert batch.lam.shape == batch.value.shape == (0,)


def test_storage_evaluation_dict_keys(dahl_r1):
    d = storage_cw(dahl_r1, PhasePoint(0.375, 1.0)).to_dict()
    assert sorted(d) == [
        "anhysteresis_integral",
        "lambda",
        "sigma",
        "traverse_integral",
        "value",
        "xi",
    ]


def _simpson_storage(model, p, *, step, tol=1e-8):
    """The storage at p by a second route: `intersect_lambda`'s crossing,
    the traversing branch from xi to it resampled by `traversing_curve`
    into a C^1 table and integrated by adaptive Simpson to tol, as is the
    scalar `anhysteresis` from 0 to the crossing."""
    lam = intersect_lambda(model, p, step=step)
    curve = traversing_curve(model, p, min(lam, p.xi), max(lam, p.xi), step)
    assert not (curve.left_truncated or curve.right_truncated)
    traverse = adaptive_simpson(curve, p.xi, lam, tol=tol)
    fan_int = 0.0 + adaptive_simpson(lambda t: anhysteresis(model, t), 0.0, lam, tol=tol)
    return StorageEvaluation(
        point=p,
        lambda_star=lam,
        anhysteresis_integral=fan_int,
        traverse_integral=traverse,
        value=fan_int - traverse,
    )


def test_batch_route_agrees_with_quadrature_route(dahl_r1, exp_model):
    # two independent evaluators: adaptive Simpson on the resampled curve vs
    # cumulative Hermite areas accumulated during the ride
    pts = [(0.375, 1.0), (-0.6, -0.3), (0.1, 2.0)]
    for model in (dahl_r1, exp_model):
        sig = np.array([p[0] for p in pts])
        xi = np.array([p[1] for p in pts])
        batch = storage_cw_batch(model, sig, xi, step=1e-3)
        for k, (s, x) in enumerate(pts):
            scalar = _simpson_storage(model, PhasePoint(s, x), step=1e-3)
            assert batch.value[k] == pytest.approx(scalar.value, abs=1e-9)
            assert batch.lam[k] == pytest.approx(scalar.lambda_star, abs=1e-9)


@pytest.mark.parametrize(
    "model_name, point",
    [
        ("dahl_r1", PhasePoint(0.5, -0.2)),
        ("dahl_r1", PhasePoint(0.0, -0.7)),
        ("bw", PhasePoint(-0.3, 0.4)),
        ("exp_model", PhasePoint(0.5, -0.2)),
        ("exp_model", PhasePoint(-0.5, -0.6)),
    ],
)
def test_storage_cw_makes_no_anhysteresis_values_call(model_name, point, request, monkeypatch):
    # no anhysteresis_values call but the f_an rule's (the adaptive-Simpson
    # route this name dates from made none): storage_cw makes one, at the
    # rule's 20 nodes, on the curve or off it, and no 33-point probe
    # decides first whether f_an is zero
    calls = []
    for module in (storage_module, curves):
        real = module.anhysteresis_values
        monkeypatch.setattr(
            module, "anhysteresis_values",
            lambda m, x, real=real: calls.append(np.size(x)) or real(m, x),
        )
    ev = storage_cw(request.getfixturevalue(model_name), point)
    assert calls == [storage_module._GAUSS_NODES]
    assert math.isfinite(ev.value)


@pytest.mark.parametrize("model_name", ["dahl_r1", "exp_model"])
@pytest.mark.parametrize("n", [0, 1, 512, 513, 1536, 1537])
def test_anhysteresis_integrals_call_f_an_once_per_block_of_rows(model_name, n, request):
    # every batch takes the Gauss-Legendre rule, a zero f_an too, and no
    # probe of f_an comes before it
    calls = []
    model = request.getfixturevalue(model_name)
    f_an = model.f_an
    model = dataclasses.replace(model, f_an=lambda x: calls.append(np.size(x)) or f_an(x))
    calls.clear()
    lam = np.linspace(-0.7, 0.7, n)
    _anhysteresis_integrals(model, lam)
    blocks = -(-n // storage_module._GAUSS_BLOCK_ROWS)
    assert len(calls) == blocks
    assert sum(calls) == n * storage_module._GAUSS_NODES


@pytest.mark.parametrize("model_name", ["dahl_r1", "bw"])
def test_a_zero_anhysteresis_curve_integrates_to_plus_zero_in_both_routes(model_name, request):
    # 0.0 + the f_an term: the integral of a zero f_an from 0 to lam < 0
    # is -0.0 in both rules, and it reads +0.0, as does the storage on the
    # curve at xi < 0, where the branch integral is +0.0 too
    def plus_zero(values):
        values = np.atleast_1d(values)
        return (values == 0.0).all() and not np.signbit(values).any()

    model = request.getfixturevalue(model_name)
    ev = storage_cw(model, PhasePoint(0.5, -0.2))
    assert ev.lambda_star < 0.0
    assert plus_zero(ev.anhysteresis_integral)
    assert plus_zero(_anhysteresis_integrals(model, np.array([ev.lambda_star, -0.7, -1e-300])))
    on = PhasePoint(0.0, -0.7)
    scalar = storage_cw(model, on)
    assert scalar.lambda_star == on.xi
    assert plus_zero(scalar.value)
    assert plus_zero(storage_cw_batch(model, [on.sigma], [on.xi]).value)


def _exp_fields(g):
    """The exponential example's fields with g(xi) in place of xi."""
    return (
        lambda s, x: np.exp(0.5 * (-1.2 * s + g(x))) + 0.83,
        lambda s, x: np.exp(0.5 * (1.2 * s - g(x))) + 0.83,
    )


@pytest.mark.parametrize(
    "f_an, exact",
    [
        (lambda x: 0.5 * np.sin(2.0 * x), lambda lam: (1.0 - np.cos(2.0 * lam)) / 4.0),
        (lambda x: np.exp(x) - 1.0, lambda lam: np.exp(lam) - 1.0 - lam),
    ],
    ids=["sin", "exp"],
)
def test_anhysteresis_integrals_are_the_closed_forms_of_smooth_curves(f_an, exact):
    # the Gauss-Legendre rule is at rounding on a smooth f_an (measured:
    # 2.2e-16 and 1.1e-14)
    f1, f2 = _exp_fields(lambda x: x)
    model = DuhemModel(name="smooth f_an", f1=f1, f2=f2, f_an=f_an)
    lam = np.linspace(-3.0, 3.0, 601)
    assert np.abs(_anhysteresis_integrals(model, lam) - exact(lam)).max() < 1e-13


def test_batch_route_agrees_with_quadrature_route_on_a_nonlinear_curve():
    # exp_example with g(xi) = 0.8 xi + 0.1 sin xi in place of xi: f1 - f2
    # vanishes on sigma = g(xi) / 1.2, a nonlinear anhysteresis curve that
    # both certificates accept on [-3, 3]^2; the two routes integrate f_an
    # by different rules
    g = lambda x: 0.8 * x + 0.1 * np.sin(x)
    f1, f2 = _exp_fields(g)
    model = DuhemModel(name="nonlinear f_an", f1=f1, f2=f2, f_an=lambda x: g(x) / 1.2)
    square = ((-3.0, 3.0), (-3.0, 3.0))
    assert check_assumption_A(model, square).passed
    assert check_lemma1(model, square, 1e-3).passed
    rng = np.random.default_rng(5)
    sig = rng.uniform(-2.0, 2.0, 20)
    xi = rng.uniform(-2.5, 2.5, 20)
    batch = storage_cw_batch(model, sig, xi, step=1e-3)
    for k in range(sig.size):
        scalar = _simpson_storage(model, PhasePoint(sig[k], xi[k]), step=1e-3)
        assert abs(scalar.anhysteresis_integral) > 1e-3
        assert batch.value[k] == pytest.approx(scalar.value, abs=1e-9)
        assert batch.lam[k] == pytest.approx(scalar.lambda_star, abs=1e-9)


def test_batch_storage_of_a_point_does_not_depend_on_its_batch(exp_model):
    # all samples of two seeded battery signals ride as one batch of more
    # than two blocks of rows of the f_an rule; every 11th sample alone must
    # give the same storage bit for bit, in every block
    rng = np.random.default_rng(6)
    trajs = [
        simulate(
            exp_model,
            random_piecewise_linear(rng, u_start=0.0, span=2.0, n_breakpoints=(3, 8)),
            0.0,
            step=5e-3,
        )
        for _ in range(2)
    ]
    y = np.concatenate([t.y for t in trajs])
    u = np.concatenate([t.u for t in trajs])
    assert y.size > 2 * 512
    whole = storage_cw_batch(exp_model, y, u, step=5e-3).value
    pick = np.arange(0, y.size, 11)
    alone = [storage_cw_batch(exp_model, y[i : i + 1], u[i : i + 1], step=5e-3).value[0]
             for i in pick]
    assert whole[pick].tobytes() == np.array(alone).tobytes()


def _anhysteresis_peak(model, lam):
    tracemalloc.start()
    try:
        _anhysteresis_integrals(model, lam)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_anhysteresis_integral_memory_does_not_grow_with_the_batch(exp_model):
    # the 20 Gauss-Legendre nodes per lane are evaluated in blocks of rows,
    # so 20,000 more lanes may add their O(lanes) inputs and outputs (a few
    # floats each) but not 20 node values each
    lam = np.linspace(-3.0, 3.0, 21_000)
    small = _anhysteresis_peak(exp_model, lam[:1000])
    large = _anhysteresis_peak(exp_model, lam)
    assert large - small < 8 * 8 * (lam.size - 1000)
    assert large < 4_000_000


def test_batch_storage_nonnegative_on_grid(dahl_r1, rng):
    sig = 0.7 * (2.0 * rng.random(60) - 1.0)
    xi = 3.0 * (2.0 * rng.random(60) - 1.0)
    batch = storage_cw_batch(dahl_r1, sig, xi)
    assert (batch.value >= 0.0).all()
    assert np.abs(batch.value - storage_exact(sig)).max() < 1e-8


@given(st.floats(min_value=-0.7, max_value=0.7))
@settings(max_examples=40, deadline=None)
def test_batch_storage_closed_form_property(sigma):
    m = dahl()
    batch = storage_cw_batch(m, np.array([sigma]), np.array([0.0]))
    assert abs(batch.value[0] - storage_exact(sigma)) < 1e-8


@pytest.mark.parametrize("n", [2.0, 3.0])
def test_batch_storage_boucwen_matches_closed_form(n):
    # beta = zeta: H = sigma^2 / 2, exact for the cubic Hermite sum of the
    # straight branch, so only the rounding of the N <= 750 accumulated steps
    # is left, bounded by 4 N eps max H.  Points in the band where
    # F = (f1 - f2)/2 rounds to 0 are included.
    m = boucwen(n=n)
    sigma = np.concatenate([np.linspace(-1.5, 1.5, 41), [3e-6, -3e-6, 1e-7]])
    xi = np.linspace(-1.0, 1.0, sigma.size)
    batch = storage_cw_batch(m, sigma, xi, step=2e-3)
    assert np.abs(batch.lam - boucwen_lambda_exact(sigma, xi)).max() < 1e-9
    bound = 4 * 750 * np.finfo(float).eps * boucwen_storage_exact(1.5)
    assert np.abs(batch.value - boucwen_storage_exact(sigma)).max() < bound


def test_output_only_storage_is_the_dahl_closed_form(dahl_r1):
    # Dahl r = 1: H = (fc^2/rho) log(fc/(fc + |y|)) + (fc/rho)|y|, up to
    # rounding, over the whole band; exactly 0 at the curve
    # xi is not read: a NaN input changes no bit
    sigma = np.concatenate([np.linspace(-0.749, 0.749, 301), [-0.0, 1e-12, -1e-12]])
    H = storage_output_only(dahl_r1, sigma, math.nan)
    assert np.abs(H - storage_exact(sigma)).max() <= 1e-15
    assert H[150] == 0.0 and H[301] == 0.0


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_output_only_storage_is_the_boucwen_closed_form(alpha):
    # beta = zeta: the ridden branch is the line of slope alpha on both
    # sides, H = sigma^2 / (2 alpha); the Gauss-Legendre rule is exact on it
    # up to the rounding of its sum
    m = boucwen(alpha=alpha)
    sigma = np.concatenate([np.linspace(-1.5, 1.5, 41), [3e-6, -3e-6, 1e-7]])
    H = storage_output_only(m, sigma, 0.0)
    bound = 4 * np.finfo(float).eps * boucwen_storage_exact(1.5, alpha)
    assert np.abs(H - boucwen_storage_exact(sigma, alpha)).max() <= bound


def test_output_only_storage_is_the_fine_ride_on_the_fig1_preset():
    # Dahl r = 3 (`duhem verify --preset fig1`) has no closed form: the
    # rule agrees with a ride at step 2.5e-4 to 7.7e-14 over the band (the
    # ride's own error; the README ride at step 5e-3 is 8.7e-9 off it), at
    # any input coordinate, since the storage ignores it
    m = dahl(rho=1.5, fc=0.75, r=3.0)
    sigma = np.concatenate([np.linspace(-0.745, 0.745, 299), [1e-9, -1e-9, 0.7499, -0.7499]])
    xi = np.linspace(-2.0, 2.0, sigma.size)
    ride = storage_cw_batch(m, sigma, xi, step=2.5e-4).value
    assert np.abs(storage_output_only(m, sigma, xi) - ride).max() <= 1e-12


@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw"])
def test_output_only_storage_of_a_lane_does_not_depend_on_its_batch(model_name, request, rng):
    # more rows than one block, both branches and zeros: each lane alone
    # gives the bits it gets in the batch
    model = request.getfixturevalue(model_name)
    half = 0.74 if math.isfinite(model.domain.sigma_max) else 1.5
    sigma = half * (2.0 * rng.random(2 * storage_module._GAUSS_BLOCK_ROWS + 37) - 1.0)
    sigma[::97] = 0.0
    whole = storage_output_only(model, sigma, 0.0)
    alone = [storage_output_only(model, sigma[i : i + 1], 0.0)[0] for i in range(0, sigma.size, 7)]
    assert whole[::7].tobytes() == np.array(alone).tobytes()
    assert whole[::-1].tobytes() == storage_output_only(model, sigma[::-1], 0.0).tobytes()


def test_output_only_storage_names_the_first_failing_sample(dahl_r1, exp_model):
    with pytest.raises(ValueError, match="declares no reduced_form"):
        storage_output_only(dataclasses.replace(exp_model, reduced_form=None), [0.1], [0.0])
    with pytest.raises(ValueError, match=r"2 sample\(s\) outside the model domain \(first at sigma=0\.8\)"):
        storage_output_only(dahl_r1, [0.1, 0.8, math.nan], 0.0)
    # a branch slope that reaches 0 inside [0, sigma] (f2 = 1 - 2 s on
    # s > 0), or is not finite, stops the storage: the ride would not reach
    # the curve
    flat = DuhemModel(
        name="flat", f1=lambda s, x: 1.0 + 0.0 * s, f2=lambda s, x: 1.0 - 2.0 * s,
        f_an=lambda x: 0.0 * x, reduced_form=(0, 1),
    )
    # the integrals of s and of s / (1 - 2 s) = -1/2 + 1 / (2 (1 - 2 s))
    exact = [4.5, -0.15 - 0.25 * math.log(0.4)]
    assert storage_output_only(flat, [-3.0, 0.3], 0.0) == pytest.approx(exact, rel=1e-14)
    with pytest.raises(CrossingSearchError, match=r"2 sample\(s\) with a rate a - b g .*\(first at sigma=0\.5\)"):
        storage_output_only(flat, [-3.0, 0.5, 0.2, 0.9], 0.0)
    with pytest.raises(CrossingSearchError, match=r"1 sample\(s\) .*\(first at sigma=-2\)"):
        storage_output_only(dataclasses.replace(flat, f1=lambda s, x: np.where(s < -1.5, np.inf, 1.0)), [-2.0, 0.1], 0.0)


# relative rounding allowance of the one-variable quadrature against the
# exact exponential storage.  Each weighted term s / (c g - 1) takes about
# ten roundings (exp within an ulp), and c g - 1 > 1.19 amplifies the
# relative error of c g >= 2.19 by less than 1.84; the 20 terms share a sign,
# so their sum adds at most 19 roundings of the sum, and xi^2 / 2 + sum and
# the division by c add three.  That is below 40 unit roundoffs (20 eps) on
# each of the route and the oracle, whose rule is at rounding.
EXP_QUADRATURE_REL = 64 * np.finfo(float).eps


@functools.lru_cache(maxsize=1)
def _readme_exp_samples():
    """The 25,520 battery samples (sigma, xi) of the README `duhem verify
    --model exp_example` command (seed 0, 25 signals, step 5e-3)."""
    rng = np.random.default_rng(0)
    battery = [
        random_piecewise_linear(rng, u_start=0.0, span=2.0, n_breakpoints=(3, 8))
        for _ in range(25)
    ]
    trajs = [simulate(exp_example(), sig, 0.0, step=5e-3) for sig in battery]
    sigma = np.concatenate([t.y for t in trajs])
    xi = np.concatenate([t.u for t in trajs])
    assert sigma.size == 25_520
    return sigma, xi


def test_one_variable_storage_is_the_exact_exp_storage(exp_model):
    # the README battery samples, and the verify square [-3, 3]^2 with the
    # curve sigma = xi / 1.2 (H = xi^2 / 2.4) and the origin (H = 0) on it
    sigma, xi = _readme_exp_samples()
    s, x = (a.ravel() for a in np.meshgrid(np.linspace(-3.0, 3.0, 61), np.linspace(-3.0, 3.0, 61)))
    sigma = np.concatenate([sigma, s, x / 1.2])
    xi = np.concatenate([xi, x, x])
    H = storage_output_only(exp_model, sigma, xi)
    exact = exp_storage_exact(sigma, xi)
    assert (np.abs(H - exact) <= EXP_QUADRATURE_REL * exact).all()
    origin = (sigma == 0.0) & (xi == 0.0)
    assert origin.any() and (H[origin] == 0.0).all()


def test_the_reduced_form_storage_is_both_exact_storages_on_random_points(dahl_r1, exp_model):
    # the one formula (a xi^2 / 2 + integral of s / (b g(-s) - a)) / b at
    # the 100,000 points of the declaration test: (0, 1) gives the Dahl
    # r = 1 closed form, (1, 1.2) the exact exponential storage, each
    # within the bound of its own test above
    sigma, xi = reduced_form_samples(0.75)
    H = storage_output_only(dahl_r1, sigma, xi)
    assert np.abs(H - storage_exact(sigma)).max() <= 1e-15
    sigma, xi = reduced_form_samples(5.0)
    exact = exp_storage_exact(sigma, xi)
    assert (np.abs(storage_output_only(exp_model, sigma, xi) - exact) <= EXP_QUADRATURE_REL * exact).all()


def test_a_sigma_only_storage_does_not_read_xi(dahl_r1):
    # a = 0: xi is neither converted nor broadcast, so a NaN, a wrong shape
    # or no number at all gives the bits of xi = 0
    sigma = np.linspace(-0.7, 0.7, 15)
    H = storage_output_only(dahl_r1, sigma, 0.0)
    for xi in (math.nan, np.full(3, math.nan), object()):
        assert storage_output_only(dahl_r1, sigma, xi).tobytes() == H.tobytes()


def test_readme_exp_ride_is_within_its_step_halving_error_of_the_exact_storage(exp_model):
    # storage_cw_batch at the README battery step h = 5e-3 and at h / 2:
    # RK4 makes the ride's error about C h^4, so |H_h - H_h/2| is 15/16 of
    # H_h's error.  Twice that bounds it, plus the quadratures' rounding;
    # the ride and the one-variable quadrature then agree to the same bound.
    sigma, xi = _readme_exp_samples()
    ride = storage_cw_batch(exp_model, sigma, xi, step=5e-3).value
    half = storage_cw_batch(exp_model, sigma, xi, step=2.5e-3).value
    exact = exp_storage_exact(sigma, xi)
    bound = 2.0 * np.abs(ride - half).max() + EXP_QUADRATURE_REL * exact.max()
    assert np.abs(ride - exact).max() <= bound
    assert np.abs(ride - storage_output_only(exp_model, sigma, xi)).max() <= bound


def test_storage_cw_is_within_its_step_halving_error_of_the_exact_exp_storage(exp_model):
    # one README battery sample in 500 (all 25,520 would take minutes):
    # the single-point ride at h = 5e-3 and h / 2, bounded as the batch
    # ride is
    sigma, xi = _readme_exp_samples()
    points = [PhasePoint(float(s), float(x)) for s, x in zip(sigma[::500], xi[::500])]
    ride, half = (
        np.array([storage_cw(exp_model, p, step=h).value for p in points])
        for h in (5e-3, 2.5e-3)
    )
    exact = exp_storage_exact(sigma[::500], xi[::500])
    bound = 2.0 * np.abs(ride - half).max() + EXP_QUADRATURE_REL * exact.max()
    assert np.abs(ride - exact).max() <= bound


def test_one_variable_storage_is_its_closed_form_and_names_the_first_failing_sample():
    # c = 1, g1(w) = 2 - w and g2(w) = 2 + w: H = xi^2 / 2 plus the integral
    # of w / (1 - w) from 0 to w0 > 0 (-w0 - log(1 - w0)), or of w / (1 + w)
    # to w0 < 0 (w0 - log(1 + w0)).  c g - 1 reaches 0 at w = 1 and w = -1,
    # where the ride would stop short of the curve.
    m = DuhemModel(
        name="linear", f1=lambda s, x: 2.0 - (x - s), f2=lambda s, x: 2.0 + (x - s),
        f_an=lambda x: x / 1.0, reduced_form=(1, 1.0),
    )
    sigma, xi = np.array([0.1, -0.2, 0.3]), np.array([0.6, -0.7, 0.3])
    exact = [0.18 - 0.5 - math.log(0.5), 0.245 - 0.5 - math.log(0.5), 0.045]
    assert storage_output_only(m, sigma, xi) == pytest.approx(exact, rel=1e-14)
    with pytest.raises(CrossingSearchError, match=r"2 sample\(s\) with a rate a - b g that is not finite and negative \(first at sigma=-1, xi=0\)"):
        storage_output_only(m, [0.1, -1.0, 0.2, 1.5], [0.6, 0.0, 0.3, 0.0])
    with pytest.raises(ValueError, match=r"1 sample\(s\) whose xi is not finite \(first at sigma=0\.2, xi=nan\)"):
        storage_output_only(m, [0.1, 0.2], [0.6, math.nan])
    with pytest.raises(ValueError, match=r"1 sample\(s\) outside the model domain \(first at sigma=nan, xi=0\.3\)"):
        storage_output_only(m, [0.1, math.nan], [0.6, 0.3])


def test_signal_family_validation():
    with pytest.raises(ValueError):
        SignalFamily(n_random=-1)
    with pytest.raises(ValueError):
        SignalFamily(breakpoints=(5, 3))
    with pytest.raises(ValueError):
        SignalFamily(span=-1.0)
    # counts that are not ints: n_random = 2.5 failed in the search with a
    # TypeError from range, True ran one signal, a breakpoint count of 2.5
    # was accepted, and seed = -1 failed in numpy at search time
    for kwargs in (
        {"n_random": 2.5},
        {"n_random": True},
        {"breakpoints": (2, 2.5)},
        {"breakpoints": (2.0, 3)},
        {"breakpoints": (True, 3)},
        {"seed": -1},
        {"seed": 1.0},
        {"seed": False},
    ):
        with pytest.raises(ValueError):
            SignalFamily(**kwargs)
    # breakpoints that are not a pair raised the unpacking error: TypeError
    # "cannot unpack non-iterable int object", ValueError "too many values"
    for breakpoints in (5, (2, 3, 4)):
        with pytest.raises(ValueError, match=r"^bad breakpoint range"):
            SignalFamily(breakpoints=breakpoints)


@pytest.mark.parametrize("span", [math.nan, math.inf, 0.0])
def test_signal_family_rejects_a_span_that_is_not_positive_and_finite(span):
    # nan failed later in the signal builder ("breakpoints must be finite")
    # and inf with a wrong reason, after a NaN anhysteresis probe
    with pytest.raises(ValueError, match=f"^span must be positive and finite, got {span}$"):
        SignalFamily(span=span)


def test_available_storage_bruteforce_brackets_closed_form(dahl_r1):
    res = available_storage_bruteforce(
        dahl_r1, PhasePoint(0.375, 1.0), SignalFamily(n_random=30, seed=3)
    )
    H = float(storage_exact(0.375))
    # extraction can only fall short of the stored energy, up to solver noise
    assert res.value >= 0.98 * H
    assert res.value <= H + 1e-4
    assert res.n_signals == 31
    assert len(res.per_signal) == 31
    assert res.designed_value == pytest.approx(H, abs=1e-6)


def _search_bits(res):
    return (
        np.float64(res.value).tobytes(),
        np.float64(res.designed_value).tobytes(),
        res.best_index,
        res.per_signal.tobytes(),
        res.n_signals,
    )


def test_many_point_search_equals_separate_calls(dahl_r1):
    # distinct families (sizes, breakpoints, spans, seeds) give the points
    # different lane counts, so a misplaced split or a wrong per-lane start
    # output shows; (0, 0.7) lies on the curve and gets a held designed input
    points = [PhasePoint(0.375, 1.0), PhasePoint(0.0, 0.7), PhasePoint(-0.6, -0.3),
              PhasePoint(0.2, 2.0)]
    families = [
        SignalFamily(n_random=12, seed=3),
        SignalFamily(n_random=5, breakpoints=(2, 4), seed=4),
        SignalFamily(n_random=9, span=2.0, seed=5),
        SignalFamily(n_random=0, seed=6),
    ]
    many = available_storage_bruteforce_batch(dahl_r1, points, families, horizon=4.0)
    assert [r.n_signals for r in many] == [13, 6, 10, 1]
    for p, fam, res in zip(points, families, many):
        alone = available_storage_bruteforce(dahl_r1, p, fam, horizon=4.0)
        assert _search_bits(res) == _search_bits(alone)
    assert many[1].value == 0.0
    assert available_storage_bruteforce_batch(dahl_r1, [], []) == []
    with pytest.raises(ValueError, match="one signal family per phase point"):
        available_storage_bruteforce_batch(dahl_r1, points, families[:2])


def test_a_signal_that_extracts_nothing_reads_plus_zero(dahl_r1):
    # at a point on the curve no input extracts energy: per_signal, value
    # and designed_value are +0.0, where -minW made them -0.0
    res = available_storage_bruteforce(dahl_r1, PhasePoint(0.0, 0.7), SignalFamily(n_random=2))
    assert res.per_signal.tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(res.per_signal).any()
    assert not np.signbit([res.value, res.designed_value]).any()


def test_designed_ramp_is_clipped_to_the_horizon(dahl_r1):
    # from (0.2, 0.3) the designed ramp falls at unit rate to the crossing,
    # about 0.118 away; a horizon of half of it stops the ramp halfway, where
    # the extraction so far is the closed-form supply of that half
    # (the march sums y du by the trapezoid rule: on a ramp of length L at
    # substeps of at most 2e-3 its error is at most L (2e-3)^2 / 12 max|y''|,
    # with y'' = (rho / fc) y' and |y'| <= rho (1 + sigma / fc) here)
    p = PhasePoint(0.2, 0.3)
    ramp = float(p.xi - lambda_exact(p.sigma, p.xi))
    half = 0.5 * ramp
    y2 = (1.5 / 0.75) * 1.5 * (1.0 + p.sigma / 0.75)
    res = available_storage_bruteforce(dahl_r1, p, SignalFamily(n_random=3), horizon=half)
    assert res.designed_value == pytest.approx(
        -branch_integral_exact(p.xi, p.xi - half, p.sigma), abs=half * 4e-6 / 12.0 * y2
    )
    whole = available_storage_bruteforce(dahl_r1, p, SignalFamily(n_random=3))
    assert whole.designed_value == pytest.approx(
        float(storage_exact(p.sigma)), abs=ramp * 4e-6 / 12.0 * y2
    )
    tiny = available_storage_bruteforce(dahl_r1, p, SignalFamily(n_random=3), horizon=1e-9)
    assert 0.0 < tiny.designed_value < 1e-9


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"horizon": -1.0}, "horizon"),
        ({"horizon": 0.0}, "horizon"),
        ({"horizon": math.nan}, "horizon"),
        ({"step": 0.0}, "step"),
        ({"step": -1e-3}, "step"),
        ({"step": math.inf}, "step"),
        ({"step": math.nan}, "step"),
    ],
)
def test_bruteforce_rejects_a_bad_horizon_or_step_before_any_ride(dahl_r1, kwargs, name, monkeypatch):
    def no_ride(*args, **kw):
        raise AssertionError("rode before checking its arguments")

    monkeypatch.setattr(storage_module, "ride_to_crossing", no_ride)
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        available_storage_bruteforce(dahl_r1, PhasePoint(0.2, 0.3), SignalFamily(n_random=2), **kwargs)
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        available_storage_bruteforce_batch(dahl_r1, [], [], **kwargs)


def test_available_storage_requires_flat_backbone(exp_model):
    with pytest.raises(ValueError, match="anhysteresis"):
        available_storage_bruteforce(
            exp_model, PhasePoint(1.0, 0.5), SignalFamily(n_random=5)
        )


def test_available_storage_result_array_is_readonly():
    res = AvailableStorageResult(
        value=0.5,
        designed_value=0.5,
        best_index=0,
        per_signal=np.array([0.5]),
        n_signals=1,
    )
    with pytest.raises(ValueError):
        res.per_signal[0] = 1.0


EPS = np.finfo(float).eps
MARCH_STEP = 5e-3
LANE = "signal {}".format  # the lane names of `_chunk_map_search`


def _march_signals(rng, n=40):
    """Random inputs with uneven segment lengths, so the lanes switch
    segments and finish at different iterations, plus one input with a held
    (du == 0) segment."""
    sigs = [
        random_piecewise_linear(rng, u_start=0.5, span=2.0, n_breakpoints=(3, 8))
        for _ in range(n - 1)
    ]
    held = InputSignal(np.array([0.0, 0.7, 1.2, 2.0]), np.array([0.5, 1.2, 1.2, -0.1]))
    return sigs + [held]


def _simulate_substeps(sig, step):
    """The substep h behind each increment of simulate's samples of sig:
    du / ceil(|du| / step) per moving segment, 0 for a held segment."""
    hs = []
    for du in np.diff(sig.values):
        n = 1 if du == 0.0 else math.ceil(abs(du) / step)
        hs += [du / n] * n
    return np.array(hs)


@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw", "exp_model"])
def test_supply_march_lanes_are_simulate(model_name, request, rng):
    # Each lane of the march takes simulate's substeps on its own signal.
    # On dahl r = 1 the fields are pure arithmetic, so the final outputs
    # agree bit for bit.  dahl r = 3 and Bouc-Wen call numpy's power, and the
    # exp example (the one whose fields depend on u) calls exp; their array
    # and scalar versions may differ in the last bit.  Each of the four field
    # values of a substep may then be off by 2 ulp, which moves a substep by
    # at most 2 eps (|y| + |h| max|f|) after rounding.  All three models'
    # branches are non-expanding in the output (df1/dsigma <= 0 rising,
    # df2/dsigma >= 0 falling), so over N substeps the outputs differ by at
    # most N * 4 eps (max|y| + step max|f|).
    model = request.getfixturevalue(model_name)
    exact = model_name == "dahl_r1"
    sigs = _march_signals(rng)
    y0 = 0.3
    minW, y_end = _supply_running_min(model, sigs, y0, MARCH_STEP)
    for i, sig in enumerate(sigs):
        traj = simulate(model, sig, y0, MARCH_STEP)
        h = _simulate_substeps(sig, MARCH_STEP)
        du = np.diff(traj.u)
        assert du.size == h.size
        n = h.size
        Y = float(np.abs(traj.y).max())
        # Both sides sum 0.5 (y_k + y_k+1) du_k in order; the march takes
        # du_k = h, cw_supply_integral takes diff(u), which differs from h by
        # the rounding of u = ua + k h.  Over n increments the running minima
        # differ by at most n (Y |diff(u) - h| + 2 eps (Y step + max|W|)).
        supply = cw_supply_integral(traj)
        W_max = float(np.abs(supply.values).max())
        tol_W = n * (
            Y * float(np.abs(du - h).max()) + 2.0 * EPS * (Y * MARCH_STEP + W_max)
        )
        if exact:
            assert y_end[i].tobytes() == traj.y[-1].tobytes(), i
        else:
            moving = h != 0.0
            F = float(np.abs(np.diff(traj.y)[moving] / du[moving]).max())
            tol_y = n * 4.0 * EPS * (Y + MARCH_STEP * F)
            assert abs(y_end[i] - traj.y[-1]) <= tol_y, i
            # W sums y du, so an output gap tol_y moves it by at most
            # tol_y times the input's total variation
            tol_W += tol_y * float(np.abs(h).sum())
        extracted = max(0.0, -minW[i])
        assert extracted == pytest.approx(
            -min(float(supply.running_min.min()), 0.0), abs=tol_W
        ), i


@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw", "exp_model"])
def test_odd_supply_march_is_the_two_branch_march_bit_for_bit(model_name, request, rng):
    # An odd model marches every lane on f1 in its reflected frame; the
    # same model declared not odd marches on both fields.  The lanes turn
    # (random inputs), finish at different iterations and hold (the last
    # input), and start on both sides of 0.
    model = request.getfixturevalue(model_name)
    two_branch = dataclasses.replace(model, odd=False)
    assert model.odd and not two_branch.odd
    sigs = _march_signals(rng)
    y0 = np.linspace(-0.6, 0.6, len(sigs))
    minW, y_end = _supply_running_min(model, sigs, y0, MARCH_STEP)
    ref_minW, ref_y = _supply_running_min(two_branch, sigs, y0, MARCH_STEP)
    assert minW.tobytes() == ref_minW.tobytes()
    assert y_end.tobytes() == ref_y.tobytes()
    assert (minW < 0.0).sum() >= 10  # lanes that extract energy


@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw"])
def test_xi_free_supply_march_is_the_march_with_the_input_bit_for_bit(model_name, odd, request, rng):
    # (The id is kept; the march no longer has a path of its own for the
    # reduced form (0, 1), so this compares the search's two routes.)  The
    # lanes of the reduced form (0, 1) take exact chunk maps
    # (`_chunk_map_search`); the same model without the declaration is
    # marched with its input track.  Per signal the two agree within the
    # march's error.  Its output is fourth order in the step, so the march
    # at MARCH_STEP lies within 16/15 |march(h) - march(h/2)| of the limit;
    # its supply is a trapezoid sum, second order, within 4/3 of that
    # difference (both taken twice here), and its minimum is sampled at the
    # substep nodes, where W = int y du lies at most F h^2 / 8 above its
    # minimum between them, F the largest |slope| (3 for Dahl r = 1, 12
    # for r = 3, 1 for Bouc-Wen on these outputs).  The lanes turn (random
    # inputs), hold (the last input), start on both sides of 0 and have
    # different chunk counts.
    model = dataclasses.replace(request.getfixturevalue(model_name), odd=odd)
    with_input = dataclasses.replace(model, reduced_form=None)
    assert model.reduced_form == (0.0, 1.0)
    sigs = _march_signals(rng)
    y0 = np.linspace(-0.6, 0.6, len(sigs))
    minW, y_end = _chunk_map_search(model, sigs, y0, LANE)
    march = [_supply_running_min(with_input, sigs, y0, h) for h in (MARCH_STEP, 0.5 * MARCH_STEP)]
    (ref_minW, ref_y), (half_minW, half_y) = march
    F = {"dahl_r1": 3.0, "dahl_r3": 12.0, "bw": 1.0}[model_name]
    tol_W = 8.0 / 3.0 * np.abs(ref_minW - half_minW) + F * MARCH_STEP**2 / 8.0 + 64 * EPS
    tol_y = 32.0 / 15.0 * np.abs(ref_y - half_y) + 64 * EPS
    assert (np.abs(minW - ref_minW) <= tol_W).all()
    assert (np.abs(y_end - ref_y) <= tol_y).all()
    assert (minW < 0.0).sum() >= 10  # lanes that extract energy
    assert np.abs(minW - ref_minW).max() > 0.0  # two routes, not one


@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw"])
def test_odd_chunk_map_search_is_the_two_branch_search_bit_for_bit(model_name, request, rng):
    # An odd model takes f1 on every lane in its rising frame; declared not
    # odd, the falling lanes take f2 at -z, which the declaration makes
    # the bits of f1 at z
    model = request.getfixturevalue(model_name)
    sigs = _march_signals(rng)
    y0 = np.linspace(-0.6, 0.6, len(sigs))
    odd = _chunk_map_search(model, sigs, y0, LANE)
    two = _chunk_map_search(dataclasses.replace(model, odd=False), sigs, y0, LANE)
    assert [a.tobytes() for a in odd] == [b.tobytes() for b in two]


def test_chunk_rounds_cut_every_moving_segment_by_the_substep_rule():
    # chunks of at most _CHUNK = 0.5, one per round, lanes ordered by their
    # chunk count (largest first, stable), a held segment taking none
    sigs = [
        _segments(0.0, 0.25, 0.0, -1.5),       # 1 + 3 chunks of 0.25 and -0.5
        InputSignal(np.array([0.0, 1.0]), np.array([0.4, 0.4])),  # held: none
        _segments(1.0, 1.0, -0.5, 0.25),       # 2 + 1 + 1
        _segments(0.0, -0.75),                 # 2 chunks of -0.375
    ]
    order, live, chunks = _chunk_rounds(sigs)
    assert order.tolist() == [0, 2, 3, 1]
    assert live.tolist() == [3, 3, 2, 2]
    assert chunks.tolist() == [
        [0.25, 0.5, -0.375, 0.0],
        [-0.5, 0.5, -0.375, 0.0],
        [-0.5, -0.5, 0.0, 0.0],
        [-0.5, 0.25, 0.0, 0.0],
    ]
    assert storage_module._CHUNK == 0.5


def test_chunk_map_search_lanes_are_the_exact_dahl_extraction(dahl_r1, rng):
    # Dahl r = 1 in closed form (`extraction_exact`, W's minimum at the
    # breakpoints and where y crosses 0), on the search's inputs: clipped
    # to the horizon 10, at input rates <= 1, so of total variation
    # TV <= 10 and in N <= 10 / 0.5 + 9 = 29 chunks.  Each chunk's supply
    # sums 20 terms of at most Y |h| together (Y = fc), rounding by under
    # 23 eps Y |h|; each of the N additions to W rounds by at most
    # eps Y TV; and each chunk leaves its output within 4 eps Y, which the
    # non-expanding branches carry into W as at most 4 eps Y TV.  So a lane
    # is within (23 + 5 N) eps Y TV < 256 eps Y TV (measured: under 1).
    sigs = [
        storage_module._clip_to_horizon(random_piecewise_linear(rng, u_start=0.2, span=3.0), 10.0)
        for _ in range(200)
    ]
    y0 = np.linspace(-0.7, 0.7, len(sigs))
    minW, _ = _chunk_map_search(dahl_r1, sigs, y0, LANE)
    exact = np.array([extraction_exact(sig, y) for sig, y in zip(sigs, y0)])
    tv = np.array([np.abs(np.diff(sig.values)).sum() for sig in sigs])
    assert tv.max() <= 10.0 and _chunk_rounds(sigs)[2].shape[0] <= 29
    assert (np.abs(np.maximum(0.0, 0.0 - minW) - exact) <= 256 * EPS * 0.75 * tv).all()
    assert (exact > 0.0).sum() >= 80


def test_chunk_map_search_takes_w_where_the_output_crosses_zero_inside_a_chunk(dahl_r1):
    # From (0.375, 1) a ramp falls past lam, where y crosses 0 and W is
    # smallest, to lam - 0.3: one segment of two chunks, the crossing
    # inside the first.  The extraction is H itself; W at the chunk ends
    # lies about rho d^2 / 2 = 2e-3 above its minimum, d = 0.049 past lam.
    p = PhasePoint(0.375, 1.0)
    lam = float(lambda_exact(p.sigma, p.xi))
    sig = InputSignal(np.array([0.0, p.xi - lam + 0.3]), np.array([p.xi, lam - 0.3]))
    (chunk,) = set(_chunk_rounds([sig])[2][:, 0].tolist())
    assert p.xi + chunk < lam < p.xi
    minW, y_end = _chunk_map_search(dahl_r1, [sig], p.sigma, LANE)
    H = float(storage_exact(p.sigma))
    assert y_end[0] < 0.0
    assert -minW[0] == pytest.approx(H, abs=256 * EPS * 0.75 * abs(sig.values[1] - sig.values[0]))


def _convergence_points(model_name):
    band = {"dahl_r1": 0.7, "dahl_r3": 0.7, "bw": 1.2}[model_name]
    rng = np.random.default_rng(34)
    points = [PhasePoint(band * (2 * rng.random() - 1), 2 * (2 * rng.random() - 1)) for _ in range(4)]
    return points, [SignalFamily(n_random=100, seed=k) for k in range(4)]


@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw"])
def test_chunk_map_search_at_half_the_chunk_and_twice_the_passes_moves_no_value(model_name, request, monkeypatch):
    # The convergence test behind _CHUNK and _CHUNK_PASSES: the result at
    # (D, n) against the one at (D/2, 2n), per signal, within the sum of
    # both runs' rounding bounds (23 + 5 N) eps Y TV of
    # `test_chunk_map_search_lanes_are_the_exact_dahl_extraction`, N <= 29
    # and 49 chunks at horizon 10, under 512 eps Y TV; Y bounds |y|
    model = request.getfixturevalue(model_name)
    points, families = _convergence_points(model_name)
    runs = []
    for chunk, passes in ((storage_module._CHUNK, storage_module._CHUNK_PASSES),
                          (0.5 * storage_module._CHUNK, 2 * storage_module._CHUNK_PASSES)):
        monkeypatch.setattr(storage_module, "_CHUNK", chunk)
        monkeypatch.setattr(storage_module, "_CHUNK_PASSES", passes)
        res = available_storage_bruteforce_batch(model, points, families)
        runs.append(np.concatenate([r.per_signal for r in res]))
    Y = 0.75 if model_name != "bw" else 1.3
    assert np.abs(runs[0] - runs[1]).max() <= 512 * EPS * Y * 10.0
    assert (runs[0] > 0.0).sum() >= 200


@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw"])
def test_chunk_map_search_and_its_designed_ramp_are_h_to_rounding(model_name, request):
    # H in closed form; the search value cannot pass H (H is the available
    # storage of these models) and the designed ramp takes all of it, each
    # within the rounding bound of the exact Dahl test (horizon 10); the
    # ramp's end misses y = 0 by the quadrature's rounding, where W is
    # stationary, so it moves W by its square
    model = request.getfixturevalue(model_name)
    points, families = _convergence_points(model_name)
    Y = 0.75 if model_name != "bw" else 1.3
    for p, res in zip(points, available_storage_bruteforce_batch(model, points, families)):
        H = float(boucwen_storage_exact(p.sigma) if model_name == "bw"
                  else dahl_storage_exact(p.sigma, r=model.params["r"]))
        bound = 256 * EPS * Y * 10.0
        assert res.value <= H + bound
        assert abs(res.designed_value - H) <= bound


def test_the_declared_search_neither_rides_nor_marches(dahl_r1, monkeypatch):
    def no(*args, **kw):
        raise AssertionError("a declared model rode or marched")

    res = available_storage_bruteforce(dahl_r1, PhasePoint(0.375, 1.0), SignalFamily(n_random=30, seed=3))
    monkeypatch.setattr(storage_module, "ride_to_crossing", no)
    monkeypatch.setattr(storage_module, "_supply_running_min", no)
    again = available_storage_bruteforce(dahl_r1, PhasePoint(0.375, 1.0), SignalFamily(n_random=30, seed=3))
    assert _search_bits(again) == _search_bits(res)
    with pytest.raises(AssertionError, match="rode or marched"):
        available_storage_bruteforce(
            dataclasses.replace(dahl_r1, reduced_form=None), PhasePoint(0.375, 1.0), SignalFamily(n_random=3)
        )


def test_the_chunk_map_search_rejects_a_point_whose_branch_never_reaches_the_curve():
    # f2 = 1 - sigma turns negative at sigma = 1: from sigma = 2 the
    # falling branch moves away from the curve sigma = 0
    model = DuhemModel(
        "runs away above 1",
        lambda s, x: 1.0 + s + 0.0 * x,
        lambda s, x: 1.0 - s + 0.0 * x,
        f_an=lambda xi: 0.0 * xi,
        reduced_form=(0, 1),
    )
    with pytest.raises(
        CrossingSearchError,
        match=r"^1 phase point\(s\) whose branch slope is not finite and positive on the way to the "
        r"anhysteresis curve \(first at sigma=2, xi=0.5\)$",
    ):
        available_storage_bruteforce_batch(
            model, [PhasePoint(0.5, 0.0), PhasePoint(2.0, 0.5)], [SignalFamily(n_random=2)] * 2
        )


def test_supply_march_domain_exit_names_the_lane_and_its_sample():
    # y follows u one to one inside the band |y| < 1; signal 2 leaves it in
    # its last segment, long after the short signals 0 and 1 have finished
    # and left the march, so it is named by its lane, not its column.
    model = DuhemModel(
        name="unit-slope band",
        f1=lambda s, x: 1.0 + 0.0 * s,
        f2=lambda s, x: 1.0 + 0.0 * s,
        domain=Domain(-1.0, 1.0),
        f_an=lambda xi: 0.0 * xi,
    )
    sigs = [
        InputSignal(np.array([0.0, 0.2]), np.array([0.0, 0.2])),
        InputSignal(np.array([0.0, 0.3]), np.array([0.0, -0.3])),
        InputSignal(np.array([0.0, 1.0, 2.0, 6.0]), np.array([0.0, 0.5, 0.1, 1.5])),
        InputSignal(np.array([0.0, 2.0, 5.0]), np.array([0.0, 0.9, -0.9])),
    ]
    step = 0.01
    with pytest.raises(DomainExitError) as lone:
        simulate(model, sigs[2], 0.0, step)
    with pytest.raises(DomainExitError, match="signal 2 drove the output") as err:
        _supply_running_min(model, sigs, 0.0, step)
    exc = err.value
    assert (exc.t, exc.u, exc.y) == (lone.value.t, lone.value.u, lone.value.y)
    assert 2.0 < exc.t < 6.0
    assert exc.y >= 1.0
    # the other signals stay inside the band
    for other in (0, 1, 3):
        simulate(model, sigs[other], 0.0, step)

    # Across points, the many-point search names the point and the signal
    # index within it.  Point 0 (span 0.2 around y = 0) never leaves the
    # band; at point 1 (y = 0.5, span 3) the random inputs do.
    points = [PhasePoint(0.0, 0.3), PhasePoint(0.5, -0.2)]
    families = [SignalFamily(n_random=4, span=0.2, seed=1),
                SignalFamily(n_random=4, span=3.0, seed=2)]
    with pytest.raises(DomainExitError, match=r"point 1 \(sigma=0.5, xi=-0.2\) signal \d+ drove") as err:
        available_storage_bruteforce_batch(model, points, families, horizon=6.0, step=step)
    exc = err.value
    j = int(str(exc).split(" signal ")[1].split()[0])
    assert j >= 1  # the designed ramp to the curve stays inside
    # the random inputs do not depend on the crossing, here at xi - y = -0.7
    sig = _search_signals(points[1], families[1], -0.7, 6.0)[j]
    with pytest.raises(DomainExitError) as lone:
        simulate(model, sig, 0.5, step)
    assert (exc.t, exc.u, exc.y) == (lone.value.t, lone.value.u, lone.value.y)


def test_a_whole_plane_search_that_turns_nan_exits_where_simulate_does(bw):
    # Bouc-Wen from (50, 0), undeclared so that the search marches, blows
    # up on 5 of the 21 search signals, where simulate raises; the search
    # raises at simulate's sample of the first exit in time instead of
    # returning NaN.
    bw = dataclasses.replace(bw, reduced_form=None)
    p, family = PhasePoint(50.0, 0.0), SignalFamily(n_random=20, seed=1)
    with pytest.raises(DomainExitError, match=r"^point 0 \(sigma=50, xi=0\) signal 2 drove") as err:
        with np.errstate(over="ignore", invalid="ignore"):
            available_storage_bruteforce(bw, p, family)
    # the random inputs do not depend on the crossing
    sig = _search_signals(p, family, 0.0, 10.0)[2]
    with pytest.raises(DomainExitError) as lone:
        simulate(bw, sig, 50.0, 2e-3)
    exc = err.value
    assert (exc.t, exc.u) == (lone.value.t, lone.value.u)
    assert math.isnan(exc.y) and math.isnan(lone.value.y)


def test_a_stiff_whole_plane_chunk_map_search_raises_and_never_returns_nan(bw):
    # Declared Bouc-Wen from (50, 0): on a rising chunk f1 = 1 - 2 y^3
    # pulls y from 50 toward 2^(-1/3), |h f1'| = 7,500 at the start, where
    # the RK4 predictor is of no use; the first such lane in the first
    # round has no settled chunk map after its passes, and the search
    # raises at that chunk's end, naming the point and the signal.  The
    # falling designed ramp (f2 = 1 above 0) settles.
    p, family = PhasePoint(50.0, 0.0), SignalFamily(n_random=20, seed=1)
    sigs = _search_signals(p, family, -50.0, 10.0)
    first = min(j for j, sig in enumerate(sigs) if sig.values[1] > sig.values[0])
    with pytest.raises(
        DomainExitError,
        match=rf"^point 0 \(sigma=50, xi=0\) signal {first} has no settled chunk map",
    ) as err:
        with np.errstate(all="ignore"):
            available_storage_bruteforce(bw, p, family)
    exc = err.value
    assert (exc.t, exc.u) == storage_module._chunk_end(sigs[first], 0)
    assert 0.5 ** (1.0 / 3.0) < exc.y < 50.0
    designed = available_storage_bruteforce(bw, p, SignalFamily(n_random=0))
    # the ramp is clipped at the horizon 10, from y = 50 to 40 on
    # f2 = 1 - y^3 + y y^2, which is 1 up to the rounding of y^3 < 1.3e5
    # (2^-36), so W moves by at most 2^-36 of itself
    assert designed.value == pytest.approx(0.5 * (50.0**2 - 40.0**2), rel=2.0**-36)


def test_a_lane_that_reaches_a_zero_of_its_rate_rests_there(bw):
    # Bouc-Wen (f1 = 1 below 0 and 1 - 2 y^3 above, f2 its mirror) moving
    # 12 input units one way reaches +-2^(-1/3), where its rate vanishes,
    # to the last rounding unit (the distance falls as exp(-3.78 u)); there
    # f is rounding noise of either sign and no chunk map settles, so the
    # chunks rest.  Closed forms: y ends on the fixed points; W never falls
    # below 0 on the first two inputs, and on the third it falls by
    # 0.3^2 / 2 = H(0.3) while y runs down to 0 on f2 = 1, then rises.
    # The rounding bound is that of the exact Dahl test, Y = 0.8, TV = 24.
    y_star = 0.5 ** (1.0 / 3.0)
    sigs = [_segments(0.0, 12.0), _segments(0.0, 12.0, -12.0), _segments(0.0, -12.0, 12.0)]
    minW, y_end = _chunk_map_search(bw, sigs, 0.3, LANE)
    assert y_end == pytest.approx([y_star, -y_star, y_star], abs=64 * EPS)
    assert minW == pytest.approx([0.0, 0.0, -0.045], abs=256 * EPS * 0.8 * 24.0)
    # a family of span 10 over a horizon of 40, whose rising and falling
    # stretches reach the fixed points too, extracts H(0.3) and no more
    res = available_storage_bruteforce(bw, PhasePoint(0.3, 0.0), SignalFamily(n_random=50, span=10.0), horizon=40.0)
    assert res.value == pytest.approx(0.045, abs=256 * EPS * 1.0 * 40.0)
    assert res.designed_value == pytest.approx(0.045, abs=256 * EPS * 1.0 * 40.0)


@pytest.mark.parametrize("odd", [True, False])
def test_the_chunk_map_search_names_the_point_and_signal_that_leave_the_band(odd):
    # The unit-slope band declared of the reduced form (0, 1): y follows u
    # one to one, the maps are exact, and a lane that rises or falls by
    # more than 1 - |y0| leaves |y| < 1.  Point 0 (span 0.2 around y = 0)
    # stays inside; at point 1 (y = 0.5, span 3) a random input leaves,
    # and the search raises at the end of the chunk that crosses the edge.
    model = _unit_slope_band(odd, no_input=True)
    points = [PhasePoint(0.0, 0.3), PhasePoint(0.5, -0.2)]
    families = [SignalFamily(n_random=4, span=0.2, seed=1), SignalFamily(n_random=4, span=3.0, seed=2)]
    with pytest.raises(DomainExitError, match=r"^point 1 \(sigma=0.5, xi=-0.2\) signal \d+ drove") as err:
        available_storage_bruteforce_batch(model, points, families, horizon=6.0)
    exc = err.value
    j = int(str(exc).split(" signal ")[1].split()[0])
    assert j >= 1  # the designed ramp to the curve stays inside
    sig = _search_signals(points[1], families[1], -0.7, 6.0)[j]
    chunks = _chunk_rounds([sig])[2][:, 0]
    k = int(np.argmax(np.abs(0.5 + np.cumsum(chunks)) >= 1.0))
    assert (exc.t, exc.u) == storage_module._chunk_end(sig, k)
    assert abs(exc.y) >= 1.0 and exc.y == pytest.approx(0.5 + chunks[: k + 1].sum(), abs=1e-15)
    available_storage_bruteforce_batch(model, points[:1], families[:1], horizon=6.0)


def _supply_march_at_block_sizes(monkeypatch, model, sigs, y0, step, blocks):
    """minW and final output bytes of the supply march at each block size."""
    out = []
    for block in blocks:
        monkeypatch.setattr(storage_module, "_SUPPLY_BLOCK", block)
        minW, y_end = _supply_running_min(model, sigs, y0, step)
        out.append((minW.tobytes(), y_end.tobytes()))
    return out


@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("model_name", ["dahl_r1", "dahl_r3", "bw", "exp_model"])
def test_supply_march_does_not_depend_on_the_block_size(model_name, odd, request, rng, monkeypatch):
    # Block size 1 is the march of one substep at a time; 10**6 is one
    # block larger than the iteration count (about 1,300 here).
    model = dataclasses.replace(request.getfixturevalue(model_name), odd=odd)
    sigs = _march_signals(rng, n=16)
    y0 = np.linspace(-0.6, 0.6, len(sigs))
    runs = _supply_march_at_block_sizes(
        monkeypatch, model, sigs, y0, 2.0 * MARCH_STEP, (1, 7, storage_module._SUPPLY_BLOCK, 10**6)
    )
    assert all(run == runs[0] for run in runs[1:])


def _segments(u0, *moves):
    """Signal from u0 through the cumulative moves at unit input rate
    (a move of 0 holds the input for one time unit)."""
    values = u0 + np.concatenate([[0.0], np.cumsum(moves)])
    times = np.concatenate([[0.0], np.cumsum(np.where(np.array(moves) == 0.0, 1.0, np.abs(moves)))])
    return InputSignal(times, values)


@pytest.mark.parametrize("odd", [True, False])
def test_supply_march_switches_on_block_boundaries(dahl_r1, odd, monkeypatch):
    # At step 1/8 a move of 7/8 takes 7 substeps and one of 8 takes 64, so
    # these lanes switch segment (and turn) on the first substep of blocks
    # of 7 and of 64, and finish there; one lane switches on every substep.
    model = dataclasses.replace(dahl_r1, odd=odd)
    step = 0.125
    sigs = [
        _segments(0.0, *[0.875, -0.875] * 10),        # switches at 7, 14, ..., 140
        _segments(0.2, 8.0, -8.0, 8.0),               # at 64 and 128, done at 192
        _segments(-0.1, *[0.125, -0.125] * 70),       # at every substep to 140
        _segments(0.0, -8.0, 0.0, 7.125, 0.875),      # holds, turns at 64, done at 128
        _segments(0.5, 7.875, -0.125, 0.125),         # at 63, 64 and 65
        _segments(0.0, -0.875 * 9),                   # done at 63
    ]
    y0 = np.array([0.0, -0.7, 0.3, 0.6, -0.2, 0.1])
    runs = _supply_march_at_block_sizes(monkeypatch, model, sigs, y0, step, (1, 7, 64, 10**6))
    assert all(run == runs[0] for run in runs[1:])
    # dahl r = 1 is pure arithmetic: each lane ends on simulate's output
    _, y_end = _supply_running_min(model, sigs, y0, step)
    for i, sig in enumerate(sigs):
        assert y_end[i] == simulate(model, sig, y0[i], step).y[-1], i


@pytest.mark.parametrize("odd", [True, False])
def test_supply_march_evaluates_a_lane_only_to_the_end_of_its_last_block(dahl_r1, odd, monkeypatch):
    # At step 1/8 the lanes end at iterations 0 (a held designed ramp: p on
    # the curve), 64 (on a block boundary), 100 (inside a block) and 200
    # (last).  A lane takes substeps until the end of the block in which
    # its end iteration lies, and none after the last iteration: at block
    # size B it takes min(200, (end // B + 1) B) substeps of four f1 calls.
    # (Lanes that kept marching with h = 0 to the end took 200 each.)
    step = 0.125
    sigs = [
        InputSignal(np.array([0.0, 1.0]), np.array([0.3, 0.3])),
        _segments(0.0, 4.0, -4.0),
        _segments(0.2, -6.0, 6.5),
        _segments(-0.1, 10.0, -15.0),
    ]
    ends = np.array([0, 64, 100, 200])
    y0 = np.array([0.25, -0.4, 0.3, 0.1])
    sizes = []

    def f1(s, x, f=dahl_r1.f1):
        sizes.append(np.size(s))
        return f(s, x)

    model = dataclasses.replace(dahl_r1, f1=f1, odd=odd)
    runs = []
    for block in (1, 7, 64, 10**6):
        monkeypatch.setattr(storage_module, "_SUPPLY_BLOCK", block)
        sizes.clear()
        minW, y_end = _supply_running_min(model, sigs, y0, step)
        runs.append((minW.tobytes(), y_end.tobytes()))
        assert sum(sizes) == 4 * np.minimum(200, (ends // block + 1) * block).sum(), block
    assert sum(sizes) == 4 * 4 * 200
    assert all(run == runs[0] for run in runs[1:])
    assert runs == _supply_march_at_block_sizes(
        monkeypatch, dahl_r1, sigs, y0, step, (1, 7, 64, 10**6)
    )
    # the held lane keeps its output and extracts nothing
    assert (minW[0], y_end[0]) == (0.0, 0.25)
    for i, sig in enumerate(sigs):
        assert y_end[i] == simulate(dahl_r1, sig, y0[i], step).y[-1], i


def _unit_slope_band(odd: bool, no_input: bool) -> DuhemModel:
    return DuhemModel(
        name="unit-slope band",
        f1=lambda s, x: 1.0 + 0.0 * s,
        f2=lambda s, x: 1.0 + 0.0 * s,
        domain=Domain(-1.0, 1.0),
        f_an=lambda xi: 0.0 * xi,
        odd=odd,
        reduced_form=(0, 1) if no_input else None,
    )


def _exit_at(k: int, direction: float) -> InputSignal:
    """A lane of the unit-slope band from y = 0 that zigzags in single
    substeps of 3/8 (exact in RK4 at step 3/8) and leaves the band on
    iteration k (k even): the last segment's third substep reaches 9/8."""
    assert k % 2 == 0
    return _segments(0.0, *direction * np.array([0.375, -0.375] * ((k - 2) // 2) + [1.5]))


@pytest.mark.parametrize("no_input", [False, True])
@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("direction", [1.0, -1.0])
@pytest.mark.parametrize(
    "k_exit",
    [
        166,  # row 38 of the third block of 64
        202,  # row 10 of the final partial block (iterations 192-211)
    ],
)
def test_supply_march_exit_in_a_later_block_is_simulates_exit(k_exit, direction, odd, no_input, monkeypatch):
    # Lane 2 leaves the band on iteration k_exit.  Lane 0 leaves it four
    # iterations later in the same block: the march reports the first exit
    # in time, not the first lane, and discards the substeps after it.
    # Lane 1 zigzags inside the band for 212 iterations.  Declared of the
    # reduced form (0, 1), the band marches with no input track, to the
    # same exit.
    model = _unit_slope_band(odd, no_input)
    step = 0.375
    sigs = [
        _exit_at(k_exit + 4, direction),
        _segments(0.0, *[0.375, -0.375] * 106),
        _exit_at(k_exit, direction),
        _segments(0.0, 0.75),
    ]
    with pytest.raises(DomainExitError) as lone:
        simulate(model, sigs[2], 0.0, step)
    assert lone.value.y == direction * 1.125
    assert lone.value.t == 0.375 * (k_exit + 1)  # unit rate: 3/8 per substep
    with pytest.raises(DomainExitError):
        simulate(model, sigs[0], 0.0, step)
    simulate(model, sigs[1], 0.0, step)

    for block in (1, 7, storage_module._SUPPLY_BLOCK):
        monkeypatch.setattr(storage_module, "_SUPPLY_BLOCK", block)
        with pytest.raises(DomainExitError, match="signal 2 drove the output") as err:
            _supply_running_min(model, sigs, 0.0, step)
        exc = err.value
        assert (exc.t, exc.u, exc.y) == (lone.value.t, lone.value.u, lone.value.y), block


@pytest.mark.parametrize(
    "model",
    [dahl(rho=1.5, fc=0.75, r=3.0), boucwen(), exp_example()],
    ids=["dahl fig1", "boucwen fig2", "exp_example"],
)
def test_readme_ride_storage_stays_within_4_ulps_of_the_60_halving_storage(model):
    # the 25,520 battery samples of each README `duhem verify` command
    # (seed 0, 25 signals, step 5e-3); the storage from the crossings of 60
    # halvings is the oracle ride's.  H is the curve's integral minus the
    # branch's up to lam, whose first-order changes in lam cancel at the
    # crossing, so H moves by rounding alone: within 4 ulps of the ride's
    # largest |H| (measured: at most 1)
    rng = np.random.default_rng(0)
    battery = [
        random_piecewise_linear(rng, u_start=0.0, span=2.0, n_breakpoints=(3, 8))
        for _ in range(25)
    ]
    trajs = [simulate(model, sig, 0.0, step=5e-3) for sig in battery]
    sigma = np.concatenate([t.y for t in trajs])
    xi = np.concatenate([t.u for t in trajs])
    assert sigma.size == 25_520
    H = storage_cw_batch(model, sigma, xi, step=5e-3).value
    lam, _, integral, _ = ride_two_marches(model, sigma, xi, 5e-3, refine=bisect_halvings)
    H60 = _anhysteresis_integrals(model, lam) - integral
    assert np.abs(H - H60).max() <= 4.0 * np.spacing(np.abs(H60).max())


def test_the_bruteforce_search_rejects_a_point_outside_the_band():
    # Dahl's band is |sigma| < fc = 0.75; the ride's set-up names the point
    with pytest.raises(
        ValueError, match=r"^1 phase point\(s\) outside the model domain \(first at sigma=0.8, xi=0\)$"
    ):
        available_storage_bruteforce(dahl(), PhasePoint(0.8, 0.0))


def test_the_bruteforce_guard_probes_every_point_at_once_and_names_the_first_that_fails(monkeypatch):
    # f_an is zero up to xi = 5: the search range [-3, 3] of point 0 sees
    # none of it, that of point 1, [0, 7], does; the guard probed point by
    # point and named no point
    fan = lambda x: np.maximum(0.0, np.asarray(x) - 5.0)
    model = DuhemModel(
        "flat up to 5",
        lambda s, x: 1.0 - (s - fan(x)),
        lambda s, x: 1.0 + (s - fan(x)),
        f_an=fan,
    )
    calls = []
    values = storage_module.anhysteresis_values
    monkeypatch.setattr(
        storage_module, "anhysteresis_values",
        lambda m, x: calls.append(np.shape(x)) or values(m, x),
    )
    points = [PhasePoint(0.1, 0.0), PhasePoint(0.2, 4.0)]
    families = [SignalFamily(n_random=2, span=3.0)] * 2
    with pytest.raises(
        ValueError,
        match=r"^1 phase point\(s\) whose search range sees a nonzero anhysteresis curve, where "
        r"the brute-force search needs an identically zero one \(first at sigma=0.2, xi=4\)$",
    ):
        available_storage_bruteforce_batch(model, points, families)
    assert calls == [(66,)]
    # a point that also lies outside the band gets the probe's error first
    band = dataclasses.replace(model, domain=Domain(-1.0, 1.0))
    with pytest.raises(ValueError, match=r"zero one \(first at sigma=2, xi=4\)$"):
        available_storage_bruteforce_batch(band, [PhasePoint(2.0, 4.0)], families[:1])
