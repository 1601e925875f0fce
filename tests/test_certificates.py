"""The grid certificates and their worst points.

Each certificate reports the first largest entry of one violation array,
with a NaN counted as the largest (`report.worst_point`).  The tests here
tie the one-array certificates to the per-xi and per-branch scans they
replaced (oracles.py) on every worst value, location and branch, show that
a NaN anywhere on the grid fails a certificate, and break each condition on
one side of the anhysteresis curve only, with models that are not odd, so
that a certificate that checks one side alone is caught.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duhem import boucwen, dahl, exp_example
from duhem.cli import PRESETS, _battery_geometry
from duhem.core import DuhemModel, check_existence_conditions
from duhem.curves import anhysteresis_values, check_lemma1
from duhem.dissipativity import check_assumption_A
from duhem.integrate import BracketError

from oracles import existence_per_xi_scan, lemma1_per_branch_scan


def _one_sided(name, f1, f2):
    """A model that is not odd, on the whole plane, with f_an = 0."""
    return DuhemModel(name=name, f1=f1, f2=f2, f_an=lambda xi: 0.0 * xi)


# f1 = 1 - s, f2 = 1 + 3 s: F = -2 s has the clockwise sign structure and
# the existence bounds hold with lambda = 3, but the f2 margin below the
# curve falls to 0.1 at s = -0.3 while the f1 margin above it stays 0.7
STEEP_BELOW = _one_sided("steep below", lambda s, x: 1.0 - s, lambda s, x: 1.0 + 3.0 * s)
# F = -|s|: the right sign above the curve and the wrong one below it
WRONG_BELOW = _one_sided(
    "wrong below", lambda s, x: 1.0 - np.abs(s), lambda s, x: 1.0 + np.abs(s)
)
# q1 = -1 meets q1 <= 1, q2 = -5 breaks q2 >= -1
FALLING_F2 = _one_sided("falling f2", lambda s, x: -s + 0.0 * x, lambda s, x: -5.0 * s + 0.0 * x)

BUILT_IN = {
    "dahl": dahl(),
    "dahl fig1": dahl(**PRESETS["fig1"]["params"]),
    "boucwen": boucwen(),
    "boucwen fig2": boucwen(**PRESETS["fig2"]["params"]),
    "exp_example": exp_example(),
}


def _existence_report(model, sig, xiv, lam):
    rep = check_existence_conditions(model, (sig, xiv), lam)
    return rep.worst_violation, rep.worst_location, rep.details["worst_branch"]


def _lemma1_report(model, region, epsilon):
    rep = check_lemma1(model, region, epsilon)
    return (
        rep.worst_violation,
        rep.details["worst_margin"],
        rep.worst_location,
        rep.details["worst_branch"],
        rep.samples_checked,
    )


@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_certificates_of_the_verify_regions_are_the_old_scans_bit_for_bit(name):
    # the grids and bounds of `duhem verify`, and a bound that fails
    model = BUILT_IN[name]
    region, epsilon, lam = _battery_geometry(model)
    (s_lo, s_hi), (x_lo, x_hi) = region
    sig, xiv = np.linspace(s_lo, s_hi, 60), np.linspace(x_lo, x_hi, 9)
    for bound in (lam, 0.0):
        assert _existence_report(model, sig, xiv, bound) == existence_per_xi_scan(
            model, sig, xiv, bound
        )
    for eps in (epsilon, 10.0):
        assert _lemma1_report(model, region, eps) == lemma1_per_branch_scan(model, region, eps)


def _mirrored(half):
    """A grid that holds -x exactly for each of its entries x."""
    return np.concatenate((-half[::-1], half))


@pytest.mark.parametrize("name", ["dahl", "exp_example"])
def test_branch_ties_of_an_odd_model_go_to_the_first_xi_then_the_increasing_branch(name):
    # on a grid mirrored about 0 an odd model's decreasing-branch excess at
    # (s1, s2, xi) is its increasing-branch excess at (-s1, -s2, -xi), bit
    # for bit; the worst point is then the one at the first xi, and at one
    # xi the increasing branch's
    model = BUILT_IN[name]
    sig = _mirrored(np.linspace(0.05, 0.7, 15))
    for xiv in (np.array([0.0]), _mirrored(np.array([0.5, 2.0]))):
        S, X = np.meshgrid(sig, xiv)
        ds = sig[:, None] - sig[None, :]
        off = ~np.eye(sig.size, dtype=bool)
        excess = []
        for f, sign in ((model.f1, 1.0), (model.f2, -1.0)):
            v = f(S, X)
            with np.errstate(invalid="ignore"):
                e = sign * (v[:, :, None] - v[:, None, :]) / ds
            excess.append(np.where(off, e, -math.inf))
        assert excess[0].max() == excess[1].max()
        rep = check_existence_conditions(model, (sig, xiv), 0.0)
        assert rep.worst_violation == excess[0].max()
        first_xi = min(
            xiv[np.unravel_index(np.argmax(e), e.shape)[0]] for e in excess
        )
        assert rep.worst_location[2] == first_xi
        if xiv.size == 1:
            assert rep.details["worst_branch"] == "increasing-branch"
    # the f1 margin at the top of the band equals the f2 margin at its
    # bottom on every xi line of a model that does not depend on xi
    tight = check_lemma1(BUILT_IN["dahl"], ((-0.7, 0.7), (-2.0, 2.0)), 10.0)
    assert tight.details["worst_branch"] == "increasing"
    assert tight.worst_location == (0.7, -2.0)


_REGION_MODELS = [BUILT_IN["dahl"], BUILT_IN["dahl fig1"], BUILT_IN["boucwen"],
                  BUILT_IN["exp_example"], STEEP_BELOW, WRONG_BELOW, FALLING_F2]


def _half_width(model):
    hi = model.domain.sigma_max
    return 0.999 * hi if math.isfinite(hi) else 3.0


@given(
    model=st.sampled_from(_REGION_MODELS),
    sigma=st.tuples(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95)),
    xi=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    symmetric=st.booleans(),
    n_sig=st.integers(2, 30),
    n_xi=st.integers(1, 9),
    lam=st.floats(0.0, 20.0),
    epsilon=st.floats(1e-3, 2.0),
)
@settings(max_examples=60, deadline=None)
# a sigma grid with a repeated value, linspace(0, 5e-324, 3) = [0, 0, 5e-324]:
# every pair of equal sigmas is masked, not only the diagonal, which left
# 0 / 0 = NaN in the report
@example(
    model=BUILT_IN["dahl"], sigma=(0.0, 5e-324), xi=(0.0, 1.0), symmetric=False,
    n_sig=3, n_xi=1, lam=0.0, epsilon=1e-3,
)
def test_certificates_of_random_regions_are_the_old_scans_bit_for_bit(
    model, sigma, xi, symmetric, n_sig, n_xi, lam, epsilon
):
    w = _half_width(model)
    (s_lo, s_hi), (x_lo, x_hi) = sorted(sigma), sorted(xi)
    if symmetric:
        # odd models tie their branches on regions symmetric about 0, and
        # on grids mirrored about 0 bit for bit
        s_lo, x_lo = -s_hi, -x_hi
    if not (s_lo < s_hi and x_lo < x_hi):
        return
    region = ((w * s_lo, w * s_hi), (x_lo, x_hi))
    sig, xiv = np.linspace(*region[0], n_sig), np.linspace(*region[1], n_xi)
    if symmetric:
        sig, xiv = _mirrored(sig[sig > 0.0]), _mirrored(xiv[xiv > 0.0])
        if sig.size < 2 or xiv.size < 1:
            return
    assert _existence_report(model, sig, xiv, lam) == existence_per_xi_scan(model, sig, xiv, lam)
    assert _lemma1_report(model, region, epsilon) == lemma1_per_branch_scan(
        model, region, epsilon
    )


# -- one condition broken on one side of the curve only ---------------------


def test_sign_structure_broken_below_the_curve_only_fails():
    rep = check_assumption_A(WRONG_BELOW, ((-0.9, 0.9), (-1.0, 1.0)))
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.9, abs=1e-12)
    assert rep.details["side"] == "below"
    assert rep.worst_location[0] == -0.9


def test_transversality_margin_broken_below_the_curve_only_fails():
    rep = check_lemma1(STEEP_BELOW, ((-0.3, 0.3), (-1.0, 1.0)), 0.5)
    assert not rep.passed
    assert rep.details["worst_branch"] == "decreasing"
    assert rep.details["worst_margin"] == pytest.approx(0.1, abs=1e-12)
    assert rep.worst_location[0] == -0.3
    # the same margin above the curve alone passes
    assert check_lemma1(STEEP_BELOW, ((1e-3, 0.3), (-1.0, 1.0)), 0.5).passed


def test_existence_bound_broken_by_the_decreasing_branch_only_fails():
    grid = (np.linspace(-0.9, 0.9, 20), np.array([-1.0, 0.0, 1.0]))
    rep = check_existence_conditions(FALLING_F2, grid, 1.0)
    assert not rep.passed
    assert rep.details["worst_branch"] == "decreasing-branch"
    assert rep.worst_violation == pytest.approx(4.0, abs=1e-9)
    assert check_existence_conditions(FALLING_F2, grid, 5.5).passed


# -- a NaN on the grid fails the certificate ----------------------------------


def _nan_where(f, cut=2.0):
    return lambda s, x: np.where(np.asarray(s) > cut, np.nan, f(s, x))


EXP = BUILT_IN["exp_example"]
NAN_FIELDS = DuhemModel(
    "nan fields", _nan_where(EXP.f1), _nan_where(EXP.f2), domain=EXP.domain, f_an=EXP.f_an
)
# f_an is NaN for xi > 1: 67 of the 200 xi lines of [-3, 3]
NAN_F_AN = DuhemModel(
    "nan f_an", EXP.f1, EXP.f2, domain=EXP.domain,
    f_an=lambda x: np.where(np.asarray(x) > 1.0, np.nan, np.asarray(x) / 1.2),
)
SQUARE = ((-3.0, 3.0), (-3.0, 3.0))


def test_nan_fields_on_part_of_the_grid_fail_the_transversality_margin():
    # both branches meet a NaN, so the per-branch scan kept no worst point
    # and passed with worst = -inf
    rep = check_lemma1(NAN_FIELDS, SQUARE, 1e-3)
    assert not rep.passed
    assert math.isnan(rep.worst_violation)
    assert rep.worst_location[0] > 2.0
    assert lemma1_per_branch_scan(NAN_FIELDS, SQUARE, 1e-3)[0] == -math.inf


def test_nan_fields_on_part_of_the_grid_fail_the_existence_bounds():
    grid = (np.linspace(-3.0, 3.0, 60), np.linspace(-3.0, 3.0, 9))
    rep = check_existence_conditions(NAN_FIELDS, grid, 100.0)
    assert not rep.passed
    assert math.isnan(rep.worst_violation)
    assert existence_per_xi_scan(NAN_FIELDS, *grid, 100.0)[0] == -math.inf


def test_a_nan_anhysteresis_value_fails_both_sign_certificates():
    rep = check_lemma1(NAN_F_AN, SQUARE, 1e-3)
    assert not rep.passed
    assert math.isnan(rep.worst_violation)
    assert rep.worst_location[1] > 1.0
    # every node is judged: the 26,600 above or below the curve and the
    # 13,400 on the 67 xi lines where f_an is NaN
    assert rep.samples_checked == 40_000
    assert lemma1_per_branch_scan(NAN_F_AN, SQUARE, 1e-3)[0] < 0.0
    sign = check_assumption_A(NAN_F_AN, SQUARE)
    assert not sign.passed and math.isnan(sign.worst_violation)
    assert sign.worst_location[1] > 1.0


# exp_example's fields, NaN for xi > 1, with no f_an: the solver finds no
# root of F on those xi lines
NAN_FIELDS_SOLVER = DuhemModel(
    "nan fields solver",
    *(lambda s, x, f=f: np.where(np.asarray(x) > 1.0, np.nan, f(s, x)) for f in (EXP.f1, EXP.f2)),
    domain=EXP.domain,
)


def test_a_nan_solved_anhysteresis_value_fails_both_sign_certificates():
    # the solver used to double its bracket 61 times on those lines and
    # raise BracketError; it now marks them NaN, as a NaN declared f_an
    xiv = np.linspace(-3.0, 3.0, 200)
    fan = anhysteresis_values(NAN_FIELDS_SOLVER, xiv)
    assert np.isnan(fan[xiv > 1.0]).all()
    assert np.abs(fan[xiv <= 1.0] - xiv[xiv <= 1.0] / 1.2).max() <= 1e-12
    rep = check_lemma1(NAN_FIELDS_SOLVER, SQUARE, 1e-3)
    assert not rep.passed
    assert math.isnan(rep.worst_violation)
    assert rep.worst_location[1] > 1.0
    assert rep.samples_checked == 40_000
    sign = check_assumption_A(NAN_FIELDS_SOLVER, SQUARE)
    assert not sign.passed and math.isnan(sign.worst_violation)
    assert sign.worst_location[1] > 1.0


# exp_example's fields, NaN for sigma > 2, with no f_an: F(0, xi) is finite
# on every line, and the root xi / 1.2 lies in the finite part for xi < 2.4
NAN_ABOVE_2_SOLVER = DuhemModel(
    "nan above 2 solver",
    *(lambda s, x, f=f: np.where(np.asarray(s) > 2.0, np.nan, f(s, x)) for f in (EXP.f1, EXP.f2)),
    domain=EXP.domain,
)


def test_a_nan_window_end_stops_and_the_root_is_found_in_the_finite_part():
    # the window used to double into the NaN part and raise BracketError
    xiv = np.linspace(-3.0, 3.0, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        fan = anhysteresis_values(NAN_ABOVE_2_SOLVER, xiv)
    inside = xiv / 1.2 < 2.0
    assert np.abs(fan[inside] - xiv[inside] / 1.2).max() <= 1e-12
    assert np.isnan(fan[~inside]).all() and (~inside).sum() == 20
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_lemma1(NAN_ABOVE_2_SOLVER, SQUARE, 1e-3)
        sign = check_assumption_A(NAN_ABOVE_2_SOLVER, SQUARE)
    for r in (rep, sign):
        assert not r.passed and math.isnan(r.worst_violation)
        s, x = r.worst_location
        assert s > 2.0 or x / 1.2 >= 2.0
    assert rep.samples_checked == 40_000


def test_a_line_with_no_root_and_no_nan_probe_still_raises():
    # F = 1/2 everywhere: the window doubles 61 times over finite residuals
    no_root = DuhemModel("no root", lambda s, x: 1.0 + 0.0 * s, lambda s, x: 0.0 * s)
    with pytest.raises(BracketError, match="budget exhausted"):
        anhysteresis_values(no_root, np.array([0.0, 1.0]))
