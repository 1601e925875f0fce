import dataclasses
import functools
import math

import numpy as np
import pytest

from duhem import DomainExitError, boucwen, dahl, exp_example, simulate
from duhem.core import Domain, DuhemModel
from duhem.cli import main
from duhem.models import BUILTIN_MODELS, model_from_config
from duhem.signals import ramp

from oracles import boucwen_fields_numpy, dahl_fields_numpy, exp_fields_numpy


def test_dahl_r1_branches_are_affine(dahl_r1):
    sig = np.linspace(-0.7, 0.7, 11)
    assert np.allclose(dahl_r1.f1(sig, 0.0), 1.5 * (1.0 - sig / 0.75))
    assert np.allclose(dahl_r1.f2(sig, 0.0), 1.5 * (1.0 + sig / 0.75))


def test_dahl_domain_is_open_band(dahl_r1):
    assert (dahl_r1.domain.sigma_min, dahl_r1.domain.sigma_max) == (-0.75, 0.75)
    assert bool(dahl_r1.domain.contains(0.7499))
    assert not bool(dahl_r1.domain.contains(0.75))
    assert not bool(dahl_r1.domain.contains(-0.75))


def test_dahl_general_exponent_matches_power_law():
    m = dahl(rho=1.5, fc=0.75, r=3.0)
    s = 0.3
    assert m.f1(s, 0.0) == pytest.approx(1.5 * (1.0 - s / 0.75) ** 3)
    assert m.f2(s, 0.0) == pytest.approx(1.5 * (1.0 + s / 0.75) ** 3)


def test_dahl_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dahl(rho=0.0)
    with pytest.raises(ValueError):
        dahl(fc=-1.0)
    with pytest.raises(ValueError):
        dahl(r=0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "factory, name",
    [(dahl, "rho"), (dahl, "fc"), (dahl, "r"),
     (boucwen, "alpha"), (boucwen, "beta"), (boucwen, "zeta"), (boucwen, "n")],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_factories_reject_a_parameter_that_is_not_finite(factory, name, value):
    # fc = inf would give a Dahl model on the whole plane, and a NaN
    # parameter fields that return NaN
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        factory(**{name: value})


def test_boucwen_branch_values(bw):
    # alpha - beta*|s|^n -/+ zeta*s*|s|^(n-1) at s = 0.5, n = 3
    assert bw.f1(0.5, 0.0) == pytest.approx(1.0 - 0.125 - 0.125)
    assert bw.f2(0.5, 0.0) == pytest.approx(1.0 - 0.125 + 0.125)
    assert bw.f1(-0.5, 0.0) == pytest.approx(1.0 - 0.125 + 0.125)


def test_boucwen_fixed_point_annihilates_rising_branch(bw):
    s_star = 0.5 ** (1.0 / 3.0)
    assert bw.f1(s_star, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_boucwen_rejects_sublinear_exponent():
    with pytest.raises(ValueError):
        boucwen(n=0.5)


def test_exp_example_anhysteresis_is_exact(exp_model):
    # F(xi/1.2, xi) = 0 identically
    xi = np.linspace(-4.0, 4.0, 17)
    f_an = exp_model.f_an(xi)
    assert np.allclose(f_an, xi / 1.2)
    assert np.allclose(exp_model.F(f_an, xi), 0.0, atol=1e-14)


def test_exp_example_branch_symmetry(exp_model):
    s, x = 0.8, -0.4
    assert exp_model.f1(s, x) == pytest.approx(np.exp(0.5 * (-1.2 * s + x)) + 0.83)
    assert exp_model.f2(s, x) == pytest.approx(np.exp(0.5 * (1.2 * s - x)) + 0.83)


@pytest.mark.parametrize(
    "model",
    [dahl(), dahl(r=2.5), dahl(r=3.0), boucwen(), boucwen(n=2.5), boucwen(zeta=0.0), exp_example()],
    ids=lambda m: f"{m.name} {m.params}",
)
def test_builtin_models_are_odd_bit_for_bit(model):
    # the supply march rides falling lanes on f1 in a reflected frame, which
    # is exact only if f2(sigma, xi) is f1(-sigma, -xi) in every bit
    assert model.odd
    rng = np.random.default_rng(11)
    half = model.domain.sigma_max if math.isfinite(model.domain.sigma_max) else 3.0
    sigma = rng.uniform(-half, half, 2000)
    xi = rng.uniform(-5.0, 5.0, 2000)
    assert model.f2(sigma, xi).tobytes() == model.f1(-sigma, -xi).tobytes()
    for s, x in zip(sigma[:200].tolist(), xi[:200].tolist()):
        assert model.f2(s, x) == model.f1(-s, -x)


def test_an_odd_declaration_that_does_not_hold_is_rejected():
    exp, d = exp_example(), dahl()
    nudged = DuhemModel(
        name="nudged", f1=exp.f1, f2=lambda s, x: exp.f2(s, x) * (1.0 + 1e-15),
        domain=exp.domain, f_an=exp.f_an,
    )
    assert not nudged.odd
    with pytest.raises(ValueError, match="f1\\(-sigma, -xi\\)"):
        dataclasses.replace(nudged, odd=True)
    # one field for both directions is not odd: f1(-s) = rho (1 + s/fc)
    with pytest.raises(ValueError, match="odd model 'dahl'"):
        dataclasses.replace(d, f2=d.f1)
    with pytest.raises(ValueError, match="symmetric about 0"):
        dataclasses.replace(d, domain=Domain(-0.75, 1.0))
    with pytest.raises(ValueError, match="symmetric about 0"):
        dataclasses.replace(exp, domain=Domain(sigma_min=-1.0))
    # the same models are accepted when they do not claim the symmetry
    dataclasses.replace(d, domain=Domain(-0.75, 1.0), odd=False)
    dataclasses.replace(d, f2=d.f1, odd=False)


def test_an_odd_declaration_needs_an_odd_anhysteresis_function():
    # the crossing ride reflects the lanes above the curve through the
    # origin, which maps the curve onto itself only if f_an is odd
    exp = exp_example()
    with pytest.raises(ValueError, match=r"odd model 'exp_example': f_an\(-xi\) = .* but -f_an\(xi\)"):
        dataclasses.replace(exp, f_an=lambda x: x / 1.2 + 0.1)
    dataclasses.replace(exp, f_an=lambda x: x / 1.2 + 0.1, odd=False, reduced_form=None)
    # the check calls f_an under its functools.wraps layers, as f1 and f2
    calls = []

    @functools.wraps(exp.f_an)
    def counted(xi):
        calls.append(xi)
        return exp.f_an(xi)

    assert dataclasses.replace(exp, f_an=counted).odd and not calls


def _counted(calls):
    """A functools.wraps layer that records every call of the field it wraps."""
    def wrap(f):
        @functools.wraps(f)
        def wrapper(*args):
            calls.append(len(args))
            return f(*args)
        return wrapper
    return wrap


def test_the_catalog_declares_xi_free_where_the_fields_ignore_the_input():
    # Dahl and Bouc-Wen read sigma alone: the reduced form (0, 1)
    assert dahl().reduced_form == dahl(r=3.0).reduced_form == boucwen().reduced_form == (0.0, 1.0)
    # Bouc-Wen with zeta = 0 has f1 == f2 and no anhysteresis curve
    assert boucwen(zeta=0.0).reduced_form is None
    # a model without f_an keeps the declaration: the solver finds its
    # curve, which lies at z = 0 since g1(0) == g2(0)
    assert dataclasses.replace(boucwen(), f_an=None).reduced_form == (0.0, 1.0)


def test_the_catalog_declares_one_variable_c_where_the_fields_read_xi_minus_c_sigma():
    # exp_example reads xi - 1.2 sigma: the reduced form (1, 1.2)
    assert exp_example().reduced_form == (1.0, 1.2)
    assert dahl().reduced_form != (1.0, 1.2) and boucwen().reduced_form != (1.0, 1.2)
    # a model without f_an keeps the declaration: the solver finds its curve
    assert dataclasses.replace(exp_example(), f_an=None).reduced_form == (1.0, 1.2)


# the catalog models, each on its sigma half-width: Dahl's band, and
# [-5, 5] on the whole plane
CATALOG = {
    "dahl r=1": (dahl(), 0.75),
    "dahl fig1": (dahl(r=3.0), 0.75),
    "dahl rho=2 fc=0.4 r=1.5": (dahl(rho=2.0, fc=0.4, r=1.5), 0.4),
    "boucwen": (boucwen(), 5.0),
    "boucwen n=2.5 zeta=0.5": (boucwen(zeta=0.5, n=2.5), 5.0),
    "exp_example": (exp_example(), 5.0),
}


def reduced_form_samples(half_width):
    """100,000 seeded points (sigma, xi), sigma in [-half_width, half_width)
    and xi in [-5, 5)."""
    u = np.random.default_rng(31).uniform(-1.0, 1.0, (2, 100_000))
    return half_width * u[0], 5.0 * u[1]


@pytest.mark.parametrize("name", list(CATALOG))
def test_the_catalog_reduced_forms_hold_beyond_the_probe_grid(name):
    # f_i(sigma, xi) has the bits of g_i(a xi - b sigma) and f_an(xi) those
    # of a xi / b at every point, not only on the 35 probe points
    model, half_width = CATALOG[name]
    a, b = model.reduced_form
    sigma, xi = reduced_form_samples(half_width)
    z, g = model._reduced(sigma, xi)
    for f in (model.f1, model.f2):
        assert f(sigma, xi).tobytes() == g(f, z).tobytes()
    assert model.f_an(xi).tobytes() == (a * xi / b).tobytes()


def test_a_sigma_only_declaration_whose_field_reads_xi_is_rejected():
    d = dahl()
    with pytest.raises(ValueError, match=r"reduced-form \(0\.0, 1\.0\) model 'dahl': f1\(sigma, xi\) = .* but g1\(a xi - b sigma\)"):
        dataclasses.replace(d, f1=lambda s, x: d.f1(s, x) + 1e-3 * x, odd=False)
    with pytest.raises(ValueError, match=r"reduced-form \(0\.0, 1\.0\) model 'dahl': f2\(sigma, xi\)"):
        dataclasses.replace(d, f2=lambda s, x: d.f2(s, x) * (1.0 + 1e-15 * (x > 1.0)), odd=False)
    with pytest.raises(ValueError, match=r"reduced-form \(0\.0, 1\.0\) model 'exp_example': f1\(sigma, xi\)"):
        dataclasses.replace(exp_example(), reduced_form=(0, 1))
    # f_an, when declared, must be 0 on the probe grid
    with pytest.raises(ValueError, match=r"reduced-form \(0\.0, 1\.0\) model 'dahl': f_an\(xi\) = .* but a xi / b"):
        dataclasses.replace(d, f_an=lambda x: 1e-9 * x, odd=False)
    # the same models are accepted when they do not claim the property
    dataclasses.replace(d, f1=lambda s, x: d.f1(s, x) + 1e-3 * x, odd=False, reduced_form=None)


def test_a_sigma_only_model_without_f_an_needs_its_fields_to_meet_at_0():
    # accepted since one rule covers both forms (a sigma-only declaration
    # needed f_an before): the quadrature takes the curve at sigma = 0
    bw = dataclasses.replace(boucwen(), f_an=None)
    assert bw.f_an is None and bw.reduced_form == (0.0, 1.0)
    with pytest.raises(ValueError, match=r"reduced-form \(0\.0, 1\.0\) model 'boucwen': g1\(0\) = 1\.01 but g2\(0\) = 1\.0"):
        dataclasses.replace(bw, f1=lambda s, x: bw.f1(s, x) + 0.01, odd=False)


def test_a_sigma_only_declaration_is_checked_under_the_wraps_layers():
    # as for odd: a wrapper that counts field calls sees none from the check
    d = dahl(r=3.0)
    calls = []
    counted = _counted(calls)
    m = dataclasses.replace(d, f1=counted(d.f1), f2=counted(d.f2), f_an=counted(d.f_an))
    assert m.reduced_form == (0.0, 1.0) and m.odd and not calls


def test_a_one_variable_declaration_whose_fields_read_more_is_rejected():
    e = exp_example()
    with pytest.raises(ValueError, match=r"reduced-form \(1\.0, 1\.2\) model 'exp_example': f1\(sigma, xi\) = .* but g1\(a xi - b sigma\)"):
        dataclasses.replace(e, f1=lambda s, x: e.f1(s, x) + 1e-3 * s, odd=False)
    with pytest.raises(ValueError, match=r"reduced-form \(1\.0, 1\.2\) model 'exp_example': f2\(sigma, xi\) = .* but g2\(a xi - b sigma\)"):
        dataclasses.replace(e, f2=lambda s, x: e.f2(s, x) * (1.0 + 1e-15 * (x > 1.0)), odd=False)
    # the fields read xi - 1.2 sigma, not xi - 1.25 sigma
    with pytest.raises(ValueError, match=r"reduced-form \(1\.0, 1\.25\) model 'exp_example': f1\(sigma, xi\)"):
        dataclasses.replace(e, reduced_form=(1, 1.25))
    # Dahl reads sigma alone
    with pytest.raises(ValueError, match=r"reduced-form \(1\.0, 1\.0\) model 'dahl': f1\(sigma, xi\)"):
        dataclasses.replace(dahl(), reduced_form=(1, 1))
    # the same model is accepted when it does not claim the property
    dataclasses.replace(e, f1=lambda s, x: e.f1(s, x) + 1e-3 * s, odd=False, reduced_form=None)


def test_a_one_variable_declaration_needs_f_an_to_be_xi_over_c_bit_for_bit():
    # one ulp above xi / 1.2 everywhere (not odd, so odd is not declared)
    e = exp_example()
    with pytest.raises(ValueError, match=r"reduced-form \(1\.0, 1\.2\) model 'exp_example': f_an\(xi\) = .* but a xi / b = "):
        dataclasses.replace(e, f_an=lambda x: np.nextafter(x / 1.2, np.inf), odd=False)
    dataclasses.replace(e, f_an=lambda x: np.nextafter(x / 1.2, np.inf), odd=False, reduced_form=None)


def test_a_one_variable_model_without_f_an_needs_its_fields_to_meet_at_w_0():
    # the quadrature takes the curve at w = 0, where F must vanish: here
    # g1 - g2 = e^(w/2) - e^(-w/2) + 0.01 vanishes near w = -0.01 instead
    e = dataclasses.replace(exp_example(), f_an=None)
    with pytest.raises(ValueError, match=r"reduced-form \(1\.0, 1\.2\) model 'exp_example': g1\(0\) = 1\.84 but g2\(0\) = 1\.83"):
        dataclasses.replace(e, f1=lambda s, x: e.f1(s, x) + 0.01, odd=False)
    dataclasses.replace(e, f1=lambda s, x: e.f1(s, x) + 0.01, odd=False, reduced_form=None)


# constant fields read neither sigma nor xi, so they pass every probe pair
# of any reduced form: only the checks of the pair itself reject one
FLAT = DuhemModel(name="flat", f1=lambda s, x: 2.0 + 0.0 * s, f2=lambda s, x: 2.0 + 0.0 * s)


@pytest.mark.parametrize("c", [0.0, -1.2, math.nan, math.inf, -math.inf])
def test_a_one_variable_c_must_be_positive_and_finite(c):
    # the b of (1, b), the c of w = xi - c sigma
    assert dataclasses.replace(FLAT, reduced_form=(1, 0.5)).reduced_form == (1.0, 0.5)
    with pytest.raises(ValueError, match="reduced_form's b must be positive and finite"):
        dataclasses.replace(FLAT, reduced_form=(1, c))


@pytest.mark.parametrize(
    "form", [(0, 2), (0, 0.5), (0.5, 1), (2, 1), (-1, 1), (math.nan, 1), (1,), (0, 1, 1), 1.2, (), (1, None), ("a", 1)]
)
def test_a_reduced_form_is_0_1_or_1_b(form):
    # one spelling per reduced coordinate: z = -sigma is (0, 1) alone, and
    # a scales z, so it is 0 or 1
    assert dataclasses.replace(FLAT, reduced_form=[0, 1]).reduced_form == (0.0, 1.0)
    with pytest.raises(ValueError, match=r"reduced_form must be \(0, 1\) or \(1, b\), got "):
        dataclasses.replace(FLAT, reduced_form=form)


def test_a_one_variable_declaration_is_checked_under_the_wraps_layers():
    e = exp_example()
    calls = []
    counted = _counted(calls)
    m = dataclasses.replace(e, f1=counted(e.f1), f2=counted(e.f2), f_an=counted(e.f_an))
    assert m.reduced_form == (1.0, 1.2) and m.odd and not calls


def test_F_is_half_branch_difference(dahl_r1):
    s = np.array([-0.3, 0.0, 0.45])
    expect = 0.5 * (dahl_r1.f1(s, 0.0) - dahl_r1.f2(s, 0.0))
    assert np.allclose(dahl_r1.F(s, 0.0), expect)


def test_builtin_catalog_names():
    assert set(BUILTIN_MODELS) == {"dahl", "boucwen", "exp_example"}


def test_model_from_config_roundtrip():
    m = model_from_config({"model": "dahl", "params": {"rho": 2.0, "fc": 1.0, "r": 2.0}})
    assert m.params["rho"] == 2.0
    assert m.name == "dahl"


def test_model_from_config_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        model_from_config({"model": "preisach"})


def test_model_from_config_rejects_stray_keys():
    with pytest.raises(ValueError):
        model_from_config({"model": "dahl", "params": {}, "extra": 1})


def test_model_from_config_rejects_bad_params():
    with pytest.raises(ValueError):
        model_from_config({"model": "dahl", "params": {"mass": 3.0}})


# Each built-in model with the numpy expressions of its fields (the oracle)
# and the sigma values that matter for it: zeros of both signs, the band
# edges, points outside the band, overflowing powers and nan.
_EDGES = [0.0, -0.0, 0.3, -0.3, 1.0, -1.0, 2.5, -2.5, 1e120, -1e120, math.nan]
FIELD_CASES = [
    ("dahl r=1", dahl(r=1.0), dahl_fields_numpy(r=1.0), _EDGES + [0.75, -0.75]),
    ("dahl r=1.5", dahl(r=1.5), dahl_fields_numpy(r=1.5), _EDGES + [0.75, -0.75, 0.7499999999999999]),
    ("dahl r=3", dahl(r=3.0), dahl_fields_numpy(r=3.0), _EDGES + [0.75, -0.75, 1e-110]),
    ("boucwen n=1", boucwen(n=1.0), boucwen_fields_numpy(n=1.0), _EDGES),
    ("boucwen n=2", boucwen(n=2.0), boucwen_fields_numpy(n=2.0), _EDGES + [1.2e160, 1e-170]),
    ("boucwen n=3", boucwen(n=3.0), boucwen_fields_numpy(n=3.0), _EDGES + [0.5 ** (1.0 / 3.0)]),
    ("boucwen zeta=0", boucwen(zeta=0.0), boucwen_fields_numpy(zeta=0.0), _EDGES),
    ("exp_example", exp_example(), exp_fields_numpy(), _EDGES + [700.0, -700.0, 1500.0]),
]
FIELD_XI = [0.0, -0.0, 0.5, -3.0, 1e120, -1e120, math.nan]


def _same(a, b):
    """Equal as floats, nan equal to nan, and zeros of equal sign."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("label,model,oracle,sigmas", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
def test_scalar_fields_return_floats_equal_to_the_numpy_value(label, model, oracle, sigmas):
    with np.errstate(all="ignore"):
        for f, ref in zip((model.f1, model.f2), oracle):
            for s in sigmas:
                for x in FIELD_XI:
                    got = f(s, x)
                    assert type(got) is float, (label, s, x, type(got))
                    want = ref(np.float64(s), np.float64(x))
                    assert _same(got, want), (label, s, x, got, want)
                    assert _same(got, f(np.float64(s), np.float64(x))), (label, s, x)


@pytest.mark.parametrize("label,model,oracle,sigmas", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
def test_array_fields_return_the_numpy_values(label, model, oracle, sigmas):
    # on the 2-d grid, on each of its 1-d rows (the lockstep marches' lanes)
    # and on 0-d arrays: arrays of float64 for arrays, a float64 number for
    # 0-d inputs, with the oracle's bits
    S, X = np.meshgrid(np.array(sigmas), np.array(FIELD_XI), indexing="ij")
    with np.errstate(all="ignore"):
        for f, ref in zip((model.f1, model.f2), oracle):
            for s, x in [(S, X), *zip(S, X)]:
                got, want = f(s, x), ref(s, x)
                assert type(got) is np.ndarray and got.shape == s.shape, label
                assert got.dtype == np.float64, label
                assert all(_same(a, b) for a, b in zip(got.ravel(), want.ravel())), label
            for s, x in zip(S.ravel(), X.ravel()):
                s, x = np.array(s), np.array(x)
                got = f(s, x)
                assert isinstance(got, float) and not isinstance(got, np.ndarray), label
                assert _same(got, ref(s, x)), (label, s, x)


def test_scalar_field_overflow_gives_inf_or_nan_as_numpy_does():
    assert dahl(r=3.0).f1(1e120, 0.0) == -math.inf
    assert dahl(r=3.0).f2(-1e120, 0.0) == -math.inf
    assert boucwen(n=20.0).f1(1.2e18, 0.0) == -math.inf
    assert math.isnan(boucwen(n=20.0).F(1.2e18, 0.0))


def test_simulate_blowup_raises_domain_exit_at_the_same_sample():
    with pytest.raises(DomainExitError) as info:
        simulate(boucwen(beta=-1.0, zeta=0.0), ramp(0.0, 2.0, 1.0), 1.0, step=1e-3)
    assert (info.value.t, info.value.u) == (0.188, 0.376)
    assert math.isnan(info.value.y)


def test_cli_simulate_blowup_exits_with_verification_status(tmp_path, capsys):
    code = main([
        "simulate", "--model", "boucwen", "--params", '{"beta": -1, "zeta": 0}',
        "--input", '{"kind": "ramp", "u0": 0, "u1": 2, "duration": 1}',
        "--y0", "1", "--step", "1e-3", "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert "state left the model domain at t=0.188 (u=0.376, y=nan)" in capsys.readouterr().err


@pytest.mark.parametrize("config, msg", [
    ([], "must be a mapping"),
    ({}, "requires a 'model' key"),
], ids=["list", "empty"])
def test_model_from_config_names_a_config_it_cannot_read(config, msg):
    with pytest.raises(ValueError, match=msg):
        model_from_config(config)
