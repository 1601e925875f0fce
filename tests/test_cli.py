import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import duhem
from duhem.cli import (
    PRESETS,
    ConfigError,
    RunConfig,
    _battery_geometry,
    _print_report,
    build_input,
    main,
)
from duhem.core import simulate
from duhem.dissipativity import loop_areas, verify_model
from duhem.mechsim import MAX_MECH_STEPS, MechParams
from duhem.models import boucwen, dahl
from duhem.report import VerificationReport
from duhem.signals import random_piecewise_linear, sine_sampled, triangle

TRIANGLE = '{"kind": "triangle", "amplitude": 1.0, "cycles": 2}'


def run_cli(*argv):
    return main(list(argv))


def test_missing_subcommand_is_config_error(capsys):
    assert main([]) == 2
    assert "missing subcommand" in capsys.readouterr().err


def test_verify_without_model_is_config_error(capsys):
    assert run_cli("verify") == 2
    assert "missing model" in capsys.readouterr().err


def test_unknown_model_is_config_error(capsys):
    assert run_cli("simulate", "--model", "preisach", "--input", TRIANGLE) == 2
    assert "unknown model" in capsys.readouterr().err


def test_simulate_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli(
        "simulate", "--model", "dahl", "--input", TRIANGLE, "--out", str(out)
    )
    assert code == 0
    assert "y_final=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,u,y"
    assert len(lines) > 1000


def test_simulate_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    spec = '{"kind": "random", "span": 1.5}'
    for path in (a, b):
        code = run_cli(
            "simulate", "--model", "dahl", "--input", spec,
            "--seed", "11", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_from_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "dahl",
        "input": {"kind": "ramp", "u0": 0.0, "u1": 1.0, "duration": 1.0},
        "y0": 0.0,
        "out": str(tmp_path / "run.csv"),
    }))
    assert run_cli("simulate", "--config", str(cfg)) == 0
    y_plain = capsys.readouterr().out
    assert run_cli("simulate", "--config", str(cfg), "--y0", "0.2") == 0
    y_override = capsys.readouterr().out
    assert y_plain != y_override


def test_config_with_unknown_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "dahl", "stepsize": 1e-3}))
    assert run_cli("simulate", "--config", str(cfg)) == 2
    assert "unknown config keys: stepsize" in capsys.readouterr().err


def test_config_with_invalid_json_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run_cli("simulate", "--config", str(cfg)) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_domain_exit_maps_to_verification_failure(capsys):
    # y0 placed on the band boundary is a runtime failure, not a config one
    code = run_cli(
        "simulate", "--model", "dahl",
        "--input", TRIANGLE, "--y0", "0.76",
    )
    assert code == 1


def test_curves_outputs_lambda_and_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run_cli(
        "curves", "--model", "dahl", "--sigma", "0.375", "--xi", "1.0",
        "--tau-min", "-1.0", "--tau-max", "2.0", "--out", str(out),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "lambda=0.79726744594" in stdout
    assert out.read_text().splitlines()[0] == "tau,omega,dydtau"


def test_curves_on_boucwen_meets_the_curve_at_the_closed_form(tmp_path, capsys):
    # beta = zeta: the decreasing branch from (0.3, 0.4) is a unit-slope line
    code = run_cli(
        "curves", "--model", "boucwen", "--sigma", "0.3", "--xi", "0.4",
        "--tau-min", "-1", "--tau-max", "1", "--out", str(tmp_path / "curve.csv"),
    )
    assert code == 0
    lam = float(capsys.readouterr().out.split("lambda=")[1].split()[0])
    assert lam == pytest.approx(0.1, abs=1e-9)


def test_storage_prints_sorted_json(tmp_path, capsys):
    out = tmp_path / "storage.json"
    code = run_cli(
        "storage", "--model", "dahl", "--sigma", "0.375", "--xi", "1.0",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.03545058445943833, abs=1e-8)
    assert list(payload) == sorted(payload)
    assert json.loads(out.read_text()) == payload


def test_verify_battery_dahl(tmp_path, capsys):
    code = run_cli(
        "verify", "--model", "dahl", "--n-signals", "2", "--out-dir", str(tmp_path)
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("[PASS]") >= 5
    report = json.loads((tmp_path / "verify_dahl.json").read_text())
    assert report["passed"] is True
    assert report["model"] == "dahl"
    loops = (tmp_path / "loops_dahl.csv").read_text().splitlines()
    assert loops[0] == "cycle,t_close,area"
    assert len(loops) == 6


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_without_battery_signals_is_config_error(tmp_path, n, capsys):
    code = run_cli(
        "verify", "--model", "dahl", "--n-signals", n, "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "--n-signals" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_curves_with_zero_step_is_an_error_not_a_crash(tmp_path, capsys):
    code = run_cli(
        "curves", "--model", "dahl", "--sigma", "0.375", "--xi", "1.0",
        "--tau-min", "-1.0", "--tau-max", "2.0", "--step", "0",
        "--out", str(tmp_path / "curve.csv"),
    )
    assert code == 2
    assert "step must be positive" in capsys.readouterr().err


# one run of each subcommand that takes --step
STEP_ARGVS = [
    ("simulate", "--model", "dahl", "--input", TRIANGLE),
    ("curves", "--model", "dahl", "--sigma", "0.3", "--xi", "1.0",
     "--tau-min", "-1.0", "--tau-max", "2.0"),
    ("storage", "--model", "dahl", "--sigma", "0.3", "--xi", "1.0"),
    ("verify", "--model", "dahl", "--n-signals", "1"),
    ("loops", "--model", "dahl", "--input", TRIANGLE),
]


@pytest.mark.parametrize("step", ["0", "-1"])
@pytest.mark.parametrize(
    "argv", STEP_ARGVS, ids=lambda a: a[0] if isinstance(a, tuple) else None
)
def test_a_step_that_is_not_positive_is_a_config_error(tmp_path, capsys, argv, step):
    code = run_cli(*argv, "--step", step, "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --step must be positive"), err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("step", [0.0, -1e-3, "fine"])
def test_a_config_file_step_that_is_not_positive_is_a_config_error(tmp_path, capsys, step):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "dahl", "input": json.loads(TRIANGLE), "step": step}))
    assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
    assert "--step must be positive and finite (config 'step')" in capsys.readouterr().err


@pytest.mark.parametrize("argv", STEP_ARGVS, ids=lambda a: a[0])
def test_an_infinite_step_is_a_config_error(tmp_path, capsys, argv):
    # an infinite step once rode 0 steps of size inf (storage) or took one
    # RK4 substep per segment (simulate)
    code = run_cli(*argv, "--step", "inf", "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --step must be positive and finite"), err
    assert not any(tmp_path.iterdir())


def test_a_config_file_step_that_is_infinite_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "dahl", "input": json.loads(TRIANGLE), "step": math.inf}))
    assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "--step must be positive and finite (config 'step'), got inf" in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_verify_preset_overrides_model_parameters(tmp_path, capsys):
    code = run_cli(
        "verify", "--model", "dahl", "--preset", "fig1",
        "--n-signals", "2", "--out-dir", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "verify_dahl.json").read_text())
    assert report["params"]["r"] == 3.0


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_preset_with_model_parameters_is_a_config_error(tmp_path, capsys, source):
    # the preset's parameters replaced these without a word (exit 0)
    params = {"rho": 9.0, "fc": 0.5, "r": 1.0}
    if source == "flag":
        given = ["--params", json.dumps(params)]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"params": params}))
        given = ["--config", str(cfg)]
    out = tmp_path / "out"
    code = run_cli("verify", "--preset", "fig1", *given, "--n-signals", "1", "--out-dir", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: preset 'fig1' sets the model parameters, got --params "
        """(config 'params') {"rho": 9.0, "fc": 0.5, "r": 1.0}\n"""
    )
    assert not out.exists()


def test_a_preset_loops_its_input(tmp_path, capsys):
    # the preset's own loop input replaced --input without a word
    spec = {"kind": "triangle", "amplitude": 1.5, "cycles": 4}
    code = run_cli(
        "verify", "--preset", "fig1", "--input", json.dumps(spec),
        "--n-signals", "1", "--out-dir", str(tmp_path),
    )
    assert code == 0
    model = dahl(**PRESETS["fig1"]["params"])
    times, areas = loop_areas(simulate(model, triangle(1.5, 4), 0.0, step=5e-3))
    rows = np.loadtxt(tmp_path / "loops_dahl.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert np.array_equal(rows[:, 1], times) and np.array_equal(rows[:, 2], areas)


def test_mech_subcommand_passes(capsys):
    assert run_cli("mech", "--horizon", "5", "--step", "1e-3") == 0
    stdout = capsys.readouterr().out
    assert "[PASS] lyapunov-decay" in stdout
    assert "x2(T)=" in stdout


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--horizon", "inf"),
        ("--horizon", "nan"),
        ("--horizon", "0"),
        ("--step", "0"),
        ("--step", "-1e-3"),
        ("--step", "nan"),
        ("--tol", "0"),
        ("--tol", "inf"),
    ],
)
def test_mech_rejects_a_bad_horizon_step_or_tol_as_config_error(tmp_path, capsys, flag, value):
    # an infinite horizon used to end in an OverflowError traceback, and
    # the others in exit 1 as runtime errors
    out = tmp_path / "mech.csv"
    assert run_cli("mech", f"{flag}={value}", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be positive and finite")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--m", "--d", "--k", "--rho", "--fc"])
def test_mech_rejects_a_parameter_that_is_not_finite_as_config_error(tmp_path, capsys, flag, value):
    # a bad flag value is a usage error, not a failed verification
    out = tmp_path / "mech.csv"
    assert run_cli("mech", f"{flag}={value}", "--horizon", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag[2:]} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("horizon, step", [("1e300", "1e-300"), ("1e9", "1e-9")])
def test_mech_rejects_a_step_count_above_the_cap_as_config_error(tmp_path, capsys, horizon, step):
    # the first used to end in an OverflowError traceback, the second to ask
    # numpy for 1e18-sample arrays
    out = tmp_path / "mech.csv"
    assert run_cli("mech", "--horizon", horizon, "--step", step, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: --horizon / --step asks for more than {MAX_MECH_STEPS} steps"
    )
    assert not out.exists()


@pytest.mark.parametrize("x3", ["1.0", "-0.75"])
def test_mech_rejects_an_initial_friction_force_outside_the_band_as_config_error(
    tmp_path, capsys, x3
):
    # a bad flag value is a usage error, not a failed verification
    out = tmp_path / "mech.csv"
    assert run_cli("mech", "--x3", x3, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --x3 must lie inside the friction band (-0.75, 0.75)"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--model", "dahl", "--input", TRIANGLE),
        ("verify", "--model", "dahl", "--n-signals", "1"),
        ("loops", "--model", "dahl", "--input", TRIANGLE),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else None,
)
def test_a_y0_that_is_not_finite_is_a_config_error(tmp_path, capsys, argv, value):
    # it used to exit 1 with "error: y0 must be finite", like a failed run
    code = run_cli(*argv, f"--y0={value}", "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --y0 must be finite (config 'y0')"), err
    assert not any(tmp_path.iterdir())


def test_a_config_file_y0_that_is_not_finite_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "dahl", "input": json.loads(TRIANGLE), "y0": math.nan}))
    assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
    assert "--y0 must be finite (config 'y0'), got nan" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--sigma", "--xi"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("curves", "--model", "dahl", "--tau-min", "-1.0", "--tau-max", "2.0"),
        ("storage", "--model", "dahl"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else None,
)
def test_a_phase_point_that_is_not_finite_is_a_config_error(tmp_path, capsys, argv, flag, value):
    # it used to exit 1 with "phase point coordinates must be finite"
    point = {"--sigma": "0.3", "--xi": "1.0", flag: value}
    out = tmp_path / "out.txt"
    code = run_cli(*argv, *(x for kv in point.items() for x in kv), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be finite, got {value}")
    assert not out.exists()


def _no_ride(*args, **kwargs):
    raise AssertionError("a bad flag value must be rejected before any ride")


@pytest.mark.parametrize("flag", ["--tau-min", "--tau-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_tau_bound_that_is_not_finite_is_a_config_error(tmp_path, capsys, monkeypatch, flag, value):
    # --tau-max inf ended in an OverflowError traceback and --tau-min nan
    # exited 1 with "need tau_min <= p.xi <= tau_max"
    for name in ("traversing_curve", "intersect_lambda"):
        monkeypatch.setattr(duhem.cli, name, _no_ride)
    bounds = {"--tau-min": "-1.0", "--tau-max": "2.0", flag: value}
    out = tmp_path / "curve.csv"
    code = run_cli(
        "curves", "--model", "dahl", "--sigma", "0.3", "--xi", "1.0",
        *(f"{k}={v}" for k, v in bounds.items()), "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be finite, got {value}")
    assert not out.exists()


@pytest.mark.parametrize(
    "tau_min, tau_max", [("2", "3"), ("-1", "0.5"), ("1.5", "-1")], ids=["above", "below", "reversed"]
)
def test_a_tau_range_that_misses_xi_is_a_config_error(tmp_path, capsys, monkeypatch, tau_min, tau_max):
    # a bad flag value is a config error, reported before any ride
    for name in ("traversing_curve", "intersect_lambda"):
        monkeypatch.setattr(duhem.cli, name, _no_ride)
    out = tmp_path / "curve.csv"
    code = run_cli(
        "curves", "--model", "dahl", "--sigma", "0.3", "--xi", "1.0",
        f"--tau-min={tau_min}", f"--tau-max={tau_max}", "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: need --tau-min <= --xi <= --tau-max, got "
        f"--tau-min={float(tau_min)!r} --xi=1.0 --tau-max={float(tau_max)!r}"
    )
    assert not out.exists()


@pytest.mark.parametrize("model, params", [("dahl", '{"fc": Infinity}'), ("boucwen", '{"n": NaN}')])
def test_a_model_parameter_that_is_not_finite_is_a_config_error(tmp_path, capsys, monkeypatch, model, params):
    # JSON reads NaN and Infinity, so --params can carry them to a factory
    monkeypatch.setattr(duhem.cli, "storage_cw", _no_ride)
    out = tmp_path / "storage.json"
    code = run_cli(
        "storage", "--model", model, "--params", params, "--sigma", "0.3", "--xi", "0.1",
        "--out", str(out),
    )
    assert code == 2
    name = params.split('"')[1]
    value = float(params.split(": ")[1].rstrip("}"))
    assert capsys.readouterr().err.startswith(f"config error: {name} must be finite, got {value}")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "-0.0"])
def test_a_quad_tol_that_is_not_positive_and_finite_is_a_config_error(tmp_path, capsys, monkeypatch, value):
    # --quad-tol nan and -1 used to run the whole ride and quadrature and
    # then exit 1.  storage_cw has no quadrature tolerance any more, so no
    # --quad-tol reaches a ride: argparse rejects the flag (exit 2)
    monkeypatch.setattr(duhem.cli, "storage_cw", _no_ride)
    out = tmp_path / "storage.json"
    argv = ["storage", "--model", "dahl", "--sigma", "0.3", "--xi", "1.0"]
    with pytest.raises(SystemExit) as exit_:
        run_cli(*argv, f"--quad-tol={value}", "--out", str(out))
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: --quad-tol={value}"), err
    assert not out.exists()


def test_a_config_file_quad_tol_that_is_not_positive_is_a_config_error(tmp_path, capsys, monkeypatch):
    # quad_tol is no config key any more: a config that sets it, to any
    # value, is rejected as an unknown key of every subcommand
    for argv in _SUBCOMMANDS:
        for value in (-1e-8, 1e-8, True):
            assert _run_config(tmp_path, monkeypatch, argv, {"quad_tol": value}) == 2
            want = "config error: unknown config keys: quad_tol"
            assert capsys.readouterr().err.startswith(want), (argv, value)


@pytest.mark.parametrize(
    "source, value",
    [
        ("flag", "inf"), ("flag", "nan"), ("flag", "0"), ("flag", "-1e-3"),
        ("config", "fine"), ("config", math.inf), ("config", 0.0),
    ],
)
def test_a_verify_tol_that_is_not_positive_and_finite_is_a_config_error(
    tmp_path, capsys, monkeypatch, source, value
):
    # --tol inf passed both dissipation reports and exited 0, and a config
    # 'tol' that is not a number exited 1
    monkeypatch.setattr(duhem.cli, "verify_model", _no_ride)
    argv = ["verify", "--model", "dahl", "--n-signals", "1", "--out-dir", str(tmp_path / "out")]
    if source == "flag":
        argv.append(f"--tol={value}")
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": value}))
        argv += ["--config", str(cfg)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tol must be positive and finite (config 'tol'), got "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "key, argv, what",
    [
        ("step", ["simulate", "--input", TRIANGLE], "positive and finite"),
        ("y0", ["simulate", "--input", TRIANGLE], "finite"),
        ("quad_tol", ["storage", "--sigma", "0.3", "--xi", "1.0"], "positive and finite"),
        ("tol", ["verify", "--n-signals", "1"], "positive and finite"),
        ("step", ["storage", "--sigma", "0.3", "--xi", "1.0"], "positive and finite"),
    ],
)
def test_a_config_number_given_as_a_json_boolean_is_a_config_error(
    tmp_path, capsys, monkeypatch, key, argv, what, value
):
    # isinstance(True, int) holds, so {"tol": true} once ran duhem verify
    # with tol = 1 and exited 0
    monkeypatch.setattr(duhem.cli, "verify_model", _no_ride)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "dahl", key: value}))
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(cfg), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith(_config_number_error(key, value, what))
    assert not out.exists()


# quad_tol was a config number until storage_cw lost its adaptive
# quadrature; a config that still sets it is refused, by every subcommand
# and whatever its value, as an unknown key
_RETIRED_KEYS = {"quad_tol"}


def _config_number_error(key, value, what):
    """The first line a subcommand prints for a config holding {key: value}."""
    if key in _RETIRED_KEYS:
        return f"config error: unknown config keys: {key}"
    flag = "--" + key.replace("_", "-")
    return f"config error: {flag} must be {what} (config '{key}'), got {value!r}"


_SUBCOMMANDS = [
    ["simulate", "--input", TRIANGLE],
    ["curves", "--sigma", "0.3", "--xi", "1.0", "--tau-min", "-1", "--tau-max", "2"],
    ["storage", "--sigma", "0.3", "--xi", "1.0"],
    ["verify", "--n-signals", "1"],
    ["loops", "--input", TRIANGLE],
]


def _run_config(tmp_path, monkeypatch, argv, config):
    """Exit code of a subcommand run on the config, with every ride and
    march replaced by an error; the output directory must stay unmade."""
    rides = ("simulate", "traversing_curve", "intersect_lambda", "storage_cw", "verify_model")
    for name in rides:
        monkeypatch.setattr(duhem.cli, name, _no_ride)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "dahl", **config}))
    out = tmp_path / "out"
    code = run_cli(*argv, "--config", str(cfg), "--out-dir", str(out))
    assert not out.exists()
    return code


@pytest.mark.parametrize("argv", _SUBCOMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize(
    "key, value, what",
    [
        ("step", -1.0, "positive and finite"),
        ("y0", "abc", "finite"),
        ("quad_tol", "oops", "positive and finite"),
        ("tol", -5, "positive and finite"),
    ],
)
def test_every_subcommand_checks_every_config_number(
    tmp_path, capsys, monkeypatch, argv, key, value, what
):
    # a config number was checked only by the subcommands that read it:
    # duhem simulate with {"tol": -5} exited 0
    assert _run_config(tmp_path, monkeypatch, argv, {key: value}) == 2
    assert capsys.readouterr().err.startswith(_config_number_error(key, value, what))


@pytest.mark.parametrize("argv", _SUBCOMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("value", ["abc", 1.5, True, -1])
def test_a_config_seed_that_is_not_a_nonnegative_integer_is_a_config_error(
    tmp_path, capsys, monkeypatch, argv, value
):
    # in a verify config "abc" and 1.5 ended in a TypeError traceback from
    # the seeded battery, and true ran as seed 1; the other subcommands
    # did not look at the seed
    assert _run_config(tmp_path, monkeypatch, argv, {"seed": value}) == 2
    want = f"config error: --seed must be a nonnegative integer (config 'seed'), got {value!r}"
    assert capsys.readouterr().err.startswith(want)


@pytest.mark.parametrize("argv", [_SUBCOMMANDS[i] for i in (0, 3, 4)], ids=lambda a: a[0])
def test_a_negative_seed_flag_is_a_config_error(tmp_path, capsys, monkeypatch, argv):
    # --seed -1 exited 1 with numpy's "expected non-negative integer"
    assert _run_config(tmp_path, monkeypatch, [*argv, "--seed", "-1"], {}) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --seed must be a nonnegative integer (config 'seed'), got -1"
    )


@pytest.mark.parametrize(
    "params, ratio",
    [
        ({"beta": -2.0}, "1.0 / -1.0"),
        ({"alpha": -1.0}, "-1.0 / 2.0"),
        ({"beta": 0.0, "zeta": 0.0}, "1.0 / 0.0"),
        ({"alpha": 0.0}, "0.0 / 2.0"),
    ],
)
def test_a_boucwen_model_with_no_verification_region_is_a_config_error(
    tmp_path, capsys, monkeypatch, params, ratio
):
    # the region is 0.75 (alpha / (beta + zeta))^(1/n) wide: beta = -2 and
    # alpha = -1 raised a TypeError from a complex power, beta = zeta = 0 a
    # ZeroDivisionError, and alpha = 0 exited 1 with "degenerate region"
    monkeypatch.setattr(duhem.cli, "verify_model", _no_ride)
    out = tmp_path / "out"
    code = run_cli(
        "verify", "--model", "boucwen", "--params", json.dumps(params),
        "--n-signals", "1", "--out-dir", str(out),
    )
    assert code == 2
    want = f"config error: no verification region: alpha / (beta + zeta) = {ratio} is not"
    assert capsys.readouterr().err.startswith(want)
    assert not out.exists()


def test_verify_writes_the_reports_and_loops_of_verify_model(tmp_path, capsys):
    # the command draws its battery from --seed and its loop input from the
    # certified xi range, and writes what the library call returns
    code = run_cli(
        "verify", "--preset", "fig2", "--n-signals", "2", "--seed", "5",
        "--y0", "0.25", "--out-dir", str(tmp_path),
    )
    assert code == 0
    model = boucwen(**PRESETS["fig2"]["params"])
    region, epsilon, lam_bound = _battery_geometry(model)
    rng = np.random.default_rng(5)
    battery = [
        random_piecewise_linear(rng, u_start=0.0, span=2.0, n_breakpoints=(3, 8))
        for _ in range(2)
    ]
    reports, times, areas = verify_model(
        model, region, epsilon, lam_bound, battery, triangle(region[1][1], 5),
        y0=0.25, step=5e-3, tol=None,
    )
    payload = json.loads((tmp_path / "verify_boucwen.json").read_text())
    assert payload["reports"] == json.loads(json.dumps([r.to_dict() for r in reports]))
    rows = np.loadtxt(tmp_path / "loops_boucwen.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(rows[:, 1], times) and np.array_equal(rows[:, 2], areas)
    assert len(capsys.readouterr().out.splitlines()) == len(reports) == 7


def test_report_line_ends_in_its_ratio_to_a_positive_tolerance(capsys):
    for worst, tol in ((2.5, 1.0), (0.25, 0.5), (-0.5, 0.25)):
        _print_report(_report(worst, tol=tol))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] r: worst=2.5 tol=1 ") and lines[0].endswith(" ratio=2.5")
    assert float(lines[0].rsplit("ratio=", 1)[1]) > 1.0
    assert lines[1].endswith(" ratio=0.5") and lines[1].startswith("[PASS]")
    assert lines[2].endswith(" ratio=-2")


def test_report_line_of_a_zero_tolerance_check_has_no_ratio(capsys):
    _print_report(_report(-0.25, tol=0.0))
    assert capsys.readouterr().out == "[PASS] r: worst=-0.25 tol=0 samples=3\n"


def test_failing_verify_run_prints_a_ratio_above_one(tmp_path, capsys):
    # a battery tolerance far below the run's dissipation slack fails the
    # battery, and its line shows by how much
    code = run_cli(
        "verify", "--model", "dahl", "--n-signals", "1", "--tol", "1e-12",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    line = next(
        l for l in capsys.readouterr().out.splitlines() if "dissipation-forward" in l
    )
    assert line.startswith("[FAIL]")
    assert float(line.rsplit("ratio=", 1)[1]) > 1.0


def _report(worst, tol=1.0):
    return VerificationReport(
        name="r", worst_violation=worst, worst_location=(worst,), tolerance=tol,
        samples_checked=3, details={},
    )


def test_mech_feedback_requires_zero_stiffness(capsys):
    assert run_cli("mech", "--mode", "feedback", "--horizon", "1") == 2
    assert (
        run_cli("mech", "--mode", "feedback", "--k", "0", "--horizon", "5") == 0
    )


def test_loops_subcommand_reports_orientation(tmp_path, capsys):
    out = tmp_path / "loops.csv"
    code = run_cli(
        "loops", "--model", "dahl", "--input", TRIANGLE, "--out", str(out)
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "orientation=clockwise" in stdout
    assert out.read_text().splitlines()[0] == "cycle,t_close,area"


def test_module_entry_point_runs():
    # the child process imports the same duhem package as this test, also
    # from a checkout that is not installed
    src = os.path.dirname(os.path.dirname(duhem.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "duhem.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"model": "dahl", "ampltiude": 1.0})


def test_runconfig_rejects_non_object():
    with pytest.raises(ConfigError):
        RunConfig.from_dict([1, 2, 3])


@pytest.mark.parametrize("spec,msg", [
    ({"kind": "sawtooth"}, "unknown input kind"),
    ({"kind": "ramp", "u0": 0.0}, "missing keys"),
    ({"kind": "triangle", "amplitude": 1.0, "cycles": 1, "phase": 0.0}, "unknown keys"),
    ({"amplitude": 1.0}, "'kind'"),
])
def test_build_input_rejects_malformed_specs(spec, msg):
    with pytest.raises(ConfigError, match=msg):
        build_input(spec)


def test_build_input_random_is_seeded():
    spec = {"kind": "random", "span": 2.0}
    a = build_input(spec, seed=5)
    b = build_input(spec, seed=5)
    c = build_input(spec, seed=6)
    assert (a.values == b.values).all()
    assert a.values.shape != c.values.shape or not (a.values == c.values).all()


def test_presets_cover_both_figures():
    assert set(PRESETS) == {"fig1", "fig2"}
    assert PRESETS["fig1"]["model"] == "dahl"
    assert PRESETS["fig2"]["model"] == "boucwen"


@pytest.mark.parametrize("spec, reason", [
    ('{"kind": "ramp", "u0": 0, "u1": 1, "duration": 1}',
     "input never closes a cycle at its final level"),
    ('{"kind": "breakpoints", "times": [0, 1], "values": [0.5, 0.5]}',
     "constant input carries no loop"),
], ids=["ramp", "constant"])
def test_verify_with_a_loop_input_that_closes_no_cycle_writes_its_reports(
    tmp_path, capsys, spec, reason
):
    # the run used to end in exit 1 with the reason and no file written
    code = run_cli(
        "verify", "--preset", "fig1", "--input", spec, "--n-signals", "1",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[5].startswith("[FAIL] loop-orientation: worst=inf ")
    payload = json.loads((tmp_path / "verify_dahl.json").read_text())
    report = payload["reports"][5]
    assert report["name"] == "loop-orientation" and not report["passed"]
    assert report["worst_violation"] == math.inf
    assert report["worst_location"] == [1.0]
    assert report["details"] == {"label": "open", "reason": reason}
    assert (tmp_path / "loops_dahl.csv").read_text() == "cycle,t_close,area\n"


@pytest.mark.parametrize("argv, err", [
    (["simulate", "--model", "dahl", "--input", TRIANGLE, "--config", "missing.json"],
     "config error: cannot read config missing.json"),
    (["simulate", "--model", "dahl"],
     "config error: missing input spec (--input or config 'input')"),
    (["simulate", "--model", "dahl", "--input",
      '{"kind": "ramp", "u0": 0, "u1": 1, "duration": -1}'],
     "config error: bad input spec: duration must be positive"),
    (["simulate", "--model", "dahl", "--input",
      '{"kind": "triangle", "amplitude": 1.0, "cycles": 2.5}'],
     "config error: bad input spec: cycles must be an integer, got 2.5"),
    (["simulate", "--model", "dahl", "--input",
      '{"kind": "triangle", "amplitude": 1.0, "cycles": 3.0}'],
     "config error: bad input spec: cycles must be an integer, got 3.0"),
    (["simulate", "--model", "dahl", "--input",
      '{"kind": "sine", "amplitude": 1.0, "periods": 1.5}'],
     "config error: bad input spec: periods must be an integer, got 1.5"),
    (["simulate", "--model", "dahl", "--input", '{"kind": "random", "n_breakpoints": [0, 0]}'],
     "config error: bad input spec: bad breakpoint range [0, 0]: need integers 2 <= lo <= hi"),
    (["verify", "--preset", "fig1", "--model", "boucwen", "--n-signals", "1"],
     "config error: preset 'fig1' is for model 'dahl', got --model 'boucwen'"),
    (["verify", "--model", "dahl", "--params", '{"rho": 0.01, "fc": 0.75, "r": 3.0}',
      "--n-signals", "1"],
     "config error: margin 0.01 is not attainable anywhere on this model's band"),
], ids=[
    "unreadable-config", "missing-input", "bad-input", "cycles-2.5", "cycles-3.0",
    "periods-1.5", "random-breakpoints-0-0", "preset-with-another-model", "dahl-margin",
])
def test_each_cli_check_names_what_it_rejects(tmp_path, capsys, monkeypatch, argv, err):
    # a count that is not an integer used to be truncated: 2.5 cycles ran 2
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(duhem.cli, "verify_model", _no_ride)
    assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, direct", [
    ({"kind": "triangle", "amplitude": 0.5, "cycles": 2},
     lambda rng: triangle(0.5, 2)),
    ({"kind": "sine", "amplitude": 0.5, "periods": 2},
     lambda rng: sine_sampled(0.5, 2)),
    ({"kind": "sine", "amplitude": 0.5, "periods": 2, "period": 2.0, "n_per_period": 8,
      "offset": 0.25},
     lambda rng: sine_sampled(0.5, 2, period=2.0, n_per_period=8, offset=0.25)),
    ({"kind": "random"}, lambda rng: random_piecewise_linear(rng)),
    ({"kind": "random", "u_start": 0.5, "span": 1.0, "n_breakpoints": [4, 6],
      "min_dwell": 0.25},
     lambda rng: random_piecewise_linear(
         rng, u_start=0.5, span=1.0, n_breakpoints=(4, 6), min_dwell=0.25
     )),
], ids=["triangle", "sine", "sine-every-key", "random", "random-every-key"])
def test_build_input_calls_the_constructor_with_the_keys_given(spec, direct):
    # a key left out takes the constructor's own default
    built = build_input(spec, seed=9)
    want = direct(np.random.default_rng(9))
    assert np.array_equal(built.times, want.times)
    assert np.array_equal(built.values, want.values)


def test_mech_parameter_flags_default_to_mech_params(monkeypatch, capsys):
    seen = []

    def capture(params, init, horizon, step):
        seen.append(params)
        raise ValueError("stop")

    monkeypatch.setattr(duhem.cli, "simulate_mech", capture)
    assert run_cli("mech", "--horizon", "1") == 1
    assert run_cli("mech", "--horizon", "1", "--rho", "2", "--mode", "feedback", "--k", "0") == 1
    assert seen == [MechParams(), MechParams(rho=2.0, mode="feedback", k=0.0)]
