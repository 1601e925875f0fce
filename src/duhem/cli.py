"""Command-line entry point.

Subcommands
-----------
simulate   drive a model along an input, write a t,u,y CSV
curves     sample the traversing curve through a phase point, report the
           anhysteresis intersection
storage    evaluate the clockwise storage at a phase point (JSON)
verify     run the verification battery for one model: existence bounds,
           sign structure, transversality margin, the dissipation
           inequality over a seeded input family, loop orientation and
           cycle stabilization; writes verify_<model>.json and a loop CSV
mech       simulate the mechanical system, write t,x1,x2,x3,V CSV and check
           the energy decay certificate
loops      decompose a run into closed input cycles and their signed areas

Configuration comes from a JSON file (--config) with explicit flags taking
precedence; unknown config keys are rejected.  Exit status is 0 when every
requested verification passes, 1 on verification failure or runtime error,
2 on configuration errors.  All CSV output carries headers and 17
significant digits, and a fixed seed makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import DomainExitError, DuhemModel, simulate
from .curves import CrossingSearchError, PhasePoint, intersect_lambda, traversing_curve
from .dissipativity import loop_areas, loop_orientation, verify_model
from .integrate import BracketError
from .mechsim import (
    MAX_MECH_STEPS,
    MechParams,
    MechState,
    lyapunov_check,
    passivity_port_check,
    simulate_mech,
)
from .models import model_from_config
from .report import VerificationReport, _write_csv
from .signals import InputSignal, ramp, random_piecewise_linear, sine_sampled, triangle
from .storage import storage_cw

__all__ = ["ConfigError", "RunConfig", "build_input", "main"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Run description shared by the subcommands, read from a JSON object
    (from_dict); unknown keys are rejected rather than ignored so typos
    surface as exit code 2.
    """

    model: str | None = None
    params: dict = field(default_factory=dict)
    input: dict | None = None
    y0: float = 0.0
    step: float | None = None
    tol: float | None = None
    seed: int = 0
    out: str | None = None
    out_dir: str = "."

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# kind -> (constructor, required keys, optional keys), the keys being the
# constructor's own parameter names; an optional key left out takes its default
_INPUT_KINDS = {
    "ramp": (ramp, {"u0", "u1", "duration"}, set()),
    "triangle": (triangle, {"amplitude", "cycles"}, {"period"}),
    "sine": (sine_sampled, {"amplitude", "periods"}, {"period", "n_per_period", "offset"}),
    "breakpoints": (InputSignal, {"times", "values"}, set()),
    "random": (
        random_piecewise_linear, set(), {"u_start", "span", "n_breakpoints", "min_dwell"}
    ),
}


def build_input(spec: dict, seed: int = 0) -> InputSignal:
    """Construct an input signal from its JSON description: one call of the
    kind's constructor with the spec's keys, after a generator seeded with
    `seed` for the kind random."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("input spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind not in _INPUT_KINDS:
        raise ConfigError(
            f"unknown input kind {kind!r}; expected one of {sorted(_INPUT_KINDS)}"
        )
    make, required, optional = _INPUT_KINDS[kind]
    given = set(spec) - {"kind"}
    missing = sorted(required - given)
    extra = sorted(given - required - optional)
    if missing:
        raise ConfigError(f"input kind {kind!r} missing keys: {', '.join(missing)}")
    if extra:
        raise ConfigError(f"input kind {kind!r} got unknown keys: {', '.join(extra)}")
    rng = (np.random.default_rng(seed),) if kind == "random" else ()
    try:
        return make(*rng, **{key: spec[key] for key in given})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad input spec: {exc}") from exc


# the model and parameters of `duhem verify --preset`; its loop input is
# the default one or --input
PRESETS = {
    "fig1": {"model": "dahl", "params": {"rho": 1.5, "fc": 0.75, "r": 3.0}},
    "fig2": {
        "model": "boucwen",
        "params": {"alpha": 1.0, "beta": 1.0, "zeta": 1.0, "n": 3.0},
    },
}


def _resolve_model(cfg: RunConfig) -> DuhemModel:
    if not cfg.model:
        raise ConfigError("missing model name (--model or config 'model')")
    try:
        return model_from_config({"model": cfg.model, "params": cfg.params})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_input(cfg: RunConfig) -> InputSignal:
    if cfg.input is None:
        raise ConfigError("missing input spec (--input or config 'input')")
    return build_input(cfg.input, cfg.seed)


def _base_config(args: argparse.Namespace) -> RunConfig:
    """The --config file, overridden by the flags given; ConfigError unless
    every number and the seed in it can be run, whether or not the
    subcommand reads them."""
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    for key in ("params", "input"):
        text = getattr(args, key, None)
        if text is not None:
            try:
                cfg = replace(cfg, **{key: json.loads(text)})
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--{key} is not valid JSON: {exc}") from exc
    # a flag that the subcommand does not define reads None, as does one
    # that was not given; params and input are JSON, read above
    flags = {
        f.name: getattr(args, f.name, None)
        for f in fields(RunConfig)
        if f.name not in ("params", "input")
    }
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    # None is the default of step and tol
    if cfg.step is not None:
        _check_number("--step", cfg.step, True, "step")
    _check_number("--y0", cfg.y0, False, "y0")
    if cfg.tol is not None:
        _check_number("--tol", cfg.tol, True, "tol")
    if isinstance(cfg.seed, bool) or not (isinstance(cfg.seed, int) and cfg.seed >= 0):
        raise ConfigError(
            f"--seed must be a nonnegative integer (config 'seed'), got {cfg.seed!r}"
        )
    return cfg


def _check_number(flag: str, value, positive: bool, key: str | None) -> None:
    """ConfigError unless the value of the flag, or of the config key (None:
    the flag has none), is an int or float that is finite, and positive if
    asked; a JSON boolean is neither, though Python counts True as the int
    1."""
    if not (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0.0 or not positive)
    ):
        what = "positive and finite" if positive else "finite"
        where = f" (config '{key}')" if key else ""
        raise ConfigError(f"{flag} must be {what}{where}, got {value!r}")


def _phase_point(args: argparse.Namespace, *flags: tuple[str, float]) -> PhasePoint:
    """The phase point of --sigma and --xi; it and every further (flag,
    value) must be finite."""
    for flag, value in (("--sigma", args.sigma), ("--xi", args.xi), *flags):
        _check_number(flag, value, False, None)
    return PhasePoint(args.sigma, args.xi)


def _out_path(cfg: RunConfig, default_name: str) -> str:
    if cfg.out:
        return cfg.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, default_name)


def _step(cfg: RunConfig) -> dict:
    """--step as a library call's keyword where given; else the library's default."""
    return {"step": cfg.step} if cfg.step is not None else {}


def _print_report(report: VerificationReport) -> None:
    """One line per check, ending in ratio=worst/tol when tol > 0: how
    close the check came to failing (it failed above 1)."""
    state = "PASS" if report.passed else "FAIL"
    line = (
        f"[{state}] {report.name}: worst={report.worst_violation:.6g} "
        f"tol={report.tolerance:.6g} samples={report.samples_checked}"
    )
    if report.tolerance > 0.0:
        line += f" ratio={report.worst_violation / report.tolerance:.3g}"
    print(line)


# --- subcommand handlers ---------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    model = _resolve_model(cfg)
    signal = _resolve_input(cfg)
    traj = simulate(model, signal, cfg.y0, **_step(cfg))
    path = _out_path(cfg, f"traj_{model.name}.csv")
    traj.to_csv(path)
    log.info("wrote %s", path)
    print(f"samples={traj.t.size} y_final={traj.y[-1]:.17g}")
    return EXIT_OK


def cmd_curves(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    model = _resolve_model(cfg)
    p = _phase_point(args, ("--tau-min", args.tau_min), ("--tau-max", args.tau_max))
    if not args.tau_min <= p.xi <= args.tau_max:
        raise ConfigError(
            "need --tau-min <= --xi <= --tau-max, got "
            f"--tau-min={args.tau_min!r} --xi={p.xi!r} --tau-max={args.tau_max!r}"
        )
    curve = traversing_curve(model, p, args.tau_min, args.tau_max, **_step(cfg))
    lam = intersect_lambda(model, p, **_step(cfg))
    path = _out_path(cfg, f"curve_{model.name}.csv")
    _write_csv(path, "tau,omega,dydtau", curve.tau, curve.y, curve.dydtau)
    log.info("wrote %s", path)
    print(f"lambda={lam:.17g}")
    if curve.left_truncated or curve.right_truncated:
        print("note: curve truncated at the domain boundary")
    return EXIT_OK


def cmd_storage(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    model = _resolve_model(cfg)
    p = _phase_point(args)
    ev = storage_cw(model, p, **_step(cfg))
    text = json.dumps(ev.to_dict(), sort_keys=True, indent=2)
    print(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        log.info("wrote %s", cfg.out)
    return EXIT_OK


def _battery_geometry(model: DuhemModel):
    """Default existence bound, check region and margin for a built-in model."""
    p = model.params
    if model.name == "dahl":
        # the slope field decays like (1 - sigma/fc)^r toward saturation, so
        # the band certified with margin epsilon must stay where the field
        # is at least 2 epsilon
        eps = 0.01
        frac = (2.0 * eps / p["rho"]) ** (1.0 / p["r"])
        if frac >= 0.95:
            raise ConfigError(
                "margin 0.01 is not attainable anywhere on this model's band"
            )
        s_hi = p["fc"] * min(0.95, 1.0 - frac)
        region = ((-s_hi, s_hi), (-2.0, 2.0))
        lam = p["r"] * (p["rho"] / p["fc"]) * 2.0 ** (p["r"] - 1.0) + 1.0
        return region, eps, lam
    if model.name == "boucwen":
        # the output saturates where alpha = (beta + zeta) |sigma|^n
        denom = p["beta"] + p["zeta"]
        ratio = p["alpha"] / denom if denom else math.nan
        if not 0.0 < ratio < math.inf:
            raise ConfigError(
                f"no verification region: alpha / (beta + zeta) = {p['alpha']!r} / "
                f"{denom!r} is not positive and finite"
            )
        s_star = ratio ** (1.0 / p["n"])
        s_hi = 0.75 * s_star
        region = ((-s_hi, s_hi), (-2.0, 2.0))
        lam = p["n"] * (p["beta"] + p["zeta"]) * max(1.0, s_hi) ** (p["n"] - 1.0) + 1.0
        return region, 0.01, lam
    if model.name == "exp_example":
        region = ((-3.0, 3.0), (-3.0, 3.0))
        lam = 0.6 * math.exp(0.5 * (1.2 * 3.0 + 3.0)) + 1.0
        return region, 1e-3, lam
    raise ConfigError(f"no default verification geometry for model {model.name!r}")


def _write_loops_csv(path: str, times: np.ndarray, areas: np.ndarray) -> None:
    """Write closed loops as CSV rows cycle,t_close,area at full precision."""
    _write_csv(path, "cycle,t_close,area", np.arange(1, areas.size + 1), times, areas)


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the verification battery of one model and write its artifacts.

    `dissipativity.verify_model` runs the reports: the grid certificates
    on the model's default region (`_battery_geometry`), the dissipation
    reports on a seeded battery of random inputs at `step` (default 5e-3)
    and the loop reports on the loop input (a 5-cycle triangle over the
    certified xi range unless --input gives one), simulated at the same
    step.  A preset sets the model and its parameters: another --model, or
    any --params (config 'params'), with it is a config error.  Writes
    verify_<model>.json and loops_<model>.csv and returns EXIT_OK only if
    every report passes.
    """
    if args.n_signals < 1:
        raise ConfigError(f"--n-signals must be at least 1, got {args.n_signals}")
    cfg = _base_config(args)
    if args.preset is not None:
        preset = PRESETS[args.preset]
        if cfg.model is not None and cfg.model != preset["model"]:
            raise ConfigError(
                f"preset {args.preset!r} is for model {preset['model']!r}, "
                f"got --model {cfg.model!r}"
            )
        if cfg.params:
            raise ConfigError(
                f"preset {args.preset!r} sets the model parameters, got "
                f"--params (config 'params') {json.dumps(cfg.params)}"
            )
        cfg = replace(cfg, model=preset["model"], params=dict(preset["params"]))
    model = _resolve_model(cfg)
    region, epsilon, lam_bound = _battery_geometry(model)
    rng = np.random.default_rng(cfg.seed)
    battery = [
        random_piecewise_linear(rng, u_start=0.0, span=2.0, n_breakpoints=(3, 8))
        for _ in range(args.n_signals)
    ]
    # loop amplitude matches the xi range the battery certifies
    loop_spec = cfg.input if cfg.input is not None else {
        "kind": "triangle", "amplitude": region[1][1], "cycles": 5,
    }
    reports, times, areas = verify_model(
        model, region, epsilon, lam_bound, battery, build_input(loop_spec, cfg.seed),
        y0=cfg.y0, step=cfg.step if cfg.step is not None else 5e-3, tol=cfg.tol,
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    loops_path = os.path.join(cfg.out_dir, f"loops_{model.name}.csv")
    _write_loops_csv(loops_path, times, areas)
    json_path = os.path.join(cfg.out_dir, f"verify_{model.name}.json")
    payload = {
        "model": model.name,
        "params": {k: model.params[k] for k in sorted(model.params)},
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    log.info("wrote %s and %s", json_path, loops_path)

    for r in reports:
        _print_report(r)
    return EXIT_OK if payload["passed"] else EXIT_VERIFICATION


def cmd_mech(args: argparse.Namespace) -> int:
    for name in ("horizon", "step", "tol"):
        _check_number("--" + name, getattr(args, name), True, None)
    if not args.horizon / args.step <= MAX_MECH_STEPS:
        raise ConfigError(
            f"--horizon / --step asks for more than {MAX_MECH_STEPS} steps"
        )
    try:
        # a parameter flag not given reads None and takes MechParams' default
        params = MechParams(**{
            f.name: getattr(args, f.name)
            for f in fields(MechParams)
            if getattr(args, f.name) is not None
        })
        init = MechState(args.x1, args.x2, args.x3)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not abs(init.x3) < params.fc:
        raise ConfigError(
            f"--x3 must lie inside the friction band (-{params.fc}, {params.fc}) "
            f"of --fc, got {args.x3!r}"
        )
    series = simulate_mech(params, init, args.horizon, args.step)
    if args.out:
        series.to_csv(args.out)
        log.info("wrote %s", args.out)
    reports = [lyapunov_check(series, params, args.tol)]
    if params.mode == "feedback":
        reports.append(passivity_port_check(series, params, args.tol))
    for r in reports:
        _print_report(r)
    print(
        f"x1(T)={series.x1[-1]:.17g} x2(T)={series.x2[-1]:.17g} "
        f"x3(T)={series.x3[-1]:.17g}"
    )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION


def cmd_loops(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    model = _resolve_model(cfg)
    signal = _resolve_input(cfg)
    traj = simulate(model, signal, cfg.y0, **_step(cfg))
    cls = loop_orientation(traj)
    times, areas = loop_areas(traj)
    path = _out_path(cfg, f"loops_{model.name}.csv")
    _write_loops_csv(path, times, areas)
    log.info("wrote %s", path)
    print(f"orientation={cls.label} final_area={cls.area:.17g} cycles={areas.size}")
    return EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser, with_input: bool) -> None:
    p.add_argument("--model", help="built-in model name")
    p.add_argument("--params", help="model parameters as a JSON object")
    if with_input:
        p.add_argument("--input", help="input signal spec as a JSON object")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--out-dir", dest="out_dir", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duhem",
        description="Duhem hysteresis operators: simulation, clockwise "
        "storage and dissipativity verification.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info logging")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", help="integrate a model along an input")
    _add_model_flags(p, with_input=True)
    p.add_argument("--y0", type=float, help="initial output (default 0)")
    p.add_argument("--step", type=float, help="max u-substep")
    p.add_argument("--seed", type=int, help="seed for random inputs")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("curves", help="traversing curve through a phase point")
    _add_model_flags(p, with_input=False)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--tau-min", dest="tau_min", type=float, required=True)
    p.add_argument("--tau-max", dest="tau_max", type=float, required=True)
    p.add_argument("--step", type=float, help="sampling step in the input")
    p.add_argument("--out", help="curve CSV path")
    p.set_defaults(handler=cmd_curves)

    p = sub.add_parser("storage", help="clockwise storage at a phase point")
    _add_model_flags(p, with_input=False)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--step", type=float)
    p.add_argument("--out", help="write the JSON result here as well")
    p.set_defaults(handler=cmd_storage)

    p = sub.add_parser("verify", help="verification battery for one model")
    _add_model_flags(p, with_input=True)
    p.add_argument("--preset", choices=sorted(PRESETS), help="figure parameter preset")
    p.add_argument("--n-signals", dest="n_signals", type=int, default=25,
                   help="random inputs in the dissipation battery")
    p.add_argument("--y0", type=float)
    p.add_argument("--step", type=float, help="simulation step (default 5e-3)")
    p.add_argument("--tol", type=float, help="dissipation tolerance")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("mech", help="mechanical system with Dahl friction")
    for f in fields(MechParams):
        if f.name != "mode":
            p.add_argument("--" + f.name, type=float)
    p.add_argument("--x1", type=float, default=1.0)
    p.add_argument("--x2", type=float, default=0.0)
    p.add_argument("--x3", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--mode", choices=("free", "feedback"))
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", help="series CSV path")
    p.set_defaults(handler=cmd_mech)

    p = sub.add_parser("loops", help="closed-cycle decomposition of a run")
    _add_model_flags(p, with_input=True)
    p.add_argument("--y0", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="loops CSV path")
    p.set_defaults(handler=cmd_loops)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if not getattr(args, "handler", None):
        print("error: missing subcommand (see --help)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainExitError, CrossingSearchError, BracketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
