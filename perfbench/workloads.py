"""The benchmark's three workloads.

Each workload builds its seeded inputs once (the set-up) and then runs
identical rounds: a round is a fixed list of operations ("ops") issued back
to back by one caller (a closed loop), followed by the correctness checks,
which are not timed.  Rounds repeat the same inputs, so every round of one
seed does the same work and produces the same result digest.

Where a workload draws phase points, it uses Latin-hypercube strata: every
seed covers the same ranges evenly, so the work per round varies little from
seed to seed while the points themselves differ.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import closed_forms
from duhem import cli, core, curves, dissipativity, mechsim, models, signals, storage

# Stated accuracies of the routines checked below (their default arguments).
QUAD_TOL = 1e-8           # storage_cw adaptive Simpson tolerance
ANHYSTERESIS_FTOL = 1e-10  # scalar anhysteresis bisection stops at |F| <= ftol
CROSSING_TOL = 1e-9       # intersect_lambda residual tolerance

# A reference run is due once this much timed work has passed since the last.
REFERENCE_GAP_S = 0.25


def reference_kernel():
    """A fixed piece of work that does not touch the duhem sources: Euler
    steps of a Dahl-like field on 201 lanes (small-array numpy calls, as in
    the lockstep marches) and a scalar logistic-map loop (plain Python
    arithmetic, as in the scalar marches and bisections).  About 20 ms on an
    unloaded core of a 2-core Xeon VM.

    The speed of a shared host drifts by up to 40% within minutes; timing
    this kernel next to each op measures that drift so it can be divided out.
    """
    y = np.linspace(-0.5, 0.5, 201)
    t = 0.0
    for _ in range(2000):
        c = math.cos(t)
        y = y + 2e-3 * abs(c) * (1.0 - math.copysign(1.0, c) * y)
        t += 2e-3
    x = s = 0.3
    for _ in range(100_000):
        x = 3.7 * x * (1.0 - x)
        s += x
    return float(y.sum()) + s


def time_reference():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def timed_units(fns):
    """Call fns back to back and time each; between them, time the reference
    kernel whenever REFERENCE_GAP_S of work has passed since its last run
    (and before the first and after the last call).

    Returns (outputs, seconds, refs): an output is the call's result, or the
    exception it raised; refs[i] is the mean of the two reference times
    bracketing call i.
    """
    outputs, seconds, refs = [], [], []
    before, pending, gap = time_reference(), [], 0.0
    for i, fn in enumerate(fns):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            out = exc
        seconds.append(time.perf_counter() - t0)
        outputs.append(out)
        pending.append(i)
        gap += seconds[-1]
        if gap >= REFERENCE_GAP_S or i == len(fns) - 1:
            after = time_reference()
            refs += [0.5 * (before + after)] * len(pending)
            before, pending, gap = after, [], 0.0
    return outputs, seconds, refs


class RoundResult:
    """Ops, timings, checks and output digest of one round."""

    def __init__(self):
        self.ops = 0
        self.op_seconds = 0.0
        self.latencies = []        # seconds per op; empty when ops run inside the CLI
        self.unit_seconds = []     # seconds per timed unit: an op, or a CLI command
        self.unit_refs = []        # reference-kernel seconds next to each unit
        self.failed = {}           # op label -> reason
        self.checks = []           # (what, error, tolerance) with tolerance > 0
        self.fingerprints = {}     # artifact name -> sha256
        self.extra = {}            # workload-specific figures for the report
        self._digest = hashlib.sha256()

    def fail(self, label, reason):
        self.failed.setdefault(label, reason)

    def check(self, ops, what, error, tol):
        """Record a checked error against its tolerance; a miss fails the op
        (or every op of the list) it belongs to.  Only positive tolerances
        enter check_ratio_max; a zero tolerance demands error <= 0."""
        error = float(error)
        if tol > 0.0:
            self.checks.append((what, error, tol))
        if not error <= tol:
            for op in [ops] if isinstance(ops, str) else ops:
                self.fail(op, f"{what}: error {error:.3e} > tolerance {tol:.3e}")

    def merge(self, other):
        """Append another round's ops, timings, checks and digest."""
        self.ops += other.ops
        self.op_seconds += other.op_seconds
        self.latencies = self.latencies + other.latencies
        self.unit_seconds = self.unit_seconds + other.unit_seconds
        self.unit_refs = self.unit_refs + other.unit_refs
        for label, reason in other.failed.items():
            self.fail(label, reason)
        self.checks += other.checks
        self.fingerprints.update(other.fingerprints)
        self.absorb(other.digest.encode())

    def absorb(self, *values):
        """Add raw bytes, or numbers as float64 bytes, to the result digest."""
        for v in values:
            self._digest.update(v if isinstance(v, bytes) else
                                np.ascontiguousarray(v, dtype=float).tobytes())

    @property
    def digest(self):
        return self._digest.hexdigest()

    def run_ops(self, ops):
        """Issue (label, fn) ops back to back; a raising op is counted as
        failed and named, and the round goes on."""
        outputs, seconds, refs = timed_units([fn for _, fn in ops])
        for i, ((label, _), out) in enumerate(zip(ops, outputs)):
            if isinstance(out, Exception):
                self.fail(label, f"{type(out).__name__}: {out}")
                outputs[i] = None
        self.op_seconds = sum(seconds)
        self.ops = len(ops)
        self.latencies = self.unit_seconds = seconds
        self.unit_refs = refs
        return outputs


def _strata(rng, k, lo, hi):
    """k values, one uniform draw in each of k equal strata of [lo, hi],
    in random order."""
    return rng.permutation(lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k)


def _identity(model):
    return model


class VerifyBattery:
    """The three README ``duhem verify`` commands, run in-process through
    ``duhem.cli.main``.  One op is one dissipation signal check.

    The battery's random signals come from the CLI's own default seed, as in
    the README; the workload seed draws each command's initial output y0.
    Per-signal cost varies with a coefficient of variation near 0.4, and a
    round affords six checks, so drawing the signals from the workload seed
    would make the seed-to-seed spread wider than any useful bound.
    """

    N_SIGNALS = 2
    # (model, command flags, half-width of the y0 range)
    COMMANDS = (
        ("dahl", ["--preset", "fig1"], 0.3),
        ("boucwen", ["--preset", "fig2"], 0.3),
        ("exp_example", ["--model", "exp_example"], 1.0),
    )

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.argv = []
        for name, flags, half in self.COMMANDS:
            y0 = float(rng.uniform(-half, half))
            self.argv.append((name, ["verify", *flags, "--n-signals", str(self.N_SIGNALS),
                                     "--y0", repr(y0), "--out-dir", work_dir]))

    def _artifacts(self, name):
        return [os.path.join(self.work_dir, f) for f in (f"verify_{name}.json", f"loops_{name}.csv")]

    def run_round(self, wrap=_identity):
        res = RoundResult()
        for name, _ in self.argv:
            for path in self._artifacts(name):
                if os.path.exists(path):
                    os.remove(path)

        def command(argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        codes, seconds, refs = timed_units([lambda a=argv: command(a) for _, argv in self.argv])
        codes = [f"{type(c).__name__}: {c}" if isinstance(c, Exception) else c for c in codes]
        res.op_seconds = sum(seconds)
        res.ops = len(self.argv) * self.N_SIGNALS
        res.unit_seconds, res.unit_refs = seconds, refs
        res.extra["command_s"] = {name: t for (name, _), t in zip(self.argv, seconds)}

        for (name, _), code in zip(self.argv, codes):
            ops = [f"verify {name} signal {i}" for i in range(self.N_SIGNALS)]
            if code != 0:
                for op in ops:
                    res.fail(op, f"verify {name}: exit status {code}")
            for path in self._artifacts(name):
                try:
                    with open(path, "rb") as fh:
                        data = fh.read()
                except OSError:
                    data = b""
                    for op in ops:
                        res.fail(op, f"verify {name}: no {os.path.basename(path)}")
                res.fingerprints[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
                res.absorb(data)
                if path.endswith(".json") and data:
                    for rep in json.loads(data)["reports"]:
                        res.check(ops, f"verify {name} {rep['name']}",
                                  rep["worst_violation"], rep["tolerance"])
        return res


class PointQueries:
    """Single-point storage_cw, intersect_lambda and traversing_curve calls on
    Dahl, exp_example, and exp_example with f_an=None (the solver path).
    One op is one query.  Part of SingleLane."""

    N_POINTS = 12
    QUERIES = ("storage_cw", "intersect_lambda", "traversing_curve")

    def __init__(self, seed, work_dir=None):
        rng = np.random.default_rng(seed)
        k = self.N_POINTS
        self.dahl = models.dahl()
        self.exp = models.exp_example()
        self.exp_solver = dataclasses.replace(self.exp, f_an=None)
        self.dahl_points = list(zip(_strata(rng, k, -0.675, 0.675), _strata(rng, k, -2.0, 2.0)))
        xi = _strata(rng, k, -2.0, 2.0)
        dist = _strata(rng, k, -1.5, 1.5)  # offset from the anhysteresis curve xi/1.2
        self.exp_points = list(zip(xi / 1.2 + dist, xi))

    @staticmethod
    def _query(q, model, s, x):
        p = curves.PhasePoint(s, x)
        if q == "storage_cw":
            return lambda: storage.storage_cw(model, p)
        if q == "intersect_lambda":
            return lambda: curves.intersect_lambda(model, p)
        return lambda: curves.traversing_curve(model, p, x - 0.5, x + 0.5)

    def run_round(self, wrap=_identity):
        res = RoundResult()
        sets = (("dahl", wrap(self.dahl), self.dahl_points),
                ("exp", wrap(self.exp), self.exp_points),
                ("exp_solver", wrap(self.exp_solver), self.exp_points))
        keys, ops = [], []
        for i in range(self.N_POINTS):
            for tag, model, points in sets:
                s, x = (float(v) for v in points[i])
                for q in self.QUERIES:
                    keys.append((tag, q, i))
                    ops.append((f"{tag} {q} {i}", self._query(q, model, s, x)))
        out = dict(zip(keys, res.run_ops(ops)))

        for (tag, q, i) in keys:
            v = out[tag, q, i]
            if v is None:
                res.absorb(math.nan)
            elif q == "storage_cw":
                res.absorb(v.value, v.lambda_star)
            elif q == "intersect_lambda":
                res.absorb(v)
            else:
                res.absorb(v.tau, v.y, v.dydtau)
        for i in range(self.N_POINTS):
            self._check_dahl(res, i, out)
            self._check_solver_path(res, i, out)
        return res

    def _check_dahl(self, res, i, out):
        s, x = (float(v) for v in self.dahl_points[i])
        ev = out["dahl", "storage_cw", i]
        if ev is not None:
            res.check(f"dahl storage_cw {i}", "dahl storage vs closed form",
                      abs(ev.value - closed_forms.storage(s)), 1e-5)
        lam = out["dahl", "intersect_lambda", i]
        if lam is not None:
            res.check(f"dahl intersect_lambda {i}", "dahl crossing vs closed form",
                      abs(lam - closed_forms.crossing(s, x)), 1e-6)
        curve = out["dahl", "traversing_curve", i]
        if curve is not None:
            # tau = xi +/- 0.5 stays clear of the curve's zero, so the
            # relative error is well defined
            err = 0.0
            for t in (x - 0.5, x + 0.5):
                exact = closed_forms.traversing(t, s, x)
                err = max(err, abs(curve(t) - exact) / abs(exact))
            res.check(f"dahl traversing_curve {i}", "dahl traversing curve vs closed form",
                      err, 1e-6)

    def _check_solver_path(self, res, i, out):
        """The solver path must agree with the declared f_an = xi/1.2."""
        ev, ref = out["exp_solver", "storage_cw", i], out["exp", "storage_cw", i]
        if ev is not None and ref is not None:
            # both quadratures meet QUAD_TOL; the solved anhysteresis is off by
            # at most ftol / |dF/dsigma| <= ftol / 0.6 along |lambda|
            tol = 2.0 * QUAD_TOL + abs(ref.lambda_star) * ANHYSTERESIS_FTOL / 0.6
            res.check(f"exp_solver storage_cw {i}", "solver-path storage vs declared f_an",
                      abs(ev.value - ref.value), tol)
        lam, ref = out["exp_solver", "intersect_lambda", i], out["exp", "intersect_lambda", i]
        if lam is not None and ref is not None:
            res.check(f"exp_solver intersect_lambda {i}", "solver-path crossing vs declared f_an",
                      abs(lam - ref), CROSSING_TOL)
        curve, ref = out["exp_solver", "traversing_curve", i], out["exp", "traversing_curve", i]
        if curve is not None and ref is not None:
            # the traversing curve does not use f_an, so both paths are identical
            same = all(np.array_equal(getattr(curve, a), getattr(ref, a))
                       for a in ("tau", "y", "dydtau"))
            res.check(f"exp_solver traversing_curve {i}", "solver-path curve identical",
                      0.0 if same else 1.0, 0.0)


class BruteForce:
    """available_storage_bruteforce at Dahl points with the acceptance-gate
    family: 200 random signals, horizon 10, step 2e-3.  One op is one point."""

    N_POINTS = 4

    def __init__(self, seed, work_dir=None):
        rng = np.random.default_rng(seed)
        k = self.N_POINTS
        self.dahl = models.dahl()
        self.points = list(zip(_strata(rng, k, -0.675, 0.675), _strata(rng, k, -2.0, 2.0)))
        self.family_seeds = [int(v) for v in rng.integers(0, 2**31, size=k)]

    def run_round(self, wrap=_identity):
        res = RoundResult()
        model = wrap(self.dahl)
        ops = []
        for i, ((s, x), fs) in enumerate(zip(self.points, self.family_seeds)):
            p = curves.PhasePoint(float(s), float(x))
            fam = storage.SignalFamily(n_random=200, seed=fs)
            ops.append((f"bruteforce {i}", lambda p=p, fam=fam: storage.available_storage_bruteforce(
                model, p, fam, horizon=10.0, step=2e-3)))
        out = res.run_ops(ops)

        for (label, _), (s, _), r in zip(ops, self.points, out):
            if r is None:
                res.absorb(math.nan)
                continue
            res.absorb(r.value, r.per_signal)
            h = closed_forms.storage(float(s))
            # the search approaches H from below, up to quadrature noise
            res.check(label, "bruteforce shortfall below H", (h - r.value) / h if h > 0.0 else 0.0, 0.02)
            res.check(label, "bruteforce overshoot above H", r.value - h, 1e-4)
        return res


class TimeMarch:
    """Long single-lane marches: simulate for the three models along a
    triangle and a sampled sine at step 1e-3 (each followed by its loop
    analysis), and simulate_mech free and feedback with their certificates.
    One op is one march.  Part of SingleLane."""

    STEP = 1e-3

    def __init__(self, seed, work_dir=None):
        rng = np.random.default_rng(seed)
        self.models = [
            (models.dahl(), float(rng.uniform(-0.5, 0.5))),
            (models.boucwen(), float(rng.uniform(-0.5, 0.5))),
            (models.exp_example(), float(rng.uniform(-1.0, 1.0))),
        ]
        self.inputs = [
            ("triangle", signals.triangle(2.0, 5)),
            ("sine", signals.sine_sampled(2.0, 5, n_per_period=256,
                                          offset=float(rng.uniform(-0.5, 0.5)))),
        ]
        self.free = (mechsim.MechParams(), mechsim.MechState(float(rng.uniform(0.5, 1.5)), 0.0, 0.0))
        self.feedback = (mechsim.MechParams(k=0.0, mode="feedback"),
                         mechsim.MechState(1.0, float(rng.uniform(0.8, 1.2)), 0.0))

    def _march(self, model, sig, y0):
        traj = core.simulate(model, sig, y0, step=self.STEP)
        return traj, dissipativity.loop_areas(traj), dissipativity.loop_orientation(traj)

    @staticmethod
    def _mech(params, init, horizon, tol):
        series = mechsim.simulate_mech(params, init, horizon, 1e-3)
        reports = [mechsim.lyapunov_check(series, params, tol)]
        if params.mode == "feedback":
            reports.append(mechsim.passivity_port_check(series, params, tol))
        return series, reports

    def run_round(self, wrap=_identity):
        res = RoundResult()
        ops, sigs = [], []
        for model, y0 in self.models:
            m = wrap(model)
            for kind, sig in self.inputs:
                ops.append((f"simulate {model.name} {kind}",
                            lambda m=m, sig=sig, y0=y0: self._march(m, sig, y0)))
                sigs.append(sig)
        # README tolerances: 1e-4 free, 1e-3 feedback
        ops.append(("mech free", lambda: self._mech(*self.free, 100.0, 1e-4)))
        ops.append(("mech feedback", lambda: self._mech(*self.feedback, 40.0, 1e-3)))
        sigs += [None, None]
        out = res.run_ops(ops)

        for (label, _), sig, r in zip(ops, sigs, out):
            if r is None:
                res.absorb(math.nan)
            elif sig is None:
                series, reports = r
                res.absorb(series.x1, series.x2, series.x3, series.v)
                for rep in reports:
                    res.check(label, f"{label} {rep.name}", rep.worst_violation, rep.tolerance)
            else:
                self._check_march(res, label, sig, *r)
        return res

    @staticmethod
    def _check_march(res, label, sig, traj, loops, cls):
        times, areas = loops
        res.absorb(traj.y, times, areas, cls.area)
        if traj.model_name == "dahl":
            idx = np.searchsorted(traj.t, sig.times)
            exact = closed_forms.breakpoint_outputs(sig.values, traj.y0)
            res.check(label, "dahl breakpoints vs closed form",
                      float(np.max(np.abs(traj.y[idx] - exact))), 1e-9)
        res.check(label, "loop clockwise", 0.0 if cls.label == "clockwise" and cls.area > 0.0 else 1.0, 0.0)
        if traj.model_name in ("dahl", "boucwen"):
            # acceptance criterion 4 claims loops that settle within 1e-4 after
            # three cycles for these models; exp_example settles more slowly
            # at this amplitude and is not claimed to
            settle = float(np.max(np.abs(np.diff(areas[2:])))) if areas.size >= 4 else math.inf
            res.check(label, "loop areas settle", settle, 1e-4)


class SingleLane:
    """The batch-of-one paths: a round of PointQueries, then a round of
    TimeMarch.  Both run scalar loops (scalar _march_branch, adaptive
    Simpson, scalar anhysteresis, core.simulate, mechsim), which a lockstep
    batching change skips and a batch-of-one rebuild could slow."""

    def __init__(self, seed, work_dir=None):
        self.parts = (PointQueries(seed), TimeMarch(seed))

    def run_round(self, wrap=_identity):
        res = RoundResult()
        for part in self.parts:
            res.merge(part.run_round(wrap))
        return res


WORKLOADS = {
    "verify_battery": VerifyBattery,
    "single_lane": SingleLane,
    "bruteforce": BruteForce,
}


def build(name, seed, work_dir):
    """Seeded inputs of one workload; writes nothing."""
    return WORKLOADS[name](seed, work_dir)
