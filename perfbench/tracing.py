"""Span tracing at the boundaries of the ``duhem`` modules.

The traced run rebinds, for the duration of one workload round, every name
under which a ``duhem`` module (or the package itself) holds one of the
public functions listed in ``SPANS`` or ``COUNTS``, so intra-module calls
(module globals) and cross-module calls (imported names) both go through the
wrapper.  The slope fields of the models the benchmark hands in are wrapped
too, by ``Tracer.instrument_model``.  Nothing under ``src/`` is edited.

Spans are aggregated as they close: a span's self time is its duration minus
the durations of its direct children, computed on integer nanoseconds so it
is never negative and the self times of all spans add up to the time covered
by the outermost ones.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

import duhem

# Modules whose namespaces are rebound; the package namespace re-exports most
# public functions.
MODULES = ("core", "curves", "storage", "integrate", "dissipativity",
           "mechsim", "signals", "models", "cli")


def _lanes(arg_index):
    def extract(args, result):
        return {"lanes": int(np.size(args[arg_index]))}
    return extract


# span name -> (defining module, function, modules whose binding is wrapped
# (None: every binding), extra counters from (args, result))
SPANS = {
    "core.simulate": ("core", "simulate", None,
                      lambda a, r: {"samples": r.n_samples}),
    "core.check_existence_conditions": ("core", "check_existence_conditions", None, None),
    "curves.ride_to_crossing": ("curves", "ride_to_crossing", None,
                                lambda a, r: {"lanes": int(np.size(a[1])),
                                                 "steps": int(np.sum(r.steps))}),
    # the crossing refinement: the calls from curves into the vector bisection
    "curves.refine": ("integrate", "bisect_on_interval_vec", ("curves",), _lanes(1)),
    "curves.anhysteresis": ("curves", "anhysteresis", None, None),
    "curves.anhysteresis_values": ("curves", "anhysteresis_values", None, None),
    "curves.intersect_lambda": ("curves", "intersect_lambda", None, None),
    "curves.traversing_curve": ("curves", "traversing_curve", None, None),
    "curves.check_lemma1": ("curves", "check_lemma1", None, None),
    "storage.storage_cw": ("storage", "storage_cw", None, None),
    "storage.storage_cw_batch": ("storage", "storage_cw_batch", None, _lanes(1)),
    "storage.available_storage_bruteforce": ("storage", "available_storage_bruteforce", None,
                                             lambda a, r: {"lanes": r.n_signals}),
    "integrate.adaptive_simpson": ("integrate", "adaptive_simpson", None, None),
    "dissipativity.verify_dissipation_pair": ("dissipativity", "verify_dissipation_pair", None, None),
    "dissipativity.check_assumption_A": ("dissipativity", "check_assumption_A", None, None),
    "dissipativity.loop_orientation": ("dissipativity", "loop_orientation", None, None),
    "dissipativity.loop_areas": ("dissipativity", "loop_areas", None, None),
    "mechsim.simulate_mech": ("mechsim", "simulate_mech", None,
                              lambda a, r: {"steps": int(r.t.size) - 1}),
    "mechsim.lyapunov_check": ("mechsim", "lyapunov_check", None, None),
    "mechsim.passivity_port_check": ("mechsim", "passivity_port_check", None, None),
    "signals.random_piecewise_linear": ("signals", "random_piecewise_linear", None, None),
    "cli.main": ("cli", "main", None, None),
}

# Functions too hot for a span: counted only.
COUNTS = {
    "integrate.bisect": ("integrate", "bisect"),
    "integrate.expand_bracket": ("integrate", "expand_bracket"),
    "integrate.rk4_step": ("integrate", "rk4_step"),
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("core.simulate.calls", "count", "lower"),
    ("core.simulate.samples", "count", "lower"),
    ("core.simulate.self_s", "s", "lower"),
    ("core.check_existence_conditions.self_s", "s", "lower"),
    ("curves.ride_to_crossing.calls", "count", "lower"),
    ("curves.ride_to_crossing.lanes", "count", "lower"),
    ("curves.ride_to_crossing.steps", "count", "lower"),
    ("curves.ride_to_crossing.self_s", "s", "lower"),
    ("curves.refine.calls", "count", "lower"),
    ("curves.refine.lanes", "count", "lower"),
    ("curves.refine.lanes_per_call", "lanes/call", "higher"),
    ("curves.refine.self_s", "s", "lower"),
    ("curves.anhysteresis.calls", "count", "lower"),
    ("curves.anhysteresis.self_s", "s", "lower"),
    ("curves.anhysteresis_values.calls", "count", "lower"),
    ("curves.anhysteresis_values.self_s", "s", "lower"),
    ("curves.intersect_lambda.self_s", "s", "lower"),
    ("curves.traversing_curve.self_s", "s", "lower"),
    ("curves.check_lemma1.self_s", "s", "lower"),
    ("storage.storage_cw.calls", "count", "lower"),
    ("storage.storage_cw.self_s", "s", "lower"),
    ("storage.storage_cw_batch.calls", "count", "lower"),
    ("storage.storage_cw_batch.lanes", "count", "lower"),
    ("storage.storage_cw_batch.self_s", "s", "lower"),
    ("storage.available_storage_bruteforce.calls", "count", "lower"),
    ("storage.available_storage_bruteforce.lanes", "count", "lower"),
    ("storage.available_storage_bruteforce.self_s", "s", "lower"),
    ("integrate.adaptive_simpson.calls", "count", "lower"),
    ("integrate.adaptive_simpson.self_s", "s", "lower"),
    ("integrate.bisect.calls", "count", "lower"),
    ("integrate.expand_bracket.calls", "count", "lower"),
    ("integrate.rk4_step.calls", "count", "lower"),
    ("dissipativity.verify_dissipation_pair.calls", "count", "lower"),
    ("dissipativity.verify_dissipation_pair.self_s", "s", "lower"),
    ("dissipativity.check_assumption_A.self_s", "s", "lower"),
    ("dissipativity.loop_orientation.self_s", "s", "lower"),
    ("dissipativity.loop_areas.self_s", "s", "lower"),
    ("mechsim.simulate_mech.calls", "count", "lower"),
    ("mechsim.simulate_mech.steps", "count", "lower"),
    ("mechsim.simulate_mech.self_s", "s", "lower"),
    ("mechsim.lyapunov_check.self_s", "s", "lower"),
    ("mechsim.passivity_port_check.self_s", "s", "lower"),
    ("signals.random_piecewise_linear.calls", "count", "lower"),
    ("signals.random_piecewise_linear.self_s", "s", "lower"),
    ("models.field_calls", "count", "lower"),
    ("models.field_points", "count", "lower"),
    ("models.points_per_call", "points/call", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class Tracer:
    """In-memory span aggregator for one single-threaded run.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._stack = []  # open spans: [name, start_ns, child_ns]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)

    def push(self, name):
        frame = [name, self.clock(), 0]
        self._stack.append(frame)
        return frame

    def pop(self, frame):
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        name, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name, fn, extra=None):
        """Wrap fn in a span named name; extra(args, result) returns counters
        added under ``<name>.<key>``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop(frame)
            if extra is not None:
                for key, value in extra(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call only increments ``<name>.calls``."""
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def field(self, fn):
        """Wrap a slope field so calls and evaluated points are counted."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            counts["models.field_calls"] += 1
            counts["models.field_points"] += result.size if type(result) is np.ndarray else 1
            return result

        return wrapper

    def instrument_model(self, model):
        """Copy of a DuhemModel whose f1, f2 and f_an are counted."""
        return dataclasses.replace(
            model,
            f1=self.field(model.f1),
            f2=self.field(model.f2),
            f_an=None if model.f_an is None else self.field(model.f_an),
        )


class Instrumentation:
    """Context manager that rebinds the traced names of the duhem modules
    and restores the originals on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._modules = {name: importlib.import_module(f"duhem.{name}") for name in MODULES}
        self._namespaces = [duhem, *self._modules.values()]
        self._saved = []

    def _rebind(self, home, attr, wrapper, only):
        original = getattr(self._modules[home], attr)
        targets = self._namespaces if only is None else [self._modules[m] for m in only]
        for ns in targets:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, key, value))
                    setattr(ns, key, wrapper)

    def __enter__(self):
        t = self.tracer
        for name, (home, attr, only, extra) in SPANS.items():
            fn = getattr(self._modules[home], attr)
            self._rebind(home, attr, t.span(name, fn, extra), only)
        for name, (home, attr) in COUNTS.items():
            self._rebind(home, attr, t.counter(name, getattr(self._modules[home], attr)), None)
        # models the CLI builds from its config come back instrumented
        build = self._modules["models"].model_from_config

        def model_from_config(config):
            return t.instrument_model(build(config))

        self._rebind("models", "model_from_config", model_from_config, None)
        return self

    def __exit__(self, *exc):
        for ns, key, value in reversed(self._saved):
            setattr(ns, key, value)
        self._saved.clear()
        return False


def layer_metrics(tracer, rounds, overhead_frac):
    """Per-layer metric values per round from a tracer that ran `rounds`
    identical traced rounds."""
    calls = dict(tracer.calls)
    counts = dict(tracer.counts)
    for name, value in calls.items():
        counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + value
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name.endswith(".self_s"):
            value = tracer.self_ns.get(name[: -len(".self_s")], 0) / 1e9 / rounds
        elif name == "curves.refine.lanes_per_call":
            n = counts.get("curves.refine.calls", 0)
            value = counts.get("curves.refine.lanes", 0) / n if n else 0.0
        elif name == "models.points_per_call":
            n = counts.get("models.field_calls", 0)
            value = counts.get("models.field_points", 0) / n if n else 0.0
        else:
            value = counts.get(name, 0) / rounds
        out[name] = {"value": value, "unit": unit}
    return out
