"""Self-tests of the benchmark's own logic.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import closed_forms  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from duhem import core, curves, models, signals, storage  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children():
    t = tracing.Tracer(clock=_fake_clock([0, 10, 40, 50, 60, 100]))
    outer = t.push("outer")
    a = t.push("a")
    t.pop(a)
    b = t.push("b")
    t.pop(b)
    t.pop(outer)
    assert dict(t.self_ns) == {"outer": 60, "a": 30, "b": 10}
    assert dict(t.total_ns) == {"outer": 100, "a": 30, "b": 10}
    assert sum(t.self_ns.values()) == 100


def test_self_time_nonnegative_and_bounded_by_wall():
    t = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_span = t.span("leaf", leaf)

    def mid():
        leaf_span()
        leaf_span()

    mid_span = t.span("mid", mid)
    top_span = t.span("top", lambda: [mid_span() for _ in range(3)])
    start = time.perf_counter_ns()
    top_span()
    wall = time.perf_counter_ns() - start
    assert t.calls == {"leaf": 6, "mid": 3, "top": 1}
    assert all(v >= 0 for v in t.self_ns.values())
    assert sum(t.self_ns.values()) == t.total_ns["top"] <= wall
    assert t.self_ns["leaf"] >= 6 * 2_000_000


def test_span_closes_on_exception():
    t = tracing.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.span("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert t.calls["boom"] == 1 and not t._stack


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _calls():
    dahl = models.dahl()
    exp_solver = dataclasses.replace(models.exp_example(), f_an=None)
    p = curves.PhasePoint(0.3, 0.4)
    return [
        lambda wrap: _bits(storage.storage_cw(wrap(dahl), p).value),
        lambda wrap: _bits(storage.storage_cw(wrap(exp_solver), curves.PhasePoint(0.5, -0.2)).value),
        lambda wrap: _bits(curves.ride_to_crossing(wrap(dahl), np.array([0.3, -0.2]),
                                                   np.array([0.1, 0.5])).integral),
        lambda wrap: _bits(core.simulate(wrap(dahl), signals.triangle(1.0, 1), 0.1, step=1e-2).y),
        lambda wrap: _bits(storage.available_storage_bruteforce(
            wrap(dahl), p, storage.SignalFamily(n_random=3, seed=1), horizon=2.0).per_signal),
    ]


def test_wrappers_return_results_unchanged_bit_for_bit():
    plain = [call(lambda m: m) for call in _calls()]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        traced = [call(tracer.instrument_model) for call in _calls()]
    assert plain == traced
    assert tracer.calls["curves.refine"] > 0 and tracer.counts["models.field_calls"] > 0
    assert tracer.counts["integrate.bisect.calls"] > 0  # the solver path ran


def test_field_wrapper_returns_the_same_object():
    tracer = tracing.Tracer()
    model = tracer.instrument_model(models.exp_example())
    sigma = np.linspace(-1.0, 1.0, 7)
    a = models.exp_example().f1(sigma, 0.5)
    b = model.f1(sigma, 0.5)
    assert _bits(a) == _bits(b)
    assert tracer.counts["models.field_calls"] == 1 and tracer.counts["models.field_points"] == 7


def test_instrumentation_restores_the_modules():
    before = (curves.ride_to_crossing, storage.ride_to_crossing, curves.bisect_on_interval_vec,
              core.rk4_step, models.model_from_config)
    with tracing.Instrumentation(tracing.Tracer()):
        assert storage.ride_to_crossing is curves.ride_to_crossing is not before[0]
    after = (curves.ride_to_crossing, storage.ride_to_crossing, curves.bisect_on_interval_vec,
             core.rk4_step, models.model_from_config)
    assert all(x is y for x, y in zip(before, after))


def test_p90_needs_ten_ops_beyond_it():
    for n in (1, 50, 99):
        _, p50, p90, beyond = run.latency_summary([i / 1000.0 for i in range(n)])
        assert p50 is not None and p90 is None and beyond < 10
    n, p50, p90, beyond = run.latency_summary([i / 1000.0 for i in range(100)])
    assert (n, beyond) == (100, 10)
    assert math.isclose(p90, 89.0) and math.isclose(p50, 49.0)
    assert run.latency_summary([]) == (0, None, None, 0)


def test_timed_units_brackets_every_unit_with_reference_runs(monkeypatch):
    ref_times = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(workloads, "time_reference", lambda: next(ref_times))
    monkeypatch.setattr(workloads, "REFERENCE_GAP_S", 0.015)

    def boom():
        raise ValueError("x")

    # the gap is reached after the second call, and the last call closes
    outputs, seconds, refs = workloads.timed_units(
        [lambda: time.sleep(0.01), lambda: time.sleep(0.01) or 7, boom])
    assert outputs[1] == 7 and isinstance(outputs[2], ValueError)
    assert len(seconds) == 3 and seconds[0] >= 0.01
    assert refs == [2.0, 2.0, 4.0]


class _Round:
    def __init__(self, seconds, refs):
        self.unit_seconds, self.unit_refs = seconds, refs


def test_reference_cost_cancels_a_uniform_change_of_speed():
    # the same two units on a machine at full, two-thirds and half speed
    rounds = [_Round([1.0, 3.0], [0.02, 0.02]), _Round([1.5, 4.5], [0.03, 0.03]),
              _Round([2.0, 6.0], [0.04, 0.04])]
    assert math.isclose(run.reference_round_cost(rounds), 200.0)
    # a burst of load that hit one unit but not its reference run is left out
    rounds.append(_Round([9.0, 3.0], [0.02, 0.02]))
    rounds.append(_Round([9.0, 3.0], [0.02, 0.02]))
    assert math.isclose(run.reference_round_cost(rounds), 200.0)


def test_closed_forms_are_consistent():
    # the crossing is a zero of the traversing curve, and the storage is
    # minus the curve's integral from xi to the crossing (midpoint rule)
    for sigma, xi in ((0.4, 0.3), (-0.6, -1.0), (0.05, 2.0)):
        lam = closed_forms.crossing(sigma, xi)
        assert abs(closed_forms.traversing(lam, sigma, xi)) < 1e-12
        n = 20000
        h = (lam - xi) / n
        integral = h * sum(closed_forms.traversing(xi + (k + 0.5) * h, sigma, xi) for k in range(n))
        assert math.isclose(-integral, closed_forms.storage(sigma), rel_tol=1e-6)
    out = closed_forms.breakpoint_outputs([0.0, 1.0, -1.0], 0.2)
    assert math.isclose(out[1], closed_forms.traversing(1.0, 0.2, 0.0))


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
