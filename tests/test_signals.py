import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duhem.signals import (
    InputSignal,
    ramp,
    random_piecewise_linear,
    rate_reparameterize,
    sine_sampled,
    triangle,
)


def test_signal_validation_rejects_nonzero_start():
    with pytest.raises(ValueError):
        InputSignal(np.array([1.0, 2.0]), np.array([0.0, 1.0]))


def test_signal_validation_rejects_nonincreasing_times():
    with pytest.raises(ValueError):
        InputSignal(np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))


def test_signal_validation_rejects_length_mismatch():
    with pytest.raises(ValueError):
        InputSignal(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))


def test_signal_arrays_are_readonly():
    sig = ramp(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sig.times[0] = -1.0


def test_value_interpolates_linearly():
    sig = InputSignal(np.array([0.0, 2.0, 3.0]), np.array([0.0, 4.0, 1.0]))
    assert sig.value(0.0) == 0.0
    assert sig.value(1.0) == 2.0
    assert sig.value(2.5) == 2.5
    assert sig.value(3.0) == 1.0


def test_segments_cover_signal_in_order():
    sig = triangle(1.0, 2)
    segs = list(sig.segments())
    assert len(segs) == sig.times.size - 1
    assert segs[0][0] == 0.0
    assert segs[-1][1] == sig.end_time
    for (t0, t1, u0, u1) in segs:
        assert t1 > t0
        assert sig.value(t0) == u0 and sig.value(t1) == u1


def test_triangle_geometry():
    sig = triangle(2.0, 5)
    assert sig.end_time == 40.0
    assert np.abs(np.diff(sig.values)).sum() == 40.0
    slopes = np.diff(sig.values) / np.diff(sig.times)
    assert np.allclose(np.abs(slopes), 1.0)


def test_triangle_custom_period():
    sig = triangle(1.0, 1, period=8.0)
    assert sig.end_time == 8.0
    assert sig.value(2.0) == 1.0 and sig.value(6.0) == -1.0


def test_sine_sampled_shape_and_extremes():
    sig = sine_sampled(1.5, periods=2, period=1.0, n_per_period=256, offset=0.3)
    assert sig.times.size == 2 * 256 + 1
    assert sig.values.max() == pytest.approx(1.8, abs=1e-3)
    assert sig.values.min() == pytest.approx(-1.2, abs=1e-3)


@pytest.mark.parametrize("bad", [
    dict(amplitude=-1.0),
    dict(periods=0),
    dict(period=0.0),
    dict(n_per_period=2),
])
def test_sine_sampled_rejects_bad_parameters(bad):
    kwargs = dict(amplitude=1.0, periods=1, period=1.0, n_per_period=256)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        sine_sampled(**kwargs)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_signal_rate_bounded_by_one(seed):
    sig = random_piecewise_linear(np.random.default_rng(seed), span=2.5)
    slopes = np.abs(np.diff(sig.values)) / np.diff(sig.times)
    assert (slopes <= 1.0 + 1e-12).all()
    assert np.abs(sig.values).max() <= 2.5 + 1e-12
    assert sig.values[0] == 0.0


def test_random_signal_respects_breakpoint_bounds(rng):
    for _ in range(50):
        sig = random_piecewise_linear(rng, n_breakpoints=(3, 6))
        assert 3 <= sig.times.size <= 6


def test_reparameterize_preserves_path():
    sig = triangle(1.0, 2)
    warp = InputSignal(np.array([0.0, sig.end_time]), np.array([0.0, 3.0 * sig.end_time]))
    out = rate_reparameterize(sig, warp)
    assert out.end_time == pytest.approx(3.0 * sig.end_time)
    # identical u-path sampled on the warped clock
    for t in np.linspace(0.0, sig.end_time, 97):
        s = np.interp(t, warp.times, warp.values)
        assert out.value(s) == pytest.approx(sig.value(t), abs=1e-12)


def test_reparameterize_inserts_interior_warp_knots():
    sig = ramp(0.0, 4.0, 4.0)
    warp = InputSignal(np.array([0.0, 1.0, 4.0]), np.array([0.0, 3.0, 4.0]))
    out = rate_reparameterize(sig, warp)
    assert out.times.size == 3
    assert out.value(3.0) == pytest.approx(1.0)
    assert out.values[-1] == 4.0


@pytest.mark.parametrize("warp_pairs,msg", [
    ([(0.0, 0.0), (1.0, 0.5)], "cover"),
    ([(0.0, 0.0), (2.0, -1.0)], "increasing"),
    ([(0.0, 0.5), (2.0, 3.0)], "map 0 to 0"),
])
def test_reparameterize_rejects_bad_warps(warp_pairs, msg):
    sig = ramp(0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match=msg):
        rate_reparameterize(sig, InputSignal(*np.array(warp_pairs).T))


@pytest.mark.parametrize("call, msg", [
    (lambda: InputSignal(np.zeros(0), np.zeros(0)), "at least one breakpoint"),
    (lambda: InputSignal(np.array([0.0, 1.0]), np.array([0.0, np.inf])), "must be finite"),
    (lambda: ramp(0.0, 1.0, 1.0).value(1.5), "outside signal domain"),
    (lambda: ramp(0.0, 1.0, 0.0), "duration must be positive"),
    (lambda: triangle(0.0, 1), "amplitude must be positive"),
    (lambda: triangle(1.0, 0), "at least one cycle"),
    (lambda: triangle(1.0, 1, period=-1.0), "period must be positive"),
    (lambda: rate_reparameterize(ramp(0.0, 1.0, 1.0), InputSignal([0.0], [0.0])), "two breakpoints"),
    (lambda: triangle(1.0, 2.5), r"cycles must be an integer, got 2\.5"),
    (lambda: sine_sampled(1.0, 1.5), r"periods must be an integer, got 1\.5"),
    (lambda: sine_sampled(1.0, 1, n_per_period=256.0), r"n_per_period must be an integer, got 256\.0"),
    # (0, 0) raised an IndexError, (1, 1) built an input of one breakpoint
    # and (2.5, 4) ran as if its bounds were integers
    *[
        (lambda b=b: random_piecewise_linear(np.random.default_rng(0), n_breakpoints=b),
         rf"bad breakpoint range {re.escape(repr(b))}: need integers 2 <= lo <= hi")
        for b in ((0, 0), (1, 1), (2.5, 4), (True, 3), (4, 3), 5, (2, 3, 4))
    ],
], ids=[
    "empty", "not-finite", "value-outside-domain", "ramp-duration", "triangle-amplitude",
    "triangle-cycles", "triangle-period", "one-breakpoint-warp", "triangle-cycles-not-integer",
    "sine-periods-not-integer", "sine-n-per-period-not-integer", "random-breakpoints-0-0",
    "random-breakpoints-1-1", "random-breakpoints-not-integer", "random-breakpoints-bool",
    "random-breakpoints-reversed", "random-breakpoints-int", "random-breakpoints-triple",
])
def test_each_signal_check_names_what_it_rejects(call, msg):
    # a count that is not an integer used to end in the TypeError of range
    # or np.linspace
    with pytest.raises(ValueError, match=msg):
        call()


def test_counts_take_numpy_integers():
    assert np.array_equal(triangle(1.0, np.int64(2)).times, triangle(1.0, 2).times)
    a = sine_sampled(1.0, np.int32(2), n_per_period=np.int64(8))
    b = sine_sampled(1.0, 2, n_per_period=8)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)
