import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import illinois_passes

from duhem.integrate import (
    BracketError,
    QuadratureError,
    adaptive_simpson,
    gauss_legendre,
    bisect,
    bisect_on_interval_vec,
    expand_bracket,
    hermite_eval,
    hermite_integral,
    hermite_partial_integral,
    rk4_step,
)


def _rk4(f, y, x, h, k1):
    """rk4_step from (y, x) with its stage inputs computed as a march does."""
    half = 0.5 * h
    return rk4_step(f, y, k1, x + half, x + h, half, h, h / 6.0)


def test_rk4_step_exponential_accuracy():
    # one step of size h leaves an O(h^5) defect: ~8.5e-8 at h = 0.1
    f = lambda y, x: y
    y = _rk4(f, 1.0, 0.0, 0.1, f(1.0, 0.0))
    assert y == pytest.approx(math.exp(0.1), abs=2e-7)


def test_rk4_step_backwards():
    f = lambda y, x: y
    y = _rk4(f, math.exp(0.1), 0.1, -0.1, f(math.exp(0.1), 0.1))
    assert y == pytest.approx(1.0, abs=2e-7)


def test_rk4_step_is_the_step_from_x_and_h_bit_for_bit():
    # The step that computed its own stage inputs from (x, h), written out.
    def step_from_x(f, y, x, h, k1):
        half = 0.5 * h
        xm = x + half
        k2 = f(y + half * k1, xm)
        k3 = f(y + half * k2, xm)
        k4 = f(y + h * k3, x + h)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    f = lambda y, x: math.sin(3.0 * y) - 0.7 * y * x
    f_vec = lambda y, x: np.sin(3.0 * y) - 0.7 * y * x
    rng = np.random.default_rng(11)
    for _ in range(200):
        y, x = rng.uniform(-2.0, 2.0, 2)
        h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -0.5))
        y, x = float(y), float(x)
        k1 = f(y, x)
        got = _rk4(f, y, x, h, k1)
        assert type(got) is float
        assert got.hex() == step_from_x(f, y, x, h, k1).hex()

    y = rng.uniform(-2.0, 2.0, 300)
    x = rng.uniform(-3.0, 3.0, 300)
    h = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-4.0, -0.5, 300)
    h[::7] = 0.0  # frozen lanes
    k1 = f_vec(y, x)
    got = _rk4(f_vec, y, x, h, k1)
    assert got.tobytes() == step_from_x(f_vec, y, x, h, k1).tobytes()
    assert (got[::7] == y[::7]).all()


def test_hermite_reproduces_cubics_exactly():
    # p(x) = x^3 - 2x with p' = 3x^2 - 2 on [0.5, 1.7]
    p = lambda x: x**3 - 2.0 * x
    dp = lambda x: 3.0 * x**2 - 2.0
    xL, xR = 0.5, 1.7
    xs = np.linspace(xL, xR, 13)
    vals = hermite_eval(xs, xL, xR, p(xL), p(xR), dp(xL), dp(xR))
    assert np.abs(vals - p(xs)).max() < 1e-13
    exact = (xR**4 / 4.0 - xR**2) - (xL**4 / 4.0 - xL**2)
    assert hermite_integral(xL, xR, p(xL), p(xR), dp(xL), dp(xR)) == pytest.approx(
        exact, abs=1e-13
    )


def test_hermite_partial_integral_matches_full_at_right_edge():
    args = (0.0, 1.0, 0.2, -0.4, 1.0, 0.5)
    full = hermite_integral(*args)
    assert hermite_partial_integral(1.0, *args) == pytest.approx(full, abs=1e-15)
    assert hermite_partial_integral(0.0, *args) == 0.0
    # midpoint value consistent with fine trapezoid of the interpolant
    xs = np.linspace(0.0, 0.6, 20001)
    ref = np.trapezoid(hermite_eval(xs, *args), xs)
    assert hermite_partial_integral(0.6, *args) == pytest.approx(ref, abs=1e-9)


def test_adaptive_simpson_on_sine():
    val = adaptive_simpson(math.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_adaptive_simpson_signed_reversal():
    fwd = adaptive_simpson(lambda x: x * x, 0.0, 2.0, 1e-12)
    rev = adaptive_simpson(lambda x: x * x, 2.0, 0.0, 1e-12)
    assert fwd == pytest.approx(8.0 / 3.0, abs=1e-10)
    assert rev == pytest.approx(-fwd, abs=1e-12)
    assert adaptive_simpson(math.sin, 1.0, 1.0, 1e-12) == 0.0


@pytest.mark.parametrize("tol", [math.inf, 0.0, -1e-12, math.nan])
def test_adaptive_simpson_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # tol = inf accepted the first 3-point Simpson step, and 0 or NaN ran
    # the depth budget out into a QuadratureError
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        adaptive_simpson(math.sin, 0.0, math.pi, tol)


def test_adaptive_simpson_depth_budget():
    spike = lambda x: 1.0 / math.sqrt(abs(x) + 1e-300)
    with pytest.raises(QuadratureError):
        adaptive_simpson(spike, 0.0, 1.0, 1e-14, max_depth=8)


def test_bisect_finds_cosine_root():
    root = bisect(math.cos, 0.0, 2.0)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_bisect_honors_ftol():
    calls = []

    def g(x):
        calls.append(x)
        return x - 0.3

    root = bisect(g, 0.0, 1.0, ftol=1e-3)
    assert abs(root - 0.3) < 1e-3
    assert len(calls) < 20


def test_bisect_returns_exact_endpoint_roots():
    assert bisect(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_rejects_unbracketed_interval():
    with pytest.raises(BracketError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


@given(st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_expand_bracket_then_bisect_recovers_root(r):
    g = lambda x: x - r
    a, b = expand_bracket(g, 0.0, 0.5)
    assert g(a) * g(b) <= 0.0
    assert bisect(g, a, b) == pytest.approx(r, abs=1e-12)


def test_expand_bracket_respects_limits():
    with pytest.raises(BracketError):
        expand_bracket(lambda x: x - 5.0, 0.0, 0.5, lo_limit=-1.0, hi_limit=1.0)


def test_expand_bracket_immediate_zero():
    assert expand_bracket(lambda x: x, 0.0, 1.0) == (0.0, 0.0)


def test_vector_bisection_independent_roots():
    roots = np.array([0.2, -1.3, 2.7])
    g = lambda x: x - roots
    out = bisect_on_interval_vec(g, roots - 1.0, roots + 1.0, iters=80)
    assert np.abs(out - roots).max() < 1e-14


def test_root_finder_stops_early_only_at_a_fixed_point():
    # the finder ends its passes once one leaves every bracket unchanged;
    # the written-out passes of the oracle never stop early, and give the
    # same bits at every pass count: brackets in both orders, roots near 0
    # and at an end, an exact zero inside, NaN residuals on part of a
    # bracket, a bracket of adjacent floats and one of zero width
    rng = np.random.default_rng(41)
    roots = np.concatenate([rng.uniform(-2.0, 2.0, 40), [0.0, 1e-300, -3e-17]])
    a = roots - rng.uniform(1e-3, 1.0, roots.size)
    b = roots + rng.uniform(1e-3, 1.0, roots.size)
    a[::2], b[::2] = b[::2].copy(), a[::2].copy()
    a = np.concatenate([a, [0.25, 0.0, -1.0, 1.0, np.nextafter(1.0, 2.0), 0.5]])
    b = np.concatenate([b, [1.0, 0.5, 3.0, np.nextafter(1.0, 2.0), 1.0, 0.5]])
    roots = np.concatenate([roots, [1.0, 0.25, 0.0, 1.0, 1.0, 0.5]])
    g = lambda x: np.where(x < -0.5, np.sqrt(x + 0.5), 1.0) * np.sinh(x - roots) * (1.0 + x * x)
    with np.errstate(invalid="ignore"):
        for passes in (1, 3, 8, 30, 80):
            want = illinois_passes(g, a, b, passes)
            # the whole batch, and each bracket alone, which stops as soon as
            # its own bracket is fixed
            got = bisect_on_interval_vec(g, a, b, iters=passes)
            assert got.tobytes() == want.tobytes(), passes
            for k in range(a.size):
                one = lambda x, k=k: g(np.full(a.size, x[0]))[k : k + 1]
                alone = bisect_on_interval_vec(one, a[k : k + 1], b[k : k + 1], iters=passes)
                assert alone.tobytes() == want[k : k + 1].tobytes(), (passes, k)
        # converged: every root whose bracket has no NaN within 2 ulps
        ok = np.isfinite(g(a)) & np.isfinite(g(b))
    assert ok.sum() >= 30
    assert (np.abs(got - roots) <= 2.0 * np.spacing(np.abs(roots)) + 1e-300)[ok].all()


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_gauss_legendre_integrates_polynomials_to_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    assert (np.diff(x) > 0.0).all() and (w > 0.0).all()
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.sum(w * x**k) - exact) <= 8e-16, k
    # numpy's rule (whose weights are the less accurate of the two: 7e-14
    # against 8e-15 relative at n = 20, by a 40-digit reference)
    X, W = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - X).max() <= 2e-16
    assert (np.abs(w - W) / W).max() <= 1e-13
