import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatseries import quad
from heatseries.quad import AccuracyError, integrate_vec
from heatseries.specfun import hermite_batch
from references import half_line, hermite_moment, integrate, quad_settings, whole_line

SQRT_PI = math.sqrt(math.pi)


def _refinement_trace(f, lo, hi, levels: int = 6):
    """Successive refinement differences of a scalar integrand, level by level."""
    rule = quad._gl_rule(quad.NODES_PER_PANEL)
    edges = quad._panel_edges(lo, hi, 8, None)

    def vec(x):
        return np.asarray(f(x), dtype=float)[None, :]

    prev, _ = quad._level_sum(vec, edges, rule)
    trace = []
    for _ in range(levels):
        edges = quad._bisect(edges)
        cur, _ = quad._level_sum(vec, edges, rule)
        trace.append(float(np.abs(cur - prev)[0]))
        prev = cur
    return trace


def test_gaussian_integral_whole_line():
    val, err = integrate(lambda x: np.exp(-x * x), *whole_line(1 / math.sqrt(2)))
    assert val == pytest.approx(SQRT_PI, rel=1e-12)
    assert err <= 1e-10 * SQRT_PI + 1e-14


def test_constant_on_finite_interval():
    val, _ = integrate(lambda x: np.ones_like(x), 0.0, 3.0)
    assert val == pytest.approx(3.0, rel=1e-14)


def test_hermite_orthogonality_against_h0():
    val, _ = integrate(
        lambda x: hermite_batch(2, x)[2] * np.exp(-x * x),
        *whole_line(1 / math.sqrt(2)),
    )
    assert val == pytest.approx(0.0, abs=1e-12)


def test_half_line_truncation():
    val, _ = integrate(lambda x: x * np.exp(-x * x), *half_line(1.0))
    assert val == pytest.approx(0.5, rel=1e-12)


def test_empty_or_reversed_interval_rejected():
    for lo, hi in ((2.0, 2.0), (3.0, 2.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="need lo < hi"):
            integrate_vec(lambda x: x[None, :], lo, hi)


def test_nonconvergence_carries_best_estimate():
    # a needle far narrower than max_panels can resolve at the requested tol
    with quad_settings(REL_TOL=1e-13, ABS_TOL=1e-300, MAX_PANELS=8), pytest.raises(AccuracyError) as exc:
        integrate(lambda x: np.exp(-((x / 1e-4) ** 2)), -1.0, 1.0)
    assert np.isfinite(exc.value.value)
    assert exc.value.err_estimate >= 0.0


def test_hermite_moment_values():
    assert hermite_moment(0, 1.0) == pytest.approx(SQRT_PI, rel=1e-14)
    assert hermite_moment(2, 1.0) == 0.0
    assert hermite_moment(2, 0.5) == pytest.approx(math.sqrt(2 * math.pi) * 2.0, rel=1e-13)
    assert hermite_moment(3, 0.7) == 0.0
    with pytest.raises(ValueError):
        hermite_moment(2, 0.0)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
def test_hermite_moment_consistent_with_integrate(c):
    # the closed form against the quadrature engine, orders 0..12
    scale = 1.0 / math.sqrt(2.0 * c)
    vals, _ = integrate_vec(
        lambda x: hermite_batch(12, x) * np.exp(-c * x * x),
        *whole_line(scale),
    )
    for j in range(13):
        expected = hermite_moment(j, c)
        assert vals[j] == pytest.approx(expected, rel=1e-9, abs=5e-9 * max(1.0, abs(vals).max()))


def test_translation_invariance_with_recentered_domain():
    base, _ = integrate(lambda x: np.exp(-0.5 * x * x), *whole_line(1.0))
    for s in (-3.0, -1.0, 2.0, 3.0):
        shifted, _ = integrate(lambda x: np.exp(-0.5 * (x - s) ** 2), *whole_line(1.0, center=s))
        assert shifted == pytest.approx(base, rel=1e-11)
        # with the default (uncentered) window the 12-sigma margin still covers |s| <= 3
        uncentered, _ = integrate(lambda x: np.exp(-0.5 * (x - s) ** 2), *whole_line(1.0))
        assert uncentered == pytest.approx(base, rel=1e-10)


def test_monotone_refinement_on_gaussian_family():
    trace = _refinement_trace(
        lambda x: np.exp(-x * x), -8.0, 8.0, levels=5
    )
    floor = 64 * np.finfo(float).eps * SQRT_PI
    for a, b in zip(trace, trace[1:]):
        assert b <= a + floor


def test_breakpoints_resolve_piecewise_linear_integrand():
    nodes = np.linspace(-1.0, 1.0, 9)
    tent = lambda x: np.interp(x, nodes, np.abs(np.sin(3 * nodes)), left=0.0, right=0.0)
    exact = np.trapezoid(np.abs(np.sin(3 * nodes)), nodes)  # exact for a polyline
    val, _ = integrate(tent, -1.0, 1.0, breakpoints=nodes)
    assert val == pytest.approx(float(exact), rel=1e-13)


@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.2, max_value=2.5),
)
@settings(max_examples=25, deadline=None)
def test_gaussian_mass_closed_form_property(amp, center, sigma):
    # int amp e^{-(x-c)^2/(2 sig^2)} = amp sig sqrt(2 pi)
    val, _ = integrate(
        lambda x: amp * np.exp(-((x - center) ** 2) / (2 * sigma * sigma)),
        *whole_line(sigma, center=center),
    )
    assert val == pytest.approx(amp * sigma * math.sqrt(2 * math.pi), rel=1e-10)


def test_vector_integrand_shape_check():
    with pytest.raises(ValueError):
        integrate_vec(lambda x: np.ones(3), 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
def test_non_finite_level_sum_raises_at_once(bad):
    # no refinement mends a sum that is not finite: the first such level
    # raises OverflowError naming the interval, without a RuntimeWarning
    calls = []

    def f(x):
        calls.append(x.size)
        return np.stack([np.ones_like(x), np.full_like(x, bad)])

    with pytest.raises(OverflowError, match=r"not finite on \[0.0, 2.0\]"):
        integrate_vec(f, 0.0, 2.0)
    assert len(calls) == 1
