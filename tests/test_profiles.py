import math

import numpy as np
import pytest

from heatseries.profiles import (
    Bump,
    Gaussian,
    Sampled1D,
    estimate_scale_line,
    estimate_scale_polar,
    format_profile,
    parse_profile,
    profile_support,
)
from heatseries.quad import BLOCK_NODES


def test_gaussian_basicities():
    g = Gaussian(width_a=1.0, center=0.5, amplitude=2.0)
    assert g(0.5) == pytest.approx(2.0)
    assert g(np.array([0.5, 2.5]))[1] == pytest.approx(2.0 * np.exp(-1.0))
    with pytest.raises(ValueError):
        Gaussian(width_a=0.0)


def test_gaussian_is_zero_far_out_without_a_warning():
    # the square overflows to inf beyond |x - center| ~ 1.3e154
    g = Gaussian(width_a=1.0, center=-1e300, amplitude=1e300)
    x = np.array([-1e300, 0.0, 1e300, 1.7e308, -np.inf, np.inf])
    assert g(x).tolist() == [1e300, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_bump_compact_support():
    b = Bump(center=1.0, radius=0.5, amplitude=3.0)
    assert b(1.0) == pytest.approx(3.0)
    assert b(1.5) == 0.0
    assert b(np.array([0.4, 1.6])).tolist() == [0.0, 0.0]
    lo, hi = profile_support(b)
    assert (lo, hi) == (0.5, 1.5)


def test_bump_is_zero_far_out_without_a_warning():
    # the square overflows to inf beyond |x - center| ~ 1.3e154 radii
    b = Bump(center=1e300, radius=1.0)
    x = np.array([-1.0, 0.0, 1e300, -1.7e308, -np.inf, np.inf])
    assert b(x).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]


def test_sampled_interpolation_and_zero_extension():
    s = Sampled1D(0.0, 1.0, np.array([0.0, 1.0, 0.0]))
    assert s(0.25) == pytest.approx(0.5)
    assert s(-0.1) == 0.0
    assert s(1.1) == 0.0
    assert s.spacing == pytest.approx(0.5)
    for lo, hi, values in ((0.0, 1.0, [1.0]), (0.0, math.inf, [1.0, 2.0, 1.0]), (-math.inf, 0.0, [1.0, 2.0]),
                           (math.nan, 1.0, [1.0, 2.0]), (-1.7e308, 1.7e308, [1.0, 2.0, 1.0])):
        with pytest.raises(ValueError):
            Sampled1D(lo, hi, np.array(values))


def _trapezoid_rows(xi):
    """xi^2/2 and xi: the second and first antiderivatives of 1."""
    return np.vstack([0.5 * xi * xi, xi])


def test_by_parts_integrates_the_interpolant():
    # integrating 1 by parts twice: sum_i w_i xi_i^2/2 + f_m xi_m - f_0 xi_0 = int f
    data = Sampled1D.from_function(Gaussian(0.3, center=0.4), -1.5, 2.5, 1001)
    total, first, last = data.by_parts(_trapezoid_rows)
    integral = total[0] + data.values[-1] * last[1] - data.values[0] * first[1]
    assert integral == pytest.approx(np.trapezoid(data.values, data.nodes), rel=4 * np.finfo(float).eps)
    np.testing.assert_array_equal(first, _trapezoid_rows(data.nodes[:1])[:, 0])
    np.testing.assert_array_equal(last, _trapezoid_rows(data.nodes[-1:])[:, 0])


def test_by_parts_blocks_agree_and_longdouble_sums():
    # 4099 nodes (a prime): every step's last block is short.  The sums agree
    # within 8 eps of the terms' magnitudes; step 1 adds term by term, whose
    # rounding grows with the node count (27 eps at 5001 nodes)
    data = Sampled1D.from_function(Gaussian(0.3, center=0.4), -1.5, 2.5, 4099)
    jumps = np.diff(np.diff(data.values) / np.diff(data.nodes), prepend=0.0, append=0.0)
    size = np.abs(_trapezoid_rows(data.nodes)) @ np.abs(jumps)
    exact, _, _ = data.by_parts(_trapezoid_rows, dtype=np.longdouble)
    assert exact.dtype == np.longdouble
    for step in (1, 7, 256, BLOCK_NODES):
        total, _, _ = data.by_parts(_trapezoid_rows, step=step)
        assert np.all(np.abs(total - exact) <= 8 * np.finfo(float).eps * size)


def test_sampled_noise_reproducible():
    s = Sampled1D.from_function(Gaussian(width_a=1.0), -4.0, 4.0, 101)
    a = s.with_noise(1e-3, np.random.default_rng(7))
    b = s.with_noise(1e-3, np.random.default_rng(7))
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, s.values)


def test_noise_that_overflows_a_sample_is_infinite_without_a_warning():
    # 1e308 times a draw past about 1.798 in magnitude overflows
    s = Sampled1D(-1.0, 1.0, np.zeros(401))
    z = np.random.default_rng(1).standard_normal(401)
    noisy = s.with_noise(1e308, np.random.default_rng(1))
    big, small = np.abs(z) > 1.8, np.abs(z) < 1.79
    assert np.any(big) and np.all(np.isinf(noisy.values[big]))
    assert noisy.values[small].tolist() == (1e308 * z[small]).tolist()


def test_scale_estimates_recover_gaussian_width():
    for a in (0.5, 1.0, 2.0):
        assert estimate_scale_line(Gaussian(width_a=a)) == pytest.approx(a, rel=1e-6)
        assert estimate_scale_polar(Gaussian(width_a=a)) == pytest.approx(a, rel=1e-6)


def test_scale_estimate_rejects_zero_mass():
    flat = Sampled1D(-1.0, 1.0, np.zeros(11))
    with pytest.raises(ValueError):
        estimate_scale_line(flat)


def test_profile_language_round_trip():
    for text in (
        "gaussian:a=1",
        "gaussian:a=0.5,center=-1,amp=2",
        "bump:center=0,radius=1,amp=1",
        "mixture:[a=1,center=0,amp=1; a=0.5,center=2,amp=0.4]",
    ):
        prof = parse_profile(text)
        again = parse_profile(format_profile(prof))
        xs = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_array_equal(prof(xs), again(xs))


@pytest.mark.parametrize(
    "bad",
    [
        "gaussian",
        "gaussian:b=1",
        "gaussian:a=abc",
        "mixture:a=1",
        "what:a=1",
        "bump:center=0",
    ],
)
def test_profile_language_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_profile(bad)
