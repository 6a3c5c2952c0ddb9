import math

import numpy as np
import pytest

from heatseries.kernels import evolve_polar, forward_polar
from heatseries.profiles import Gaussian, Mixture, Sampled1D
from heatseries.series_cartesian import default_beta
from heatseries.series_polar import (
    pd_coeffs,
    pd_eval,
    pi_coeffs,
    pi_eval,
    solve_grid_polar,
)
from heatseries.specfun import KernelParams
from references import w_poly_coefficients


def value(series):
    """The full-order sum at the first radius of an evaluation."""
    return float(series.values(series.order)[0])


RADIAL_MIX = Mixture(
    (Gaussian(width_a=0.9, amplitude=1.0), Gaussian(width_a=1.3, amplitude=0.8))
)


def radial_moment_symbolic(j, root, a, amp=1.0):
    """int_0^inf xi W_j(xi/(2 root)) amp e^{-xi^2/(4a)} dxi via the monomial
    coefficients of W_j and int_0^inf xi^{2k+1} e^{-xi^2/(4a)} dxi = k!/2 (4a)^{k+1}."""
    coeffs = w_poly_coefficients(j)
    total = 0.0
    for k in range(j + 1):
        odd_moment = 0.5 * math.factorial(k) * (4.0 * a) ** (k + 1)
        total += coeffs[k] * odd_moment / (2.0 * root) ** (2 * k)
    return amp * total


# --- coefficients -------------------------------------------------------------

def test_pd_a_moments_match_symbolic_oracle():
    params = KernelParams(tau=0.5, beta=0.7)
    g = Gaussian(width_a=1.0)
    got = pd_coeffs("PD-A", g, params, 8)
    for j in range(9):
        expected = radial_moment_symbolic(j, math.sqrt(params.beta), 1.0)
        assert got[j] == pytest.approx(expected, rel=1e-9, abs=1e-9 * abs(got[0]))


def test_pd_a_moments_vanish_at_matched_scale():
    # cancellation is exact in exact arithmetic; in doubles the attainable
    # floor grows with the order (the integrand's lobes reach ~1e8 by j = 8),
    # so the 1e-10 bound is asserted through order 6
    params = KernelParams(tau=0.5, beta=1.0)
    g = Gaussian(width_a=1.0)
    got = pd_coeffs("PD-A", g, params, 6)
    assert got[0] == pytest.approx(2.0, rel=1e-10)  # radial mass 2a
    assert np.all(np.abs(got[1:]) <= 1e-10 * abs(got[0]))
    # symbolic cancellation of the matched-scale moments, order by order
    for j in (1, 2, 3):
        assert radial_moment_symbolic(j, 1.0, 1.0) == pytest.approx(0.0, abs=1e-8)


def test_pd_c_center_coeffs_reduce_to_pi_times_radial():
    params = KernelParams(tau=0.4, beta=0.8)
    g = Gaussian(width_a=1.2)
    radial = pd_coeffs("PD-A", g, KernelParams(tau=0.4, beta=0.8), 6)
    angular = pd_coeffs("PD-C", g, params, 6, r_center=0.0)
    np.testing.assert_allclose(angular, math.pi * radial, rtol=1e-9)


def test_pi_coeffs_scales_swapped():
    tau = 0.3
    u = evolve_polar(Gaussian(width_a=1.0), tau)  # width 1.3
    params = KernelParams(tau=tau, beta=1.0)  # sqrt(tau+beta) matches width
    got = pi_coeffs("PI-A", u, params, 5)
    assert np.all(np.abs(got[1:]) <= 1e-10 * abs(got[0]))
    # PI-C at r_center = 0 carries the angular factor pi
    ang = pi_coeffs("PI-C", u, params, 5, r_center=0.0)
    np.testing.assert_allclose(ang, math.pi * got, rtol=1e-9, atol=1e-10 * abs(got[0]))


# --- direct evaluation ---------------------------------------------------------

def test_pd_a_order_zero_exact_at_matched_scale():
    # beta = a makes the order-zero series equal the oracle everywhere
    g = Gaussian(width_a=1.0)
    params = KernelParams(tau=0.5, beta=1.0)
    coeffs = pd_coeffs("PD-A", g, params, 0)
    val = value(pd_eval("PD-A", coeffs, params, 0.0))
    assert val == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert val == pytest.approx(forward_polar(g, 0.5, 0.0), rel=1e-9)


@pytest.mark.parametrize("variant", ["PD-A", "PD-B", "PD-C"])
def test_direct_polar_series_match_oracle(variant):
    tau = 0.5
    params = KernelParams(tau=tau, beta=default_beta(variant, 1.0, tau))
    g = Gaussian(width_a=1.0)
    rs = np.linspace(0.0, 3.0, 7)
    series = solve_grid_polar(variant, g, params, 40, rs)
    oracle = forward_polar(g, tau, rs)
    scale = float(np.max(np.abs(oracle)))
    np.testing.assert_allclose(series.values(40), oracle, rtol=0.0, atol=1e-6 * scale)
    assert not np.any(series.flagged(40))


def test_pd_a_expansion_limit_small_tau():
    # tau -> 0 with beta = a reproduces the data itself
    g = Gaussian(width_a=1.0)
    params = KernelParams(tau=1e-9, beta=1.0)
    rs = np.linspace(0.0, 3.0, 7)
    vals = solve_grid_polar("PD-A", g, params, 0, rs).values(0)
    np.testing.assert_allclose(vals, g(rs), rtol=0.0, atol=1e-8)


def test_direct_polar_nonnegative_data_stays_nonnegative():
    tau = 0.5
    params = KernelParams(tau=tau, beta=default_beta("PD-A", 1.05, tau))
    rs = np.linspace(0.0, 3.0, 13)
    vals = solve_grid_polar("PD-A", RADIAL_MIX, params, 40, rs).values(40)
    assert np.all(vals >= -1e-8 * float(np.max(np.abs(RADIAL_MIX(rs)))))


# --- inverse evaluation ----------------------------------------------------------

def test_pi_a_round_trip():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_polar(f, tau)
    params = KernelParams(tau=tau, beta=default_beta("PI-A", 1.3, tau))
    rs = np.linspace(0.0, 3.0, 25)
    vals = solve_grid_polar("PI-A", u, params, 40, rs).values(40)
    rel_l2 = np.linalg.norm(vals - f(rs)) / np.linalg.norm(f(rs))
    assert rel_l2 <= 1e-3


def test_pi_b_round_trip_and_guard():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_polar(f, tau)
    params = KernelParams(tau=tau, beta=1.3)
    rs = np.linspace(0.0, 2.5, 9)
    vals = solve_grid_polar("PI-B", u, params, 40, rs).values(40)
    np.testing.assert_allclose(vals, f(rs), rtol=0.0, atol=1e-8)
    with pytest.raises(ValueError):
        pi_eval("PI-B", np.ones(3), KernelParams(tau=0.5, beta=0.4), 0.0)


def test_pi_c_round_trip():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_polar(f, tau)
    params = KernelParams(tau=tau, beta=1.0)
    rs = np.linspace(0.0, 2.0, 5)
    vals = solve_grid_polar("PI-C", u, params, 30, rs).values(30)
    np.testing.assert_allclose(vals, f(rs), rtol=0.0, atol=1e-7)


def test_inverse_zero_data_gives_zero():
    params = KernelParams(tau=0.3, beta=1.0)
    zero = Sampled1D(0.0, 5.0, np.zeros(51))
    coeffs = pi_coeffs("PI-A", zero, params, 8)
    assert value(pi_eval("PI-A", coeffs, params, 1.0)) == 0.0


def test_structural_symmetry_pd_a_pi_a():
    # PI-A is PD-A with the prefactor/argument scale and the ratio inverted;
    # identical coefficient lists give identical values through the shared core
    from dataclasses import replace

    from heatseries.variants import VARIANTS

    coeffs = np.array([1.1, -0.2, 0.31, 0.07])
    params = KernelParams(tau=0.4, beta=0.6)
    rs = np.array([0.0, 0.8, 1.7])
    pi_vals = pi_eval("PI-A", coeffs, params, rs).values(coeffs.size - 1)
    s = params.shifted
    pd_a = VARIANTS["PD-A"]
    swap = {"beta": "tau+beta", "tau+beta": "beta"}
    swapped = replace(pd_a, scales=tuple(swap[t] for t in pd_a.scales))
    # the public PD-A evaluator with PD-A's row swapped in the table
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(VARIANTS, "PD-A", swapped)
        core = pd_eval("PD-A", coeffs, params, rs)
    np.testing.assert_array_equal(pi_vals, core.values(coeffs.size - 1))
    # scales as (arg, num, den, pref), the ratio being num/den
    pd = pd_a.times(params)
    pi = VARIANTS["PI-A"].times(params)
    assert (pd[0], pd[3]) == (s, s) and pd[1] / pd[2] == pytest.approx(params.beta / s)
    assert (pi[0], pi[3]) == (params.beta, params.beta) and pi[1] / pi[2] == pytest.approx(s / params.beta)


# --- errata guards ------------------------------------------------------------------

def test_pd_c_paper_literal_fails_by_documented_ratio():
    g = Gaussian(width_a=1.0)
    params = KernelParams(tau=0.5, beta=1.0)
    s = params.shifted
    coeffs = pd_coeffs("PD-C", g, params, 2, r_center=0.0)
    oracle = forward_polar(g, 0.5, 0.0)
    ok = value(pd_eval("PD-C", coeffs, params, 0.0))
    lit = value(pd_eval("PD-C", coeffs, params, 0.0, constants_mode="paper_literal"))
    assert ok == pytest.approx(oracle, rel=1e-9)
    assert lit / ok == pytest.approx(math.pi**1.5 * math.sqrt(s), rel=1e-12)


def test_pi_c_paper_literal_fails_by_documented_ratio():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_polar(f, tau)
    params = KernelParams(tau=tau, beta=1.0)
    coeffs = pi_coeffs("PI-C", u, params, 2, r_center=0.0)
    ok = value(pi_eval("PI-C", coeffs, params, 0.0))
    lit = value(pi_eval("PI-C", coeffs, params, 0.0, constants_mode="paper_literal"))
    assert ok == pytest.approx(float(f(0.0)), rel=1e-9)
    expected_ratio = math.pi**1.5 * params.beta / math.sqrt(tau)
    assert lit / ok == pytest.approx(expected_ratio, rel=1e-12)


# --- divergence ---------------------------------------------------------------------

def test_pd_b_divergence_flagged_outside_region():
    g = Gaussian(width_a=4.0)
    params = KernelParams(tau=0.1, beta=0.1)
    coeffs = pd_coeffs("PD-B", g, params, 40)
    assert pd_eval("PD-B", coeffs, params, 0.5).flagged(40)[0]


def test_linearity_in_data():
    params = KernelParams(tau=0.4, beta=0.9)
    g1 = Gaussian(width_a=0.8)
    g2 = Gaussian(width_a=1.3, amplitude=0.5)
    c1 = pd_coeffs("PD-A", g1, params, 6)
    c2 = pd_coeffs("PD-A", g2, params, 6)
    c = pd_coeffs("PD-A", Mixture((g1, g2)), params, 6)
    np.testing.assert_allclose(c, c1 + c2, rtol=1e-9, atol=1e-12 * np.abs(c).max())
