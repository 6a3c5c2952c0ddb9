import math

import numpy as np
import pytest

from heatseries.kernels import (
    evolve_line,
    evolve_polar,
    forward_line,
    forward_polar,
)
from heatseries.profiles import Bump, Gaussian, Mixture, Sampled1D
from heatseries.specfun import bessel_j0
from references import integrate, j0_product_check, weber_integral_check, whole_line

MIX = Mixture(
    (
        Gaussian(width_a=0.9, center=-0.5, amplitude=1.0),
        Gaussian(width_a=1.4, center=0.7, amplitude=0.7),
    )
)

RADIAL_MIX = Mixture(
    (Gaussian(width_a=0.9, amplitude=1.0), Gaussian(width_a=1.3, amplitude=0.8))
)


# --- line --------------------------------------------------------------------

def test_forward_line_gaussian_closed_form_values():
    g = Gaussian(width_a=1.0)
    assert forward_line(g, 1.0, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-10)
    # small-tau limit approaches the initial data
    assert forward_line(g, 1e-6, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-4)
    expected = math.sqrt(2.0 / 3.0) * math.exp(-1.0 / 6.0)
    assert forward_line(g, 0.5, 1.0) == pytest.approx(expected, rel=1e-10)


def test_forward_line_quadrature_matches_exact_evolution():
    xs = np.linspace(-4.0, 4.0, 17)
    for tau in (0.1, 0.5, 1.0):
        evolved = evolve_line(MIX, tau)
        np.testing.assert_allclose(forward_line(MIX, tau, xs), evolved(xs), rtol=1e-9, atol=1e-12)


def test_forward_line_sampled_agrees_with_profile():
    g = Gaussian(width_a=1.0)
    data = Sampled1D.from_function(g, -10.0, 10.0, 801)
    xs = np.array([-1.0, 0.0, 0.4, 2.0])
    dense = forward_line(g, 0.5, xs)
    sampled = forward_line(data, 0.5, xs)
    # limited by linear interpolation of the data, not by quadrature
    np.testing.assert_allclose(sampled, dense, rtol=0.0, atol=5e-5)


def test_forward_line_rejects_zero_tau():
    with pytest.raises(ValueError):
        forward_line(Gaussian(width_a=1.0), 0.0, 0.0)


def test_semigroup_property_line():
    # evolve by tau1 in closed form, then by tau2 via quadrature, versus
    # the closed form at tau1+tau2
    xs = np.linspace(-3.0, 3.0, 13)
    for tau1, tau2 in ((0.2, 0.3), (0.5, 0.5)):
        mid = evolve_line(MIX, tau1)
        two_step = forward_line(mid, tau2, xs)
        direct = evolve_line(MIX, tau1 + tau2)(xs)
        np.testing.assert_allclose(two_step, direct, rtol=0.0, atol=1e-8)


def test_mass_conservation_line():
    for tau in (0.3, 1.0):
        mass_f, _ = integrate(MIX, *whole_line(2.0))
        u = lambda x: forward_line(MIX, tau, x)
        mass_u, _ = integrate(u, *whole_line(3.0))
        assert mass_u == pytest.approx(mass_f, abs=1e-8 * abs(mass_f))


def test_maximum_principle_line():
    xs = np.linspace(-6.0, 6.0, 241)
    for profile in (MIX, Bump(center=0.5, radius=1.5, amplitude=2.0)):
        peak_f = float(np.max(profile(xs)))
        for tau in (0.1, 0.7):
            peak_u = float(np.max(forward_line(profile, tau, xs)))
            assert peak_u <= peak_f + 1e-10


# --- polar ---------------------------------------------------------------------

def test_forward_polar_gaussian_closed_form_values():
    g = Gaussian(width_a=1.0)
    assert forward_polar(g, 1.0, 0.0) == pytest.approx(0.5, rel=1e-10)
    g2 = Gaussian(width_a=2.0)
    expected = (2.0 / 3.0) * math.exp(-1.0 / 3.0)
    assert forward_polar(g2, 1.0, 2.0) == pytest.approx(expected, rel=1e-10)


def test_forward_polar_short_time_identity():
    g = Gaussian(width_a=1.0)
    for r in (0.3, 1.0, 2.0):
        assert forward_polar(g, 1e-6, r) == pytest.approx(float(g(r)), rel=1e-4)


def test_forward_polar_quadrature_matches_exact_evolution():
    rs = np.linspace(0.0, 3.5, 15)
    for tau in (0.1, 0.5, 1.0):
        evolved = evolve_polar(RADIAL_MIX, tau)
        np.testing.assert_allclose(
            forward_polar(RADIAL_MIX, tau, rs), evolved(rs), rtol=1e-9, atol=1e-12
        )


def test_forward_polar_semigroup_and_maximum():
    rs = np.linspace(0.0, 3.0, 13)
    mid = evolve_polar(RADIAL_MIX, 0.25)
    two_step = forward_polar(mid, 0.25, rs)
    direct = evolve_polar(RADIAL_MIX, 0.5)(rs)
    np.testing.assert_allclose(two_step, direct, rtol=0.0, atol=1e-8)
    assert np.max(direct) <= np.max(RADIAL_MIX(rs)) + 1e-10


def test_evolve_polar_requires_centered_gaussians():
    with pytest.raises(ValueError):
        evolve_polar(Gaussian(width_a=1.0, center=0.5), 0.1)


@pytest.mark.parametrize("data", [Bump(0.0, 1.0), Sampled1D(-1.0, 1.0, np.ones(3))], ids=["bump", "sampled"])
def test_evolution_without_a_closed_form_is_refused(data):
    with pytest.raises(ValueError, match="^closed-form line evolution exists only for Gaussian data$"):
        evolve_line(data, 0.1)
    with pytest.raises(ValueError, match="^closed-form polar evolution exists only for radial Gaussians$"):
        evolve_polar(data, 0.1)


# --- kernel identities -----------------------------------------------------------

def test_weber_integral_identity_values():
    lhs, rhs = weber_integral_check(0.0, 0.0, 1.0)
    assert lhs == pytest.approx(0.5, rel=1e-10)
    assert rhs == pytest.approx(0.5, rel=1e-12)
    lhs, rhs = weber_integral_check(1.0, 0.0, 1.0)
    assert rhs == pytest.approx(math.exp(-0.25) / 2.0, rel=1e-12)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("t", [0.25, 1.0])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("xi", [0.0, 1.0, 2.0])
def test_weber_integral_identity_grid(r, xi, t):
    lhs, rhs = weber_integral_check(r, xi, t)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_weber_integral_symmetric_in_r_xi():
    a, _ = weber_integral_check(1.3, 0.4, 0.5)
    b, _ = weber_integral_check(0.4, 1.3, 0.5)
    assert a == pytest.approx(b, rel=1e-10)


def test_j0_product_trivial_cases():
    lhs, rhs = j0_product_check(1.0, 1.3, 0.0)
    assert lhs == pytest.approx(float(bessel_j0(1.3)), rel=1e-13)
    assert rhs == pytest.approx(lhs, rel=1e-10)
    lhs, rhs = j0_product_check(0.0, 0.7, 2.0)
    assert lhs == 1.0
    assert rhs == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("x,y", [(1.0, 1.0), (0.3, 2.0), (2.0, 2.0)])
def test_j0_product_identity_grid(lam, x, y):
    lhs, rhs = j0_product_check(lam, x, y)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_j0_product_unit_value():
    lhs, _ = j0_product_check(1.0, 1.0, 1.0)
    assert lhs == pytest.approx(bessel_j0(1.0) ** 2, rel=1e-13)
    assert lhs == pytest.approx(0.7651976865579666**2, rel=1e-12)
