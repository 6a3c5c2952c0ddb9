"""Ground-truth forward solvers and kernel-identity checks.

The Gaussian convolution kernel on the line and the radial I0 kernel in
polar coordinates, applied by direct quadrature, are the oracles every
series formula in this package is audited against.  Gaussian data also has
exact closed-form evolutions (complete the square in the convolution), and
the quadrature path must agree with them.
"""

from __future__ import annotations

import math

import numpy as np

from .profiles import (
    AnalyticProfile,
    Bump,
    Gaussian,
    Mixture,
    Sampled1D,
    profile_support,
)
from .quad import FiniteInterval, QuadSpec, integrate, integrate_vec
from .specfun import bessel_j0, scaled_polar_kernel

__all__ = [
    "evolve_line",
    "evolve_polar",
    "forward_line",
    "forward_polar",
    "j0_product_check",
    "weber_integral_check",
]


def _breakpoints(data) -> np.ndarray | None:
    """Panel edges for integrands that are only piecewise smooth."""
    if isinstance(data, Sampled1D):
        return data.nodes
    if isinstance(data, Bump):
        return np.array([data.center - data.radius, data.center + data.radius])
    return None


def evolve_line(profile: AnalyticProfile, tau: float) -> AnalyticProfile:
    """Exact forward evolution on the line for Gaussian data.

    e^{-(x-c)^2/(4a)} becomes sqrt(a/(a+tau)) e^{-(x-c)^2/(4(a+tau))}.
    """
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if isinstance(profile, Gaussian):
        a = profile.width_a
        return Gaussian(
            width_a=a + tau,
            center=profile.center,
            amplitude=profile.amplitude * math.sqrt(a / (a + tau)),
        )
    if isinstance(profile, Mixture):
        return Mixture(tuple(evolve_line(g, tau) for g in profile.components))
    raise TypeError("closed-form line evolution exists only for Gaussian data")


def evolve_polar(profile: AnalyticProfile, tau: float) -> AnalyticProfile:
    """Exact radial evolution: e^{-r^2/(4a)} becomes (a/(a+tau)) e^{-r^2/(4(a+tau))}.

    Only centered radial Gaussians evolve in closed form.
    """
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if isinstance(profile, Gaussian):
        if profile.center != 0.0:
            raise ValueError("radial Gaussian data must be centered at r = 0")
        a = profile.width_a
        return Gaussian(
            width_a=a + tau,
            center=0.0,
            amplitude=profile.amplitude * a / (a + tau),
        )
    if isinstance(profile, Mixture):
        return Mixture(tuple(evolve_polar(g, tau) for g in profile.components))
    raise TypeError("closed-form polar evolution exists only for radial Gaussians")


def _line_window(data, xs: np.ndarray, tau: float, spec: QuadSpec) -> tuple[float, float]:
    lo_f, hi_f = profile_support(data, spec.truncation_radius_sigmas)
    reach = spec.truncation_radius_sigmas * math.sqrt(2.0 * tau)
    lo = max(lo_f, float(np.min(xs)) - reach)
    hi = min(hi_f, float(np.max(xs)) + reach)
    return lo, hi


def forward_line(data, tau: float, x, spec: QuadSpec = QuadSpec()):
    """Solution of the forward problem on the line at time tau, point(s) x.

    Quadrature of the Gaussian kernel against the data; sampled inputs are
    zero-extended and linearly interpolated.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = _line_window(data, x_arr, tau, spec)
    if lo >= hi:
        out = np.zeros_like(x_arr)
        return float(out[0]) if np.ndim(x) == 0 else out
    norm = 2.0 * math.sqrt(math.pi * tau)

    def integrand(xi):
        # exp(-(x - xi)^2 / (4 tau)) / norm * data, built in one buffer
        kern = np.subtract(x_arr[:, None], xi[None, :])
        with np.errstate(over="ignore"):  # inf far out: a zero kernel
            np.square(kern, out=kern)
        np.negative(kern, out=kern)
        np.divide(kern, 4.0 * tau, out=kern)
        np.exp(kern, out=kern)
        np.divide(kern, norm, out=kern)
        kern *= data(xi)
        return kern

    vals, _ = integrate_vec(integrand, FiniteInterval(lo, hi), spec, breakpoints=_breakpoints(data))
    return float(vals[0]) if np.ndim(x) == 0 else vals


def forward_polar(data, tau: float, r, spec: QuadSpec = QuadSpec()):
    """Radial forward solution: int_0^inf xi K(r, xi, tau) f(xi) dxi.

    The measure weight xi is part of the radial (Hankel) structure and is
    always included.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr < 0.0):
        raise ValueError("radius must be non-negative")
    lo_f, hi_f = profile_support(data, spec.truncation_radius_sigmas)
    reach = spec.truncation_radius_sigmas * math.sqrt(2.0 * tau)
    lo = max(0.0, lo_f)
    hi = min(hi_f, float(np.max(r_arr)) + reach)
    if lo >= hi:
        out = np.zeros_like(r_arr)
        return float(out[0]) if np.ndim(r) == 0 else out

    def integrand(xi):
        kern = scaled_polar_kernel(r_arr[:, None], xi[None, :], tau)
        kern *= xi * data(xi)
        return kern

    vals, _ = integrate_vec(integrand, FiniteInterval(lo, hi), spec, breakpoints=_breakpoints(data))
    return float(vals[0]) if np.ndim(r) == 0 else vals


def weber_integral_check(r: float, xi: float, t: float, spec: QuadSpec = QuadSpec()):
    """Two sides of the radial spectral identity, both by independent routes.

    lhs: int_0^inf lam e^{-lam^2 t} J0(lam r) J0(lam xi) dlam by quadrature,
    truncated where the Gaussian damping is below 1e-30.
    rhs: the closed radial kernel e^{-(r^2+xi^2)/(4t)} I0(r xi/(2t)) / (2t).
    """
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    lam_max = math.sqrt(69.1 / t)  # e^{-lam^2 t} < 1e-30 beyond

    def integrand(lam):
        return lam * np.exp(-lam * lam * t) * bessel_j0(lam * r) * bessel_j0(lam * xi)

    lhs, _ = integrate(integrand, FiniteInterval(0.0, lam_max), spec)
    rhs = scaled_polar_kernel(r, xi, t)
    return lhs, rhs


def j0_product_check(lam: float, x: float, y: float, spec: QuadSpec = QuadSpec()):
    """J0(lam x) J0(lam y) versus its average over the angle.

    rhs: (1/pi) int_0^pi J0(lam sqrt(x^2 + y^2 - 2xy cos(phi))) dphi.
    """
    if x < 0.0 or y < 0.0:
        raise ValueError("x and y must be non-negative")
    lhs = float(bessel_j0(lam * x) * bessel_j0(lam * y))

    def integrand(phi):
        rad = np.sqrt(np.maximum(x * x + y * y - 2.0 * x * y * np.cos(phi), 0.0))
        return bessel_j0(lam * rad) / math.pi

    rhs, _ = integrate(integrand, FiniteInterval(0.0, math.pi), spec)
    return lhs, rhs
