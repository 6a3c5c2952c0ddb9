"""Ground-truth forward solvers.

The Gaussian convolution kernel on the line and the radial I0 kernel in
polar coordinates, applied by direct quadrature, are the oracles every
series formula in this package is audited against.  Gaussian data also has
exact closed-form evolutions (complete the square in the convolution;
`profiles.Gaussian.evolved`), and the quadrature path must agree with them.

Sampled data on the line is linear between its nodes, so its convolution
with a kernel no wider than the data comes in closed form from the slope
jumps, erfc and ierfc (`profiles.Sampled1D.line_kernel`), with no
quadrature.  Analytic data, sampled data under a wider kernel, and sampled
data in the plane keep the quadrature, on the kernel's window cut to the
data's support (`profiles.data_integral`).  The data answers for each fact
about itself (`profiles.data_fact`).
"""

from __future__ import annotations

import math

import numpy as np

from .profiles import data_fact, data_integral
from .quad import TRUNCATION_RADIUS_SIGMAS
from .specfun import scaled_polar_kernel

__all__ = ["evolve_line", "evolve_polar", "forward_line", "forward_polar"]


def _evolved(profile, tau: float, polar: bool, refusal: str):
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    evolved = data_fact(profile, "evolved", tau, polar)
    if evolved is None:
        raise ValueError(refusal)
    return evolved


def evolve_line(profile, tau: float):
    """Exact forward evolution on the line for Gaussian data and mixtures.

    e^{-(x-c)^2/(4a)} becomes sqrt(a/(a+tau)) e^{-(x-c)^2/(4(a+tau))}.
    """
    return _evolved(profile, tau, False, "closed-form line evolution exists only for Gaussian data")


def evolve_polar(profile, tau: float):
    """Exact radial evolution: e^{-r^2/(4a)} becomes (a/(a+tau)) e^{-r^2/(4(a+tau))}.

    Only centered radial Gaussians (and mixtures of them) evolve in closed form.
    """
    return _evolved(profile, tau, True, "closed-form polar evolution exists only for radial Gaussians")


def _line_quadrature(data, tau: float, x: np.ndarray) -> np.ndarray:
    """The line oracle at the points x by quadrature, on the kernel's window."""
    norm = 2.0 * math.sqrt(math.pi * tau)

    def integrand(xi):
        # exp(-(x - xi)^2 / (4 tau)) / norm * data, built in one buffer
        kern = np.subtract(x[:, None], xi[None, :])
        with np.errstate(over="ignore"):  # inf far out: a zero kernel
            np.square(kern, out=kern)
        np.negative(kern, out=kern)
        np.divide(kern, 4.0 * tau, out=kern)
        np.exp(kern, out=kern)
        np.divide(kern, norm, out=kern)
        kern *= data(xi)
        return kern

    reach = TRUNCATION_RADIUS_SIGMAS * math.sqrt(2.0 * tau)
    return data_integral(data, integrand, float(np.min(x)) - reach, float(np.max(x)) + reach, np.zeros_like(x))


def forward_line(data, tau: float, x):
    """Solution of the forward problem on the line at time tau, point(s) x.

    Quadrature of the Gaussian kernel against the data, unless the data
    has the integral in closed form (`Sampled1D.line_kernel`: zero-extended,
    linearly interpolated samples under a kernel no wider than the data).
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    vals = data_fact(data, "line_kernel", tau, x_arr)
    if vals is None:
        vals = _line_quadrature(data, tau, x_arr)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def forward_polar(data, tau: float, r):
    """Radial forward solution: int_0^inf xi K(r, xi, tau) f(xi) dxi.

    The measure weight xi is part of the radial (Hankel) structure and is
    always included.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr < 0.0):
        raise ValueError("radius must be non-negative")

    def integrand(xi):
        kern = scaled_polar_kernel(r_arr[:, None], xi[None, :], tau)
        kern *= xi * data(xi)
        return kern

    reach = TRUNCATION_RADIUS_SIGMAS * math.sqrt(2.0 * tau)
    vals = data_integral(data, integrand, 0.0, float(np.max(r_arr)) + reach, np.zeros_like(r_arr))
    return float(vals[0]) if np.ndim(r) == 0 else vals
