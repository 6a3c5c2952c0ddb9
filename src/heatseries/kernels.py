"""Ground-truth forward solvers.

The Gaussian convolution kernel on the line and the radial I0 kernel in
polar coordinates, applied by direct quadrature, are the oracles every
series formula in this package is audited against.  Gaussian data also has
exact closed-form evolutions (complete the square in the convolution), and
the quadrature path must agree with them.

Sampled data on the line is linear between its nodes, so its convolution
with a kernel no wider than the data comes in closed form from the slope
jumps (`Sampled1D.by_parts`), erfc and ierfc (`_sampled_line`), with no
quadrature.  Analytic data, sampled data under a wider kernel, and sampled
data in the plane keep the quadrature.
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
from .quad import EXACT_BLOCK, TRUNCATION_RADIUS_SIGMAS, integrate_vec
from .specfun import erfc, ierfc, scaled_polar_kernel

__all__ = [
    "evolve_line",
    "evolve_polar",
    "forward_line",
    "forward_polar",
]

_CACHE_BLOCK = 1 << 15  # kernel values per closed-form block: its arrays stay in cache


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
    raise ValueError("closed-form line evolution exists only for Gaussian data")


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
    raise ValueError("closed-form polar evolution exists only for radial Gaussians")


def _line_window(data, xs: np.ndarray, tau: float) -> tuple[float, float]:
    lo_f, hi_f = profile_support(data)
    reach = TRUNCATION_RADIUS_SIGMAS * math.sqrt(2.0 * tau)
    lo = max(lo_f, float(np.min(xs)) - reach)
    hi = min(hi_f, float(np.max(xs)) + reach)
    return lo, hi


def _sampled_line(data: Sampled1D, tau: float, x: np.ndarray) -> np.ndarray:
    """The line oracle on sampled data, exact for its piecewise-linear
    interpolant f^ up to rounding.  The kernel's second antiderivative in xi
    is sqrt(tau) (|z| + ierfc|z|), z = (xi - x)/(2 sqrt(tau)); integrating by
    parts twice against it, the |z| part sums to f^(x) exactly and leaves

        u(x) = f^(x) + sqrt(tau) sum_i w_i ierfc|z_i| + e(x),

    w the slope jumps (`Sampled1D.by_parts`).  The end term e is -(f_0
    erfc|z_0| + f_m erfc|z_m|)/2 for xi_0 <= x <= xi_m, (f_0 erfc z_0 -
    f_m erfc z_m)/2 left of the data and its mirror right of it.  Every
    term decays like e^{-z^2}, so nothing cancels far from the data; the
    caller keeps the kernel no wider than the data (`Sampled1D.narrower`).
    OverflowError when a value is not finite.  A block holds about
    _CACHE_BLOCK kernel values: at 121 points, blocks of 256 nodes run 2.5
    times faster than blocks of EXACT_BLOCK (x86-64, numpy 2.4).
    """
    nodes, vals = data.nodes, data.values
    scale = 2.0 * math.sqrt(tau)

    def rows(block):
        z = np.subtract(block[None, :], x[:, None])
        np.abs(z, out=z)
        z /= scale
        return ierfc(z)

    step = min(EXACT_BLOCK, max(1, _CACHE_BLOCK // max(x.size, 1)))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        total, _, _ = data.by_parts(rows, step=step)
        first, last = (nodes[0] - x) / scale, (nodes[-1] - x) / scale
        ends = np.where(first > 0.0, vals[0], -vals[0]) * erfc(np.abs(first))
        ends += np.where(last < 0.0, vals[-1], -vals[-1]) * erfc(np.abs(last))
        out = data(x) + math.sqrt(tau) * total + 0.5 * ends
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"line oracle of the sampled data is not finite at tau = {tau}")
    return out


def forward_line(data, tau: float, x):
    """Solution of the forward problem on the line at time tau, point(s) x.

    Quadrature of the Gaussian kernel against analytic data; sampled inputs
    are zero-extended and linearly interpolated, and take the closed form
    (`_sampled_line`) while the kernel is no wider than the data
    (`Sampled1D.narrower`), the quadrature beyond.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(data, Sampled1D) and data.narrower(math.sqrt(tau)):
        vals = _sampled_line(data, tau, x_arr)
        return float(vals[0]) if np.ndim(x) == 0 else vals
    lo, hi = _line_window(data, x_arr, tau)
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

    vals, _ = integrate_vec(integrand, lo, hi, breakpoints=_breakpoints(data))
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
    lo_f, hi_f = profile_support(data)
    reach = TRUNCATION_RADIUS_SIGMAS * math.sqrt(2.0 * tau)
    lo = max(0.0, lo_f)
    hi = min(hi_f, float(np.max(r_arr)) + reach)
    if lo >= hi:
        out = np.zeros_like(r_arr)
        return float(out[0]) if np.ndim(r) == 0 else out

    def integrand(xi):
        kern = scaled_polar_kernel(r_arr[:, None], xi[None, :], tau)
        kern *= xi * data(xi)
        return kern

    vals, _ = integrate_vec(integrand, lo, hi, breakpoints=_breakpoints(data))
    return float(vals[0]) if np.ndim(r) == 0 else vals
