"""Reference functions the test suite checks the package against.

None of these is on a solve path of the package, so they live with the
tests: a scalar front end to the quadrature engine with the truncation
windows of infinite domains, the quadrature routes of the two Gaussian-kernel
integrals of sampled line data and of the Hermite and radial moments of
Gaussians and mixtures, which the package computes in closed form,
the closed forms of Gaussian Hermite moments, of H_j(0) and of the monomial
coefficients of W_j, and the two Bessel identities behind the radial kernel.
"""

import contextlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from heatseries import kernels, quad, series_cartesian, series_polar
from heatseries.quad import TRUNCATION_RADIUS_SIGMAS, integrate_vec
from heatseries.specfun import _check_finite, bessel_j0, hermite_batch, scaled_polar_kernel, w_poly_batch

_HUGE = 1e300

# --- quadrature ------------------------------------------------------------------


@contextlib.contextmanager
def quad_settings(**values):
    """The engine's constants set inside the block, for example
    quad_settings(REL_TOL=1e-13, MAX_PANELS=1 << 14) for a tighter oracle."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(quad, name, value)
        yield


@contextlib.contextmanager
def rebound(original, replacement):
    """replacement in place of original wherever a heatseries module binds it
    by name, as perfbench's tracer rebinds, so that a spy sees the calls of
    every module, whichever owns the work; restored on exit."""
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name == "heatseries" or name.startswith("heatseries."):
                for key, val in list(vars(module).items()):
                    if val is original:
                        patch.setattr(module, key, replacement)
        yield


def l1_norms(integrand, lo: float, hi: float, breakpoints=None) -> np.ndarray:
    """int |integrand| over [lo, hi], row by row, at a loose tolerance: the
    scale of an error bar (the engine's floor is 32 eps of it)."""
    with quad_settings(REL_TOL=1e-4, MAX_PANELS=1 << 14):
        vals, _ = integrate_vec(lambda xi: np.abs(integrand(xi)), lo, hi, breakpoints)
    return vals.astype(float)


def whole_line(decay_scale: float, center: float = 0.0) -> tuple[float, float]:
    """(-inf, inf) truncated at center +- TRUNCATION_RADIUS_SIGMAS * decay_scale."""
    radius = TRUNCATION_RADIUS_SIGMAS * decay_scale
    return center - radius, center + radius


def half_line(decay_scale: float, center: float = 0.0) -> tuple[float, float]:
    """[0, inf) truncated at max(0, center - R*scale) .. center + R*scale,
    R = TRUNCATION_RADIUS_SIGMAS."""
    radius = TRUNCATION_RADIUS_SIGMAS * decay_scale
    return max(0.0, center - radius), center + radius


def integrate(f, lo: float, hi: float, breakpoints=None):
    """Integrate a scalar integrand over [lo, hi]; returns (value, err_estimate).

    The integrand must accept an ndarray of nodes and return the values at
    those nodes (numpy-vectorized).  The engine sees a one-row view of them.
    """

    def wrapped(x):
        return np.asarray(f(x), dtype=float)[None, :]

    vals, err = integrate_vec(wrapped, lo, hi, breakpoints)
    return float(vals[0]), err


def line_kernel_integrand(data, tau: float, x: np.ndarray):
    """The Gaussian kernel at time tau times the data, one row per point x:
    the line oracle's integrand, in plain allocating numpy."""
    norm = 2.0 * math.sqrt(math.pi * tau)

    def integrand(xi):
        kern = np.exp(-((x[:, None] - xi[None, :]) ** 2) / (4.0 * tau)) / norm
        return kern * data(xi)[None, :]

    return integrand


def line_oracle_by_quadrature(data, tau: float, x) -> np.ndarray:
    """The line oracle of sampled data by the adaptive engine, on the
    kernel's window with the nodes as breakpoints: the route the package
    takes for analytic data (sampled data: Sampled1D.line_kernel)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = kernels._line_window(data, x, tau)
    return integrate_vec(line_kernel_integrand(data, tau, x), lo, hi, breakpoints=data.nodes)[0]


def weighted_moment_integrand(data, root: float, n: int):
    """H_k(xi/(2b)) e^{-xi^2/(4b^2)}/(2b sqrt(pi)) times the data, k = 0..n,
    b = root: CI-B's moment integrand, in plain allocating numpy."""

    def integrand(xi):
        weight = np.exp(-(xi * xi) / (4.0 * root * root)) / (2.0 * root * math.sqrt(math.pi))
        return hermite_batch(n, xi / (2.0 * root)) * (weight * data(xi))[None, :]

    return integrand


def weighted_moments_by_quadrature(data, root: float, n: int) -> np.ndarray:
    """CI-B's moments of sampled data by the adaptive engine, on the weight's
    window with the nodes as breakpoints (the package: the closed form
    Sampled1D.hermite_moments)."""
    lo, hi = series_cartesian._moment_window(data, root)
    return integrate_vec(weighted_moment_integrand(data, root, n), lo, hi, breakpoints=data.nodes)[0]


def hermite_moment_integrand(data, root: float, n: int, center: float = 0.0, weighted: bool = False):
    """H_k((xi - center)/(2R)) times the data, k = 0..n, R = root, and for
    CI-B (weighted) times e^{-xi^2/(4R^2)}/(2R sqrt(pi)), written in place:
    the line's adaptive moment integrand (series_cartesian._hermite_moments)."""

    def integrand(xi):
        vals = hermite_batch(n, (xi - center) / (2.0 * root))
        with np.errstate(over="ignore", invalid="ignore"):
            vals *= data(xi)
            if weighted:
                vals *= np.exp(-(xi * xi) / (4.0 * root * root)) / (2.0 * root * math.sqrt(math.pi))
        return vals

    return integrand


def hermite_moments_by_quadrature(data, root: float, n: int, center: float = 0.0, weighted: bool = False):
    """The line's Hermite moments of analytic data by the adaptive engine,
    on the package's moment window: the route Gaussians and mixtures took
    before their closed forms (Gaussian.hermite_moments)."""
    lo, hi = series_cartesian._moment_window(data, root if weighted else None)
    return integrate_vec(hermite_moment_integrand(data, root, n, center, weighted), lo, hi)[0]


def w_moment_integrand(data, root: float, n: int, dtype=float):
    """xi W_j(xi/(2R)) times the data, j = 0..n, R = root, evaluated in dtype
    and written in place: the plane's adaptive moment integrand
    (series_polar._w_radial_moments)."""

    def integrand(xi):
        w = w_poly_batch(n, xi.astype(dtype) / (2.0 * root))
        with np.errstate(over="ignore"):
            w *= xi * data(xi)
        return w

    return integrand


def w_moments_by_quadrature(data, root: float, n: int, dtype=float):
    """The plane's radial moments of analytic data by the adaptive engine,
    summed in dtype: the route centred Gaussians and mixtures took before
    their closed forms (Gaussian.radial_moments)."""
    lo, hi = series_polar._radial_window(data)
    return integrate_vec(w_moment_integrand(data, root, n, dtype), lo, hi)[0]


def hermite_moment(j: int, c: float) -> float:
    """Closed form of int_-inf^inf H_j(y) e^{-c y^2} dy for c > 0.

    Zero for odd j; for j = 2k the generating function gives
    sqrt(pi/c) * ((1-c)/c)^k * (2k)!/k!.  This is the oracle for every
    Gaussian coefficient integral; its agreement with the engine is asserted
    in test_quad.
    """
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if j < 0:
        raise ValueError("order must be non-negative")
    if j % 2 == 1:
        return 0.0
    val = math.sqrt(math.pi / c)
    ratio = (1.0 - c) / c
    for k in range(1, j // 2 + 1):
        val *= ratio * 2.0 * (2 * k - 1)  # ((1-c)/c)^k (2k)!/k! one k at a time
    return val


def hermite_gaussian_integral(n: int, y0: Fraction) -> Fraction:
    """int H_n(y0 + t) e^{-t^2} dt / sqrt(pi), exactly, for a rational y0:
    the integer monomial coefficients of H_n against J_m = int (y0 + t)^m
    e^{-t^2} dt / sqrt(pi), J_0 = 1, J_1 = y0 and J_{m+1} = y0 J_m + (m/2)
    J_{m-1} (by parts).  No generating function, and no rounding: an
    independent check of the closed-form moments far beyond float64."""
    coeffs = [[1], [0, 2]]
    for k in range(1, n):
        nxt = [0] + [2 * c for c in coeffs[-1]]
        for m, c in enumerate(coeffs[-2]):
            nxt[m] -= 2 * k * c
        coeffs = [coeffs[-1], nxt]
    powers = [Fraction(1), Fraction(y0)]
    for m in range(1, n):
        powers.append(y0 * powers[m] + Fraction(m, 2) * powers[m - 1])
    return sum(c * powers[m] for m, c in enumerate(coeffs[min(n, 1)]))


# --- kernel identities -----------------------------------------------------------


def weber_integral_check(r: float, xi: float, t: float):
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

    lhs, _ = integrate(integrand, 0.0, lam_max)
    rhs = scaled_polar_kernel(r, xi, t)
    return lhs, rhs


def j0_product_check(lam: float, x: float, y: float):
    """J0(lam x) J0(lam y) versus its average over the angle.

    rhs: (1/pi) int_0^pi J0(lam sqrt(x^2 + y^2 - 2xy cos(phi))) dphi.
    """
    if x < 0.0 or y < 0.0:
        raise ValueError("x and y must be non-negative")
    lhs = float(bessel_j0(lam * x) * bessel_j0(lam * y))

    def integrand(phi):
        rad = np.sqrt(np.maximum(x * x + y * y - 2.0 * x * y * np.cos(phi), 0.0))
        return bessel_j0(lam * rad) / math.pi

    rhs, _ = integrate(integrand, 0.0, math.pi)
    return lhs, rhs


# --- special-function closed forms -----------------------------------------------


def hermite_at_zero(j: int) -> float:
    """H_j(0): zero for odd j, (-1)^k (2k)!/k! for j = 2k.

    The even value follows from the Rodrigues definition; it is cross-checked
    against the recurrence in test_specfun.
    """
    if j < 0:
        raise ValueError("order must be non-negative")
    if j % 2 == 1:
        return 0.0
    val = 1.0
    for k in range(1, j // 2 + 1):
        val *= -2.0 * (2 * k - 1)  # (-1)^k (2k)!/k! updated one k at a time
        if abs(val) > _HUGE:
            raise OverflowError(f"H_{j}(0) exceeds double range")
    return val


def w_poly_coefficients(j: int) -> np.ndarray:
    """Monomial coefficients c_k of W_j(z) = sum_k c_k z^{2k}, k = 0..j.

    W_j is the t^{2j} coefficient of e^{-t^2} I0(2tz) times (2j)!; the product
    of the two power series gives
    c_k = (2j)! (-1)^{j-k} / (k!^2 (j-k)!).
    Coefficients are generated by the exact ratio c_{k+1}/c_k = -(j-k)/(k+1)^2
    starting from c_0 = (-1)^j (2j)!/j!, which stays inside double range up to
    j ~ 128.
    """
    if j < 0:
        raise ValueError("order must be non-negative")
    c0 = 1.0
    for i in range(1, j + 1):
        c0 *= -2.0 * (2 * i - 1)  # (-1)^j (2j)!/j!
        if abs(c0) > _HUGE:
            raise OverflowError(f"W_{j} leading coefficient exceeds double range")
    coeffs = np.empty(j + 1)
    coeffs[0] = c0
    for k in range(j):
        coeffs[k + 1] = coeffs[k] * (-(j - k)) / ((k + 1) * (k + 1))
    return coeffs


def w_poly_eval(j: int, z):
    """W_j(z) from its monomial coefficients (Horner in z^2)."""
    coeffs = w_poly_coefficients(j)
    z = np.asarray(z, dtype=float)
    y = z * z
    acc = np.full(y.shape, coeffs[j])
    for k in range(j - 1, -1, -1):
        acc = acc * y + coeffs[k]
    _check_finite(acc, "W polynomial", j, z)
    return acc if acc.shape else float(acc)
