"""Truncated radial-series solvers (polar coordinates, radially symmetric).

The same coefficient / evaluate / diagnose structure as the line module,
built on the even polynomials W_j and radial moments with the measure
xi d(xi) on [0, inf).  With s = tau + beta:

* PD-A (direct): moments xi W_j(xi/(2 sqrt(beta))), kernel prefactor at s.
* PD-B (direct): moments at sqrt(s), prefactor at 2*tau + beta.
* PD-C (direct): angular-averaged moments of W_j over the triangle radius
  sqrt(r^2 + xi^2 - 2 r xi cos(phi)) at scale sqrt(beta).  They depend on r,
  but Neumann's addition theorem for I0 (DLMF 10.44) writes them through the
  radial moments M_k of PD-A:
  c_j(r) = pi sum_d C(2j, 2d) C(2d, d) (r/(2 sqrt(beta)))^{2d} M_{j-d},
  so one moment pass serves the whole grid.  The theorem expands about the
  origin only, and its binomial weights amplify the moments' rounding noise
  (measured: up to 3e3-fold for r/(2 sqrt(beta)) <= 6, N <= 40), so that
  pass and the recombination run in np.longdouble (2048 times finer than
  float64 on x86-64; where longdouble is float64 the noise stays amplified).
* PI-A / PI-B / PI-C (inverse): scale roles exchanged.  PI-B needs
  beta > tau: its prefactor lives at beta - tau.

The scales and constants of each variant are rows of `variants.VARIANTS`;
evaluation (`pd_eval`, `pi_eval`: the `variants.SeriesTerms` at the radii),
the divergence diagnostic and constants_mode go through the same path as on
the line.  `solve_grid_polar(variant, data, tau, beta, n, rs,
constants_mode)` picks the functions of a polar variant by its direction:
the CLI, the audit and the order sweeps all take their term matrix from it.  The published C-variant constants fail the oracle
certification by documented ratios (ERRATA.md).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .profiles import Sampled1D, profile_support
from .quad import integrate_vec
from .specfun import KernelParams, w_poly_batch
from .variants import (
    AXIS,
    POLAR,
    SeriesTerms,
    check_mode,
    lookup,
    pointwise_terms,
    ratio_products,
    recombine,
    series_terms,
    variant_names,
)

__all__ = [
    "PD_VARIANTS",
    "PI_VARIANTS",
    "pd_coeffs",
    "pd_eval",
    "pi_coeffs",
    "pi_eval",
    "solve_grid_polar",
]

PD_VARIANTS = variant_names(POLAR, direct=True)
PI_VARIANTS = variant_names(POLAR, direct=False)


def _radial_window(data) -> tuple[float, float]:
    lo, hi = profile_support(data)
    return max(0.0, lo), hi


def _w_radial_moments(data, root: float, n: int, dtype=float) -> np.ndarray:
    """int_0^inf xi W_j(xi/(2 root)) data(xi) dxi for j = 0..n, evaluated and
    summed in dtype.  Sampled data takes one exact level: between its nodes
    the data is linear, so the integrand is a polynomial of degree 2n + 2."""
    if n < 0:
        raise ValueError("order must be non-negative")
    lo, hi = _radial_window(data)
    if lo >= hi:
        return np.zeros(n + 1)
    sampled = isinstance(data, Sampled1D)
    breakpoints = data.nodes if sampled else None

    def integrand(xi):
        w = w_poly_batch(n, xi.astype(dtype) / (2.0 * root))
        with np.errstate(over="ignore"):  # an overflowing moment fails its level sum (integrate_vec)
            w *= xi * data(xi)
        return w

    vals, _ = integrate_vec(integrand, lo, hi, breakpoints=breakpoints, degree=2 * n + 2 if sampled else None)
    return vals


@functools.lru_cache(maxsize=16)
def _binomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """pi C(2j, 2d) C(2d, d) in np.longdouble and the moment index j - d (0
    where d > j, where C(2j, 2d) = 0), j, d = 0..n; read-only, shared by
    every call at order n."""
    binom = np.array(
        [[math.comb(2 * j, 2 * d) * math.comb(2 * d, d) for d in range(n + 1)] for j in range(n + 1)],
        dtype=np.longdouble,
    )
    weights = math.pi * binom
    shift = np.maximum(np.arange(n + 1)[:, None] - np.arange(n + 1), 0)
    weights.flags.writeable = shift.flags.writeable = False
    return weights, shift


def _coeffs(direct: bool, variant: str, data, params: KernelParams, n: int, r_center):
    row = lookup(variant, POLAR, direct)
    root = row.moment_root(params)
    if not row.pointwise:
        return _w_radial_moments(data, root, n)
    moments = _w_radial_moments(data, root, n, dtype=np.longdouble)
    # table[j, d] = pi C(2j, 2d) C(2d, d) M_{j-d}
    weights, shift = _binomials(n)
    return recombine(weights * moments[shift], r_center, lambda r: (r / (2.0 * root)) ** 2)


def pd_coeffs(variant: str, f, params: KernelParams, n: int, r_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Direct radial moments f_j.

    PD-C: the angular-averaged moments at r_center, recombined from one
    extended-precision moment pass (README, "C variants"); an array of radii
    gives one column per radius.  Where the shift overflows, a column is
    non-finite and evaluating it raises OverflowError.
    """
    return _coeffs(True, variant, f, params, n, r_center)


def pi_coeffs(variant: str, u, params: KernelParams, n: int, r_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Inverse radial moments u_j; scales swapped versus pd_coeffs (PI-C at
    r_center, as PD-C)."""
    return _coeffs(False, variant, u, params, n, r_center)


# --- evaluation ---------------------------------------------------------------

def _eval(direct: bool, variant: str, coeffs, params: KernelParams, r, mode: str) -> SeriesTerms:
    """The term matrix of one polar variant at the radii r (pd_eval, pi_eval).

    A/B terms: c_j W_j(r/(2 sqrt(arg))) (num/den)^j j!^2/(2j)!^2 * kernel prefactor.
    """
    row = lookup(variant, POLAR, direct)
    check_mode(mode)
    coeffs = np.asarray(coeffs, float)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0.0):
        raise ValueError("radius must be non-negative")
    if row.pointwise:
        return pointwise_terms(row.kappa(params, mode, coeffs.shape[0] - 1), coeffs, r, f"{variant} at {AXIS[POLAR]}")
    n = coeffs.size - 1
    arg, num, den, pref = row.times(params)
    # an infinite argument fails the W batch; r * r = inf far out: a zero prefactor
    with np.errstate(over="ignore"):
        wmat = w_poly_batch(n, r / (2.0 * math.sqrt(arg)))
        pref = np.exp(-(r * r) / (4.0 * pref)) / (2.0 * pref)
    ratio = num / den
    w = ratio_products(1.0, n, lambda w, j: w * ratio / (2.0 * (2 * j + 1)) ** 2)
    with np.errstate(over="ignore"):  # an overflowing weight fails the series check
        weighted = coeffs * w
    return series_terms(weighted, wmat, pref)


def pd_eval(variant: str, coeffs: np.ndarray, params: KernelParams, r, constants_mode: str = "oracle_validated"):
    """The truncated direct polar series at r (scalar or array): its
    `SeriesTerms`, one column per radius, unchecked (`values(n)` raises an
    overflow)."""
    return _eval(True, variant, coeffs, params, r, constants_mode)


def pi_eval(variant: str, coeffs: np.ndarray, params: KernelParams, r, constants_mode: str = "oracle_validated"):
    """The truncated inverse polar series at r, as pd_eval."""
    return _eval(False, variant, coeffs, params, r, constants_mode)


def solve_grid_polar(
    variant: str,
    data,
    tau: float,
    beta: float,
    n: int,
    rs: np.ndarray,
    constants_mode: str = "oracle_validated",
) -> SeriesTerms:
    """The term matrix of orders 0..n of one polar variant at times tau and
    beta on a grid of radii, from one coefficient pass at order n, checked at
    order n (an overflowing PD-C or PI-C radius is named); PD-C and PI-C sum
    each radius's own coefficients.  A bad constants_mode, a negative radius
    and a PI-B shift not above tau fail before the pass."""
    row = lookup(variant, POLAR)
    check_mode(constants_mode)
    rs = np.asarray(rs, dtype=float)
    if np.any(rs < 0.0):
        raise ValueError("radius must be non-negative")
    params = KernelParams(tau=tau, beta=beta)
    if not row.pointwise:
        row.times(params)
    coeffs = (pd_coeffs if row.direct else pi_coeffs)(variant, data, params, n, rs)
    return (pd_eval if row.direct else pi_eval)(variant, coeffs, params, rs, constants_mode).check(n)
