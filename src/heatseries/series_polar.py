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
  so one moment pass serves the whole grid, and each radius sums the
  triangle d <= j of that table by Horner's rule in (r/(2 sqrt(beta)))^2
  (`variants.recombine`).  The theorem expands about the origin only, and
  its binomial weights amplify the moments' rounding noise (measured: up
  to 3e3-fold for r/(2 sqrt(beta)) <= 6, N <= 40), so that pass and the
  recombination run in np.longdouble (2048 times finer than float64 on
  x86-64; where longdouble is float64 the noise stays amplified).
* PI-A / PI-B / PI-C (inverse): scale roles exchanged.  PI-B needs
  beta > tau: its prefactor lives at beta - tau.

The moment pass asks the data first (`profiles.data_fact`), in the pass's
precision: centred Gaussians and their mixtures answer from the Laplace
transform of L_j (`Gaussian.radial_moments`), sampled data from its slope
jumps against the antiderivatives of xi W_j (`Sampled1D.radial_moments`),
as on the line.  A ring Gaussian (off centre), a Bump and sampled data
under a root wider than the data take the adaptive engine on the data's
support in [0, inf) (`profiles.data_integral`), sampled data with its
nodes as breakpoints.

The scales and constants of each variant are rows of `variants.VARIANTS`,
and this module's `GEOMETRY` record holds the plane's facts (the W batch,
the kernel's normaliser, the weight ratio and update, the moment pass, the C
builder `_point_coeffs`, the radius check); `pd_coeffs` .. `pi_eval` and
`solve_grid_polar` call the line's solve in `variants` with it.
The published C-variant constants fail the oracle certification by
documented ratios (ERRATA.md).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .profiles import data_fact, data_integral
from .specfun import KernelParams, w_poly_batch
from .variants import POLAR, Geometry, SeriesTerms, coeffs, evaluate, recombine, solve_grid, variant_names

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


def _w_radial_moments(data, root: float, n: int, dtype=float) -> np.ndarray:
    """int_0^inf xi W_j(xi/(2 root)) data(xi) dxi for j = 0..n, evaluated and
    summed in dtype: the data's own closed form (`Gaussian.radial_moments`,
    `Sampled1D.radial_moments`; OverflowError where a moment is not finite),
    or else the adaptive engine, with the data's nodes as breakpoints."""
    if n < 0:
        raise ValueError("order must be non-negative")
    moments = data_fact(data, "radial_moments", root, n, dtype)
    if moments is not None:
        return moments

    def integrand(xi):
        w = w_poly_batch(n, xi.astype(dtype) / (2.0 * root))
        with np.errstate(over="ignore"):  # an overflowing moment fails its level sum (integrate_vec)
            w *= xi * data(xi)
        return w

    return data_integral(data, integrand, 0.0, math.inf, np.zeros(n + 1, dtype=dtype))


@functools.lru_cache(maxsize=16)
def _binomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """pi C(2j, 2d) C(2d, d) in np.longdouble and the moment index j - d (0
    where d > j, where C(2j, 2d) = 0), j, d = 0..n; read-only, shared by
    every call at order n.  Each row by the exact integer recurrence
    P_{j,d+1} = P_{j,d} (2j - 2d)(2j - 2d - 1)/(d + 1)^2 from P_{j,0} = 1."""
    rows = []
    for j in range(n + 1):
        row = [1]
        for d in range(j):
            row.append(row[d] * (2 * j - 2 * d) * (2 * j - 2 * d - 1) // ((d + 1) * (d + 1)))
        rows.append(row + [0] * (n - j))
    binom = np.array(rows, dtype=np.longdouble)
    weights = math.pi * binom
    shift = np.maximum(np.arange(n + 1)[:, None] - np.arange(n + 1), 0)
    weights.flags.writeable = shift.flags.writeable = False
    return weights, shift


def _point_coeffs(data, root: float, n: int, r_center):
    """PD-C and PI-C coefficient columns at r_center: one extended-precision
    moment pass, recombined at each radius."""
    moments = _w_radial_moments(data, root, n, dtype=np.longdouble)
    # table[j, d] = pi C(2j, 2d) C(2d, d) M_{j-d}
    weights, shift = _binomials(n)
    return recombine(weights * moments[shift], r_center, lambda r: (r / (2.0 * root)) ** 2)


def _check_radii(r: np.ndarray) -> None:
    if np.any(r < 0.0):
        raise ValueError("radius must be non-negative")


# the weights are (num/den)^j j!^2/(2j)!^2; the batch is looked up at call time (see the line's)
GEOMETRY = Geometry(
    POLAR,
    basis=lambda n, z: w_poly_batch(n, z),
    norm=lambda t: 2.0 * t,
    ratio=lambda num, den: num / den,
    update=lambda g: lambda w, j: w * g / (2.0 * (2 * j + 1)) ** 2,
    moments=lambda data, root, n, weighted: _w_radial_moments(data, root, n),
    c_coeffs=_point_coeffs,
    check=_check_radii,
)


def pd_coeffs(variant: str, f, params: KernelParams, n: int, r_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Direct radial moments f_j.

    PD-C: the angular-averaged moments at r_center, recombined from one
    extended-precision moment pass (README, "C variants"); an array of radii
    gives one column per radius.  Where the shift overflows, a column is
    non-finite and evaluating it raises OverflowError.
    """
    return coeffs(GEOMETRY, True, variant, f, params, n, r_center)


def pi_coeffs(variant: str, u, params: KernelParams, n: int, r_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Inverse radial moments u_j; scales swapped versus pd_coeffs (PI-C at
    r_center, as PD-C)."""
    return coeffs(GEOMETRY, False, variant, u, params, n, r_center)


# --- evaluation ---------------------------------------------------------------

def pd_eval(variant: str, coeffs: np.ndarray, params: KernelParams, r, constants_mode: str = "oracle_validated"):
    """The truncated direct polar series at r (scalar or array): its
    `SeriesTerms`, one column per radius, unchecked (`values(n)` raises an
    overflow)."""
    return evaluate(GEOMETRY, True, variant, coeffs, params, r, constants_mode)


def pi_eval(variant: str, coeffs: np.ndarray, params: KernelParams, r, constants_mode: str = "oracle_validated"):
    """The truncated inverse polar series at r, as pd_eval."""
    return evaluate(GEOMETRY, False, variant, coeffs, params, r, constants_mode)


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
    return solve_grid(GEOMETRY, variant, data, tau, beta, n, rs, constants_mode,
                      (pd_coeffs, pd_eval), (pi_coeffs, pi_eval))
