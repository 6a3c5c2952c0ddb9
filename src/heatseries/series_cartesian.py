"""Truncated Hermite-series solvers for the line.

Six shifted-series variants (rows of `variants.VARIANTS`) plus the classical
derivative-based inverse baseline, each split into coefficient computation,
truncated evaluation and divergence monitoring.  With s = tau + beta:

* CD-A (direct): moments of f against H_j(xi/(2 sqrt(beta))), evaluated with
  the Gaussian prefactor at scale s.
* CD-B (direct): moments at scale sqrt(s), prefactor at scale 2*tau + beta.
* CD-C (direct): even-order moments in the shifted argument
  (x - xi)/(2 R), R = sqrt(beta): with the moments M_k(c) = int H_k((xi -
  c)/(2R)) f(xi) dxi about a centre c (CD-A's at c = 0), and H_{2j} even,
  c_j(x) = M_{2j}(x).  Gaussians and mixtures have those moments about
  every point at once (`Gaussian.point_moments`: one recurrence over all
  points), so each point is its own centre.  Other data takes them about a
  lattice centre c near x and recombines them by the Hermite addition
  formula (DLMF 18.18), c_j(x) = sum_d C(2j, d) (-(x - c)/R)^d M_{2j-d}(c).
  The binomial weights amplify the moments' rounding noise about
  e^{|x - c| sqrt(N)/R}-fold, so the lattice keeps |x - c|/R <= 6/sqrt(N),
  and one moment pass per centre serves every point near it.  Sampled data
  snaps the lattice step down to whole node spacings
  (`Sampled1D.lattice_centres`), so that all its centres take their
  moments from one shared Hermite batch (`Sampled1D.lattice_moments`);
  each point then sums its centre's table in one recombination for the
  whole grid (`variants.recombine`).  Every order past 514, where C(2N, N)
  exceeds float64, fails at once on either path.
* CI-A / CI-B / CI-C (inverse): the same structures with the roles of the
  two scales exchanged; CI-B weights its moments with the Gaussian kernel at
  scale beta instead of carrying a prefactor.
* CI-classical (inverse): Maclaurin-type expansion in derivatives of the
  data at 0 - the instability baseline that amplifies noise through
  high-order differentiation.

The moment passes, and CI-classical's derivatives, ask the data first
(`profiles.data_fact`): sampled data has its moments in closed form from
its slope jumps (`Sampled1D.hermite_moments`; CI-B's weighted ones while
the weight is no wider than the data), Gaussians and mixtures from the
generating function of H_k, about any centre or every point of a grid at
once and under CI-B's weight (`Gaussian.hermite_moments`).  A Bump, and
CI-B's moments of sampled data under a wider weight, take the adaptive
quadrature.

This module keeps the line's facts in its `GEOMETRY` record (the Hermite
batch, the kernel's normaliser, the weight ratio and update, the moment pass,
the C builder `_point_coeffs`); its public entries call `variants.coeffs`,
`variants.evaluate` and `variants.solve_grid` with it.  Every evaluation,
`ci_classical`'s too, returns a `variants.SeriesTerms` (ascending sums, the
early stop, the divergence scan); `solve_grid_line` (CI-classical at beta =
0) gives the CLI, the audit and the order sweeps their term matrix, checked
at order n.

constants_mode selects between the oracle-certified constants
("oracle_validated", default) and the originally published ones
("paper_literal") for the C variants, whose published constants fail the
kernel-oracle certification by documented ratios (see ERRATA.md).
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .profiles import data_fact, profile_support
from .quad import TRUNCATION_RADIUS_SIGMAS, integrate_vec
from .specfun import KernelParams, hermite_batch
from .variants import LINE, Geometry, SeriesTerms, basis_terms, coeffs, evaluate, recombine, solve_grid

__all__ = [
    "cd_coeffs",
    "cd_eval",
    "ci_classical",
    "ci_coeffs",
    "ci_eval",
    "solve_grid_line",
]

DEFAULT_ORDER = 40


# --- coefficient integrals --------------------------------------------------

def _moment_window(data, weight_root: float | None) -> tuple[float, float]:
    lo, hi = profile_support(data)
    if weight_root is not None:
        reach = TRUNCATION_RADIUS_SIGMAS * weight_root * math.sqrt(2.0)
        lo, hi = max(lo, -reach), min(hi, reach)
    return lo, hi


def _hermite_moments(data, root: float, n: int, weighted: bool = False, center: float = 0.0) -> np.ndarray:
    """Moments of the data against Hermite polynomials at the given scale.

    Plain form: int H_j((xi - center)/(2 root)) data(xi) dxi.
    weighted (CI-B, about 0 only): the integrand additionally carries
    e^{-xi^2/(4 root^2)}/(2 root sqrt(pi)).
    The data's closed form comes first (`Sampled1D.hermite_moments`,
    `Gaussian.hermite_moments`), or else the adaptive quadrature.
    OverflowError where a moment is not finite.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if weighted and center != 0.0:
        raise ValueError("weighted moments are taken about 0")
    moments = data_fact(data, "hermite_moments", root, n, center, weighted)
    if moments is not None:
        return moments
    lo, hi = _moment_window(data, root if weighted else None)
    if lo >= hi:
        return np.zeros(n + 1)

    def integrand(xi):
        vals = hermite_batch(n, (xi - center) / (2.0 * root))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment fails its level or the series
            vals *= data(xi)
            if weighted:
                vals *= np.exp(-(xi * xi) / (4.0 * root * root)) / (2.0 * root * math.sqrt(math.pi))
        return vals

    return integrate_vec(integrand, lo, hi, breakpoints=data_fact(data, "breakpoints"))[0]


def _centres(x: np.ndarray, root: float, n: int, data=None) -> np.ndarray:
    """Each point's expansion centre: the nearest node of the lattice with
    spacing 12 root / sqrt(n), so that |x - c| / root <= 6 / sqrt(n), or of
    the data's own lattice of no larger step (`Sampled1D.lattice_centres`:
    whole node spacings).  It depends on the point alone, and x = 0 is its
    own centre."""
    if n == 0:
        return np.zeros_like(x)  # c_0 = M_0 about any centre
    step = 12.0 * root / math.sqrt(n)
    snapped = data_fact(data, "lattice_centres", x, step)
    return step * np.round(x / step) if snapped is None else snapped


def _lattice_moments(data, root: float, n: int, lattice: np.ndarray) -> np.ndarray:
    """The moments of orders 0..n about each lattice centre, one row each,
    NaN where they are not finite (far from the data: those points' sums
    overflow as well).  Sampled data takes its whole lattice at once
    (`Sampled1D.lattice_moments`), any other data one pass per centre."""
    moments = data_fact(data, "lattice_moments", root, n, lattice)
    if moments is not None:
        return moments
    moments = np.full((lattice.size, n + 1), np.nan)
    for k in np.flatnonzero(np.isfinite(lattice)):
        try:
            moments[k] = _hermite_moments(data, root, n, center=float(lattice[k]))
        except OverflowError:
            pass
    return moments


@functools.lru_cache(maxsize=16)
def _binomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C(2j, d) and the moment index 2j - d (0 where d > 2j, where C(2j, d)
    = 0), j = 0..n, d = 0..2n; read-only, shared by every call at order n.
    Rows by C(m, d + 1) = C(m, d) (m - d)/(d + 1), exactly (n <= 514:
    `_point_coeffs` checks C(2n, n) first)."""
    rows = []
    for j in range(n + 1):
        row = [1]
        for d in range(2 * j):
            row.append(row[d] * (2 * j - d) // (d + 1))
        rows.append(row + [0] * (2 * (n - j)))
    binom = np.array(rows, dtype=float)
    shift = np.maximum(2 * np.arange(n + 1)[:, None] - np.arange(2 * n + 1), 0)
    binom.flags.writeable = shift.flags.writeable = False
    return binom, shift


def _point_coeffs(data, root: float, n: int, x_center):
    """CD-C and CI-C coefficient columns at x_center (1-D for a scalar)."""
    if math.comb(2 * n, n) > sys.float_info.max:  # from n = 515, whichever path runs
        raise OverflowError(f"binomial weights C(2j, d) exceed double precision at order {n}")
    x = np.atleast_1d(np.asarray(x_center, dtype=float))
    # each point its own centre where the data has its moments about any
    # point (H_{2j} is even: c_j(x) = M_{2j}(x)); else one table per lattice
    # centre, table[j, d] = C(2j, d) M_{2j-d}, and each point sums its
    # centre's.  A point whose moments are not finite, or without a centre
    # (x = nan), has a non-finite column
    moments = data_fact(data, "point_moments", root, 2 * n, x)
    if moments is not None:
        out = moments[:, ::2].T
    else:
        binom, shift = _binomials(n)
        centres = _centres(x, root, n, data)
        lattice, which = np.unique(centres, return_inverse=True)
        moments = _lattice_moments(data, root, 2 * n, lattice)
        with np.errstate(over="ignore"):  # an overflowing term fails the series check
            tables = binom * moments[:, shift]
        out = recombine(tables, x - centres, lambda d: -d / root, which)
    return out[:, 0] if np.ndim(x_center) == 0 else out


# the weights are g^j / j!; the batch is looked up at call time, where a tracer may have rebound it
GEOMETRY = Geometry(
    LINE,
    basis=lambda n, z: hermite_batch(n, z),
    norm=lambda t: 2.0 * math.sqrt(math.pi * t),
    ratio=lambda num, den: math.sqrt(num) / (2.0 * math.sqrt(den)),
    update=lambda g: lambda w, j: w * g / (j + 1),
    moments=_hermite_moments,
    c_coeffs=_point_coeffs,
)


def cd_coeffs(variant: str, f, params: KernelParams, n: int, x_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Direct-problem moments f_j.

    CD-C: the shifted even moments f_{2j}(x) at x_center: the moments about
    the point itself for Gaussians and mixtures, else recombined from one
    moment pass about the point's lattice centre (README, "C variants"); an
    array of points gives one column per point.  Where the moments or the
    shift overflow, a column is non-finite and evaluating it raises
    OverflowError naming the point.
    """
    return coeffs(GEOMETRY, True, variant, f, params, n, x_center)


def ci_coeffs(variant: str, u, params: KernelParams, n: int, x_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Inverse-problem moments u_j; the two scales swap roles versus cd_coeffs
    (CI-C at x_center, as CD-C)."""
    return coeffs(GEOMETRY, False, variant, u, params, n, x_center)


# --- truncated evaluation ---------------------------------------------------

def cd_eval(variant: str, coeffs: np.ndarray, params: KernelParams, x, constants_mode: str = "oracle_validated"):
    """The truncated direct series at x (scalar or array): its `SeriesTerms`,
    one column per point, unchecked (`values(n)` raises an overflow).

    CD-C coefficients are tied to the x they were computed for; pass the
    same point here (or the same points, one coefficient column each).
    """
    return evaluate(GEOMETRY, True, variant, coeffs, params, x, constants_mode)


def ci_eval(variant: str, coeffs: np.ndarray, params: KernelParams, x, constants_mode: str = "oracle_validated"):
    """The truncated inverse series at x, as cd_eval."""
    return evaluate(GEOMETRY, False, variant, coeffs, params, x, constants_mode)


# --- classical derivative-based inverse baseline -----------------------------

def ci_classical(u, tau: float, n: int, x) -> SeriesTerms:
    """Derivative-based inverse baseline.

    f(x) ~= sum_{j<=n} u^(j)(0) tau^{j/2} / j! * H_j(x/(2 sqrt(tau))).
    The derivatives are the data's own (`derivs_at_zero`): in closed form
    for Gaussian data and mixtures, raw central differences for sampled
    data.  Returns the `SeriesTerms` at x, as cd_eval.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if n < 0:
        raise ValueError("order must be non-negative")
    derivs = data_fact(u, "derivs_at_zero", n)
    if derivs is None:
        raise ValueError("analytic derivatives are available for Gaussian data only; sample "
                         "other profiles onto a grid first")
    return basis_terms(GEOMETRY, derivs, tau, math.sqrt(tau), None, np.atleast_1d(np.asarray(x, dtype=float)))


# --- grid solve --------------------------------------------------------------

def solve_grid_line(
    variant: str,
    data,
    tau: float,
    beta: float,
    n: int,
    xs: np.ndarray,
    constants_mode: str = "oracle_validated",
) -> SeriesTerms:
    """The term matrix of orders 0..n of one line variant at times tau and
    beta on a grid, from one coefficient pass at order n, checked at order n
    (an overflowing CD-C or CI-C point is named); CD-C and CI-C sum each
    point's own coefficients.  A bad constants_mode fails before the pass.
    CI-classical has no shift and no table row: it runs at beta = 0 and
    takes the data's derivatives (no quadrature)."""
    return solve_grid(GEOMETRY, variant, data, tau, beta, n, xs, constants_mode,
                      (cd_coeffs, cd_eval), (ci_coeffs, ci_eval), ci_classical)
