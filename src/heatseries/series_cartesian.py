"""Truncated Hermite-series solvers for the line.

Six shifted-series variants (rows of `variants.VARIANTS`) plus the classical
derivative-based inverse baseline, each split into coefficient computation,
truncated evaluation and divergence monitoring.  With s = tau + beta:

* CD-A (direct): moments of f against H_j(xi/(2 sqrt(beta))), evaluated with
  the Gaussian prefactor at scale s.
* CD-B (direct): moments at scale sqrt(s), prefactor at scale 2*tau + beta.
* CD-C (direct): even-order moments in the shifted argument
  (x - xi)/(2 R), R = sqrt(beta).  By the Hermite addition formula (DLMF
  18.18) they are c_j(x) = sum_d C(2j, d) (-(x - c)/R)^d M_{2j-d}(c) with
  the moments M_k(c) = int H_k((xi - c)/(2R)) f(xi) dxi about any centre c
  (CD-A's at c = 0).  The binomial weights amplify the moments' rounding
  noise about e^{|x - c| sqrt(N)/R}-fold, so each point takes the nearest
  centre of a lattice with |x - c|/R <= 6/sqrt(N), and one moment pass per
  centre serves every point near it.
* CI-A / CI-B / CI-C (inverse): the same structures with the roles of the
  two scales exchanged; CI-B weights its moments with the Gaussian kernel at
  scale beta instead of carrying a prefactor.
* CI-classical (inverse): Maclaurin-type expansion in derivatives of the
  data at 0 - the instability baseline that amplifies noise through
  high-order differentiation.

Every evaluation (`cd_eval`, `ci_eval`, `ci_classical`) returns the
`variants.SeriesTerms` of the shared path: it sums in ascending order
(reproducibility), stops early once three consecutive terms drop below
`variants.EARLY_STOP_TOL`, and scans the term magnitudes for divergence.
`solve_grid_line(variant, data, tau, beta, n, xs, constants_mode)` is the
one place that picks the coefficient and evaluation functions of a line
variant by its direction (CI-classical at beta = 0): the CLI, the audit and
the order sweeps all take their term matrix from it, checked at order n.

constants_mode selects between the oracle-certified constants
("oracle_validated", default) and the originally published ones
("paper_literal") for the C variants, whose published constants fail the
kernel-oracle certification by documented ratios (see ERRATA.md).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .profiles import Gaussian, Mixture, Sampled1D, profile_support
from .quad import TRUNCATION_RADIUS_SIGMAS, integrate_vec
from .specfun import KernelParams, hermite_batch
from .variants import (
    AXIS,
    CLASSICAL,
    LINE,
    SeriesTerms,
    check_mode,
    lookup,
    pointwise_terms,
    ratio_products,
    recombine,
    series_terms,
)

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


def _hermite_moments(data, root: float, n: int, weight_root: float | None = None, center: float = 0.0) -> np.ndarray:
    """Moments of the data against Hermite polynomials at the given scale.

    Plain form: int H_j((xi - center)/(2 root)) data(xi) dxi.
    weight_root b: the integrand additionally carries e^{-xi^2/(4b^2)}/(2b sqrt(pi)).
    Plain moments of sampled data take one exact level: between its nodes
    the data is linear, so the integrand is a polynomial of degree n + 1.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    lo, hi = _moment_window(data, weight_root)
    if lo >= hi:
        return np.zeros(n + 1)
    sampled = isinstance(data, Sampled1D)
    breakpoints = data.nodes if sampled else None
    degree = n + 1 if sampled and weight_root is None else None

    def integrand(xi):
        vals = hermite_batch(n, (xi - center) / (2.0 * root))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment fails its level or the series
            vals *= data(xi)
            if weight_root is not None:
                vals *= np.exp(-(xi * xi) / (4.0 * weight_root * weight_root)) / (
                    2.0 * weight_root * math.sqrt(math.pi)
                )
        return vals

    vals, _ = integrate_vec(integrand, lo, hi, breakpoints=breakpoints, degree=degree)
    return vals


def _centres(x: np.ndarray, root: float, n: int) -> np.ndarray:
    """Each point's expansion centre: the nearest node of the lattice with
    spacing 12 root / sqrt(n), so that |x - c| / root <= 6 / sqrt(n).  It
    depends on the point alone, and x = 0 is its own centre."""
    if n == 0:
        return np.zeros_like(x)  # c_0 = M_0 about any centre
    step = 12.0 * root / math.sqrt(n)
    return step * np.round(x / step)


@functools.lru_cache(maxsize=16)
def _binomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C(2j, d) and the moment index 2j - d (0 where d > 2j, where C(2j, d)
    = 0), j = 0..n, d = 0..2n; read-only, shared by every call at order n."""
    binom = np.array([[math.comb(2 * j, d) for d in range(2 * n + 1)] for j in range(n + 1)], dtype=float)
    shift = np.maximum(2 * np.arange(n + 1)[:, None] - np.arange(2 * n + 1), 0)
    binom.flags.writeable = shift.flags.writeable = False
    return binom, shift


def _coeffs(direct: bool, variant: str, data, params: KernelParams, n: int, x_center):
    row = lookup(variant, LINE, direct)
    root = row.moment_root(params)
    if not row.pointwise:
        return _hermite_moments(data, root, n, weight_root=root if row.weighted else None)
    # table[j, d] = C(2j, d) M_{2j-d}
    binom, shift = _binomials(n)
    x = np.atleast_1d(np.asarray(x_center, dtype=float))
    centres = _centres(x, root, n)
    out = np.full((n + 1, x.size), np.nan)  # a point without a centre (x = nan) stays non-finite
    for c in np.unique(centres):
        at = centres == c
        try:
            moments = _hermite_moments(data, root, 2 * n, center=float(c))
        except OverflowError:  # far from the data: these points' sums overflow as well
            moments = np.full(2 * n + 1, np.nan)
        with np.errstate(over="ignore"):  # an overflowing term fails the series check
            table = binom * moments[shift]
        out[:, at] = recombine(table, x[at] - c, lambda d: -d / root)
    return out[:, 0] if np.ndim(x_center) == 0 else out


def cd_coeffs(variant: str, f, params: KernelParams, n: int, x_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Direct-problem moments f_j.

    CD-C: the shifted even moments f_{2j}(x) at x_center, recombined from
    one moment pass about the point's lattice centre (README, "C
    variants"); an array of points gives one column per point and one pass
    per centre.  Where the shift overflows, a column is non-finite and
    evaluating it raises OverflowError.
    """
    return _coeffs(True, variant, f, params, n, x_center)


def ci_coeffs(variant: str, u, params: KernelParams, n: int, x_center: float | np.ndarray = 0.0) -> np.ndarray:
    """Inverse-problem moments u_j; the two scales swap roles versus cd_coeffs
    (CI-C at x_center, as CD-C)."""
    return _coeffs(False, variant, u, params, n, x_center)


# --- truncated evaluation ---------------------------------------------------

def _hermite_terms(coeffs: np.ndarray, arg: float, g: float, pref, x: np.ndarray):
    """Terms c_j H_j(x/(2 sqrt(arg))) g^j / j! [* Gaussian prefactor at time pref]."""
    n = coeffs.size - 1
    # an infinite argument fails the Hermite batch; x * x = inf far out: a zero prefactor
    with np.errstate(over="ignore"):
        h = hermite_batch(n, x / (2.0 * math.sqrt(arg)))
        if pref is not None:
            pref = np.exp(-(x * x) / (4.0 * pref)) / (2.0 * math.sqrt(math.pi * pref))
    w = ratio_products(1.0, n, lambda w, j: w * g / (j + 1))
    return series_terms(coeffs * w, h, pref)


def _eval(direct: bool, variant: str, coeffs, params: KernelParams, x, mode: str) -> SeriesTerms:
    """The term matrix of one line variant at the points x (cd_eval, ci_eval)."""
    row = lookup(variant, LINE, direct)
    check_mode(mode)
    coeffs = np.asarray(coeffs, float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if row.pointwise:
        return pointwise_terms(row.kappa(params, mode, coeffs.shape[0] - 1), coeffs, x, f"{variant} at {AXIS[LINE]}")
    arg, num, den, pref = row.times(params)
    return _hermite_terms(coeffs, arg, math.sqrt(num) / (2.0 * math.sqrt(den)), pref, x)


def cd_eval(variant: str, coeffs: np.ndarray, params: KernelParams, x, constants_mode: str = "oracle_validated"):
    """The truncated direct series at x (scalar or array): its `SeriesTerms`,
    one column per point, unchecked (`values(n)` raises an overflow).

    CD-C coefficients are tied to the x they were computed for; pass the
    same point here (or the same points, one coefficient column each).
    """
    return _eval(True, variant, coeffs, params, x, constants_mode)


def ci_eval(variant: str, coeffs: np.ndarray, params: KernelParams, x, constants_mode: str = "oracle_validated"):
    """The truncated inverse series at x, as cd_eval."""
    return _eval(False, variant, coeffs, params, x, constants_mode)


# --- classical derivative-based inverse baseline -----------------------------

def _analytic_derivs_at_zero(profile, n: int) -> np.ndarray:
    """u^(j)(0) for Gaussian data, via H_j and the chain rule."""
    if isinstance(profile, Gaussian):
        root = 2.0 * math.sqrt(profile.width_a)
        y0 = -profile.center / root
        h = hermite_batch(n, y0)
        scale = profile.amplitude * math.exp(-(y0 * y0))
        out = np.empty(n + 1)
        p = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term fails the series check
            for j in range(n + 1):
                out[j] = scale * p * h[j]
                p *= -1.0 / root
        return out
    if isinstance(profile, Mixture):
        return np.sum([_analytic_derivs_at_zero(g, n) for g in profile.components], axis=0)
    raise ValueError(
        "analytic derivatives are available for Gaussian data only; sample "
        "other profiles onto a grid first"
    )


def _fd_derivs_at_zero(data: Sampled1D, n: int) -> np.ndarray:
    """Central finite differences of orders 0..n at x = 0.

    Order j uses the minimal stencil of width 2*ceil(j/2)+1 at the raw grid
    spacing - deliberately unregularized so that noise amplification shows.
    """
    h = data.spacing
    i0 = int(round((0.0 - data.lo) / h))
    if not (0 <= i0 < data.n_nodes) or abs(data.nodes[i0]) > 0.25 * h:
        raise ValueError("sampled data must contain x = 0 as a grid node")
    vals = data.values
    out = np.empty(n + 1)
    out[0] = vals[i0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a non-finite derivative raises below
        diffs = np.zeros_like(vals)  # 2h times the first central difference
        diffs[1:-1] = vals[2:] - vals[:-2]
        for j in range(1, n + 1):
            # the 2m-th central difference over 2m+1 points, of vals (even
            # order) or of the first central differences (odd order)
            m, odd = divmod(j, 2)
            if i0 - m - odd < 0 or i0 + m + odd >= data.n_nodes:
                raise ValueError(f"stencil for order {j} exceeds the grid")
            src = diffs if odd else vals
            acc, binom = 0.0, 1.0
            for k in range(2 * m + 1):
                acc += ((-1.0) ** k) * binom * src[i0 + m - k]
                binom *= (2 * m - k) / (k + 1)
            out[j] = acc / ((2.0 if odd else 1.0) * h ** (2 * m + odd))
    if not np.all(np.isfinite(out)):
        raise OverflowError("finite-difference derivatives overflowed")
    return out


def ci_classical(u, tau: float, n: int, x) -> SeriesTerms:
    """Derivative-based inverse baseline.

    f(x) ~= sum_{j<=n} u^(j)(0) tau^{j/2} / j! * H_j(x/(2 sqrt(tau))).
    Derivatives come in closed form for Gaussian data and from raw central
    differences for sampled data.  Returns the `SeriesTerms` at x, as
    cd_eval.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if n < 0:
        raise ValueError("order must be non-negative")
    derivs = _fd_derivs_at_zero(u, n) if isinstance(u, Sampled1D) else _analytic_derivs_at_zero(u, n)
    return _hermite_terms(derivs, tau, math.sqrt(tau), None, np.atleast_1d(np.asarray(x, dtype=float)))


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
    check_mode(constants_mode)
    if variant == CLASSICAL:
        if beta != 0.0:
            raise ValueError(f"CI-classical has no shift parameter; got beta={beta}")
        return ci_classical(data, tau, n, xs).check(n)
    direct = lookup(variant, LINE).direct
    params = KernelParams(tau=tau, beta=beta)
    xs = np.asarray(xs, dtype=float)
    coeffs = (cd_coeffs if direct else ci_coeffs)(variant, data, params, n, xs)
    return (cd_eval if direct else ci_eval)(variant, coeffs, params, xs, constants_mode).check(n)
