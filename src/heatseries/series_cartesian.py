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

Every evaluation goes through the shared path in `variants`: it sums in
ascending order (reproducibility), stops early once three consecutive terms
drop below abs_tol, and scans the term magnitudes for divergence.
`solve_grid_line` is the library's grid solve; the CLI and the studies reach
`cd_coeffs`/`ci_coeffs` and `line_series` through the geometry dispatch of
`experiments`.

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
from .quad import FiniteInterval, QuadSpec, integrate_vec
from .specfun import KernelParams, hermite_batch
from .variants import (
    CLASSICAL,
    LINE,
    DivergenceDiag,
    beta_rule,
    check_mode,
    checked,
    default_beta,
    grid_series,
    lookup,
    point_results,
    pointwise_terms,
    ratio_products,
    recombine,
    series_terms,
)

__all__ = [
    "DivergenceDiag",
    "beta_rule",
    "cd_coeffs",
    "cd_eval",
    "ci_classical",
    "ci_coeffs",
    "ci_eval",
    "default_beta",
    "solve_grid_line",
]

DEFAULT_ORDER = 40


# --- coefficient integrals --------------------------------------------------

def _moment_window(data, spec: QuadSpec, weight_root: float | None) -> tuple[float, float]:
    lo, hi = profile_support(data, spec.truncation_radius_sigmas)
    if weight_root is not None:
        reach = spec.truncation_radius_sigmas * weight_root * math.sqrt(2.0)
        lo, hi = max(lo, -reach), min(hi, reach)
    return lo, hi


def _hermite_moments(
    data, root: float, n: int, spec: QuadSpec, weight_root: float | None = None, center: float = 0.0
) -> np.ndarray:
    """Moments of the data against Hermite polynomials at the given scale.

    Plain form: int H_j((xi - center)/(2 root)) data(xi) dxi.
    weight_root b: the integrand additionally carries e^{-xi^2/(4b^2)}/(2b sqrt(pi)).
    Plain moments of sampled data take one exact level: between its nodes
    the data is linear, so the integrand is a polynomial of degree n + 1.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    lo, hi = _moment_window(data, spec, weight_root)
    if lo >= hi:
        return np.zeros(n + 1)
    sampled = isinstance(data, Sampled1D)
    breakpoints = data.nodes if sampled else None
    degree = n + 1 if sampled and weight_root is None else None

    def integrand(xi):
        vals = hermite_batch(n, (xi - center) / (2.0 * root))
        vals *= data(xi)
        if weight_root is not None:
            vals *= np.exp(-(xi * xi) / (4.0 * weight_root * weight_root)) / (
                2.0 * weight_root * math.sqrt(math.pi)
            )
        return vals

    vals, _ = integrate_vec(integrand, FiniteInterval(lo, hi), spec, breakpoints=breakpoints, degree=degree)
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


def _coeffs(direct: bool, variant: str, data, params: KernelParams, n: int, x_center, spec: QuadSpec):
    row = lookup(variant, LINE, direct)
    root = row.moment_root(params)
    if not row.pointwise:
        return _hermite_moments(data, root, n, spec, weight_root=root if row.weighted else None)
    # table[j, d] = C(2j, d) M_{2j-d}
    binom, shift = _binomials(n)
    x = np.atleast_1d(np.asarray(x_center, dtype=float))
    centres = _centres(x, root, n)
    out = np.full((n + 1, x.size), np.nan)  # a point without a centre (x = nan) stays non-finite
    for c in np.unique(centres):
        at = centres == c
        try:
            moments = _hermite_moments(data, root, 2 * n, spec, center=float(c))
        except OverflowError:  # far from the data: these points' sums overflow as well
            moments = np.full(2 * n + 1, np.nan)
        out[:, at] = recombine(binom * moments[shift], x[at] - c, lambda d: -d / root)
    return out[:, 0] if np.ndim(x_center) == 0 else out


def cd_coeffs(
    variant: str,
    f,
    params: KernelParams,
    n: int,
    x_center: float | np.ndarray = 0.0,
    spec: QuadSpec = QuadSpec(),
) -> np.ndarray:
    """Direct-problem moments f_j.

    CD-C: the shifted even moments f_{2j}(x) at x_center, recombined from
    one moment pass about the point's lattice centre (README, "C
    variants"); an array of points gives one column per point and one pass
    per centre.  Where the shift overflows, a column is non-finite and
    evaluating it raises OverflowError.
    """
    return _coeffs(True, variant, f, params, n, x_center, spec)


def ci_coeffs(
    variant: str,
    u,
    params: KernelParams,
    n: int,
    x_center: float | np.ndarray = 0.0,
    spec: QuadSpec = QuadSpec(),
) -> np.ndarray:
    """Inverse-problem moments u_j; the two scales swap roles versus cd_coeffs
    (CI-C at x_center, as CD-C)."""
    return _coeffs(False, variant, u, params, n, x_center, spec)


# --- truncated evaluation ---------------------------------------------------

def _hermite_terms(coeffs: np.ndarray, arg: float, g: float, pref, x: np.ndarray, abs_tol: float):
    """Terms c_j H_j(x/(2 sqrt(arg))) g^j / j! [* Gaussian prefactor at time pref]."""
    n = coeffs.size - 1
    h = hermite_batch(n, x / (2.0 * math.sqrt(arg)))
    w = ratio_products(1.0, n, lambda w, j: w * g / (j + 1))
    if pref is not None:
        with np.errstate(over="ignore"):  # x * x = inf far out: a zero prefactor
            pref = np.exp(-(x * x) / (4.0 * pref)) / (2.0 * math.sqrt(math.pi * pref))
    return series_terms(coeffs * w, h, pref, abs_tol)


def line_series(row, coeffs: np.ndarray, params: KernelParams, x: np.ndarray, mode: str, abs_tol: float = 1e-14):
    """The term matrix of one line variant at the points x (internal)."""
    check_mode(mode)
    if row.pointwise:
        return pointwise_terms(row.kappa(params, mode, coeffs.shape[0] - 1), coeffs, x.size, abs_tol)
    arg, num, den, pref = row.times(params)
    return _hermite_terms(coeffs, arg, math.sqrt(num) / (2.0 * math.sqrt(den)), pref, x, abs_tol)


def _eval(direct: bool, variant: str, coeffs, params: KernelParams, x, mode: str, abs_tol: float):
    row = lookup(variant, LINE, direct)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    return point_results(line_series(row, np.asarray(coeffs, float), params, x_arr, mode, abs_tol), x)


def cd_eval(
    variant: str,
    coeffs: np.ndarray,
    params: KernelParams,
    x,
    constants_mode: str = "oracle_validated",
    abs_tol: float = 1e-14,
):
    """Evaluate a truncated direct series; returns (value, diagnostics).

    CD-C coefficients are tied to the x they were computed for; pass the
    same point here (or the same points, one coefficient column each).
    """
    return _eval(True, variant, coeffs, params, x, constants_mode, abs_tol)


def ci_eval(
    variant: str,
    coeffs: np.ndarray,
    params: KernelParams,
    x,
    constants_mode: str = "oracle_validated",
    abs_tol: float = 1e-14,
):
    """Evaluate a truncated inverse series; returns (value, diagnostics)."""
    return _eval(False, variant, coeffs, params, x, constants_mode, abs_tol)


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
    for j in range(1, n + 1):
        m = j // 2
        if j % 2 == 0:
            # 2m-th central difference over 2m+1 points
            if i0 - m < 0 or i0 + m >= data.n_nodes:
                raise ValueError(f"stencil for order {j} exceeds the grid")
            acc, binom = 0.0, 1.0
            for k in range(2 * m + 1):
                acc += ((-1.0) ** k) * binom * vals[i0 + m - k]
                binom *= (2 * m - k) / (k + 1)
            out[j] = acc / h ** (2 * m)
        else:
            # odd order: first central difference composed with the 2m-th
            if i0 - m - 1 < 0 or i0 + m + 1 >= data.n_nodes:
                raise ValueError(f"stencil for order {j} exceeds the grid")
            acc, binom = 0.0, 1.0
            for k in range(2 * m + 1):
                acc += ((-1.0) ** k) * binom * (vals[i0 + m - k + 1] - vals[i0 + m - k - 1])
                binom *= (2 * m - k) / (k + 1)
            out[j] = acc / (2.0 * h ** (2 * m + 1))
    if not np.all(np.isfinite(out)):
        raise OverflowError("finite-difference derivatives overflowed")
    return out


def classical_time(params: KernelParams | None, tau: float | None) -> float:
    """The time CI-classical runs at: tau, or params.tau when tau is None (it
    has no shift, so params may be None)."""
    if tau is None and params is None:
        raise ValueError("CI-classical needs tau")
    return params.tau if tau is None else tau


def classical_series(u, tau: float, n: int, x: np.ndarray, abs_tol: float = 1e-14):
    """The term matrix of the classical baseline at the points x (internal)."""
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    if n < 0:
        raise ValueError("order must be non-negative")
    derivs = _fd_derivs_at_zero(u, n) if isinstance(u, Sampled1D) else _analytic_derivs_at_zero(u, n)
    return _hermite_terms(derivs, tau, math.sqrt(tau), None, x, abs_tol)


def ci_classical(u, tau: float, n: int, x, abs_tol: float = 1e-14):
    """Derivative-based inverse baseline.

    f(x) ~= sum_{j<=n} u^(j)(0) tau^{j/2} / j! * H_j(x/(2 sqrt(tau))).
    Derivatives come in closed form for Gaussian data and from raw central
    differences for sampled data.  Returns (value, diagnostics).
    """
    return point_results(classical_series(u, tau, n, np.atleast_1d(np.asarray(x, dtype=float)), abs_tol), x)


# --- grid solve --------------------------------------------------------------

def solve_grid_line(
    variant: str,
    data,
    params: KernelParams | None,
    n: int,
    xs: np.ndarray,
    constants_mode: str = "oracle_validated",
    spec: QuadSpec = QuadSpec(),
    tau: float | None = None,
) -> tuple[np.ndarray, list[DivergenceDiag]]:
    """Evaluate one line variant on a grid from one coefficient pass; CD-C
    and CI-C sum each point's own coefficients.  CI-classical takes tau, or
    params.tau when tau is None."""
    if variant == CLASSICAL:
        return ci_classical(data, classical_time(params, tau), n, xs)
    row = lookup(variant, LINE)
    coeffs_fn = cd_coeffs if row.direct else ci_coeffs
    build = grid_series(row, coeffs_fn, line_series, data, params, n, xs, constants_mode, spec)
    return point_results(checked(build(n), variant, xs, n), xs)
