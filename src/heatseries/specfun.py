"""Special functions used throughout the solvers.

Hermite polynomials H_j, the even radial polynomials W_j generated by
e^{-t^2} I0(2tz), the Bessel functions I0 and J0, half-integer Gamma values,
and the radial heat kernel in overflow-safe form.

Every routine is a pure function of its arguments.  Accuracy targets at
double precision (relative error):

* Hermite values: 1e-12 for order <= 60, |z| <= 10
* I0, J0: 1e-12 on |x| <= 700 (I0, before the overflow guard) and
  x <= 1e4 (J0)
* the scaled radial kernel never overflows for r, xi <= 100*sqrt(t)

All factorial-bearing quantities are produced by multiplicative ratio
updates, never by evaluating factorials directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quad import _gl_rule

__all__ = [
    "KernelParams",
    "PolynomialFamily",
    "bessel_i0",
    "bessel_i0_scaled",
    "bessel_j0",
    "gamma_half",
    "hermite_at_zero",
    "hermite_batch",
    "hermite_eval",
    "scaled_polar_kernel",
    "w_poly_batch",
    "w_poly_coefficients",
    "w_poly_eval",
]

_HUGE = 1e300


@dataclass(frozen=True)
class KernelParams:
    """Time parameters shared by every shifted series: tau > 0, beta > 0."""

    tau: float
    beta: float

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    @property
    def shifted(self) -> float:
        """tau + beta, the scale the direct series evaluate at."""
        return self.tau + self.beta


@dataclass(frozen=True)
class PolynomialFamily:
    """One of the two polynomial families, evaluated in batch up to max_order."""

    kind: str  # "hermite" | "w" (case-insensitive)
    max_order: int

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in ("hermite", "w"):
            raise ValueError(f"unknown polynomial family {self.kind!r}")
        if self.max_order < 0:
            raise ValueError("max_order must be non-negative")

    def values(self, z):
        """Values of orders 0..max_order at z (scalar or array)."""
        if self.kind == "hermite":
            return hermite_batch(self.max_order, z)
        return w_poly_batch(self.max_order, z)


def _check_finite(out, what, order, z) -> None:
    """Raise OverflowError unless out is finite, naming (up to three of) the
    arguments whose columns are not; out holds one column per entry of z."""
    if not np.all(np.isfinite(out)):
        z = np.asarray(z).ravel()
        bad = ~np.all(np.isfinite(out).reshape(-1, z.size), axis=0)
        raise OverflowError(f"{what} overflowed at order {order} for argument(s) near {z[bad][:3]}")


def hermite_batch(n: int, z):
    """H_0(z) .. H_n(z) by the forward recurrence H_{j+1} = 2z H_j - 2j H_{j-1}.

    z may be a scalar or an ndarray; the result has shape (n+1,) + z.shape.
    Raises OverflowError instead of returning infinities.

    Each row is written in place into the result, in the operation order of
    (2z) H_j - (2j) H_{j-1}, so the values are those of the plain expression
    bit for bit.  Only the last row is checked: a non-finite entry of row
    j >= 1 makes the same entry of every later row non-finite (an infinite
    H_j gives 2z H_j = +-inf, or nan at z = 0, and nan stays nan), and row 0
    is all ones.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    z = np.asarray(z, dtype=float)
    out = np.empty((n + 1,) + z.shape)
    rows = out.reshape(n + 1, z.size)  # a view: scalar and 0-d z give one column
    rows[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n >= 1:
            z2 = 2.0 * z.reshape(z.size)
            rows[1] = z2
            work = np.empty_like(z2)
            for j in range(1, n):
                row = np.multiply(z2, rows[j], out=rows[j + 1])
                row -= np.multiply(2.0 * j, rows[j - 1], out=work)
    _check_finite(rows[n], "Hermite recurrence", n, z)
    return out


def hermite_eval(j: int, z):
    """H_j(z) for scalar or array z."""
    return hermite_batch(j, z)[j]


def hermite_at_zero(j: int) -> float:
    """H_j(0): zero for odd j, (-1)^k (2k)!/k! for j = 2k.

    The even value follows from the Rodrigues definition; it is cross-checked
    against the recurrence in the test suite.
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


def w_poly_batch(n: int, z):
    """W_0(z) .. W_n(z) via the stable Laguerre three-term recurrence.

    W_j(z) = (-1)^j (2j)!/j! L_j(z^2), so the batch runs the Laguerre
    recurrence in z^2 and scales by a ratio-updated prefactor.  Agreement
    with the monomial route is a test-suite property.  A np.longdouble z is
    evaluated in that precision.

    The Laguerre rows are updated in place in the operation order of
    ((2j+1 - y) L_j - j L_{j-1}) / (j+1), so the values are those of the plain
    expression bit for bit.  Every row is checked: a scaled row pref_j L_j
    can overflow on its own at some j < n while row n stays finite (near a
    zero of L_n).
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, float), copy=False)  # np.longdouble stays extended
    out = np.empty((n + 1,) + z.shape, dtype=z.dtype)
    rows = out.reshape(n + 1, z.size)  # a view: scalar and 0-d z give one column
    rows[0] = 1.0
    pref = z.dtype.type(-2.0)  # in the precision of z: an exact integer while it fits
    with np.errstate(over="ignore", invalid="ignore"):
        y = (z * z).reshape(z.size)  # inf for |z| > ~1e154: the rows it enters fail the check
        if n >= 1:
            lag_prev, lag, work = np.ones_like(y), 1.0 - y, np.empty_like(y)
            np.multiply(pref, lag, out=rows[1])
            for j in range(1, n):
                np.subtract(2 * j + 1, y, out=work)
                work *= lag
                lag_prev *= j
                work -= lag_prev
                work /= j + 1
                lag_prev, lag, work = lag, work, lag_prev
                pref *= -2.0 * (2 * j + 1)
                np.multiply(pref, lag, out=rows[j + 1])
    _check_finite(rows, "W recurrence", n, z)
    return out


def gamma_half(j: int) -> float:
    """Gamma(j + 1/2) = sqrt(pi) * prod_{i=1..j} (i - 1/2)."""
    if j < 0:
        raise ValueError("order must be non-negative")
    val = math.sqrt(math.pi)
    for i in range(1, j + 1):
        val *= i - 0.5
        if val > _HUGE:
            raise OverflowError(f"Gamma({j}+1/2) exceeds double range")
    return val


# ---------------------------------------------------------------------------
# Bessel I0 / J0
#
# I0: defining power series up to x = 30 (all terms positive, no
# cancellation), then the large-argument expansion
#   I0(x) ~ e^x / sqrt(2 pi x) * sum_k prod_i (2i-1)^2 / (k! (8x)^k),
# truncated at its smallest term (< 1e-15 relative for x >= 30).
#
# J0: alternating power series up to x = 8 (max term ~ 1e2, so ~1e-13
# relative), the averaged-cosine integral representation on (8, 18]
# (fixed 96-node Gauss-Legendre rule on [0, pi], spectrally accurate for
# fewer than ~6 oscillations; quad's cached rule, built on first use), and
# the Hankel asymptotic expansion above 18 where its smallest term is below
# 1e-15.  The plain series + asymptotic pair cannot bridge 8 < x < 18 at
# 1e-12 in double precision, hence the integral branch.
# ---------------------------------------------------------------------------

_I0_SERIES_CUT = 30.0
_J0_SERIES_CUT = 8.0
_J0_ASYMPTOTIC_CUT = 18.0


def _i0_series(x: np.ndarray) -> np.ndarray:
    q = 0.25 * x * x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 120):
        term = term * q / (k * k)
        acc += term
        if np.all(term <= 1e-17 * acc):
            break
    return acc


def _i0_scaled_asymptotic(x: np.ndarray) -> np.ndarray:
    # e^{-x} I0(x); terms t_k = t_{k-1} (2k-1)^2/(8 k x), stop at smallest
    acc = np.ones_like(x)
    term = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    for k in range(1, 40):
        nxt = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        active &= np.abs(nxt) < np.abs(term)
        term = np.where(active, nxt, 0.0)
        acc += term
        if not np.any(np.abs(term) > 1e-17 * np.abs(acc)):
            break
    return acc / np.sqrt(2.0 * math.pi * x)


def bessel_i0_scaled(x):
    """e^{-|x|} I0(x); never overflows."""
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.shape == ()
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x <= _I0_SERIES_CUT
    if np.any(small):
        out[small] = np.exp(-x[small]) * _i0_series(x[small])
    if np.any(~small):
        out[~small] = _i0_scaled_asymptotic(x[~small])
    return float(out[0]) if scalar else out


def bessel_i0(x):
    """I0(x).  Raises OverflowError for |x| > ~709 (use bessel_i0_scaled)."""
    x = np.abs(np.asarray(x, dtype=float))
    if np.any(x > 709.0):
        raise OverflowError(
            "I0 overflows double precision for |x| > 709; "
            "use bessel_i0_scaled for e^{-x} I0(x)"
        )
    return bessel_i0_scaled(x) * np.exp(x) if x.shape else float(
        bessel_i0_scaled(x) * np.exp(x)
    )


def _j0_series(x: np.ndarray) -> np.ndarray:
    q = 0.25 * x * x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 40):
        term = term * (-q) / (k * k)
        acc += term
        if np.all(np.abs(term) <= 1e-18):
            break
    return acc


def _j0_integral(x: np.ndarray) -> np.ndarray:
    # J0(x) = (1/pi) int_0^pi cos(x sin theta) d theta
    nodes, weights = _gl_rule(96)
    theta = 0.5 * math.pi * (nodes + 1.0)
    return np.cos(x[:, None] * np.sin(theta)[None, :]) @ (0.5 * weights)  # the average over [0, pi]


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    # Hankel expansion: J0 = sqrt(2/(pi x)) [P cos(x - pi/4) - Q sin(x - pi/4)]
    # with Hankel symbols a_m = a_{m-1} * (2m-1)^2 / (8 m), P the even-m
    # alternating sum over a_m/x^m, Q the odd-m one.
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    sign_p, sign_q = -1.0, -1.0
    for m in range(1, 30):
        nxt = term * (2 * m - 1) ** 2 / (8.0 * m * x)
        active &= np.abs(nxt) < np.abs(term)
        term = np.where(active, nxt, 0.0)
        if m % 2 == 1:
            q += sign_q * term
            sign_q = -sign_q
        else:
            p += sign_p * term
            sign_p = -sign_p
        if not np.any(np.abs(term) > 1e-17):
            break
    chi = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j0(x):
    """J0(x) for real x (even in x)."""
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.shape == ()
    x = np.atleast_1d(x).ravel() if scalar else np.atleast_1d(x)
    shape = x.shape
    flat = x.ravel()
    out = np.empty_like(flat)
    small = flat <= _J0_SERIES_CUT
    mid = (~small) & (flat <= _J0_ASYMPTOTIC_CUT)
    large = flat > _J0_ASYMPTOTIC_CUT
    if np.any(small):
        out[small] = _j0_series(flat[small])
    if np.any(mid):
        out[mid] = _j0_integral(flat[mid])
    if np.any(large):
        out[large] = _j0_asymptotic(flat[large])
    out = out.reshape(shape)
    return float(out[0]) if scalar else out


def scaled_polar_kernel(r, xi, t: float):
    """The radial heat kernel e^{-(r^2+xi^2)/(4t)} I0(r xi/(2t)) / (2t).

    Computed as e^{-(r-xi)^2/(4t)} * [e^{-b} I0(b)] / (2t) with b = r xi/(2t),
    so the Gaussian factor and the exponential growth of I0 are combined in
    the exponent and the value never overflows for r, xi <= 100 sqrt(t).
    """
    if not (t > 0.0):
        raise ValueError(f"kernel time must be positive, got {t}")
    r = np.asarray(r, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(r < 0.0) or np.any(xi < 0.0):
        raise ValueError("radial arguments must be non-negative")
    b = r * xi / (2.0 * t)
    with np.errstate(over="ignore"):  # (r - xi)^2 = inf far out: a zero kernel
        out = np.exp(-((r - xi) ** 2) / (4.0 * t)) * bessel_i0_scaled(b) / (2.0 * t)
    return float(out) if np.ndim(out) == 0 else out
