"""Special functions used throughout the solvers.

Hermite polynomials H_j, the even radial polynomials W_j generated by
e^{-t^2} I0(2tz), the complementary error function erfc and its integral
ierfc, the Bessel functions I0 and J0, and the radial heat kernel in
overflow-safe form.

Every routine is a pure function of its arguments.  Accuracy targets at
double precision (relative error):

* Hermite values: 1e-12 for order <= 60, |z| <= 10
* erfc: 4 eps absolute on the whole line, and 1e-13 relative wherever
  erfc >= 1e-300
* I0: 1e-15 for e^{-|x|} I0(x) on |x| <= 1e4 (I0 itself up to its
  overflow guard at 709); J0: 1e-12 on x <= 1e4
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
    "bessel_i0",
    "bessel_i0_scaled",
    "bessel_j0",
    "erfc",
    "hermite_batch",
    "ierfc",
    "scaled_polar_kernel",
    "w_poly_batch",
]


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


def _check_finite(out, what, order, z) -> None:
    """Raise OverflowError unless out is finite, naming (up to three of) the
    arguments whose columns are not; out holds one column per entry of z."""
    if not np.all(np.isfinite(out)):
        z = np.asarray(z).ravel()
        bad = ~np.all(np.isfinite(out).reshape(-1, z.size), axis=0)
        raise OverflowError(f"{what} overflowed at order {order} for argument(s) near {z[bad][:3]}")


def hermite_batch(n: int, z, weight=None):
    """H_0(z) .. H_n(z) by the forward recurrence H_{j+1} = 2z H_j - 2j H_{j-1}.

    z may be a scalar or an ndarray; the result has shape (n+1,) + z.shape.
    Raises OverflowError instead of returning infinities.  A np.longdouble z
    is evaluated in that precision (the closed-form moments of sampled
    data); any other real z in float64.

    weight (an array of z's shape, or a scalar): the rows are H_j(z) weight,
    the same recurrence started from weight instead of 1.  The Hermite
    functions H_j(z) e^{-z^2} stay bounded, and 0 where e^{-z^2} underflows,
    where H_j alone overflows.

    Each row is written in place into the result, in the operation order of
    (2z) H_j - (2j) H_{j-1}, so the values are those of the plain expression
    bit for bit.  Only the last row is checked: a non-finite entry of row
    j >= 1 makes the same entry of every later row non-finite (an infinite
    H_j gives 2z H_j = +-inf, or nan at z = 0, and nan stays nan), and row 0
    is all ones (or the finite weight).
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, float), copy=False)  # np.longdouble stays extended
    out = np.empty((n + 1,) + z.shape, dtype=z.dtype)
    rows = out.reshape(n + 1, z.size)  # a view: scalar and 0-d z give one column
    rows[0] = 1.0 if weight is None else np.reshape(weight, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        if n >= 1:
            z2 = 2.0 * z.reshape(z.size)
            np.multiply(z2, rows[0], out=rows[1])  # times 1.0: z2 bit for bit
            work = np.empty_like(z2)
            for j in range(1, n):
                row = np.multiply(z2, rows[j], out=rows[j + 1])
                row -= np.multiply(2.0 * j, rows[j - 1], out=work)
    _check_finite(rows[n], "Hermite recurrence", n, z)
    return out


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


# ---------------------------------------------------------------------------
# erfc and ierfc
#
# For t = |x| >= 1/2, erfc(t) = e^{-t^2} erfcx(t) with Weideman's expansion
# of the scaled function (SIAM J. Numer. Anal. 31 (1994) 1497), one form for
# all of [0, inf):
#   erfcx(t) = u/sqrt(pi) + 2 u^2 sum_n a_{n+1} Z^n,
#   u = 1/(L + t), Z = (L - t)/(L + t) in (-1, 1].
# e^{-t^2} is e^{-s^2} e^{-(t-s)(t+s)} with s = t rounded to 16 fraction
# bits, whose square is exact, so a rounded t^2 (an error of up to 6e-14
# relative near the underflow) never enters.  Below 1/2, 1 - erf(t) from
# erf's Taylor series; erfc(-t) = 2 - erfc(t).  The coefficients are fixed:
# test_specfun regenerates them with mpmath.  Against mpmath the result is
# within 2 eps absolute and 4 eps relative, up to erfc's underflow near 27.
#
# A np.longdouble argument is evaluated in that precision, with the same
# Weideman coefficients and, below 1, erf's Taylor series with longdouble
# coefficients.  The closed-form CI-B moments sum these values against
# slope jumps that amplify rounding noise and any jump or curvature in the
# error: the expansion's error stays near 1e-16 relative but is smooth in t
# (float64 Taylor coefficients, with their cut at 1/2, read 25 eps int|f_k|
# on a noisy file), and the rounding from one argument to the next is that
# of np.longdouble.
# ---------------------------------------------------------------------------

_WEIDEMAN_L = 3.2
_WEIDEMAN = np.array([
    1.6501447553545707, 1.253831737386336, 0.7789184201380548,
    0.38133014699055595, 0.1349761594214702, 0.025605501499944453,
    -0.0036234437882772925, -0.003810715750951046, -0.000525703161814969,
    0.00037440118179666313, 0.00012902221029428636, -3.885391583878896e-05,
    -2.2422914083387673e-05, 5.260405059326936e-06, 3.7451506944120424e-06,
    -9.998954767231095e-07, -6.144268285735014e-07, 2.355889911356947e-07,
    9.14196491463579e-08, -5.8528194865946904e-08, -9.175164711604286e-09,
    1.3770809566342622e-08, -8.485042958825694e-10, -2.795009972734906e-09,
    8.683858864145658e-10, 4.034632450155825e-10, -3.1328909706276336e-10,
    -1.1231743133189072e-12, 7.511091485407478e-11, -2.4638704667496384e-11,
    -9.953310702053318e-12, 9.773726673686598e-12, -1.1597635695354404e-12,
    -2.0622107486377583e-12, 1.1379676114803188e-12, 6.890660712870007e-14,
    -3.3420718997557915e-13, 1.296399415239244e-13, 3.2451813554732635e-14,
    -5.1084736074620216e-14,
])  # a_1 .. a_40
_ERF_TAYLOR = np.array([
    1.1283791670955126, -0.37612638903183754, 0.11283791670955126,
    -0.026866170645131252, 0.005223977625442188, -0.0008548327023450853,
    0.00012055332981789664, -1.492565035840625e-05, 1.6462114365889248e-06,
    -1.6365844691234924e-07, 1.4807192815879218e-08, -1.2290555301717928e-09,
    9.422759064650411e-11,
])  # erf(t) = t sum_n c_n t^{2n}, c_n = 2 (-1)^n / (sqrt(pi) n! (2n + 1))
_ERF_TAYLOR_CUT = 0.5
_ERFC_ZERO = {np.dtype(float): 28.0, np.dtype(np.longdouble): 107.0}  # e^{-t^2} and erfc(t) are 0 beyond
_RSQRT_PI = 1.0 / math.sqrt(math.pi)
_RSQRT_PI_LD = 1 / np.sqrt(np.longdouble("3.14159265358979323846264338327950288"))
_ERF_TAYLOR_CUT_LD = 1.0
_ERF_TAYLOR_LD = np.array(
    [2 * _RSQRT_PI_LD * (-1) ** n / np.longdouble(math.factorial(n) * (2 * n + 1)) for n in range(24)]
)  # np.longdouble: the series to 1.0, where its last term is 2e-23


def _erf_arg(x) -> tuple[np.ndarray, np.ndarray]:
    """x as float64 or np.longdouble, and t = |x| clamped where erfc is 0, 1-d."""
    x = np.asarray(x)
    x = x.astype(np.result_type(x.dtype, float), copy=False)  # np.longdouble stays extended
    return x, np.minimum(np.abs(x.reshape(-1)), _ERFC_ZERO[x.dtype])  # 1-d: the helpers write in place


def _rsqrt_pi(dtype) -> float:
    return _RSQRT_PI_LD if dtype == np.longdouble else _RSQRT_PI


def _erfcx(t: np.ndarray) -> np.ndarray:
    """e^{t^2} erfc(t) for 0 <= t <= _ERFC_ZERO (nan stays nan), a fresh array."""
    u = np.add(_WEIDEMAN_L, t)
    np.divide(1.0, u, out=u)
    z = np.subtract(_WEIDEMAN_L, t)
    z *= u
    coeffs = _WEIDEMAN.astype(t.dtype, copy=False)
    acc = np.full_like(t, coeffs[-1])
    for a in coeffs[-2::-1]:
        acc *= z
        acc += a
    acc *= 2.0 * u
    acc += _rsqrt_pi(t.dtype)
    acc *= u
    return acc


def erfc(x):
    """The complementary error function of real x (scalar or ndarray).  A
    np.longdouble x is evaluated in that precision, any other in float64."""
    x, t = _erf_arg(x)
    out = _erfcx(t)
    s = np.round(t * 65536.0) / 65536.0
    out *= np.exp(-(s * s))
    out *= np.exp((s - t) * (s + t))
    cut, coeffs = (_ERF_TAYLOR_CUT, _ERF_TAYLOR) if t.dtype == float else (_ERF_TAYLOR_CUT_LD, _ERF_TAYLOR_LD)
    small = t < cut
    if np.any(small):
        ts = t[small]
        sq, acc = ts * ts, np.full_like(ts, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= sq
            acc += c
        out[small] = 1.0 - ts * acc
    out = np.where(x < 0.0, 2.0 - out.reshape(x.shape), out.reshape(x.shape))
    return out[()] if x.dtype == np.longdouble else float(out) if out.ndim == 0 else out


def ierfc(x):
    """The integral of erfc from x to infinity, e^{-x^2}/sqrt(pi) - x erfc(x),
    of real x (scalar or ndarray; np.longdouble as in erfc).  For x >= 0 it
    is e^{-x^2} (1/sqrt(pi) - x erfcx(x)): a difference that cancels about
    2 x^2-fold, so far out it is accurate to its size times e^{-x^2}, not
    relative to itself."""
    x, t = _erf_arg(x)
    out = _erfcx(t)
    out *= t
    np.subtract(_rsqrt_pi(t.dtype), out, out=out)
    out *= np.exp(-(t * t))
    out = out.reshape(x.shape) + 2.0 * np.maximum(-x, 0.0)  # ierfc(-t) = ierfc(t) + 2t
    return out[()] if x.dtype == np.longdouble else float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Bessel I0 / J0
#
# I0: e^{-x} I0(x) is one Chebyshev series in t = x/4 - 1 on [0, 8] (30
# terms), and sqrt(x) e^{-x} I0(x) a second one in t = 16/x - 1 for x > 8
# (27 terms, tending to 1/sqrt(2 pi) as x -> inf), both summed by
# Clenshaw's recurrence; the split and the variables are those of Cephes'
# i0e (Moshier, Methods and Programs for Mathematical Functions, 1989).
# The coefficients are printed by scripts/i0e_chebyshev.py (an mpmath
# interpolation at 40 digits on 64 Chebyshev nodes, cut below 1e-18), and
# test_specfun reruns it and checks them digit for digit.  Against 30-digit
# mpmath on [0, 1e4] the result is within 5.6e-16 relative (5 ulp).
#
# J0: alternating power series up to x = 8 (max term ~ 1e2, so ~1e-13
# relative), the averaged-cosine integral representation on (8, 18]
# (fixed 96-node Gauss-Legendre rule on [0, pi], spectrally accurate for
# fewer than ~6 oscillations; quad's cached rule, built on first use), and
# the Hankel asymptotic expansion above 18 where its smallest term is below
# 1e-15.  The plain series + asymptotic pair cannot bridge 8 < x < 18 at
# 1e-12 in double precision, hence the integral branch.
# ---------------------------------------------------------------------------

_I0E_LOW = (
    0.33839763720473803, -0.3046826723431984, 0.17162090152220877,
    -0.09490109704804764, 0.04930528423967071, -0.02373741480589947,
    0.010546460394594998, -0.004324309995050576, 0.0016394756169413357,
    -0.0005763755745385824, 0.00018850288509584165, -5.754195010082104e-05,
    1.6448448070728896e-05, -4.4167383584587505e-06, 1.1173875391201037e-06,
    -2.670793853940612e-07, 6.046995022541919e-08, -1.300025009986248e-08,
    2.6598237246823866e-09, -5.189795601635263e-10, 9.675809035373237e-11,
    -1.726826291441556e-11, 2.95505266312964e-12, -4.856446783111929e-13,
    7.676185498604936e-14, -1.1685332877993451e-14, 1.715391285555133e-15,
    -2.431279846547955e-16, 3.3307945188222384e-17, -4.4153416464793395e-18,
)  # c_0 .. c_29 of e^{-x} I0(x) in t = x/4 - 1, 0 <= x <= 8
_I0E_HIGH = (
    0.4022452055070544, 0.0033691164782556943, 6.889758346916825e-05,
    2.8913705208347567e-06, 2.0489185894690638e-07, 2.266668990498178e-08,
    3.3962320257083865e-09, 4.94060238822497e-10, 1.1889147107846439e-11,
    -3.1499165279632416e-11, -1.3215811840447713e-11, -1.7941785315068062e-12,
    7.180124451383666e-13, 3.8527783827421426e-13, 1.54008621752141e-14,
    -4.150569347287222e-14, -9.554846698828307e-15, 3.8116806693526224e-15,
    1.7725601330565263e-15, -3.425485619677219e-16, -2.8276239805165836e-16,
    3.461222867697461e-17, 4.46562142029676e-17, -4.830504485944182e-18,
    -7.233180487874754e-18, 9.921475412173699e-19, 1.193650890845982e-18,
)  # c_0 .. c_26 of sqrt(x) e^{-x} I0(x) in t = 16/x - 1, x > 8
_I0E_SEAM = 8.0
_J0_SERIES_CUT = 8.0
_J0_ASYMPTOTIC_CUT = 18.0


def _clenshaw(coeffs: tuple, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] T_k(t) by Clenshaw's recurrence
    b_k = 2t b_{k+1} - b_{k+2} + c_k, the sum being c_0 + t b_1 - b_2; the
    three rows are rotated in place, with no temporary per term."""
    t2 = t + t
    b1, b2 = np.full_like(t, coeffs[-1]), np.zeros_like(t)
    work = np.empty_like(t)
    for c in coeffs[-2:0:-1]:
        np.multiply(t2, b1, out=work)
        work -= b2
        work += c
        b1, b2, work = work, b1, b2
    np.multiply(t, b1, out=work)
    work -= b2
    work += coeffs[0]
    return work


def bessel_i0_scaled(x):
    """e^{-|x|} I0(x); never overflows."""
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.shape == ()
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    low = x <= _I0E_SEAM
    if np.any(low):
        out[low] = _clenshaw(_I0E_LOW, x[low] / 4.0 - 1.0)
    high = ~low  # nan included: it stays nan
    if np.any(high):
        xh = x[high]
        out[high] = _clenshaw(_I0E_HIGH, 16.0 / xh - 1.0) / np.sqrt(xh)  # inf: t = -1, a finite sum over inf
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
