import importlib.util
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from heatseries import specfun
from heatseries.specfun import (
    KernelParams,
    bessel_i0,
    bessel_i0_scaled,
    bessel_j0,
    erfc,
    hermite_batch,
    ierfc,
    scaled_polar_kernel,
    w_poly_batch,
)
from references import hermite_at_zero, w_poly_coefficients, w_poly_eval

# --- Hermite ----------------------------------------------------------------

def test_hermite_low_orders_match_explicit_polynomials():
    zs = np.linspace(-3.0, 3.0, 13)
    explicit = {
        0: lambda z: np.ones_like(z),
        1: lambda z: 2 * z,
        2: lambda z: 4 * z**2 - 2,
        3: lambda z: 8 * z**3 - 12 * z,
        4: lambda z: 16 * z**4 - 48 * z**2 + 12,
        5: lambda z: 32 * z**5 - 160 * z**3 + 120 * z,
    }
    for j, poly in explicit.items():
        np.testing.assert_allclose(hermite_batch(j, zs)[j], poly(zs), rtol=1e-13)


def test_hermite_rows_take_a_weight_as_their_first_row():
    z = np.linspace(-30.0, 30.0, 121).astype(np.longdouble)
    weight = np.exp(-z * z)
    rows = hermite_batch(40, z, weight=weight)
    assert rows.dtype == np.longdouble and np.all(rows[0] == weight)
    # H_j e^{-z^2}: bounded where H_40(30) ~ 1e71 alone would not be, and
    # the product of the plain rows where those fit
    np.testing.assert_allclose(rows[:, 55:66].astype(float), (hermite_batch(40, z[55:66]) * weight[55:66]).astype(float),
                               rtol=4e-16, atol=0.0)
    far = np.array([1e300, -1e300], dtype=np.longdouble)
    assert np.all(hermite_batch(40, far, weight=np.exp(-far * far)) == 0.0)
    with pytest.raises(OverflowError):
        hermite_batch(40, far)
    assert np.all(hermite_batch(7, 0.3, weight=1.0) == hermite_batch(7, 0.3))


def test_hermite_spec_values():
    assert hermite_batch(0, 0.7)[0] == 1.0
    assert hermite_batch(1, 0.5)[1] == 1.0
    assert hermite_batch(3, 1.0)[3] == -4.0


def test_hermite_at_zero_values():
    assert hermite_at_zero(1) == 0.0
    assert hermite_at_zero(2) == -2.0
    assert hermite_at_zero(4) == 12.0
    # odd orders vanish identically
    for j in (1, 3, 5, 7, 21):
        assert hermite_at_zero(j) == 0.0


def test_hermite_at_zero_matches_recurrence():
    vals = hermite_batch(30, 0.0)
    for k in range(16):
        assert hermite_at_zero(2 * k) == pytest.approx(vals[2 * k], rel=1e-15, abs=0.0)


@given(st.integers(min_value=2, max_value=60), st.floats(min_value=-10, max_value=10))
@settings(max_examples=80, deadline=None)
def test_hermite_three_term_recurrence_residual(j, z):
    h = hermite_batch(j, z)
    lhs = h[j]
    rhs = 2 * z * h[j - 1] - 2 * (j - 1) * h[j - 2]
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_hermite_generating_function_grid():
    # |sum_{j<=40} H_j(z) t^j / j! - e^{2tz - t^2}| <= 1e-10 on the grid
    for t in (-1.0, -0.5, 0.25, 0.7, 1.0):
        for z in (-2.0, -0.7, 0.0, 1.3, 2.0):
            h = hermite_batch(40, z)
            w = np.empty(41)
            w[0] = 1.0
            for j in range(40):
                w[j + 1] = w[j] * t / (j + 1)
            assert abs(float(h @ w) - math.exp(2 * t * z - t * t)) <= 1e-10


def test_hermite_batch_vectorized_matches_scalar():
    zs = np.array([-1.5, 0.0, 2.5])
    batch = hermite_batch(12, zs)
    for i, z in enumerate(zs):
        np.testing.assert_allclose(batch[:, i], hermite_batch(12, float(z)), rtol=1e-15)


def test_hermite_overflow_is_explicit():
    with pytest.raises(OverflowError):
        hermite_batch(300, 150.0)


# --- W polynomials ----------------------------------------------------------

def test_w_poly_spec_values():
    assert w_poly_eval(0, 3.2) == 1.0
    assert w_poly_eval(1, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert w_poly_eval(2, 0.0) == pytest.approx(12.0, rel=1e-14)


def test_w_poly_explicit_low_orders():
    zs = np.linspace(0.0, 2.5, 9)
    np.testing.assert_allclose(w_poly_eval(1, zs), 2 * (zs**2 - 1), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        w_poly_eval(2, zs), 6 * zs**4 - 24 * zs**2 + 12, rtol=1e-13, atol=1e-13
    )


def test_w_poly_coefficient_formula():
    # c_k = (2j)! (-1)^{j-k} / (k!^2 (j-k)!) against exact integers
    for j in (0, 1, 2, 3, 5, 8):
        coeffs = w_poly_coefficients(j)
        for k in range(j + 1):
            exact = (
                math.factorial(2 * j)
                * (-1) ** (j - k)
                / (math.factorial(k) ** 2 * math.factorial(j - k))
            )
            assert coeffs[k] == pytest.approx(exact, rel=1e-13)


def test_w_poly_parity():
    zs = np.linspace(0.1, 3.0, 7)
    for j in (1, 2, 5, 10):
        np.testing.assert_allclose(w_poly_eval(j, -zs), w_poly_eval(j, zs), rtol=1e-13)


def test_w_generating_function_grid():
    # |sum_{j<=30} W_j(z) t^{2j}/(2j)! - e^{-t^2} I0(2tz)| <= 1e-10
    for t in (0.25, 0.6, 1.0):
        for z in (0.0, 0.5, 1.2, 2.0):
            w = w_poly_batch(30, z)
            coeff = np.empty(31)
            coeff[0] = 1.0
            for j in range(30):
                coeff[j + 1] = coeff[j] * t * t / ((2 * j + 1) * (2 * j + 2))
            total = float(w @ coeff)
            assert abs(total - math.exp(-t * t) * bessel_i0(2 * t * z)) <= 1e-10


def test_w_batch_matches_monomial_route():
    # the monomial (Horner) route cancels heavily at high order and large z,
    # so the agreement tolerance carries its conditioning bound
    zs = np.linspace(0.0, 2.5, 11)
    batch = w_poly_batch(40, zs)
    for j in (0, 1, 2, 7, 20, 40):
        mono = w_poly_eval(j, zs)
        cond = np.abs(w_poly_coefficients(j)) @ (zs[None, :] ** (2 * np.arange(j + 1)[:, None]))
        tol = 1e-13 * cond + 1e-13 * np.abs(mono)
        assert np.all(np.abs(batch[j] - mono) <= tol)


# --- Bessel -----------------------------------------------------------------

def _i0_series_oracle(x: float, terms: int = 60) -> float:
    acc, term = 1.0, 1.0
    for k in range(1, terms):
        term *= (x / 2) ** 2 / k**2
        acc += term
    return acc


def _j0_integral_oracle(x: float, n: int = 20001) -> float:
    theta = np.linspace(0.0, math.pi, n)
    return float(np.trapezoid(np.cos(x * np.sin(theta)), theta) / math.pi)


def test_i0_trivial_and_series_values():
    assert bessel_i0(0.0) == 1.0
    assert bessel_j0(0.0) == 1.0
    assert bessel_i0(1.0) == pytest.approx(_i0_series_oracle(1.0), rel=1e-14)
    assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-13)


def _i0_scaled_log_oracle(x: float) -> float:
    # e^{-x} I0(x) from the defining series, summed in log space so no term
    # overflows: t_k = (x/2)^{2k}/k!^2, all positive, no cancellation.
    if x == 0.0:
        return 1.0
    logs = [2 * k * math.log(x / 2) - 2 * math.lgamma(k + 1) for k in range(0, 2200)]
    top = max(logs)
    total = math.fsum(math.exp(lg - top) for lg in logs)
    return math.exp(top - x) * total


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 29.0, 31.0, 60.0, 200.0, 700.0])
def test_i0_scaled_against_series_oracle(x):
    assert bessel_i0_scaled(x) == pytest.approx(_i0_scaled_log_oracle(x), rel=1e-12)


def test_i0_internal_branch_consistency():
    # the defining series agrees with both Chebyshev ranges across their
    # seam at 8, and with the upper one on either side of 30
    for x in (7.5, 7.99, 8.0, 8.01, 8.5, 28.0, 29.5, 30.0, 30.5, 32.0):
        series = math.exp(-x) * _i0_series_oracle(x, terms=200)
        assert bessel_i0_scaled(x) == pytest.approx(series, rel=5e-14)


def test_i0_chebyshev_coefficients_are_the_generated_ones():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "i0e_chebyshev.py")
    spec = importlib.util.spec_from_file_location("i0e_chebyshev", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    low, high = script.coefficients()
    assert (len(low), len(high)) == (30, 27)
    assert specfun._I0E_LOW == low
    assert specfun._I0E_HIGH == high


def test_i0_scaled_meets_its_bar_against_mpmath():
    # 1e-15 relative on both ranges, at the seam and its neighbours, past
    # I0's overflow and out to 1e4 (measured: 5.6e-16)
    rng = np.random.default_rng(5)
    seam = [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)]
    x = np.concatenate([
        rng.uniform(0.0, 8.0, 1500), rng.uniform(8.0, 60.0, 1500), np.geomspace(60.0, 1e4, 400),
        np.geomspace(1e-12, 1.0, 60), [0.0, 7.0, 9.0, 30.0, 709.0, 800.0, 1e4], seam,
    ])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.exp(-mpmath.mpf(v)) * mpmath.besseli(0, mpmath.mpf(v))) for v in x])
    ours = bessel_i0_scaled(x)
    assert np.all(np.abs(ours - ref) <= 1e-15 * ref)
    assert np.array_equal(bessel_i0_scaled(-x), ours)  # even
    assert bessel_i0_scaled(0.0) == 1.0
    assert bessel_i0_scaled(math.inf) == 0.0 and bessel_i0_scaled(-math.inf) == 0.0


def test_i0_overflow_guard():
    with pytest.raises(OverflowError):
        bessel_i0(800.0)
    assert np.isfinite(bessel_i0_scaled(800.0))


@pytest.mark.parametrize("x", [0.5, 3.0, 7.9, 8.1, 12.0, 17.9, 18.1, 40.0, 123.0, 1e4])
def test_j0_against_integral_oracle(x):
    assert bessel_j0(x) == pytest.approx(_j0_integral_oracle(x), rel=2e-12, abs=2e-12)


def test_j0_known_value():
    assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, rel=1e-12)


def test_j0_even_and_vectorized():
    xs = np.array([-3.0, 0.0, 3.0, 10.0, 25.0])
    vals = bessel_j0(xs)
    assert vals[0] == pytest.approx(vals[2], rel=1e-14)
    for i, x in enumerate(xs):
        assert vals[i] == pytest.approx(bessel_j0(float(x)), rel=1e-14)


def test_bessel_operator_eigenrelation():
    # (d^2/dz^2 + (1/z) d/dz) I0(2tz) = (2t)^2 I0(2tz), checked by central
    # differences with O(h^2) convergence
    for t in (0.25, 0.6, 1.0):
        for z in (0.5, 1.1, 2.3):
            errs = []
            for h in (2e-2, 1e-2):
                upp = bessel_i0(2 * t * (z + h))
                mid = bessel_i0(2 * t * z)
                low = bessel_i0(2 * t * (z - h))
                second = (upp - 2 * mid + low) / h**2
                first = (upp - low) / (2 * h)
                lhs = second + first / z
                errs.append(abs(lhs - (2 * t) ** 2 * mid))
            # residual small relative to the eigenvalue side ...
            assert errs[0] <= 1e-3 * (2 * t) ** 2 * mid
            # ... and O(h^2): halving h roughly quarters it
            assert errs[1] <= 0.35 * errs[0]


# --- kernel and gamma --------------------------------------------------------

def test_scaled_polar_kernel_values():
    assert scaled_polar_kernel(0.0, 0.0, 0.5) == pytest.approx(1.0, rel=1e-14)
    expected = math.exp(-1.0) * _i0_series_oracle(1.0)
    assert scaled_polar_kernel(1.0, 1.0, 0.5) == pytest.approx(expected, rel=1e-13)


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.05, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_scaled_polar_kernel_symmetry_and_finiteness(r, xi, t):
    a = scaled_polar_kernel(r, xi, t)
    b = scaled_polar_kernel(xi, r, t)
    assert np.isfinite(a)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_scaled_polar_kernel_no_overflow_at_extreme_range():
    t = 0.3
    big = 100.0 * math.sqrt(t)
    assert np.isfinite(scaled_polar_kernel(big, big, t))
    with pytest.raises(ValueError):
        scaled_polar_kernel(1.0, 1.0, 0.0)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(tau=0.0, beta=1.0)
    with pytest.raises(ValueError):
        KernelParams(tau=1.0, beta=0.0)
    p = KernelParams(tau=0.25, beta=0.5)
    assert p.shifted == pytest.approx(0.75)


@pytest.mark.parametrize(
    "batch, n, finite",
    [(hermite_batch, 200, [1e-3, 2e-3, 3e-3]), (w_poly_batch, 100, [1e-3, 2e-3, 3e-3])],
)
def test_overflow_names_the_arguments_that_overflowed(batch, n, finite):
    # the finite columns come first; the message names the two that overflow
    big = [50.0, 60.0] if batch is w_poly_batch else [500.0, 600.0]
    for z in (finite + big, big[:1] + finite + big[1:]):
        with pytest.raises(OverflowError) as exc:
            batch(n, np.array(z))
        assert str(exc.value).endswith(f"near {np.array(big)}")


# --- erfc and ierfc ----------------------------------------------------------

EPS = float(np.finfo(float).eps)


def erfc_coefficients():
    """Weideman's a_1 .. a_40 at L = 3.2 and erf's Taylor coefficients
    c_0 .. c_12, as specfun hardcodes them.  a_n is the n-th Fourier cosine
    coefficient of F(theta) = e^{-t^2} (L^2 + t^2), t = L tan(theta/2), by
    the trapezoid rule on 2m - 1 points (spectrally accurate: F and its
    derivatives vanish at theta = +-pi)."""
    with mpmath.workdps(40):
        n_terms, big_l, m = 40, mpmath.mpf("3.2"), 320
        thetas = [mpmath.pi * k / m for k in range(1 - m, m)]
        f = [mpmath.exp(-(big_l * mpmath.tan(th / 2)) ** 2) * (big_l ** 2 + (big_l * mpmath.tan(th / 2)) ** 2)
             for th in thetas]
        weideman = [float(mpmath.fsum(v * mpmath.cos(n * th) for v, th in zip(f, thetas)) / (2 * m))
                    for n in range(1, n_terms + 1)]
        taylor = [float(2 / mpmath.sqrt(mpmath.pi) * (-1) ** n / (mpmath.factorial(n) * (2 * n + 1)))
                  for n in range(13)]
    return weideman, taylor


def test_erfc_coefficients_are_the_generated_ones():
    weideman, taylor = erfc_coefficients()
    assert specfun._WEIDEMAN_L == 3.2
    assert specfun._WEIDEMAN.tolist() == weideman
    assert specfun._ERF_TAYLOR.tolist() == taylor


def test_erfc_matches_math_erfc_on_a_dense_grid():
    # math.erfc is within an ulp or two; the bar is 4 eps absolute, and
    # relative 1e-13 while erfc >= 1e-300 (measured: 2 eps, and 3.2 eps of
    # erfc)
    x = np.concatenate([np.linspace(-8.0, 27.5, 71001), -np.geomspace(1e-300, 1.0, 301), np.geomspace(1e-300, 1.0, 301)])
    ours, ref = erfc(x), np.array([math.erfc(v) for v in x])
    assert np.all(np.abs(ours - ref) <= 4.0 * EPS)
    big = ref >= 1e-300
    assert np.all(np.abs(ours - ref)[big] <= 1e-13 * ref[big])


def test_erfc_meets_its_bar_against_mpmath():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 1500), rng.uniform(-7.0, 27.0, 1500), [0.5, -0.5, 26.5]])
    ref = np.array([float(mpmath.erfc(mpmath.mpf(v))) for v in x])
    ours = erfc(x)
    assert np.all(np.abs(ours - ref) <= 4.0 * EPS)
    big = ref >= 1e-300
    assert np.all(np.abs(ours - ref)[big] <= 1e-13 * ref[big])


def test_erfc_and_ierfc_at_special_arguments():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert erfc(0.0) == 1.0 and erfc(np.inf) == 0.0 and erfc(-np.inf) == 2.0 and erfc(30.0) == 0.0
        assert math.isnan(erfc(np.nan)) and math.isnan(ierfc(np.nan))
        assert ierfc(np.inf) == 0.0 and ierfc(-np.inf) == np.inf
        assert ierfc(0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=4 * EPS)
    assert isinstance(erfc(0.3), float) and erfc(np.zeros((2, 3))).shape == (2, 3)
    assert ierfc(np.zeros((2, 3))).shape == (2, 3)


def test_ierfc_is_the_integral_of_erfc():
    # int_x^inf erfc = (2/sqrt(pi)) int_0^inf u e^{-(x + u)^2} du, with
    # e^{-x^2} taken out of the quadrature so that it stays O(1)
    x = np.array([-4.0, -1.0, -0.2, 0.0, 0.3, 1.0, 2.5, 6.0, 20.0])
    with mpmath.workdps(30):
        ref = []
        for v in map(mpmath.mpf, x):
            s = 1 / (1 + abs(v))
            inner = mpmath.quad(lambda u: u * mpmath.exp(-u * (2 * v + u)), [0, s, 4 * s, mpmath.inf])
            ref.append(float(2 / mpmath.sqrt(mpmath.pi) * mpmath.exp(-v * v) * inner))
    ours = ierfc(x)
    # e^{-t^2}/sqrt(pi) - t erfc t cancels 2 t^2-fold: the error is a few eps
    # of e^{-t^2}, not of ierfc
    assert np.all(np.abs(ours - ref) <= 4.0 * EPS * (np.abs(ref) + np.exp(-x * x)))


LD_EPS = float(np.finfo(np.longdouble).eps)


def test_longdouble_taylor_coefficients_are_erfs():
    with mpmath.workdps(40):
        ref = [2 / mpmath.sqrt(mpmath.pi) * (-1) ** n / (mpmath.factorial(n) * (2 * n + 1)) for n in range(24)]
        assert all(abs(mpmath.mpf(str(c)) - r) <= 2 * LD_EPS * abs(r)
                   for c, r in zip(specfun._ERF_TAYLOR_LD, ref))


def mp_ierfc(v):
    v = mpmath.mpf(v)
    return mpmath.exp(-v * v) / mpmath.sqrt(mpmath.pi) - v * mpmath.erfc(v)


def test_longdouble_erfc_keeps_its_accuracy_and_rounds_in_longdouble():
    # the float64 coefficients bound the accuracy near 1e-16 relative
    # (measured: 5.3e-17 for erfc, 7.2e-16 for ierfc, which cancels 2 t^2-fold
    # far out); that error is smooth in t, and the rounding from one argument
    # to the next is np.longdouble's, which second differences at spacing
    # 2^-10 show: within 1e-12 of mpmath's (measured 1.2e-13; the float64
    # values: 2.7e-10)
    t = np.concatenate([np.linspace(-6.0, 8.0, 1401), np.geomspace(1e-30, 1.0, 61)]).astype(np.longdouble)
    assert erfc(t).dtype == ierfc(t).dtype == np.longdouble
    assert isinstance(erfc(np.longdouble(0.5)), np.longdouble)
    with mpmath.workdps(40):
        for ours, exact in [(erfc(t), mpmath.erfc), (ierfc(t), mp_ierfc)]:
            ref = [exact(mpmath.mpf(str(v))) for v in t]
            assert all(abs(mpmath.mpf(str(a)) - r) <= 1e-15 * abs(r) for a, r in zip(ours, ref))
        h = 2.0 ** -10
        y = np.arange(1.0 / 64, 6.0, 1.0 / 64)
        ref = np.array([float((mp_ierfc(v + h) - 2 * mp_ierfc(v) + mp_ierfc(v - h)) / h ** 2) for v in y])
    y, h = y.astype(np.longdouble), np.longdouble(h)
    second = (ierfc(y + h) - 2 * ierfc(y) + ierfc(y - h)) / (h * h)
    assert np.max(np.abs(second.astype(float) - ref)) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = erfc(np.array([0.0, np.inf, -np.inf, 200.0, np.nan], dtype=np.longdouble))
    assert ends[:4].tolist() == [1.0, 0.0, 2.0, 0.0] and np.isnan(ends[4])
