import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatseries.specfun import (
    KernelParams,
    PolynomialFamily,
    bessel_i0,
    bessel_i0_scaled,
    bessel_j0,
    gamma_half,
    hermite_at_zero,
    hermite_batch,
    hermite_eval,
    scaled_polar_kernel,
    w_poly_batch,
    w_poly_coefficients,
    w_poly_eval,
)

SQRT_PI = math.sqrt(math.pi)


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
        np.testing.assert_allclose(hermite_eval(j, zs), poly(zs), rtol=1e-13)


def test_hermite_spec_values():
    assert hermite_eval(0, 0.7) == 1.0
    assert hermite_eval(1, 0.5) == 1.0
    assert hermite_eval(3, 1.0) == -4.0


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


def test_polynomial_family_order_zero_is_one():
    for kind in ("hermite", "w"):
        fam = PolynomialFamily(kind, 5)
        vals = fam.values(np.array([-2.0, 0.3, 4.0]))
        np.testing.assert_array_equal(vals[0], np.ones(3))


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
    # series and asymptotic branches agree across the seam
    for x in (28.0, 29.5, 30.0, 30.5, 32.0):
        series = math.exp(-x) * _i0_series_oracle(x, terms=200)
        assert bessel_i0_scaled(x) == pytest.approx(series, rel=5e-14)


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


def test_gamma_half_values():
    assert gamma_half(0) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma_half(1) == pytest.approx(SQRT_PI / 2, rel=1e-15)
    assert gamma_half(2) == pytest.approx(3 * SQRT_PI / 4, rel=1e-15)
    # closed form (2j)! sqrt(pi) / (4^j j!)
    for j in (3, 7, 15):
        exact = math.factorial(2 * j) * SQRT_PI / (4**j * math.factorial(j))
        assert gamma_half(j) == pytest.approx(exact, rel=1e-13)


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
