"""The in-place integrands against the allocating expressions they replaced.

The recurrences, moment integrands and kernel integrands write into their
result in the operation order of the plain numpy expressions, so every value
must be bitwise equal to the reference copies below (the line kernel's is
`references.line_kernel_integrand`; the moment integrands the closed forms
of the mixtures replaced are in `references` too), and the recurrences must raise
OverflowError exactly where the full-array finiteness check did.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatseries import kernels, profiles, quad, series_cartesian, series_polar, specfun
from heatseries.profiles import Bump, Gaussian, Mixture, Sampled1D
from references import (
    hermite_moment_integrand,
    hermite_moments_by_quadrature,
    integrate,
    l1_norms,
    line_kernel_integrand,
    line_kernel_window,
    line_oracle_by_quadrature,
    moment_window,
    rebound,
    w_moment_integrand,
    weighted_moment_integrand,
    weighted_moments_by_quadrature,
)

# --- reference: the allocating code of the previous implementation ---------------


def _old_check_finite(out, what, order, z):
    # every row checked; the message names the arguments of the non-finite columns
    if not np.all(np.isfinite(out)):
        finite = np.isfinite(out).reshape(out.shape[0], -1).all(axis=0)
        raise OverflowError(
            f"{what} overflowed at order {order} for argument(s) near "
            f"{np.asarray(z).ravel()[~finite][:3]}"
        )


def old_hermite_batch(n, z):
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, float), copy=False)
    out = np.empty((n + 1,) + z.shape, dtype=z.dtype)
    out[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n >= 1:
            out[1] = 2.0 * z
        for j in range(1, n):
            out[j + 1] = 2.0 * z * out[j] - 2.0 * j * out[j - 1]
    _old_check_finite(out, "Hermite recurrence", n, z)
    return out


def old_w_poly_batch(n, z, check=True):
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, float), copy=False)
    y = z * z
    out = np.empty((n + 1,) + y.shape, dtype=y.dtype)
    lag_prev = np.ones_like(y)
    out[0] = lag_prev
    with np.errstate(over="ignore", invalid="ignore"):
        if n >= 1:
            lag = 1.0 - y
            pref = y.dtype.type(-2.0)
            out[1] = pref * lag
            for j in range(1, n):
                lag_next = ((2 * j + 1 - y) * lag - j * lag_prev) / (j + 1)
                lag_prev, lag = lag, lag_next
                pref *= -2.0 * (2 * j + 1)
                out[j + 1] = pref * lag
    if check:
        _old_check_finite(out, "W recurrence", n, z)
    return out


def old_hermite_integrand(data, root, n, center, weight_root):
    def integrand(xi):
        vals = old_hermite_batch(n, (xi - center) / (2.0 * root)) * data(xi)[None, :]
        if weight_root is not None:
            w = np.exp(-(xi * xi) / (4.0 * weight_root * weight_root)) / (
                2.0 * weight_root * math.sqrt(math.pi)
            )
            vals = vals * w[None, :]
        return vals

    return integrand


def old_w_integrand(data, root, n, dtype):
    def integrand(xi):
        w = old_w_poly_batch(n, xi.astype(dtype) / (2.0 * root))
        return w * (xi * data(xi))[None, :]

    return integrand


def old_forward_polar_integrand(data, tau, r_arr):
    def integrand(xi):
        kern = specfun.scaled_polar_kernel(r_arr[:, None], xi[None, :], tau)
        return kern * (xi * data(xi))[None, :]

    return integrand


def bitwise_equal(a, b):
    """Same dtype, shape and values, signed zeros and nans included (the
    padding bytes of np.longdouble carry no value)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def outcome(fn, *args):
    """The array, or the OverflowError message, a call ends with."""
    try:
        return fn(*args)
    except OverflowError as exc:
        return str(exc)


def same_outcome(new, old):
    if isinstance(old, str) or isinstance(new, str):
        return new == old
    return bitwise_equal(new, old)


# --- the recurrences ---------------------------------------------------------------

_RNG = np.random.default_rng(20250808)
ARGS = {
    "scalar": 0.7,
    "zero": 0.0,
    "0-d": np.array(-1.3),
    "1-D": _RNG.normal(size=57) * 3.0,
    "2-D": _RNG.normal(size=(7, 9)) * 4.0,
    "empty": np.empty(0),
}
ORDERS = (0, 1, 2, 40, 80)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("arg", sorted(ARGS))
def test_hermite_batch_is_the_allocating_recurrence(n, arg):
    assert bitwise_equal(specfun.hermite_batch(n, ARGS[arg]), old_hermite_batch(n, ARGS[arg]))


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("arg", sorted(ARGS))
def test_w_poly_batch_is_the_allocating_recurrence(n, arg, dtype):
    z = np.asarray(ARGS[arg], dtype=dtype)
    new, old = specfun.w_poly_batch(n, z), old_w_poly_batch(n, z)
    assert new.dtype == np.dtype(dtype)
    assert bitwise_equal(new, old)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("arg", sorted(ARGS))
def test_hermite_batch_keeps_a_longdouble_argument(n, arg):
    z = np.asarray(ARGS[arg], dtype=np.longdouble)
    new = specfun.hermite_batch(n, z)
    assert new.dtype == np.longdouble
    assert bitwise_equal(new, old_hermite_batch(n, z))


def test_scalar_arguments_keep_their_shape():
    assert specfun.hermite_batch(5, 0.3).shape == (6,)
    assert specfun.hermite_batch(5, np.longdouble(0.3)).dtype == np.longdouble
    assert specfun.w_poly_batch(5, np.longdouble(0.3)).dtype == np.longdouble
    assert specfun.w_poly_batch(5, 0.3).shape == (6,)


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 1e200, 1e154, 1.4e154, 1e20, 0.0, -0.0])
_FLOATS = st.floats(-60.0, 60.0, allow_nan=False)


@st.composite
def arguments(draw):
    """1-D arguments with non-finite and overflowing entries mixed in."""
    values = draw(st.lists(st.one_of(_FLOATS, _SPECIAL), min_size=1, max_size=6))
    return np.array(values)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 160), z=arguments())
def test_hermite_overflow_exactly_where_the_full_check_raised(n, z):
    # a non-finite entry in any row reaches the last row, so checking that row
    # raises exactly when checking all rows did
    assert same_outcome(outcome(specfun.hermite_batch, n, z), outcome(old_hermite_batch, n, z))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 160), z=arguments(), extended=st.booleans())
def test_w_overflow_exactly_where_the_full_check_raised(n, z, extended):
    z = z.astype(np.longdouble) if extended else z
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # overflow is an OverflowError, never a warning
        new = outcome(specfun.w_poly_batch, n, z)
    with np.errstate(over="ignore"):  # the reference squares z outside its errstate
        old = outcome(old_w_poly_batch, n, z)
    assert same_outcome(new, old)


# near a zero of L_n the scaled row pref_j L_j overflows at some j < n while
# row n stays finite; found by scanning z^2 over [0, 6n]
INNER_ONLY = [(115, 16.101999875791826), (120, 14.004185088751148),
              (125, 11.580641173959238), (130, 8.55792615065122)]


@pytest.mark.parametrize("n, z", INNER_ONLY)
def test_w_overflow_of_an_inner_row_alone_is_caught(n, z):
    rows = old_w_poly_batch(n, z, check=False)
    assert np.isfinite(rows[n]) and not np.all(np.isfinite(rows))
    assert same_outcome(outcome(specfun.w_poly_batch, n, z), outcome(old_w_poly_batch, n, z))
    with pytest.raises(OverflowError, match="W recurrence overflowed at order"):
        specfun.w_poly_batch(n, np.array([0.5, z]))


# --- the integrands ----------------------------------------------------------------

# the package's moment passes take the closed forms on the mixtures, whose
# quadrature routes are kept in references, and the quadrature on a Bump and
# a ring Gaussian
LINE_DATA = {
    "bump": Bump(0.3, 2.0),
    "mixture": Mixture((Gaussian(0.9, -0.5, 1.0), Gaussian(1.4, 0.7, 0.7))),
    "sampled": Sampled1D(-12.0, 12.0, np.exp(-np.linspace(-12.0, 12.0, 481) ** 2 / 4.0)),
}
POLAR_DATA = {
    "mixture": Mixture((Gaussian(0.9, 0.0, 1.0), Gaussian(1.3, 0.0, 0.8))),
    "ring": Gaussian(0.9, 1.5, 1.0),
    "sampled": Sampled1D(0.0, 8.0, np.exp(-np.linspace(0.0, 8.0, 33) ** 2 / 4.0)),
}


def captured_integrands(call):
    """The integrands a call hands to integrate_vec, in
    profiles.data_integral or any other module of the package that binds
    the same function, and the call's result."""
    seen = []
    original = profiles.integrate_vec

    def spy(f, *args, **kwargs):
        seen.append(f)
        return original(f, *args, **kwargs)

    with rebound(original, spy):
        result = call()
    return seen, result


NODES = np.concatenate([np.linspace(-14.0, 14.0, 3001), [0.0, 1e-300, -7.25]])


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("center", [0.0, 1.7])
@pytest.mark.parametrize("data", sorted(LINE_DATA))
def test_hermite_moment_integrand_is_the_allocating_one(monkeypatch, data, center, weighted):
    f, root, n = LINE_DATA[data], 1.1, 80
    if weighted and center:
        with pytest.raises(ValueError, match="about 0"):
            series_cartesian._hermite_moments(f, root, n, weighted, center)
        return
    integrands, moments = captured_integrands(lambda: series_cartesian._hermite_moments(f, root, n, weighted, center))
    sampled = isinstance(f, Sampled1D)
    if sampled and not weighted:
        # plain moments of sampled data: the closed form, no integrand; its
        # longdouble rows are the allocating recurrence's bit for bit
        assert integrands == []
        monkeypatch.setattr(profiles, "hermite_batch", old_hermite_batch)
        assert bitwise_equal(moments, series_cartesian._hermite_moments(f, root, n, weighted, center))
        return
    weight_root = root if weighted else None
    if sampled:
        # weighted moments of sampled data under a weight no wider than the
        # data: the closed form, no integrand; the allocating integrand's
        # quadrature route agrees to within its acceptance test
        assert integrands == []
        ref = weighted_moments_by_quadrature(f, root, n)
        l1 = l1_norms(weighted_moment_integrand(f, root, n), *moment_window(f, root), f.nodes)
        assert np.all(np.abs(moments - ref) <= np.maximum(quad.REL_TOL * np.abs(ref), 32.0 * np.finfo(float).eps * l1))
        return
    if data == "mixture":
        # the closed form, no integrand; the quadrature route it replaced
        assert integrands == []
        integrand = hermite_moment_integrand(f, root, n, center, weighted)
        moments = hermite_moments_by_quadrature(f, root, n, center, weighted)
    else:
        (integrand,) = integrands
    assert bitwise_equal(integrand(NODES), old_hermite_integrand(f, root, n, center, weight_root)(NODES))
    ref, _ = quad.integrate_vec(
        old_hermite_integrand(f, root, n, center, weight_root),
        *moment_window(f, weight_root),
    )
    assert bitwise_equal(moments, ref)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("data", sorted(POLAR_DATA))
def test_w_moment_integrand_is_the_allocating_one(data, dtype):
    # sampled data under a root wider than its span of 8 (under a narrower
    # one it takes the closed form, and no integrand)
    f, root, n = POLAR_DATA[data], 5.0 if data == "sampled" else 0.9, 40
    integrands, _ = captured_integrands(lambda: series_polar._w_radial_moments(f, root, n, dtype=dtype))
    if data == "mixture":
        # the closed form, no integrand; the quadrature route it replaced
        assert integrands == []
        integrands = [w_moment_integrand(f, root, n, dtype)]
    (integrand,) = integrands
    xi = np.abs(NODES)
    assert bitwise_equal(integrand(xi), old_w_integrand(f, root, n, dtype)(xi))


@pytest.mark.parametrize("tau", [0.05, 0.5, 3.0])
@pytest.mark.parametrize("data", sorted(LINE_DATA))
def test_forward_line_kernel_is_the_allocating_one(data, tau):
    f, x = LINE_DATA[data], np.linspace(-4.0, 4.0, 121)
    integrands, values = captured_integrands(lambda: kernels.forward_line(f, tau, x))
    if isinstance(f, Sampled1D):
        # sampled data: the closed form, no integrand; the allocating
        # integrand's quadrature route agrees to within its acceptance test
        assert integrands == []
        ref = line_oracle_by_quadrature(f, tau, x)
        assert np.all(np.abs(values - ref) <= np.maximum(quad.ABS_TOL, quad.REL_TOL * np.abs(ref)))
        return
    (integrand,) = integrands
    assert bitwise_equal(integrand(NODES), line_kernel_integrand(f, tau, x)(NODES))
    lo, hi = line_kernel_window(f, x, tau)
    breakpoints = profiles.data_fact(f, "breakpoints")
    ref, _ = quad.integrate_vec(line_kernel_integrand(f, tau, x), lo, hi, breakpoints=breakpoints)
    assert bitwise_equal(values, ref)


@pytest.mark.parametrize("data", sorted(POLAR_DATA))
def test_forward_polar_product_is_the_allocating_one(data):
    f, r, tau = POLAR_DATA[data], np.linspace(0.0, 4.0, 41), 0.4
    (integrand,), _ = captured_integrands(lambda: kernels.forward_polar(f, tau, r))
    xi = np.abs(NODES)
    assert bitwise_equal(integrand(xi), old_forward_polar_integrand(f, tau, r)(xi))


# --- the engine's use of the integrand's array ----------------------------------------


def test_level_sum_leaves_arrays_it_does_not_own_alone():
    rule = quad._gl_rule(16)
    edges = np.linspace(-2.0, 3.0, 9)
    held = {}

    def view(x):  # a view of an array the integrand keeps
        held["base"] = np.vstack([np.sin(x) - 0.3, np.cos(3.0 * x)])
        held["copy"] = held["base"].copy()
        return held["base"][:, :]

    def read_only(x):  # owns its memory, but may not be written
        held["ro"] = np.sin(x)[None, :] - 0.3
        held["ro"].flags.writeable = False
        held["ro_copy"] = held["ro"].copy()
        return held["ro"]

    quad._level_sum(view, edges, rule)
    assert bitwise_equal(held["base"], held["copy"])
    quad._level_sum(read_only, edges, rule)
    assert bitwise_equal(held["ro"], held["ro_copy"])


def test_level_sum_in_place_gives_the_allocating_sums():
    rule = quad._gl_rule(16)
    edges = np.linspace(-2.0, 3.0, 9)

    def fresh(x):
        return np.vstack([np.sin(x) - 0.3, np.cos(3.0 * x) * np.exp(-x)])

    total, l1 = quad._level_sum(fresh, edges, rule)
    ref_total, ref_l1 = quad._level_sum(lambda x: fresh(x)[:, :], edges, rule)  # a view: allocating path
    assert bitwise_equal(total, ref_total)
    assert bitwise_equal(l1, ref_l1)
    assert np.all(l1 >= np.abs(total))


def test_integrate_never_writes_to_the_callers_array():
    held = []

    def f(x):  # integrate hands the engine a view of this array
        held.append(np.sin(x) - 1.0)
        return held[-1]

    value, _ = integrate(f, 0.0, 2.0)
    assert value == pytest.approx(math.cos(0.0) - math.cos(2.0) - 2.0, rel=1e-13)
    assert all(np.all(arr < 0.0) for arr in held)  # never replaced by magnitudes
