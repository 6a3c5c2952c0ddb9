"""Gaussian-kernel integrals and moments of sampled data, exact for its
piecewise-linear interpolant.

Sampled data is linear between its nodes.  On the line its integrals come in
closed form from the slope jumps and the end values (`Sampled1D.by_parts`),
with no quadrature: the plain Hermite moments (order k <= n; the line C
moments at order 2n) from Hermite rows and CI-B's Gaussian-weighted moments
from the Hermite functions extended by erf and ierfc
(`Sampled1D.hermite_moments`), and the line oracle from ierfc and
erfc (`Sampled1D.line_kernel`).  In the plane, the radial xi W_j moments
come from the same slope jumps against the two antiderivatives of xi W_j,
built from one W batch (`Sampled1D.radial_moments`), with a file that
reaches below 0 cut there.  All but the plain Hermite moments hold while
the Gaussian, or the root, is no wider than the data
(`Sampled1D.narrower`); under a wider one they take the adaptive
quadrature with the nodes as breakpoints.
Every moment route must give the integral of the interpolant up to
rounding: within C_EXACT eps int|f_k| of a 30-digit mpmath integral (60
digits for the radial moments), smooth or noisy data alike, and within the adaptive engine's own tolerance of that
engine at REL_TOL = 1e-13.  The closed-form oracle must be within a few eps
of its size and of its terms' sizes of a 30-digit per-panel erf integral,
and the oracle under a wider kernel within a few eps of its size.

Gaussians and mixtures have closed-form moments too (`Gaussian.hermite_moments`,
plain and CI-B's weighted, and `Gaussian.radial_moments` of a centred one):
within C_EXACT eps int|f_k| of an 80-digit integral from monomial
expansions, which shares no formula with them.  A ring Gaussian and a Bump
take the adaptive engine.
"""

import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from heatseries import kernels, quad, series_cartesian, series_polar
from heatseries.profiles import Bump, Gaussian, Mixture, Sampled1D
from heatseries.specfun import KernelParams, erfc
from references import (
    hermite_moment_integrand,
    l1_norms,
    quad_settings,
    rebound,
    w_moment_integrand,
    weighted_moment_integrand,
)

EPS = float(np.finfo(float).eps)
# measured: at most 1.9 (Hermite, k <= 80, both centres) and 0.46 (xi W_j)
# eps int|f_k|; the closed-form Hermite moments of the noisy files below
# reach 2.0, the radial ones 0.44 (401 nodes, R = 0.9, 60-digit reference:
# too slow for the suite), CI-B's weighted ones 0.92 (the weight as wide as
# the data: rows that vary least across it) and 0.01 (roots 0.6 and
# 1.1456), and its quadrature under a wider weight (root 100) 3.3; the
# radial quadrature under a root wider than the data 4.6
C_EXACT = 8.0

LINE_NODES = np.linspace(-8.0, 8.0, 97)
LINE_MIX = Mixture((Gaussian(0.9, -0.5, 1.0), Gaussian(1.4, 0.7, 0.7)))
LINE = Sampled1D(-8.0, 8.0, LINE_MIX(LINE_NODES))
POLAR_NODES = np.linspace(0.0, 8.0, 33)
POLAR = Sampled1D(0.0, 8.0, np.exp(-POLAR_NODES ** 2 / 4.0))
ROOT_LINE, ROOT_POLAR = 1.1, 0.9

def mp_hermite_moments(data, root, center, n):
    """int H_k((xi - c)/(2R)) data(xi) dxi, k = 0..n, segment by segment from
    the antiderivatives int H_k = H_{k+1}/(2(k+1)) and
    int y H_k = H_{k+2}/(4(k+2)) + H_k/2 (y H_k = H_{k+1}/2 + k H_{k-1})."""
    with mpmath.workdps(40):
        two_r = 2 * mpmath.mpf(root)
        c = mpmath.mpf(center)
        xs = [mpmath.mpf(float(x)) for x in data.nodes]
        fs = [mpmath.mpf(float(v)) for v in data.values]

        def hermite(y):
            h = [mpmath.mpf(1), 2 * y]
            for j in range(1, n + 2):
                h.append(2 * y * h[j] - 2 * j * h[j - 1])
            return h

        hs = [hermite((x - c) / two_r) for x in xs]
        out = [mpmath.mpf(0)] * (n + 1)
        for i in range(len(xs) - 1):
            slope = (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i])
            alpha, beta = fs[i] + slope * (c - xs[i]), two_r * slope  # data = alpha + beta y
            ha, hb = hs[i], hs[i + 1]
            for k in range(n + 1):
                a_int = (hb[k + 1] - ha[k + 1]) / (2 * (k + 1))
                b_int = (hb[k + 2] - ha[k + 2]) / (4 * (k + 2)) + ((hb[k] - ha[k]) / 2 if k else 0)
                out[k] += two_r * (alpha * a_int + beta * b_int)
        return np.array([float(v) for v in out])


def mp_w_moments(data, root, n):
    """int_0^inf xi W_j(xi/(2R)) data(xi) dxi, j = 0..n, from the monomial
    form W_j(z) = sum_k (2j)! (-1)^{j-k} / (k!^2 (j-k)!) z^{2k}, in 60 digits
    (the alternating monomial sums cancel), segment by segment above 0."""
    with mpmath.workdps(60):
        scale = 1 / (2 * mpmath.mpf(root)) ** 2
        xs = [mpmath.mpf(float(x)) for x in data.nodes]
        fs = [mpmath.mpf(float(v)) for v in data.values]
        out = []
        for j in range(n + 1):
            coeffs = [mpmath.mpf(math.factorial(2 * j) * (-1) ** (j - k))
                      / (math.factorial(k) ** 2 * math.factorial(j - k)) * scale ** k for k in range(j + 1)]
            total = mpmath.mpf(0)
            for i in range(len(xs) - 1):
                if xs[i + 1] <= 0:
                    continue
                slope = (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i])
                p = fs[i] - slope * xs[i]  # data = p + slope xi

                def anti(x):
                    return sum(ck * (p * x ** (2 * k + 2) / (2 * k + 2) + slope * x ** (2 * k + 3) / (2 * k + 3))
                               for k, ck in enumerate(coeffs))

                total += anti(xs[i + 1]) - anti(max(xs[i], 0))
            out.append(float(total))
        return np.array(out)


@functools.lru_cache(maxsize=None)
def polar_reference(n):
    return mp_w_moments(POLAR, ROOT_POLAR, n)


def hermite_integrand(data, root, center, n):
    return lambda xi: series_cartesian.hermite_batch(n, (xi - center) / (2.0 * root)) * data(xi)


def w_integrand(data, root, n):
    return lambda xi: series_polar.w_poly_batch(n, xi / (2.0 * root)) * (xi * data(xi))


@pytest.mark.parametrize("center", [0.0, 1.7])
def test_hermite_moments_are_the_interpolants_up_to_rounding(center):
    n = 80
    exact = series_cartesian._hermite_moments(LINE, ROOT_LINE, n, center=center)
    ref = mp_hermite_moments(LINE, ROOT_LINE, center, n)
    l1 = l1_norms(hermite_integrand(LINE, ROOT_LINE, center, n), LINE.lo, LINE.hi, LINE.nodes)
    assert np.all(np.abs(exact - ref) <= C_EXACT * EPS * l1)


NOISY = {
    # the evolved Gaussian of the README's inverse example, and the README
    # mixture, with noise: the slope jumps are noise over the spacing, and
    # they cancel in every moment
    "gauss-1601-1e-3": Sampled1D.from_function(Gaussian(1.3, 0.0, math.sqrt(1.0 / 1.3)), -10.0, 10.0, 1601)
    .with_noise(1e-3, np.random.default_rng(1)),
    "mix-481-1e-2": Sampled1D.from_function(LINE_MIX, -12.0, 12.0, 481).with_noise(1e-2, np.random.default_rng(1)),
}
ROOT_NOISY = 1.1456


@pytest.mark.parametrize("center", [0.0, 2.17, -2.17])
@pytest.mark.parametrize("data", sorted(NOISY))
def test_hermite_moments_of_noisy_data_are_the_interpolants_up_to_rounding(data, center):
    data, n = NOISY[data], 80
    exact = series_cartesian._hermite_moments(data, ROOT_NOISY, n, center=center)
    ref = mp_hermite_moments(data, ROOT_NOISY, center, n)
    l1 = l1_norms(hermite_integrand(data, ROOT_NOISY, center, n), data.lo, data.hi, data.nodes)
    assert np.all(np.abs(exact - ref) <= C_EXACT * EPS * l1)


@pytest.mark.parametrize("data", sorted(NOISY))
def test_lattice_moments_of_noisy_data_are_the_interpolants_up_to_rounding(data):
    # the line C lattice at N = 40 (moments to order 80) about off-middle
    # centres: one Hermite batch on the exact lattice lo + j h serves them
    # all, and the float nodes' and centres' offsets from it, which the
    # noise amplifies (measured without the first-order correction: up to
    # 5200 eps int|f_k|), are corrected; each row is the centre's alone
    data, n = NOISY[data], 80
    centres = np.unique(series_cartesian._centres(np.array([-2.3, 3.3]), ROOT_NOISY, n // 2, data))
    rows = data.lattice_moments(ROOT_NOISY, n, centres)
    for c, row in zip(centres, rows):
        assert c != 0.0
        ref = mp_hermite_moments(data, ROOT_NOISY, c, n)
        l1 = l1_norms(hermite_integrand(data, ROOT_NOISY, c, n), data.lo, data.hi, data.nodes)
        assert np.all(np.abs(row - ref) <= C_EXACT * EPS * l1)
        np.testing.assert_array_equal(data.lattice_moments(ROOT_NOISY, n, np.array([c]))[0], row)


def test_moments_finite_in_longdouble_only_raise_overflow_without_a_warning():
    # one hat of height 1 and half-width h = 5e297 on a 2e300-wide window:
    # M_0 = h fits in float64, M_2 = h^3/(6 R^2) - 2h ~ 2e892 only in
    # np.longdouble (up to 1e4932), where the rows and sums stay finite
    wide = Sampled1D.from_function(Gaussian(1.3), -1e300, 1e300, 401)
    h = wide.nodes[201] - wide.nodes[200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert series_cartesian._hermite_moments(wide, 1.0, 0) == pytest.approx([h], rel=1e-12)
        with pytest.raises(OverflowError, match="not finite"):
            series_cartesian._hermite_moments(wide, 1.0, 2)


def mp_weighted_moments(data, root, n):
    """int H_k(y) e^{-y^2} data dxi/(2b sqrt(pi)), y = xi/(2b), b = root,
    k = 0..n, segment by segment: with phi_k = H_k e^{-y^2}, int phi_k =
    -phi_{k-1} and int y phi_k = -phi_k/2 - k phi_{k-2} (y H_k = H_{k+1}/2 +
    k H_{k-1}), phi_{-1} = -(sqrt(pi)/2) erf y, phi_{-2} = (sqrt(pi)/2)
    (y erf y + e^{-y^2}/sqrt(pi)), in 40 digits."""
    with mpmath.workdps(40):
        two_b, half_sqrt_pi = 2 * mpmath.mpf(root), mpmath.sqrt(mpmath.pi) / 2
        ys = [mpmath.mpf(float(x)) / two_b for x in data.nodes]
        fs = [mpmath.mpf(float(v)) for v in data.values]

        def phis(y):  # phi_{-2} .. phi_n
            gauss, erf = mpmath.exp(-y * y), mpmath.erf(y)
            out = [half_sqrt_pi * (y * erf + gauss / mpmath.sqrt(mpmath.pi)), -half_sqrt_pi * erf, gauss, 2 * y * gauss]
            for k in range(1, n):
                out.append(2 * y * out[-1] - 2 * k * out[-2])
            return out

        ph = [phis(y) for y in ys]
        out = [mpmath.mpf(0)] * (n + 1)
        for i in range(len(ys) - 1):
            slope = (fs[i + 1] - fs[i]) / (ys[i + 1] - ys[i])
            alpha, a, b = fs[i] - slope * ys[i], ph[i], ph[i + 1]  # data = alpha + slope y
            for k in range(n + 1):
                out[k] += alpha * (a[k + 1] - b[k + 1]) + slope * ((a[k + 2] - b[k + 2]) / 2 + k * (a[k] - b[k]))
        return np.array([float(v / mpmath.sqrt(mpmath.pi)) for v in out])


WEIGHTED = {**NOISY, "mix-97": LINE}


@pytest.mark.parametrize("root", [0.6, ROOT_NOISY, "half-span", 100.0])
@pytest.mark.parametrize("data", sorted(WEIGHTED))
def test_weighted_moments_are_the_interpolants_up_to_rounding(data, root):
    # CI-B's moments: the weight's root is the Hermite root, about 0; the
    # closed form up to the weight as wide as the data (root = half its
    # span), and the quadrature under a wider one (root = 100)
    data, n = WEIGHTED[data], 80
    root = (data.hi - data.lo) / 2.0 if root == "half-span" else root
    exact = series_cartesian._hermite_moments(data, root, n, weighted=True)
    ref = mp_weighted_moments(data, root, n)
    l1 = l1_norms(weighted_moment_integrand(data, root, n), *series_cartesian._moment_window(data, root), data.nodes)
    assert np.all(np.abs(exact - ref) <= C_EXACT * EPS * l1)


def test_weighted_moments_of_a_file_spanning_1e300_are_finite_without_a_warning():
    # one hat of half-width 5e297 about 0: M_0 is its value there, and the
    # rows far out are exact zeros (e^{-y^2} underflows in np.longdouble)
    wide = Sampled1D.from_function(Gaussian(1.3), -1e300, 1e300, 401)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = series_cartesian._hermite_moments(wide, 1.0, 80, weighted=True)
    assert np.all(np.isfinite(moments))
    assert moments[0] == pytest.approx(1.0, rel=1e-12)


def mp_line_oracle(data, tau, xs):
    """int K(x - xi) data(xi) dxi panel by panel: with data = a + s (xi - x)
    and z = (xi - x)/(2 sqrt(tau)), a [erf z]/2 - s sqrt(tau/pi) [e^{-z^2}],
    in 30 digits."""
    with mpmath.workdps(30):
        root = mpmath.sqrt(mpmath.mpf(tau))
        nodes = [mpmath.mpf(float(v)) for v in data.nodes]
        fs = [mpmath.mpf(float(v)) for v in data.values]
        out = []
        for x in xs:
            x = mpmath.mpf(float(x))
            zs = [(xi - x) / (2 * root) for xi in nodes]
            erf, gauss = [mpmath.erf(z) for z in zs], [mpmath.exp(-z * z) for z in zs]
            total = mpmath.mpf(0)
            for i in range(len(nodes) - 1):
                slope = (fs[i + 1] - fs[i]) / (nodes[i + 1] - nodes[i])
                a = fs[i] + slope * (x - nodes[i])
                total += a * (erf[i + 1] - erf[i]) / 2 - slope * root / mpmath.sqrt(mpmath.pi) * (gauss[i + 1] - gauss[i])
            out.append(float(total))
        return np.array(out)


ORACLE_DATA = {"mix-481": Sampled1D.from_function(LINE_MIX, -12.0, 12.0, 481), "mix-481-1e-2": NOISY["mix-481-1e-2"]}


ORACLE_XS = np.concatenate([np.linspace(-14.5, 14.5, 12), np.linspace(-12.0, 12.0, 481)[[0, 1, 240, 479, 480]]])


@pytest.mark.parametrize("tau", [1e-9, 0.05, 0.5, 3.0, 144.0])
@pytest.mark.parametrize("data", sorted(ORACLE_DATA))
def test_line_oracle_is_the_interpolants_up_to_rounding(data, tau):
    # inside and outside the support, and on nodes (the ends among them);
    # tau = 144: the kernel 2 sqrt(tau) as wide as the data, the last closed form
    data, xs = ORACLE_DATA[data], ORACLE_XS
    assert kernel_passes(lambda: kernels.forward_line(data, tau, xs)) == []
    got, ref = kernels.forward_line(data, tau, xs), mp_line_oracle(data, tau, xs)
    # a few eps of each term: the value, sqrt(tau) |w_i| times the two parts
    # e^{-t^2}/sqrt(pi) and t erfc t of ierfc t (t = |z_i|; they cancel about
    # 2 t^2-fold far out) and the end terms (measured: at most 2.6 eps of their
    # sum, on the smooth file 14.5 below the support at tau = 0.05)
    jumps = np.diff(np.diff(data.values) / np.diff(data.nodes), prepend=0.0, append=0.0)
    t = np.abs(data.nodes[None, :] - xs[:, None]) / (2.0 * math.sqrt(tau))
    parts = np.exp(-t * t) / math.sqrt(math.pi) + t * erfc(t)
    ends = np.abs(data.values[0]) * erfc(t[:, 0]) + np.abs(data.values[-1]) * erfc(t[:, -1])
    terms = np.abs(ref) + math.sqrt(tau) * (parts @ np.abs(jumps)) + ends
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * terms)


@pytest.mark.parametrize("tau", [144.0 * (1.0 + 1e-9), 1e4, 1e8])
@pytest.mark.parametrize("data", sorted(ORACLE_DATA))
def test_line_oracle_under_a_kernel_wider_than_the_data_is_relative_to_its_value(data, tau):
    # the closed form's terms sqrt(tau) |w_i| ierfc|z_i| near sqrt(tau/pi) |w_i|
    # would cancel to u ~ int f/(2 sqrt(pi tau)), about tau-fold; the
    # quadrature keeps a few eps of u (measured: at most 3.5 eps)
    data, xs = ORACLE_DATA[data], ORACLE_XS
    assert kernel_passes(lambda: kernels.forward_line(data, tau, xs)) == [data.n_nodes]
    got, ref = kernels.forward_line(data, tau, xs), mp_line_oracle(data, tau, xs)
    assert np.all(np.abs(got - ref) <= 8.0 * EPS * np.abs(ref))


@pytest.mark.parametrize("dtype", [float, np.longdouble])
def test_radial_moments_are_the_interpolants_up_to_rounding(dtype):
    n = 40
    exact = series_polar._w_radial_moments(POLAR, ROOT_POLAR, n, dtype=dtype)
    assert exact.dtype == np.dtype(dtype)
    ref = polar_reference(n)
    l1 = l1_norms(w_integrand(POLAR, ROOT_POLAR, n), POLAR.lo, POLAR.hi, POLAR.nodes)
    assert np.all(np.abs(exact - ref).astype(float) <= C_EXACT * EPS * l1)


NOISY_POLAR = {
    "noisy-101": Sampled1D.from_function(lambda xi: np.exp(-xi * xi / 4.0), 0.0, 8.0, 101).with_noise(
        1e-3, np.random.default_rng(1)
    ),
    # a file reaching far below 0: its span above 0 is 8, not 108
    "far-below-271": Sampled1D.from_function(lambda xi: np.exp(-xi * xi / 4.0), -100.0, 8.0, 271).with_noise(
        1e-3, np.random.default_rng(1)
    ),
}


@functools.lru_cache(maxsize=None)
def noisy_polar_reference(data, root, n):
    return mp_w_moments(NOISY_POLAR[data], root, n)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("root", [1.2, ROOT_POLAR])
def test_radial_moments_of_noisy_data_are_the_interpolants_up_to_rounding(root, dtype):
    # the slope jumps of noisy data cancel in every moment (measured: at
    # most 0.38 eps int|f_j| at R = 0.9 and 0.15 at R = 1.2)
    data, n = NOISY_POLAR["noisy-101"], 40
    exact = series_polar._w_radial_moments(data, root, n, dtype=dtype)
    assert exact.dtype == np.dtype(dtype)
    ref = noisy_polar_reference("noisy-101", root, n)
    l1 = l1_norms(w_integrand(data, root, n), data.lo, data.hi, data.nodes)
    assert np.all(np.abs(exact - ref).astype(float) <= C_EXACT * EPS * l1)


TIGHT = dict(REL_TOL=1e-13, MAX_PANELS=1 << 14)


@pytest.mark.parametrize("center", [0.0, 1.7])
def test_hermite_moments_match_the_adaptive_engine(center):
    n = 80
    exact = series_cartesian._hermite_moments(LINE, ROOT_LINE, n, center=center)
    f = hermite_integrand(LINE, ROOT_LINE, center, n)
    with quad_settings(**TIGHT):
        adaptive, _ = quad.integrate_vec(f, LINE.lo, LINE.hi, LINE.nodes)
    l1 = l1_norms(f, LINE.lo, LINE.hi, LINE.nodes)
    # the adaptive engine's acceptance test: rel_tol |I| or its 32 eps int|f| floor
    assert np.all(np.abs(exact - adaptive) <= np.maximum(1e-13 * np.abs(adaptive), 32.0 * EPS * l1))


CUT = {
    # files reaching below 0, integrated from 0: on 182 nodes 0 is a node,
    # on 181 it lies between two
    "cut-182": Sampled1D.from_function(lambda xi: np.exp(-xi * xi / 4.0), -1.05, 8.0, 182),
    "cut-181": Sampled1D.from_function(lambda xi: np.exp(-xi * xi / 4.0), -1.05, 8.0, 181),
}


@pytest.mark.parametrize("data", ["polar-33", *sorted(CUT)])
def test_radial_moments_match_the_adaptive_engine(data):
    # against a 60-digit integral, the cut files read at most 1e-3 eps
    # int|f_j| in float64 and 0.32 in np.longdouble
    data, n = CUT.get(data, POLAR), 40
    exact = series_polar._w_radial_moments(data, ROOT_POLAR, n)
    f = w_integrand(data, ROOT_POLAR, n)
    with quad_settings(**TIGHT):
        adaptive, _ = quad.integrate_vec(f, 0.0, data.hi, data.nodes)
    l1 = l1_norms(f, 0.0, data.hi, data.nodes)
    assert np.all(np.abs(exact - adaptive) <= np.maximum(1e-13 * np.abs(adaptive), 32.0 * EPS * l1))


@pytest.mark.parametrize("dtype", [float, np.longdouble])
def test_radial_moments_of_a_file_below_0_are_zeros_of_the_pass_dtype(dtype):
    # no part above 0: an empty window, whatever the root
    below = Sampled1D.from_function(lambda xi: np.exp(-xi * xi / 4.0), -8.0, -1.0, 57)
    moments = series_polar._w_radial_moments(below, 0.5, 12, dtype=dtype)
    assert moments.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(moments, np.zeros(13))


def test_radial_moments_finite_in_longdouble_only_raise_overflow_without_a_warning():
    # one hat of height 1 and width h = 2.5e297 from 0: M_0 = h^2/6 ~ 1e594
    # fits in np.longdouble only; at order 40 the W rows themselves overflow
    wide = Sampled1D.from_function(Gaussian(1.3), 0.0, 1e300, 401)
    h = np.longdouble(wide.nodes[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = series_polar._w_radial_moments(wide, 1.0, 0, dtype=np.longdouble)
        assert abs(got[0] / (h * h / 6) - 1) < 1e-15
        for dtype, n in [(float, 0), (float, 40), (np.longdouble, 40)]:
            with pytest.raises(OverflowError):
                series_polar._w_radial_moments(wide, 1.0, n, dtype=dtype)


# --- closed forms of Gaussian and mixture moments ------------------------------

def hermite_coefficients(n):
    """The integer monomial coefficients of H_0 .. H_n."""
    h = [[1], [0, 2]]
    for k in range(1, n):
        nxt = [0] + [2 * c for c in h[k]]
        for m, c in enumerate(h[k - 1]):
            nxt[m] -= 2 * k * c
        h.append(nxt)
    return h[: n + 1]


def mp_gaussian_hermite_moments(g, root, center, n, weighted=False):
    """int H_k((xi - c)/(2R)) g(xi) dxi, k = 0..n (weighted: times
    e^{-xi^2/(4R^2)}/(2R sqrt(pi))), in 80 digits, with no generating
    function: the exponent -p xi^2 + q xi - r completed to a square, xi =
    q/(2p) + t/sqrt(p), the monomial expansion of H_k(alpha + beta t) and
    int t^i e^{-t^2} dt = Gamma((i + 1)/2) for even i."""
    with mpmath.workdps(80):
        two_r, c = 2 * mpmath.mpf(root), mpmath.mpf(center)
        a, mu, amp = mpmath.mpf(g.width_a), mpmath.mpf(g.center), mpmath.mpf(g.amplitude)
        p, q, r = 1 / (4 * a), mu / (2 * a), mu * mu / (4 * a)
        if weighted:
            p += 1 / (two_r * two_r)
            amp /= two_r * mpmath.sqrt(mpmath.pi)
        scale = amp * mpmath.exp(q * q / (4 * p) - r) / mpmath.sqrt(p)
        alpha, beta = (q / (2 * p) - c) / two_r, 1 / (two_r * mpmath.sqrt(p))
        powers = [  # int (alpha + beta t)^m e^{-t^2} dt
            sum(mpmath.binomial(m, i) * alpha ** (m - i) * beta ** i * mpmath.gamma(mpmath.mpf(i + 1) / 2)
                for i in range(0, m + 1, 2))
            for m in range(n + 1)
        ]
        return [scale * sum(hc * powers[m] for m, hc in enumerate(h)) for h in hermite_coefficients(n)]


def mp_gaussian_w_moments(g, root, n):
    """int_0^inf xi W_j(xi/(2R)) g(xi) dxi, j = 0..n, for a centred g, in 80
    digits, with no Laplace transform: the monomials of W_j (as
    mp_w_moments) against int_0^inf xi^{2k+1} e^{-xi^2/(4a)} dxi = k!
    (4a)^{k+1}/2."""
    with mpmath.workdps(80):
        scale, a = 1 / (2 * mpmath.mpf(root)) ** 2, mpmath.mpf(g.width_a)
        return [
            g.amplitude * sum(
                mpmath.mpf(math.factorial(2 * j) * (-1) ** (j - k)) / (math.factorial(k) ** 2 * math.factorial(j - k))
                * scale ** k * math.factorial(k) * (4 * a) ** (k + 1) / 2
                for k in range(j + 1)
            )
            for j in range(n + 1)
        ]


def mp_sum(*columns):
    with mpmath.workdps(80):
        return [sum(parts) for parts in zip(*columns)]


def exact_errors(got, ref):
    """|got - ref| in float64, ref in 80 digits; an np.longdouble value is
    read exactly as the sum of two doubles."""
    with mpmath.workdps(80):
        out = []
        for x, y in zip(got, ref):
            head = float(x)
            out.append(float(abs(mpmath.mpf(head) + mpmath.mpf(float(x - type(x)(head))) - y)))
    return np.array(out)


GAUSS = Gaussian(1.3, 0.4, 0.9)
WIDE = (-60.0, 60.0)  # holds |H_80 f| and |xi W_40 f| at these widths; the profiles' 12-sigma windows do not


@pytest.mark.parametrize(
    "width, moment_time, center",
    [(1.3, 1.7, 0.0), (1.0, 1.0, 0.0), (1.3, 0.8, 0.0), (1.3, 1.7, 2.3), (1.3, 0.8, -2.3)],
    ids=["gamma2>0", "gamma2=0", "gamma2<0", "gamma2>0-off-centre", "gamma2<0-off-centre"],
)
def test_gaussian_hermite_moments_are_exact_up_to_rounding(width, moment_time, center):
    # gamma^2 = 1 - a/R^2 of either sign and 0 (R = a = 1), about the data's
    # centre's side and off it, at the line C order 2N = 80 (measured: at
    # most 2.3 eps int|f_k|)
    g, root, n = Gaussian(width, 0.4, 0.9), math.sqrt(moment_time), 80
    assert (1.0 - g.width_a / (root * root) == 0.0) == (moment_time == 1.0)
    assert quadrature_passes(series_cartesian, lambda: series_cartesian._hermite_moments(g, root, n, center=center)) == []
    got = series_cartesian._hermite_moments(g, root, n, center=center)
    l1 = l1_norms(hermite_moment_integrand(g, root, n, center), *WIDE)
    assert np.all(exact_errors(got, mp_gaussian_hermite_moments(g, root, center, n)) <= C_EXACT * EPS * l1)


@pytest.mark.parametrize("root", [0.6, ROOT_NOISY, 3.0])
def test_gaussian_weighted_moments_are_exact_up_to_rounding(root):
    # CI-B: the weight times the Gaussian is one Gaussian (measured: at most
    # 0.9 eps int|f_k|)
    n = 80
    got = series_cartesian._hermite_moments(GAUSS, root, n, weighted=True)
    l1 = l1_norms(hermite_moment_integrand(GAUSS, root, n, weighted=True), *WIDE)
    assert np.all(exact_errors(got, mp_gaussian_hermite_moments(GAUSS, root, 0.0, n, True)) <= C_EXACT * EPS * l1)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("moment_time", [1.7, 0.8], ids=["s>1", "s<1"])
def test_centred_gaussian_radial_moments_are_exact_up_to_rounding(moment_time, dtype):
    # s = R^2/a above and below 1 (measured: at most 0.73 eps int|f_j| in
    # float64 and 3.4e-4 in np.longdouble)
    g, root, n = Gaussian(1.3, 0.0, 0.9), math.sqrt(moment_time), 40
    got = series_polar._w_radial_moments(g, root, n, dtype=dtype)
    assert got.dtype == np.dtype(dtype)
    l1 = l1_norms(w_moment_integrand(g, root, n), 0.0, WIDE[1])
    assert np.all(exact_errors(got, mp_gaussian_w_moments(g, root, n)) <= C_EXACT * EPS * l1)


def test_mixture_moments_are_their_components_summed():
    # the README mixture on the line about an off-centre point, and a centred
    # one in the plane in np.longdouble
    root, n = ROOT_LINE, 80
    got = series_cartesian._hermite_moments(LINE_MIX, root, n, center=1.7)
    ref = mp_sum(*(mp_gaussian_hermite_moments(g, root, 1.7, n) for g in LINE_MIX.components))
    l1 = l1_norms(hermite_moment_integrand(LINE_MIX, root, n, 1.7), *WIDE)
    assert np.all(exact_errors(got, ref) <= C_EXACT * EPS * l1)
    mix, n = Mixture((Gaussian(0.9, 0.0, 1.0), Gaussian(1.3, 0.0, 0.8))), 40
    got = series_polar._w_radial_moments(mix, ROOT_POLAR, n, dtype=np.longdouble)
    ref = mp_sum(*(mp_gaussian_w_moments(g, ROOT_POLAR, n) for g in mix.components))
    l1 = l1_norms(w_moment_integrand(mix, ROOT_POLAR, n), 0.0, WIDE[1])
    assert np.all(exact_errors(got, ref) <= C_EXACT * EPS * l1)


POINTS = np.array([0.0, 1.71, -2.91, 3.0, -3.5, 4.4, -6.0, 8.0, -10.0, 12.0, -16.0])  # |x| >= 3R from -3.5 on


@pytest.mark.parametrize("data", [GAUSS, LINE_MIX], ids=["gaussian", "mixture"])
def test_point_moments_are_exact_up_to_rounding_far_from_the_data(data):
    # the line C coefficients of analytic data: the moments about each point
    # itself from one recurrence over all points (orders 2j = 20, 50, 80 and
    # every other up to 80), against the 80-digit reference, and each
    # point's row the bits of the call about it alone.  Points within
    # FAR_Y0 R of every component take float64 (measured: at most 1.2 eps
    # int|H_k f|), the others np.longdouble (at most 0.9); in float64 alone
    # those reached 8.8 at x = -6 (k = 21) and 21 at x = 12 (k = 62)
    root, n = ROOT_LINE, 80
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = data.point_moments(root, n, POINTS)
    assert rows.shape == (POINTS.size, n + 1)
    components = data.components if isinstance(data, Mixture) else (data,)
    for x, row in zip(POINTS, rows):
        np.testing.assert_array_equal(row, data.hermite_moments(root, n, float(x)))
        ref = mp_sum(*(mp_gaussian_hermite_moments(g, root, x, n) for g in components))
        l1 = l1_norms(hermite_moment_integrand(data, root, n, x), *WIDE)
        assert np.all(exact_errors(row, ref) <= C_EXACT * EPS * l1), x


def test_point_moments_hold_one_table_and_a_few_values_per_component_and_point():
    # the components' rows are kept for one block of points at a time and
    # summed into one float64 table: the peak is that table, a block and a
    # few arrays of components by points (in np.longdouble far out), not a
    # table per component (an 8-component mixture over 20 000 points on
    # [-20, 20], in both precisions; measured 2.0 tables, where keeping
    # every component's rows for every point took 10.1)
    mix = Mixture(tuple(Gaussian(0.9 + 0.1 * c, -0.5 + 0.2 * c) for c in range(8)))
    x, n = np.linspace(-20.0, 20.0, 20_000), 80
    tracemalloc.start()
    try:
        rows = mix.point_moments(ROOT_LINE, n, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (x.size, n + 1) and np.all(np.isfinite(rows))
    state = 6 * len(mix.components) * x.size * np.dtype(np.longdouble).itemsize
    assert peak < 1.2 * rows.nbytes + state
    for k in (0, 10_000, 19_999):  # far, near and far: eight terms summed in order, as one centre sums them
        np.testing.assert_array_equal(rows[k], mix.hermite_moments(ROOT_LINE, n, float(x[k])))


def test_a_point_whose_moments_overflow_has_a_nan_row_alone():
    # about x = 1e5 the order-80 moments exceed float64; that point's row is
    # NaN (its C series fails naming it), every other keeps its bits, and
    # numpy warns about nothing
    xs = np.array([-1.0, 1e5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = LINE_MIX.point_moments(ROOT_LINE, 80, xs)
        with pytest.raises(OverflowError, match="not finite"):
            LINE_MIX.hermite_moments(ROOT_LINE, 80, 1e5)
    assert np.all(np.isnan(rows[1]))
    for k in (0, 2):
        np.testing.assert_array_equal(rows[k], LINE_MIX.hermite_moments(ROOT_LINE, 80, float(xs[k])))


@pytest.mark.parametrize("dtype", [float, np.longdouble])
def test_closed_forms_beyond_float64_raise_overflow_without_a_warning(dtype):
    # a = 1.5e306 at R = 1: the plane's ratio -2(2j + 1)(1 - a/R^2) itself
    # overflows float64 from j = 30, and the line's moments from k = 2
    wide = Gaussian(1.5e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="not finite"):
            series_polar._w_radial_moments(wide, 1.0, 40, dtype=dtype)
        with pytest.raises(OverflowError, match="not finite"):
            series_cartesian._hermite_moments(wide, 1.0, 40)


def test_a_ring_or_a_ring_component_leaves_the_plane_to_the_quadrature():
    ring = Gaussian(1.3, 0.5, 0.9)
    assert ring.radial_moments(1.0, 4) is None
    assert Mixture((Gaussian(1.3), ring)).radial_moments(1.0, 4) is None
    assert quadrature_passes(series_polar, lambda: series_polar._w_radial_moments(ring, 1.0, 4)) == [0]


# --- which passes take a closed form or the quadrature -------------------------

def quadrature_passes(module, call):
    """The number of breakpoints (0 for none) of each integrate_vec call of
    a solve, in module or any other module of the package that binds the
    same function: [] where the solve takes closed forms only."""
    seen = []
    original = module.integrate_vec

    def spy(f, lo, hi, breakpoints=None):
        seen.append(0 if breakpoints is None else len(breakpoints))
        return original(f, lo, hi, breakpoints)

    with rebound(original, spy):
        call()
    return seen


def kernel_passes(call):
    """quadrature_passes of a line oracle."""
    return quadrature_passes(kernels, call)


def closed_form_rows(call):
    """The row count (order + 1) of each closed-form moment pass of a solve."""
    seen = []
    original = Sampled1D.hermite_moments

    def spy(data, root, n, center=0.0, weighted=False):
        moments = original(data, root, n, center, weighted)
        if not weighted and moments is not None:
            seen.append(n + 1)
        return moments

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sampled1D, "hermite_moments", spy)
        call()
    return seen


PARAMS = KernelParams(tau=0.3, beta=0.9)


def weighted_closed_form_rows(call):
    """The row count (order + 1) of each closed-form CI-B moment pass of a solve."""
    seen = []
    original = Sampled1D.hermite_moments

    def spy(data, root, n, center=0.0, weighted=False):
        moments = original(data, root, n, center, weighted)
        if weighted and moments is not None:
            seen.append(n + 1)
        return moments

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sampled1D, "hermite_moments", spy)
        call()
    return seen


@pytest.mark.parametrize("variant, rows", [("CD-A", 13), ("CI-A", 13), ("CI-B", None), ("CD-C", 25)])
def test_line_moment_passes_take_the_exact_level_except_ci_b(variant, rows):
    # the line's exact level is the plain closed form: one pass of n + 1 rows
    # (line C: the 2n + 1 of its order-2n moments) and no quadrature; CI-B's
    # Gaussian-weighted moments take their own closed form, one pass of n + 1
    # rows; a Gaussian takes its closed form (Gaussian.hermite_moments) and
    # a Bump the adaptive engine
    coeffs = series_cartesian.cd_coeffs if variant.startswith("CD") else series_cartesian.ci_coeffs
    sampled = lambda: coeffs(variant, LINE, PARAMS, 12, 0.0)  # noqa: E731
    assert closed_form_rows(sampled) == ([] if rows is None else [rows])
    assert weighted_closed_form_rows(sampled) == ([13] if rows is None else [])
    assert quadrature_passes(series_cartesian, sampled) == []
    gaussian = lambda: coeffs(variant, Gaussian(1.0), PARAMS, 12, 0.0)  # noqa: E731
    assert closed_form_rows(gaussian) == weighted_closed_form_rows(gaussian) == []
    assert quadrature_passes(series_cartesian, gaussian) == []
    bump = lambda: coeffs(variant, Bump(0.0, 2.0), PARAMS, 12, 0.0)  # noqa: E731
    assert closed_form_rows(bump) == weighted_closed_form_rows(bump) == []
    assert quadrature_passes(series_cartesian, bump) == [0]


@pytest.mark.parametrize("beta, adaptive", [(64.0, False), (64.0 * (1.0 + 1e-12), True)])
def test_ci_b_moments_take_the_quadrature_under_a_weight_wider_than_the_data(beta, adaptive):
    # the weight's width 2 sqrt(beta) against LINE's span of 16
    params = KernelParams(tau=0.3, beta=beta)
    sampled = lambda: series_cartesian.ci_coeffs("CI-B", LINE, params, 12, 0.0)  # noqa: E731
    assert weighted_closed_form_rows(sampled) == ([] if adaptive else [13])
    assert quadrature_passes(series_cartesian, sampled) == ([LINE.n_nodes] if adaptive else [])


@pytest.mark.parametrize("variant", ["PD-A", "PI-B", "PD-C"])
def test_radial_moment_passes_take_the_closed_form(variant):
    coeffs = series_polar.pd_coeffs if variant.startswith("PD") else series_polar.pi_coeffs
    params = KernelParams(tau=0.3, beta=1.2)
    # sampled data and a centred Gaussian take their closed forms, a ring
    # Gaussian and a Bump the adaptive engine
    assert quadrature_passes(series_polar, lambda: coeffs(variant, POLAR, params, 12, 0.5)) == []
    assert quadrature_passes(series_polar, lambda: coeffs(variant, Gaussian(1.0), params, 12, 0.5)) == []
    assert quadrature_passes(series_polar, lambda: coeffs(variant, Gaussian(1.0, 0.5), params, 12, 0.5)) == [0]
    assert quadrature_passes(series_polar, lambda: coeffs(variant, Bump(0.0, 2.0), params, 12, 0.5)) == [0]


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("root, adaptive", [(4.0, False), (4.0 * (1.0 + 1e-12), True), (54.0, True)])
@pytest.mark.parametrize("data", sorted(NOISY_POLAR))
def test_radial_moments_take_the_quadrature_under_a_root_wider_than_the_data(data, root, adaptive, dtype):
    # 2 root against the files' span of 8 above 0: the slope-jump sum of a
    # wider root cancels (measured unguarded on noisy-101: 92 eps int|f_j|
    # at root 256 and 825 at 1024; on 1081 nodes on [-100, 8], 8.2 at root
    # 54), and the adaptive engine takes the nodes as breakpoints (measured
    # on noisy-101 up to root 64: at most 4.6 eps int|f_j| in float64 and
    # 0.68 in np.longdouble)
    name, data, n = data, NOISY_POLAR[data], 40
    call = lambda: series_polar._w_radial_moments(data, root, n, dtype=dtype)  # noqa: E731
    assert quadrature_passes(series_polar, call) == ([data.n_nodes] if adaptive else [])
    got = call()
    assert got.dtype == np.dtype(dtype)
    l1 = l1_norms(w_integrand(data, root, n), 0.0, data.hi, data.nodes)
    assert np.all(np.abs(got - noisy_polar_reference(name, root, n)).astype(float) <= C_EXACT * EPS * l1)
