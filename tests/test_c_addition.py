"""The C variants' coefficients from moments that do not depend on the point.

CD-C, CI-C, PD-C and PI-C integrate their data against polynomials in a
shifted argument.  On the line, Gaussians and mixtures take their moments
about each point itself, with no recombination.  Other data recombines
moments like the A sibling's by the Hermite addition formula (line, about
each point's lattice centre) and Neumann's addition theorem for I0 (plane,
about the origin, in extended precision).  This file keeps the per-point
quadrature route the library used before as a reference, checks the
identities behind the recombination, checks that both routes are as
accurate as that one up to six moment scales from the centre, and pins
their cost: one quadrature per grid in the plane, one closed-form pass of
sampled data and one Hermite batch per group of lattice centres on the
line, and no recombination for analytic line data.  The closed-form
moments of Gaussians and mixtures leave the divergence scan no rounding
noise to read as growth: the order-40 C inverses of analytic data flag
nothing, as their exact terms do not.
"""

import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import heatseries.series_cartesian as sc
import heatseries.series_polar as sp
from heatseries import profiles, quad
from heatseries.cli import main
from heatseries.kernels import evolve_line, evolve_polar, forward_line
from heatseries.profiles import (
    Bump,
    Gaussian,
    Mixture,
    Sampled1D,
    estimate_scale_line,
    estimate_scale_polar,
    profile_support,
)
from heatseries.quad import integrate_vec
from heatseries.specfun import KernelParams, bessel_i0_scaled, hermite_batch, w_poly_batch
from heatseries.variants import VARIANTS, default_beta, series_terms
from references import integrate, quad_settings

try:
    import mpmath as mp  # the exact order-N sums of the agreement test
except ImportError:
    mp = None

LINE_MIX = Mixture((Gaussian(width_a=0.9, center=-0.5), Gaussian(width_a=1.4, center=0.7, amplitude=0.7)))
POLAR_MIX = Mixture((Gaussian(width_a=0.9), Gaussian(width_a=1.3, amplitude=0.8)))
C_VARIANTS = ("CD-C", "CI-C", "PD-C", "PI-C")
SIBLING = {"CD-C": "CD-A", "CI-C": "CI-A", "PD-C": "PD-A", "PI-C": "PI-A"}
TAU = {"CD-C": 0.5, "CI-C": 0.3, "PD-C": 0.5, "PI-C": 0.3}


def _solver(variant):
    row = VARIANTS[variant]
    if row.geometry == "polar":
        return sp, sp.solve_grid_polar, sp.pd_eval if row.direct else sp.pi_eval, sp.pd_coeffs if row.direct else sp.pi_coeffs
    return sc, sc.solve_grid_line, sc.cd_eval if row.direct else sc.ci_eval, sc.cd_coeffs if row.direct else sc.ci_coeffs


# --- the per-point quadrature route (reference) ------------------------------------

def ref_line_coeffs(data, root: float, n: int, x: float) -> np.ndarray:
    """int H_{2j}((x - xi)/(2 root)) data(xi) dxi for j = 0..n, by quadrature at x."""
    lo, hi = profile_support(data)
    breakpoints = data.nodes if isinstance(data, Sampled1D) else None

    def integrand(xi):
        return hermite_batch(2 * n, (x - xi) / (2.0 * root))[::2] * data(xi)[None, :]

    vals, _ = integrate_vec(integrand, lo, hi, breakpoints=breakpoints)
    return vals


def _angular_average(n: int, r: float, xi: np.ndarray, root: float, rel_tol: float) -> np.ndarray:
    """int_0^pi W_j(sqrt(r^2 + xi^2 - 2 r xi cos phi)/(2 root)) dphi: a
    Gauss-Legendre rule on [0, pi], doubled until stable (the integrand is a
    polynomial of degree <= 2n in cos phi)."""
    prev = None
    m = 64
    while m <= 512:
        nodes, weights = np.polynomial.legendre.leggauss(m)
        phi = 0.5 * math.pi * (nodes + 1.0)
        rad = np.sqrt(np.maximum(r * r + xi[None, :] ** 2 - 2.0 * r * xi[None, :] * np.cos(phi[:, None]), 0.0))
        w = w_poly_batch(n, rad / (2.0 * root))  # (n+1, m, len(xi))
        cur = np.tensordot(0.5 * math.pi * weights, np.moveaxis(w, 1, 0), axes=([0], [0]))
        if prev is not None:
            scale = np.maximum(np.max(np.abs(cur), axis=1, keepdims=True), 1e-300)
            if np.max(np.abs(cur - prev) / scale) < rel_tol:
                return cur
        prev = cur
        m *= 2
    return prev


def ref_polar_coeffs(data, root: float, n: int, r: float) -> np.ndarray:
    """int_0^pi int_0^inf xi W_j(|r - xi e^{i phi}|/(2 root)) data(xi) dxi dphi, by quadrature at r."""
    lo, hi = profile_support(data)
    breakpoints = data.nodes if isinstance(data, Sampled1D) else None

    def integrand(xi):
        return _angular_average(n, r, xi, root, quad.REL_TOL) * (xi * data(xi))[None, :]

    vals, _ = integrate_vec(integrand, max(0.0, lo), hi, breakpoints=breakpoints)
    return vals


# --- exact C coefficients of Gaussian mixtures (60 digits) ---------------------------

def exact_line_coeffs(data, root: float, n: int, x: float) -> list:
    """int H_{2j}((x - xi)/(2R)) data dxi in closed form: for a component
    A e^{-(xi-c)^2/(4a)} it is 2 A sqrt(pi a) sum_k (2j)!/(k!(2j-2k)!) (-1)^k (1 - a/R^2)^k (2y)^{2j-2k},
    y = (x - c)/(2R)."""
    with mp.workdps(60):
        out = [mp.mpf(0)] * (n + 1)
        for g in data.components:
            a, c, amp, R = mp.mpf(g.width_a), mp.mpf(g.center), mp.mpf(g.amplitude), mp.mpf(root)
            y, mu = (mp.mpf(x) - c) / (2 * R), a / R**2
            shrink = [(mu - 1) ** k for k in range(n + 1)]  # (-1)^k (1 - mu)^k
            shift = [(2 * y) ** k for k in range(2 * n + 1)]
            for j in range(n + 1):
                m = 2 * j
                poly = mp.fsum(
                    math.factorial(m) // (math.factorial(k) * math.factorial(m - 2 * k)) * shrink[k] * shift[m - 2 * k]
                    for k in range(j + 1)
                )
                out[j] += 2 * amp * mp.sqrt(mp.pi * a) * poly
        return out


def exact_polar_coeffs(data, root: float, n: int, r: float) -> list:
    """Neumann's recombination of the closed-form radial moments
    int xi W_k(xi/(2R)) A e^{-xi^2/(4a)} dxi = 2 a A (-1)^k (2k)!/k! (1 - a/R^2)^k."""
    with mp.workdps(60):
        R = mp.mpf(root)
        moments = [
            mp.fsum(
                2 * mp.mpf(g.width_a) * mp.mpf(g.amplitude) * (-1) ** k * mp.factorial(2 * k) / mp.factorial(k)
                * (1 - mp.mpf(g.width_a) / R**2) ** k
                for g in data.components
            )
            for k in range(n + 1)
        ]
        v = (mp.mpf(r) / (2 * R)) ** 2
        return [
            mp.pi * mp.fsum(mp.binomial(2 * j, 2 * d) * mp.binomial(2 * d, d) * v**d * moments[j - d] for d in range(j + 1))
            for j in range(n + 1)
        ]


# --- agreement with the reference -------------------------------------------------

def _case(variant: str, kind: str):
    """Data, params, closed-form truth and the evaluation points."""
    row = VARIANTS[variant]
    polar = row.geometry == "polar"
    tau = TAU[variant]
    f = Gaussian(width_a=1.0) if kind == "gauss" else POLAR_MIX if polar else LINE_MIX
    evolve = evolve_polar if polar else evolve_line
    data = f if row.direct else evolve(f, tau)
    if not isinstance(data, Mixture):
        data = Mixture((data,))
    truth = evolve(f, tau) if row.direct else f
    if kind == "bump":  # direct only: no closed form to evolve, the truth by quadrature
        data = Bump(0.3, 2.0)
        truth = functools.partial(forward_line, data, tau)
    if kind == "sampled":
        data = Sampled1D.from_function(data, 0.0, 12.0, 49) if polar else Sampled1D.from_function(data, -12.0, 12.0, 481)
    scale = (estimate_scale_polar if polar else estimate_scale_line)(data)
    params = KernelParams(tau=tau, beta=default_beta(variant, scale, tau))
    root = row.moment_root(params)
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0]) if polar else np.array([-6.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 5.0, 6.0])
    if kind == "sampled":
        t = t * 4.0 / 6.0
    return data, params, truth, t, t * (2.0 * root if polar else root)


@pytest.mark.parametrize(
    "variant, kind",
    [(v, k) for v in C_VARIANTS for k in ("gauss", "mix", "sampled")] + [("CD-C", "bump")],
    ids=lambda value: value,
)
def test_one_pass_matches_the_quadrature_route(variant, kind):
    # At every order and every point up to 6 moment scales out (|x|/R, r/(2R);
    # 4 for sampled data): |new - ref| <= 1e-12 max|truth| + 1e-2 |ref - truth|,
    # the routes agree far below their distance from the truth, with the
    # same divergence flag.  Where the reference is itself off the exact
    # order-N sum by more than that (the angular rule stops at rel_tol 1e-10;
    # rounding noise, which two summations cannot share), the one-pass value
    # must be at most twice as far from the exact sum, and a flag that
    # differs must be the flag of the exact terms.  On the line, Gaussians
    # and mixtures take their moments about each point; a Bump (its truth by
    # quadrature) and sampled data check the lattice's recombination.
    pytest.importorskip("mpmath")
    row = VARIANTS[variant]
    polar = row.geometry == "polar"
    _, solve, eval_fn, _ = _solver(variant)
    data, params, truth, t, xs = _case(variant, kind)
    root = row.moment_root(params)
    exact_vals = truth(xs)
    floor = 1e-12 * np.max(np.abs(exact_vals))
    top = 40
    ref = [(ref_polar_coeffs if polar else ref_line_coeffs)(data, root, top, float(x)) for x in xs]
    exact = None
    if kind in ("gauss", "mix"):
        exact_fn = exact_polar_coeffs if polar else exact_line_coeffs
        exact = [exact_fn(data, root, top, float(x)) for x in xs]
        kappa = [mp.mpf(k) for k in row.kappa(params, "oracle_validated", top)]
    for n in (0, 1, 2, 10, 20, 40):
        new = solve(variant, data, params.tau, params.beta, n, xs)
        new_vals, new_flags = new.values(n), new.flagged(n)
        for k, x in enumerate(xs):
            ref_series = eval_fn(variant, ref[k][: n + 1], params, float(x))
            ref_val, ref_flag = ref_series.values(n)[0], ref_series.flagged(n)[0]
            agree = abs(new_vals[k] - ref_val) <= floor + 1e-2 * abs(ref_val - exact_vals[k])
            if agree and new_flags[k] == ref_flag:
                continue
            assert exact is not None, (n, x, new_vals[k], ref_val, new_flags[k], ref_flag)
            terms = np.array([float(kj * cj) for kj, cj in zip(kappa[: n + 1], exact[k])])
            exact_series = series_terms(terms, np.ones((n + 1, 1)), None)
            sum_n = float(mp.fsum(kj * cj for kj, cj in zip(kappa[: exact_series.rows(n)], exact[k])))
            assert abs(new_vals[k] - sum_n) <= 2.0 * abs(ref_val - sum_n) + floor, (n, x, new_vals[k], ref_val, sum_n)
            if new_flags[k] != ref_flag:
                assert new_flags[k] == exact_series.flagged(n)[0], (n, x)


# --- the identities ----------------------------------------------------------------

@pytest.mark.parametrize("t, a, b", [(0.3, 0.5, 1.2), (1.0, 2.0, 0.7), (2.5, 1.1, 1.1), (6.0, 3.0, 2.5), (0.7, 0.0, 4.0)])
def test_neumann_addition_theorem_for_i0(t, a, b):
    # (1/pi) int_0^pi I0(2t sqrt(a^2 + b^2 - 2ab cos phi)) dphi = I0(2ta) I0(2tb),
    # both sides scaled by e^{-2t(a+b)}; the I0 twin of references.j0_product_check
    def integrand(phi):
        rho = np.sqrt(np.maximum(a * a + b * b - 2.0 * a * b * np.cos(phi), 0.0))
        return np.exp(2.0 * t * (rho - a - b)) * bessel_i0_scaled(2.0 * t * rho) / math.pi

    with quad_settings(REL_TOL=1e-13):
        lhs, _ = integrate(integrand, 0.0, math.pi)
    rhs = float(bessel_i0_scaled(2.0 * t * a) * bessel_i0_scaled(2.0 * t * b))
    assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("variant", C_VARIANTS)
def test_center_coefficients_are_the_sibling_moments(variant):
    # at the centre the shift vanishes: the line C coefficients are the
    # even plain moments of the A sibling, the polar ones pi times its moments
    _, _, _, coeffs_fn = _solver(variant)
    data, params, _, _, _ = _case(variant, "mix")
    n = 12
    center = coeffs_fn(variant, data, params, n, 0.0)
    if VARIANTS[variant].geometry == "line":
        np.testing.assert_array_equal(center, coeffs_fn(SIBLING[variant], data, params, 2 * n)[::2])
        return
    # the plane's pass runs in extended precision: pi times those moments
    # exactly, and pi times the sibling's float64 moments to the quadrature's
    # floor (32 eps int|f|, which exceeds 1e-7 |M_j| where the moments cancel)
    root = VARIANTS[variant].moment_root(params)
    extended = sp._w_radial_moments(data, root, n, dtype=np.longdouble)
    np.testing.assert_array_equal(center, (math.pi * extended).astype(float))
    np.testing.assert_allclose(center, math.pi * coeffs_fn(SIBLING[variant], data, params, n), rtol=1e-6)


@pytest.mark.parametrize("variant", C_VARIANTS)
def test_grid_coefficients_are_the_pointwise_ones(variant):
    # an array of points gives one column per point, bit for bit the scalar
    # call: a point's coefficients do not depend on the rest of the grid
    _, _, _, coeffs_fn = _solver(variant)
    data, params, _, _, xs = _case(variant, "sampled")
    n = 20
    grid = coeffs_fn(variant, data, params, n, xs)
    assert grid.shape == (n + 1, xs.size)
    for k, x in enumerate(xs):
        np.testing.assert_array_equal(grid[:, k], coeffs_fn(variant, data, params, n, float(x)))


# --- cost ------------------------------------------------------------------------

@pytest.mark.parametrize("variant", C_VARIANTS)
def test_one_closed_form_pass_per_grid_or_lattice_group(monkeypatch, variant):
    # a C grid solve takes as many moment rows per pass as its A sibling
    # (line: the 2N+1 moments it takes at order 2N), whatever the grid, in
    # closed-form passes of its sampled data (no quadrature): the plane one
    # per grid, the line one per group of lattice centres, the seven
    # points' centres, at most one per 12 R / sqrt(N) of the grid's extent,
    # sharing one Hermite batch of 2N+3 rows over the m nodes widened by
    # the centres' span
    module, solve, _, _ = _solver(variant)
    line = VARIANTS[variant].geometry == "line"
    quadratures, closed_forms = [], []

    def counting(*args, **kwargs):
        quadratures.append(args)
        return integrate_vec(*args, **kwargs)

    def closed_form(data, root, n, center=0.0, weighted=False, original=Sampled1D.hermite_moments):
        closed_forms.append({n + 1})
        return original(data, root, n, center, weighted)

    def radial_closed_form(data, root, n, dtype=float, original=Sampled1D.radial_moments):
        closed_forms.append({n + 1})
        return original(data, root, n, dtype)

    monkeypatch.setattr(module, "integrate_vec", counting)
    monkeypatch.setattr(Sampled1D, "hermite_moments", closed_form)
    monkeypatch.setattr(Sampled1D, "radial_moments", radial_closed_form)
    data, params, _, _, xs = _case(variant, "sampled")
    n = 12

    def count(name, grid, order=n):
        quadratures.clear()
        closed_forms.clear()
        solve(name, data, params.tau, params.beta, order, grid)
        assert quadratures == []
        return len(closed_forms), set().union(*closed_forms)

    batches = []

    def batch(order, z, *args, original=profiles.hermite_batch, **kwargs):
        batches.append((order + 1) * np.size(z))
        return original(order, z, *args, **kwargs)

    monkeypatch.setattr(profiles, "hermite_batch", batch)
    one, seven = count(variant, xs[:1]), count(variant, xs[:7])
    sibling = count(SIBLING[variant], xs[:1], 2 * n if line else n)
    assert one == (1, sibling[1])
    assert seven[1] == sibling[1]
    if not line:
        assert seven[0] == 1
        return
    root = VARIANTS[variant].moment_root(params)
    centres = np.unique(sc._centres(xs[:7], root, n, data))
    assert 1 < centres.size <= np.ptp(xs[:7]) / (12.0 * root / math.sqrt(n)) + 1
    batches.clear()
    assert count(variant, xs[:7]) == (1, sibling[1])
    assert len(batches) == 1  # one group, and the data's m < BLOCK_NODES nodes one block
    assert sum(batches) <= (2 * n + 3) * (data.n_nodes + np.ptp(centres) / data.spacing + 1e-9)


@pytest.mark.parametrize("variant", ["CD-C", "CI-C"])
def test_analytic_line_data_takes_its_moments_about_each_point(monkeypatch, variant):
    # Gaussians and mixtures answer point_moments: each point is its own
    # centre, its coefficients the even rows of the moments about it, bit
    # for bit, with no lattice, binomial table or recombination
    _, _, _, coeffs_fn = _solver(variant)
    data, params, _, _, xs = _case(variant, "mix")
    root, n = VARIANTS[variant].moment_root(params), 12
    for name in ("recombine", "_binomials", "_centres"):
        monkeypatch.setattr(sc, name, lambda *a, _name=name, **k: pytest.fail(f"{_name} called"))
    grid = coeffs_fn(variant, data, params, n, xs)
    np.testing.assert_array_equal(grid, data.point_moments(root, 2 * n, xs)[:, ::2].T)
    np.testing.assert_array_equal(coeffs_fn(variant, data, params, n, float(xs[1])), grid[:, 1])


def test_line_centres_stay_within_the_measured_offset():
    # each point's centre is its own (x = 0 is its own centre) and lies
    # within 6 R / sqrt(N) of it; order 0 needs no shift
    xs = np.linspace(-9.0, 9.0, 181)
    for n in (1, 8, 40, 80):
        centres = sc._centres(xs, 1.3, n)
        assert np.all(np.abs(xs - centres) <= 6.0 * 1.3 / math.sqrt(n) + 1e-12)
        np.testing.assert_array_equal(sc._centres(xs[:1], 1.3, n), centres[:1])
        assert sc._centres(np.zeros(1), 1.3, n)[0] == 0.0
    np.testing.assert_array_equal(sc._centres(xs, 1.3, 0), 0.0)


@pytest.mark.parametrize("nodes", [481, 7])
def test_sampled_centres_are_whole_spacings_apart(nodes):
    # sampled data snaps the lattice to its nodes: on 481 nodes over [-12,
    # 12] (h = 0.05) the centres are whole multiples p h, s spacings apart
    # (s h the largest no wider than 12 R / sqrt(N)), which the shared
    # Hermite batch needs; 7 nodes (h = 4) are coarser than that step at
    # N = 40 and 80, which then becomes h / ceil(h / step).  Either way a
    # centre stays within 6 R / sqrt(N) of its point, depends on the point
    # alone, and x = 0 is its own centre
    data = Sampled1D.from_function(LINE_MIX, -12.0, 12.0, nodes)
    h, root = data.spacing, 1.1
    xs = np.linspace(-9.0, 9.0, 181)
    for n in (1, 8, 40, 80):
        step = 12.0 * root / math.sqrt(n)
        centres = sc._centres(xs, root, n, data)
        assert np.all(np.abs(xs - centres) <= 6.0 * root / math.sqrt(n) + 1e-12)
        np.testing.assert_array_equal(sc._centres(xs[:1], root, n, data), centres[:1])
        assert sc._centres(np.zeros(1), root, n, data)[0] == 0.0
        if step >= h:
            p = np.rint(centres / h)
            np.testing.assert_array_equal(p * h, centres)
            assert np.all(np.diff(np.unique(p)) == math.floor(step / h))
        else:
            fine = h / math.ceil(h / step)
            np.testing.assert_array_equal(np.rint(centres / fine) * fine, centres)


def test_a_lattice_group_that_overflows_loses_only_its_far_centre():
    # centres 0 and 2045 lie 4090 spacings apart on 41 nodes over [-10, 10]:
    # one group, one batch, whose far moments overflow float64 at order 80;
    # the group retries its centres one at a time, and the near centre keeps
    # the bits it has alone
    data = Sampled1D.from_function(Gaussian(1.0), -10.0, 10.0, 41)
    rows = data.lattice_moments(0.27, 80, np.array([0.0, 2045.0]))
    assert np.all(np.isfinite(rows[0])) and np.all(np.isnan(rows[1]))
    np.testing.assert_array_equal(rows[0], data.lattice_moments(0.27, 80, np.zeros(1))[0])


def test_a_far_point_of_a_sample_file_exits_3_naming_it(tmp_path, capsys):
    # x = 10000 lies 200 000 spacings from the centre of x = 0: its centre
    # takes a batch of its own over the file's 481 nodes (a group spans at
    # most BLOCK_NODES spacings), and only its own series overflows; a
    # single batch spanning both centres would hold about 300 MB, and its
    # overflow would fail the whole grid
    path = tmp_path / "f_mix.csv"
    nodes = np.linspace(-12.0, 12.0, 481)
    path.write_text("".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(nodes, LINE_MIX(nodes))))
    argv = ["forward", "--variant", "CD-C", "--tau", "0.5", "--beta", "auto", "--input", str(path),
            "--eval-grid", "0:10000:2"]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "CD-C at x = 10000:" in capsys.readouterr().err
    assert elapsed < 1.0
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << 20)


@pytest.mark.parametrize("variant", C_VARIANTS)
def test_overflow_is_a_clean_exit_3(variant, capsys):
    # the binomial weights overflow far out; the solve still exits 3 naming
    # the point, and numpy warns about nothing
    polar = VARIANTS[variant].geometry == "polar"
    argv = ["forward" if VARIANTS[variant].direct else "inverse", "--variant", variant, "--tau", "0.5",
            "--beta", "1", "--profile", "gaussian:a=1", "--eval-grid", "0:10000:2"]
    if polar:
        argv += ["--geometry", "polar"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 3
    assert f"{variant} at {'r' if polar else 'x'} = 10000:" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("variant", ["CD-C", "CI-C"])
def test_line_c_orders_past_float64_fail_fast_naming_the_order(variant, capsys):
    # C(2n, n) exceeds the largest double from n = 515; the table used to be
    # built in big integers first (16.5 s at order 800) and then fail with
    # "int too large to convert to float"
    argv = ["forward" if VARIANTS[variant].direct else "inverse", "--variant", variant, "--tau", "0.5",
            "--beta", "1", "--order", "515", "--profile", "gaussian:a=1", "--eval-grid", "0:1:2"]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "order 515" in capsys.readouterr().err
    assert elapsed < 1.0


def test_line_binomials_are_the_exact_ones():
    # the recurrence of each row against math.comb at the largest order
    # whose weights fit in float64
    n = 514
    binom, _ = sc._binomials(n)
    ref = np.array([[math.comb(2 * j, d) for d in range(2 * n + 1)] for j in range(n + 1)], dtype=float)
    np.testing.assert_array_equal(binom, ref)


def test_plane_binomials_are_the_exact_ones():
    # the integer recurrence of each row against products of math.comb
    for n in (0, 1, 40, 120):
        weights, _ = sp._binomials(n)
        ref = np.array([[math.comb(2 * j, 2 * d) * math.comb(2 * d, d) for d in range(n + 1)] for j in range(n + 1)],
                       dtype=np.longdouble)
        np.testing.assert_array_equal(weights, math.pi * ref)


# --- no flags from rounding noise: the closed-form moments of analytic data -----

def cli_rows(capsys, argv):
    """The points, values and divergence flags a solve prints."""
    capsys.readouterr()
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
    return (np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]),
            np.array([r[2] == "1" for r in rows]))


def inverse_truth(components, tau):
    """The line data whose evolution to tau is the mixture of (a, centre, amp)."""
    return Mixture(tuple(Gaussian(a - tau, c, amp * math.sqrt(a / (a - tau))) for a, c, amp in components))


NOISE_MIX = ((1.2, -0.5, 0.8660254037844386), (1.7, 0.7, 0.6352396490811211))


def test_the_analytic_ci_c_mixture_flags_no_rounding_noise(capsys):
    # the adaptive moments sat at their 32 eps int|f| floor at order 2N = 80,
    # and the scan read that noise as growth at 33 of these 121 points (x =
    # 2.4 among them); the closed-form moments leave no flag, as the exact
    # terms (60 digits) do, and each value is the exact order-40 sum
    pytest.importorskip("mpmath")
    spec = "mixture:[" + "; ".join(f"a={a},center={c},amp={amp!r}" for a, c, amp in NOISE_MIX) + "]"
    xs, values, flags = cli_rows(capsys, ["inverse", "--variant", "CI-C", "--tau", "0.3", "--beta", "auto",
                                          "--order", "40", "--profile", spec, "--eval-grid=-3:3:121"])
    assert xs.size == 121 and not flags.any()
    u = Mixture(tuple(Gaussian(a, c, amp) for a, c, amp in NOISE_MIX))
    params = KernelParams(0.3, default_beta("CI-C", estimate_scale_line(u), 0.3))
    root, n = VARIANTS["CI-C"].moment_root(params), 40
    kappa = [mp.mpf(k) for k in VARIANTS["CI-C"].kappa(params, "oracle_validated", n)]
    for x, value in zip(xs, values):
        exact = exact_line_coeffs(u, root, n, float(x))
        terms = series_terms(np.array([float(k * c) for k, c in zip(kappa, exact)]), np.ones((n + 1, 1)), None)
        assert not terms.flagged(n)[0]
        sum_n = float(mp.fsum(k * c for k, c in zip(kappa[: terms.rows(n)], exact)))
        # measured: at most 2.1e-15 (and 2.6e-15 from the truth)
        assert abs(value - sum_n) <= 1e-14, (x, value, sum_n)
    np.testing.assert_allclose(values, inverse_truth(NOISE_MIX, 0.3)(xs), rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "argv, truth",
    [
        (["inverse", "--variant", "CI-C", "--tau", "0.3", "--beta", "auto", "--order", "40", "--eval-grid=-4:4:161",
          "--profile", "mixture:[a=1.2,center=-0.5,amp=1; a=1.7,center=0.7,amp=0.7]"],
         inverse_truth(((1.2, -0.5, 1.0), (1.7, 0.7, 0.7)), 0.3)),
        (["inverse", "--geometry", "polar", "--variant", "PI-C", "--tau", "0.3", "--beta", "auto", "--order", "40",
          "--eval-grid=0:4:81", "--profile", "gaussian:a=1.3"],
         Gaussian(1.0, 0.0, 1.3)),  # e^{-r^2/4} evolves to (1/1.3) e^{-r^2/(4 1.3)}
    ],
    ids=["CI-C", "PI-C"],
)
def test_the_order_40_c_inverses_of_analytic_data_flag_nothing(capsys, argv, truth):
    # 50 (CI-C) and 38 (PI-C) flagged rows with the adaptive moments, and
    # errors up to 1.4e-6 and 1.3e-6 (measured: now at most 9.2e-14 and 4.4e-15)
    xs, values, flags = cli_rows(capsys, argv)
    assert not flags.any()
    assert np.max(np.abs(values - truth(xs))) <= 1e-12
