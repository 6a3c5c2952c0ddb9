import math
from dataclasses import replace

import numpy as np
import pytest

from heatseries.kernels import evolve_line, forward_line
from heatseries.profiles import Gaussian, Mixture, Sampled1D
from heatseries import beta_rule, default_beta
from heatseries.series_cartesian import (
    _fd_derivs_at_zero,
    cd_coeffs,
    cd_eval,
    ci_classical,
    ci_coeffs,
    ci_eval,
    solve_grid_line,
)
from heatseries.specfun import KernelParams
from heatseries.variants import VARIANTS
from references import hermite_moment

SQRT_PI = math.sqrt(math.pi)


def value(series):
    """The full-order sum at the first point of an evaluation."""
    return float(series.values(series.order)[0])


def flagged(series):
    """Whether the full-order sum is flagged at the first point."""
    return bool(series.flagged(series.order)[0])


def hermite_moment_scaled(j, root, a, amp=1.0):
    # int H_j(xi/(2 root)) amp e^{-xi^2/(4a)} dxi = amp 2 root M_j(root^2/a)
    return amp * 2.0 * root * hermite_moment(j, root * root / a)


# --- coefficients ---------------------------------------------------------------

def test_cd_a_coeffs_match_closed_form():
    params = KernelParams(tau=0.5, beta=0.7)
    g = Gaussian(width_a=1.0)
    coeffs = cd_coeffs("CD-A", g, params, 8)
    for j in range(9):
        expected = hermite_moment_scaled(j, math.sqrt(params.beta), 1.0)
        assert coeffs[j] == pytest.approx(expected, rel=1e-9, abs=1e-9 * abs(coeffs[0]))


def test_cd_a_mass_and_exact_truncation():
    params = KernelParams(tau=0.5, beta=1.0)  # beta = a
    g = Gaussian(width_a=1.0)
    coeffs = cd_coeffs("CD-A", g, params, 10)
    assert coeffs[0] == pytest.approx(2.0 * math.sqrt(math.pi * 1.0), rel=1e-10)
    assert np.all(np.abs(coeffs[1:]) <= 1e-10 * abs(coeffs[0]))


def test_cd_b_coeffs_vanish_when_scale_matches():
    # moments at sqrt(tau+beta): c = 1 exactly when tau+beta = a
    params = KernelParams(tau=0.5, beta=0.5)
    g = Gaussian(width_a=1.0)
    coeffs = cd_coeffs("CD-B", g, params, 6)
    assert abs(coeffs[2]) <= 1e-10 * abs(coeffs[0])


def test_ci_a_coeffs_vanish_on_evolved_gaussian():
    # u = evolution of Gaussian(a=1) by tau=0.5 has width 1.5; scale
    # sqrt(tau+beta) with beta=1 matches it
    params = KernelParams(tau=0.5, beta=1.0)
    u = evolve_line(Gaussian(width_a=1.0), 0.5)
    coeffs = ci_coeffs("CI-A", u, params, 8)
    assert np.all(np.abs(coeffs[2:]) <= 1e-10 * abs(coeffs[0]))


def test_ci_b_weighted_moment_closed_form():
    # j=0: int e^{-xi^2/(4 beta)}/(2 sqrt(pi beta)) u dxi for u gaussian
    params = KernelParams(tau=0.3, beta=0.8)
    u = evolve_line(Gaussian(width_a=1.0), 0.3)  # width 1.3, amp sqrt(1/1.3)
    coeffs = ci_coeffs("CI-B", u, params, 4)
    au, amp = 1.3, math.sqrt(1.0 / 1.3)
    # gaussian product: amp/(2 sqrt(pi b)) * sqrt(pi/(1/(4b)+1/(4 au))) with b = beta
    b = params.beta
    expected = amp / (2.0 * math.sqrt(math.pi * b)) * math.sqrt(math.pi / (0.25 / b + 0.25 / au))
    assert coeffs[0] == pytest.approx(expected, rel=1e-10)


def test_coeff_additivity_in_data():
    params = KernelParams(tau=0.4, beta=0.9)
    g1 = Gaussian(width_a=0.8, center=-0.4)
    g2 = Gaussian(width_a=1.3, center=0.6, amplitude=0.5)
    both = Mixture((g1, g2))
    for variant, fn in (("CD-A", cd_coeffs), ("CI-A", ci_coeffs)):
        c1 = fn(variant, g1, params, 6)
        c2 = fn(variant, g2, params, 6)
        c = fn(variant, both, params, 6)
        np.testing.assert_allclose(c, c1 + c2, rtol=1e-9, atol=1e-12 * np.abs(c).max())


# --- direct evaluation ------------------------------------------------------------

def test_cd_a_order_zero_value_and_oracle_gap():
    # N=0 term equals 1.0 at x=0 for a=1, tau=beta=0.5; the oracle value is
    # sqrt(1/1.5): the gap closes only with increasing N
    params = KernelParams(tau=0.5, beta=0.5)
    g = Gaussian(width_a=1.0)
    coeffs = cd_coeffs("CD-A", g, params, 0)
    val = value(cd_eval("CD-A", coeffs, params, 0.0))
    assert val == pytest.approx(1.0, rel=1e-10)
    oracle = forward_line(g, 0.5, 0.0)
    assert oracle == pytest.approx(math.sqrt(1.0 / 1.5), rel=1e-10)
    assert abs(val - oracle) > 0.1


@pytest.mark.parametrize("variant", ["CD-A", "CD-B", "CD-C"])
def test_direct_series_match_oracle_on_gaussian(variant):
    g = Gaussian(width_a=1.0)
    tau = 0.5
    params = KernelParams(tau=tau, beta=default_beta(variant, 1.0, tau))
    xs = np.linspace(-3.0, 3.0, 9)
    series = solve_grid_line(variant, g, params.tau, params.beta, 40, xs)
    oracle = forward_line(g, tau, xs)
    scale = float(np.max(np.abs(oracle)))
    np.testing.assert_allclose(series.values(40), oracle, rtol=0.0, atol=1e-6 * scale)
    assert not np.any(series.flagged(40))


def test_direct_series_even_profile_parity():
    g = Gaussian(width_a=0.8)
    params = KernelParams(tau=0.3, beta=0.8)
    coeffs = cd_coeffs("CD-A", g, params, 20)
    plus = value(cd_eval("CD-A", coeffs, params, 1.2))
    minus = value(cd_eval("CD-A", coeffs, params, -1.2))
    assert plus == pytest.approx(minus, rel=1e-12)


# --- inverse evaluation ------------------------------------------------------------

def test_ci_a_round_trip_reconstruction():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=beta_rule(1.3, tau))  # evolved scale 1.3
    xs = np.linspace(-3.0, 3.0, 25)
    vals = solve_grid_line("CI-A", u, params.tau, params.beta, 40, xs).values(40)
    truth = f(xs)
    rel_l2 = np.linalg.norm(vals - truth) / np.linalg.norm(truth)
    assert rel_l2 <= 1e-3


def test_ci_b_round_trip_reconstruction():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=0.25)  # CI-B converges for any beta > 0
    xs = np.linspace(-2.0, 2.0, 9)
    vals = solve_grid_line("CI-B", u, params.tau, params.beta, 60, xs).values(60)
    np.testing.assert_allclose(vals, f(xs), rtol=0.0, atol=2e-6)


def test_ci_c_round_trip_reconstruction():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=1.0)
    xs = np.linspace(-2.0, 2.0, 7)
    vals = solve_grid_line("CI-C", u, params.tau, params.beta, 40, xs).values(40)
    np.testing.assert_allclose(vals, f(xs), rtol=0.0, atol=1e-8)


def test_inverse_of_zero_data_is_zero():
    params = KernelParams(tau=0.3, beta=1.0)
    zero = Sampled1D(-4.0, 4.0, np.zeros(81))
    for variant in ("CI-A", "CI-B"):
        coeffs = ci_coeffs(variant, zero, params, 10)
        assert value(ci_eval(variant, coeffs, params, 0.7)) == 0.0


def test_ci_a_small_tau_is_near_self_expansion():
    # as tau -> 0 the reconstruction degenerates to re-expanding u itself
    u = Gaussian(width_a=0.9)
    params = KernelParams(tau=1e-6, beta=0.9)
    xs = np.array([-1.0, 0.0, 0.5, 1.5])
    vals = solve_grid_line("CI-A", u, params.tau, params.beta, 40, xs).values(40)
    np.testing.assert_allclose(vals, u(xs), rtol=0.0, atol=1e-5)


def test_structural_symmetry_cd_a_ci_a():
    # the CI-A evaluator is the CD-A evaluator with the two scale roles
    # exchanged; machine-precision identity on a shared coefficient list
    coeffs = np.array([0.9, -0.3, 0.08, 0.21, -0.05])
    params = KernelParams(tau=0.4, beta=0.6)
    xs = np.array([-1.1, 0.0, 0.7, 2.2])
    ci_vals = ci_eval("CI-A", coeffs, params, xs).values(coeffs.size - 1)
    s = params.shifted
    cd_a = VARIANTS["CD-A"]
    swap = {"beta": "tau+beta", "tau+beta": "beta"}
    swapped = replace(cd_a, scales=tuple(swap[t] for t in cd_a.scales))
    # the public CD-A evaluator with CD-A's row swapped in the table
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(VARIANTS, "CD-A", swapped)
        direct_core = cd_eval("CD-A", coeffs, params, xs)
    np.testing.assert_array_equal(ci_vals, direct_core.values(coeffs.size - 1))
    # and the swap really is CD-A's scale set with beta <-> tau+beta
    assert swapped.scales == VARIANTS["CI-A"].scales
    assert cd_a.times(params) == (s, params.beta, s, s)
    assert VARIANTS["CI-A"].times(params) == (params.beta, s, params.beta, params.beta)


# --- errata guards ------------------------------------------------------------------

def test_cd_c_paper_literal_fails_by_sqrt_pi():
    # at the exact-truncation configuration the published constant set is off
    # by exactly sqrt(pi) at every truncation order
    g = Gaussian(width_a=1.0)
    params = KernelParams(tau=0.5, beta=1.0)
    coeffs = cd_coeffs("CD-C", g, params, 2, x_center=0.0)
    oracle = forward_line(g, 0.5, 0.0)
    val_ok = value(cd_eval("CD-C", coeffs, params, 0.0))
    val_lit = value(cd_eval("CD-C", coeffs, params, 0.0, constants_mode="paper_literal"))
    assert val_ok == pytest.approx(oracle, rel=1e-9)
    assert val_lit / val_ok == pytest.approx(SQRT_PI, rel=1e-12)


def test_ci_c_paper_literal_first_order_term_ratio_is_quarter():
    # the published CI-C coefficient divides by 2^j (2j)! instead of j!; at
    # j = 1 the term ratio is exactly 1/4 (the j = 0 terms coincide)
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=1.0)
    x = 1.0
    coeffs = ci_coeffs("CI-C", u, params, 1, x_center=x)
    s0_ok = value(ci_eval("CI-C", coeffs[:1], params, x))
    s1_ok = value(ci_eval("CI-C", coeffs, params, x))
    s0_lit = value(ci_eval("CI-C", coeffs[:1], params, x, constants_mode="paper_literal"))
    s1_lit = value(ci_eval("CI-C", coeffs, params, x, constants_mode="paper_literal"))
    assert s0_lit == pytest.approx(s0_ok, rel=1e-13)
    assert (s1_lit - s0_lit) / (s1_ok - s0_ok) == pytest.approx(0.25, rel=1e-12)


def test_ci_c_paper_literal_converges_to_wrong_limit():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=1.0)
    x = 1.0
    coeffs = ci_coeffs("CI-C", u, params, 40, x_center=x)
    val_lit = value(ci_eval("CI-C", coeffs, params, x, constants_mode="paper_literal"))
    # closed form of the published series at the matched scale: cos(x/sqrt(8a))
    assert val_lit == pytest.approx(math.cos(x / math.sqrt(8.0)), rel=1e-8)
    assert abs(val_lit - f(x)) > 0.1


def test_unknown_mode_and_variant_rejected():
    params = KernelParams(tau=0.3, beta=1.0)
    with pytest.raises(ValueError):
        cd_eval("CD-A", np.ones(3), params, 0.0, constants_mode="nope")
    with pytest.raises(ValueError):
        cd_coeffs("CD-X", Gaussian(width_a=1.0), params, 3)


# --- divergence diagnostics -----------------------------------------------------------

def test_cd_b_divergence_flagged_outside_its_region():
    # CD-B's terms grow geometrically once |a - tau - beta| > 2 tau + beta
    g = Gaussian(width_a=4.0)
    params = KernelParams(tau=0.1, beta=0.1)
    coeffs = cd_coeffs("CD-B", g, params, 40)
    series = cd_eval("CD-B", coeffs, params, 0.5)
    assert flagged(series)
    assert series.growth[0] >= 4


def test_convergent_case_not_flagged():
    g = Gaussian(width_a=1.0)
    params = KernelParams(tau=0.5, beta=0.5)
    coeffs = cd_coeffs("CD-B", g, params, 40)
    series = cd_eval("CD-B", coeffs, params, 0.5)
    assert not flagged(series)
    assert series.fires[0] == series.terms.shape[0]  # no growth run fires at any order


@pytest.mark.parametrize("variant, coeffs_fn, eval_fn", [("CD-C", cd_coeffs, cd_eval), ("CI-C", ci_coeffs, ci_eval)])
def test_c_grid_overflow_names_the_first_point_that_overflows_alone(variant, coeffs_fn, eval_fn):
    # the grid is evaluated as one matrix; its error names the first point
    # whose own evaluation overflows, in the words of that evaluation, which
    # names its point itself
    g, params = Gaussian(width_a=1.0), KernelParams(tau=0.5, beta=0.7)
    xs = np.array([0.0, 20.0, 100.0, -60.0, 60.0, -100.0])
    coeffs = coeffs_fn(variant, g, params, 80, xs)
    first = None
    for i, x in enumerate(xs):
        try:
            value(eval_fn(variant, coeffs[:, i], params, float(x)))
        except OverflowError as exc:
            first = str(exc)
            assert first == f"{variant} at x = {x:g}: series terms overflowed double precision"
            break
    assert first is not None and not first.startswith(f"{variant} at x = 0:")
    with pytest.raises(OverflowError) as info:
        solve_grid_line(variant, g, params.tau, params.beta, 80, xs)
    assert str(info.value) == first


# --- classical baseline ---------------------------------------------------------------

def test_ci_classical_even_data_odd_terms_vanish():
    u = Gaussian(width_a=1.3)  # even about 0
    series = ci_classical(u, 0.3, 9, 0.8)
    # odd-index magnitudes are exactly zero
    assert np.all(np.abs(series.terms[: series.rows(9), 0])[1::2] == 0.0)


def test_ci_classical_reconstructs_gaussian_with_exact_derivatives():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    val = value(ci_classical(u, tau, 30, 0.0))
    assert val == pytest.approx(1.0, abs=1e-4)
    # off-center too, inside the convergence region
    val1 = value(ci_classical(u, tau, 40, 1.0))
    assert val1 == pytest.approx(float(f(1.0)), abs=1e-4)


def test_ci_classical_noise_amplification_ordering():
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    data = Sampled1D.from_function(u, -8.0, 8.0, 401)
    noisy = data.with_noise(1e-3, np.random.default_rng(20240811))
    xs = np.linspace(-3.0, 3.0, 61)
    truth = f(xs)

    def err(n):
        vals = ci_classical(noisy, tau, n, xs).values(n)
        return np.linalg.norm(vals - truth) / np.linalg.norm(truth)

    assert err(20) >= 10.0 * err(6)


def test_ci_classical_rejects_missing_center_node():
    data = Sampled1D(0.5, 4.5, np.ones(5))
    with pytest.raises(ValueError):
        ci_classical(data, 0.3, 4, 0.0)


@pytest.mark.parametrize("tau", [float("inf"), float("nan"), 0.0, -0.3])
def test_ci_classical_rejects_a_time_that_is_not_positive_and_finite(tau):
    # as KernelParams: a ValueError before any term, not a RuntimeWarning
    # (an error under the suite's filterwarnings) or an overflow
    u = evolve_line(Gaussian(width_a=1.0), 0.3)
    with pytest.raises(ValueError, match="^tau must be positive and finite, got"):
        ci_classical(u, tau, 4, np.array([0.5]))
    with pytest.raises(ValueError, match="^tau must be positive and finite, got"):
        solve_grid_line("CI-classical", u, tau, 0.0, 4, np.array([0.5]))


@pytest.mark.parametrize("beta", [1.0, 1e-300, -1.0, float("nan")])
def test_ci_classical_takes_no_shift(beta):
    u = evolve_line(Gaussian(width_a=1.0), 0.3)
    with pytest.raises(ValueError, match="^CI-classical has no shift parameter"):
        solve_grid_line("CI-classical", u, 0.3, beta, 4, np.array([0.5]))


def test_ci_classical_stencil_exceeding_grid_is_explicit():
    data = Sampled1D(-0.2, 0.2, np.ones(5))
    with pytest.raises(ValueError):
        ci_classical(data, 0.3, 8, 0.0)


@pytest.mark.parametrize("lo, nodes", [(-0.25, 5), (-0.125, 6), (-0.5, 6), (0.0, 4)])
def test_fd_stencil_wider_than_the_grid_names_the_first_order_it_misses(lo, nodes):
    # orders 2w and 2w+1 reach w and w+1 nodes to each side of x = 0, where w
    # nodes lie between it and the nearer end of the grid
    h = 0.125
    data = Sampled1D(lo, lo + h * (nodes - 1), np.linspace(1.0, 2.0, nodes))
    zero = round(-lo / h)
    reach = min(zero, nodes - 1 - zero)
    assert np.all(np.isfinite(_fd_derivs_at_zero(data, 2 * reach)))
    with pytest.raises(ValueError, match=f"^stencil for order {2 * reach + 1} exceeds the grid$"):
        _fd_derivs_at_zero(data, 2 * reach + 1)
    with pytest.raises(ValueError, match=f"^stencil for order {2 * reach + 1} exceeds the grid$"):
        ci_classical(data, 0.3, 2 * reach + 1, 0.0)


@pytest.mark.parametrize("spacing, changed, order", [
    (1e-10, {5: 1e300}, 2),  # a second difference beyond the largest double
    (1e-90, {}, 4),          # h^4 underflows to zero: 0/0 on flat data
    (1e-90, {7: 0.5}, 4),    # and a nonzero difference over zero
])
def test_fd_derivatives_that_overflow_raise_without_a_warning(spacing, changed, order):
    values = np.ones(11)
    for i, v in changed.items():
        values[i] = v
    data = Sampled1D(-5 * spacing, 5 * spacing, values)
    with pytest.raises(OverflowError, match="^finite-difference derivatives overflowed$"):
        _fd_derivs_at_zero(data, order)
    with pytest.raises(OverflowError, match="^finite-difference derivatives overflowed$"):
        ci_classical(data, 0.3, order, 0.0)


# --- beta rule -------------------------------------------------------------------------

def test_beta_rule_values():
    assert beta_rule(1.0, 0.3) == pytest.approx(0.7)
    assert beta_rule(0.5, 1.0) == pytest.approx(0.5)  # floor tau/2
    with pytest.raises(ValueError):
        beta_rule(0.0, 0.3)
    with pytest.raises(ValueError):
        beta_rule(float("nan"), 0.3)


def test_beta_rule_aligns_shifted_scale_with_data():
    # with beta = a - tau the sqrt(tau+beta) moment scale equals the data
    # scale, so the CD-B moments vanish beyond order zero
    g = Gaussian(width_a=1.0)
    tau = 0.3
    params = KernelParams(tau=tau, beta=beta_rule(1.0, tau))
    coeffs = cd_coeffs("CD-B", g, params, 6)
    assert np.all(np.abs(coeffs[1:]) <= 1e-10 * abs(coeffs[0]))
    # mixtures give a finite positive beta
    mix = Mixture((Gaussian(width_a=0.9, center=-0.5), Gaussian(width_a=1.4, center=0.7, amplitude=0.7)))
    from heatseries.profiles import estimate_scale_line

    b = beta_rule(estimate_scale_line(mix), tau)
    assert b > 0.0 and math.isfinite(b)


# --- properties ------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=15, deadline=None)
def test_coeffs_scale_linearly_with_amplitude(width, amp, center):
    params = KernelParams(tau=0.4, beta=0.9)
    base = Gaussian(width_a=width, center=center)
    scaled = Gaussian(width_a=width, center=center, amplitude=amp)
    c1 = cd_coeffs("CD-A", base, params, 5)
    c2 = cd_coeffs("CD-A", scaled, params, 5)
    np.testing.assert_allclose(c2, amp * c1, rtol=1e-12, atol=1e-13 * np.abs(c1).max())


def test_noiseless_round_trip_error_non_increasing():
    # with exact (analytic) data the truncation error of the inverse series
    # decreases monotonically in the order; no divergence is flagged
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=0.6)
    xs = np.linspace(-3.0, 3.0, 25)
    coeffs = ci_coeffs("CI-A", u, params, 44)
    errs = []
    for n in range(0, 45, 2):
        series = ci_eval("CI-A", coeffs[: n + 1], params, xs)
        vals = series.values(n)
        assert not np.any(series.flagged(n))
        errs.append(float(np.linalg.norm(vals - f(xs)) / np.linalg.norm(f(xs))))
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
