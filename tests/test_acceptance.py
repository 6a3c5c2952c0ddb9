"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS ...` line on success (visible with
pytest -s or in the captured output); a failure raises with the measured
numbers.  Run just this module via `pytest tests/test_acceptance.py -v`.
"""

import math

import numpy as np
import pytest

from heatseries.cli import main as cli_main
from heatseries.experiments import (
    StudyConfig,
    expected_audit_statuses,
    run_audit,
    run_noise_study,
)
from heatseries.kernels import (
    evolve_line,
    evolve_polar,
    forward_line,
    forward_polar,
)
from heatseries.profiles import Gaussian, Mixture
from heatseries.series_cartesian import (
    cd_coeffs,
    ci_coeffs,
    ci_eval,
    default_beta,
    solve_grid_line,
)
from heatseries.series_polar import pd_coeffs, pi_coeffs, solve_grid_polar
from heatseries.specfun import (
    KernelParams,
    bessel_i0,
    hermite_batch,
    w_poly_batch,
)
from references import integrate, j0_product_check, weber_integral_check, whole_line

LINE_MIX = Mixture(
    (
        Gaussian(width_a=0.9, center=-0.5, amplitude=1.0),
        Gaussian(width_a=1.4, center=0.7, amplitude=0.7),
    )
)
POLAR_MIX = Mixture(
    (Gaussian(width_a=0.9, amplitude=1.0), Gaussian(width_a=1.3, amplitude=0.8))
)


def report(num: int, detail: str):
    print(f"[criterion {num}] PASS {detail}")


# -------------------------------------------------------------------------------


def test_criterion_1_special_function_identities():
    worst_h = 0.0
    for t in (-1.0, -0.5, 0.25, 0.7, 1.0):
        for z in (-2.0, -0.7, 0.0, 1.3, 2.0):
            h = hermite_batch(40, z)
            w = np.empty(41)
            w[0] = 1.0
            for j in range(40):
                w[j + 1] = w[j] * t / (j + 1)
            worst_h = max(worst_h, abs(float(h @ w) - math.exp(2 * t * z - t * t)))
    assert worst_h <= 1e-10

    worst_w = 0.0
    for t in (0.25, 0.6, 1.0):
        for z in (0.0, 0.5, 1.2, 2.0):
            wvals = w_poly_batch(30, z)
            coeff = np.empty(31)
            coeff[0] = 1.0
            for j in range(30):
                coeff[j + 1] = coeff[j] * t * t / ((2 * j + 1) * (2 * j + 2))
            total = float(wvals @ coeff)
            worst_w = max(worst_w, abs(total - math.exp(-t * t) * bessel_i0(2 * t * z)))
    assert worst_w <= 1e-10

    for k in range(0, 15):
        assert hermite_batch(2 * k + 1, 0.0)[2 * k + 1] == 0.0

    # Bessel-operator eigenrelation at O(h^2)
    worst_ratio = 0.0
    for t in (0.3, 1.0):
        for z in (0.7, 1.9):
            resid = []
            for h in (2e-2, 1e-2):
                upp, mid, low = (bessel_i0(2 * t * (z + s)) for s in (h, 0.0, -h))
                lhs = (upp - 2 * mid + low) / h**2 + (upp - low) / (2 * h * z)
                resid.append(abs(lhs - (2 * t) ** 2 * mid))
            assert resid[0] <= 1e-3 * (2 * t) ** 2 * mid
            worst_ratio = max(worst_ratio, resid[1] / resid[0])
    assert worst_ratio <= 0.35  # ~0.25 for clean O(h^2)
    report(1, f"(hermite gf {worst_h:.1e}, w gf {worst_w:.1e}, O(h^2) ratio {worst_ratio:.2f})")


def test_criterion_2_kernel_identity_suite():
    worst = 0.0
    for t in (0.25, 1.0):
        for r in (0.0, 0.5, 1.5, 2.5):
            for xi in (0.0, 1.0, 2.0):
                lhs, rhs = weber_integral_check(r, xi, t)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-8

    worst_j = 0.0
    for lam in (0.5, 1.0, 3.0):
        for x, y in ((1.0, 1.0), (0.3, 2.0), (2.0, 1.2)):
            lhs, rhs = j0_product_check(lam, x, y)
            worst_j = max(worst_j, abs(lhs - rhs))
    assert worst_j <= 1e-8

    # semigroup on the line and radially
    xs = np.linspace(-3.0, 3.0, 13)
    mid = evolve_line(LINE_MIX, 0.2)
    semi = float(np.max(np.abs(forward_line(mid, 0.3, xs) - evolve_line(LINE_MIX, 0.5)(xs))))
    assert semi <= 1e-8
    rs = np.linspace(0.0, 3.0, 7)
    midp = evolve_polar(POLAR_MIX, 0.2)
    semip = float(np.max(np.abs(forward_polar(midp, 0.3, rs) - evolve_polar(POLAR_MIX, 0.5)(rs))))
    assert semip <= 1e-8

    # mass conservation on the line
    mass_f, _ = integrate(LINE_MIX, *whole_line(2.0))
    mass_u, _ = integrate(lambda x: forward_line(LINE_MIX, 0.5, x), *whole_line(3.0))
    assert abs(mass_u - mass_f) <= 1e-8 * abs(mass_f)
    report(2, f"(weber {worst:.1e}, j0-product {worst_j:.1e}, semigroup {max(semi, semip):.1e})")


def test_criterion_3_formula_audit():
    ok = run_audit(StudyConfig(study_kind="audit", constants_mode="oracle_validated"))
    statuses = {r.variant: r.status for r in ok.rows}
    assert statuses == expected_audit_statuses("oracle_validated")

    lit = run_audit(StudyConfig(study_kind="audit", constants_mode="paper_literal"))
    lit_statuses = {r.variant: r.status for r in lit.rows}
    assert lit_statuses["CD-C"] == "fail"
    assert lit_statuses["CI-C"] == "fail"
    # the errata guard: the failures carry exactly the documented ratios
    ratios = lit.metadata["literal_value_ratios"]
    assert ratios["CD-C"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    # the published CI-C constant coincides at order 0 and breaks at order 1
    # with term ratio 1/4
    f = Gaussian(width_a=1.0)
    tau = 0.3
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=1.0)
    coeffs = ci_coeffs("CI-C", u, params, 1, x_center=1.0)
    s0o = ci_eval("CI-C", coeffs[:1], params, 1.0).values(0)[0]
    s1o = ci_eval("CI-C", coeffs, params, 1.0).values(1)[0]
    s0l = ci_eval("CI-C", coeffs[:1], params, 1.0, constants_mode="paper_literal").values(0)[0]
    s1l = ci_eval("CI-C", coeffs, params, 1.0, constants_mode="paper_literal").values(1)[0]
    assert (s1l - s0l) / (s1o - s0o) == pytest.approx(0.25, rel=1e-12)
    report(3, f"(12/12 validated pass; literal CD-C ratio {ratios['CD-C']:.10f}, CI-C term ratio 0.25)")


def test_criterion_4_direct_problem_equivalence():
    worst = {}
    xs = np.linspace(-3.0, 3.0, 13)
    rs = np.linspace(0.0, 3.0, 7)
    from heatseries.profiles import estimate_scale_line, estimate_scale_polar

    a_line = estimate_scale_line(LINE_MIX)
    a_polar = estimate_scale_polar(POLAR_MIX)
    for tau in (0.1, 0.5, 1.0):
        truth_line = forward_line(LINE_MIX, tau, xs)
        scale_line = float(np.max(np.abs(truth_line)))
        for variant in ("CD-A", "CD-B", "CD-C"):
            params = KernelParams(tau=tau, beta=default_beta(variant, a_line, tau))
            series = solve_grid_line(variant, LINE_MIX, params, 40, xs)
            vals = series.values(40)
            assert not np.any(series.flagged(40)), (variant, tau)
            err = float(np.max(np.abs(vals - truth_line))) / scale_line
            worst[variant] = max(worst.get(variant, 0.0), err)
        truth_polar = forward_polar(POLAR_MIX, tau, rs)
        scale_polar = float(np.max(np.abs(truth_polar)))
        for variant in ("PD-A", "PD-B", "PD-C"):
            params = KernelParams(tau=tau, beta=default_beta(variant, a_polar, tau))
            series = solve_grid_polar(variant, POLAR_MIX, params, 40, rs)
            vals = series.values(40)
            assert not np.any(series.flagged(40)), (variant, tau)
            err = float(np.max(np.abs(vals - truth_polar))) / scale_polar
            worst[variant] = max(worst.get(variant, 0.0), err)
    assert all(err <= 1e-6 for err in worst.values()), worst
    detail = ", ".join(f"{v} {e:.1e}" for v, e in sorted(worst.items()))
    report(4, f"({detail})")


def test_criterion_5_inverse_round_trips():
    tau = 0.3
    f = Gaussian(width_a=1.0)
    xs = np.linspace(-3.0, 3.0, 25)
    u = evolve_line(f, tau)
    params = KernelParams(tau=tau, beta=default_beta("CI-A", 1.0 + tau, tau))
    vals = solve_grid_line("CI-A", u, params, 40, xs).values(40)
    rel_line = float(np.linalg.norm(vals - f(xs)) / np.linalg.norm(f(xs)))
    assert rel_line <= 1e-3

    rs = np.linspace(0.0, 3.0, 25)
    up = evolve_polar(f, tau)
    params_p = KernelParams(tau=tau, beta=default_beta("PI-A", 1.0 + tau, tau))
    vals_p = solve_grid_polar("PI-A", up, params_p, 40, rs).values(40)
    rel_polar = float(np.linalg.norm(vals_p - f(rs)) / np.linalg.norm(f(rs)))
    assert rel_polar <= 1e-3
    report(5, f"(CI-A rel L2 {rel_line:.1e}, PI-A rel L2 {rel_polar:.1e})")


def test_criterion_6_ill_posedness_demonstration():
    cfg = StudyConfig(
        study_kind="noise",
        geometry="line",
        n_range=tuple(range(0, 45, 2)),
        delta_range=(1e-3,),
        seed=20250808,
    )
    rep = run_noise_study(cfg)
    errs = {(r.variant, r.n): r.error_l2 for r in rep.rows if r.status == "ok"}
    ratio = errs[("CI-classical", 20)] / errs[("CI-classical", 6)]
    assert ratio >= 10.0
    summary = rep.metadata["semi_convergence"]["CI-A@delta=0.001"]
    assert summary["u_shape"] is True
    assert 2 <= summary["n_star"] <= 40
    report(6, f"(classical err20/err6 = {ratio:.1e}, CI-A N* = {summary['n_star']})")


def test_criterion_7_exact_truncation_cases():
    # beta = a: all computable orders >= 1 vanish; order 0 equals the oracle.
    # the 1e-10 coefficient bound is certified through order 6, where the
    # double-precision conditioning floor of the (polar) moment integrals
    # still sits below it.
    a = 1.0
    tau = 0.5
    params = KernelParams(tau=tau, beta=a)
    g = Gaussian(width_a=a)

    cart = cd_coeffs("CD-A", g, params, 6)
    assert np.all(np.abs(cart[1:]) <= 1e-10 * abs(cart[0]))
    pol = pd_coeffs("PD-A", g, params, 6)
    assert np.all(np.abs(pol[1:]) <= 1e-10 * abs(pol[0]))

    xs = np.linspace(-3.0, 3.0, 13)
    vals = solve_grid_line("CD-A", g, params, 0, xs).values(0)
    truth = forward_line(g, tau, xs)
    line_err = float(np.max(np.abs(vals - truth)) / np.max(np.abs(truth)))
    assert line_err <= 1e-10

    rs = np.linspace(0.0, 3.0, 7)
    vals_p = solve_grid_polar("PD-A", g, params, 0, rs).values(0)
    truth_p = forward_polar(g, tau, rs)
    polar_err = float(np.max(np.abs(vals_p - truth_p)) / np.max(np.abs(truth_p)))
    assert polar_err <= 1e-10

    # the inverse side: evolved data, matched shifted scale
    u = evolve_line(g, 0.3)
    inv_params = KernelParams(tau=0.3, beta=a)
    ci = ci_coeffs("CI-A", u, inv_params, 6)
    assert np.all(np.abs(ci[2:]) <= 1e-10 * abs(ci[0]))
    up = evolve_polar(g, 0.3)
    piv = pi_coeffs("PI-A", up, inv_params, 6)
    assert np.all(np.abs(piv[1:]) <= 1e-10 * abs(piv[0]))
    report(7, f"(N=0 vs oracle: line {line_err:.1e}, polar {polar_err:.1e})")


def test_criterion_8_cli_determinism(tmp_path):
    u_file = tmp_path / "u.csv"
    outs = []
    for name in ("f1.csv", "f2.csv"):
        assert 0 == cli_main(
            [
                "forward", "--variant", "oracle", "--tau", "0.3",
                "--profile", "gaussian:a=1", "--eval-grid", "-8:8:201",
                "--output", str(u_file),
            ]
        )
        out = tmp_path / name
        assert 0 == cli_main(
            [
                "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "auto",
                "--order", "16", "--input", str(u_file), "--noise", "1e-3",
                "--seed", "99", "--eval-grid", "-3:3:13", "--output", str(out),
            ]
        )
        outs.append(open(out).read())
    assert outs[0] == outs[1]

    vals = []
    for name in ("v1.csv", "v2.csv"):
        out = tmp_path / name
        assert 0 == cli_main(["validate", "--output", str(out)])
        vals.append(open(out).read())
    assert vals[0] == vals[1]

    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "[study]\nkind = convergence\ngeometry = line\nprofile = gaussian:a=1\n"
        "tau = 0.5\nvariants = CD-A\n\n[sweep]\norders = 0:20:4\n"
    )
    studies = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert 0 == cli_main(["study", "--config", str(cfg), "--output", str(out)])
        lines = open(out).read().splitlines()
        studies.append([l.rsplit(",", 1)[0] for l in lines])  # drop runtime_ms
    assert studies[0] == studies[1]
    report(8, "(forward/inverse/validate byte-identical; study identical mod runtime)")
