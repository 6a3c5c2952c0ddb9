"""The CLI's solve path through the geometry dispatch of `experiments` (the
public grid solves), and fuzzes of the profile strings, numeric flags and
study configs at the command boundary."""

import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heatseries import experiments, quad, series_cartesian, series_polar
from heatseries.cli import FORWARD_VARIANTS, INVERSE_VARIANTS, main
from heatseries.kernels import evolve_line, evolve_polar
from heatseries.profiles import Gaussian, Mixture, estimate_scale_line, estimate_scale_polar, format_profile
from heatseries.series_cartesian import solve_grid_line
from heatseries.series_polar import solve_grid_polar
from heatseries.specfun import KernelParams
from heatseries.variants import CLASSICAL, LINE, POLAR, VARIANTS, default_beta

LINE_MIX = "mixture:[a=0.9,center=-0.5,amp=1; a=1.4,center=0.7,amp=0.7]"
POLAR_MIX = "mixture:[a=0.9,amp=1; a=1.3,amp=0.8]"
PROFILES = {
    LINE: Mixture((Gaussian(0.9, -0.5, 1.0), Gaussian(1.4, 0.7, 0.7))),
    POLAR: Mixture((Gaussian(0.9, 0.0, 1.0), Gaussian(1.3, 0.0, 0.8))),
}


def cli_values(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
    return np.array([float(v) for _, v, _ in rows]), np.array([f == "1" for _, _, f in rows])


COEFFS = {(LINE, True): "cd_coeffs", (LINE, False): "ci_coeffs", (POLAR, True): "pd_coeffs",
          (POLAR, False): "pi_coeffs"}


def test_the_dispatch_covers_every_geometry_and_direction(monkeypatch):
    # every variant builds through its geometry's grid solve, which takes the
    # public coefficient pass of the variant's direction
    calls = []
    for (geometry, _), name in COEFFS.items():
        module = series_cartesian if geometry == LINE else series_polar
        monkeypatch.setattr(module, name, lambda v, *a, _fn=getattr(module, name), _name=name, **k:
                            calls.append((v, _name)) or _fn(v, *a, **k))
    params = KernelParams(tau=0.3, beta=1.0)
    for variant, row in VARIANTS.items():
        experiments._SOLVE[row.geometry](variant, Gaussian(width_a=1.0), params.tau, params.beta, 2, np.array([0.5]),
                                         "oracle_validated")
    assert calls == [(variant, COEFFS[row.geometry, row.direct]) for variant, row in VARIANTS.items()]
    for table in (experiments._SOLVE, experiments._ORACLE, experiments._EVOLVE,
                  experiments._SCALE_ESTIMATE, experiments._STUDY_GRID, experiments._COMPARE_GRID):
        assert set(table) == {LINE, POLAR}


@pytest.mark.parametrize("variant", list(VARIANTS) + [CLASSICAL])
def test_cli_solve_is_the_library_grid_solve(capsys, variant):
    # the CLI's one grid solve gives the public solve_grid_* values and flags
    # bit for bit, on the data the command names
    geometry = LINE if variant == CLASSICAL else VARIANTS[variant].geometry
    direct = variant != CLASSICAL and VARIANTS[variant].direct
    tau, order = 0.3, 12
    grid, xs = ("-2:2:9", np.linspace(-2.0, 2.0, 9)) if geometry == LINE else ("0:2:9", np.linspace(0.0, 2.0, 9))
    f = PROFILES[geometry]
    data = f if direct else (evolve_line if geometry == LINE else evolve_polar)(f, tau)
    profile = {LINE: LINE_MIX, POLAR: POLAR_MIX}[geometry]
    if not direct:
        profile = format_profile(data)
    argv = ["forward" if direct else "inverse", "--geometry", geometry, "--variant", variant, "--tau", "0.3",
            "--order", str(order), "--eval-grid", grid, "--profile", profile]
    if variant == CLASSICAL:
        ref = solve_grid_line(variant, data, tau, 0.0, order, xs)
    else:
        estimate = estimate_scale_line if geometry == LINE else estimate_scale_polar
        beta = default_beta(variant, estimate(data), tau)
        params = KernelParams(tau=tau, beta=beta)
        solver = solve_grid_line if geometry == LINE else solve_grid_polar
        ref = solver(variant, data, params.tau, params.beta, order, xs)
        argv += ["--beta", "auto"]
    vals, flags = cli_values(capsys, *argv)
    np.testing.assert_array_equal(vals, ref.values(order))
    np.testing.assert_array_equal(flags, ref.flagged(order))


@pytest.mark.parametrize("variant", ["PD-C", "PI-C", "CD-C", "CI-C"])
def test_c_overflow_is_exit_3_without_a_warning(capsys, variant):
    # an overflowing C column (inf times a zero constant) is one clean error line
    geometry = VARIANTS[variant].geometry
    command = "forward" if VARIANTS[variant].direct else "inverse"
    grid = "0:2000:5" if geometry == POLAR else "0:400:5"
    code = main([command, "--geometry", geometry, "--variant", variant, "--tau", "0.5", "--beta", "0.5",
                 "--order", "200", "--eval-grid", grid, "--profile", "gaussian:a=1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and f"{variant} at " in err


@pytest.mark.parametrize("variant", ["PD-A", "PD-B", "PI-A", "PI-B", "CD-C", "CI-C"])
def test_overflowing_moments_are_exit_3_at_once(capsys, monkeypatch, variant):
    # a profile too wide for the moment integrand overflows its first level
    # sums: one clean error line, no refinement toward 4096 panels (PI-B
    # takes a shift above tau, which it checks before its moments)
    row = VARIANTS[variant]
    beta = "2" if variant == "PI-B" else "1"
    levels = []
    values = quad._values
    monkeypatch.setattr(quad, "_values", lambda f, nodes: levels.append(nodes.size) or values(f, nodes))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["forward" if row.direct else "inverse", "--geometry", row.geometry, "--variant", variant,
                     "--tau", "1", "--beta", beta, "--order", "1", "--eval-grid", "0:1:2",
                     "--profile", "gaussian:a=1e300"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "overflow" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(levels) <= 2


@pytest.mark.parametrize(
    "argv",
    [
        # inf times a zero derivative
        ["inverse", "--variant", "CI-classical", "--order", "6", "--profile", "gaussian:a=1e-150"],
        ["inverse", "--geometry", "polar", "--variant", "PI-B", "--order", "6", "--beta", "auto",
         "--profile", "gaussian:a=1,amp=1e300"],
        # moments beyond the overflow threshold, analytic (whose exact M_12
        # exceeds float64: test_the_analytic_overflow_trigger_is_exact) and sampled
        ["forward", "--variant", "CD-C", "--order", "12", "--beta", "1", "--profile", "gaussian:a=4,amp=1e300"],
        ["inverse", "--variant", "CI-C", "--order", "40", "--beta", "auto", "--input", "big.csv"],
        ["inverse", "--variant", "CI-B", "--order", "40", "--beta", "auto", "--input", "big.csv"],
        # finite differences of order 40 at spacing 0.1
        ["inverse", "--variant", "CI-classical", "--order", "40", "--input", "big.csv"],
    ],
)
def test_overflowing_terms_and_moments_are_exit_3_without_a_warning(capsys, tmp_path, monkeypatch, argv):
    xs = np.linspace(-10.0, 10.0, 201)
    (tmp_path / "big.csv").write_text("x,u\n" + "".join(f"{x:.17g},{1e300 * np.exp(-x * x / 4.0):.17g}\n" for x in xs))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--tau", "1", "--eval-grid", "0:1:3"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "overflow" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_the_analytic_overflow_trigger_is_exact():
    # the CD-C case above: at x = 0 its centre is 0, and the order-24 moment
    # pass holds M_12 = int H_12(xi/2) 1e300 e^{-xi^2/16} dxi = 2e300
    # sqrt(4 pi) 11!! 6^6, about 3.4e309, in 30 digits
    with mpmath.workdps(30):
        exact = mpmath.quad(lambda xi: mpmath.hermite(12, xi / 2) * mpmath.mpf(1e300) * mpmath.exp(-xi * xi / 16),
                            [-mpmath.inf, 0, mpmath.inf])
        assert exact > sys.float_info.max
        assert mpmath.almosteq(exact, 2 * mpmath.mpf(1e300) * mpmath.sqrt(4 * mpmath.pi) * 10395 * 6 ** 6, 1e-25)
    with pytest.raises(OverflowError, match="not finite"):
        series_cartesian._hermite_moments(Gaussian(4.0, 0.0, 1e300), 1.0, 24)


def test_moments_near_the_overflow_threshold_agree_with_the_oracle(capsys):
    # amp = 1e300 at a = 1 = beta: the exact moments about 0 are 2e300 sqrt(pi)
    # and 0 (gamma^2 = 0), so CD-C prints the oracle's 7.07e299 at x = 0;
    # the moment quadrature's level sums overflowed here (exit 3)
    common = ["--tau", "1", "--eval-grid", "0:1:3", "--profile", "gaussian:a=1,amp=1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, flags = cli_values(capsys, "forward", "--variant", "CD-C", "--order", "12", "--beta", "1", *common)
        oracle, _ = cli_values(capsys, "forward", "--variant", "oracle", *common)
    assert not flags.any()
    np.testing.assert_allclose(values, oracle, rtol=1e-14)
    assert values[0] == pytest.approx(1e300 / np.sqrt(2.0), rel=1e-15)


def test_a_short_time_oracle_of_a_sample_file_is_its_interpolant(capsys, tmp_path, monkeypatch):
    # tau = 1e-9: kernels 6e-5 wide against 0.05 between samples, which the
    # adaptive engine did not resolve within 4096 panels (exit 3); the
    # closed form leaves the interpolant plus sqrt(tau) times the slope jumps
    # at the nodes the points sit on
    xs = np.linspace(-12.0, 12.0, 481)
    (tmp_path / "f_mix.csv").write_text("x,u\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(xs, PROFILES[LINE](xs))))
    monkeypatch.chdir(tmp_path)
    values, flags = cli_values(capsys, "forward", "--variant", "oracle", "--tau", "1e-9", "--input", "f_mix.csv",
                               "--eval-grid=-3.01:2.99:7")
    assert not flags.any()
    grid = np.linspace(-3.01, 2.99, 7)  # between nodes: every kernel is 100 widths from the nearest
    assert np.all(np.abs(values - np.interp(grid, xs, PROFILES[LINE](xs))) <= 1e-15)
    values, _ = cli_values(capsys, "forward", "--variant", "oracle", "--tau", "1e-9", "--input", "f_mix.csv",
                           "--eval-grid=-3:3:7")
    assert np.all(np.abs(values - PROFILES[LINE](np.linspace(-3.0, 3.0, 7))) <= 1e-6)


@pytest.mark.parametrize("geometry, lo", [(LINE, -8.0), (POLAR, 0.0)])
def test_study_grid_defaults_are_written_once(tmp_path, geometry, lo):
    # a config with no [grid] and one with only n take the same default grid
    from heatseries.cli import _parse_study_config

    plain = tmp_path / "plain.cfg"
    plain.write_text(f"[study]\nkind = noise\ngeometry = {geometry}\n")
    partial = tmp_path / "partial.cfg"
    partial.write_text(f"[study]\nkind = noise\ngeometry = {geometry}\n[grid]\nn = 101\n")
    default = experiments.StudyConfig("noise", geometry=geometry).grid
    assert (default.lo, default.hi, default.n) == (lo, 8.0, 401)
    assert _parse_study_config(str(plain)).grid == default
    assert _parse_study_config(str(partial)).grid == experiments.GridGeom(lo, 8.0, 101)


# --- fuzz: profile strings and numeric flags -----------------------------------------

# profile values reach 1e+-300, as tau, --beta and the grid bounds do
_EXTREME = st.sampled_from(["0", "-1", "1e-300", "1e-12", "1e12", "1e300", "1e400", "inf", "-inf", "nan", "-0.0"])
_JUNK = st.sampled_from(["", "x", "1,5", "0x1", "1e"])


def _mostly(plain, odd):
    """plain, and about one draw in ten odd (repeating a strategy in one_of
    does not weight it)."""
    return st.tuples(st.integers(0, 9), plain, odd).map(lambda t: t[2] if t[0] == 7 else t[1])


def _number(lo, hi):
    """Mostly an ordinary value in [lo, hi], sometimes an extreme or junk one."""
    return _mostly(st.floats(lo, hi).map(repr), st.one_of(_EXTREME, _JUNK))


@st.composite
def _gaussian_body(draw):
    pairs = [("a", draw(_number(1e-3, 50.0))), ("center", draw(_number(-10.0, 10.0))),
             ("amp", draw(_number(-5.0, 5.0)))]
    keep = pairs[:1] + draw(st.lists(st.sampled_from(pairs[1:]), max_size=2, unique=True))
    keep = draw(_mostly(st.just(keep), st.just(keep[1:] + [("width", "1")])))
    return ",".join(f"{k}={v}" for k, v in keep)


@st.composite
def profile_strings(draw):
    """Profile mini-language text: mostly well-formed, with extreme values,
    missing or unknown keys and broken brackets mixed in."""
    kind = draw(_mostly(st.sampled_from(["gaussian", "mixture", "bump"]), st.sampled_from(["Gaussian", "blob", ""])))
    if kind == "mixture":
        body = "[" + "; ".join(draw(st.lists(_gaussian_body(), min_size=1, max_size=3))) + "]"
        body = draw(_mostly(st.just(body), st.sampled_from([body[1:], body[:-1], "[]"])))
    elif kind == "bump":
        body = f"center={draw(_number(-10.0, 10.0))},radius={draw(_number(1e-3, 10.0))}"
    else:
        body = draw(_gaussian_body())
    return draw(_mostly(st.just(f"{kind}:{body}"), st.sampled_from([f"{kind}{body}", f" {kind} : {body} "])))


_GRIDS = _mostly(
    st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 20.0), st.integers(2, 5), st.booleans()).map(
        lambda t: f"{-t[0] if t[3] else t[0]!r}:{t[0] + t[1]!r}:{t[2]}"
    ),
    st.sampled_from(["0:0:1", "1:1:1", "0:1", "a:b:c", "0:1:2.5", "nan:1:3", "0:inf:3", "-1e300:1e300:5", "", "::",
                     "1:0:3", "0:1e300:3", "0:1:0", "0:0:2"]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["forward", "inverse"]),
    geometry=st.sampled_from([LINE, POLAR]),
    pick=st.integers(0, 10),
    profile=profile_strings(),
    tau=_mostly(st.floats(1e-3, 10.0).map(repr), st.sampled_from(["0", "-1", "nan", "inf", "1e300"])),
    beta=_mostly(
        st.one_of(st.just("auto"), st.floats(1e-3, 10.0).map(repr)),
        st.sampled_from([None, "0", "-1", "nan", "inf", "x", "1e-300", "1e300", ""]),
    ),
    order=_mostly(st.integers(0, 12), st.just(-1)),
    grid=_GRIDS,
    mode=st.sampled_from(["oracle_validated", "paper_literal"]),
    truth=st.one_of(st.none(), profile_strings()),
)
# a truth that is 0 on the grid: no relative error
@example(command="inverse", geometry=LINE, pick=0, profile="gaussian:a=1", tau="0.3", beta="1", order=4,
         grid="-1:1:3", mode="oracle_validated", truth="gaussian:a=1,amp=0")
# a shift of 1e-300 overflows the basis argument (far grid) or the terms
@example(command="inverse", geometry=LINE, pick=0, profile="bump:center=0.0,radius=1.0", tau="1.0", beta="1e-300",
         order=2, grid="-1e300:1e300:5", mode="oracle_validated", truth=None)
@example(command="inverse", geometry=LINE, pick=0, profile="bump:center=0.0,radius=1.0", tau="1.0", beta="1e-300",
         order=2, grid="0.0:1.0:2", mode="oracle_validated", truth=None)
@example(command="inverse", geometry=POLAR, pick=0, profile="bump:center=0.0,radius=1.0", tau="1.0", beta="1e-300",
         order=2, grid="0:1e300:3", mode="oracle_validated", truth=None)
def test_fuzzed_profiles_and_flags_exit_cleanly(capsys, command, geometry, pick, profile, tau, beta, order, grid,
                                                mode, truth):
    variants = (FORWARD_VARIANTS if command == "forward" else INVERSE_VARIANTS)[geometry]
    argv = [command, f"--geometry={geometry}", f"--variant={variants[pick % len(variants)]}", f"--tau={tau}",
            f"--order={order}", f"--eval-grid={grid}", f"--profile={profile}", f"--constants-mode={mode}"]
    if beta is not None:
        argv.append(f"--beta={beta}")
    if truth is not None and command == "inverse":
        argv.append(f"--truth={truth}")
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert err.count("\n") == (0 if code == 0 else 1), (argv, err)


# --- fuzz: study configs ----------------------------------------------------------


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["noise", "convergence", "beta_map", "classical_compare"]),
    geometry=st.sampled_from([LINE, POLAR]),
    width=st.one_of(st.sampled_from(["1e-6", "1e-3", "1e3", "1e6"]), st.floats(0.05, 20.0).map(repr)),
    center=st.one_of(st.sampled_from(["40", "-1000", "1e6"]), st.floats(-5.0, 5.0).map(repr)),
    amp=st.one_of(st.sampled_from(["1e-160", "1e-300", "1e-320", "-1e-310", "0"]), st.floats(-3.0, 3.0).map(repr)),
    orders=st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True),
    n=st.integers(2, 41),
    tau=st.sampled_from(["0.3", "1"]),
)
# the oracle underflows to 0 on the compare grid: no relative error
@example(kind="convergence", geometry=LINE, width="1", center="1000", amp="1", orders=[0, 4], n=2, tau="0.5")
def test_fuzzed_study_configs_exit_cleanly(capsys, tmp_path, kind, geometry, width, center, amp, orders, n, tau):
    sweep = f"orders = {', '.join(map(str, orders))}\n" + ("betas = 0.5, 1.5\n" if kind == "beta_map" else "")
    grid = f"\n[grid]\nn = {n}\n" if kind in ("noise", "classical_compare") else ""  # the others take none
    config = tmp_path / "fuzz.cfg"
    config.write_text(f"[study]\nkind = {kind}\ngeometry = {geometry}\ntau = {tau}\n"
                      f"profile = gaussian:a={width},center={center},amp={amp}\n\n[sweep]\n{sweep}{grid}")
    capsys.readouterr()
    code = main(["study", "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (config.read_text(), err)
    assert "Traceback" not in err
    assert err.count("\n") == (0 if code == 0 else 1), (config.read_text(), err)
