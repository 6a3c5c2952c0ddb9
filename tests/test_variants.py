"""The variant table and the shared evaluation path.

The vectorised divergence scan and early stop are checked against the
per-point loops they replaced, and the order sweep against separate solves.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatseries import experiments, series_cartesian, series_polar, variants
from heatseries.kernels import evolve_line, evolve_polar
from heatseries.profiles import Gaussian, Mixture, Sampled1D
from heatseries.series_cartesian import ci_coeffs, ci_eval, cd_coeffs, cd_eval, solve_grid_line
from heatseries.series_polar import pd_coeffs, pd_eval, pi_coeffs, pi_eval, solve_grid_polar
from heatseries.specfun import KernelParams
from heatseries.variants import (
    CONSTANTS_MODES,
    LINE,
    VARIANTS,
    SeriesTerms,
    default_beta,
    pointwise_terms,
    series_terms,
    variant_names,
)

# --- reference: the per-point loops of the previous implementation ---------------

def reference_scan(mags):
    mags = np.abs(mags)
    running_max = np.maximum.accumulate(np.maximum(mags, 1e-300))
    idx = np.nonzero(mags > 1e-12 * running_max)[0]
    vals = mags[idx]
    run = 0
    for k in range(1, idx.size):
        run = run + 1 if vals[k] > vals[k - 1] else 0
        if run >= 5 and idx[k - 5] >= 4:
            return True, int(idx[k - 5])
    return False, None


def reference_early_stop(terms, abs_tol):
    mags = np.max(np.abs(terms), axis=1)
    run = 0
    for j, m in enumerate(mags):
        run = run + 1 if m < abs_tol else 0
        if run >= 3:
            return terms[: j + 1]
    return terms


@contextlib.contextmanager
def early_stop_tol(value):
    """variants.EARLY_STOP_TOL set to value inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variants, "EARLY_STOP_TOL", value)
        yield


# magnitudes that produce ties, parity zeros and values under the noise floor
_LEVELS = [0.0, 1e-300, 1e-20, 1e-13, 1e-12, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 7.5]


@st.composite
def columns(draw, rows):
    kind = draw(st.sampled_from(["levels", "floats", "growth"]))
    if kind == "levels":
        col = draw(st.lists(st.sampled_from(_LEVELS), min_size=rows, max_size=rows))
    elif kind == "floats":
        col = draw(st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=rows, max_size=rows))
    else:
        # a growth run starting anywhere, possibly before index 4, with parity
        # zeros and sub-floor noise interleaved
        start = draw(st.integers(0, rows))
        length = draw(st.integers(0, rows))
        base = draw(st.floats(1e-3, 1.0))
        col = [draw(st.sampled_from(_LEVELS)) for _ in range(rows)]
        for i in range(start, min(rows, start + length)):
            col[i] = base * 1.5 ** (i - start)
            if draw(st.booleans()) and i + 1 < rows:
                col[i + 1] = 0.0
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=rows, max_size=rows))
    return [s * v for s, v in zip(signs, col)]


@st.composite
def term_matrices(draw):
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(1, 5))
    return np.array([draw(columns(rows)) for _ in range(cols)]).T


@given(term_matrices(), st.sampled_from([1e-14, 1e-12, 0.3, 1.0, 5.0]))
@settings(max_examples=400, deadline=None)
def test_vectorised_scan_matches_reference_loops(terms, abs_tol):
    with early_stop_tol(abs_tol):
        series = series_terms(np.ones(terms.shape[0]), terms, None)
    # every truncation order: the early-stop row and each column's flag and
    # first growth index
    for m in range(terms.shape[0]):
        kept = reference_early_stop(terms[: m + 1], abs_tol)
        assert series.rows(m) == kept.shape[0]
        np.testing.assert_array_equal(series.values(m), np.sum(kept, axis=0))
        flagged = series.flagged(m)
        for c in range(terms.shape[1]):
            ref_flag, ref_idx = reference_scan(kept[:, c])
            assert bool(flagged[c]) == ref_flag
            if ref_flag:
                assert int(series.growth[c]) == ref_idx
    # the full order: each column's kept magnitudes, flag and first growth
    # index (-1 when unflagged stands for the reference's None)
    n = terms.shape[0] - 1
    kept = reference_early_stop(terms, abs_tol)
    flagged = series.flagged(n)
    for c in range(terms.shape[1]):
        np.testing.assert_array_equal(np.abs(series.terms[: series.rows(n), c]), np.abs(kept[:, c]))
        growth = int(series.growth[c]) if flagged[c] else None
        assert (bool(flagged[c]), growth) == reference_scan(kept[:, c])


def test_scan_flags_growth_run_that_starts_before_index_4():
    # growth from index 2: the flag fires once the last five comparisons
    # start at index 4, so the reported start is 4, not 2
    col = np.array([1.0, 0.5, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8])
    series = series_terms(np.ones(col.size), col[:, None], None)
    assert reference_scan(col) == (True, 4)
    assert bool(series.flagged(9)[0]) and int(series.growth[0]) == 4
    assert not series.flagged(8)[0]


def test_overflow_reported_per_order():
    terms = np.array([[1.0], [0.5], [np.inf], [1.0]])
    series = series_terms(np.ones(4), terms, None)
    np.testing.assert_array_equal(series.values(1), [1.5])
    with pytest.raises(OverflowError):
        series.values(2)


# --- C points: one matrix, every column a series of its own ------------------------

def reference_point(kappa, column):
    """The previous C path: one single-column series per point."""
    return series_terms(kappa * column, np.ones((1, 1)), None)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def at_points(cols):
    """Distinct points for the columns of a C term matrix, and their label."""
    return 0.5 * np.arange(cols) - 1.25, "C at x"


def assert_pointwise_matches_reference(kappa, coeffs):
    points, label = at_points(coeffs.shape[1])
    series = pointwise_terms(kappa, coeffs, points, label)
    refs = [reference_point(kappa, coeffs[:, c]) for c in range(coeffs.shape[1])]
    for m in range(coeffs.shape[0]):
        np.testing.assert_array_equal(series.rows(m), [ref.rows(m) for ref in refs])
        np.testing.assert_array_equal(series.flagged(m), [ref.flagged(m)[0] for ref in refs])
        try:
            expected = np.concatenate([ref.values(m) for ref in refs])
        except OverflowError:
            with pytest.raises(OverflowError) as info:
                series.values(m)
            first = next(c for c, ref in enumerate(refs) if ref.finite <= m)
            assert str(info.value) == f"C at x = {points[first]:g}: series terms overflowed double precision"
            continue
        assert same_bits(series.values(m), expected)
    np.testing.assert_array_equal(series.growth, [ref.growth[0] for ref in refs])


@given(term_matrices(), st.sampled_from([1e-14, 1e-12, 0.3, 1.0, 5.0]), st.integers(-1, 24))
@settings(max_examples=400, deadline=None)
def test_pointwise_terms_are_the_single_point_series(coeffs, abs_tol, overflow_row):
    # early stop, overflow, flags and the sum of every column as a lone point,
    # at every truncation order; some columns overflow at overflow_row
    coeffs = coeffs.copy()
    if 0 <= overflow_row < coeffs.shape[0]:
        coeffs[overflow_row, ::2] = np.inf
    kappa = 0.5 ** np.arange(coeffs.shape[0])
    with early_stop_tol(abs_tol):
        assert_pointwise_matches_reference(kappa, coeffs)
        if not np.all(np.isfinite(coeffs)):
            return
        n = coeffs.shape[0] - 1
        series = pointwise_terms(kappa, coeffs, *at_points(coeffs.shape[1]))
        values, flagged = series.values(n), series.flagged(n)
        rows = np.broadcast_to(series.rows(n), flagged.shape)
        for c in range(coeffs.shape[1]):
            ref = reference_point(kappa, coeffs[:, c])
            ref_flagged = bool(ref.flagged(n)[0])
            assert same_bits(values[c], ref.values(n)[0])
            assert same_bits(np.abs(series.terms[: rows[c], c]), np.abs(ref.terms[: ref.rows(n), 0]))
            assert bool(flagged[c]) == ref_flagged
            if ref_flagged:
                assert series.growth[c] == ref.growth[0]


def test_pointwise_sums_are_one_column_sums_on_random_shapes():
    # numpy sums a lone column pairwise and a matrix row by row; at more than
    # eight rows the two differ in the last bits, and each C point keeps the
    # former whatever the other points' row counts
    rng = np.random.default_rng(7)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 200)), int(rng.integers(1, 12))
        coeffs = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, cols))
        coeffs[rng.integers(0, rows, size=cols), np.arange(cols)] = 0.0
        kappa = rng.uniform(0.5, 2.0, size=rows)
        abs_tol = float(10.0 ** rng.integers(-14, 1))
        with early_stop_tol(abs_tol):
            series = pointwise_terms(kappa, coeffs, *at_points(cols))
            for m in {0, rows // 3, rows - 1}:
                expected = [np.sum((kappa * coeffs[:, c])[: ref.rows(m)]) for c, ref in
                            enumerate(reference_point(kappa, coeffs[:, c]) for c in range(cols))]
                assert same_bits(series.values(m), expected)


@pytest.mark.parametrize("variant, coeffs_fn, eval_fn, solve, points", [
    ("CD-C", cd_coeffs, cd_eval, solve_grid_line, [0.0, 20.0, 100.0, -60.0, 60.0, -100.0]),
    ("CI-C", ci_coeffs, ci_eval, solve_grid_line, [0.0, 20.0, 100.0, -60.0, 60.0, -100.0]),
    ("PD-C", pd_coeffs, pd_eval, solve_grid_polar, [0.0, 20.0, 500.0, 100.0, 2000.0]),
    ("PI-C", pi_coeffs, pi_eval, solve_grid_polar, [0.0, 20.0, 500.0, 100.0, 2000.0]),
])
def test_c_overflow_read_through_the_public_evaluator_names_its_point(variant, coeffs_fn, eval_fn, solve, points):
    # a library caller summing a C evaluation gets the grid solve's error,
    # which names the first point that overflows (not the first or last point)
    g, params, n = Gaussian(width_a=1.0), KernelParams(tau=0.5, beta=0.7), 80
    points = np.asarray(points)
    with pytest.raises(OverflowError) as grid:
        solve(variant, g, params.tau, params.beta, n, points)
    series = eval_fn(variant, coeffs_fn(variant, g, params, n, points), params, points)
    with pytest.raises(OverflowError) as summed:
        series.values(n)
    assert str(summed.value) == str(grid.value)
    axis = "x" if variant[0] == "C" else "r"
    assert str(grid.value) == f"{variant} at {axis} = {points[2]:g}: series terms overflowed double precision"


def test_one_coefficient_column_serves_every_point():
    series = pointwise_terms(np.ones(3), np.array([1.0, 0.5, 0.25]), *at_points(4))
    assert same_bits(series.values(2), np.full(4, 1.75))


# --- the table -----------------------------------------------------------------

def test_table_rows_are_complete():
    assert variant_names() == tuple(VARIANTS)
    assert len(VARIANTS) == 12
    for row in VARIANTS.values():
        if row.pointwise:
            assert len(row.constants) == len(CONSTANTS_MODES) and not row.scales
        else:
            assert len(row.scales) == 4 and not row.constants
    assert [v for v, row in VARIANTS.items() if row.weighted] == ["CI-B"]
    assert [v for v, row in VARIANTS.items() if row.pointwise] == ["CD-C", "CI-C", "PD-C", "PI-C"]


# --- order sweeps ------------------------------------------------------------------

MIX = Mixture((Gaussian(width_a=0.9, center=-0.5), Gaussian(width_a=1.4, center=0.7, amplitude=0.7)))
XS = np.linspace(-3.0, 3.0, 13)
RS = np.linspace(0.0, 3.0, 4)
_COEFFS_EVAL = {
    "CD-A": (cd_coeffs, cd_eval),
    "CD-C": (cd_coeffs, cd_eval),
    "CI-B": (ci_coeffs, ci_eval),
    "CI-C": (ci_coeffs, ci_eval),
    "PD-C": (pd_coeffs, pd_eval),
    "PI-B": (pi_coeffs, pi_eval),
    "PI-C": (pi_coeffs, pi_eval),
}


@pytest.mark.parametrize(
    "variant, data, params, grid, orders",
    [
        ("CD-A", MIX, KernelParams(0.5, 0.8), XS, (0, 1, 2, 5, 10, 20, 40)),
        ("CI-B", evolve_line(MIX, 0.3), KernelParams(0.3, 0.8), XS, (0, 1, 2, 5, 10, 20, 40)),
        ("PD-C", Gaussian(width_a=1.3), KernelParams(0.5, 0.8), RS, (0, 1, 3, 8)),
        ("PI-B", evolve_polar(Gaussian(width_a=1.0), 0.3), KernelParams(0.3, 0.9), RS, (0, 1, 2, 5, 10, 20)),
    ],
)
def test_sweep_equals_independent_solves(variant, data, params, grid, orders):
    # a sweep computes the moments once at the top order; each order equals
    # a separate evaluation of those moments truncated to that order, and the
    # top order equals a separate grid solve.  (Moments computed for a lower
    # order alone differ in the last bits: the adaptive quadrature refines
    # on all requested orders together.)
    solver = solve_grid_line if VARIANTS[variant].geometry == "line" else solve_grid_polar
    coeffs_fn, eval_fn = _COEFFS_EVAL[variant]
    pointwise = VARIANTS[variant].pointwise
    top = orders[-1]
    if pointwise:
        coeffs = [coeffs_fn(variant, data, params, top, float(x)) for x in grid]
    else:
        coeffs = coeffs_fn(variant, data, params, top)
    swept = list(experiments._sweep_orders(variant, data, params.tau, params.beta, orders, grid, "oracle_validated"))
    assert [n for n, *_ in swept] == sorted(orders, reverse=True)  # highest first
    for n, vals, flagged, err in swept:
        assert err is None
        if pointwise:
            points = [eval_fn(variant, c[: n + 1], params, float(x)) for c, x in zip(coeffs, grid)]
            ref_vals = np.concatenate([p.values(n) for p in points])
            ref_flag = any(p.flagged(n)[0] for p in points)
        else:
            series = eval_fn(variant, coeffs[: n + 1], params, grid)
            ref_vals = series.values(n)
            ref_flag = bool(np.any(series.flagged(n)))
        np.testing.assert_array_equal(vals, ref_vals)
        assert flagged == ref_flag
    solved = solver(variant, data, params.tau, params.beta, top, grid)
    _, top_vals, top_flag, _ = next(entry for entry in swept if entry[0] == top)
    np.testing.assert_array_equal(top_vals, solved.values(top))
    assert top_flag == bool(np.any(solved.flagged(top)))


@pytest.mark.parametrize("data", [evolve_line(Gaussian(width_a=1.0), 0.3), "sampled"])
def test_sweep_equals_independent_solves_classical(data):
    # no quadrature: every order equals a separate solve bit for bit, and on
    # a short grid the orders whose stencil leaves the grid fail on their own
    if data == "sampled":
        data = Sampled1D.from_function(evolve_line(Gaussian(width_a=1.0), 0.3), -8.0, 8.0, 41)
    orders = tuple(range(0, 57, 4))
    swept = list(experiments._sweep_orders("CI-classical", data, 0.3, 0.0, orders, XS, "oracle_validated"))
    failed = 0
    for n, vals, flagged, err in swept:
        try:
            ref = solve_grid_line("CI-classical", data, 0.3, 0.0, n, XS)
        except ValueError:
            assert isinstance(err, ValueError) and flagged
            failed += 1
            continue
        assert err is None
        np.testing.assert_array_equal(vals, ref.values(n))
        assert flagged == bool(np.any(ref.flagged(n)))
    assert failed == (4 if isinstance(data, Sampled1D) else 0)


# the orders of a convergence sweep on the unit Gaussian at tau = 0.5, the
# top ones past where the variant's terms overflow (CD-B from 300, CD-C from 150)
OVERFLOW_POOLS = {"CD-B": (0, 3, 10, 40, 100, 200, 250, 300, 400), "CD-C": (0, 3, 10, 40, 100, 150, 200)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", sorted(OVERFLOW_POOLS))
def test_orders_below_a_failing_one_equal_a_sweep_over_the_orders_that_build(variant, seed):
    data, tau, grid = Gaussian(width_a=1.0), 0.5, experiments._COMPARE_GRID[LINE]
    params = KernelParams(tau, default_beta(variant, experiments._SCALE_ESTIMATE[LINE](data), tau))

    def sweep(orders):
        return {n: rest for n, *rest in experiments._sweep_orders(variant, data, params.tau, params.beta, orders, grid,
                                                                    "oracle_validated")}

    pool = OVERFLOW_POOLS[variant]
    rng = np.random.default_rng(seed)
    orders = sorted(rng.choice(pool[:-1], size=int(rng.integers(2, 5)), replace=False).tolist() + [pool[-1]])
    alone = {n: sweep([n])[n] for n in orders}
    builds = [n for n in orders if alone[n][2] is None]
    assert builds and builds != orders  # the top order fails; some below it build
    expected = sweep(builds)
    for n, (vals, flagged, err) in sweep(orders).items():
        if n in builds:
            assert err is None
            np.testing.assert_array_equal(vals, expected[n][0])
            assert flagged == expected[n][1]
        else:
            assert type(err) is type(alone[n][2]) is OverflowError and vals is None and flagged


@pytest.mark.parametrize(
    "variant, data, params, grid",
    [
        ("CD-A", MIX, KernelParams(0.5, 0.8), XS),
        ("PD-C", Gaussian(width_a=1.3), KernelParams(0.5, 0.8), RS),
        ("CI-classical", evolve_line(Gaussian(width_a=1.0), 0.3), None, XS),
    ],
)
def test_a_sweep_whose_orders_all_build_takes_one_term_matrix(monkeypatch, variant, data, params, grid):
    built = []
    for geometry, solve in list(experiments._SOLVE.items()):
        monkeypatch.setitem(experiments._SOLVE, geometry, lambda *a, _fn=solve, **k:
                            built.append((a[4], _fn(*a, **k))) or built[-1][1])
    tau, beta = (0.3, 0.0) if params is None else (params.tau, params.beta)
    swept = experiments._sweep_orders(variant, data, tau, beta, (0, 1, 4, 9, 16), grid, "oracle_validated")
    # the sweep has run when it returns: a span around it holds its one solve
    assert type(swept) is list and len(built) == 1
    top, series = built[0]
    assert top == 16 and isinstance(series, SeriesTerms)
    for n, vals, flagged, err in swept:
        assert err is None
        np.testing.assert_array_equal(vals, series.values(n))
        assert flagged == bool(np.any(series.flagged(n)))


def test_a_pi_b_shift_below_tau_fails_before_its_coefficient_pass(monkeypatch):
    # the shift does not depend on the order: every order reads the check's
    # own error, and no order pays for a pass it cannot use
    passes = []
    coeffs = series_polar.pi_coeffs
    monkeypatch.setattr(series_polar, "pi_coeffs", lambda v, *a, **k: passes.append(v) or coeffs(v, *a, **k))
    params = KernelParams(0.3, 0.2)
    with pytest.raises(ValueError) as expected:
        VARIANTS["PI-B"].times(params)
    swept = experiments._sweep_orders("PI-B", evolve_polar(Gaussian(width_a=1.0), 0.3), params.tau, params.beta,
                                      range(0, 41, 4), RS, "oracle_validated")
    assert [n for n, *_ in swept] == list(range(40, -1, -4))
    for _, vals, flagged, err in swept:
        assert vals is None and flagged and type(err) is ValueError and str(err) == str(expected.value)
    assert passes == []


@pytest.mark.parametrize("variant, points, mode", [
    ("CD-A", XS, "bogus"),
    ("CI-C", XS, "bogus"),
    ("PI-B", RS, "bogus"),
    ("PD-C", RS, "bogus"),
    ("PI-B", np.array([0.5, -1.0]), "oracle_validated"),
    ("PD-C", np.array([-1.0, 0.5]), "oracle_validated"),
])
def test_a_bad_mode_or_radius_fails_before_the_coefficient_pass(monkeypatch, variant, points, mode):
    # the grid solve makes the evaluator's checks first: the evaluator's
    # error, and no pass paid for a solve that cannot finish
    polar = VARIANTS[variant].geometry == "polar"
    module = series_polar if polar else series_cartesian
    passes = []
    for name in ("pd_coeffs", "pi_coeffs") if polar else ("cd_coeffs", "ci_coeffs"):
        monkeypatch.setattr(module, name, lambda v, *a, _fn=getattr(module, name), **k:
                            passes.append(v) or _fn(v, *a, **k))
    params = KernelParams(0.5, 1.0)
    with pytest.raises(ValueError) as expected:
        _COEFFS_EVAL[variant][1](variant, np.ones((3, points.size)), params, points, mode)
    with pytest.raises(ValueError) as solved:
        experiments._SOLVE[VARIANTS[variant].geometry](variant, Gaussian(width_a=1.0), params.tau, params.beta, 40,
                                                       points, mode)
    assert str(solved.value) == str(expected.value)
    assert str(expected.value) in (f"unknown constants_mode 'bogus'; choose from {CONSTANTS_MODES}",
                                   "radius must be non-negative")
    assert passes == []


@pytest.mark.parametrize("variant", [v for v, row in VARIANTS.items() if row.pointwise])
def test_kept_coefficients_reweighted_under_each_mode_are_the_public_evaluation(variant):
    # the audit's literal/validated ratio: one pass, each mode's constants
    row = VARIANTS[variant]
    coeffs_fn, eval_fn = _COEFFS_EVAL[variant]
    data, params = Gaussian(width_a=1.0), KernelParams(0.3, 1.0)
    points = XS if row.geometry == LINE else RS
    series = experiments._SOLVE[row.geometry](variant, data, params.tau, params.beta, 12, points, "oracle_validated")
    np.testing.assert_array_equal(series.coeffs, coeffs_fn(variant, data, params, 12, points))
    for mode in CONSTANTS_MODES:
        reweighted = pointwise_terms(row.kappa(params, mode, 2), series.coeffs[:3], series.points, series.label)
        public = eval_fn(variant, series.coeffs[:3], params, series.points, mode)
        np.testing.assert_array_equal(reweighted.terms, public.terms)
        np.testing.assert_array_equal(reweighted.values(2), public.values(2))
