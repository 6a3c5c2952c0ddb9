"""The quadrature engine's one block loop against the level-by-level sequence.

`reference_integrate_vec` keeps the adaptive loop the engine ran before every
level went through the block loop: each refinement level is one integrand
call on all its nodes, summed by one matrix-vector product.  A pass whose
levels fit in one block must give its values and error estimate bit for bit
(levels 0 and 1 now share one integrand call, each summed from its own
contiguous part).  A level above the block size adds its blocks' sums in
node order instead: the same acceptance level, and every component within
4 eps int|f| of the reference.  The package's moment passes over Gaussians
and mixtures, and its passes over sampled data, take closed forms, so
those passes run the quadrature routes of `references`; the package's own
passes over a Bump and a ring Gaussian keep the engine, and run as they
are.  Integrand memory no longer grows with
the sample count, which the tracemalloc bounds at the end pin, as they pin
the blocks of the closed forms of sampled line data.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from heatseries import kernels, quad, series_cartesian, series_polar
from heatseries.profiles import Bump, Gaussian, Mixture, Sampled1D
from heatseries.specfun import KernelParams
from heatseries.variants import VARIANTS
import references
from references import quad_settings

EPS = float(np.finfo(float).eps)

# --- reference: the level-by-level sequence ------------------------------------------


def whole_level(edges, rule):
    """Nodes and weights of a whole level, built at once: the rule on every panel."""
    xg, wg = rule
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * xg[None, :]).ravel(), (half[:, None] * wg[None, :]).ravel()


def _reference_level_sum(f, edges, rule):
    nodes, weights = whole_level(edges, rule)
    vals = quad._values(f, nodes)
    owned = vals.flags.owndata and vals.flags.writeable
    with np.errstate(over="ignore", invalid="ignore"):
        total = vals @ weights
        l1 = np.abs(vals, out=vals if owned else None) @ weights
    if not np.all(np.isfinite(total)):
        raise OverflowError(f"quadrature level sum is not finite on [{float(edges[0])}, {float(edges[-1])}]")
    return total, l1


def reference_integrate_vec(f, lo, hi, breakpoints=None):
    """(values, err_estimate, int|f| of the accepted level), one call per
    level, at the engine's constants as they are set when it is called."""
    edges = quad._panel_edges(lo, hi, min(8, quad.MAX_PANELS), breakpoints)
    rule = quad._gl_rule(quad.NODES_PER_PANEL)
    prev, _ = _reference_level_sum(f, edges, rule)
    while True:
        edges = quad._bisect(edges)
        cur, l1 = _reference_level_sum(f, edges, rule)
        diff = np.abs(cur - prev)
        tol = np.maximum(quad.ABS_TOL, np.maximum(quad.REL_TOL * np.abs(cur), 32.0 * EPS * l1))
        if np.all(diff <= tol):
            return cur, float(np.max(diff)), l1
        if edges.size - 1 >= quad.MAX_PANELS:
            raise quad.AccuracyError(
                f"quadrature did not reach tolerance within {quad.MAX_PANELS} panels on [{lo}, {hi}]",
                cur,
                float(np.max(diff)),
            )
        prev = cur


def reference_block_sums(f, nodes, weights):
    """A level's sums from its whole node and weight arrays, cut into blocks
    of BLOCK_NODES nodes."""
    parts = []
    for start in range(0, nodes.size, quad.BLOCK_NODES):
        block = slice(start, start + quad.BLOCK_NODES)
        vals = quad._values(f, nodes[block])
        parts.append(quad._sums(vals, weights[block], quad._owned(vals)))
    return tuple(functools.reduce(np.add, column) for column in zip(*parts))


# --- helpers ---------------------------------------------------------------------------


def bitwise_equal(a, b) -> bool:
    """Same dtype, shape and values, signed zeros and nans included (the
    padding bytes of np.longdouble carry no value)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def counted(f, sizes):
    """f, recording the node count of every call in sizes."""

    def wrapper(x):
        sizes.append(x.size)
        return f(x)

    return wrapper


def adaptive_passes(modules, call):
    """(integrand, args, kwargs) of every integrate_vec call a call makes."""
    seen = []
    originals = {module: module.integrate_vec for module in modules}

    def spy(f, *args, **kwargs):
        seen.append((f, args, kwargs))
        return quad.integrate_vec(f, *args, **kwargs)

    for module in modules:
        module.integrate_vec = spy
    try:
        call()
    finally:
        for module, original in originals.items():
            module.integrate_vec = original
    return seen


def outcome(run):
    """The result of run(), or the type and text of what it raised."""
    try:
        return run()
    except (OverflowError, ValueError, quad.AccuracyError) as exc:
        return type(exc), str(exc), getattr(exc, "value", None), getattr(exc, "err_estimate", None)


LINE_MIX = Mixture((Gaussian(0.9, -0.5, 1.0), Gaussian(1.4, 0.7, 0.7)))
POLAR_MIX = Mixture((Gaussian(0.9, 0.0, 1.0), Gaussian(1.3, 0.0, 0.8)))
PARAMS = KernelParams(tau=0.3, beta=1.1)
COEFFS = {
    (True, "line"): series_cartesian.cd_coeffs,
    (False, "line"): series_cartesian.ci_coeffs,
    (True, "polar"): series_polar.pd_coeffs,
    (False, "polar"): series_polar.pi_coeffs,
}


def variant_pass(variant, n):
    """The quadrature passes of one variant's coefficients on the mixtures,
    as the package made them before the closed forms took them: one per
    line C centre at order 2n, the plane C pass in np.longdouble."""
    row = VARIANTS[variant]
    root = row.moment_root(PARAMS)
    if row.geometry == "polar":
        dtype = np.longdouble if row.pointwise else float
        return lambda: references.w_moments_by_quadrature(POLAR_MIX, root, n, dtype)
    if not row.pointwise:
        return lambda: references.hermite_moments_by_quadrature(LINE_MIX, root, n, weighted=row.weighted)
    centres = np.unique(series_cartesian._centres(np.linspace(-3.0, 3.0, 7), root, n))
    return lambda: [references.hermite_moments_by_quadrature(LINE_MIX, root, 2 * n, center=float(c)) for c in centres]


def package_pass(variant, data, n):
    """The package's own coefficient pass, for data its closed forms leave
    to the quadrature."""
    row = VARIANTS[variant]
    points = np.linspace(-3.0, 3.0, 7) if row.geometry == "line" else np.linspace(0.0, 3.0, 7)
    fn = COEFFS[(row.direct, row.geometry)]
    return lambda: fn(variant, data, PARAMS, n, points)


ONE_BLOCK = {f"{variant}-N{n}": variant_pass(variant, n) for variant in VARIANTS for n in (0, 8, 40)}
ONE_BLOCK["CD-C-bump-N40"] = package_pass("CD-C", Bump(0.3, 2.0), 40)
ONE_BLOCK["CI-B-bump-N40"] = package_pass("CI-B", Bump(0.3, 2.0), 40)
ONE_BLOCK["PD-C-ring-N40"] = package_pass("PD-C", Gaussian(0.9, 1.5, 1.0), 40)
ONE_BLOCK["PI-A-bump-N40"] = package_pass("PI-A", Bump(0.0, 2.0), 40)
ONE_BLOCK["oracle-line"] = lambda: kernels.forward_line(LINE_MIX, 0.5, np.linspace(-3.0, 3.0, 121))
ONE_BLOCK["oracle-polar"] = lambda: kernels.forward_polar(POLAR_MIX, 0.5, np.linspace(0.0, 3.0, 61))
MODULES = (kernels, series_cartesian, series_polar, references)


# --- equality with the reference -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ONE_BLOCK))
def test_passes_within_one_block_are_the_reference_bit_for_bit(name):
    passes = adaptive_passes(MODULES, ONE_BLOCK[name])
    assert passes
    for f, args, kwargs in passes:
        sizes, ref_sizes = [], []
        vals, err = quad.integrate_vec(counted(f, sizes), *args, **kwargs)
        ref_vals, ref_err, _ = reference_integrate_vec(counted(f, ref_sizes), *args, **kwargs)
        assert max(ref_sizes) <= quad.BLOCK_NODES  # every level fits in one block
        assert bitwise_equal(vals, ref_vals)
        assert err == ref_err
        assert sum(sizes) == sum(ref_sizes)
        assert len(sizes) == len(ref_sizes) - 1  # levels 0 and 1 in one call
    if name.startswith(("PD-C", "PI-C")):
        assert vals.dtype == np.longdouble


LINE_FILE = Sampled1D(-10.0, 10.0, np.exp(-np.linspace(-10.0, 10.0, 1601) ** 2 / 5.2) * 0.877)
POLAR_FILE = Sampled1D(0.0, 10.0, np.exp(-np.linspace(0.0, 10.0, 1601) ** 2 / 5.2) * 0.77)
ABOVE_BLOCK = {
    # the package takes the closed forms on sampled line data; these are
    # their quadrature routes
    "CI-B-file": lambda: references.weighted_moments_by_quadrature(LINE_FILE, VARIANTS["CI-B"].moment_root(PARAMS), 40),
    "oracle-line-file": lambda: references.line_oracle_by_quadrature(LINE_FILE, 0.5, np.linspace(-3.0, 3.0, 121)),
    "oracle-polar-file": lambda: kernels.forward_polar(POLAR_FILE, 0.5, np.linspace(0.0, 3.0, 61)),
    # the radial moments under a root wider than the data take the engine
    "radial-file-wide-root": lambda: series_polar._w_radial_moments(POLAR_FILE, 6.0, 40),
}


@pytest.mark.parametrize("name", sorted(ABOVE_BLOCK))
def test_levels_above_the_block_size_stay_within_rounding_of_the_reference(name):
    (f, args, kwargs), = adaptive_passes(MODULES, ABOVE_BLOCK[name])
    sizes, ref_sizes = [], []
    vals, _ = quad.integrate_vec(counted(f, sizes), *args, **kwargs)
    ref_vals, _, l1 = reference_integrate_vec(counted(f, ref_sizes), *args, **kwargs)
    assert min(ref_sizes) > quad.BLOCK_NODES
    assert max(sizes) <= quad.BLOCK_NODES
    assert sum(sizes) == sum(ref_sizes)  # the same acceptance level
    assert np.all(np.abs(vals - ref_vals) <= 4.0 * EPS * l1)


def test_sampled_line_passes_take_no_quadrature():
    # the closed forms of the same two passes: no integrand, and the
    # quadrature route's values up to its acceptance test (rel_tol |I| or
    # the 32 eps int|f| floor, read off the reference's accepted level)
    root, x = VARIANTS["CI-B"].moment_root(PARAMS), np.linspace(-3.0, 3.0, 121)
    cases = [
        (lambda: series_cartesian.ci_coeffs("CI-B", LINE_FILE, PARAMS, 40), ABOVE_BLOCK["CI-B-file"]),
        (lambda: kernels.forward_line(LINE_FILE, 0.5, x), ABOVE_BLOCK["oracle-line-file"]),
    ]
    assert root == math.sqrt(PARAMS.beta)
    for closed, route in cases:
        assert adaptive_passes(MODULES, closed) == []
        (f, args, kwargs), = adaptive_passes(MODULES, route)
        ref, _, l1 = reference_integrate_vec(f, *args, **kwargs)
        assert np.all(np.abs(closed() - ref) <= np.maximum(quad.REL_TOL * np.abs(ref), 32.0 * EPS * l1))


@pytest.mark.parametrize(
    "closed, route",
    [
        (lambda r: series_cartesian._hermite_moments(LINE_MIX, r, 16, center=1.7),
         lambda r: references.hermite_moments_by_quadrature(LINE_MIX, r, 16, center=1.7)),
        (lambda r: series_cartesian._hermite_moments(LINE_MIX, r, 16, weighted=True),
         lambda r: references.hermite_moments_by_quadrature(LINE_MIX, r, 16, weighted=True)),
        (lambda r: series_polar._w_radial_moments(POLAR_MIX, r, 16),
         lambda r: references.w_moments_by_quadrature(POLAR_MIX, r, 16)),
        (lambda r: series_polar._w_radial_moments(POLAR_MIX, r, 16, dtype=np.longdouble),
         lambda r: references.w_moments_by_quadrature(POLAR_MIX, r, 16, np.longdouble)),
    ],
    ids=["line", "line-weighted", "polar", "polar-longdouble"],
)
def test_analytic_moment_passes_take_no_quadrature(closed, route):
    # the closed forms of the mixtures' moments: no integrand, and the
    # quadrature route's values up to its acceptance test at an order whose
    # moments the route's 12-sigma window holds (at order 40 in the plane
    # and 80 on the line the window cuts off moments far above that floor;
    # test_exact_moments checks the closed forms there against mpmath)
    root = math.sqrt(PARAMS.beta)
    assert adaptive_passes(MODULES, lambda: closed(root)) == []
    (f, args, kwargs), = adaptive_passes(MODULES, lambda: route(root))
    ref, _, l1 = reference_integrate_vec(f, *args, **kwargs)
    got = closed(root)
    assert got.dtype == ref.dtype
    assert np.all(np.abs(got - ref) <= np.maximum(quad.REL_TOL * np.abs(ref), 32.0 * EPS * l1))


def test_longdouble_sums_take_np_dot_with_the_bits_of_matmul():
    # np.dot sums np.longdouble rows in under half the time of numpy's
    # longdouble matmul loop, with its bits in every layout; float64 keeps
    # matmul, whose bits np.dot does not give for 3-D or strided values
    rng = np.random.default_rng(7)
    weights = rng.random(700)
    for shape in [(700,), (1, 700), (41, 700), (3, 5, 700)]:
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, size=shape)
        for dtype in (float, np.longdouble):
            base = vals.astype(dtype)
            for layout in (base, base[..., ::-1], np.asfortranarray(base)):
                want = (layout @ weights, np.abs(layout) @ weights)
                assert all(bitwise_equal(a, b) for a, b in zip(quad._sums(layout, weights, False), want))
                if dtype is np.longdouble:
                    assert bitwise_equal(np.dot(layout, weights), want[0])


@pytest.mark.parametrize("size", [3, 16, 21, 41])
def test_each_block_is_built_from_its_own_panels_bit_for_bit(size):
    # blocks of BLOCK_NODES nodes start inside a panel unless the rule's size
    # divides it; each is the same slice of the whole level, and so are the sums
    rule = quad._gl_rule(size)
    edges = quad._panel_edges(-10.0, 10.0, 8, np.linspace(-10.0, 10.0, 1601))
    nodes, weights = whole_level(edges, rule)
    for start in range(0, nodes.size, quad.BLOCK_NODES):
        stop = min(start + quad.BLOCK_NODES, nodes.size)
        block_nodes, block_weights = quad._level(edges, rule, start, stop)
        assert bitwise_equal(block_nodes, nodes[start:stop])
        assert bitwise_equal(block_weights, weights[start:stop])
    f = lambda x: np.vstack([np.sin(x), np.exp(-x * x), x ** 3])  # noqa: E731
    got, want = quad._block_sums(f, edges, rule), reference_block_sums(f, nodes, weights)
    assert len(got) == len(want) == 2 and all(bitwise_equal(a, b) for a, b in zip(got, want))


# --- the engine's contract -------------------------------------------------------------

SPAN = (0.0, 2.0)
RULE = quad._gl_rule(quad.NODES_PER_PANEL)
LEVEL_1 = whole_level(quad._bisect(quad._panel_edges(0.0, 2.0, 8, None)), RULE)[0]


def level_1_fails(with_error):
    def f(x):
        if with_error and np.isin(x, LEVEL_1).any():
            raise ValueError("the integrand fails on level-1 nodes")
        return np.vstack([np.cos(x), np.where(np.isin(x, LEVEL_1), np.inf, 1.0)])

    return f


def needle(x):
    return np.exp(-((x / 1e-4) ** 2))[None, :]


@pytest.mark.parametrize(
    "f, spec",
    [
        (lambda x: np.vstack([np.ones_like(x), np.full_like(x, np.nan)]), {}),  # level 0
        (level_1_fails(False), {}),  # non-finite on level 1 only
        (level_1_fails(True), {}),  # raises on level-1 nodes only
        (needle, dict(REL_TOL=1e-13, ABS_TOL=1e-300, MAX_PANELS=8)),  # AccuracyError at level 1
        (needle, dict(REL_TOL=1e-13, ABS_TOL=1e-300, MAX_PANELS=64)),  # AccuracyError later
        (lambda x: np.ones(3), {}),  # not vectorised
    ],
)
def test_exceptions_are_those_of_the_level_by_level_sequence(f, spec):
    with quad_settings(**spec):
        got = outcome(lambda: quad.integrate_vec(f, *SPAN))
        want = outcome(lambda: reference_integrate_vec(f, *SPAN)[:2])
    assert isinstance(got[0], type) and got[:2] == want[:2]
    if got[0] is quad.AccuracyError:
        assert bitwise_equal(got[2], want[2]) and got[3] == want[3]


def test_a_non_finite_level_0_raises_after_one_call():
    sizes = []
    f = counted(lambda x: np.vstack([np.ones_like(x), np.full_like(x, np.inf)]), sizes)
    with pytest.raises(OverflowError, match=r"not finite on \[0.0, 2.0\]"):
        quad.integrate_vec(f, *SPAN)
    assert sizes == [3 * 8 * 16]


def test_a_paired_call_that_fails_is_run_level_by_level():
    sizes = []

    def f(x):  # fails on the paired call alone
        sizes.append(x.size)
        if x.size > 256:
            raise MemoryError("too many nodes at once")
        return np.vstack([np.sin(x), x * x])

    vals, err = quad.integrate_vec(f, *SPAN)
    ref_vals, ref_err, _ = reference_integrate_vec(f, *SPAN)
    assert bitwise_equal(vals, ref_vals) and err == ref_err
    assert sizes[:3] == [384, 128, 256]


def test_call_counts_and_node_totals():
    sizes = []
    vals, _ = quad.integrate_vec(counted(lambda x: np.vstack([np.ones_like(x), x]), sizes), *SPAN)
    assert sizes == [3 * 8 * 16]  # accepted at level 1: one call
    assert vals == pytest.approx([2.0, 2.0], rel=1e-15)
    # a pass with levels above the block size: no call beyond it, the same node total
    nodes = np.linspace(0.0, 2.0, 801)
    sizes, ref_sizes = [], []
    f = lambda x: np.vstack([np.sin(x), np.exp(-x * x)])  # noqa: E731
    quad.integrate_vec(counted(f, sizes), *SPAN, breakpoints=nodes)
    reference_integrate_vec(counted(f, ref_sizes), *SPAN, breakpoints=nodes)
    assert max(sizes) == quad.BLOCK_NODES and sum(sizes) == sum(ref_sizes)


@pytest.mark.parametrize("breakpoints", [None, np.linspace(0.0, 2.0, 801)])
def test_arrays_the_integrand_does_not_own_are_never_written(breakpoints):
    held = []

    def one_row_view(x):  # as references.integrate hands over a scalar integrand's array
        held.append(np.sin(x) - 2.0)
        return held[-1][None, :]

    def read_only(x):
        held.append(np.vstack([np.sin(x) - 2.0, np.cos(x) - 2.0]))
        held[-1].flags.writeable = False
        return held[-1]

    for f in (one_row_view, read_only):
        held.clear()
        vals, _ = quad.integrate_vec(f, *SPAN, breakpoints=breakpoints)
        assert np.all(vals < 0.0)
        assert held and all(np.all(arr < 0.0) for arr in held)  # never replaced by magnitudes


# --- memory: integrand arrays bounded by the block, not by the sample count ------------

BIG_NODES = np.linspace(-10.0, 10.0, 16001)
BIG_FILE = Sampled1D(-10.0, 10.0, np.sqrt(1.0 / 1.3) * np.exp(-BIG_NODES ** 2 / 5.2))
MIB = 1 << 20


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda: series_cartesian.ci_coeffs("CI-B", BIG_FILE, KernelParams(tau=0.3, beta=1.0), 40),
        lambda: kernels.forward_line(BIG_FILE, 0.5, np.linspace(-3.0, 3.0, 121)),
        lambda: series_cartesian.cd_coeffs("CD-C", BIG_FILE, KernelParams(tau=0.3, beta=1.0), 40, 0.0),
        lambda: series_cartesian.cd_coeffs("CD-C", BIG_FILE, KernelParams(tau=0.3, beta=1.0), 40,
                                           np.linspace(-3.0, 3.0, 121)),
    ],
    ids=["CI-B-moments-N40", "oracle-line-121", "CD-C-moments-N40", "CD-C-grid-121"],
)
def test_a_16001_node_pass_peaks_below_32_mib(call):
    assert traced_peak(call) < 32 * MIB


def test_the_closed_form_moments_hold_one_block_of_rows():
    # CD-C's order-80 moments of BIG_FILE: 83 longdouble Hermite rows are
    # 5.4 MB per block of BLOCK_NODES nodes and 21 MB for all 16 001 nodes
    params = KernelParams(tau=0.3, beta=1.0)
    peak = traced_peak(lambda: series_cartesian.cd_coeffs("CD-C", BIG_FILE, params, 40, 0.0))
    assert peak < 83 * quad.BLOCK_NODES * np.dtype(np.longdouble).itemsize + 4 * MIB


def test_the_closed_form_oracle_holds_less_than_one_integrand_block():
    # 121 points: one quadrature block of the kernel integrand is 121 x
    # BLOCK_NODES float64 values (3.8 MiB); the closed form's blocks of about
    # kernels._CACHE_BLOCK values keep its whole pass below that
    peak = traced_peak(lambda: kernels.forward_line(BIG_FILE, 0.5, np.linspace(-3.0, 3.0, 121)))
    assert peak < 121 * quad.BLOCK_NODES * 8


def test_the_engine_never_holds_a_whole_level():
    # a cheap integrand on 64 001 breakpoints: level 1 has 2 048 000 nodes,
    # 31 MiB of nodes and weights at once; the engine holds a block of them
    nodes = np.linspace(-10.0, 10.0, 64001)
    peak = traced_peak(lambda: quad.integrate_vec(lambda x: np.exp(-x * x)[None, :], -10.0, 10.0, breakpoints=nodes))
    assert peak < 8 * MIB
