"""The twelve shifted-series variants as one table, and the evaluation path
they share.

Every variant is a moment pass at one time scale followed by a truncated sum
at another.  With s = tau + beta, one row of VARIANTS records:

* geometry (line: Hermite polynomials; polar: the radial polynomials W_j
  with the measure xi dxi) and direction (direct CD/PD, inverse CI/PI);
* the moment scale: the polynomials take xi / (2 sqrt(moment));
* for A/B, the times (arg, num, den, pref) of the sum: basis polynomials at
  x / (2 sqrt(arg)), a per-order ratio num/den (its square root on the line)
  and the heat-kernel prefactor at time pref (none for CI-B, whose moments
  carry the kernel at time beta instead);
* for C, whose coefficients depend on the evaluation point, the constants
  kappa_j for each constants mode; the published ("paper_literal") ones fail
  the oracle certification by the ratios recorded in ERRATA.md;
* the beta alignment that matches the moment scale with the data scale.

A C variant's coefficients depend on the evaluation point.  Where the data
has its moments about every point in closed form (Gaussians and mixtures on
the line), each point takes its own; otherwise moments like the A
sibling's, which do not depend on the point, are recombined at each point
by an addition theorem (`recombine`, Horner's rule over a triangular
table; series_cartesian and series_polar say about which centre and in
which precision).

Evaluation builds the term matrix (orders x points), stops early after
EARLY_STOP_RUN consecutive rows below EARLY_STOP_TOL (one threshold for
every series; no caller sets another), sums each point over its kept rows
in ascending order (one rule for every series and grid), and scans every
point's term magnitudes for divergence.  The early stop's run of small
rows and the scan's run of growing terms are both shifted ANDs; the scan
(`_scan`) lists every point's visible terms column after column in one
flat array and finds each point's first growth run there, with no sort
and no accumulate down the orders.  The matrix is kept whole
(`SeriesTerms`, the one result of every evaluation): a grid solve reads
one order's values and flags from it (`values`, `flagged`), and an order
sweep reads every order's in one call (`sweep`).  A/B rows stop
together (the largest term of a row decides); every C column is a series
of its own, with its own early stop and overflow row, and keeps its point
and coefficients: `SeriesTerms.check` names the first overflowing point
("CD-C at x = 100: ..."), for a grid solve and a library caller alike.

Each series module describes its geometry by a `Geometry` record (the
basis batch, the kernel's normaliser, the weight ratio and update, the moment
pass, the C builder, the point check); the rest of a solve lives here once:
`coeffs`, `evaluate` (with `basis_terms`, CI-classical's too) and
`solve_grid`, which the CLI, the audit and every order sweep reach through
`solve_grid_line` and `solve_grid_polar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .specfun import KernelParams

LINE, POLAR = "line", "polar"
CLASSICAL = "CI-classical"  # the derivative-based line baseline; no shift, no table row
CONSTANTS_MODES = ("oracle_validated", "paper_literal")
AXIS = {LINE: "x", POLAR: "r"}

EARLY_STOP_RUN = 3  # consecutive sub-threshold terms before stopping
EARLY_STOP_TOL = 1e-14  # the threshold: a term below it is negligible
GROWTH_RUN = 5      # consecutive growing terms (from index >= 4) that flag divergence
GROWTH_MIN_INDEX = 4
GROWTH_NOISE_REL = 1e-12  # terms this far under the running max count as zero

# the times a formula scales by
TIMES = {
    "beta": lambda p: p.beta,
    "tau+beta": lambda p: p.shifted,
    "2tau+beta": lambda p: 2.0 * p.tau + p.beta,
    "beta-tau": lambda p: p.beta - p.tau,
}
_B, _S, _D, _E = "beta", "tau+beta", "2tau+beta", "beta-tau"  # shorthand for the table


class Constants(NamedTuple):
    """kappa_0 and kappa_{j+1} = kappa_j * rho / step(j) of a C variant."""

    kappa0: Callable
    rho: Callable
    step: Callable


_FACT = lambda j: j + 1                        # noqa: E731  kappa_j ~ rho^j / j!
_FACT2 = lambda j: (2 * j + 1) * (2 * j + 2)   # noqa: E731  rho^j / (2j)!
_HALF = lambda j: 2 * (2 * j + 1)              # noqa: E731  rho^j j! / (2j)!
_GAMMA = lambda j: 4 * (j + 1)                 # noqa: E731  the published Gamma(j+1/2) form


@dataclass(frozen=True)
class Variant:
    name: str
    geometry: str
    direct: bool
    moment: str
    alignment: str            # beta_rule alignment matching the moment scale
    scales: tuple = ()        # A/B: times (arg, num, den, pref); pref None: no prefactor
    constants: tuple = ()     # C: Constants per constants mode
    weighted: bool = False    # moments weighted by the heat kernel at time beta (CI-B)

    @property
    def pointwise(self) -> bool:
        """C variants: the coefficients depend on the evaluation point."""
        return bool(self.constants)

    def moment_root(self, params) -> float:
        return math.sqrt(TIMES[self.moment](params))

    def times(self, params) -> tuple:
        """(arg, num, den, pref) of an A/B sum."""
        out = tuple(None if t is None else TIMES[t](params) for t in self.scales)
        if any(t is not None and t <= 0.0 for t in out):
            raise ValueError(
                f"{self.name} requires beta > tau (the shift must exceed the horizon); "
                f"got beta={params.beta}, tau={params.tau}"
            )
        return out

    def kappa(self, params, mode: str, n: int) -> np.ndarray:
        """kappa_0 .. kappa_n of a C sum."""
        c = self.constants[CONSTANTS_MODES.index(mode)]
        rho = c.rho(params)
        return ratio_products(c.kappa0(params), n, lambda k, j: k * (rho / c.step(j)))


# name, geometry, direct, moment time, alignment; then the A/B times
# (arg, num, den, pref) or the C constants (oracle_validated, paper_literal)
VARIANTS = {v.name: v for v in (
    Variant("CD-A", LINE, True, _B, "plain", scales=(_S, _B, _S, _S)),
    Variant("CD-B", LINE, True, _S, "shifted", scales=(_D, _S, _D, _D)),
    Variant("CD-C", LINE, True, _B, "plain", constants=(
        Constants(lambda p: 1.0 / (2.0 * math.sqrt(math.pi * p.shifted)),
                  lambda p: -p.beta / (4.0 * p.shifted), _FACT),
        Constants(lambda p: 1.0 / (2.0 * math.sqrt(p.shifted)),
                  lambda p: -p.beta / (8.0 * p.shifted), _FACT),
    )),
    Variant("CI-A", LINE, False, _S, "shifted", scales=(_B, _S, _B, _B)),
    Variant("CI-B", LINE, False, _B, "shifted", scales=(_S, _S, _B, None), weighted=True),
    Variant("CI-C", LINE, False, _S, "shifted", constants=(
        Constants(lambda p: 1.0 / (2.0 * math.sqrt(math.pi * p.beta)),
                  lambda p: -p.shifted / (4.0 * p.beta), _FACT),
        Constants(lambda p: 1.0 / (2.0 * math.sqrt(math.pi * p.beta)),
                  lambda p: -p.shifted / (8.0 * p.beta), _FACT2),
    )),
    Variant("PD-A", POLAR, True, _B, "plain", scales=(_S, _B, _S, _S)),
    Variant("PD-B", POLAR, True, _S, "shifted", scales=(_D, _S, _D, _D)),
    Variant("PD-C", POLAR, True, _B, "plain", constants=(
        Constants(lambda p: 1.0 / (2.0 * math.pi * p.shifted), lambda p: -p.beta / p.shifted, _HALF),
        Constants(lambda p: math.sqrt(math.pi) / (2.0 * math.sqrt(p.shifted)),
                  lambda p: -p.beta / p.shifted, _GAMMA),
    )),
    Variant("PI-A", POLAR, False, _S, "shifted", scales=(_B, _S, _B, _B)),
    Variant("PI-B", POLAR, False, _B, "plain", scales=(_E, _B, _E, _E)),
    Variant("PI-C", POLAR, False, _S, "shifted", constants=(
        Constants(lambda p: 1.0 / (2.0 * math.pi * p.beta), lambda p: -p.shifted / p.beta, _HALF),
        Constants(lambda p: math.sqrt(math.pi) / (2.0 * math.sqrt(p.tau)),
                  lambda p: -p.shifted / p.tau, _GAMMA),
    )),
)}


def variant_names(geometry: str | None = None, direct: bool | None = None) -> tuple:
    """Table order: CD, CI, PD, PI, each A/B/C."""
    return tuple(
        v.name for v in VARIANTS.values()
        if geometry in (None, v.geometry) and direct in (None, v.direct)
    )


def lookup(name: str, geometry: str | None = None, direct: bool | None = None) -> Variant:
    """The row of a variant that must belong to the given geometry and direction."""
    if name not in variant_names(geometry, direct):
        kind = {None: "", True: "direct ", False: "inverse "}[direct] + (f"{geometry} " if geometry else "")
        raise ValueError(f"unknown {kind}variant {name!r}")
    return VARIANTS[name]


def geometry_of(name: str) -> str:
    return LINE if name == CLASSICAL else lookup(name).geometry


def check_mode(mode: str) -> None:
    if mode not in CONSTANTS_MODES:
        raise ValueError(f"unknown constants_mode {mode!r}; choose from {CONSTANTS_MODES}")


# --- shift choice -------------------------------------------------------------

def beta_rule(scale_estimate: float, tau: float, alignment: str = "shifted") -> float:
    """Shift choice aligning a variant's moment scale with the data scale.

    alignment "shifted" (moments at sqrt(tau+beta); the B variants and every
    inverse A/C variant): beta = max(scale - tau, tau/2).  alignment "plain"
    (moments at sqrt(beta); the direct A/C variants and PI-B):
    beta = max(scale, tau/2).  Either way the matched scale truncates the
    series exactly for pure Gaussians and the tau/2 floor keeps beta away
    from 0.  Feed the measured data scale: the profile width for a direct
    solve, the evolved width for an inverse one.
    """
    if not (math.isfinite(scale_estimate) and scale_estimate > 0.0):
        raise ValueError(f"scale estimate must be positive and finite, got {scale_estimate}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if alignment == "shifted":
        return max(scale_estimate - tau, 0.5 * tau)
    if alignment == "plain":
        return max(scale_estimate, 0.5 * tau)
    raise ValueError(f"unknown alignment {alignment!r}; choose 'shifted' or 'plain'")


def default_beta(variant: str, scale_estimate: float, tau: float) -> float:
    """beta_rule with the alignment appropriate to the variant."""
    if variant == CLASSICAL:
        raise ValueError("CI-classical has no shift parameter")
    return beta_rule(scale_estimate, tau, lookup(variant).alignment)


# --- evaluation -----------------------------------------------------------------

def ratio_products(first: float, n: int, update) -> np.ndarray:
    """out[0] = first, out[j+1] = update(out[j], j): factorial-bearing weights
    by multiplicative updates, never by factorials, in the precision of first
    (float64 for a Python number)."""
    out = np.empty(n + 1, dtype=np.result_type(first, 1.0))
    out[0] = first
    with np.errstate(over="ignore", invalid="ignore"):  # an inf weight makes its terms fail `check`
        for j in range(n):
            out[j + 1] = update(out[j], j)
    return out


def ratio_weighted(coeffs: np.ndarray, update) -> np.ndarray:
    """coeffs[j] times the weights ratio_products(1.0, n, update).  A row
    whose float64 weight underflows (the factorials outgrow the powers: past
    j of about 90 in the plane) while its coefficient is not 0 takes the
    weight in np.longdouble, so its term is neither dropped nor rounded to
    the few bits of a subnormal."""
    w = ratio_products(1.0, coeffs.size - 1, update)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product fails the series check
        out = coeffs * w
        low = (w < np.finfo(float).tiny) & (coeffs != 0.0)
        if np.any(low):
            wide = ratio_products(np.longdouble(1.0), coeffs.size - 1, update)
            out[low] = (coeffs[low] * wide[low]).astype(float)
    return out


def recombine(tables: np.ndarray, x, shift, which=None) -> np.ndarray:
    """C coefficients at the points x from moments that do not depend on them.

    Column k is sum_d table[:, d] u_k^d with u_k = shift(x_k), the addition
    theorem of the geometry written as a polynomial in u (orders x points;
    1-D for a scalar x).  tables is one table (orders x powers) for every
    point, or a stack of them with which[k] the index of point k's.  A
    table is triangular: row j has degree s j, s = (powers - 1)/(orders -
    1) (2 on the line, 1 in the plane), and its entries past that degree
    are never read (the line's C(2j, d) and the plane's C(2j, 2d) are 0
    there).  The sum runs in the tables' precision, by Horner's
    rule from the top power down, in place: each power updates only the
    rows whose degree reaches it, a suffix of the orders, and a stack's
    entries are gathered per point for that suffix alone.  Each column's
    arithmetic is its own, so a point's coefficients do not depend on the
    others.  Returns float64, an exact zero as +0.  Where the sum overflows, or u is not finite, the column
    is not finite and the evaluation at that point raises OverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = shift(np.atleast_1d(np.asarray(x, dtype=tables.dtype)))
        stack = tables.reshape((-1,) + tables.shape[-2:])
        orders, powers = stack.shape[1:]
        step = max((powers - 1) // max(orders - 1, 1), 1)  # degree per order
        # powers x orders x tables: a lone table's rows broadcast over the
        # points, a stack's are taken per point from contiguous rows
        by_power = np.ascontiguousarray(stack.transpose(2, 1, 0))
        lone = stack.shape[0] == 1
        acc = np.zeros((orders, u.size), dtype=tables.dtype)
        for d in range(powers - 1, -1, -1):
            j = -(-d // step)  # the orders from j on have degree step j >= d
            rows = acc[j:]  # a view: updated in place, with no copy back
            rows *= u
            rows += by_power[d, j:] if lone else by_power[d, j:].take(which, axis=1)
        acc += 0.0  # -0 to +0
        coeffs = acc.astype(float, copy=False)
    return coeffs[:, 0] if np.ndim(x) == 0 else coeffs


def _runs(flags: np.ndarray, length: int) -> np.ndarray:
    """Row i is True where rows i .. i + length - 1 of flags all are, down
    axis 0: length - 1 shifted ANDs, one row per run start (none if flags
    has fewer than length rows)."""
    n = max(flags.shape[0] - length + 1, 0)
    runs = flags[:n].copy()
    for k in range(1, length):
        runs &= flags[k:k + n]
    return runs


def _visible(mags: np.ndarray) -> np.ndarray:
    """The terms the divergence scan sees: those above GROWTH_NOISE_REL times
    the running max of their column (floored at 1e-300).  Exact zeros,
    rounding noise and every term from a non-finite one on are skipped.  The
    running max doubles its span each step, so it takes log2(rows) maxima of
    the whole matrix instead of an accumulate down each column."""
    running = np.maximum(mags, 1e-300)
    span = 1
    while span < running.shape[0]:
        running[span:] = np.maximum(running[span:], running[:-span])
        span *= 2
    return mags > GROWTH_NOISE_REL * running


def _scan(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divergence scan of every column of a magnitude matrix.

    A column is flagged where GROWTH_RUN of its visible terms (`_visible`)
    in a row each exceed the one before, the run starting at row
    GROWTH_MIN_INDEX or later.  Returns, per column, the row at which the
    flag fires (the row count if it never does) and the row its first run
    starts at (-1 if none).  Whether a row fires depends on the rows above
    it only, so a truncation to L rows is flagged exactly when its column
    fires at a row below L.

    The scan is one flat pass over every column's visible terms, listed
    column after column in ascending rows: the growths are compared once,
    a run is GROWTH_RUN - 1 shifted ANDs of them, and it counts only if it
    starts and ends in one column.  Nothing is sorted.
    """
    rows, cols = mags.shape
    at = np.flatnonzero(_visible(mags).T)  # column after column, rows ascending
    col = at // rows
    row = at - col * rows
    seq = mags.T.ravel()[at]
    hit = _runs(seq[1:] > seq[:-1], GROWTH_RUN)  # seq[i] < seq[i + 1] < ... < seq[i + GROWTH_RUN]
    n = hit.size
    hit &= (col[GROWTH_RUN:] == col[:n]) & (row[:n] >= GROWTH_MIN_INDEX)
    start = np.flatnonzero(hit)
    first = np.ones(start.size, dtype=bool)  # each column's first run
    first[1:] = col[start[1:]] != col[start[:-1]]
    start = start[first]
    fires, growth = np.full(cols, rows), np.full(cols, -1)
    fires[col[start]] = row[start + GROWTH_RUN]
    growth[col[start]] = row[start]
    return fires, growth


@dataclass(frozen=True)
class SeriesTerms:
    """A truncated series at a set of points, with every order's answer.

    terms is the full (n+1, points) matrix.  The order-m truncation keeps
    rows(m) rows: the early stop depends on the rows above it only, as does
    the divergence scan, so slicing gives exactly what a separate evaluation
    at order m would.  stop and finite are one count for the grid (A/B: the
    largest term of a row decides), or one per point when every column is a
    series of its own (C: `pointwise_terms`).  Every column is summed over
    its kept rows in ascending order, from +0, so a point's sum depends on
    its own terms and stop only.  One order is read by `values` and
    `flagged`; any number of them by one `sweep`, whose every row is that
    order's `values`.
    """

    terms: np.ndarray
    stop: int | np.ndarray    # rows kept by the early stop at full order
    finite: int | np.ndarray  # rows before the first non-finite term
    fires: np.ndarray         # per point: the row at which divergence is flagged
    growth: np.ndarray        # per point: the first growth index, -1 if none
    points: np.ndarray | None = None  # C: the evaluation points, one per column
    label: str = ""                   # C: "<variant> at <axis>", naming an overflowing point
    coeffs: np.ndarray | None = None  # C: the coefficient columns the constants kappa_j weight

    @property
    def order(self) -> int:
        return self.terms.shape[0] - 1

    @property
    def pointwise(self) -> bool:
        return np.ndim(self.stop) > 0

    def rows(self, m: int):
        return np.minimum(self.stop, m + 1)

    def check(self, m: int) -> SeriesTerms:
        """The series, if its order-m sums do not overflow; else their
        OverflowError, naming the first overflowing point of a C series."""
        over = self.finite <= m
        if np.any(over):
            message = "series terms overflowed double precision"
            if self.pointwise:
                message = f"{self.label} = {float(self.points[np.argmax(over)]):g}: {message}"
            raise OverflowError(message)
        return self

    def values(self, m: int) -> np.ndarray:
        """The order-m sums, each column's kept rows in ascending order from
        +0 (a C column's rows past its own stop add +0); raises as `check`
        does.  numpy adds the rows of a C-contiguous matrix one after
        another, but sums a lone column pairwise, so that one takes the
        cumulative sum."""
        self.check(m)
        rows = self.rows(m)
        kept = self.terms[:rows.max()]
        if self.pointwise:
            kept = np.where(np.arange(kept.shape[0])[:, None] < rows, kept, 0.0)
        out = np.cumsum(kept, axis=0)[-1] if kept.shape[1] == 1 else np.sum(np.ascontiguousarray(kept), axis=0)
        out += 0.0  # -0 to +0
        return out

    def flagged(self, m: int) -> np.ndarray:
        return self.fires < self.rows(m)

    def sweep(self, orders, cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Every order of orders in one read: a row of sums per order, bit
        for bit `values(m)`, and whether `flagged(m)` holds at any point of
        cols; raises as `check` does at the highest order.

        Every column is summed over its kept rows in ascending order, from
        +0, whatever the grid: one cumulative sum down the orders, read at
        each column's last kept row (A/B: one row for the grid), with -0
        read as +0.  So a point's sum depends on its own terms and kept
        rows only; only an A/B grid's shared stop ties it to the others."""
        orders = np.asarray(orders, dtype=int)
        self.check(int(orders.max()))
        keep = np.minimum(self.stop, orders[:, None] + 1)  # orders x points (A/B: orders x 1)
        sums = np.cumsum(self.terms[:keep.max()], axis=0)
        if self.pointwise:
            out, keep = np.take_along_axis(sums, keep - 1, axis=0), keep[:, cols]
        else:
            out = sums[keep[:, 0] - 1]
        out += 0.0  # -0 to +0
        return out, np.any(self.fires[cols] < keep, axis=1)


def _first(flags: np.ndarray) -> np.ndarray:
    """Per column, the first row that is True (the row count if none)."""
    return np.argmax(np.concatenate([flags, np.ones((1,) + flags.shape[1:], dtype=bool)]), axis=0)


def _series(terms: np.ndarray, points: np.ndarray | None = None, label: str = "", coeffs=None) -> SeriesTerms:
    pointwise = points is not None
    mags = np.abs(terms)
    bad = ~np.isfinite(terms)
    if pointwise:
        small = mags < EARLY_STOP_TOL
    else:  # one stop for the grid: the largest term of each row decides
        small = np.max(mags, axis=1, keepdims=True) < EARLY_STOP_TOL
        bad = np.any(bad, axis=1, keepdims=True)
    stop = np.minimum(_first(_runs(small, EARLY_STOP_RUN)) + EARLY_STOP_RUN, terms.shape[0])
    finite = _first(bad)
    fires, growth = _scan(mags)
    if not pointwise:
        stop, finite = int(stop[0]), int(finite[0])
    return SeriesTerms(terms, stop, finite, fires, growth, points, label, coeffs)


def series_terms(weights: np.ndarray, basis: np.ndarray, pref) -> SeriesTerms:
    """terms[j, k] = weights[j] basis[j, k] (* pref[k]), early stop and scan."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term fails `check`
        terms = weights[:, None] * basis
        if pref is not None:
            terms = terms * pref[None, :]
    return _series(terms)


def pointwise_terms(kappa: np.ndarray, coeffs: np.ndarray, points: np.ndarray, label: str) -> SeriesTerms:
    """terms[j, k] = kappa[j] coeffs[j, k] at points[k], every column a
    series of its own (the C variants): early stop, overflow and scan per
    column, and each column summed over its own kept rows in ascending
    order, as every series is, so alone or in any grid.  1-D coeffs serve
    every point; an overflowing column (inf times a zero kappa: nan) stays
    non-finite, and `check` names its point after label ("<variant> at
    <axis>").  The series keeps coeffs, for another kappa to re-weight."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = kappa[:, None] * coeffs.reshape(kappa.size, -1)
    return _series(np.broadcast_to(terms, (kappa.size, points.size)), points, label, coeffs)



# --- the geometry-free solve ------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """What a series solve takes from its geometry.  A field that a tracer
    may rebind (the basis batch) calls the module's global at call time."""

    name: str           # LINE or POLAR
    basis: Callable     # (n, z): the basis polynomials of orders 0..n at z, orders x points
    norm: Callable      # (t): the heat kernel at time t is exp(-x^2/(4t)) / norm(t)
    ratio: Callable     # (num, den): the weight ratio g of an A/B sum
    update: Callable    # (g): the update of the weights w_0 = 1, w_{j+1} = update(w_j, j)
    moments: Callable   # (data, root, n, weighted): an A/B row's moment pass
    c_coeffs: Callable  # (data, root, n, points): a C row's coefficient columns
    check: Callable = lambda points: None  # raises ValueError on a point outside the domain


def coeffs(geometry: Geometry, direct: bool, variant: str, data, params, n: int, points):
    """The coefficients of a variant of the geometry and direction: an A/B
    row's moment pass, or a C row's columns at the points."""
    row = lookup(variant, geometry.name, direct)
    root = row.moment_root(params)
    if row.pointwise:
        return geometry.c_coeffs(data, root, n, points)
    return geometry.moments(data, root, n, row.weighted)


def basis_terms(geometry: Geometry, coeffs: np.ndarray, arg: float, ratio: float, pref, x: np.ndarray) -> SeriesTerms:
    """Terms c_j B_j(x/(2 sqrt(arg))) w_j [* heat kernel at time pref] of
    an A/B sum, with the weights of the geometry's ratio and update."""
    # an infinite argument fails the basis batch; x * x = inf far out: a zero prefactor
    with np.errstate(over="ignore"):
        basis = geometry.basis(coeffs.size - 1, x / (2.0 * math.sqrt(arg)))
        if pref is not None:
            pref = np.exp(-(x * x) / (4.0 * pref)) / geometry.norm(pref)
    return series_terms(ratio_weighted(coeffs, geometry.update(ratio)), basis, pref)


def evaluate(geometry: Geometry, direct: bool, variant: str, coeffs, params, x, mode: str) -> SeriesTerms:
    """The term matrix of a variant of the geometry and direction at the
    points x, unchecked: a C row's pointwise terms, or an A/B row's basis
    terms times the ratio weights times the heat-kernel prefactor."""
    row = lookup(variant, geometry.name, direct)
    check_mode(mode)
    coeffs = np.asarray(coeffs, float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    geometry.check(x)
    if row.pointwise:
        kappa = row.kappa(params, mode, coeffs.shape[0] - 1)
        return pointwise_terms(kappa, coeffs, x, f"{variant} at {AXIS[geometry.name]}")
    arg, num, den, pref = row.times(params)
    return basis_terms(geometry, coeffs, arg, geometry.ratio(num, den), pref, x)


def solve_grid(geometry: Geometry, variant: str, data, tau: float, beta: float, n: int, points, mode: str,
               direct: tuple, inverse: tuple, classical=None) -> SeriesTerms:
    """The term matrix of orders 0..n of a variant on a grid, from one pass
    of the (coeffs, eval) entries of its direction, checked at order n.
    The mode, the points and an A/B row's times are checked before the
    pass.  classical, on the line, evaluates CI-classical, which has no
    shift (it runs at beta = 0) and no moment pass."""
    check_mode(mode)
    if classical is not None and variant == CLASSICAL:
        if beta != 0.0:
            raise ValueError(f"CI-classical has no shift parameter; got beta={beta}")
        return classical(data, tau, n, points).check(n)
    row = lookup(variant, geometry.name)
    points = np.asarray(points, dtype=float)
    geometry.check(points)
    params = KernelParams(tau=tau, beta=beta)
    if not row.pointwise:
        row.times(params)
    coeffs_fn, eval_fn = direct if row.direct else inverse
    return eval_fn(variant, coeffs_fn(variant, data, params, n, points), params, points, mode).check(n)
