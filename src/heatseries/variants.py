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

A C variant recombines moments like its A sibling's, which do not depend on
the evaluation point, at each point by an addition theorem (`recombine`;
series_cartesian and series_polar say about which centre and in which
precision).

Evaluation builds the term matrix (orders x points), stops early after
EARLY_STOP_RUN consecutive rows below abs_tol, sums each point in ascending
order, and scans every point's term magnitudes for divergence.  The matrix is
kept whole so an order sweep can sum each order's own rows, and a grid solve
reads its values and flags from it; the per-point `DivergenceDiag` records
are built for the public (values, diags) functions only.  A/B rows stop
together (the largest term of a row decides); every C column is a series of
its own, with its own early stop and overflow row.

`grid_series` builds the term matrices of one variant on a grid from one
coefficient pass, with the coefficient and series functions of its geometry
passed in: the series modules pass their own (`solve_grid_line`,
`solve_grid_polar`), and `experiments` holds the one map from a geometry to
them that the CLI and every study use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

LINE, POLAR = "line", "polar"
CLASSICAL = "CI-classical"  # the derivative-based line baseline; no shift, no table row
CONSTANTS_MODES = ("oracle_validated", "paper_literal")
AXIS = {LINE: "x", POLAR: "r"}

EARLY_STOP_RUN = 3  # consecutive sub-threshold terms before stopping
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

@dataclass(frozen=True)
class DivergenceDiag:
    """Empirical growth monitor for one truncated-series evaluation.

    flagged is set when the term magnitudes grow through GROWTH_RUN
    consecutive comparisons starting at or after index GROWTH_MIN_INDEX;
    first_growth_index is the start of the first such run.  Terms more than
    GROWTH_NOISE_REL below the running maximum are numerically zero (parity
    zeros, quadrature noise) and are invisible to the scan.
    """

    term_magnitudes: np.ndarray
    flagged: bool
    first_growth_index: int | None


def ratio_products(first: float, n: int, update) -> np.ndarray:
    """out[0] = first, out[j+1] = update(out[j], j): factorial-bearing weights
    by multiplicative updates, never by factorials."""
    out = np.empty(n + 1)
    out[0] = first
    with np.errstate(over="ignore", invalid="ignore"):  # an inf weight makes its terms fail `check`
        for j in range(n):
            out[j + 1] = update(out[j], j)
    return out


def recombine(table: np.ndarray, x, shift) -> np.ndarray:
    """C coefficients at the points x from moments that do not depend on them.

    Column k is sum_d table[:, d] u_k^d with u_k = shift(x_k), the addition
    theorem of the geometry written as a polynomial in u (orders x points;
    1-D for a scalar x).  The sum runs in the table's precision and returns
    float64.  Where it overflows, the coefficients are non-finite and the
    evaluation at that point raises OverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = shift(np.atleast_1d(np.asarray(x, dtype=table.dtype)))
        powers = u[None, :] ** np.arange(table.shape[1])[:, None]
        # summed column by column in ascending d, so a point's coefficients
        # do not depend on the other points of the grid
        coeffs = sum(table[:, d, None] * powers[d] for d in range(table.shape[1])).astype(float)
    return coeffs[:, 0] if np.ndim(x) == 0 else coeffs


def _run_lengths(flags: np.ndarray) -> np.ndarray:
    """Length of the run of True ending at each row, down axis 0."""
    k = np.arange(flags.shape[0]).reshape((-1,) + (1,) * (flags.ndim - 1))
    return k - np.maximum.accumulate(np.where(flags, -1, k), axis=0)


def _scan(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divergence scan of every column of a magnitude matrix.

    Returns, per column, the row at which the flag fires (the row count if
    it never does) and the first growth index (-1 if none).  Whether a row
    fires depends on the rows above it only, so a truncation to L rows is
    flagged exactly when its column fires at a row below L.
    """
    rows = mags.shape[0]
    running_max = np.maximum.accumulate(np.maximum(mags, 1e-300), axis=0)
    visible = mags > GROWTH_NOISE_REL * running_max
    # each column's visible rows first, in ascending order
    order = np.argsort(~visible, axis=0, kind="stable")
    seq = np.take_along_axis(mags, order, axis=0)
    valid = np.arange(rows)[:, None] < np.count_nonzero(visible, axis=0)
    grows = np.zeros_like(valid)
    grows[1:] = valid[1:] & (seq[1:] > seq[:-1])
    start = np.full_like(order, -1)
    start[GROWTH_RUN:] = order[:-GROWTH_RUN]
    fires = (_run_lengths(grows) >= GROWTH_RUN) & (start >= GROWTH_MIN_INDEX)
    first = np.argmax(fires, axis=0)
    cols = np.arange(mags.shape[1])
    hit = fires[first, cols]
    return np.where(hit, order[first, cols], rows), np.where(hit, start[first, cols], -1)


@dataclass(frozen=True)
class SeriesTerms:
    """A truncated series at a set of points, with every order's answer.

    terms is the full (n+1, points) matrix.  The order-m truncation keeps
    rows(m) rows: the early stop depends on the rows above it only, as does
    the divergence scan, so slicing gives exactly what a separate evaluation
    at order m would.  stop and finite are one count for the grid (A/B: the
    largest term of a row decides), or one per point when every column is a
    series of its own (C: `pointwise_terms`).
    """

    terms: np.ndarray
    stop: int | np.ndarray    # rows kept by the early stop at full order
    finite: int | np.ndarray  # rows before the first non-finite term
    fires: np.ndarray         # per point: the row at which divergence is flagged
    growth: np.ndarray        # per point: the first growth index, -1 if none

    @property
    def order(self) -> int:
        return self.terms.shape[0] - 1

    @property
    def pointwise(self) -> bool:
        return np.ndim(self.stop) > 0

    def rows(self, m: int):
        return np.minimum(self.stop, m + 1)

    def check(self, m: int) -> None:
        """Raise the OverflowError of the order-m sums, if they overflow; its
        `point` is the first overflowing column (C), None for A/B."""
        if np.any(self.finite <= m):
            exc = OverflowError("series terms overflowed double precision")
            exc.point = int(np.argmax(self.finite <= m)) if self.pointwise else None
            raise exc

    def values(self, m: int) -> np.ndarray:
        """The order-m sums; raises as `check` does."""
        self.check(m)
        rows = self.rows(m)
        if not self.pointwise:
            return np.sum(self.terms[:rows], axis=0)
        # each point alone, as numpy sums one column: a contiguous (pairwise)
        # sum of its kept rows, for the points of each row count together
        out = np.empty(self.terms.shape[1])
        for r in np.unique(rows):
            at = rows == r
            out[at] = np.sum(np.ascontiguousarray(self.terms[:r].T[at]), axis=1)
        return out

    def flagged(self, m: int) -> np.ndarray:
        return self.fires < self.rows(m)


def _first(flags: np.ndarray) -> np.ndarray:
    """Per column, the first row that is True (the row count if none)."""
    return np.where(np.any(flags, axis=0), np.argmax(flags, axis=0), flags.shape[0])


def _series(terms: np.ndarray, abs_tol: float, pointwise: bool) -> SeriesTerms:
    mags = np.abs(terms)
    bad = ~np.isfinite(terms)
    if pointwise:
        small = mags < abs_tol
    else:  # one stop for the grid: the largest term of each row decides
        small = np.max(mags, axis=1, keepdims=True) < abs_tol
        bad = np.any(bad, axis=1, keepdims=True)
    stop = np.minimum(_first(_run_lengths(small) >= EARLY_STOP_RUN) + 1, terms.shape[0])
    finite = _first(bad)
    fires, growth = _scan(mags)
    if not pointwise:
        stop, finite = int(stop[0]), int(finite[0])
    return SeriesTerms(terms, stop, finite, fires, growth)


def series_terms(weights: np.ndarray, basis: np.ndarray, pref, abs_tol: float) -> SeriesTerms:
    """terms[j, k] = weights[j] basis[j, k] (* pref[k]), early stop and scan."""
    terms = weights[:, None] * basis
    if pref is not None:
        terms = terms * pref[None, :]
    return _series(terms, abs_tol, pointwise=False)


def pointwise_terms(kappa: np.ndarray, coeffs: np.ndarray, points: int, abs_tol: float) -> SeriesTerms:
    """terms[j, k] = kappa[j] coeffs[j, k], every column a series of its own
    (the C variants): early stop, overflow and scan per column, and each
    column summed as it would be alone.  1-D coeffs serve every point; an
    overflowing column (inf times a zero kappa: nan) stays non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = kappa[:, None] * coeffs.reshape(kappa.size, -1)
    return _series(np.broadcast_to(terms, (kappa.size, points)), abs_tol, pointwise=True)


def point_results(series: SeriesTerms, x):
    """The public (value, diag) for a scalar x, (values, diags) for an array."""
    n = series.order
    values = series.values(n)
    rows = np.broadcast_to(series.rows(n), series.fires.shape)
    mags = np.abs(series.terms)
    flagged = series.flagged(n)
    diags = [
        DivergenceDiag(mags[: rows[c], c], bool(flagged[c]), int(series.growth[c]) if flagged[c] else None)
        for c in range(mags.shape[1])
    ]
    if np.ndim(x) == 0:
        return float(values[0]), diags[0]
    return values, diags


def grid_series(row: Variant, coeffs_fn, series_fn, data, params, n: int, xs, mode: str, spec):
    """build(m): the term matrix of orders 0..m <= n of one variant on a grid,
    from one coefficient call at order n through the public coefficient
    function; a pointwise (C) variant's call gives one coefficient column per
    point, each summed on its own."""
    if params is None:
        raise ValueError(f"{row.name} needs KernelParams")
    xs = np.asarray(xs, dtype=float)
    coeffs = np.asarray(coeffs_fn(row.name, data, params, n, xs, spec), float)  # the points matter to C only
    points = np.atleast_1d(xs)
    return lambda m: series_fn(row, coeffs[: m + 1], params, points, mode)


def checked(series: SeriesTerms, name: str, xs, n: int) -> SeriesTerms:
    """The series with its order-n sums checked; an overflowing pointwise
    (C) grid names its first overflowing point."""
    try:
        series.check(n)
    except OverflowError as exc:
        if exc.point is None:
            raise
        x = float(np.atleast_1d(xs)[exc.point])  # the first point whose own sum overflows
        raise OverflowError(f"{name} at {AXIS[geometry_of(name)]} = {x:g}: {exc}") from exc
    return series
