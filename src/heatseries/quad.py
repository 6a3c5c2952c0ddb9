"""Adaptive composite Gauss-Legendre quadrature on a finite interval.

The engine of the package's integrals that have no closed form: fixed-order
Gauss-Legendre panels on [lo, hi], refined by global bisection until two
successive refinement levels agree.  Its one caller is
`profiles.data_integral`, which the two oracles (`kernels.forward_line`,
`kernels.forward_polar`) and the moment passes
(`series_cartesian._hermite_moments`, `series_polar._w_radial_moments`)
take wherever the data has no closed form of its own (`profiles.data_fact`).
It cuts each caller's window to the data's support
(`profiles.profile_support`); kernels, weights and Gaussian tails are
truncated at TRUNCATION_RADIUS_SIGMAS decay scales.

The package computes at one quadrature configuration, the one the audit
certifies: the module constants below.  `integrate_vec(f, lo, hi, ...)` is
the one entry point, and it reads them at call time; no caller sets them.

The convergence test allows for the conditioning floor of a finite-precision
sum: a component is accepted once the refinement difference is below
max(ABS_TOL, REL_TOL*|I|, 32*eps*int|f|).  Oscillatory polynomial-times-
Gaussian integrands of high order cancel massively, and no quadrature can
deliver relative accuracy past eps * int|f| / |I|; the floor term makes the
engine converge to exactly the accuracy that is attainable.

Every level is evaluated by one block loop: each integrand call gets at
most BLOCK_NODES nodes, built from the panels that block covers only, and
the blocks' sums are added in ascending order of the nodes.  Every sample
of sampled data is a breakpoint, so a level can hold far more nodes than a
block; neither the integrand's memory nor the engine's grows with the
number of panels beyond their edges.  The first two levels, which every
integral computes, take one integrand call when together they fit in a
block; each level is summed from its own contiguous part of the values, so
the sums are bitwise those of two calls.  A non-finite level-0 sum raises
after that call, and an integrand that raises in it is called again level
by level, so the exception is the one the levels raise.

The integrand hands over the array it returns: the engine may overwrite an
array that owns its memory (it takes the magnitudes for the floor in place)
and leaves a view alone, so an integrand returns a fresh array, never one it
keeps.  An integrand may return np.longdouble values (the plane C moments)
to be summed in that precision.  The rule and the floor stay float64: the
rule's rounding perturbs every integral alike, which the C recombinations do
not amplify; the rounding of values and sums is what they amplify.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["AccuracyError", "integrate_vec"]

_EPS = float(np.finfo(float).eps)
BLOCK_NODES = 4096  # most nodes per integrand call, on every level
TRUNCATION_RADIUS_SIGMAS = 12.0  # decay scales kept of an infinite domain or a profile's tails
NODES_PER_PANEL = 16  # Gauss-Legendre nodes per panel of an adaptive level
REL_TOL = 1e-10  # acceptance: relative refinement difference
ABS_TOL = 1e-14  # acceptance: absolute refinement difference
MAX_PANELS = 4096  # refinement budget of an adaptive pass


class AccuracyError(RuntimeError):
    """Requested tolerance not reached within MAX_PANELS.

    Carries the best estimate and its error estimate so callers can decide
    whether the partial answer is usable.
    """

    def __init__(self, message: str, value, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@functools.lru_cache(maxsize=32)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _panel_edges(lo: float, hi: float, n_panels: int, breakpoints) -> np.ndarray:
    edges = np.linspace(lo, hi, n_panels + 1)
    if breakpoints is not None:
        inner = np.asarray(breakpoints, dtype=float)
        inner = inner[(inner > lo) & (inner < hi)]
        edges = np.unique(np.concatenate([edges, inner]))
    return edges


def _level(edges: np.ndarray, rule, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights start:stop of one level (the rule on every panel, in
    panel order), built from the panels they fall in only."""
    xg, wg = rule
    size = xg.size
    stop = (edges.size - 1) * size if stop is None else stop
    first, last = start // size, -(-stop // size)
    edges = edges[first : last + 1]
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    cut = slice(start - first * size, stop - first * size)
    return (mid[:, None] + half[:, None] * xg[None, :]).ravel()[cut], (half[:, None] * wg[None, :]).ravel()[cut]


def _values(f, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(nodes))
    vals = vals.astype(np.result_type(vals.dtype, float), copy=False)  # float64, or a wider float as given
    if vals.shape[-1] != nodes.shape[0]:
        raise ValueError(
            "integrand must be vectorized: f(nodes) must return an array whose "
            "last axis matches the nodes"
        )
    return vals


def _owned(vals: np.ndarray) -> bool:
    """Whether the engine may overwrite vals: the integrand's own fresh array."""
    return vals.flags.owndata and vals.flags.writeable


def _sums(vals: np.ndarray, weights: np.ndarray, writable: bool) -> tuple:
    """The weighted sums of vals and of |vals|, the magnitudes taken in
    place when writable.  Not-finite sums are left to the caller.

    np.longdouble values take np.dot, which gives the bits of numpy's
    longdouble matmul loop in under half its time; float64 keeps matmul,
    whose bits np.dot does not give for every layout."""
    dot = np.dot if vals.dtype == np.longdouble else np.matmul
    with np.errstate(over="ignore", invalid="ignore"):
        total = dot(vals, weights)
        return total, dot(np.abs(vals, out=vals if writable else None), weights)


def _block_sums(f, edges: np.ndarray, rule) -> tuple:
    """The sums of one level (as _sums), BLOCK_NODES nodes per integrand call,
    each block's nodes built from its own panels, and the blocks' sums added
    in ascending order of the nodes."""
    parts = []
    total = (edges.size - 1) * rule[0].size
    for start in range(0, total, BLOCK_NODES):
        nodes, weights = _level(edges, rule, start, min(start + BLOCK_NODES, total))
        vals = _values(f, nodes)
        parts.append(_sums(vals, weights, _owned(vals)))
        del vals  # freed before the next block is evaluated, which then reuses its memory
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(functools.reduce(np.add, column) for column in zip(*parts))


def _checked(sums: tuple, edges: np.ndarray) -> tuple:
    """A refinement level's sums; OverflowError when a sum is not finite,
    which no refinement mends."""
    if not np.all(np.isfinite(sums[0])):
        raise OverflowError(f"quadrature level sum is not finite on [{float(edges[0])}, {float(edges[-1])}]")
    return sums


def _level_sum(f, edges: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """One refinement level: the sums and the sums of magnitudes."""
    return _checked(_block_sums(f, edges, rule), edges)


def _first_levels(f, edges: np.ndarray, rule) -> tuple:
    """Levels 0 and 1 of the refinement: (level 0 sums, level 1 edges, level 1
    sums).  When together they fit in one block they take one integrand call,
    each level summed from its own contiguous part of the values, which gives
    the sums of separate calls bit for bit."""
    fine = _bisect(edges)
    if 3 * (edges.size - 1) * rule[0].size <= BLOCK_NODES:  # level 1 has twice the panels of level 0
        (x0, w0), (x1, w1) = _level(edges, rule), _level(fine, rule)
        try:
            vals = _values(f, np.concatenate([x0, x1]))
        except Exception:  # the level-by-level calls below raise the sequence's own exception
            pass
        else:
            owned = _owned(vals)
            coarse = np.ascontiguousarray(vals[..., : x0.size])
            refined = np.ascontiguousarray(vals[..., x0.size :])
            # a part that is still a view (one row) is the integrand's memory
            return (
                _checked(_sums(coarse, w0, owned or coarse.flags.owndata), edges),
                fine,
                _checked(_sums(refined, w1, owned or refined.flags.owndata), fine),
            )
    return _level_sum(f, edges, rule), fine, _level_sum(f, fine, rule)


def _bisect(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def integrate_vec(f, lo: float, hi: float, breakpoints=None):
    """Integrate a vector-valued integrand over [lo, hi]; returns (values,
    err_estimate).

    f maps an ndarray of nodes to an array (..., n_nodes); all components are
    integrated on the same refined panel grid and must individually satisfy
    the convergence test.  err_estimate is the largest refinement difference
    at acceptance.  Raises ValueError unless lo < hi, AccuracyError when
    MAX_PANELS is exhausted, and OverflowError at the first level whose sum
    is not finite.

    f is called with at most BLOCK_NODES nodes at a time.  It returns a
    fresh array; the engine may overwrite it.  An array that does not own
    its memory (a view) is never written to.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    edges = _panel_edges(lo, hi, min(8, MAX_PANELS), breakpoints)
    rule = _gl_rule(NODES_PER_PANEL)
    (prev, _), edges, (cur, l1) = _first_levels(f, edges, rule)
    while True:
        diff = np.abs(cur - prev)
        tol = np.maximum(ABS_TOL, np.maximum(REL_TOL * np.abs(cur), 32.0 * _EPS * l1))
        if np.all(diff <= tol):
            return cur, float(np.max(diff))
        if edges.size - 1 >= MAX_PANELS:
            raise AccuracyError(
                f"quadrature did not reach tolerance within {MAX_PANELS} panels on [{lo}, {hi}]",
                cur,
                float(np.max(diff)),
            )
        prev = cur
        edges = _bisect(edges)
        cur, l1 = _level_sum(f, edges, rule)
